"""Page-level aggregation: per-patch l2, sum pooling, signed power
normalization, and PCA whitening across the page collection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .features import PcaModel, as_matrix, fit_pca, pca_transform

POWER_ALPHA = 0.4


@dataclass(frozen=True)
class PageEmbedding:
    """One global descriptor per page; unit norm after whitening."""

    page_id: str
    writer_id: str
    vector: np.ndarray

    def __post_init__(self) -> None:
        if self.vector.ndim != 1 or not np.isfinite(self.vector).all():
            raise ValidationError(f"page {self.page_id}: embedding must be a finite vector")


def page_matrix(pages: list[PageEmbedding]) -> np.ndarray:
    """The pages' vectors as one float64 (n, dim) matrix, row i from page i."""
    if not pages:
        raise ValidationError("need a nonempty page collection")
    dims = {p.vector.shape[0] for p in pages}
    if len(dims) != 1:
        raise ValidationError(f"embeddings have mixed dimensions {sorted(dims)}")
    return np.array([p.vector for p in pages], dtype=np.float64)


def pool_page(encodings: np.ndarray) -> np.ndarray:
    """l2-normalize each flattened patch encoding, then sum in row order.

    numpy sums a C-contiguous matrix down axis 0 one row at a time, so the
    patches are added in order; its pairwise summation applies only along
    the contiguous axis, hence the C-ordered unit rows.
    """
    encodings = as_matrix(encodings, "pool_page")
    if encodings.shape[0] == 0:
        raise ValidationError("pool_page needs at least one patch encoding")
    norms = np.linalg.norm(encodings, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if len(zero):
        raise ValidationError(f"patch {int(zero[0])} has an all-zero encoding")
    unit = np.divide(encodings, norms[:, None], order="C")
    return unit.sum(axis=0)


def power_normalize(v: np.ndarray) -> np.ndarray:
    """sign(x) |x|^POWER_ALPHA componentwise, then l2; zero maps to zero."""
    v = np.asarray(v, dtype=np.float64)
    powered = np.sign(v) * np.abs(v) ** POWER_ALPHA
    norm = np.linalg.norm(powered)
    return powered / norm if norm > 0.0 else powered


def whiten_pages(
    raw_vectors: np.ndarray,
    target_dim: int,
    page_ids: list[str],
    writer_ids: list[str],
    pca: PcaModel | None = None,
) -> tuple[list[PageEmbedding], PcaModel]:
    """Whiten pooled page vectors and l2-normalize each result.

    By default the whitening PCA is fit on the given collection; passing a
    prefit model applies it instead (the training-collection variant),
    which must then project to target_dim.
    """
    raw = as_matrix(raw_vectors, "whiten_pages")
    n = raw.shape[0]
    if pca is None:
        if n <= 2:
            raise ValidationError("whitening needs more than 2 pages")
        if target_dim > min(n - 1, raw.shape[1]):
            raise ValidationError(
                f"target_dim {target_dim} exceeds min(pages - 1, raw dim) "
                f"= {min(n - 1, raw.shape[1])}"
            )
        pca = fit_pca(raw, target_dim=target_dim, whiten=True)
    elif pca.d_out != target_dim:
        raise ValidationError(
            f"prefit page PCA projects to {pca.d_out} dims, expected target_dim {target_dim}"
        )
    transformed = pca_transform(pca, raw)
    norms = np.linalg.norm(transformed, axis=1)
    if np.any(norms == 0.0):
        idx = int(np.flatnonzero(norms == 0.0)[0])
        raise ValidationError(f"page {idx} collapsed to zero after whitening")
    unit = transformed / norms[:, None]
    if len(page_ids) != n or len(writer_ids) != n:
        raise ValidationError("page_ids/writer_ids must parallel the vectors")
    embeddings = [
        PageEmbedding(page_id=p, writer_id=w, vector=unit[i])
        for i, (p, w) in enumerate(zip(page_ids, writer_ids))
    ]
    return embeddings, pca


def aggregate_pages(
    per_page_encodings: list[np.ndarray],
    page_ids: list[str],
    writer_ids: list[str],
    target_dim: int,
    pca: PcaModel | None = None,
) -> tuple[list[PageEmbedding], PcaModel]:
    """Full aggregation: pool each page, power-normalize, whiten, l2."""
    if not per_page_encodings:
        raise ValidationError("no pages to aggregate")
    if not (len(per_page_encodings) == len(page_ids) == len(writer_ids)):
        raise ValidationError("page lists must be parallel")
    pooled = [power_normalize(pool_page(e)) for e in per_page_encodings]
    return whiten_pages(
        np.array(pooled), target_dim, page_ids=page_ids, writer_ids=writer_ids, pca=pca
    )
