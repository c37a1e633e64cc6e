"""Embedding refinement after retrieval: similarity-graph propagation plus
two query-expansion baselines."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import PageEmbedding
from .errors import ValidationError
from .retrieval import rank_rows

METHODS = ("sgr", "krnn_qe", "hard_graph")
UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class SimilarityGraph:
    """Dense cosine similarities and their decayed adjacency."""

    similarity: np.ndarray  # (n, n), s_ij = x_i . x_j
    adjacency: np.ndarray  # (n, n), exp(-(1 - s_ij)^2 / gamma)


@dataclass(frozen=True)
class RerankConfig:
    """Parameters for one rerank pass; k1 only applies to hard_graph."""

    method: str = "sgr"
    k: int = 2
    layers: int = 1
    gamma: float = 0.4
    k1: int = 4

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValidationError(f"unknown rerank method {self.method!r}")
        if self.k < 1 or self.layers < 1:
            raise ValidationError("k and layers must be >= 1")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValidationError("gamma must be finite and positive")
        if self.k1 < 1:
            raise ValidationError("k1 must be >= 1")


def _unit_matrix(pages: list[PageEmbedding]) -> np.ndarray:
    if not pages:
        raise ValidationError("need a nonempty embedding collection")
    dims = {p.vector.shape[0] for p in pages}
    if len(dims) != 1:
        raise ValidationError(f"embeddings have mixed dimensions {sorted(dims)}")
    vectors = np.array([p.vector for p in pages], dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise ValidationError(
            f"page {pages[worst].page_id} is not unit-norm; rerank inputs "
            "must come from the aggregation stage"
        )
    return vectors


def build_similarity_graph(pages: list[PageEmbedding], gamma: float) -> SimilarityGraph:
    """Dense graph over the collection: s_ij = x_i . x_j and
    A_ij = exp(-(1 - s_ij)^2 / gamma)."""
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    unit = _unit_matrix(pages)
    sims = unit @ unit.T
    adjacency = np.exp(-((1.0 - sims) ** 2) / gamma)
    return SimilarityGraph(similarity=sims, adjacency=adjacency)


def _propagate(
    features: np.ndarray,
    neighbors: np.ndarray,
    weights: np.ndarray,
    layers: int,
) -> np.ndarray:
    """h_i <- l2(h_i + sum_j w_ij h_j) over the (n, k) neighbors, `layers` times.

    Neighbor contributions are added in descending-weight order (ties by
    ascending index) so the sum is bitwise permutation-equivariant."""
    neighbors = rank_rows(weights, np.arange(len(weights)), candidates=neighbors)
    w = np.take_along_axis(weights, neighbors, axis=1)
    h = features.copy()
    for _ in range(layers):
        nxt = h.copy()
        for c in range(neighbors.shape[1]):
            nxt += w[:, c, None] * h[neighbors[:, c]]
        norms = np.linalg.norm(nxt, axis=1)
        safe = np.where(norms > 0.0, norms, 1.0)
        h = nxt / safe[:, None]
    return h


def _membership(neighbors: np.ndarray) -> np.ndarray:
    """Boolean (n, n) matrix: member[i, j] iff j is among neighbors[i]."""
    member = np.zeros((len(neighbors), len(neighbors)), dtype=bool)
    np.put_along_axis(member, neighbors, True, axis=1)
    return member


def _with_vectors(pages: list[PageEmbedding], vectors: np.ndarray) -> list[PageEmbedding]:
    return [
        PageEmbedding(page_id=p.page_id, writer_id=p.writer_id, vector=vectors[i])
        for i, p in enumerate(pages)
    ]


def sgr(pages: list[PageEmbedding], cfg: RerankConfig) -> list[PageEmbedding]:
    """Similarity-graph reranking: adjacency rows become vertex features,
    then aggregation over the k nearest neighbors, weighted by similarity,
    runs for cfg.layers rounds."""
    if cfg.method != "sgr":
        raise ValidationError("config method must be sgr")
    if len(pages) < cfg.k + 1:
        raise ValidationError("need at least k + 1 pages")
    graph = build_similarity_graph(pages, cfg.gamma)
    neighbors = rank_rows(graph.similarity, np.arange(len(pages)))[:, : cfg.k]
    refined = _propagate(graph.adjacency.copy(), neighbors, graph.similarity, cfg.layers)
    return _with_vectors(pages, refined)


def krnn_qe(pages: list[PageEmbedding], k: int) -> list[PageEmbedding]:
    """Reciprocal-kNN query expansion: average each embedding with the
    neighbors that also list it back, then l2-normalize."""
    if len(pages) < 2:
        raise ValidationError("need at least 2 pages")
    if k < 1:
        raise ValidationError("k must be >= 1")
    unit = _unit_matrix(pages)
    sims = unit @ unit.T
    neighbors = rank_rows(sims, np.arange(len(pages)))[:, :k]
    member = _membership(neighbors)
    # reciprocal[i, c]: vertex i is among the neighbors of its c-th neighbor
    reciprocal = np.take_along_axis(member.T, neighbors, axis=1)
    acc = unit.copy()
    for c in range(neighbors.shape[1]):
        np.add(acc, unit[neighbors[:, c]], out=acc, where=reciprocal[:, c, None])
    acc /= (reciprocal.sum(axis=1) + 1)[:, None]
    norms = np.linalg.norm(acc, axis=1)
    out = acc / np.where(norms > 0.0, norms, 1.0)[:, None]
    return _with_vectors(pages, out)


def hard_graph_rerank(
    pages: list[PageEmbedding], k1: int, k2: int, layers: int
) -> list[PageEmbedding]:
    """Discrete-adjacency baseline: A_ij is 1 for mutual k1-NN, 1/2 for
    one-directional, 0 otherwise (A_ii = 1); rows of A are the features,
    aggregation uses the k2 most cosine-similar vertices weighted by A."""
    n = len(pages)
    if not 1 <= k2 <= k1 < n:
        raise ValidationError("need k2 <= k1 < page count")
    if layers < 1:
        raise ValidationError("layers must be >= 1")
    unit = _unit_matrix(pages)
    sims = unit @ unit.T
    order = rank_rows(sims, np.arange(n))
    fwd = _membership(order[:, :k1])
    adjacency = np.where(fwd & fwd.T, 1.0, np.where(fwd | fwd.T, 0.5, 0.0))
    np.fill_diagonal(adjacency, 1.0)
    neighbors = order[:, :k2]
    refined = _propagate(adjacency.copy(), neighbors, adjacency, layers)
    return _with_vectors(pages, refined)


def rerank(pages: list[PageEmbedding], cfg: RerankConfig) -> list[PageEmbedding]:
    """Dispatch on cfg.method."""
    if cfg.method == "sgr":
        return sgr(pages, cfg)
    if cfg.method == "krnn_qe":
        return krnn_qe(pages, cfg.k)
    return hard_graph_rerank(pages, cfg.k1, cfg.k, cfg.layers)
