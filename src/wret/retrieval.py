"""Leave-one-out retrieval over page embeddings: cosine ranking, average
precision, mAP and Top-1."""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .aggregation import PageEmbedding
from .errors import ValidationError


@dataclass(frozen=True)
class RankedList:
    """Full gallery ranking for one query, most similar first."""

    query: str
    gallery: tuple[str, ...]
    scores: tuple[float, ...]


@dataclass(frozen=True)
class Ranking(Sequence):
    """Leave-one-out ranking of a whole collection: row q of `order` holds
    the gallery indices for query page_ids[q], best first, and `scores`
    their similarities. Each item is that query's RankedList."""

    page_ids: tuple[str, ...]
    order: np.ndarray  # (n, n - 1) gallery indices
    scores: np.ndarray  # (n, n - 1) similarities, non-increasing per row

    def __len__(self) -> int:
        return len(self.page_ids)

    def __getitem__(self, q: int) -> RankedList:
        q = range(len(self))[q]
        return RankedList(
            query=self.page_ids[q],
            gallery=tuple(self.page_ids[j] for j in self.order[q]),
            scores=tuple(self.scores[q].tolist()),
        )


@dataclass(frozen=True)
class RetrievalReport:
    """Aggregate metrics plus per-query detail rows.

    Queries whose gallery holds no same-writer page are excluded from map
    and top1 and surface in isolated_queries; score_isolated_as_zero folds
    them in as AP 0 instead.
    """

    map: float
    top1: float
    per_query_ap: dict[str, float]
    per_query_top1: dict[str, bool]
    first_relevant_rank: dict[str, int]
    isolated_queries: tuple[str, ...]
    query_count: int


def rank_rows(
    scores: np.ndarray, tie_rank: np.ndarray, candidates: np.ndarray | None = None
) -> np.ndarray:
    """Each row's candidate columns (an (n, m) index matrix) reordered by
    descending score, ties by ascending tie_rank of the column. By default
    the candidates are every column but the row's own: the (n, n - 1)
    leave-one-out ranking.

    One unstable sort per row gives the unique order wherever the sorted
    keys strictly increase; only rows with an exact tie (signed zeros
    included), a NaN or a -inf score are sorted again by (score, tie_rank).
    """
    if candidates is None:
        # The row's own column sorts last behind +inf and is dropped.
        keys = -scores
        np.fill_diagonal(keys, np.inf)
    else:
        keys = -np.take_along_axis(scores, candidates, axis=1)
    n, m = keys.shape
    order = np.argsort(keys, axis=1)
    # A flat gather: take_along_axis is slower at this size.
    ranked = keys.ravel()[order + m * np.arange(n)[:, None]]
    redo = np.flatnonzero(~np.all(ranked[:, 1:] > ranked[:, :-1], axis=1))
    if candidates is None:
        order = order[:, :-1].copy()  # contiguous, for the callers' gathers
        cols = np.arange(order.shape[1])
        sub = cols + (cols >= redo[:, None])
        sub_keys = np.take_along_axis(keys[redo], sub, axis=1)
    else:
        order = np.take_along_axis(candidates, order, axis=1)
        sub = candidates[redo]
        sub_keys = keys[redo]
    if len(redo):
        tied = np.lexsort((tie_rank[sub], sub_keys), axis=1)
        order[redo] = np.take_along_axis(sub, tied, axis=1)
    return order


def average_precisions(hits: np.ndarray) -> np.ndarray:
    """AP of every row of a boolean relevance matrix ranked left to right:
    the mean of hits_so_far/position over the relevant positions, summed
    in rank order. A row without hits scores 0.0."""
    precision = np.cumsum(hits, axis=1) / np.arange(1, hits.shape[1] + 1)
    summed = np.cumsum(np.where(hits, precision, 0.0), axis=1)[:, -1]
    total = hits.sum(axis=1)
    return np.where(total > 0, summed / np.maximum(total, 1), 0.0)


def rank_all(pages: list[PageEmbedding]) -> Ranking:
    """Each page queries all the others; exhaustive cosine ranking with
    ties broken by ascending page_id."""
    if len(pages) < 2:
        raise ValidationError("ranking needs at least 2 pages")
    ids = [p.page_id for p in pages]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate page_id in the collection")
    vectors = np.array([p.vector for p in pages], dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0.0):
        raise ValidationError("zero embedding cannot be ranked")
    unit = vectors / norms[:, None]
    sims = unit @ unit.T
    id_rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))
    order = rank_rows(sims, id_rank)
    return Ranking(
        page_ids=tuple(ids), order=order, scores=np.take_along_axis(sims, order, axis=1)
    )


def evaluate(
    ranking: Ranking,
    writers: dict[str, str],
    score_isolated_as_zero: bool = False,
) -> RetrievalReport:
    """Score a ranking against writer identities."""
    ids = ranking.page_ids
    for page in ids:
        if page not in writers:
            raise ValidationError(f"page {page} has no writer identity")
    _, labels = np.unique([writers[p] for p in ids], return_inverse=True)
    hits = labels[ranking.order] == labels[:, None]
    ap = average_precisions(hits)
    isolated = ~hits.any(axis=1)
    first = np.where(isolated, 0, np.argmax(hits, axis=1) + 1)
    scored = np.flatnonzero(~isolated | score_isolated_as_zero)
    return RetrievalReport(
        map=float(np.mean(ap[scored])) if len(scored) else 0.0,
        top1=float(np.mean(hits[scored, 0])) if len(scored) else 0.0,
        per_query_ap={ids[q]: float(ap[q]) for q in scored},
        per_query_top1={ids[q]: bool(hits[q, 0]) for q in scored},
        first_relevant_rank={ids[q]: int(first[q]) for q in scored},
        isolated_queries=tuple(ids[q] for q in np.flatnonzero(isolated)),
        query_count=len(ids),
    )


def report_to_json(report: RetrievalReport) -> dict:
    """JSON-ready summary; per-query metrics keyed by page id."""
    return {
        "map": report.map,
        "top1": report.top1,
        "query_count": report.query_count,
        "isolated_queries": list(report.isolated_queries),
        "per_query": {
            q: {
                "ap": report.per_query_ap[q],
                "top1_hit": report.per_query_top1[q],
                "first_relevant_rank": report.first_relevant_rank[q],
            }
            for q in sorted(report.per_query_ap)
        },
    }


def report_to_csv(report: RetrievalReport) -> str:
    """Per-query rows: query, ap, top1_hit, first_relevant_rank."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["query", "ap", "top1_hit", "first_relevant_rank"])
    for q in sorted(report.per_query_ap):
        writer.writerow(
            [
                q,
                repr(report.per_query_ap[q]),
                int(report.per_query_top1[q]),
                report.first_relevant_rank[q],
            ]
        )
    return buf.getvalue()
