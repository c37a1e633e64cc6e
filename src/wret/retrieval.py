"""Leave-one-out retrieval over page embeddings: cosine ranking, average
precision, mAP and Top-1."""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .aggregation import PageEmbedding
from .errors import ValidationError

# Rows per leave-one-out sort in evaluate: bounds its (rows, n) temporaries.
RANK_BLOCK = 64


@dataclass(frozen=True)
class RankedList:
    """Full gallery ranking for one query, most similar first."""

    query: str
    gallery: tuple[str, ...]


@dataclass(frozen=True)
class Ranking(Sequence):
    """Leave-one-out ranking of a whole collection. `sims` holds the cosine
    similarities with the diagonal at -inf, so a page never counts as a
    candidate for itself. Row q of `order` holds the gallery indices for
    query page_ids[q], best first; it is sorted on first use. Each item
    is that query's RankedList."""

    page_ids: tuple[str, ...]
    sims: np.ndarray  # (n, n)
    tie_rank: np.ndarray  # (n,) position of each page in page_id order

    @cached_property
    def order(self) -> np.ndarray:
        """(n, n - 1) gallery indices, best first."""
        return rank_rows(self.sims, self.tie_rank)

    def __len__(self) -> int:
        return len(self.page_ids)

    def __getitem__(self, q: int) -> RankedList:
        q = range(len(self))[q]
        return RankedList(
            query=self.page_ids[q],
            gallery=tuple(self.page_ids[j] for j in self.order[q]),
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


def _leave_one_out(rows: np.ndarray, n: int) -> np.ndarray:
    """Every column but the row's own, for each of `rows`: (len(rows), n - 1)."""
    cols = np.arange(n - 1)
    return cols + (cols >= rows[:, None])


def true_columns(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's True columns in ascending order, left-aligned in an
    (n, max(1, most per row)) matrix padded with 0, and the per-row count."""
    # Row-major, so ascending within a row; np.nonzero is slower on 2-D.
    rows, cols = np.divmod(np.flatnonzero(mask), mask.shape[1])
    counts = np.bincount(rows, minlength=len(mask))
    out = np.zeros((len(mask), max(1, int(counts.max(initial=0)))), dtype=np.intp)
    out[rows, np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]] = cols
    return out, counts


def rank_rows(
    scores: np.ndarray,
    tie_rank: np.ndarray,
    candidates: np.ndarray | None = None,
    k: int | None = None,
) -> np.ndarray:
    """Each row's candidate columns (an (n, m) index matrix) reordered by
    descending score, ties by ascending tie_rank of the column. By default
    the candidates are every column but the row's own: the (n, n - 1)
    leave-one-out ranking. With k (>= 1) only each row's first k columns
    are returned.

    One unstable sort per row gives the unique order wherever the sorted
    keys strictly increase; only rows with an exact tie (signed zeros and
    two -inf scores included) or a NaN are sorted again by (score,
    tie_rank). A leave-one-out top k below n - 1 partitions each row at
    its (k+1)-th key and orders the k columns in front as explicit
    candidates. Rows whose k-th and (k+1)-th keys are not strictly apart
    (a tie, a NaN, or a -inf score next to the row's own column) are
    ranked in full.
    """
    n = len(scores)
    if candidates is None:
        if k is not None and k < n - 1:
            # The row's own column sorts last behind +inf.
            keys = -scores
            np.fill_diagonal(keys, np.inf)
            part = np.argpartition(keys, k, axis=1)
            # Ascending columns, so equal (score, tie_rank) keep column order.
            top = np.sort(part[:, :k], axis=1)
            kth = np.take_along_axis(keys, top, axis=1).max(axis=1)
            apart = kth < np.take_along_axis(keys, part[:, k : k + 1], axis=1)[:, 0]
            order = rank_rows(scores, tie_rank, candidates=top)
            redo = np.flatnonzero(~apart)
            if len(redo):
                full = rank_rows(scores[redo], tie_rank, candidates=_leave_one_out(redo, n))
                order[redo] = full[:, :k]
            return order
        candidates = _leave_one_out(np.arange(n), n)
    keys = -np.take_along_axis(scores, candidates, axis=1)
    m = keys.shape[1]
    order = np.argsort(keys, axis=1)
    # A flat gather: take_along_axis is slower at this size.
    ranked = keys.ravel()[order + m * np.arange(n)[:, None]]
    redo = np.flatnonzero(~np.all(ranked[:, 1:] > ranked[:, :-1], axis=1))
    order = np.take_along_axis(candidates, order, axis=1)
    if len(redo):
        sub = candidates[redo]
        tied = np.lexsort((tie_rank[sub], keys[redo]), axis=1)
        order[redo] = np.take_along_axis(sub, tied, axis=1)
    return order if k is None else order[:, :k]


def average_precisions(ranks: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """AP of every row from the 1-based ranks of its relevant items, in
    ascending order from the left; entries past the row's count are
    ignored. AP is the mean of m / rank_m over the m-th relevant item,
    summed in rank order. A row without relevant items scores 0.0."""
    summed = np.zeros(len(ranks))
    for m in range(ranks.shape[1]):
        summed += np.where(m < counts, (m + 1) / ranks[:, m], 0.0)
    return np.where(counts > 0, summed / np.maximum(counts, 1), 0.0)


def rank_all(pages: list[PageEmbedding]) -> Ranking:
    """Each page queries all the others: exhaustive cosine similarities,
    ranked with ties broken by ascending page_id."""
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
    np.fill_diagonal(sims, -np.inf)
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return Ranking(page_ids=tuple(ids), sims=sims, tie_rank=id_rank)


def evaluate(
    ranking: Ranking,
    writers: dict[str, str],
    score_isolated_as_zero: bool = False,
) -> RetrievalReport:
    """Score a ranking against writer identities.

    Where every query has at most log2(n) relevant pages and none of them
    scores NaN, a relevant page's rank is one plus the number of gallery
    pages scored strictly higher or scored equal with a lower page id, as
    the full ranking breaks ties: O(n^2) per relevant page. Otherwise every
    row is ranked in full, O(n^2 log n) once, RANK_BLOCK rows at a time,
    so no (n, n - 1) order is held; `ranking.order` is left unbuilt."""
    ids = ranking.page_ids
    for page in ids:
        if page not in writers:
            raise ValidationError(f"page {page} has no writer identity")
    _, labels = np.unique([writers[p] for p in ids], return_inverse=True)
    n = len(ids)
    counts = np.bincount(labels)[labels] - 1
    sims, tie_rank = ranking.sims, ranking.tie_rank
    width = max(1, counts.max(initial=0))
    padding = np.arange(width) >= counts[:, None]
    if width <= np.log2(n):
        same = labels[:, None] == labels
        np.fill_diagonal(same, False)
        relevant, _ = true_columns(same)
        scores = np.take_along_axis(sims, relevant, axis=1)
    if width > np.log2(n) or np.isnan(scores[~padding]).any():
        ranks = np.ones((n, width), dtype=np.intp)
        for lo in range(0, n, RANK_BLOCK):
            hi = min(lo + RANK_BLOCK, n)
            candidates = _leave_one_out(np.arange(lo, hi), n)
            order = rank_rows(sims[lo:hi], tie_rank, candidates=candidates)
            cols = true_columns(labels[order] == labels[lo:hi, None])[0]
            ranks[lo:hi, : cols.shape[1]] = cols + 1
    else:
        ranks = np.empty((n, width), dtype=np.intp)
        for c, j in enumerate(relevant.T):
            s = scores[:, c, None]
            ranks[:, c] = np.count_nonzero(sims > s, axis=1) + 1
            equal = sims == s
            # Rows where another column shares the score: the equal columns
            # with a lower tie_rank rank ahead; the row's own column never.
            t = np.flatnonzero(np.count_nonzero(equal, axis=1) > 1)
            if len(t):
                ahead = equal[t] & (tie_rank < tie_rank[j[t], None])
                ahead[np.arange(len(t)), t] = False
                ranks[t, c] += np.count_nonzero(ahead, axis=1)
        ranks[padding] = n  # padding sorts last
        ranks.sort(axis=1)
    ap = average_precisions(ranks, counts)
    isolated = counts == 0
    first = np.where(isolated, 0, ranks[:, 0])
    scored = np.flatnonzero(~isolated | score_isolated_as_zero)
    return RetrievalReport(
        map=float(np.mean(ap[scored])) if len(scored) else 0.0,
        top1=float(np.mean(first[scored] == 1)) if len(scored) else 0.0,
        per_query_ap={ids[q]: float(ap[q]) for q in scored},
        per_query_top1={ids[q]: bool(first[q] == 1) for q in scored},
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
