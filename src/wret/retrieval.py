"""Leave-one-out retrieval over page embeddings: cosine ranking, average
precision, mAP and Top-1."""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .aggregation import PageEmbedding, page_matrix
from .errors import ValidationError
from .features import RANK_BLOCK, _squared_norms


@dataclass(frozen=True)
class RankedList:
    """Full gallery ranking for one query, most similar first."""

    query: str
    gallery: tuple[str, ...]


@dataclass(frozen=True)
class Ranking(Sequence):
    """Leave-one-out ranking of a whole collection. `sims` holds the cosine
    similarities with the diagonal at -inf, so a page never counts as a
    candidate for itself; equal similarities rank by ascending `tie_rank`,
    a permutation of range(n). Row q of `order` holds the gallery indices
    for query page_ids[q], best first; it is sorted on first use, and
    `evaluate` scores from `sims` without it. Each item is that query's
    RankedList."""

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

    Each row's candidates are put in ascending tie_rank order first, so
    that one stable sort of the negated scores leaves equal scores
    (signed zeros, two -inf scores and NaN included) in tie order. A
    leave-one-out top k below n - 1 partitions each row at its (k+1)-th
    key, RANK_BLOCK rows at a time, and orders the k columns in front as
    explicit candidates. Rows whose k-th and (k+1)-th keys are not
    strictly apart (a tie, a NaN, or a -inf score next to the row's own
    column) are ranked in full.
    """
    n = len(scores)
    if candidates is None:
        if k is not None and k < n - 1:
            top = np.empty((n, k), dtype=np.intp)
            apart = np.empty(n, dtype=bool)
            for lo in range(0, n, RANK_BLOCK):
                hi = min(lo + RANK_BLOCK, n)
                # The row's own column sorts last behind +inf.
                keys = -scores[lo:hi]
                keys[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
                part = np.argpartition(keys, k, axis=1)
                # Ascending columns, so equal (score, tie_rank) keep column order.
                top[lo:hi] = np.sort(part[:, :k], axis=1)
                kth = np.take_along_axis(keys, top[lo:hi], axis=1).max(axis=1)
                apart[lo:hi] = kth < np.take_along_axis(keys, part[:, k : k + 1], axis=1)[:, 0]
            order = rank_rows(scores, tie_rank, candidates=top)
            redo = np.flatnonzero(~apart)
            if len(redo):
                full = rank_rows(scores[redo], tie_rank, candidates=_leave_one_out(redo, n))
                order[redo] = full[:, :k]
            return order
        candidates = _leave_one_out(np.arange(n), n)
    by_tie = np.argsort(tie_rank[candidates], axis=1, kind="stable")
    candidates = np.take_along_axis(candidates, by_tie, axis=1)
    keys = -np.take_along_axis(scores, candidates, axis=1)
    order = np.take_along_axis(candidates, np.argsort(keys, axis=1, kind="stable"), axis=1)
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
    """`rank_vectors` of the pages' vectors: each page queries all the
    others, ties broken by ascending page_id."""
    return rank_vectors(page_matrix(pages), [p.page_id for p in pages])


def rank_vectors(vectors: np.ndarray, page_ids: Sequence[str]) -> Ranking:
    """Each row of the float64 (n, d) `vectors` queries all the others:
    exhaustive cosine similarities, ranked with ties broken by ascending
    page id. `vectors` is normalized in place; its norms are taken in
    RANK_BLOCK row blocks, bitwise those of np.linalg.norm(axis=1), so a
    wide (n, n) input gets no temporary of its size."""
    ids = list(page_ids)
    if len(ids) < 2:
        raise ValidationError("ranking needs at least 2 pages")
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate page_id in the collection")
    norms = np.sqrt(_squared_norms(vectors, RANK_BLOCK))
    if np.any(norms == 0.0):
        raise ValidationError("zero embedding cannot be ranked")
    vectors /= norms[:, None]
    sims = vectors @ vectors.T
    np.fill_diagonal(sims, -np.inf)
    id_rank = np.empty(len(ids), dtype=np.intp)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return Ranking(page_ids=tuple(ids), sims=sims, tie_rank=id_rank)


def _lower_bounds(ordered: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """For each ascending row of `ordered` (NaN last, as np.sort puts it)
    and each of that row's `keys`, the number of entries that sort before
    the key: np.searchsorted(row, keys, "left") for all rows at once. A
    branchless binary search, one gather on the (rows, width) keys per
    round, ceil(log2(n)) rounds."""
    rows, n = ordered.shape
    # Gathers from the flat rows: take_along_axis costs twice as much here.
    flat = ordered.ravel()
    start = n * np.arange(rows)[:, None]
    pos = np.repeat(start, keys.shape[1], axis=1)

    def before(values: np.ndarray) -> np.ndarray:
        # A number that is not at or above the key; a NaN key follows every number.
        return (values == values) & ~(values >= keys)

    size = n
    while size > 1:
        half = size // 2
        pos += half * before(flat[pos + half])
        size -= half
    return pos - start + before(flat[pos])


def evaluate(
    ranking: Ranking,
    writers: dict[str, str],
    score_isolated_as_zero: bool = False,
) -> RetrievalReport:
    """Score a ranking against writer identities.

    A relevant page's rank is one plus the number of gallery pages that the
    full ranking puts ahead of it: those scored strictly higher, and those
    scored equal (NaN equal to NaN, below every number) with a lower page
    id. RANK_BLOCK rows at a time, each row's negated scores are sorted,
    values only, with the row's own column as NaN so that it sorts last
    and is never counted, and one binary search over the block's sorted
    rows gives each relevant page the number of higher scores. Where
    another page shares a relevant score, one pass over the row per tied
    score adds the equal pages with a lower page id. O(n^2 log n) for any
    number of relevant pages; no (n, n - 1) order is built, and
    `ranking.order` is left unbuilt."""
    ids = ranking.page_ids
    for page in ids:
        if page not in writers:
            raise ValidationError(f"page {page} has no writer identity")
    _, labels = np.unique([writers[p] for p in ids], return_inverse=True)
    n = len(ids)
    # Each row's relevant columns in ascending order: the members of its
    # class, from one stable argsort of the labels, with the row skipped.
    # Padding slots past a row's count name some valid column.
    sizes = np.bincount(labels)
    counts = sizes[labels] - 1
    members = np.argsort(labels, kind="stable")
    start = (np.cumsum(sizes) - sizes)[labels]
    slot = np.arange(max(1, int(counts.max(initial=0))))
    slot = slot + (slot >= (np.argsort(members) - start)[:, None])
    relevant = members[np.minimum(start[:, None] + slot, n - 1)]
    padding = np.arange(relevant.shape[1]) >= counts[:, None]
    tie_rank = ranking.tie_rank
    by_tie = np.argsort(tie_rank)  # the columns in tie order
    ranks = np.empty(relevant.shape, dtype=np.intp)
    for lo in range(0, n, RANK_BLOCK):
        hi = min(lo + RANK_BLOCK, n)
        keys = -ranking.sims[lo:hi]
        keys[np.arange(hi - lo), np.arange(lo, hi)] = np.nan
        rel = np.take_along_axis(keys, relevant[lo:hi], axis=1)
        ordered = np.sort(keys, axis=1)
        below = _lower_bounds(ordered, rel)
        ranks[lo:hi] = below + 1
        # A relevant key sits at `below` in its sorted row; an equal key
        # after it is a tie (a NaN key ties the own column at least). Only
        # a padding slot naming the own column can sit last.
        after = np.take_along_axis(ordered, np.minimum(below + 1, n - 1), axis=1)
        r, c = np.nonzero(~padding[lo:hi] & ((after == rel) | np.isnan(rel)))
        # One pass per row and tied score, named by the score's flat index
        # in `ordered`: prefix counts of the equal keys in tie order.
        groups, group_of = np.unique(r * n + below[r, c], return_inverse=True)
        for g in range(0, len(groups), RANK_BLOCK):
            rows, at = np.divmod(groups[g : g + RANK_BLOCK], n)
            score = ordered[rows, at, None]
            row = keys[rows][:, by_tie]
            equal = (row == score) | (np.isnan(row) & np.isnan(score))
            equal[np.arange(len(rows)), tie_rank[lo + rows]] = False
            ahead = np.cumsum(equal, axis=1) - equal
            p = np.flatnonzero(group_of // RANK_BLOCK == g // RANK_BLOCK)
            j = relevant[lo + r[p], c[p]]
            ranks[lo + r[p], c[p]] += ahead[group_of[p] - g, tie_rank[j]]
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
