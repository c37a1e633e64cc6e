import math

import numpy as np
import pytest
from helpers import rank_rows_oracle

from wret.aggregation import PageEmbedding
from wret.errors import ValidationError
from wret.retrieval import (
    average_precisions,
    evaluate,
    rank_all,
    rank_rows,
    report_to_csv,
    report_to_json,
)


def _pages(vectors: np.ndarray, writers: list[str] | None = None) -> list[PageEmbedding]:
    writers = writers or ["w"] * len(vectors)
    return [
        PageEmbedding(page_id=f"p{i:03d}", writer_id=w, vector=np.asarray(v, dtype=float))
        for i, (v, w) in enumerate(zip(vectors, writers))
    ]


class TestRankAll:
    def test_two_pages(self):
        ranked = rank_all(_pages(np.array([[1.0, 0.0], [0.0, 1.0]])))
        assert ranked[0].gallery == ("p001",)
        assert ranked[1].gallery == ("p000",)

    def test_identical_pair_ranks_first(self):
        e = np.array([1.0, 1.0])
        ranked = rank_all(_pages(np.array([e, e, -e])))
        assert ranked[0].gallery[0] == "p001"
        assert ranked[1].gallery[0] == "p000"

    def test_tie_breaks_by_page_id(self):
        # Two gallery pages exactly equidistant from the query.
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        ranked = rank_all(_pages(vectors))
        assert ranked[0].gallery == ("p001", "p002")

    def test_tie_break_uses_page_id_not_list_order(self):
        # Identical vectors tie exactly; the pages are listed out of id order.
        pages = [
            PageEmbedding(page_id=pid, writer_id="w", vector=np.array([1.0, 2.0]))
            for pid in ("p002", "p000", "p001")
        ]
        ranked = rank_all(pages)
        assert [rl.query for rl in ranked] == ["p002", "p000", "p001"]
        assert ranked[0].gallery == ("p000", "p001")
        assert ranked[1].gallery == ("p001", "p002")
        assert ranked[2].gallery == ("p000", "p002")

    def test_array_ranking_matches_views(self):
        rng = np.random.default_rng(4)
        pages = _pages(rng.normal(size=(6, 3)))
        ranking = rank_all(pages)
        assert ranking.order.shape == (6, 5)
        assert len(ranking) == 6
        for q, rl in enumerate(ranking):
            assert rl == ranking[q - 6]  # negative indices address the same query
            assert rl.gallery == tuple(ranking.page_ids[j] for j in ranking.order[q])
            assert q not in ranking.order[q]

    def test_duplicate_page_id_rejected(self):
        pages = _pages(np.eye(2))
        clone = PageEmbedding(page_id="p000", writer_id="w", vector=np.array([1.0, 1.0]))
        with pytest.raises(ValidationError):
            rank_all(pages + [clone])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(10, 6))
        pages = _pages(vectors)
        ranked = rank_all(pages)
        # Independent double-loop oracle in plain python arithmetic.
        ids = [p.page_id for p in pages]
        for q in range(10):
            sims = {}
            for j in range(10):
                if j == q:
                    continue
                num = sum(float(a) * float(b) for a, b in zip(vectors[q], vectors[j]))
                na = math.sqrt(sum(float(a) ** 2 for a in vectors[q]))
                nb = math.sqrt(sum(float(b) ** 2 for b in vectors[j]))
                sims[ids[j]] = num / (na * nb)
            expected = tuple(sorted(sims, key=lambda p: (-sims[p], p)))
            assert ranked[q].gallery == expected

    def test_rescaling_leaves_rankings_identical(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(8, 5))
        base = rank_all(_pages(vectors))
        doubled = rank_all(_pages(vectors * 4.0))  # exact float scaling
        arbitrary = rank_all(_pages(vectors * 3.7))
        for a, b, c in zip(base, doubled, arbitrary):
            assert a.gallery == b.gallery == c.gallery

    def test_single_page_rejected(self):
        with pytest.raises(ValidationError):
            rank_all(_pages(np.ones((1, 3))))


def _ranking_input(kind: str, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, n) scores and per-column tie ranks of one kind of ranking input."""
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(n, n))
    tie_rank = rng.permutation(n)
    if kind == "rounded":  # exact ties fill most rows
        scores = np.round(scores)
    elif kind == "partial_ties":  # every other row ties on two entries
        for r in range(0, n, 2):
            i, j = rng.choice(n, size=2, replace=False)
            scores[r, j] = scores[r, i]
    elif kind == "signed_zero":  # 0.0 next to -0.0
        scores[rng.random((n, n)) < 0.3] = 0.0
        scores[rng.random((n, n)) < 0.3] = -0.0
    elif kind == "nonfinite":  # the diagonal must be ignored whatever it holds
        for value in (np.inf, -np.inf, np.nan):
            scores[rng.random((n, n)) < 0.05] = value
        scores[0, 1], scores[1, 0], scores[-1, 0] = np.inf, -np.inf, np.nan
        np.fill_diagonal(scores, np.nan)
    elif kind == "duplicate_tie_rank":  # equal tie ranks keep column order
        scores = np.round(scores, 1)
        tie_rank = rng.integers(0, 3, size=n)
    return scores, tie_rank


RANKING_KINDS = (
    "distinct", "rounded", "partial_ties", "signed_zero", "nonfinite", "duplicate_tie_rank"
)


class TestRankRowsMatchesLexsort:
    @pytest.mark.parametrize("n", [2, 3, 100, 1000])
    @pytest.mark.parametrize("kind", RANKING_KINDS)
    def test_leave_one_out(self, kind, n):
        scores, tie_rank = _ranking_input(kind, n, seed=n)
        got = rank_rows(scores, tie_rank)
        want = rank_rows_oracle(scores, tie_rank)
        assert got.shape == want.shape == (n, n - 1)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 100, 1000])
    @pytest.mark.parametrize("kind", RANKING_KINDS)
    def test_explicit_candidates(self, kind, n):
        # As _propagate passes them: each row's k best under other scores,
        # reordered by these.
        scores, tie_rank = _ranking_input(kind, n, seed=n + 1)
        other = np.random.default_rng(n).normal(size=(n, n))
        candidates = rank_rows_oracle(other, tie_rank)[:, : min(n - 1, 5)]
        got = rank_rows(scores, tie_rank, candidates=candidates)
        want = rank_rows_oracle(scores, tie_rank, candidates=candidates)
        assert got.shape == want.shape == candidates.shape
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_only_rows_with_ties_take_the_two_key_sort(self, monkeypatch):
        class TwoKeySort(Exception):
            pass

        def refuse(*args, **kwargs):
            raise TwoKeySort

        distinct = _pages(np.random.default_rng(8).normal(size=(50, 8)))
        # p001 and p002 are exactly equally similar to p000.
        tied = _pages(np.array([[1.0, 0.0], [0.6, 0.8], [0.6, -0.8]]))
        monkeypatch.setattr(np, "lexsort", refuse)
        rank_all(distinct)
        with pytest.raises(TwoKeySort):
            rank_all(tied)


class TestAveragePrecision:
    def test_hand_oracle(self):
        # Pattern [1, 0, 1]: AP = (1/2)(1/1 + 2/3) = 5/6.
        assert average_precisions(np.array([[True, False, True]]))[0] == pytest.approx(5.0 / 6.0)

    def test_perfect_prefix(self):
        assert average_precisions(np.array([[True, True, False]]))[0] == pytest.approx(1.0)

    def test_single_hit_at_rank_two(self):
        assert average_precisions(np.array([[False, True]]))[0] == pytest.approx(0.5)

    def test_nothing_relevant(self):
        assert average_precisions(np.array([[False, False]]))[0] == 0.0

    def test_rows_are_independent(self):
        hits = np.array([[True, False, True], [False, False, False], [False, True, False]])
        np.testing.assert_array_equal(
            average_precisions(hits), [(1.0 + 2.0 / 3.0) / 2.0, 0.0, 0.5]
        )


class TestEvaluate:
    def test_perfect_ranking(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.01], [0.0, 1.0], [0.01, 1.0]])
        writers = ["a", "a", "b", "b"]
        pages = _pages(vectors, writers)
        report = evaluate(rank_all(pages), {p.page_id: p.writer_id for p in pages})
        assert report.map == pytest.approx(1.0)
        assert report.top1 == pytest.approx(1.0)
        assert report.isolated_queries == ()

    def test_rank_two_hit(self):
        # Query p000: nearest is the other writer, second is its match.
        pages = _pages(np.array([[1.0, 0.0], [1.0, 0.1], [1.0, 0.5]]), ["a", "b", "a"])
        assert rank_all(pages)[0].gallery == ("p001", "p002")
        report = evaluate(rank_all(pages), {p.page_id: p.writer_id for p in pages})
        assert report.per_query_ap["p000"] == pytest.approx(0.5)
        assert report.per_query_top1["p000"] is False
        assert report.first_relevant_rank["p000"] == 2

    def test_isolated_queries_excluded_by_default(self):
        vectors = np.eye(3)
        writers = ["a", "a", "loner"]
        pages = _pages(vectors, writers)
        report = evaluate(rank_all(pages), {p.page_id: p.writer_id for p in pages})
        assert report.isolated_queries == ("p002",)
        assert "p002" not in report.per_query_ap
        assert report.query_count == 3

    def test_isolated_scored_as_zero_with_flag(self):
        vectors = np.eye(3)
        writers = ["a", "a", "loner"]
        pages = _pages(vectors, writers)
        ranked = rank_all(pages)
        ids = {p.page_id: p.writer_id for p in pages}
        base = evaluate(ranked, ids)
        flagged = evaluate(ranked, ids, score_isolated_as_zero=True)
        assert flagged.per_query_ap["p002"] == 0.0
        assert flagged.map < base.map

    def test_missing_writer_rejected(self):
        ranking = rank_all(_pages(np.eye(2)))
        with pytest.raises(ValidationError, match="p001"):
            evaluate(ranking, {"p000": "a"})

    def test_map_against_brute_force_small_batch(self):
        # The full 100-instance sweep lives in the acceptance suite.
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            writers = [f"w{int(rng.integers(0, 5))}" for _ in range(n)]
            vectors = rng.normal(size=(n, 6))
            pages = _pages(vectors, writers)
            ranked = rank_all(pages)
            ids = {p.page_id: p.writer_id for p in pages}
            report = evaluate(ranked, ids)
            aps = []
            for rl in ranked:
                rel = [ids[p] == ids[rl.query] for p in rl.gallery]
                if not any(rel):
                    continue
                hits, acc = 0, 0.0
                for pos, r in enumerate(rel, start=1):
                    if r:
                        hits += 1
                        acc += hits / pos
                aps.append(acc / hits)
            if aps:
                assert abs(report.map - sum(aps) / len(aps)) < 1e-12

    def test_permuted_ids_leave_metrics_unchanged(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(9, 5))
        writers = [f"w{i % 3}" for i in range(9)]
        pages = _pages(vectors, writers)
        report = evaluate(rank_all(pages), {p.page_id: p.writer_id for p in pages})
        perm = rng.permutation(9)
        renamed = [
            PageEmbedding(page_id=f"q{perm[i]:03d}", writer_id=p.writer_id, vector=p.vector)
            for i, p in enumerate(pages)
        ]
        report2 = evaluate(rank_all(renamed), {p.page_id: p.writer_id for p in renamed})
        assert report2.map == pytest.approx(report.map, abs=1e-12)
        assert report2.top1 == pytest.approx(report.top1, abs=1e-12)


class TestReportSerialization:
    def _report(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0], [0.1, 1.0]])
        writers = ["a", "a", "b", "b"]
        pages = _pages(vectors, writers)
        return evaluate(rank_all(pages), {p.page_id: p.writer_id for p in pages})

    def test_json_round_trip_fields(self):
        payload = report_to_json(self._report())
        assert set(payload) == {"map", "top1", "query_count", "isolated_queries", "per_query"}
        assert payload["per_query"]["p000"]["first_relevant_rank"] == 1

    def test_csv_shape(self):
        text = report_to_csv(self._report())
        lines = text.strip().split("\n")
        assert lines[0] == "query,ap,top1_hit,first_relevant_rank"
        assert len(lines) == 5
