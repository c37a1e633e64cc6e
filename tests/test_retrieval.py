import importlib
import math

import numpy as np
import pytest
from helpers import evaluate_oracle, pool_retrieval_map_oracle, rank_rows_oracle, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from wret import retrieval
from wret.aggregation import PageEmbedding
from wret.errors import ValidationError
from wret.rerank import RerankConfig, hard_graph_rerank, krnn_qe, sgr
from wret.retrieval import (
    RANK_BLOCK,
    Ranking,
    average_precisions,
    evaluate,
    rank_all,
    rank_rows,
    report_to_csv,
    report_to_json,
)
from wret.trainer import _pool_retrieval_map


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

    def test_empty_collection_rejected(self):
        with pytest.raises(ValidationError):
            rank_all([])

    def test_mixed_dimensions_rejected(self):
        pages = _pages(np.eye(3))
        pages.append(PageEmbedding(page_id="p003", writer_id="w", vector=np.ones(2)))
        with pytest.raises(ValidationError, match=r"mixed dimensions \[2, 3\]"):
            rank_all(pages)


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

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_small_inputs(self, data):
        """Leave-one-out, top-k and explicit candidates over a few exact
        values (both zeros, both infinities, NaN) and arbitrary ones, with
        tie ranks that may repeat."""
        n = data.draw(st.integers(2, 8))
        score = st.one_of(
            st.sampled_from([-1.0, -0.0, 0.0, 0.5, np.inf, -np.inf, np.nan]),
            st.floats(-1.0, 1.0),
        )
        scores = np.array(data.draw(st.lists(score, min_size=n * n, max_size=n * n)))
        scores = scores.reshape(n, n)
        tie_rank = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        full = rank_rows_oracle(scores, tie_rank)
        got = rank_rows(scores, tie_rank)
        assert got.dtype == full.dtype and got.tobytes() == full.tobytes()
        k = data.draw(st.integers(1, n + 1))
        assert rank_rows(scores, tie_rank, k=k).tobytes() == full[:, :k].tobytes()
        m = data.draw(st.integers(1, n))
        candidates = np.array([data.draw(st.permutations(range(n)))[:m] for _ in range(n)])
        got = rank_rows(scores, tie_rank, candidates=candidates)
        want = rank_rows_oracle(scores, tie_rank, candidates=candidates)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _boundary_tied(n: int, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct scores, except that in every other row the (k+1)-th best
    off-diagonal score exactly equals the k-th."""
    scores, tie_rank = _ranking_input("distinct", n, seed)
    order = rank_rows_oracle(scores, tie_rank)
    for r in range(0, n, 2):
        scores[r, order[r, k]] = scores[r, order[r, k - 1]]
    return scores, tie_rank


class TestRankRowsTopK:
    @pytest.mark.parametrize("n", [2, 3, 100, 1000])
    @pytest.mark.parametrize("kind", RANKING_KINDS)
    def test_matches_the_full_ranking_prefix(self, kind, n):
        scores, tie_rank = _ranking_input(kind, n, seed=n + 2)
        full = rank_rows_oracle(scores, tie_rank)
        for k in sorted({1, 2, 4, n - 2, n - 1, n + 3} - {0}):
            got = rank_rows(scores, tie_rank, k=k)
            want = full[:, :k]
            assert got.shape == want.shape == (n, min(k, n - 1))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [5, 100, 1000])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tie_at_the_boundary(self, k, n):
        scores, tie_rank = _boundary_tied(n, k, seed=n + k)
        got = rank_rows(scores, tie_rank, k=k)
        want = rank_rows_oracle(scores, tie_rank)[:, :k]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [RANK_BLOCK - 1, RANK_BLOCK + 1])
    @pytest.mark.parametrize("kind", RANKING_KINDS)
    def test_top_k_is_its_own_ranking(self, kind, n):
        """Ranking a top k again over the same scores leaves every row as
        it is, ties, signed zeros and NaN included: sgr hands its top k
        to the propagation without a second sort."""
        scores, tie_rank = _ranking_input(kind, n, seed=n + 3)
        for k in (1, 2, 4, n - 2):
            top = rank_rows(scores, tie_rank, k=k)
            again = rank_rows(scores, tie_rank, candidates=top)
            assert again.tobytes() == top.tobytes()


def _unit(pages: list[PageEmbedding]) -> list[PageEmbedding]:
    return [
        PageEmbedding(p.page_id, p.writer_id, p.vector / np.linalg.norm(p.vector))
        for p in pages
    ]


class TestNoFullSortWithoutTies:
    def test_tie_free_pages_reach_no_full_sort(self, monkeypatch):
        class Refused(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Refused

        real = retrieval.rank_rows

        def no_full_sort(scores, tie_rank, candidates=None, k=None):
            if candidates is None and (k is None or k >= len(scores) - 1):
                raise Refused
            return real(scores, tie_rank, candidates, k)

        rng = np.random.default_rng(8)
        # 5 pages per writer: 4 relevant per query, within log2(50) ~ 5.6.
        distinct = _unit(_pages(rng.normal(size=(50, 8)), [f"w{i % 10}" for i in range(50)]))
        tied = _pages(np.array([[1.0, 0.0], [0.6, 0.8], [0.6, -0.8]]))
        monkeypatch.setattr(np, "lexsort", refuse)
        monkeypatch.setattr(retrieval, "rank_rows", no_full_sort)
        monkeypatch.setattr(importlib.import_module("wret.rerank"), "rank_rows", no_full_sort)
        evaluate(rank_all(distinct), {p.page_id: p.writer_id for p in distinct})
        sgr(distinct, RerankConfig(k=2))
        krnn_qe(distinct, RerankConfig(method="krnn_qe", k=3))
        # k2 = 1: hard_graph's 0 / 0.5 / 1 weights tie on any two neighbours.
        hard_graph_rerank(distinct, RerankConfig(method="hard_graph", k=1, layers=2, k1=4))
        # p000's relevant p001 ties with p002: exact ties are counted too.
        evaluate(rank_all(tied), dict(zip(("p000", "p001", "p002"), "aab")))
        # A NaN relevant score ties the other NaN scores of its row.
        sims = np.array([[0.0, np.nan, 0.5], [np.nan, 0.0, 0.2], [0.5, 0.2, 0.0]])
        nan = _ranking(sims, 0)
        evaluate(nan, dict(zip(nan.page_ids, "aab")))

    def test_tied_rows_evaluate_without_rank_rows(self, monkeypatch):
        """Tied, NaN-free rows with at most log2(n) relevant pages take
        their ranks from the tie-aware count alone and still match the
        full ranking's hits matrix."""
        rng = np.random.default_rng(21)
        rankings = [r for r, _ in _evaluate_cases() if not np.isnan(r.sims).any()]
        for seed in range(3):  # -inf scores tie with the row's own column
            sims = np.round(rng.normal(size=(25, 25)))
            sims[rng.random((25, 25)) < 0.2] = -np.inf
            rankings.append(_ranking(sims, seed))
        cases = [(r, _writer_sizes(rng, len(r), _widest_counted(len(r)) + 1)) for r in rankings]
        # The oracle sorts on fresh copies, so the cached order is never reused.
        wants = [evaluate_oracle(_fresh(r), dict(zip(r.page_ids, w))) for r, w in cases]
        tied_rows = sum(len(np.unique(row)) < len(row) for r, _ in cases for row in r.sims)

        def refuse(*args, **kwargs):
            raise AssertionError("rank_rows reached")

        monkeypatch.setattr(retrieval, "rank_rows", refuse)
        for (ranking, writer_list), want in zip(cases, wants):
            got = evaluate(ranking, dict(zip(ranking.page_ids, writer_list)))
            assert got.first_relevant_rank == want.first_relevant_rank
            assert (
                np.array(list(got.per_query_ap.values())).tobytes()
                == np.array(list(want.per_query_ap.values())).tobytes()
            )
            assert repr(got.map) == repr(want.map) and repr(got.top1) == repr(want.top1)
        assert tied_rows > 100

    def test_wide_and_nan_inputs_sort_once(self, monkeypatch):
        """Narrow or wide relevant sets (50 pages of 7 writers), with or
        without a NaN relevant score: evaluate sorts every row once, in
        blocks, and never reaches rank_rows."""
        shapes = _record_sorts(monkeypatch)
        rng = np.random.default_rng(9)
        wide = _pages(rng.normal(size=(50, 8)), [f"w{i % 7}" for i in range(50)])
        evaluate(rank_all(wide), {p.page_id: p.writer_id for p in wide})
        _assert_sorted_in_blocks(shapes, 50)
        for kind in ("nan_relevant", "nan_irrelevant", "distinct"):
            shapes.clear()
            ranking, writers = _width_case(50, _widest_counted(50), kind, seed=9)
            evaluate(ranking, writers)
            _assert_sorted_in_blocks(shapes, 50)


def _ap(hits: np.ndarray) -> np.ndarray:
    """AP of each row of a relevance matrix ranked left to right."""
    # A stable sort puts each row's hit positions first, in ascending order;
    # the positions after them are at least 1 and are ignored.
    ranks = np.argsort(~hits, axis=1, kind="stable") + 1
    return average_precisions(ranks, hits.sum(axis=1))


class TestAveragePrecision:
    def test_hand_oracle(self):
        # Pattern [1, 0, 1]: AP = (1/2)(1/1 + 2/3) = 5/6.
        assert _ap(np.array([[True, False, True]]))[0] == pytest.approx(5.0 / 6.0)

    def test_perfect_prefix(self):
        assert _ap(np.array([[True, True, False]]))[0] == pytest.approx(1.0)

    def test_single_hit_at_rank_two(self):
        assert _ap(np.array([[False, True]]))[0] == pytest.approx(0.5)

    def test_nothing_relevant(self):
        assert _ap(np.array([[False, False]]))[0] == 0.0

    def test_rows_are_independent(self):
        hits = np.array([[True, False, True], [False, False, False], [False, True, False]])
        np.testing.assert_array_equal(_ap(hits), [(1.0 + 2.0 / 3.0) / 2.0, 0.0, 0.5])

    def test_ranks_count_only_up_to_each_rows_count(self):
        ranks = np.array([[1, 3, 7], [2, 9, 9], [1, 1, 1]])
        np.testing.assert_array_equal(
            average_precisions(ranks, np.array([2, 1, 0])), [(1.0 + 2.0 / 3.0) / 2.0, 0.5, 0.0]
        )


class TestLowerBounds:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64, 1000])
    def test_matches_searchsorted_per_row(self, n):
        """Rows with repeated values, signed zeros, infinities and NaN (sorted
        last), searched for values from each row, between them and NaN."""
        rng = np.random.default_rng(n)
        pool = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 0.5, 2.0, np.inf, np.nan])
        rows = np.sort(rng.choice(pool, size=(9, n)), axis=1)
        keys = np.concatenate([rng.choice(pool, size=(9, 7)), rng.normal(size=(9, 3))], axis=1)
        want = np.array([row.searchsorted(k) for row, k in zip(rows, keys)])
        assert retrieval._lower_bounds(rows, keys).tolist() == want.tolist()


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


def _ranking(sims: np.ndarray, seed: int) -> Ranking:
    """A Ranking over given similarities, page ids in shuffled list order."""
    n = len(sims)
    perm = np.random.default_rng(seed).permutation(n)
    sims = np.array(sims, dtype=np.float64)
    np.fill_diagonal(sims, -np.inf)
    return Ranking(page_ids=tuple(f"p{i:03d}" for i in perm), sims=sims, tie_rank=perm)


def _writer_sizes(rng: np.random.Generator, total: int, most: int = 20) -> list[str]:
    """Writer labels for `total` pages: groups of 1 to `most`, in shuffled
    order."""
    writers: list[str] = []
    while len(writers) < total:
        writers += [f"w{len(writers)}"] * int(rng.integers(1, most + 1))
    return list(rng.permutation(writers[:total]))


def _widest_counted(n: int) -> int:
    """floor(log2(n)): the relevant pages per query of the narrow cases."""
    return int(np.floor(np.log2(n)))


def _fresh(ranking: Ranking) -> Ranking:
    """A copy of a ranking without its cached order."""
    return Ranking(ranking.page_ids, ranking.sims, ranking.tie_rank)


def _evaluate_cases():
    rng = np.random.default_rng(12)
    for n in (40, 150):  # 1 to 20 pages per writer, singletons included
        writers = _writer_sizes(rng, n)
        yield rank_all(_pages(rng.normal(size=(n, 6)), writers)), writers
    base = rng.normal(size=(12, 4))  # duplicate vectors: relevant and irrelevant ties
    vectors = base[rng.integers(0, 12, size=60)]
    writers = [f"w{i}" for i in rng.integers(0, 8, size=60)]
    yield rank_all(_pages(vectors, writers)), writers
    for seed in range(4):  # exact 0.0 and -0.0 similarities, some other ties
        sims = np.round(rng.normal(size=(30, 30)))
        sims[rng.random((30, 30)) < 0.3] = 0.0
        sims[rng.random((30, 30)) < 0.3] = -0.0
        yield _ranking(sims, seed), [f"w{i}" for i in rng.integers(0, 5, size=30)]
    sims = rng.normal(size=(30, 30))  # NaN among otherwise distinct scores
    sims[rng.random((30, 30)) < 0.1] = np.nan
    yield _ranking(sims, 4), [f"w{i}" for i in rng.integers(0, 5, size=30)]
    for n in (2, 3):
        for labels in np.ndindex(*(n,) * n):
            for sims in (rng.normal(size=(n, n)), np.zeros((n, n))):
                yield _ranking(sims, n), [f"w{i}" for i in labels]


def _width_case(n: int, width: int, kind: str, seed: int) -> tuple[Ranking, dict[str, str]]:
    """n pages whose widest writer has width + 1 pages, the rest 1 to
    width + 1 (singletons included), over similarities of one kind:
    "distinct", "ties" (halves, 0.0 and -0.0), or ties with NaN at
    "nan_irrelevant" or also at "nan_relevant" entries."""
    rng = np.random.default_rng(seed)
    sizes = [width + 1, 1]
    while sum(sizes) < n:
        sizes.append(int(rng.integers(1, width + 2)))
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes)[:n])
    sims = rng.normal(size=(n, n))
    if kind != "distinct":
        sims = np.round(sims * 2) / 2
        sims[rng.random((n, n)) < 0.1] = 0.0
        sims[rng.random((n, n)) < 0.1] = -0.0
    if kind.startswith("nan"):
        sims[(rng.random((n, n)) < 0.05) & (labels[:, None] != labels)] = np.nan
    if kind == "nan_relevant":
        a, b = np.flatnonzero(labels == labels[np.argmax(np.bincount(labels)[labels])])[:2]
        sims[a, b] = np.nan
    ranking = _ranking(sims, seed)
    return ranking, dict(zip(ranking.page_ids, (f"w{c}" for c in labels)))


def _record_sorts(monkeypatch) -> list[tuple[int, ...]]:
    """Patch np.sort to record the shape of every array it sorts, and
    retrieval.rank_rows to fail if reached."""
    shapes: list[tuple[int, ...]] = []
    real = np.sort

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("rank_rows reached")

    monkeypatch.setattr(np, "sort", recorded)
    monkeypatch.setattr(retrieval, "rank_rows", refuse)
    return shapes


def _assert_sorted_in_blocks(shapes: list[tuple[int, ...]], n: int) -> None:
    """Each of the n rows of scores was sorted once, by sorts of at most
    RANK_BLOCK rows."""
    assert shapes and all(len(s) == 2 and s[0] <= RANK_BLOCK and s[1] == n for s in shapes)
    assert sum(s[0] for s in shapes) == n


WIDTH_KINDS = ("distinct", "ties", "nan_irrelevant", "nan_relevant")


class TestEvaluateMatchesHitsMatrix:
    @pytest.mark.parametrize("n", [2, 3, 8, 50, 1000])
    @pytest.mark.parametrize("above", [False, True])
    def test_both_sides_of_the_width_rule(self, monkeypatch, n, above):
        """At log2(n) relevant pages per query and one more, with and
        without ties and NaN scores, evaluate sorts every row once, in
        blocks, without rank_rows, and matches the hits-matrix oracle
        exactly."""
        width = min(_widest_counted(n) + above, n - 1)
        shapes = _record_sorts(monkeypatch)
        for kind in WIDTH_KINDS:
            for score_isolated in (False, True):
                ranking, writers = _width_case(n, width, kind, seed=n + 10 * above)
                shapes.clear()
                got = evaluate(ranking, writers, score_isolated_as_zero=score_isolated)
                _assert_sorted_in_blocks(shapes, n)
                want = evaluate_oracle(_fresh(ranking), writers, score_isolated)
                assert list(got.per_query_ap) == list(want.per_query_ap)
                assert (
                    np.array(list(got.per_query_ap.values())).tobytes()
                    == np.array(list(want.per_query_ap.values())).tobytes()
                )
                assert got.per_query_top1 == want.per_query_top1
                assert got.first_relevant_rank == want.first_relevant_rank
                assert got.isolated_queries == want.isolated_queries
                assert repr(got.map) == repr(want.map) and repr(got.top1) == repr(want.top1)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_small_rankings(self, data):
        """Small rankings over a few exact values (both zeros, -inf, NaN)
        and arbitrary ones, any writer split."""
        n = data.draw(st.integers(2, 9))
        score = st.one_of(
            st.sampled_from([-1.0, -0.0, 0.0, 0.5, -np.inf, np.nan]), st.floats(-1.0, 1.0)
        )
        sims = np.array(data.draw(st.lists(score, min_size=n * n, max_size=n * n)))
        labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        score_isolated = data.draw(st.booleans())
        ranking = _ranking(sims.reshape(n, n), data.draw(st.integers(0, 1000)))
        writers = dict(zip(ranking.page_ids, map(str, labels)))
        got = evaluate(ranking, writers, score_isolated_as_zero=score_isolated)
        want = evaluate_oracle(ranking, writers, score_isolated_as_zero=score_isolated)
        assert list(got.per_query_ap) == list(want.per_query_ap)
        assert (
            np.array(list(got.per_query_ap.values())).tobytes()
            == np.array(list(want.per_query_ap.values())).tobytes()
        )
        assert got.first_relevant_rank == want.first_relevant_rank
        assert got.isolated_queries == want.isolated_queries
        assert repr(got.map) == repr(want.map) and repr(got.top1) == repr(want.top1)

    @pytest.mark.parametrize("relevant", [1, 4, 15, 62])
    def test_block_search_ranks_every_width_as_the_oracle(self, relevant):
        """640 pages in writers of relevant + 1 (the last writer smaller);
        every other page repeats another's vector, so relevant scores tie."""
        rng = np.random.default_rng(relevant)
        vectors = rng.normal(size=(640, 6))
        vectors[1::2] = vectors[rng.integers(0, 640, size=320)]
        writers = [f"w{i // (relevant + 1):03d}" for i in range(640)]
        ranking = rank_all(_pages(vectors, writers))
        by_id = dict(zip(ranking.page_ids, writers))
        got = evaluate(ranking, by_id)
        want = evaluate_oracle(_fresh(ranking), by_id)
        assert got.first_relevant_rank == want.first_relevant_rank
        assert (
            np.array(list(got.per_query_ap.values())).tobytes()
            == np.array(list(want.per_query_ap.values())).tobytes()
        )
        assert repr(got.map) == repr(want.map) and repr(got.top1) == repr(want.top1)

    @pytest.mark.parametrize("score_isolated", [False, True])
    def test_reports_equal(self, score_isolated):
        for ranking, writer_list in _evaluate_cases():
            writers = dict(zip(ranking.page_ids, writer_list))
            got = evaluate(ranking, writers, score_isolated_as_zero=score_isolated)
            want = evaluate_oracle(ranking, writers, score_isolated_as_zero=score_isolated)
            assert list(got.per_query_ap) == list(want.per_query_ap)
            assert (
                np.array(list(got.per_query_ap.values())).tobytes()
                == np.array(list(want.per_query_ap.values())).tobytes()
            )
            assert got.per_query_top1 == want.per_query_top1
            assert got.first_relevant_rank == want.first_relevant_rank
            assert got.isolated_queries == want.isolated_queries
            assert repr(got.map) == repr(want.map) and repr(got.top1) == repr(want.top1)
            assert got.query_count == want.query_count

    def test_pool_retrieval_map_unchanged(self):
        rng = np.random.default_rng(13)
        for n, classes in ((2, 1), (3, 2), (60, 4), (300, 16), (1000, 64)):
            vectors = rng.normal(size=(n, 8))
            vectors[rng.random(n) < 0.1] = 0.0
            vectors[: n // 4] = vectors[rng.integers(0, n, size=n // 4)]
            labels = rng.integers(0, classes, size=n)
            gram = vectors @ vectors.T
            # The oracle first: _pool_retrieval_map consumes the Gram.
            want = pool_retrieval_map_oracle(gram, labels)
            assert repr(_pool_retrieval_map(gram, labels)) == repr(want)

    @pytest.mark.parametrize(
        "n,size", [(2, 2), (8, 3), (60, 4), (60, 15), (300, 5), (300, 19), (1000, 8), (1000, 24)]
    )
    def test_pool_retrieval_map_on_narrow_and_wide_classes(self, monkeypatch, n, size):
        """Each item has size - 1 relevant ones, below and above log2(n):
        every row of the pool is sorted once, in blocks. The all-zero pool
        ties every pair."""
        shapes = _record_sorts(monkeypatch)
        rng = np.random.default_rng(n + size)
        labels = rng.permutation(np.arange(n) // size)
        for vectors in (rng.normal(size=(n, 8)), np.zeros((n, 8))):
            vectors[rng.random(n) < 0.1] = 0.0
            gram = vectors @ vectors.T
            want = pool_retrieval_map_oracle(gram, labels)  # before the Gram is consumed
            shapes.clear()
            got = _pool_retrieval_map(gram, labels)
            _assert_sorted_in_blocks(shapes, n)
            assert repr(got) == repr(want)


class TestPeakMemory:
    """tracemalloc peaks above the inputs on a 1000-item pool of 64
    pseudo-classes (wider than log2(n) relevant items per query) and on
    a gallery of 200 writers x 5 pages; the unit is one (n, n) float64
    matrix."""

    N = 1000
    UNIT = N * N * 8

    def _pool(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(14)
        labels = rng.integers(0, 64, size=self.N)
        assert np.bincount(labels).max() - 1 > np.log2(self.N)
        vectors = rng.normal(size=(self.N, 16))
        return vectors @ vectors.T, labels

    def test_evaluate_holds_no_full_order(self):
        gram, labels = self._pool()
        sims = gram.copy()
        np.fill_diagonal(sims, -np.inf)
        ids = tuple(map(str, range(self.N)))
        ranking = Ranking(ids, sims, np.arange(self.N))
        writers = dict(zip(ids, map(str, labels)))
        assert traced_peak(lambda: evaluate(ranking, writers)) < 1.5 * self.UNIT

    def test_narrow_gallery_holds_no_full_order(self):
        vectors = np.random.default_rng(15).normal(size=(self.N, 16))
        labels = np.arange(self.N) // 5
        ranking = rank_all(_pages(vectors, [f"w{c:03d}" for c in labels]))
        writers = dict(zip(ranking.page_ids, map(str, labels)))
        assert traced_peak(lambda: evaluate(ranking, writers)) < 1.5 * self.UNIT

    def test_gallery_holds_no_same_writer_mask(self):
        """The relevant columns come from the labels, not from an (n, n)
        mask."""
        vectors = np.random.default_rng(15).normal(size=(self.N, 16))
        labels = np.arange(self.N) // 5
        ranking = rank_all(_pages(vectors, [f"w{c:03d}" for c in labels]))
        writers = dict(zip(ranking.page_ids, map(str, labels)))
        assert traced_peak(lambda: evaluate(ranking, writers)) < 0.27 * self.UNIT

    def test_rank_all_normalizes_the_page_matrix_in_place(self):
        """Pages as wide as the collection, as sgr returns them: the page
        matrix and the similarities, and no unit-norm copy beside them.
        The similarities are bitwise those of a normalized copy."""
        n = 400
        vectors = np.random.default_rng(16).normal(size=(n, n))
        pages = _pages(vectors)
        assert traced_peak(lambda: rank_all(pages)) < 2.5 * n * n * 8
        unit = vectors / np.linalg.norm(vectors, axis=1)[:, None]
        want = unit @ unit.T
        np.fill_diagonal(want, -np.inf)
        assert rank_all(pages).sims.tobytes() == want.tobytes()

    def test_pool_retrieval_map_holds_one_similarity_matrix(self):
        gram, labels = self._pool()
        assert traced_peak(lambda: _pool_retrieval_map(gram, labels)) < 2.5 * self.UNIT

    def test_pool_retrieval_map_normalizes_the_gram_in_place(self):
        gram, labels = self._pool()
        assert traced_peak(lambda: _pool_retrieval_map(gram, labels)) < 0.5 * self.UNIT


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
