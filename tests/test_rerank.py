import importlib
import math

import numpy as np
import pytest
from helpers import traced_peak

from wret.aggregation import PageEmbedding
from wret.errors import ValidationError
from wret.rerank import (
    RerankConfig,
    _adjacency,
    _after,
    _propagate,
    build_similarity_graph,
    hard_graph_rerank,
    krnn_qe,
    rerank,
    sgr,
)
from wret.fileio import write_embeddings
from wret.retrieval import rank_all
from wret.stages import run_sweep


def _unit_pages(vectors: np.ndarray, writers: list[str] | None = None) -> list[PageEmbedding]:
    vectors = np.asarray(vectors, dtype=np.float64)
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    writers = writers or ["w"] * len(unit)
    return [
        PageEmbedding(page_id=f"p{i:03d}", writer_id=w, vector=v)
        for i, (v, w) in enumerate(zip(unit, writers))
    ]


def _tied_pages() -> list[PageEmbedding]:
    # p001 and p002 are exactly equally similar to p000 (s = 0.6 both).
    return _unit_pages(np.array([[1.0, 0.0], [0.6, 0.8], [0.6, -0.8]]))


def _qe(k: int) -> RerankConfig:
    return RerankConfig(method="krnn_qe", k=k)


def _hard(k1: int, k2: int, layers: int) -> RerankConfig:
    return RerankConfig(method="hard_graph", k=k2, layers=layers, k1=k1)


def _ring_pages(n: int, seed: int = 0) -> list[PageEmbedding]:
    rng = np.random.default_rng(seed)
    return _unit_pages(rng.normal(size=(n, 5)))


class TestSimilarityGraph:
    def test_self_similarity_gives_unit_adjacency(self):
        pages = _ring_pages(4)
        sims, adjacency = build_similarity_graph(pages, gamma=0.4)
        np.testing.assert_allclose(np.diag(adjacency), np.ones(4), atol=1e-12)
        np.testing.assert_allclose(adjacency, adjacency.T, atol=1e-12)

    def test_orthogonal_scalar_oracle(self):
        pages = _unit_pages(np.array([[1.0, 0.0], [0.0, 1.0]]))
        sims, adjacency = build_similarity_graph(pages, gamma=0.4)
        assert adjacency[0, 1] == pytest.approx(math.exp(-2.5), rel=1e-12)

    def test_flat_decay_limit(self):
        # Nonnegative components keep s >= 0, so (1 - s)^2 <= 1.
        rng = np.random.default_rng(0)
        pages = _unit_pages(rng.uniform(0.1, 1.0, size=(5, 4)))
        sims, adjacency = build_similarity_graph(pages, gamma=1e6)
        assert np.all(np.abs(adjacency - 1.0) < 1e-6)

    def test_monotonicity_in_s_and_gamma(self):
        for gamma in (0.1, 0.4, 1.0):
            s = np.linspace(-0.9, 0.9, 30)
            a = np.exp(-((1 - s) ** 2) / gamma)
            assert np.all(np.diff(a) > 0)  # increasing in s
        for s in (-0.5, 0.0, 0.5, 0.9):
            gammas = np.linspace(0.1, 2.0, 30)
            a = np.exp(-((1 - s) ** 2) / gammas)
            assert np.all(np.diff(a) > 0)  # exp(-c/gamma) grows with gamma
        # A_ij strictly decreases with gamma... for fixed s < 1 the exponent
        # -(1-s)^2/gamma rises toward 0, so adjacency increases with gamma.

    def test_adjacency_in_place_is_the_expression_bitwise(self):
        rng = np.random.default_rng(4)
        sims = rng.uniform(-1.0, 1.0, size=(70, 70))
        for gamma in (0.05, 0.4, 1.0, 7.3):
            want = np.exp(-((1.0 - sims) ** 2) / gamma)
            assert _adjacency(sims.copy(), gamma).tobytes() == want.tobytes()

    def test_non_unit_input_rejected(self):
        pages = _ring_pages(3)
        bad = PageEmbedding(
            page_id="bad", writer_id="w", vector=2.0 * pages[0].vector
        )
        with pytest.raises(ValidationError, match="bad"):
            build_similarity_graph([bad] + pages[1:], gamma=0.4)

    def test_ragged_dimensions_rejected(self):
        short = PageEmbedding(page_id="odd", writer_id="w", vector=np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            build_similarity_graph([short] + _ring_pages(2), gamma=0.4)

    def test_invalid_gamma(self):
        with pytest.raises(ValidationError):
            build_similarity_graph(_ring_pages(3), gamma=0.0)


class TestSgr:
    def test_two_page_hand_oracle(self):
        pages = _unit_pages(np.array([[1.0, 0.0], [0.0, 1.0]]))  # s = 0
        cfg = RerankConfig(method="sgr", k=1, layers=1, gamma=0.4)
        out = sgr(pages, cfg)
        a = math.exp(-2.5)
        row0 = np.array([1.0, a])
        row1 = np.array([a, 1.0])
        # s = 0 kills the neighbor term; rows of A are just normalized.
        np.testing.assert_allclose(out[0].vector, row0 / np.linalg.norm(row0), atol=1e-12)
        np.testing.assert_allclose(out[1].vector, row1 / np.linalg.norm(row1), atol=1e-12)

    def test_identical_pages_stay_identical(self):
        v = np.array([1.0, 2.0, 2.0])
        pages = _unit_pages(np.array([v, v, v]))
        cfg = RerankConfig(method="sgr", k=1, layers=2, gamma=0.4)
        out = sgr(pages, cfg)
        for p in out[1:]:
            np.testing.assert_allclose(p.vector, out[0].vector, atol=1e-12)

    def test_three_page_dense_oracle(self):
        rng = np.random.default_rng(1)
        pages = _unit_pages(rng.normal(size=(3, 4)))
        cfg = RerankConfig(method="sgr", k=1, layers=2, gamma=0.4)
        out = sgr(pages, cfg)
        # Independent dense-matrix oracle.
        x = np.array([p.vector for p in pages])
        s = x @ x.T
        adj = np.exp(-((1 - s) ** 2) / 0.4)
        h = adj.copy()
        for _ in range(2):
            nxt = h.copy()
            for i in range(3):
                others = [j for j in range(3) if j != i]
                j = min(others, key=lambda j: (-s[i, j], j))
                nxt[i] = nxt[i] + s[i, j] * h[j]
            h = nxt / np.linalg.norm(nxt, axis=1, keepdims=True)
        for i in range(3):
            np.testing.assert_allclose(out[i].vector, h[i], atol=1e-9)

    def test_output_unit_norm(self):
        pages = _ring_pages(8, seed=2)
        out = sgr(pages, RerankConfig(method="sgr", k=3, layers=3, gamma=0.4))
        for p in out:
            assert abs(np.linalg.norm(p.vector) - 1.0) <= 1e-9

    def test_permutation_equivariance_on_rankings(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(7, 4))
        writers = [f"w{i % 3}" for i in range(7)]
        pages = _unit_pages(vectors, writers)
        cfg = RerankConfig(method="sgr", k=2, layers=2, gamma=0.4)
        base_ranked = {rl.query: rl.gallery for rl in rank_all(sgr(pages, cfg))}
        perm = rng.permutation(7)
        permuted = [pages[i] for i in perm]
        perm_ranked = {rl.query: rl.gallery for rl in rank_all(sgr(permuted, cfg))}
        assert base_ranked == perm_ranked

    def test_exact_tie_keeps_lowest_index(self):
        pages = _tied_pages()
        x = np.array([p.vector for p in pages])
        s = x @ x.T
        assert s[0, 1] == s[0, 2]
        adj = np.exp(-((1 - s) ** 2) / 0.4)
        out = sgr(pages, RerankConfig(method="sgr", k=1, layers=1, gamma=0.4))
        kept = adj[0] + s[0, 1] * adj[1]
        dropped = adj[0] + s[0, 2] * adj[2]
        assert not np.allclose(kept / np.linalg.norm(kept), dropped / np.linalg.norm(dropped))
        np.testing.assert_allclose(out[0].vector, kept / np.linalg.norm(kept), atol=1e-12)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValidationError):
            sgr(_ring_pages(3), RerankConfig(method="sgr", k=3, layers=1, gamma=0.4))


class TestKrnnQe:
    def test_empty_reciprocal_set_unchanged(self):
        # p002 points at the tight pair, but neither lists the outlier back.
        vectors = np.array([[1.0, 0.0, 0.0], [0.99, 0.1, 0.0], [0.0, 0.0, 1.0]])
        pages = _unit_pages(vectors)
        out = krnn_qe(pages, _qe(1))
        np.testing.assert_allclose(out[2].vector, pages[2].vector, atol=1e-12)

    def test_mutual_identical_vectors_unchanged(self):
        v = np.array([1.0, 1.0, 0.0])
        pages = _unit_pages(np.array([v, v]))
        out = krnn_qe(pages, _qe(1))
        np.testing.assert_allclose(out[0].vector, pages[0].vector, atol=1e-12)
        np.testing.assert_allclose(out[1].vector, pages[1].vector, atol=1e-12)

    def test_four_page_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        pages = _unit_pages(rng.normal(size=(4, 3)))
        k = 2
        out = krnn_qe(pages, _qe(k))
        x = np.array([p.vector for p in pages])
        s = x @ x.T
        # Brute-force reciprocal sets.
        knn = []
        for i in range(4):
            order = sorted((j for j in range(4) if j != i), key=lambda j: (-s[i, j], j))
            knn.append(order[:k])
        for i in range(4):
            recip = [j for j in knn[i] if i in knn[j]]
            acc = x[i] + sum((x[j] for j in recip), np.zeros(3))
            acc /= len(recip) + 1
            acc /= np.linalg.norm(acc)
            np.testing.assert_allclose(out[i].vector, acc, atol=1e-12)

    @pytest.mark.parametrize("extra", [0, 1, 4])
    def test_k_past_the_gallery_takes_every_page(self, extra):
        # Every page lists all the others, so every group is the whole
        # collection, summed in ascending index order.
        pages = _ring_pages(6, seed=3)
        out = krnn_qe(pages, _qe(len(pages) - 1 + extra))
        acc = np.zeros(5)
        for p in pages:
            acc += p.vector
        acc /= len(pages)
        acc /= np.linalg.norm(acc)
        for p in out:
            assert p.vector.tobytes() == acc.tobytes()

    def test_mutual_group_sums_in_one_order(self):
        # p000-p002 are each other's 2 nearest neighbours, far from the rest:
        # one group, so one bitwise vector, and the page-id rule orders ties
        rng = np.random.default_rng(11)
        tight = np.array([1.0, 0, 0, 0, 0, 0]) + 0.05 * rng.normal(size=(3, 6))
        rest = rng.normal(size=(6, 6)) + np.array([0, 0, 0, 0, 0, -4.0])
        pages = _unit_pages(np.vstack([tight, rest]))
        out = krnn_qe(pages, _qe(2))
        assert out[0].vector.tobytes() == out[1].vector.tobytes() == out[2].vector.tobytes()
        base = {rl.query: rl.gallery for rl in rank_all(out)}
        assert base["p000"][:2] == ("p001", "p002") and base["p002"][:2] == ("p000", "p001")
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(len(pages))
            shuffled = krnn_qe([pages[i] for i in perm], _qe(2))
            assert {rl.query: rl.gallery for rl in rank_all(shuffled)} == base

    def test_single_page_rejected(self):
        with pytest.raises(ValidationError):
            krnn_qe(_ring_pages(1), _qe(1))


class TestHardGraph:
    def test_definition_cases(self):
        # Chain: p0-p1 tight pair (mutual), p2 points at p1 one-directionally.
        vectors = np.array([[1.0, 0.0], [0.999, 0.04], [0.9, 0.43]])
        pages = _unit_pages(vectors)
        out = hard_graph_rerank(pages, _hard(k1=1, k2=1, layers=1))
        x = np.array([p.vector for p in pages])
        s = x @ x.T
        # Independent adjacency oracle.
        knn = [
            sorted((j for j in range(3) if j != i), key=lambda j: (-s[i, j], j))[:1]
            for i in range(3)
        ]
        adj = np.eye(3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    fwd, back = j in knn[i], i in knn[j]
                    adj[i, j] = 1.0 if (fwd and back) else 0.5 if (fwd or back) else 0.0
        assert adj[0, 1] == 1.0 and adj[1, 0] == 1.0  # mutual
        assert adj[2, 1] == 0.5 and adj[1, 2] == 0.5  # one-directional
        assert adj[0, 2] == 0.0
        h = adj.copy()
        nxt = h.copy()
        for i in range(3):
            j = knn[i][0]
            nxt[i] = nxt[i] + adj[i, j] * h[j]
        expected = nxt / np.linalg.norm(nxt, axis=1, keepdims=True)
        for i in range(3):
            np.testing.assert_allclose(out[i].vector, expected[i], atol=1e-9)

    def test_exact_tie_keeps_lowest_index(self):
        # p000 ties between p001 and p002 and must pick p001: mutual with
        # p001, one-directional with p002 (which points back at p000).
        out = hard_graph_rerank(_tied_pages(), _hard(k1=1, k2=1, layers=1))
        row = np.array([1.0, 1.0, 0.5]) + 1.0 * np.array([1.0, 1.0, 0.0])
        np.testing.assert_allclose(out[0].vector, row / np.linalg.norm(row), atol=1e-12)

    def test_k1_saturation(self):
        pages = _ring_pages(5, seed=6)
        out = hard_graph_rerank(pages, _hard(k1=4, k2=2, layers=1))
        assert len(out) == 5  # no error: every off-diagonal pair is mutual

    def test_five_page_dense_oracle(self):
        rng = np.random.default_rng(7)
        pages = _unit_pages(rng.normal(size=(5, 4)))
        k1, k2, layers = 3, 2, 2
        out = hard_graph_rerank(pages, _hard(k1, k2, layers))
        x = np.array([p.vector for p in pages])
        s = x @ x.T
        knn1 = [
            sorted((j for j in range(5) if j != i), key=lambda j: (-s[i, j], j))[:k1]
            for i in range(5)
        ]
        adj = np.eye(5)
        for i in range(5):
            for j in range(5):
                if i != j:
                    fwd, back = j in knn1[i], i in knn1[j]
                    adj[i, j] = 1.0 if (fwd and back) else 0.5 if (fwd or back) else 0.0
        knn2 = [
            sorted((j for j in range(5) if j != i), key=lambda j: (-s[i, j], j))[:k2]
            for i in range(5)
        ]
        h = adj.copy()
        for _ in range(layers):
            nxt = h.copy()
            for i in range(5):
                for j in knn2[i]:
                    nxt[i] = nxt[i] + adj[i, j] * h[j]
            h = nxt / np.linalg.norm(nxt, axis=1, keepdims=True)
        for i in range(5):
            np.testing.assert_allclose(out[i].vector, h[i], atol=1e-9)

    def test_parameter_validation(self):
        pages = _ring_pages(4)
        with pytest.raises(ValidationError):
            hard_graph_rerank(pages, _hard(k1=2, k2=3, layers=1))  # k2 > k1
        with pytest.raises(ValidationError):
            hard_graph_rerank(pages, _hard(k1=4, k2=1, layers=1))  # k1 >= n


class TestPropagationOrder:
    """The rerankers hand the propagation each row's neighbors in
    descending weight order, ties by ascending index, so its sums are
    bitwise those of neighbors sorted by (-weight, index) here."""

    @staticmethod
    def _tied_grid_pages() -> list[PageEmbedding]:
        # Small integer vectors: many pages repeat, so similarities tie.
        rng = np.random.default_rng(12)
        return _unit_pages(rng.integers(1, 4, size=(30, 3)).astype(float))

    @staticmethod
    def _nearest(sims: np.ndarray, k: int) -> list[list[int]]:
        n = len(sims)
        return [
            sorted((j for j in range(n) if j != i), key=lambda j: (-sims[i, j], j))[:k]
            for i in range(n)
        ]

    @staticmethod
    def _by_weight(weights: np.ndarray, neighbors: list[list[int]]) -> np.ndarray:
        return np.array(
            [sorted(row, key=lambda j: (-weights[i, j], j)) for i, row in enumerate(neighbors)]
        )

    def test_sgr(self):
        pages = self._tied_grid_pages()
        cfg = RerankConfig(method="sgr", k=4, layers=2)
        sims, adjacency = build_similarity_graph(pages, cfg.gamma)
        neighbors = self._by_weight(sims, self._nearest(sims, cfg.k))
        weights = np.take_along_axis(sims, neighbors, axis=1)
        want = _after(_propagate(adjacency, neighbors, weights), cfg.layers)
        got = np.array([p.vector for p in sgr(pages, cfg)])
        assert got.tobytes() == want.tobytes()

    def test_hard_graph_reorders_its_similarity_neighbors(self):
        pages = self._tied_grid_pages()
        k1, k2, layers = 5, 4, 2
        sims, _ = build_similarity_graph(pages, gamma=0.4)
        knn1 = self._nearest(sims, k1)
        adj = np.eye(len(pages))
        for i, row in enumerate(knn1):
            for j in row:
                adj[i, j] += 0.5
                adj[j, i] += 0.5
        nearest = [row[:k2] for row in knn1]
        neighbors = self._by_weight(adj, nearest)
        # The adjacency order differs from the similarity order somewhere.
        assert neighbors.tolist() != nearest
        weights = np.take_along_axis(adj, neighbors, axis=1)
        want = _after(_propagate(adj, neighbors, weights), layers)
        got = np.array([p.vector for p in hard_graph_rerank(pages, _hard(k1, k2, layers))])
        assert got.tobytes() == want.tobytes()


def _propagate_oracle(features, neighbors, weights, layers):
    """Propagation over whole arrays, one layer at a time."""
    h = features
    for _ in range(layers):
        nxt = h.copy()
        for c in range(neighbors.shape[1]):
            nxt += weights[:, c, None] * h[neighbors[:, c]]
        norms = np.linalg.norm(nxt, axis=1)
        nxt /= np.where(norms > 0.0, norms, 1.0)[:, None]
        h = nxt
    return h


class TestPropagateInRowBlocks:
    @pytest.mark.parametrize("n", [5, 64, 150])
    def test_each_layer_is_the_whole_array_propagation_bitwise(self, n):
        """n below, at and off a multiple of RANK_BLOCK; the features are
        only read, and a zero row stays zero."""
        rng = np.random.default_rng(n)
        features = rng.uniform(0.0, 1.0, size=(n, n))
        features[1] = 0.0
        before = features.tobytes()
        neighbors = np.column_stack([(np.arange(n) + s) % n for s in (1, 2, 3)])
        neighbors[1] = 1  # the zero row's neighbors are itself
        weights = rng.uniform(0.0, 1.0, size=(n, 3))
        for layers, got in zip(range(1, 5), _propagate(features, neighbors, weights)):
            want = _propagate_oracle(features, neighbors, weights, layers)
            assert got.tobytes() == want.tobytes()
        assert features.tobytes() == before


class TestPeakMemory:
    """tracemalloc peaks above the inputs at n = 400; the unit is one
    (n, n) float64 matrix. Neither reranker copies its features, and
    hard_graph builds its adjacency from neighbor lists, not from (n, n)
    membership masks."""

    N = 400
    UNIT = N * N * 8

    def test_sgr(self):
        """The adjacency, built in the similarity buffer, and the layer's
        output (2.47 units; 5.06 when the adjacency had its own array)."""
        pages = _ring_pages(self.N, seed=9)
        cfg = RerankConfig(method="sgr", k=2, layers=1)
        assert traced_peak(lambda: sgr(pages, cfg)) < 2.6 * self.UNIT

    def test_sgr_frees_the_adjacency_after_the_first_layer(self):
        pages = _ring_pages(self.N, seed=9)
        cfg = RerankConfig(method="sgr", k=2, layers=3)
        assert traced_peak(lambda: sgr(pages, cfg)) < 2.6 * self.UNIT

    def test_hard_graph(self):
        """The similarities are dropped once the k1 lists are taken
        (2.47 units; 5.09 before)."""
        pages = _ring_pages(self.N, seed=9)
        assert traced_peak(lambda: hard_graph_rerank(pages, _hard(4, 2, 1))) < 3.6 * self.UNIT

    def test_sweep_holds_one_chain(self, tmp_path):
        """gammas 0.4, 1.0 x layers 1, 3 over writers of 5 pages: one layer
        beside the next, or a layer, its copy and the copy's similarities
        (3.26 units; 6.35 when each grid point ran sgr and rank_all on its
        own)."""
        vectors = np.random.default_rng(9).normal(size=(self.N, 5))
        writers = [f"w{i // 5:03d}" for i in range(self.N)]
        write_embeddings(tmp_path / "embeddings.json", _unit_pages(vectors, writers), "h")
        grid = {"gammas": [0.4, 1.0], "layers_grid": [1, 3], "ks": [1]}
        sweep = lambda: run_sweep(tmp_path / "embeddings.json", tmp_path / "sweep", **grid)  # noqa: E731
        assert traced_peak(sweep) < 3.5 * self.UNIT

    def test_krnn_qe_selects_its_neighbors_in_row_blocks(self):
        """The similarities, and (RANK_BLOCK, n) blocks for the top k."""
        pages = _ring_pages(self.N, seed=9)
        assert traced_peak(lambda: krnn_qe(pages, _qe(2))) < 1.8 * self.UNIT


class TestDispatch:
    def test_rerank_routes_by_method(self):
        pages = _ring_pages(6, seed=8)
        a = rerank(pages, RerankConfig(method="sgr", k=2, layers=1, gamma=0.4))
        b = rerank(pages, RerankConfig(method="krnn_qe", k=2))
        c = rerank(pages, RerankConfig(method="hard_graph", k=2, layers=1, k1=3))
        assert len(a) == len(b) == len(c) == 6

    @pytest.mark.parametrize(
        "method, name", [("sgr", "sgr"), ("krnn_qe", "krnn_qe"), ("hard_graph", "hard_graph_rerank")]
    )
    def test_rerank_reaches_the_module_function(self, monkeypatch, method, name):
        """rerank looks each method up when it is called, so a function
        rebound on the module, as a tracer binds its wrappers, sees the call."""
        module = importlib.import_module("wret.rerank")  # wret.rerank is also a function
        real = getattr(module, name)
        calls = []

        def spy(pages, cfg):
            calls.append(cfg)
            return real(pages, cfg)

        monkeypatch.setattr(module, name, spy)
        pages = _ring_pages(6, seed=8)
        cfg = RerankConfig(method=method, k=2, layers=1, k1=3)
        out = rerank(pages, cfg)
        assert calls == [cfg]
        assert [p.vector.tobytes() for p in out] == [p.vector.tobytes() for p in real(pages, cfg)]

    def test_bad_config_values(self):
        with pytest.raises(ValidationError):
            RerankConfig(method="unknown")
        with pytest.raises(ValidationError):
            RerankConfig(gamma=-1.0)
        with pytest.raises(ValidationError):
            RerankConfig(k=0)
