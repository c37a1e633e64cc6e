import math

import numpy as np
import pytest

from wret.aggregation import PageEmbedding
from wret.errors import ValidationError
from wret.rerank import (
    RerankConfig,
    build_similarity_graph,
    hard_graph_rerank,
    krnn_qe,
    rerank,
    sgr,
)
from wret.retrieval import rank_all


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


def _ring_pages(n: int, seed: int = 0) -> list[PageEmbedding]:
    rng = np.random.default_rng(seed)
    return _unit_pages(rng.normal(size=(n, 5)))


class TestSimilarityGraph:
    def test_self_similarity_gives_unit_adjacency(self):
        pages = _ring_pages(4)
        graph = build_similarity_graph(pages, gamma=0.4)
        np.testing.assert_allclose(np.diag(graph.adjacency), np.ones(4), atol=1e-12)
        np.testing.assert_allclose(graph.adjacency, graph.adjacency.T, atol=1e-12)

    def test_orthogonal_scalar_oracle(self):
        pages = _unit_pages(np.array([[1.0, 0.0], [0.0, 1.0]]))
        graph = build_similarity_graph(pages, gamma=0.4)
        assert graph.adjacency[0, 1] == pytest.approx(math.exp(-2.5), rel=1e-12)

    def test_flat_decay_limit(self):
        # Nonnegative components keep s >= 0, so (1 - s)^2 <= 1.
        rng = np.random.default_rng(0)
        pages = _unit_pages(rng.uniform(0.1, 1.0, size=(5, 4)))
        graph = build_similarity_graph(pages, gamma=1e6)
        assert np.all(np.abs(graph.adjacency - 1.0) < 1e-6)

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
        out = krnn_qe(pages, k=1)
        np.testing.assert_allclose(out[2].vector, pages[2].vector, atol=1e-12)

    def test_mutual_identical_vectors_unchanged(self):
        v = np.array([1.0, 1.0, 0.0])
        pages = _unit_pages(np.array([v, v]))
        out = krnn_qe(pages, k=1)
        np.testing.assert_allclose(out[0].vector, pages[0].vector, atol=1e-12)
        np.testing.assert_allclose(out[1].vector, pages[1].vector, atol=1e-12)

    def test_four_page_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        pages = _unit_pages(rng.normal(size=(4, 3)))
        k = 2
        out = krnn_qe(pages, k)
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

    def test_single_page_rejected(self):
        with pytest.raises(ValidationError):
            krnn_qe(_ring_pages(1), k=1)


class TestHardGraph:
    def test_definition_cases(self):
        # Chain: p0-p1 tight pair (mutual), p2 points at p1 one-directionally.
        vectors = np.array([[1.0, 0.0], [0.999, 0.04], [0.9, 0.43]])
        pages = _unit_pages(vectors)
        out = hard_graph_rerank(pages, k1=1, k2=1, layers=1)
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
        out = hard_graph_rerank(_tied_pages(), k1=1, k2=1, layers=1)
        row = np.array([1.0, 1.0, 0.5]) + 1.0 * np.array([1.0, 1.0, 0.0])
        np.testing.assert_allclose(out[0].vector, row / np.linalg.norm(row), atol=1e-12)

    def test_k1_saturation(self):
        pages = _ring_pages(5, seed=6)
        out = hard_graph_rerank(pages, k1=4, k2=2, layers=1)
        assert len(out) == 5  # no error: every off-diagonal pair is mutual

    def test_five_page_dense_oracle(self):
        rng = np.random.default_rng(7)
        pages = _unit_pages(rng.normal(size=(5, 4)))
        k1, k2, layers = 3, 2, 2
        out = hard_graph_rerank(pages, k1, k2, layers)
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
            hard_graph_rerank(pages, k1=2, k2=3, layers=1)  # k2 > k1
        with pytest.raises(ValidationError):
            hard_graph_rerank(pages, k1=4, k2=1, layers=1)  # k1 >= n


class TestDispatch:
    def test_rerank_routes_by_method(self):
        pages = _ring_pages(6, seed=8)
        a = rerank(pages, RerankConfig(method="sgr", k=2, layers=1, gamma=0.4))
        b = rerank(pages, RerankConfig(method="krnn_qe", k=2))
        c = rerank(pages, RerankConfig(method="hard_graph", k=2, layers=1, k1=3))
        assert len(a) == len(b) == len(c) == 6

    def test_bad_config_values(self):
        with pytest.raises(ValidationError):
            RerankConfig(method="unknown")
        with pytest.raises(ValidationError):
            RerankConfig(gamma=-1.0)
        with pytest.raises(ValidationError):
            RerankConfig(k=0)
