import numpy as np
import pytest
from helpers import (
    assign_and_filter_oracle,
    cluster_fit_project_oracle,
    kmeans_oracle,
    kmeans_pp_init_oracle,
    pca_transform_oracle,
    traced_peak,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from wret import features
from wret.errors import ValidationError
from wret.features import (
    NEAREST_CHUNK,
    ClusterModel,
    KmeansRun,
    PcaModel,
    PseudoLabeledSet,
    assign_and_filter,
    fit_kmeans,
    fit_pca,
    fit_transform_pca_in_place,
    hellinger_normalize,
    pca_transform,
)


class TestHellinger:
    def test_zero_input_gives_zero_output(self):
        out = hellinger_normalize(np.zeros((1, 8)))
        assert np.array_equal(out, np.zeros((1, 8)))

    def test_hand_oracle(self):
        # sqrt([4, 1]) = [2, 1]; l1 norm 3.
        out = hellinger_normalize(np.array([[4.0, 1.0]]))
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], rtol=0, atol=1e-15)

    def test_symmetry_forces_uniform(self):
        out = hellinger_normalize(np.ones((1, 4)))
        np.testing.assert_allclose(out, np.full((1, 4), 0.25), rtol=0, atol=1e-15)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            hellinger_normalize(np.array([[1.0, -0.5]]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            hellinger_normalize(np.array([[1.0, np.nan]]))

    def test_descriptor_vector_rejected(self):
        with pytest.raises(ValidationError, match=r"\(n, d\) matrix, got shape \(2,\)"):
            hellinger_normalize(np.array([4.0, 1.0]))

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(0)
        batch = rng.uniform(0, 5, size=(10, 6))
        out = hellinger_normalize(batch)
        for i in range(10):
            np.testing.assert_array_equal(out[i], hellinger_normalize(batch[i : i + 1])[0])

    def test_bitwise_the_divide_into_zeros_formula(self):
        """One buffer, divided in place, gives the values of a separate
        output that starts at zero: an all-zero row holding -0.0 included.
        The input is left as it was."""
        rng = np.random.default_rng(1)
        batch = rng.uniform(0, 5, size=(50, 7))
        batch[rng.random((50, 7)) < 0.2] = 0.0
        batch[rng.random((50, 7)) < 0.2] = -0.0
        batch[[3, 17]] = [[0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0], [-0.0] * 7]
        before = batch.copy()
        roots = np.sqrt(batch)
        norms = roots.sum(axis=1, keepdims=True)
        want = np.divide(roots, norms, out=np.zeros_like(roots), where=norms > 0)
        assert hellinger_normalize(batch).tobytes() == want.tobytes()
        assert batch.tobytes() == before.tobytes()

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=32)
    )
    @settings(max_examples=200, deadline=None)
    def test_l1_norm_is_one_for_nonzero_input(self, values):
        vec = np.array(values)
        out = hellinger_normalize(vec[None, :])[0]
        if np.any(vec > 0):
            assert abs(np.abs(out).sum() - 1.0) < 1e-12
        else:
            assert np.array_equal(out, np.zeros_like(vec))


class TestFitPca:
    def test_exact_low_rank_line(self):
        rng = np.random.default_rng(1)
        direction = np.array([1.0, 2.0, -2.0])
        direction /= np.linalg.norm(direction)
        data = rng.normal(size=(50, 1)) * direction + np.array([5.0, -1.0, 2.0])
        model = fit_pca(data, target_dim=1)
        # Basis parallel to the generating line.
        cos = abs(float(model.basis[0] @ direction))
        assert cos == pytest.approx(1.0, abs=1e-9)
        # Zero residual variance off the line.
        recon = pca_transform(model, data) @ model.basis + model.mean
        np.testing.assert_allclose(recon, data, atol=1e-9)

    def test_whitened_covariance_matches_sample_oracle(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(200, 2)) * np.array([2.0, 1.0])
        model = fit_pca(data, target_dim=2, whiten=True)
        transformed = pca_transform(model, data)
        # Oracle: sample covariance of the transformed training data.
        cov = np.cov(transformed, rowvar=False)
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-2)

    def test_whiten_unit_variance_tight(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(100, 5)) @ rng.normal(size=(5, 5))
        model = fit_pca(data, target_dim=4, whiten=True)
        transformed = pca_transform(model, data)
        var = transformed.var(axis=0, ddof=1)
        assert np.all(np.abs(var - 1.0) <= 1e-6)

    def test_full_dim_is_isometry(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(30, 4))
        model = fit_pca(data, target_dim=4, whiten=False)
        transformed = pca_transform(model, data)
        for i in range(10):
            for j in range(i + 1, 10):
                orig = np.linalg.norm(data[i] - data[j])
                proj = np.linalg.norm(transformed[i] - transformed[j])
                assert abs(orig - proj) < 1e-9

    def test_basis_rows_orthonormal(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(60, 8))
        model = fit_pca(data, target_dim=3)
        gram = model.basis @ model.basis.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-6)

    def test_degenerate_rank_error_names_rank(self):
        # Rank-2 data in 4-D cannot support a 3-component fit.
        rng = np.random.default_rng(6)
        low = rng.normal(size=(40, 2))
        data = low @ rng.normal(size=(2, 4))
        with pytest.raises(ValidationError, match="rank 2"):
            fit_pca(data, target_dim=3)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValidationError):
            fit_pca(np.eye(3), target_dim=3)

    @pytest.mark.parametrize("n,d", [(64, 64), (500, 16), (20000, 8)])
    def test_scatter_path_matches_the_svd(self, n, d):
        """With n >= d the components come from the (d, d) scatter matrix;
        they match the SVD of the centered data to rounding."""
        rng = np.random.default_rng(n + d)
        data = rng.normal(size=(n, d)) * np.linspace(1.0, 4.0, d) + rng.normal(size=d)
        target = d // 2
        model = fit_pca(data, target_dim=target, whiten=True)
        _, s, vt = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)
        np.testing.assert_allclose(model.basis, _sign_rule(vt[:target]), rtol=0, atol=1e-9)
        variances = s[:target] ** 2 / (n - 1)
        np.testing.assert_allclose(model.scale**-2, variances, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("n,d,rank", [(300, 12, 5), (2000, 64, 31), (10, 20, 3)])
    def test_exact_rank_deficiency_names_the_rank(self, n, d, rank):
        rng = np.random.default_rng(n)
        data = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d)) + rng.normal(size=d)
        with pytest.raises(ValidationError, match=f"rank {rank},"):
            fit_pca(data, target_dim=rank + 1)
        assert fit_pca(data, target_dim=rank).d_out == rank

    @pytest.mark.parametrize("whiten", [False, True])
    def test_fewer_samples_than_dimensions_keep_the_svd(self, whiten):
        """The page PCA's shape (100 pages of 1024 dimensions) is fit by
        the SVD of the centered data, bitwise as before."""
        rng = np.random.default_rng(10)
        data = rng.normal(size=(100, 1024)) * rng.uniform(0.5, 2.0, size=1024)
        model = fit_pca(data, target_dim=16, whiten=whiten)
        mean = data.mean(axis=0)
        _, s, vt = np.linalg.svd(data - mean, full_matrices=False)
        variances = (s[:16] ** 2) / 99
        scale = 1.0 / np.sqrt(variances) if whiten else np.ones(16)
        assert model.mean.tobytes() == mean.tobytes()
        assert model.basis.tobytes() == _sign_rule(vt[:16]).tobytes()
        assert model.scale.tobytes() == scale.tobytes()

    def test_peak_memory_is_one_centered_copy(self):
        """No (n, d) factor beside the centered data. LAPACK's own
        workspace is invisible to tracemalloc."""
        data = np.random.default_rng(11).normal(size=(20000, 64))
        assert traced_peak(lambda: fit_pca(data, target_dim=32)) < 1.5 * data.nbytes


def _sign_rule(rows: np.ndarray) -> np.ndarray:
    """A copy of the rows, each flipped so that its largest-magnitude
    entry is positive."""
    rows = rows.copy()
    pivots = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
    rows[pivots < 0] *= -1.0
    return rows


class TestPcaTransform:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(25, 3))
        model = fit_pca(data, target_dim=2)
        out = pca_transform(model, data.mean(axis=0, keepdims=True))
        np.testing.assert_allclose(out, np.zeros((1, 2)), atol=1e-12)

    def test_identity_model(self):
        model = PcaModel(mean=np.zeros(3), basis=np.eye(3), scale=np.ones(3), whiten=False)
        vec = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(pca_transform(model, vec), vec)

    def test_matrix_product_oracle(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(40, 5))
        model = fit_pca(data, target_dim=3, whiten=True)
        vec = rng.normal(size=5)
        # Independent oracle: explicit loops over the model arrays.
        centered = [vec[j] - model.mean[j] for j in range(5)]
        expected = []
        for i in range(3):
            acc = 0.0
            for j in range(5):
                acc += model.basis[i, j] * centered[j]
            expected.append(model.scale[i] * acc)
        np.testing.assert_allclose(pca_transform(model, vec[None, :])[0], expected, atol=1e-9)

    def test_dimension_mismatch(self):
        model = PcaModel(mean=np.zeros(3), basis=np.eye(3), scale=np.ones(3), whiten=False)
        with pytest.raises(ValidationError):
            pca_transform(model, np.zeros((1, 4)))

    @pytest.mark.parametrize("whiten", [False, True])
    @pytest.mark.parametrize(
        "n", [1, 400, NEAREST_CHUNK - 1, NEAREST_CHUNK, NEAREST_CHUNK + 1, 2 * NEAREST_CHUNK + 37]
    )
    def test_blocks_match_the_whole_matrix_product(self, n, whiten):
        """Row blocks of NEAREST_CHUNK give the bytes of one product over
        the whole matrix, float32 input included."""
        rng = np.random.default_rng([16, n])
        model = fit_pca(rng.normal(size=(300, 64)) * rng.uniform(0.5, 2.0, 64), 32, whiten)
        for data in (rng.normal(size=(n, 64)), rng.random((n, 64)).astype(np.float32)):
            got = pca_transform(model, data)
            want = pca_transform_oracle(model, data)
            assert got.shape == want.shape == (n, 32)
            assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_the_output_and_one_block(self):
        """No centered copy of the whole input: the (n, 32) result and
        one block's temporaries, in units of the (n, 64) input."""
        rng = np.random.default_rng(17)
        model = fit_pca(rng.normal(size=(300, 64)), 32)
        data = rng.normal(size=(20 * NEAREST_CHUNK + 3, 64))
        assert traced_peak(lambda: pca_transform(model, data)) < 0.6 * data.nbytes

    def test_descriptor_vector_rejected(self):
        model = PcaModel(mean=np.zeros(3), basis=np.eye(3), scale=np.ones(3), whiten=False)
        with pytest.raises(ValidationError, match=r"\(n, 3\) matrix, got shape \(3,\)"):
            pca_transform(model, np.zeros(3))


class TestFitTransformPcaInPlace:
    @staticmethod
    def _assert_matches_the_copying_fit(data: np.ndarray, target_dim: int, whiten: bool):
        """Model and projection bitwise fit_pca then pca_transform; the input
        comes back centered, and fit_pca leaves its own input as it was."""
        before = data.tobytes()
        want_model, want = cluster_fit_project_oracle(data, target_dim, whiten)
        assert data.tobytes() == before
        x = data.copy()
        model, got = fit_transform_pca_in_place(x, target_dim, whiten)
        for name in ("mean", "basis", "scale"):
            assert getattr(model, name).tobytes() == getattr(want_model, name).tobytes(), name
        assert model.whiten == whiten
        assert got.shape == (len(data), target_dim)
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == (data - data.mean(axis=0)).tobytes()

    @pytest.mark.parametrize("whiten", [False, True])
    @pytest.mark.parametrize("d", [64, 33])
    @pytest.mark.parametrize(
        "n", [NEAREST_CHUNK - 1, NEAREST_CHUNK, NEAREST_CHUNK + 1, 2 * NEAREST_CHUNK + 1]
    )
    def test_bitwise_the_fit_and_the_projection(self, n, d, whiten):
        """At d = 33 a row is 264 bytes, not a multiple of 64, so the rows
        of a block do not start on 64-byte boundaries."""
        rng = np.random.default_rng([32, n, d])
        data = rng.random((n, d)) * rng.uniform(0.5, 2.0, d)
        self._assert_matches_the_copying_fit(data, 16, whiten)

    @pytest.mark.parametrize("whiten", [False, True])
    @pytest.mark.parametrize("d", [64, 33])
    def test_fewer_samples_than_dimensions(self, d, whiten):
        """The SVD branch of the shared fit core."""
        rng = np.random.default_rng([33, d])
        self._assert_matches_the_copying_fit(rng.normal(size=(20, d)), 8, whiten)

    def test_hellinger_rows_of_the_cluster_stage(self):
        rng = np.random.default_rng(34)
        data = hellinger_normalize(rng.random((NEAREST_CHUNK + 7, 64)) ** 4)
        self._assert_matches_the_copying_fit(data, 32, False)

    @pytest.mark.parametrize(
        "data",
        [np.ones((10, 4), dtype=np.float32), np.ones(4), [[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]]],
        ids=["float32", "vector", "list"],
    )
    def test_only_a_float64_matrix_is_taken_over(self, data):
        """A cast or a reshaped copy would be centered instead of the
        caller's array, so anything else is refused."""
        with pytest.raises(ValidationError, match="float64 \\(n, d\\) array"):
            fit_transform_pca_in_place(data, 1)

    @pytest.mark.parametrize(
        "target_dim,nan,match",
        [(2, True, "non-finite"), (0, False, "target_dim must be"),
         (9, False, "target_dim must be"), (8, False, "need more than")],
    )
    def test_refused_input_is_left_as_it_is(self, target_dim, nan, match):
        """fit_pca's checks, made before anything is centered."""
        x = np.random.default_rng(35).normal(size=(8, 8))
        if nan:
            x[3, 2] = np.nan
        before = x.tobytes()
        with pytest.raises(ValidationError, match=match):
            fit_transform_pca_in_place(x, target_dim)
        with pytest.raises(ValidationError, match=match):
            fit_pca(x, target_dim)
        assert x.tobytes() == before

    def test_peak_memory_is_the_projection(self):
        """No centered copy: beyond the (n, 64) input it takes over, the
        (n, 32) result (half a unit) and the finiteness mask (an eighth,
        freed before the result is made)."""
        data = np.random.default_rng(36).normal(size=(20000, 64))
        peak = traced_peak(lambda: fit_transform_pca_in_place(data, target_dim=32))
        assert peak < 0.55 * data.nbytes


def _lloyd_oracle(points: np.ndarray, init: np.ndarray, iters: int = 100) -> np.ndarray:
    """Plain-loop Lloyd iteration, independent of the library implementation."""
    centers = init.copy()
    for _ in range(iters):
        groups: dict[int, list[np.ndarray]] = {k: [] for k in range(len(centers))}
        for p in points:
            dists = [float(np.sum((p - c) ** 2)) for c in centers]
            groups[int(np.argmin(dists))].append(p)
        new = np.array(
            [np.mean(groups[k], axis=0) if groups[k] else centers[k] for k in range(len(centers))]
        )
        if np.allclose(new, centers, atol=1e-12):
            break
        centers = new
    return centers


class TestNearest:
    @pytest.mark.parametrize("n", [1, NEAREST_CHUNK + 1, NEAREST_CHUNK + 2, 2 * NEAREST_CHUNK + 1])
    def test_row_blocks_match_the_whole_product(self, monkeypatch, n):
        """No block is shorter than NEAREST_CHUNK rows unless n is, so a
        short tail takes no other BLAS kernel: the nearest centers and
        distances are those of the whole (n, k) product, bitwise."""
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 32))
        centers = rng.normal(size=(64, 32))
        xsq = np.sum(x * x, axis=1)
        sq = features._squared_distances(x, xsq, centers, np.sum(centers * centers, axis=1))
        real = features._squared_distances
        lengths = []

        def recorded(rows, *rest):
            lengths.append(len(rows))
            return real(rows, *rest)

        monkeypatch.setattr(features, "_squared_distances", recorded)
        assign, dmin = features._nearest(x, xsq, centers)
        assert sum(lengths) == n and min(lengths) >= min(n, NEAREST_CHUNK)
        assert assign.tobytes() == np.argmin(sq, axis=1).tobytes()
        assert dmin.tobytes() == sq[np.arange(n), assign].tobytes()


def _fit_checking_inertia(data: np.ndarray, k: int, seed: int) -> ClusterModel:
    """fit_kmeans, recording the inertia of every assignment pass: one per
    iteration plus the final one, none serving the points worse than the
    pass before it."""
    inertias = []
    real = features._nearest

    def recorded(x, xsq, centers):
        assign, dmin = real(x, xsq, centers)
        inertias.append(float(dmin.sum()))
        return assign, dmin

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "_nearest", recorded)
        model = fit_kmeans(data, n_clusters=k, seed=seed)
    assert len(inertias) == model.run.iterations + 1
    for before, after in zip(inertias, inertias[1:]):
        assert after <= before + 1e-9 * max(1.0, before), f"inertia rose: {before} -> {after}"
    return model


class TestFitKmeans:
    def test_two_separated_pairs_find_midpoints(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        expected = np.array([[0.0, 0.5], [10.0, 0.5]])
        # Oracle: Lloyd from either cross-pair initialization reaches the midpoints.
        for init in (points[[0, 2]], points[[3, 1]]):
            oracle = _lloyd_oracle(points, init)
            np.testing.assert_allclose(
                oracle[np.argsort(oracle[:, 0])], expected, atol=1e-12
            )
        model = fit_kmeans(points, n_clusters=2, seed=0)
        got = model.centers[np.argsort(model.centers[:, 0])]
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_each_point_its_own_center(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        model = fit_kmeans(points, n_clusters=4, seed=3)
        assert model.inertia == 0.0
        got = sorted(map(tuple, model.centers))
        assert got == sorted(map(tuple, points))

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(200, 6))
        a = fit_kmeans(data, n_clusters=5, seed=42)
        b = fit_kmeans(data, n_clusters=5, seed=42)
        assert np.array_equal(a.centers, b.centers)
        assert a.inertia == b.inertia

    def test_inertia_never_increases(self):
        data = np.random.default_rng(10).normal(size=(120, 4))
        model = _fit_checking_inertia(data, 6, 1)
        assert model.run.iterations > 1

    def test_fewer_points_than_clusters(self):
        with pytest.raises(ValidationError):
            fit_kmeans(np.zeros((2, 3)), n_clusters=3, seed=0)


def _mixture(seed: int, n: int, d: int = 3, modes: int = 6) -> np.ndarray:
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=4.0, size=(modes, d))
    return means[rng.integers(modes, size=n)] + rng.normal(size=(n, d))


class TestFitKmeansMatchesPlainLloyd:
    """The chunked, bincount-based Lloyd step against the plain loop over
    the full distance matrix: bitwise centers, inertia and labels."""

    @staticmethod
    def _assert_bitwise(x: np.ndarray, k: int, seed: int) -> ClusterModel:
        model = _fit_checking_inertia(x, k, seed)
        centers, inertia, iterations, converged, reseeds = kmeans_oracle(x, k, seed)
        assert model.centers.tobytes() == centers.tobytes()
        assert model.inertia == inertia
        assert model.run == KmeansRun(iterations, converged, reseeds)
        for rho in (0.6, 0.9, 1.0):
            items, rejected = assign_and_filter_oracle(centers, x, rho)
            assert _lists(assign_and_filter(model, x, rho)) == (
                [list(pair) for pair in items],
                list(rejected),
            )
        return model

    @pytest.mark.parametrize(
        "n, k, seed",
        [(300, 7, 1), (NEAREST_CHUNK, 5, 4), (2 * NEAREST_CHUNK + 37, 12, 2)],
    )
    def test_mixture(self, n, k, seed):
        model = self._assert_bitwise(_mixture(seed, n), k, seed)
        assert model.run.converged and model.run.empty_reseeds == 0

    def test_empty_clusters_are_reseeded_and_counted(self):
        # Three distinct points, five clusters: k-means++ runs out of
        # distinct points and seeds two duplicates, which lose every
        # distance tie to a lower index and stay empty.
        corners = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        x = np.repeat(corners, [700, 690, 700], axis=0)[::-1]
        model = self._assert_bitwise(x, 5, 0)
        assert model.run.empty_reseeds > 0

    @pytest.mark.parametrize("n, k, seed", [(1, 1, 0), (300, 7, 1), (2000, 40, 2)])
    def test_plus_plus_init_matches_one_array_per_center(self, n, k, seed):
        """The reused (n, d) buffer gives the centers and the draws of a
        new (x - c) ** 2 per center."""
        x = _mixture(seed, n)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = features._kmeans_pp_init(x, k, rng)
        assert got.tobytes() == kmeans_pp_init_oracle(x, k, oracle_rng).tobytes()
        assert rng.random() == oracle_rng.random()

    def test_center_that_serves_nobody_moves_to_the_worst_served_point(self, monkeypatch):
        def far_start(x, k, rng):
            centers = x[:k].copy()
            centers[-1] = 1e3  # far from every point: empty in the first iteration
            return centers

        monkeypatch.setattr(features, "_kmeans_pp_init", far_start)
        model = self._assert_bitwise(_mixture(3, 2 * NEAREST_CHUNK + 37), 6, 3)
        assert model.run.empty_reseeds > 0


def _lists(result: PseudoLabeledSet) -> tuple[list[list[int]], list[int]]:
    """The (m, 2) int64 items and int64 rejects as nested lists."""
    assert result.items.dtype == result.rejected.dtype == np.int64
    assert result.items.shape == (len(result.items), 2) and result.rejected.ndim == 1
    return result.items.tolist(), result.rejected.tolist()


class TestAssignAndFilter:
    def _line_model(self) -> ClusterModel:
        return ClusterModel(centers=np.array([[0.0], [10.0]]), inertia=0.0)

    def test_equidistant_rejected(self):
        result = assign_and_filter(self._line_model(), np.array([[5.0]]), rho=0.9)
        assert _lists(result) == ([], [0])

    def test_on_center_kept(self):
        result = assign_and_filter(self._line_model(), np.array([[10.0]]), rho=0.9)
        assert _lists(result) == ([[0, 1]], [])

    def test_scalar_hand_oracle(self):
        # 4.8: ratio 4.8/5.2 ~ 0.923 > 0.9 rejected; 4.5: 4.5/5.5 ~ 0.818 kept.
        result = assign_and_filter(self._line_model(), np.array([[4.8], [4.5]]), rho=0.9)
        assert _lists(result) == ([[1, 0]], [0])
        np.testing.assert_array_equal(result.kept_indices, [1])
        np.testing.assert_array_equal(result.labels, [0])

    def test_ratio_exactly_rho_kept(self):
        # d at 4.7368421...: ratio exactly 0.9 -> kept per the strict-> reject rule.
        d1, d2 = 4.5, 5.0
        model = ClusterModel(centers=np.array([[0.0], [d1 + d2]]), inertia=0.0)
        result = assign_and_filter(model, np.array([[d1]]), rho=d1 / d2)
        assert _lists(result) == ([[0, 0]], [])

    def test_rho_one_keeps_everything(self):
        rng = np.random.default_rng(11)
        model = ClusterModel(centers=rng.normal(size=(3, 2)), inertia=0.0)
        data = rng.normal(size=(50, 2))
        result = assign_and_filter(model, data, rho=1.0)
        assert len(result.items) + len(result.rejected) == 50
        assert len(result.rejected) == 0  # generic data has no exact ties
        pair = ClusterModel(centers=np.array([[0.0], [2.0]]), inertia=0.0)
        mid = assign_and_filter(pair, np.array([[1.0]]), rho=1.0)
        assert _lists(mid) == ([[0, 0]], [])  # ratio == rho is kept, lower index wins the tie

    def test_equidistant_centers_keep_lowest_index(self):
        # Three centers at squared distance exactly 25 from (1, 2), one at 100.
        centers = np.array([[7.0, 10.0], [6.0, 2.0], [4.0, 6.0], [5.0, 5.0]])
        model = ClusterModel(centers=centers, inertia=0.0)
        point = np.array([[1.0, 2.0]])
        assert _lists(assign_and_filter(model, point, rho=1.0)) == ([[0, 1]], [])
        assert _lists(assign_and_filter(model, point, rho=0.99)) == ([], [0])

    def test_partition_for_all_rho(self):
        rng = np.random.default_rng(12)
        model = ClusterModel(centers=rng.normal(size=(4, 3)), inertia=0.0)
        data = rng.normal(size=(80, 3))
        for rho in (0.2, 0.5, 0.9, 1.0):
            result = assign_and_filter(model, data, rho=rho)
            items, rejected = _lists(result)
            kept = {i for i, _ in items}
            assert kept.isdisjoint(rejected)
            assert kept | set(rejected) == set(range(80))
            assert all(lab < 4 for _, lab in items)

    @pytest.mark.parametrize("n", [1, NEAREST_CHUNK - 1, NEAREST_CHUNK + 1, 3 * NEAREST_CHUNK])
    def test_blocks_match_the_oracle(self, n):
        rng = np.random.default_rng([18, n])
        model = ClusterModel(centers=rng.normal(size=(9, 4)), inertia=0.0)
        data = rng.normal(size=(n, 4))
        for rho in (0.5, 0.9, 1.0):
            items, rejected = assign_and_filter_oracle(model.centers, data, rho)
            assert _lists(assign_and_filter(model, data, rho)) == (
                [list(pair) for pair in items],
                list(rejected),
            )

    def test_peak_memory_is_a_fraction_of_the_input(self):
        """A (rows, k) distance block per NEAREST_CHUNK rows and a few
        (n,) arrays, never the (n, k) distances or an (n, d) square."""
        rng = np.random.default_rng(19)
        model = ClusterModel(centers=rng.normal(size=(64, 32)), inertia=0.0)
        data = rng.normal(size=(30001, 32))
        assert traced_peak(lambda: assign_and_filter(model, data, 0.9)) < 0.5 * data.nbytes

    def test_single_center_model_rejected(self):
        model = ClusterModel(centers=np.array([[0.0]]), inertia=0.0)
        with pytest.raises(ValidationError):
            assign_and_filter(model, np.array([[1.0]]), rho=0.9)

    def test_descriptor_vector_rejected(self):
        with pytest.raises(ValidationError, match=r"\(n, 1\) matrix, got shape \(1,\)"):
            assign_and_filter(self._line_model(), np.array([1.0]), rho=0.9)

    def test_rho_out_of_range(self):
        with pytest.raises(ValidationError):
            assign_and_filter(self._line_model(), np.array([[1.0]]), rho=0.0)
