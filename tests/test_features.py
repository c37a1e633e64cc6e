import numpy as np
import pytest
from helpers import (
    assign_and_filter_oracle,
    cluster_fit_project_oracle,
    kmeans_oracle,
    kmeans_pp_init_oracle,
    pca_transform_oracle,
    squared_distances_oracle,
    traced_peak,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from wret import SynthSpec, features
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
from wret.fileio import load_manifest, load_page_descriptors
from wret.seeds import derive_seed
from wret.stages import run_synth


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
        model = PcaModel(mean=np.zeros(3), basis=np.eye(3), scale=np.ones(3))
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
        model = PcaModel(mean=np.zeros(3), basis=np.eye(3), scale=np.ones(3))
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
        model = PcaModel(mean=np.zeros(3), basis=np.eye(3), scale=np.ones(3))
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
        sq = squared_distances_oracle(x, centers)
        real = features._distance_blocks
        lengths = []

        def recorded(*args):
            for rows, block, nearest in real(*args):
                lengths.append(len(block))
                yield rows, block, nearest

        monkeypatch.setattr(features, "_distance_blocks", recorded)
        assign, dmin = features._nearest(x, xsq, centers)
        assert sum(lengths) == n and min(lengths) >= min(n, NEAREST_CHUNK)
        assert assign.tobytes() == np.argmin(sq, axis=1).tobytes()
        assert dmin.tobytes() == sq[np.arange(n), assign].tobytes()


def _fit_checking_inertia(data: np.ndarray, k: int, seed: int) -> ClusterModel:
    """fit_kmeans, bitwise the plain Lloyd oracle (centers, inertia and run),
    whose assignment passes, one per iteration plus the final one, never
    serve the points worse than the pass before."""
    inertias: list[float] = []
    centers, inertia, iterations, converged, reseeds = kmeans_oracle(data, k, seed, inertias)
    model = fit_kmeans(data, n_clusters=k, seed=seed)
    assert model.centers.tobytes() == centers.tobytes()
    assert model.inertia == inertia
    assert model.run == KmeansRun(iterations, converged, reseeds)
    assert len(inertias) == iterations + 1
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        data = np.random.default_rng(11).normal(size=(50, 3))
        data[17, 1] = bad
        with pytest.raises(ValidationError, match="fit_kmeans input contains non-finite entries"):
            fit_kmeans(data, n_clusters=4, seed=0)


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
        for rho in (0.6, 0.9, 1.0) if k > 1 else ():
            items = assign_and_filter_oracle(model.centers, x, rho)
            assert _lists(assign_and_filter(model, x, rho)) == [list(pair) for pair in items]
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

    def test_exact_ties_recompute_the_whole_block(self, monkeypatch):
        """Grid points on the bisector of the two starting centers are
        exactly as far from both. A gathered rescan cannot settle such a
        row, so its row_blocks block is computed again as _nearest computes
        it, and the tie still goes to the lower index."""
        grid = [(x, y) for x in (*range(-12, -7), 0, *range(8, 13)) for y in range(-3, 4)]
        x = np.repeat(np.array(grid, dtype=float), 30, axis=0)
        x = x[np.random.default_rng(0).permutation(len(x))]
        monkeypatch.setattr(
            features, "_kmeans_pp_init", lambda x, k, rng: np.array([[-10.0, 0.0], [10.0, 0.0]])
        )
        rows = _count_kernel_rows(monkeypatch)
        assert fit_kmeans(x, 2, 0).run.empty_reseeds == 0
        # Whole blocks beyond the final inertia pass's n rows: the fallback ran.
        assert rows["whole"] > len(x)
        self._assert_bitwise(x, 2, 0)

    def test_heavy_duplicates_reseeded_mid_run(self, monkeypatch):
        """Six points repeated hundreds of times; a starting center serves
        points in the first iteration and none in the second, so its
        reseed runs with every row's bounds in place."""
        points = np.array(
            [[-3.0, 6.0], [-5.0, 0.0], [5.0, 0.0], [4.0, 1.0], [5.0, 2.0], [4.0, 0.0]]
        )
        x = np.repeat(points, [522, 138, 582, 489, 822, 798], axis=0)
        x = x[np.random.default_rng(1).permutation(len(x))]
        start = np.array([[2.0, 8.0], [-5.0, 0.0], [-2.0, 1.0], [8.0, -6.0]])
        monkeypatch.setattr(features, "_kmeans_pp_init", lambda x, k, rng: start.copy())
        events = []
        real_assign, real_nearest = features._LloydBounds.assign_to, features._nearest

        def assign_to(self, centers):
            events.append("assign")
            return real_assign(self, centers)

        def nearest(*args):
            events.append("nearest")
            return real_nearest(*args)

        monkeypatch.setattr(features._LloydBounds, "assign_to", assign_to)
        monkeypatch.setattr(features, "_nearest", nearest)
        model = self._assert_bitwise(x, 4, 0)
        assert model.run.empty_reseeds > 0
        # One full pass per reseed iteration, the first after the second assignment.
        assert events.index("nearest") >= 2 and events[-1] == "nearest"

    @pytest.mark.parametrize("scale", [2.0**200, 2.0**-200, 2.0**-530])
    def test_extreme_scales(self, scale):
        """At 2**-530 the products x·c are subnormal, where scaling the
        centers by -2 before the product would round otherwise."""
        self._assert_bitwise(_mixture(5, 2 * NEAREST_CHUNK + 37) * scale, 9, 5)

    @pytest.mark.parametrize(
        "n, k",
        [
            (1, 1),
            (500, 1),
            (40, 40),
            (NEAREST_CHUNK - 1, 7),
            (NEAREST_CHUNK + 1, 7),
            (2 * NEAREST_CHUNK - 1, 7),
            (2 * NEAREST_CHUNK, 7),
            (2 * NEAREST_CHUNK + 1, 7),
        ],
    )
    def test_cluster_counts_and_block_edges(self, n, k):
        self._assert_bitwise(_mixture(n, n), k, n)

    @pytest.mark.parametrize("name", ["test_6", "test_7"])
    def test_acceptance_fit_sets(self, acceptance_fit_sets, name):
        """The reduced descriptors that run_cluster clusters in the
        acceptance tests, at their 64 clusters and k-means seeds."""
        x, seed = acceptance_fit_sets[name]
        self._assert_bitwise(x, 64, seed)

    def test_bounds_settle_most_rows(self, acceptance_fit_sets, monkeypatch):
        """After the first pass, which scans every row, the bounds keep
        more than half of the rows of each later pass from being scanned."""
        x, seed = acceptance_fit_sets["test_7"]
        rows = _count_kernel_rows(monkeypatch)
        model = fit_kmeans(x, 64, seed)
        rescanned = rows["gathered"] - len(x)
        assert 0 < rescanned < 0.5 * len(x) * (model.run.iterations - 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_plus_plus_init_candidates_differ_from_used_centers_bitwise(self, seed):
        """(1e-200)^2 underflows, so rows differing from a used center sit at
        zero distance from it: the degenerate branch draws among the rows
        equal to no used center, where -0.0 equals 0.0 as in Python."""
        kinds = np.array([[0.0, 0.0], [-0.0, 0.0], [1e-200, 0.0], [0.0, 1e-200], [1e-200, -0.0]])
        x = np.repeat(kinds, [5, 4, 3, 2, 3], axis=0)
        x = x[np.random.default_rng(seed).permutation(len(x))]
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = features._kmeans_pp_init(x, 5, rng)
        assert got.tobytes() == kmeans_pp_init_oracle(x, 5, oracle_rng).tobytes()
        assert rng.random() == oracle_rng.random()


def _count_kernel_rows(patch: pytest.MonkeyPatch) -> dict[str, int]:
    """Counts the rows that features._distance_blocks computes, from then
    on: in gathered blocks (the rescans) and in row_blocks slices (whole
    blocks, as _nearest computes them)."""
    rows = {"gathered": 0, "whole": 0}
    real = features._distance_blocks

    def recorded(*args):
        for block, sq, nearest in real(*args):
            rows["whole" if isinstance(block, slice) else "gathered"] += len(sq)
            yield block, sq, nearest

    patch.setattr(features, "_distance_blocks", recorded)
    return rows


@pytest.fixture(scope="module")
def acceptance_fit_sets(tmp_path_factory) -> dict[str, tuple[np.ndarray, int]]:
    """run_cluster's (n, 32) k-means input and seed on the test_6 collection
    (seed 0) and the test_7 fit collection (seed 31)."""
    sets = {}
    for name, strength, noise, seed in (("test_6", 4.0, 1.0, 0), ("test_7", 7.5, 5.0, 31)):
        spec = SynthSpec(
            n_writers=20,
            pages_per_writer=5,
            descriptors_per_page=200,
            n_prototypes=16,
            writer_style_strength=strength,
            noise_sigma=noise,
            seed=seed,
        )
        manifest = load_manifest(run_synth(spec, tmp_path_factory.mktemp(name)))
        pages = [hellinger_normalize(page) for _, page in load_page_descriptors(manifest)]
        _, reduced = fit_transform_pca_in_place(np.concatenate(pages), 32)
        sets[name] = (reduced, derive_seed(seed, "cluster/kmeans"))
    return sets


def _lists(result: PseudoLabeledSet) -> list[list[int]]:
    """The (m, 2) int64 items as nested lists."""
    assert result.items.dtype == np.int64
    assert result.items.shape == (len(result.items), 2)
    return result.items.tolist()


class TestAssignAndFilter:
    def _line_model(self) -> ClusterModel:
        return ClusterModel(centers=np.array([[0.0], [10.0]]), inertia=0.0)

    def test_equidistant_rejected(self):
        result = assign_and_filter(self._line_model(), np.array([[5.0]]), rho=0.9)
        assert _lists(result) == []

    def test_on_center_kept(self):
        result = assign_and_filter(self._line_model(), np.array([[10.0]]), rho=0.9)
        assert _lists(result) == [[0, 1]]

    def test_scalar_hand_oracle(self):
        # 4.8: ratio 4.8/5.2 ~ 0.923 > 0.9 rejected; 4.5: 4.5/5.5 ~ 0.818 kept.
        result = assign_and_filter(self._line_model(), np.array([[4.8], [4.5]]), rho=0.9)
        assert _lists(result) == [[1, 0]]
        np.testing.assert_array_equal(result.kept_indices, [1])
        np.testing.assert_array_equal(result.labels, [0])

    def test_ratio_exactly_rho_kept(self):
        # d at 4.7368421...: ratio exactly 0.9 -> kept per the strict-> reject rule.
        d1, d2 = 4.5, 5.0
        model = ClusterModel(centers=np.array([[0.0], [d1 + d2]]), inertia=0.0)
        result = assign_and_filter(model, np.array([[d1]]), rho=d1 / d2)
        assert _lists(result) == [[0, 0]]

    def test_rho_one_keeps_everything(self):
        rng = np.random.default_rng(11)
        model = ClusterModel(centers=rng.normal(size=(3, 2)), inertia=0.0)
        data = rng.normal(size=(50, 2))
        result = assign_and_filter(model, data, rho=1.0)
        assert len(result.items) == 50  # generic data has no exact ties
        pair = ClusterModel(centers=np.array([[0.0], [2.0]]), inertia=0.0)
        mid = assign_and_filter(pair, np.array([[1.0]]), rho=1.0)
        assert _lists(mid) == [[0, 0]]  # ratio == rho is kept, lower index wins the tie

    def test_equidistant_centers_keep_lowest_index(self):
        # Three centers at squared distance exactly 25 from (1, 2), one at 100.
        centers = np.array([[7.0, 10.0], [6.0, 2.0], [4.0, 6.0], [5.0, 5.0]])
        model = ClusterModel(centers=centers, inertia=0.0)
        point = np.array([[1.0, 2.0]])
        assert _lists(assign_and_filter(model, point, rho=1.0)) == [[0, 1]]
        assert _lists(assign_and_filter(model, point, rho=0.99)) == []

    def test_partition_for_all_rho(self):
        rng = np.random.default_rng(12)
        model = ClusterModel(centers=rng.normal(size=(4, 3)), inertia=0.0)
        data = rng.normal(size=(80, 3))
        for rho in (0.2, 0.5, 0.9, 1.0):
            result = assign_and_filter(model, data, rho=rho)
            kept = result.kept_indices.tolist()
            assert kept == sorted(set(kept)) and set(kept) <= set(range(80))
            assert all(0 <= lab < 4 for lab in result.labels)

    @pytest.mark.parametrize("n", [1, NEAREST_CHUNK - 1, NEAREST_CHUNK + 1, 3 * NEAREST_CHUNK])
    def test_blocks_match_the_oracle(self, n):
        rng = np.random.default_rng([18, n])
        model = ClusterModel(centers=rng.normal(size=(9, 4)), inertia=0.0)
        data = rng.normal(size=(n, 4))
        for rho in (0.5, 0.9, 1.0):
            items = assign_and_filter_oracle(model.centers, data, rho)
            assert _lists(assign_and_filter(model, data, rho)) == [list(pair) for pair in items]

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        data = np.array([[1.0], [bad], [9.0]])
        with pytest.raises(ValidationError, match="assign_and_filter input contains non-finite"):
            assign_and_filter(self._line_model(), data, rho=0.9)
