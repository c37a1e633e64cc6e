import numpy as np
import pytest

from wret.aggregation import (
    PageEmbedding,
    aggregate_pages,
    pool_page,
    power_normalize,
    whiten_pages,
)
from wret.errors import ValidationError


class TestPoolPage:
    def test_singleton_is_unit_vector(self):
        e = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(pool_page(e), [0.6, 0.8], atol=1e-15)

    def test_two_identical_encodings(self):
        e = np.array([[3.0, 4.0], [3.0, 4.0]])
        np.testing.assert_allclose(pool_page(e), [1.2, 1.6], atol=1e-15)

    def test_opposite_encodings_cancel(self):
        e = np.array([[1.0, 2.0], [-1.0, -2.0]])
        np.testing.assert_allclose(pool_page(e), [0.0, 0.0], atol=1e-15)

    def test_zero_encoding_rejected_naming_patch(self):
        e = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="patch 1"):
            pool_page(e)

    def test_empty_page_rejected(self):
        with pytest.raises(ValidationError):
            pool_page(np.zeros((0, 4)))

    def test_scaling_one_patch_changes_nothing(self):
        rng = np.random.default_rng(0)
        e = rng.normal(size=(5, 6))
        scaled = e.copy()
        scaled[2] *= 37.5
        np.testing.assert_allclose(pool_page(scaled), pool_page(e), atol=1e-12)

    @pytest.mark.parametrize(
        "shape", [(1, 5), (7, 3), (3, 1), (200, 1024), (1000, 1024), (5000, 64), (300, 2)]
    )
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sum_is_the_row_loop_bitwise(self, shape, order):
        rng = np.random.default_rng(shape[0] * shape[1])
        e = np.asarray(rng.normal(size=shape), order=order)
        total = np.zeros(shape[1])
        for row in e / np.linalg.norm(e, axis=1)[:, None]:
            total += row
        assert pool_page(e).tobytes() == total.tobytes()


class TestPowerNormalize:
    def test_alpha_one_is_plain_l2(self):
        v = np.array([3.0, -4.0])
        np.testing.assert_allclose(power_normalize(v, 1.0), [0.6, -0.8], atol=1e-15)

    def test_closed_form_component(self):
        # 32^0.4 = 2^2 = 4; check the pre-l2 value via a 1-component vector,
        # where l2 normalization only keeps the sign.
        v = np.array([-32.0, 0.0])
        out = power_normalize(v, 0.4)
        np.testing.assert_allclose(out, [-1.0, 0.0], atol=1e-15)
        # Two equal components expose the powered magnitude ratio directly.
        pair = power_normalize(np.array([-32.0, 32.0]), 0.4)
        np.testing.assert_allclose(np.abs(pair), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(power_normalize(np.zeros(3), 0.4), np.zeros(3))

    def test_odd_function(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=8)
        np.testing.assert_allclose(
            power_normalize(-v, 0.4), -power_normalize(v, 0.4), atol=1e-12
        )

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError):
            power_normalize(np.ones(2), 0.0)
        with pytest.raises(ValidationError):
            power_normalize(np.ones(2), 1.5)


class TestWhitenPages:
    def test_unit_norms_and_unit_variance(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(40, 10)) @ rng.normal(size=(10, 10))
        pages, model = whiten_pages(raw, target_dim=6)
        vectors = np.array([p.vector for p in pages])
        assert np.all(np.abs(np.linalg.norm(vectors, axis=1) - 1.0) <= 1e-9)
        # Pre-normalization transform has unit variance per component.
        from wret.features import pca_transform

        transformed = pca_transform(model, raw)
        var = transformed.var(axis=0, ddof=1)
        assert np.all(np.abs(var - 1.0) <= 1e-6)

    def test_three_pages_plane_exact(self):
        raw = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        pages, model = whiten_pages(raw, target_dim=2)
        assert len(pages) == 3
        # Rank-2 data in 3-D reconstructs exactly from 2 components.
        from wret.features import pca_transform

        t = pca_transform(model, raw)
        recon = (t / model.scale) @ model.basis + model.mean
        np.testing.assert_allclose(recon, raw, atol=1e-9)

    def test_components_match_eigendecomposition_oracle(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(60, 5))
        _, model = whiten_pages(raw, target_dim=3)
        centered = raw - raw.mean(axis=0)
        cov = centered.T @ centered / (len(raw) - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        top = eigvecs[:, ::-1][:, :3]  # descending eigenvalue order
        for i in range(3):
            cos = abs(float(model.basis[i] @ top[:, i]))
            assert cos == pytest.approx(1.0, abs=1e-6)

    def test_target_dim_too_large(self):
        with pytest.raises(ValidationError):
            whiten_pages(np.eye(4), target_dim=4)

    def test_too_few_pages(self):
        with pytest.raises(ValidationError):
            whiten_pages(np.zeros((2, 3)), target_dim=1)

    def test_prefit_model_is_applied(self):
        rng = np.random.default_rng(5)
        train_raw = rng.normal(size=(30, 6))
        _, model = whiten_pages(train_raw, target_dim=4)
        test_raw = rng.normal(size=(10, 6))
        pages, model_back = whiten_pages(test_raw, target_dim=4, pca=model)
        assert model_back is model
        vectors = np.array([p.vector for p in pages])
        assert np.all(np.abs(np.linalg.norm(vectors, axis=1) - 1.0) <= 1e-9)


class TestAggregatePages:
    def test_full_pipeline_unit_norm(self):
        rng = np.random.default_rng(6)
        pages = [rng.normal(size=(rng.integers(5, 20), 12)) for _ in range(15)]
        ids = [f"p{i}" for i in range(15)]
        writers = [f"w{i % 5}" for i in range(15)]
        embeddings, _ = aggregate_pages(pages, ids, writers, target_dim=8)
        for emb in embeddings:
            assert abs(np.linalg.norm(emb.vector) - 1.0) <= 1e-9
        assert [e.page_id for e in embeddings] == ids
        assert [e.writer_id for e in embeddings] == writers

    def test_parallel_list_validation(self):
        with pytest.raises(ValidationError):
            aggregate_pages([np.ones((2, 3))], ["a", "b"], ["w"], target_dim=1)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_pages([], [], [], target_dim=1)


class TestPageEmbedding:
    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            PageEmbedding(page_id="p", writer_id="w", vector=np.array([np.inf, 0.0]))
