import numpy as np
import pytest

from wret.encoder import (
    MODES,
    Backbone,
    Codebook,
    Layer,
    backbone_forward,
    encode_patch,
    encode_patches,
    encode_vlad_hard,
    flatten_encoding,
    init_backbone,
    init_codebook,
    soft_assign,
)
from wret.errors import ValidationError


def _identity_backbone(dim: int) -> Backbone:
    return Backbone(layers=(Layer(weight=np.eye(dim), bias=np.zeros(dim), activation="identity"),))


class TestBackbone:
    def test_identity_backbone(self):
        d = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(backbone_forward(_identity_backbone(3), d), d)

    def test_relu_kills_negated_positives(self):
        layer = Layer(weight=-np.eye(3), bias=np.zeros(3), activation="relu")
        out = backbone_forward(Backbone(layers=(layer,)), np.array([1.0, 2.0, 0.5]))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_two_layer_matrix_product_oracle(self):
        w1 = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 1.0]])
        b1 = np.array([0.5, 1.0, -2.0])
        w2 = np.array([[1.0, -1.0, 2.0], [0.0, 1.0, 1.0]])
        b2 = np.array([0.0, -0.5])
        bb = Backbone(
            layers=(
                Layer(weight=w1, bias=b1, activation="relu"),
                Layer(weight=w2, bias=b2, activation="identity"),
            )
        )
        x = np.array([1.0, -1.0])
        # Hand oracle: explicit affine + relu chain.
        h1 = np.maximum(w1 @ x + b1, 0.0)
        expected = w2 @ h1 + b2
        np.testing.assert_allclose(backbone_forward(bb, x), expected, atol=1e-9)

    def test_batch_matches_per_row(self):
        bb = init_backbone((4, 6, 5), seed=7)
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(8, 4))
        out = backbone_forward(bb, batch)
        for i in range(8):
            # BLAS may differ by 1 ulp between matrix and vector paths.
            np.testing.assert_allclose(out[i], backbone_forward(bb, batch[i]), rtol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            backbone_forward(_identity_backbone(3), np.zeros(4))

    def test_non_chaining_layers_rejected(self):
        with pytest.raises(ValidationError):
            Backbone(
                layers=(
                    Layer(weight=np.zeros((3, 2)), bias=np.zeros(3)),
                    Layer(weight=np.zeros((2, 4)), bias=np.zeros(2)),
                )
            )

    def test_init_backbone_deterministic(self):
        a = init_backbone((4, 5), seed=3)
        b = init_backbone((4, 5), seed=3)
        assert np.array_equal(a.layers[0].weight, b.layers[0].weight)


def _simple_codebook(mode: str = "netrvlad") -> Codebook:
    return Codebook(
        centers=np.array([[0.0, 0.0], [1.0, 1.0]]),
        weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
        bias=np.array([0.0, 0.0]),
        mode=mode,
    )


class TestSoftAssign:
    def test_zero_weights_give_uniform(self):
        cb = Codebook(
            centers=np.zeros((4, 3)),
            weights=np.zeros((4, 3)),
            bias=np.zeros(4),
            mode="netrvlad",
        )
        out = soft_assign(cb, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, np.full(4, 0.25), atol=1e-15)

    def test_single_cluster(self):
        cb = Codebook(
            centers=np.zeros((1, 2)), weights=np.ones((1, 2)), bias=np.zeros(1), mode="netrvlad"
        )
        np.testing.assert_array_equal(soft_assign(cb, np.array([3.0, -1.0])), [1.0])

    def test_scalar_softmax_oracle(self):
        # Logits [1, 0]: softmax = [e/(e+1), 1/(e+1)].
        cb = Codebook(
            centers=np.zeros((2, 1)),
            weights=np.array([[1.0], [0.0]]),
            bias=np.zeros(2),
            mode="netrvlad",
        )
        out = soft_assign(cb, np.array([1.0]))
        e = np.e
        np.testing.assert_allclose(out, [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(1)
        cb = Codebook(
            centers=rng.normal(size=(5, 4)),
            weights=rng.normal(size=(5, 4)),
            bias=rng.normal(size=5),
            mode="netrvlad",
        )
        x = rng.normal(size=4)
        alpha = soft_assign(cb, x)
        assert abs(alpha.sum() - 1.0) < 1e-12
        shifted = Codebook(
            centers=cb.centers, weights=cb.weights, bias=cb.bias + 137.5, mode=cb.mode
        )
        alpha2 = soft_assign(shifted, x)
        assert np.argmax(alpha) == np.argmax(alpha2)
        np.testing.assert_allclose(alpha, alpha2, atol=1e-9)

    def test_large_logits_do_not_overflow(self):
        cb = Codebook(
            centers=np.zeros((2, 1)),
            weights=np.array([[1e6], [-1e6]]),
            bias=np.zeros(2),
            mode="netrvlad",
        )
        out = soft_assign(cb, np.array([1.0]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


class TestEncodePatch:
    def test_single_cluster_residual(self):
        cb = Codebook(
            centers=np.array([[0.5, -0.5]]),
            weights=np.zeros((1, 2)),
            bias=np.zeros(1),
            mode="netrvlad",
        )
        x = np.array([2.0, 1.0])
        np.testing.assert_allclose(encode_patch(cb, x), [[1.5, 1.5]], atol=1e-12)

    def test_one_hot_assignment_at_center(self):
        # Distinct centers with a huge logit gap: row at own center ~ 0, others ~ 0.
        centers = np.array([[0.0, 0.0], [10.0, 0.0]])
        tau = 1e4
        cb = Codebook(
            centers=centers,
            weights=2 * tau * centers,
            bias=-tau * np.sum(centers**2, axis=1),
            mode="netrvlad",
        )
        v = encode_patch(cb, centers[0])
        assert np.max(np.abs(v)) < 1e-9

    def test_netrvlad_hand_oracle(self):
        cb = _simple_codebook()
        x = np.array([0.5, 2.0])
        alpha = soft_assign(cb, x)
        expected = np.array([alpha[0] * (x - cb.centers[0]), alpha[1] * (x - cb.centers[1])])
        np.testing.assert_allclose(encode_patch(cb, x), expected, atol=1e-9)

    def test_netrvlad_no_hidden_normalization(self):
        cb = Codebook(
            centers=np.array([[1.0, 0.0], [0.0, 1.0]]),
            weights=np.zeros((2, 2)),
            bias=np.zeros(2),
            mode="netrvlad",
        )
        x = np.array([2.0, 3.0])
        v1 = encode_patch(cb, x)
        v2 = encode_patch(cb, 2 * x)
        # Zero weights: alpha is constant 1/2, so rows are plain scaled residuals.
        np.testing.assert_allclose(v2, 0.5 * (2 * x[None, :] - cb.centers), atol=1e-12)
        np.testing.assert_allclose(v2 - v1, np.tile(0.5 * x, (2, 1)), atol=1e-12)

    def test_netvlad_prenorm_and_intranorm(self):
        cb = _simple_codebook(mode="netvlad")
        x = np.array([3.0, 4.0])
        v = encode_patch(cb, x)
        xhat = x / 5.0
        alpha = soft_assign(cb, xhat)
        for k in range(2):
            raw = alpha[k] * (xhat - cb.centers[k])
            np.testing.assert_allclose(v[k], raw / np.linalg.norm(raw), atol=1e-12)
            assert abs(np.linalg.norm(v[k]) - 1.0) < 1e-12

    def test_netvlad_rejects_zero_vector(self):
        with pytest.raises(ValidationError):
            encode_patch(_simple_codebook(mode="netvlad"), np.zeros(2))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(6, 2))
        for mode in MODES:
            cb = _simple_codebook(mode)
            stack = encode_patches(cb, xs)
            for i in range(6):
                np.testing.assert_array_equal(stack[i], encode_patch(cb, xs[i]))
            # The cached variant runs the same forward pass.
            np.testing.assert_array_equal(encode_patches(cb, xs, return_cache=True)[0], stack)


class TestHardVlad:
    def test_descriptor_at_center_zero_encoding(self):
        centers = np.array([[1.0, 2.0], [5.0, 5.0]])
        v = encode_vlad_hard(centers, np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(v, np.zeros((2, 2)))

    def test_two_descriptors_same_center(self):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        xs = np.array([[9.0, 10.0], [11.0, 10.0]])
        # Brute-force oracle: both nearest to center 1, residuals sum to 0.
        v = encode_vlad_hard(centers, xs)
        np.testing.assert_array_equal(v[0], [0.0, 0.0])
        np.testing.assert_allclose(v[1], (xs[0] - centers[1]) + (xs[1] - centers[1]), atol=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        centers = np.array([[0.0], [10.0]])
        v = encode_vlad_hard(centers, np.array([[5.0]]))
        np.testing.assert_array_equal(v, [[5.0], [0.0]])

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            encode_vlad_hard(np.zeros((2, 3)), np.zeros((0, 3)))

    def test_random_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        centers = rng.normal(size=(4, 3))
        xs = rng.normal(size=(20, 3))
        expected = np.zeros((4, 3))
        for x in xs:
            dists = [float(np.linalg.norm(x - c)) for c in centers]
            k = int(np.argmin(dists))
            expected[k] += x - centers[k]
        np.testing.assert_allclose(encode_vlad_hard(centers, xs), expected, atol=1e-9)


class TestFlattening:
    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(3, 5))
        flat = flatten_encoding(v)
        assert flat.shape == (15,)
        # Row-major: first 5 entries are cluster 0's row.
        np.testing.assert_array_equal(flat[:5], v[0])

    def test_stack_flattening(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(4, 3, 5))
        flat = flatten_encoding(stack)
        assert flat.shape == (4, 15)
        np.testing.assert_array_equal(flat[2], flatten_encoding(stack[2]))


class TestInitCodebook:
    def test_netrvlad_deterministic(self):
        a = init_codebook("netrvlad", 8, 32, seed=11)
        b = init_codebook("netrvlad", 8, 32, seed=11)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_netrvlad_sanity(self):
        cb = init_codebook("netrvlad", 8, 32, seed=1)
        assert np.isfinite(cb.centers).all()
        assert len({tuple(row) for row in cb.centers}) == 8
        assert np.all(np.abs(cb.centers) <= 1.0 / np.sqrt(32))
        np.testing.assert_array_equal(cb.bias, np.zeros(8))

    def test_netvlad_requires_sample_and_alpha(self):
        with pytest.raises(ValidationError):
            init_codebook("netvlad", 2, 2, seed=0)
        with pytest.raises(ValidationError):
            init_codebook("netvlad", 2, 2, seed=0, data_sample=np.eye(2), alpha_init=0.5)

    def test_netvlad_alpha_ratio_property(self):
        # Two tight blobs; soft-assignment ratio at the blob centers ~ alpha_init.
        rng = np.random.default_rng(6)
        blob_a = np.array([0.0, 0.0]) + 0.01 * rng.normal(size=(40, 2))
        blob_b = np.array([4.0, 0.0]) + 0.01 * rng.normal(size=(40, 2))
        sample = np.vstack([blob_a, blob_b])
        cb = init_codebook("netvlad", 2, 2, seed=0, data_sample=sample, alpha_init=100.0)
        for point in (cb.centers[0], cb.centers[1]):
            alpha = np.sort(soft_assign(cb, point))[::-1]
            ratio = alpha[0] / alpha[1]
            assert abs(ratio - 100.0) <= 10.0  # within 10%

    def test_limiting_equivalence_to_hard_vlad(self):
        rng = np.random.default_rng(7)
        centers = rng.normal(size=(3, 4))
        xs = rng.normal(size=(15, 4))
        tau = 1e4
        cb = Codebook(
            centers=centers,
            weights=2 * tau * centers,
            bias=-tau * np.sum(centers**2, axis=1),
            mode="netrvlad",
        )
        soft_sum = encode_patches(cb, xs).sum(axis=0)
        hard = encode_vlad_hard(centers, xs)
        assert np.max(np.abs(soft_sum - hard)) < 1e-3
