import re

import numpy as np
import pytest
from helpers import traced_peak

from wret.aggregation import pool_page
from wret.encoder import (
    Backbone,
    Codebook,
    Layer,
    TINY_SQNORM,
    _weighted_residuals,
    backbone_forward,
    encode_flat,
    encode_patches,
    encode_vlad_hard,
    encoding_gram,
    flatten_encoding,
    init_backbone,
    init_codebook,
    pool_patches,
    soft_assign,
)
from wret.errors import ValidationError


def _identity_backbone(dim: int) -> Backbone:
    return Backbone(layers=(Layer(weight=np.eye(dim), bias=np.zeros(dim), activation="identity"),))


class TestBackbone:
    def test_identity_backbone(self):
        d = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(backbone_forward(_identity_backbone(3), d), d)

    def test_relu_kills_negated_positives(self):
        layer = Layer(weight=-np.eye(3), bias=np.zeros(3), activation="relu")
        out = backbone_forward(Backbone(layers=(layer,)), np.array([[1.0, 2.0, 0.5]]))
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

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
        np.testing.assert_allclose(backbone_forward(bb, x[None, :])[0], expected, atol=1e-9)

    def test_batch_matches_per_row(self):
        bb = init_backbone((4, 6, 5), seed=7)
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(8, 4))
        out = backbone_forward(bb, batch)
        for i in range(8):
            # BLAS may differ by 1 ulp between the batch and a one-row product.
            row = backbone_forward(bb, batch[i : i + 1])[0]
            np.testing.assert_allclose(out[i], row, rtol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            backbone_forward(_identity_backbone(3), np.zeros((1, 4)))

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


def _simple_codebook() -> Codebook:
    return Codebook(
        centers=np.array([[0.0, 0.0], [1.0, 1.0]]),
        weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
        bias=np.array([0.0, 0.0]),
    )


class TestSoftAssign:
    def test_zero_weights_give_uniform(self):
        cb = Codebook(
            centers=np.zeros((4, 3)),
            weights=np.zeros((4, 3)),
            bias=np.zeros(4),
            mode="netrvlad",
        )
        out = soft_assign(cb, np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, np.full((1, 4), 0.25), atol=1e-15)

    def test_single_cluster(self):
        cb = Codebook(
            centers=np.zeros((1, 2)), weights=np.ones((1, 2)), bias=np.zeros(1), mode="netrvlad"
        )
        np.testing.assert_array_equal(soft_assign(cb, np.array([[3.0, -1.0]])), [[1.0]])

    def test_scalar_softmax_oracle(self):
        # Logits [1, 0]: softmax = [e/(e+1), 1/(e+1)].
        cb = Codebook(
            centers=np.zeros((2, 1)),
            weights=np.array([[1.0], [0.0]]),
            bias=np.zeros(2),
            mode="netrvlad",
        )
        out = soft_assign(cb, np.array([[1.0]]))
        e = np.e
        np.testing.assert_allclose(out, [[e / (e + 1), 1 / (e + 1)]], atol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(1)
        cb = Codebook(
            centers=rng.normal(size=(5, 4)),
            weights=rng.normal(size=(5, 4)),
            bias=rng.normal(size=5),
            mode="netrvlad",
        )
        x = rng.normal(size=(1, 4))
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
        out = soft_assign(cb, np.array([[1.0]]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)


class TestEncodePatch:
    def test_single_cluster_residual(self):
        cb = Codebook(
            centers=np.array([[0.5, -0.5]]),
            weights=np.zeros((1, 2)),
            bias=np.zeros(1),
            mode="netrvlad",
        )
        x = np.array([[2.0, 1.0]])
        np.testing.assert_allclose(encode_patches(cb, x)[0], [[1.5, 1.5]], atol=1e-12)

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
        v = encode_patches(cb, centers[:1])[0]
        assert np.max(np.abs(v)) < 1e-9

    def test_netrvlad_hand_oracle(self):
        cb = _simple_codebook()
        x = np.array([0.5, 2.0])
        alpha = soft_assign(cb, x[None, :])[0]
        expected = np.array([alpha[0] * (x - cb.centers[0]), alpha[1] * (x - cb.centers[1])])
        np.testing.assert_allclose(encode_patches(cb, x[None, :])[0], expected, atol=1e-9)

    def test_netrvlad_no_hidden_normalization(self):
        cb = Codebook(
            centers=np.array([[1.0, 0.0], [0.0, 1.0]]),
            weights=np.zeros((2, 2)),
            bias=np.zeros(2),
            mode="netrvlad",
        )
        x = np.array([2.0, 3.0])
        v1 = encode_patches(cb, x[None, :])[0]
        v2 = encode_patches(cb, 2 * x[None, :])[0]
        # Zero weights: alpha is constant 1/2, so rows are plain scaled residuals.
        np.testing.assert_allclose(v2, 0.5 * (2 * x[None, :] - cb.centers), atol=1e-12)
        np.testing.assert_allclose(v2 - v1, np.tile(0.5 * x, (2, 1)), atol=1e-12)

    def test_zero_vector_is_encoded(self):
        # no prenormalization: a zero input is assigned by the bias alone
        cb = Codebook(
            centers=np.array([[0.5, -0.5], [1.0, 2.0]]),
            weights=np.ones((2, 2)),
            bias=np.array([0.0, np.log(3.0)]),
        )
        v = encode_patches(cb, np.zeros((1, 2)))[0]
        np.testing.assert_allclose(v, -np.array([[0.25], [0.75]]) * cb.centers, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(6, 2))
        cb = _simple_codebook()
        stack = encode_patches(cb, xs)
        for i in range(6):
            np.testing.assert_array_equal(stack[i], encode_patches(cb, xs[i : i + 1])[0])
        # The cached variant runs the same forward pass.
        np.testing.assert_array_equal(encode_patches(cb, xs, return_cache=True)[0], stack)


def _pool_oracle(cb: Codebook, xs: np.ndarray) -> np.ndarray:
    """The generic composition pool_patches stands in for."""
    return pool_page(flatten_encoding(encode_patches(cb, xs)))


def _assert_pools_alike(cb: Codebook, xs: np.ndarray) -> bool:
    """pool_patches matches the oracle to 1e-12 of the oracle's largest
    entry, or raises the oracle's ValidationError; True if it compared."""
    try:
        ref = _pool_oracle(cb, xs)
    except ValidationError as err:
        with pytest.raises(ValidationError, match=re.escape(str(err))):
            pool_patches(cb, xs)
        return False
    got = pool_patches(cb, xs)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    return True


def _random_page(rng, placed: str, k: int | None = None, n: int | None = None):
    """A random codebook and page at a scale from 1e-3 to 1e3. `placed`
    puts the first patches on a center ("equal"), within 1e-9 of one
    ("near") or at a distance from 1e-8 to 1 from one ("close"), relative
    to the scale."""
    k = int(rng.integers(1, 9)) if k is None else k
    n = int(rng.integers(1, 41)) if n is None else n
    dim = int(rng.integers(2, 33))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    centers = rng.normal(size=(k, dim)) * scale
    weights = rng.normal(size=(k, dim)) * 10.0 ** rng.uniform(-1.0, 1.0) / scale
    cb = Codebook(centers=centers, weights=weights, bias=rng.normal(size=k))
    xs = rng.normal(size=(n, dim)) * scale
    m = int(rng.integers(1, n + 1))
    if placed != "none":
        on = centers[rng.integers(0, k, size=m)]
        if placed != "equal":
            offset = rng.normal(size=on.shape)
            offset /= np.linalg.norm(offset, axis=1, keepdims=True)
            size = 1e-9 if placed == "near" else 10.0 ** rng.uniform(-8.0, 0.0, size=(m, 1))
            on = on + offset * size * scale
        xs[:m] = on
    return cb, xs


PLACED = ("none", "equal", "near", "close")


class TestPoolPatches:
    @pytest.mark.parametrize("placed", PLACED)
    def test_matches_stack_oracle(self, placed):
        rng = np.random.default_rng([1, PLACED.index(placed)])
        shapes = [(1, 1), (1, None), (None, 1)] + [(None, None)] * 97
        compared = sum(_assert_pools_alike(*_random_page(rng, placed, k, n)) for k, n in shapes)
        assert compared >= 80

    def test_rows_whose_norm_underflows_match_the_stack(self):
        # Sharp assignments put some a_ik (x_i - c_k) below TINY_SQNORM in
        # squared norm, so those pairs are formed from the difference.
        rng = np.random.default_rng(5)
        tiny = 0
        for _ in range(40):
            centers = rng.normal(size=(6, 8))
            centers /= np.linalg.norm(centers, axis=1, keepdims=True)
            tau = 10.0 ** rng.uniform(2.5, 3.5)
            cb = Codebook(centers=centers, weights=2 * tau * centers, bias=-tau * np.ones(6))
            xs = rng.normal(size=(20, 8))
            _, cache = encode_patches(cb, xs, return_cache=True)
            sqnorm = cache["alpha"] ** 2 * np.sum(cache["resid"] ** 2, axis=2)
            tiny += int(np.sum((cache["alpha"] > 0.0) & (sqnorm < TINY_SQNORM)))
            _assert_pools_alike(cb, xs)
        assert tiny > 0

    def test_patch_on_its_only_center_is_an_all_zero_encoding(self):
        cb = Codebook(centers=np.array([[0.6, 0.8]]), weights=np.ones((1, 2)), bias=np.zeros(1))
        xs = np.array([[0.3, -0.2], [0.6, 0.8]])
        with pytest.raises(ValidationError, match="patch 1 has an all-zero encoding"):
            pool_patches(cb, xs)

    def test_row_order_does_not_matter(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            cb, xs = _random_page(rng, "none")
            pooled = pool_patches(cb, xs)
            shuffled = pool_patches(cb, xs[rng.permutation(len(xs))])
            assert np.max(np.abs(shuffled - pooled)) <= 1e-12 * np.max(np.abs(pooled))

    def test_empty_page_rejected(self):
        with pytest.raises(ValidationError, match="at least one patch"):
            pool_patches(_simple_codebook(), np.zeros((0, 2)))


def _assert_grams_alike(cb: Codebook, xs: np.ndarray) -> None:
    """encoding_gram through an identity backbone matches f f^T of the
    flat encodings f to 1e-12 |f_i| |f_j| in every entry."""
    bb = _identity_backbone(cb.dim)
    f = encode_flat(bb, cb, xs)
    got = encoding_gram(bb, cb, xs)
    norms = np.linalg.norm(f, axis=1)
    assert got.shape == (len(xs), len(xs))
    assert np.all(np.abs(got - f @ f.T) <= 1e-12 * np.outer(norms, norms))


class TestEncodingGram:
    @pytest.mark.parametrize("placed", PLACED)
    def test_matches_flat_product(self, placed):
        rng = np.random.default_rng([7, 1, PLACED.index(placed)])
        shapes = [(1, 1), (1, None), (None, 1)] + [(None, None)] * 97
        for k, n in shapes:
            cb, xs = _random_page(rng, placed, k, n)
            _assert_grams_alike(cb, xs)
            _assert_grams_alike(cb, xs[rng.integers(0, len(xs), size=len(xs) + 3)])  # duplicates

    def test_holds_two_pool_sized_arrays(self):
        """tracemalloc peak above the inputs: the Gram and one (n, n)
        temporary, with no row formed from the difference."""
        n = 400
        bb = init_backbone((8, 16), seed=0)
        cb = init_codebook(4, 16, seed=1)
        xs = np.random.default_rng(15).normal(size=(n, 8))
        assert len(_weighted_residuals(cb, backbone_forward(bb, xs))[2]) == 0
        assert traced_peak(lambda: encoding_gram(bb, cb, xs)) < 2.5 * n * n * 8

    def test_patch_on_a_center_and_next_to_it(self):
        cb = Codebook(
            centers=np.array([[0.6, 0.8], [-0.8, 0.6]]), weights=np.ones((2, 2)), bias=np.zeros(2)
        )
        xs = np.array([[0.6, 0.8], [0.6 + 1e-9, 0.8], [0.3, -0.2], [0.6, 0.8 - 1e-9]])
        _assert_grams_alike(cb, xs)
        # n = 1: a patch on its only center has an all-zero encoding.
        one = Codebook(centers=cb.centers[:1], weights=cb.weights[:1], bias=cb.bias[:1])
        np.testing.assert_array_equal(
            encoding_gram(_identity_backbone(2), one, xs[:1]), np.zeros((1, 1))
        )
        _assert_grams_alike(one, xs[1:2])

    def test_underflowing_rows(self):
        # Sharp assignments put some a_ik (x_i - c_k) below TINY_SQNORM in
        # squared norm, so those pairs are formed from the difference.
        rng = np.random.default_rng(11)
        tiny = 0
        for _ in range(40):
            centers = rng.normal(size=(6, 8))
            centers /= np.linalg.norm(centers, axis=1, keepdims=True)
            tau = 10.0 ** rng.uniform(2.5, 3.5)
            cb = Codebook(centers=centers, weights=2 * tau * centers, bias=-tau * np.ones(6))
            xs = rng.normal(size=(20, 8))
            _, cache = encode_patches(cb, xs, return_cache=True)
            sqnorm = cache["alpha"] ** 2 * np.sum(cache["resid"] ** 2, axis=2)
            tiny += int(np.sum((cache["alpha"] > 0.0) & (sqnorm < TINY_SQNORM)))
            _assert_grams_alike(cb, xs)
        assert tiny > 0


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
    def test_row_major_over_clusters(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=(1, 3, 5))
        flat = flatten_encoding(v)
        assert flat.shape == (1, 15)
        # Row-major: first 5 entries are cluster 0's row.
        np.testing.assert_array_equal(flat[0, :5], v[0, 0])

    def test_stack_flattening(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(4, 3, 5))
        flat = flatten_encoding(stack)
        assert flat.shape == (4, 15)
        np.testing.assert_array_equal(flat[2], np.concatenate(stack[2]))

    def test_single_encoding_matrix_rejected(self):
        with pytest.raises(ValidationError, match="ndim 2"):
            flatten_encoding(np.zeros((3, 5)))


class TestOneRowIsAMatrix:
    """A lone descriptor is a (1, d) matrix; a 1-d vector is refused."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: backbone_forward(_identity_backbone(2), x),
            lambda x: soft_assign(_simple_codebook(), x),
            lambda x: encode_patches(_simple_codebook(), x),
            lambda x: pool_patches(_simple_codebook(), x),
            lambda x: encoding_gram(_identity_backbone(2), _simple_codebook(), x),
            lambda x: encode_vlad_hard(_simple_codebook().centers, x),
        ],
        ids=[
            "backbone_forward",
            "soft_assign",
            "encode_patches",
            "pool_patches",
            "encoding_gram",
            "encode_vlad_hard",
        ],
    )
    def test_vector_rejected_one_row_accepted(self, call):
        x = np.array([0.5, 2.0])
        with pytest.raises(ValidationError, match=r"\(n, 2\) matrix, got shape \(2,\)"):
            call(x)
        assert len(call(x[None, :])) >= 1


class TestInitCodebook:
    def test_netrvlad_deterministic(self):
        a = init_codebook(8, 32, seed=11)
        b = init_codebook(8, 32, seed=11)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_netrvlad_sanity(self):
        cb = init_codebook(8, 32, seed=1)
        assert np.isfinite(cb.centers).all()
        assert len({tuple(row) for row in cb.centers}) == 8
        assert np.all(np.abs(cb.centers) <= 1.0 / np.sqrt(32))
        np.testing.assert_array_equal(cb.bias, np.zeros(8))

    @pytest.mark.parametrize("n_clusters, dim", [(0, 4), (4, 0)])
    def test_rejects_empty_sizes(self, n_clusters, dim):
        with pytest.raises(ValidationError, match="must be positive"):
            init_codebook(n_clusters, dim, seed=0)

    @pytest.mark.parametrize("mode", ["netvlad", "bogus"])
    def test_codebook_of_another_mode_is_refused(self, mode):
        cb = init_codebook(2, 2, seed=0)
        with pytest.raises(ValidationError, match=f"unknown codebook mode '{mode}'"):
            Codebook(centers=cb.centers, weights=cb.weights, bias=cb.bias, mode=mode)

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
