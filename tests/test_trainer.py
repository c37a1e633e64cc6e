import numpy as np
import pytest
from helpers import (
    backward_oracle,
    epoch_batches_oracle,
    max_relative_fd_error,
    mine_oracle,
    named_param_arrays,
    random_gradcheck_config,
    rebuild_with,
    stratified_split_oracle,
    traced_peak,
    triplet_objective,
)

from wret import trainer
from wret.encoder import (
    Backbone,
    Codebook,
    Layer,
    encode_flat,
    encoding_gram,
    init_backbone,
    init_codebook,
)
from wret.errors import ValidationError
from wret.features import PseudoLabeledSet
from wret.seeds import derive_seed
from wret.trainer import (
    TrainConfig,
    TripletBatch,
    _epoch_batches,
    _pool_retrieval_map,
    _stratified_split,
    backward,
    learning_rate,
    mine_hard_triplets,
    train,
)


class TestMining:
    def test_well_separated_emits_nothing(self):
        # Same-label pair at distance 0, negative far away: d_an > d_ap - m.
        enc = np.array([[0.0], [0.0], [10.0]])
        labels = np.array([0, 0, 1])
        assert mine_hard_triplets(enc @ enc.T, labels, 0.1) == ()

    def test_admission_scalar_check(self):
        # d_ap = 1.0, d_an = 0.5, m = 0.1: 0.5 < 0.9, so both anchors emit.
        enc = np.array([[0.0], [1.0], [0.5]])
        labels = np.array([0, 0, 1])
        assert mine_hard_triplets(enc @ enc.T, labels, 0.1) == ((0, 1, 2), (1, 0, 2))

    def test_single_label_empty(self):
        enc = np.array([[0.0], [1.0], [2.0]])
        assert mine_hard_triplets(enc @ enc.T, np.array([0, 0, 0]), 0.1) == ()

    def test_ties_pick_lowest_index(self):
        # Two positives at equal distance from the anchor, two equal negatives.
        enc = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.1], [0.0, -0.1]])
        labels = np.array([0, 0, 0, 1, 1])
        trips = mine_hard_triplets(enc @ enc.T, labels, 0.1)
        anchor0 = [t for t in trips if t[0] == 0]
        assert anchor0 == [(0, 1, 3)]

    def test_anchors_ascend(self):
        rng = np.random.default_rng(0)
        enc = rng.normal(size=(12, 4))
        labels = np.repeat([0, 1, 2], 4)
        # a margin this negative admits every anchor: d_an < d_ap + 100
        trips = mine_hard_triplets(enc @ enc.T, labels, -100.0)
        anchors = [a for a, _, _ in trips]
        assert anchors == sorted(anchors)
        assert len(trips) == 12

    def test_matches_per_anchor_loop(self):
        rng = np.random.default_rng(5)
        for trial in range(200):
            n = int(rng.integers(1, 24))
            # Rounded encodings make distance ties common.
            enc = np.round(rng.normal(size=(n, 3)), int(rng.integers(0, 2)))
            labels = rng.integers(int(rng.integers(1, 6)), size=n)
            m = float(rng.choice([0.1, 0.5, 1.5]))
            got = mine_hard_triplets(enc @ enc.T, labels, m)
            assert got == mine_oracle(enc @ enc.T, labels, m), trial

    def test_singletons_and_one_class_match_per_anchor_loop(self):
        rng = np.random.default_rng(6)
        enc = np.round(rng.normal(size=(10, 2)), 1)
        mixed = np.array([0, 0, 1, 2, 2, 3, 4, 4, 4, 5])
        for labels in (np.arange(10), np.zeros(10, dtype=int), mixed):
            for m in (0.05, 5.0):
                got = mine_hard_triplets(enc @ enc.T, labels, m)
                assert got == mine_oracle(enc @ enc.T, labels, m)
        assert mine_hard_triplets(enc[:0] @ enc[:0].T, np.arange(0), 0.1) == ()

    @pytest.mark.parametrize("m", [-100.0, 0.0, 0.1])
    @pytest.mark.parametrize(
        "case", ["singletons", "one_class", "two_same", "two_apart", "tied", "all_equal"]
    )
    def test_edge_cases_match_per_anchor_loop(self, case, m):
        """Anchors without a positive (singletons) or without a negative
        (one class) are never admitted, whatever the margin; equal
        distances go to the lowest index."""
        rng = np.random.default_rng(7)
        enc, labels = {
            "singletons": (rng.normal(size=(6, 3)), np.arange(6)),
            "one_class": (rng.normal(size=(6, 3)), np.full(6, 4)),
            "two_same": (rng.normal(size=(2, 3)), np.array([1, 1])),
            "two_apart": (rng.normal(size=(2, 3)), np.array([0, 1])),
            # The corners of a square: every distance is 1 or sqrt(2).
            "tied": (np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]]), np.array([0, 0, 1, 1])),
            "all_equal": (np.ones((5, 2)), np.array([0, 0, 1, 1, 2])),
        }[case]
        gram = enc @ enc.T
        assert mine_hard_triplets(gram, labels, m) == mine_oracle(gram, labels, m)

    def test_holds_the_distances_and_one_masked_copy(self):
        """At n = 400: the (n, n) distances, formed in place, one masked
        copy of them and the same-class mask (2.2 units). A temporary per
        arithmetic step or a second masked copy reaches 3."""
        n = 400
        rng = np.random.default_rng(8)
        enc = rng.normal(size=(n, 16))
        gram = enc @ enc.T
        labels = rng.integers(0, 50, size=n)
        assert traced_peak(lambda: mine_hard_triplets(gram, labels, 0.1)) < 2.5 * n * n * 8


class TestMiningOnTheGram:
    def test_same_triplets_as_the_flat_product(self):
        rng = np.random.default_rng(1)
        admitted = {1e-3: 0, 1e3: 0}
        for trial in range(30):
            bb = init_backbone((6, 12, 8), seed=trial)
            x = rng.normal(size=(int(rng.integers(2, 40)), 6))
            cb = init_codebook(4, 8, seed=trial)
            labels = rng.integers(0, int(rng.integers(1, 6)), size=len(x))
            gram = encoding_gram(bb, cb, x)
            flat = encode_flat(bb, cb, x)
            for m in admitted:
                trips = mine_hard_triplets(gram, labels, m)
                assert trips == mine_hard_triplets(flat @ flat.T, labels, m), trial
                admitted[m] += len(trips)
        assert admitted[1e-3] > 0 and admitted[1e3] == 0


def _tiny_models(seed: int = 42) -> tuple[Backbone, Codebook]:
    rng = np.random.default_rng(seed)
    backbone = Backbone(
        layers=(
            Layer(weight=rng.normal(size=(4, 3)), bias=rng.normal(size=4), activation="relu"),
            Layer(weight=rng.normal(size=(3, 4)), bias=rng.normal(size=3), activation="identity"),
        )
    )
    codebook = Codebook(
        centers=rng.normal(size=(2, 3)),
        weights=rng.normal(size=(2, 3)),
        bias=rng.normal(size=2),
    )
    return backbone, codebook


def _linear_models() -> tuple[Backbone, Codebook]:
    """Identity backbone and one zero-weight cluster at the origin: the
    encoding of an input is the input itself, so distances are exact."""
    bb = Backbone(layers=(Layer(weight=np.eye(3), bias=np.zeros(3), activation="identity"),))
    cb = Codebook(
        centers=np.zeros((1, 3)), weights=np.zeros((1, 3)), bias=np.zeros(1), mode="netrvlad"
    )
    return bb, cb


def _batch(bb, cb, inputs, labels, triplets, margin) -> TripletBatch:
    return TripletBatch(
        inputs=inputs, encodings=encode_flat(bb, cb, inputs), labels=np.asarray(labels),
        triplets=tuple(triplets), margin=margin,
    )


def _assert_matches_oracle(batch, bb, cb) -> float:
    """backward agrees with the per-triplet oracle, block by block in the
    parameter order: the loss to 1e-12 relative, every gradient entry to
    1e-12 of the gradient's largest entry. (Some blocks, e.g. a softmax
    bias, cancel to roundoff, so a bound relative to their own size would
    compare summation orders, not gradients.) Returns the loss."""
    loss, grads = backward(batch, bb, cb)
    want_loss, want = backward_oracle(batch, bb, cb)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    got = grads.named_blocks()
    assert [name for name, _ in got] == [name for name, _ in named_param_arrays(bb, cb)]
    scale = max(np.max(np.abs(arr)) for arr in want.values())
    for name, arr in got:
        assert arr.shape == want[name].shape, name
        assert np.max(np.abs(arr - want[name])) <= 1e-12 * scale, name
    return loss


class TestBackward:
    def test_all_clamped_gives_zero_gradients(self):
        # Identity backbone, zero assignment weights: encodings are linear in
        # the input, so distances are controlled directly. Positive adjacent,
        # negative far away: loss clamps to 0.
        bb = Backbone(
            layers=(Layer(weight=np.eye(3), bias=np.zeros(3), activation="identity"),)
        )
        cb = Codebook(
            centers=np.zeros((2, 3)), weights=np.zeros((2, 3)), bias=np.zeros(2),
            mode="netrvlad",
        )
        inputs = np.array([[0.0, 0, 0], [0.1, 0, 0], [9.0, 0, 0], [9.1, 0, 0]])
        flat = encode_flat(bb, cb, inputs)
        labels = np.array([0, 0, 1, 1])
        batch = TripletBatch(
            inputs=inputs, encodings=flat, labels=labels, triplets=((0, 1, 2),), margin=0.1
        )
        loss, grads = backward(batch, bb, cb)
        assert loss == 0.0
        for _, arr in grads.named_blocks():
            assert np.all(arr == 0.0)

    def test_duplicate_triplet_mean_invariance(self):
        bb, cb = _tiny_models()
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(4, 3))
        flat = encode_flat(bb, cb, inputs)
        labels = np.array([0, 0, 1, 1])
        one = TripletBatch(
            inputs=inputs, encodings=flat, labels=labels, triplets=((0, 1, 2),), margin=0.5
        )
        two = TripletBatch(
            inputs=inputs, encodings=flat, labels=labels,
            triplets=((0, 1, 2), (0, 1, 2)), margin=0.5,
        )
        loss1, g1 = backward(one, bb, cb)
        loss2, g2 = backward(two, bb, cb)
        assert loss1 == pytest.approx(loss2, rel=1e-15)
        for (_, a), (_, b) in zip(g1.named_blocks(), g2.named_blocks()):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_empty_triplets_rejected(self):
        bb, cb = _tiny_models()
        inputs = np.zeros((2, 3))
        batch = TripletBatch(
            inputs=inputs,
            encodings=np.zeros((2, 6)),
            labels=np.array([0, 1]),
            triplets=(),
            margin=0.1,
        )
        with pytest.raises(ValidationError, match="nonempty triplet list"):
            backward(batch, bb, cb)

    def test_invalid_triplet_labels_rejected(self):
        with pytest.raises(ValidationError):
            TripletBatch(
                inputs=np.zeros((2, 3)),
                encodings=np.zeros((2, 6)),
                labels=np.array([0, 1]),
                triplets=((0, 1, 1),),  # positive has a different label
                margin=0.1,
            )

    def test_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 8 and seed < 200:
            config = random_gradcheck_config(seed)
            seed += 1
            if config is None:
                continue
            bb, cb, inputs, trips, margin = config
            labels = np.array([0, 0, 0, 1, 1, 1])
            flat = encode_flat(bb, cb, inputs)
            batch = TripletBatch(
                inputs=inputs, encodings=flat, labels=labels, triplets=trips, margin=margin
            )
            loss, grads = backward(batch, bb, cb)
            assert loss == pytest.approx(
                triplet_objective(bb, cb, inputs, trips, margin), rel=1e-12
            )
            err = max_relative_fd_error(
                bb, cb, inputs, trips, margin, dict(grads.named_blocks())
            )
            assert err < 1e-4, f"seed {seed - 1}: relative error {err}"
            checked += 1
        assert checked == 8

    def test_matches_per_triplet_oracle(self):
        # random triplet lists: duplicates, clamped and active triplets,
        # positives equal to their anchor, and T = 1
        rng = np.random.default_rng(8)
        active_seen = clamped_seen = 0
        for trial in range(40):
            bb, cb = _tiny_models(seed=trial)
            n = int(rng.integers(4, 10))
            labels = np.concatenate([[0, 0, 1], rng.integers(3, size=n - 3)])
            inputs = rng.normal(size=(n, 3))
            triplets = []
            for _ in range(int(rng.integers(1, 12))):
                a = int(rng.integers(n))
                p = int(rng.choice(np.flatnonzero(labels == labels[a])))
                neg = int(rng.choice(np.flatnonzero(labels != labels[a])))
                triplets.append((a, p, neg))
            margin = float(rng.choice([0.05, 0.5, 3.0]))
            batch = _batch(bb, cb, inputs, labels, triplets, margin)
            _assert_matches_oracle(batch, bb, cb)
            flat = batch.encodings
            for a, p, neg in triplets:
                loss = np.linalg.norm(flat[a] - flat[p]) - np.linalg.norm(flat[a] - flat[neg])
                active_seen += loss + margin > 0.0
                clamped_seen += loss + margin <= 0.0
        assert active_seen and clamped_seen

    def test_single_triplet_matches_oracle(self):
        bb, cb = _tiny_models()
        inputs = np.random.default_rng(3).normal(size=(3, 3))
        batch = _batch(bb, cb, inputs, [0, 0, 1], [(0, 1, 2)], margin=10.0)
        assert _assert_matches_oracle(batch, bb, cb) > 0.0

    def test_duplicate_triplets_match_oracle(self):
        bb, cb = _tiny_models()
        inputs = np.random.default_rng(4).normal(size=(4, 3))
        triplets = [(0, 1, 2), (0, 1, 2), (1, 0, 3), (0, 1, 2)]
        batch = _batch(bb, cb, inputs, [0, 0, 1, 1], triplets, margin=10.0)
        _assert_matches_oracle(batch, bb, cb)

    def test_exactly_zero_loss_is_clamped_and_counted(self):
        # d_ap = 5 and d_an = 5.5 exactly, so (0, 1, 2) has loss 0.0 at
        # margin 0.5; (1, 0, 3) has d_ap 5, d_an 0.5 and stays active
        bb, cb = _linear_models()
        inputs = np.array([[0.0, 0, 0], [3.0, 4, 0], [5.5, 0, 0], [3.0, 4.5, 0]])
        labels = [0, 0, 1, 1]
        both = _batch(bb, cb, inputs, labels, [(0, 1, 2), (1, 0, 3)], margin=0.5)
        flat = both.encodings
        assert np.linalg.norm(flat[0] - flat[1]) - np.linalg.norm(flat[0] - flat[2]) + 0.5 == 0.0
        loss = _assert_matches_oracle(both, bb, cb)
        # the clamped triplet adds nothing but still counts in T
        alone = _batch(bb, cb, inputs, labels, [(1, 0, 3)], margin=0.5)
        loss_alone, g_alone = backward(alone, bb, cb)
        assert loss == loss_alone / 2 == 2.5
        _, g_both = backward(both, bb, cb)
        for (_, got), (_, one) in zip(g_both.named_blocks(), g_alone.named_blocks()):
            np.testing.assert_allclose(got, one / 2, rtol=1e-12, atol=1e-15)

    def test_zero_anchor_positive_distance_matches_oracle(self):
        bb, cb = _tiny_models()
        inputs = np.random.default_rng(6).normal(size=(4, 3))
        inputs[1] = inputs[0]
        batch = _batch(bb, cb, inputs, [0, 0, 1, 1], [(0, 1, 2), (2, 3, 1)], margin=10.0)
        assert np.all(batch.encodings[0] == batch.encodings[1])
        _assert_matches_oracle(batch, bb, cb)

    def test_rebuild_helper_perturbs_one_entry(self):
        bb, cb = _tiny_models()
        bb2, cb2 = rebuild_with(bb, cb, "codebook.centers", 3, 0.25)
        delta = cb2.centers - cb.centers
        assert delta.flat[3] == pytest.approx(0.25)
        assert np.count_nonzero(delta) == 1
        assert np.array_equal(bb2.layers[0].weight, bb.layers[0].weight)


class TestTripletBatch:
    @staticmethod
    def _make(triplets) -> TripletBatch:
        return TripletBatch(
            inputs=np.zeros((3, 3)), encodings=np.zeros((3, 6)), labels=np.array([0, 0, 1]),
            triplets=triplets, margin=0.1,
        )

    @pytest.mark.parametrize(
        "triplets,message",
        [
            # numpy would wrap -1 to index 2, a valid negative
            (((0, 1, -1),), "triplet index out of range"),
            (((-1, 0, 2),), "triplet index out of range"),
            (((0, 1, 2), (0, 3, 2)), "triplet index out of range"),
            (((0, 1, 2), (0, 2, 2)), "positive must share the anchor label"),
            (((0, 1, 2), (1, 0, 0)), "negative must differ from the anchor label"),
        ],
    )
    def test_invalid_triplets_rejected(self, triplets, message):
        with pytest.raises(ValidationError, match=message):
            self._make(triplets)

    def test_valid_triplets_accepted(self):
        batch = self._make(((0, 1, 2), (1, 0, 2), (1, 1, 2)))
        assert len(batch.triplets) == 3

    def test_empty_triplets_construct(self):
        assert self._make(()).triplets == ()


class TestLearningRate:
    def test_warmup_then_cosine(self):
        cfg = TrainConfig(learning_rate=1e-4, warmup_epochs=5, epochs_max=30)
        assert learning_rate(0, cfg) == pytest.approx(1e-5)
        assert learning_rate(5, cfg) == pytest.approx(1e-4)
        # Halfway point of the cosine phase.
        import math

        expected = 0.5 * 1e-4 * (1 + math.cos(math.pi * 12 / 25))
        assert learning_rate(17, cfg) == pytest.approx(expected, rel=1e-12)

    def test_single_epoch_stays_in_warmup(self):
        cfg = TrainConfig(learning_rate=2e-3, epochs_max=1)
        assert learning_rate(0, cfg) == pytest.approx(2e-4)

    def test_no_warmup_starts_at_base(self):
        cfg = TrainConfig(learning_rate=1e-3, warmup_epochs=0, epochs_max=10)
        assert learning_rate(0, cfg) == pytest.approx(1e-3)

    def test_out_of_range_rejected(self):
        cfg = TrainConfig(epochs_max=10)
        with pytest.raises(ValidationError):
            learning_rate(10, cfg)
        with pytest.raises(ValidationError):
            learning_rate(-1, cfg)


def _two_blob_dataset(n_per: int = 60, dim: int = 8, seed: int = 0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0, 1.0, size=(n_per, dim)) + 0.5
    b = rng.normal(0, 1.0, size=(n_per, dim)) - 0.5
    data = np.vstack([a, b])
    rows = np.arange(2 * n_per)
    items = np.column_stack([rows, rows >= n_per]).astype(np.int64)
    return PseudoLabeledSet(items=items), data


class TestSampler:
    def test_batch_size_not_a_multiple_of_per_class_rejected(self):
        with pytest.raises(ValidationError, match="batch_size must be a multiple of per_class"):
            TrainConfig(batch_size=12, per_class=5)
        assert TrainConfig(batch_size=10, per_class=5).batch_size == 10

    def test_batches_are_class_balanced(self):
        rng = np.random.default_rng(3)
        cfg = TrainConfig(batch_size=12, per_class=3)
        class_items = {
            0: np.arange(0, 20),
            1: np.arange(20, 41),
            2: np.arange(41, 55),
            3: np.arange(55, 75),
            4: np.arange(75, 83),
        }
        labels = np.empty(83, dtype=int)
        for c, items in class_items.items():
            labels[items] = c
        seen = set()
        for batch in _epoch_batches(class_items, cfg, rng):
            assert len(batch) == 12
            values, counts = np.unique(labels[batch], return_counts=True)
            assert len(values) == 4
            assert np.all(counts == 3)
            # Without replacement across the whole epoch.
            assert seen.isdisjoint(batch.tolist())
            seen.update(batch.tolist())

    @pytest.mark.parametrize(
        "batch_size, per_class, sizes, seed",
        [
            (12, 3, (20, 21, 14, 20, 8), 3),  # classes retire mid-epoch
            (8, 4, (4, 9, 13, 4, 7), 0),  # two classes of exactly per_class items
            (6, 2, (2, 3, 5, 11, 2, 2, 40), 7),
            (16, 8, (8, 8, 30), 11),
            (4, 2, (2, 2), 1),  # one batch, then both classes are spent
        ],
    )
    def test_matches_list_oracle_over_epochs(self, batch_size, per_class, sizes, seed):
        cfg = TrainConfig(batch_size=batch_size, per_class=per_class)
        shuffled = np.random.default_rng(100 + seed).permutation(sum(sizes))
        bounds = np.cumsum(sizes)[:-1]
        # Non-consecutive labels inserted out of order, members not contiguous.
        labels = [3 * c + 1 for c in range(len(sizes))][::-1]
        class_items = {
            label: np.sort(members)
            for label, members in zip(labels, np.split(shuffled, bounds)[::-1])
        }
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = _epoch_batches(class_items, cfg, rng)
            want = epoch_batches_oracle(class_items, cfg, oracle_rng)
            assert len(got) == len(want) > 0
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize(
        "sizes, fraction, seed",
        [
            ((20, 21, 14, 20, 8), 0.1, 0),
            ((1, 2, 3, 50), 0.5, 4),  # classes too small to send any item
            ((7, 7, 7), 0.3, 9),
            ((1000,), 0.25, 2),
        ],
    )
    def test_split_matches_list_oracle(self, sizes, fraction, seed):
        labels = np.repeat(np.arange(len(sizes)) * 5 + 2, sizes)
        labels = np.random.default_rng(200 + seed).permutation(labels)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = _stratified_split(labels, fraction, rng)
            want = stratified_split_oracle(labels, fraction, oracle_rng)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestTrain:
    def test_single_epoch_schedule_boundary(self):
        labeled, data = _two_blob_dataset()
        cfg = TrainConfig(
            batch_size=8, per_class=4, epochs_max=1, patience=1,
            n_clusters=4, backbone_dims=(8, 16, 8), seed=0, learning_rate=1e-3,
        )
        _, _, report = train(labeled, data, cfg)
        assert len(report.losses) == 1
        assert report.learning_rates == (1e-4,)

    def test_loss_decreases_on_overlapping_classes(self):
        labeled, data = _two_blob_dataset()
        cfg = TrainConfig(
            batch_size=8, per_class=4, epochs_max=8, warmup_epochs=2, patience=8,
            n_clusters=4, backbone_dims=(8, 16, 8), seed=7, learning_rate=1e-3,
        )
        _, _, report = train(labeled, data, cfg)
        assert report.steps > 50
        assert report.losses[-1] < report.losses[0]

    def test_determinism(self):
        labeled, data = _two_blob_dataset()
        cfg = TrainConfig(
            batch_size=8, per_class=4, epochs_max=3, patience=3,
            n_clusters=4, backbone_dims=(8, 16, 8), seed=11, learning_rate=1e-3,
        )
        bb1, cb1, rep1 = train(labeled, data, cfg)
        bb2, cb2, rep2 = train(labeled, data, cfg)
        assert rep1 == rep2
        assert np.array_equal(cb1.centers, cb2.centers)
        assert np.array_equal(bb1.layers[0].weight, bb2.layers[0].weight)

    def test_lr_trace_matches_formula(self):
        labeled, data = _two_blob_dataset()
        cfg = TrainConfig(
            batch_size=8, per_class=4, epochs_max=6, warmup_epochs=2, patience=6,
            n_clusters=4, backbone_dims=(8, 16, 8), seed=1, learning_rate=1e-3,
        )
        _, _, report = train(labeled, data, cfg)
        for epoch, lr in enumerate(report.learning_rates):
            assert lr == learning_rate(epoch, cfg)

    def test_best_epoch_is_argmax(self):
        labeled, data = _two_blob_dataset()
        cfg = TrainConfig(
            batch_size=8, per_class=4, epochs_max=6, warmup_epochs=2, patience=6,
            n_clusters=4, backbone_dims=(8, 16, 8), seed=5, learning_rate=1e-3,
        )
        _, _, report = train(labeled, data, cfg)
        assert report.best_val_map == max(report.val_maps)
        assert report.val_maps[report.best_epoch] == report.best_val_map
        assert report.stopped_epoch <= cfg.epochs_max - 1

    def test_early_stopping_on_plateau(self):
        labeled, data = _two_blob_dataset()
        # Zero learning rate: parameters never move, so the validation score
        # is constant and patience triggers.
        cfg = TrainConfig(
            batch_size=8, per_class=4, epochs_max=30, warmup_epochs=0, patience=3,
            n_clusters=4, backbone_dims=(8, 16, 8), seed=2, learning_rate=1e-30,
        )
        _, _, report = train(labeled, data, cfg)
        assert report.best_epoch == 0
        assert report.stopped_epoch == 3  # epochs 1..3 fail to improve
        assert len(report.val_maps) == 4

    def test_max_steps_cap(self):
        labeled, data = _two_blob_dataset()
        cfg = TrainConfig(
            batch_size=8, per_class=4, epochs_max=10, patience=10, max_steps=5,
            n_clusters=4, backbone_dims=(8, 16, 8), seed=3, learning_rate=1e-3,
        )
        _, _, report = train(labeled, data, cfg)
        assert report.steps == 5
        assert report.stopped_epoch == 0 or report.steps <= 5

    def test_insufficient_classes_rejected(self):
        labeled, data = _two_blob_dataset()
        cfg = TrainConfig(
            batch_size=16, per_class=4,  # needs 4 classes, only 2 exist
            epochs_max=2, n_clusters=4, backbone_dims=(8, 16, 8),
        )
        with pytest.raises(ValidationError, match="insufficient classes"):
            train(labeled, data, cfg)

    def test_starting_models_are_left_unchanged(self, monkeypatch):
        labeled, data = _two_blob_dataset()
        backbone = init_backbone((8, 16, 8), seed=9)
        codebook = init_codebook(4, 8, seed=9)
        monkeypatch.setattr(trainer, "init_backbone", lambda dims, seed: backbone)
        monkeypatch.setattr(trainer, "init_codebook", lambda k, dim, seed: codebook)

        def param_bytes():
            arrays = [a for layer in backbone.layers for a in (layer.weight, layer.bias)]
            arrays += [codebook.centers, codebook.weights, codebook.bias]
            return [a.tobytes() for a in arrays]

        before = param_bytes()
        cfg = TrainConfig(
            batch_size=8, per_class=4, epochs_max=2, patience=2,
            n_clusters=4, seed=1, learning_rate=1e-2,
        )
        bb, cb, report = train(labeled, data, cfg)
        assert sum(report.triplets) > 0  # Adam ran
        assert param_bytes() == before
        assert not np.array_equal(cb.centers, codebook.centers)

    def test_snapshot_rescores_to_best_val_map(self):
        labeled, data = _two_blob_dataset()
        cfg = TrainConfig(
            batch_size=8, per_class=4, epochs_max=6, warmup_epochs=1, patience=2,
            n_clusters=4, backbone_dims=(8, 16, 8), seed=1, learning_rate=1e-2,
        )
        bb, cb, report = train(labeled, data, cfg)
        # Later epochs score lower, so returning the working arrays would show.
        assert report.best_epoch < report.stopped_epoch
        assert report.val_maps[report.stopped_epoch] != report.best_val_map
        split_rng = np.random.default_rng(derive_seed(cfg.seed, "train/split"))
        _, val_idx = _stratified_split(labeled.labels, cfg.validation_fraction, split_rng)
        pool = data[labeled.kept_indices][val_idx]
        rescored = _pool_retrieval_map(encoding_gram(bb, cb, pool), labeled.labels[val_idx])
        assert rescored == report.best_val_map

    def test_validation_pool_is_subsampled_to_the_cap(self, monkeypatch):
        labeled, data = _two_blob_dataset()
        cfg = TrainConfig(
            batch_size=8, per_class=4, epochs_max=3, patience=3,
            n_clusters=4, backbone_dims=(8, 16, 8), seed=4, learning_rate=1e-3,
        )
        split_rng = np.random.default_rng(derive_seed(cfg.seed, "train/split"))
        _, val_idx = _stratified_split(labeled.labels, cfg.validation_fraction, split_rng)
        assert len(val_idx) == 12  # more than the cap below
        pool_sizes: list[int] = []
        score = trainer._pool_retrieval_map

        def recorded(gram, labels):
            pool_sizes.append(len(labels))
            return score(gram, labels)

        monkeypatch.setattr(trainer, "VAL_POOL_CAP", 5)
        monkeypatch.setattr(trainer, "_pool_retrieval_map", recorded)
        _, _, report = train(labeled, data, cfg)
        assert pool_sizes == [5] * len(report.val_maps) and len(pool_sizes) == 3

    def test_triplets_count_admitted_per_epoch(self, monkeypatch):
        labeled, data = _two_blob_dataset()
        cfg = TrainConfig(
            batch_size=8, per_class=4, epochs_max=4, warmup_epochs=1, patience=4,
            n_clusters=4, backbone_dims=(8, 16, 8), seed=2, learning_rate=1e-3,
        )
        per_epoch: list[int] = []
        schedule, mine = trainer.learning_rate, trainer.mine_hard_triplets

        def new_epoch(epoch, cfg):
            per_epoch.append(0)
            return schedule(epoch, cfg)

        def counted(*args, **kwargs):
            trips = mine(*args, **kwargs)
            per_epoch[-1] += len(trips)
            return trips

        monkeypatch.setattr(trainer, "learning_rate", new_epoch)
        monkeypatch.setattr(trainer, "mine_hard_triplets", counted)
        _, _, report = train(labeled, data, cfg)
        assert all(loss > 0.0 for loss in report.losses)
        assert report.triplets == tuple(per_epoch)
        assert len(report.triplets) == len(report.losses)
        assert all(count > 0 for count in report.triplets)

    def test_gram_training_matches_flat_product_training(self, monkeypatch):
        labeled, data = _two_blob_dataset(n_per=40)
        cfg = TrainConfig(
            margin=1e-3, batch_size=8, per_class=4, epochs_max=3, warmup_epochs=1,
            patience=3, max_steps=12, n_clusters=4, backbone_dims=(8, 16, 8), seed=3,
            learning_rate=1e-2,
        )
        bb, cb, report = train(labeled, data, cfg)

        def flat_product(b, c, xs):
            f = encode_flat(b, c, xs)
            return f @ f.T

        monkeypatch.setattr(trainer, "encoding_gram", flat_product)
        bb_flat, cb_flat, report_flat = train(labeled, data, cfg)
        assert report.steps == 12 and len(report.val_maps) == 2
        assert sum(report.triplets) > 0
        assert report.triplets == report_flat.triplets
        assert report.val_maps == report_flat.val_maps
        for (name, got), (_, want) in zip(
            named_param_arrays(bb, cb), named_param_arrays(bb_flat, cb_flat)
        ):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
