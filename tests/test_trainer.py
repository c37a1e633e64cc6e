import numpy as np
import pytest
from helpers import (
    max_relative_fd_error,
    mine_oracle,
    random_gradcheck_config,
    rebuild_with,
    triplet_objective,
)

from wret import trainer
from wret.encoder import Backbone, Codebook, Layer, encode_flat, init_backbone, init_codebook
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
    triplet_loss,
)


class TestTripletLoss:
    def test_clamped_to_zero(self):
        assert triplet_loss(0.2, 0.5, 0.1) == 0.0

    def test_equal_distances_give_margin(self):
        assert triplet_loss(0.7, 0.7, 0.1) == pytest.approx(0.1)

    def test_scalar_oracle(self):
        assert triplet_loss(0.9, 0.1, 0.1) == pytest.approx(0.9)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError):
            triplet_loss(-0.1, 0.5, 0.1)


class TestMining:
    def test_well_separated_emits_nothing(self):
        # Same-label pair at distance 0, negative far away: d_an > d_ap - m.
        enc = np.array([[0.0], [0.0], [10.0]])
        labels = np.array([0, 0, 1])
        assert mine_hard_triplets(enc, labels, 0.1) == ()

    def test_admission_scalar_check(self):
        # d_ap = 1.0, d_an = 0.5, m = 0.1: 0.5 < 0.9, so both anchors emit.
        enc = np.array([[0.0], [1.0], [0.5]])
        labels = np.array([0, 0, 1])
        assert mine_hard_triplets(enc, labels, 0.1) == ((0, 1, 2), (1, 0, 2))

    def test_single_label_empty(self):
        enc = np.array([[0.0], [1.0], [2.0]])
        assert mine_hard_triplets(enc, np.array([0, 0, 0]), 0.1) == ()

    def test_semi_mode_is_complement(self):
        enc = np.array([[0.0], [1.0], [0.5]])
        labels = np.array([0, 0, 1])
        hard = mine_hard_triplets(enc, labels, 0.1, "hard")
        semi = mine_hard_triplets(enc, labels, 0.1, "semi")
        assert hard != () and semi == ()
        far = np.array([[0.0], [0.2], [5.0]])
        assert mine_hard_triplets(far, labels, 0.1, "hard") == ()
        assert mine_hard_triplets(far, labels, 0.1, "semi") == ((0, 1, 2), (1, 0, 2))

    def test_ties_pick_lowest_index(self):
        # Two positives at equal distance from the anchor, two equal negatives.
        enc = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.1], [0.0, -0.1]])
        labels = np.array([0, 0, 0, 1, 1])
        trips = mine_hard_triplets(enc, labels, 0.1)
        anchor0 = [t for t in trips if t[0] == 0]
        assert anchor0 == [(0, 1, 3)]

    def test_anchors_ascend(self):
        rng = np.random.default_rng(0)
        enc = rng.normal(size=(12, 4))
        labels = np.repeat([0, 1, 2], 4)
        trips = mine_hard_triplets(enc, labels, 5.0, "semi")  # huge margin admits all
        anchors = [a for a, _, _ in trips]
        assert anchors == sorted(anchors)
        assert len(trips) == 12

    @pytest.mark.parametrize("mining", ["hard", "semi"])
    def test_matches_per_anchor_loop(self, mining):
        rng = np.random.default_rng(5)
        for trial in range(200):
            n = int(rng.integers(1, 24))
            # Rounded encodings make distance ties common.
            enc = np.round(rng.normal(size=(n, 3)), int(rng.integers(0, 2)))
            labels = rng.integers(int(rng.integers(1, 6)), size=n)
            m = float(rng.choice([0.1, 0.5, 1.5]))
            got = mine_hard_triplets(enc, labels, m, mining)
            assert got == mine_oracle(enc, labels, m, mining), trial

    @pytest.mark.parametrize("mining", ["hard", "semi"])
    def test_singletons_and_one_class_match_per_anchor_loop(self, mining):
        rng = np.random.default_rng(6)
        enc = np.round(rng.normal(size=(10, 2)), 1)
        mixed = np.array([0, 0, 1, 2, 2, 3, 4, 4, 4, 5])
        for labels in (np.arange(10), np.zeros(10, dtype=int), mixed):
            for m in (0.05, 5.0):
                got = mine_hard_triplets(enc, labels, m, mining)
                assert got == mine_oracle(enc, labels, m, mining)
        assert mine_hard_triplets(enc[:0], np.arange(0), 0.1, mining) == ()


def _tiny_models(mode: str = "netrvlad") -> tuple[Backbone, Codebook]:
    rng = np.random.default_rng(42)
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
        mode=mode,
    )
    return backbone, codebook


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
        with pytest.raises(ValidationError):
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

    def test_finite_differences_both_modes(self):
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

    def test_rebuild_helper_perturbs_one_entry(self):
        bb, cb = _tiny_models()
        bb2, cb2 = rebuild_with(bb, cb, "codebook.centers", 3, 0.25)
        delta = cb2.centers - cb.centers
        assert delta.flat[3] == pytest.approx(0.25)
        assert np.count_nonzero(delta) == 1
        assert np.array_equal(bb2.layers[0].weight, bb.layers[0].weight)


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
    items = tuple((i, 0 if i < n_per else 1) for i in range(2 * n_per))
    return PseudoLabeledSet(items=items, rejected=()), data


class TestSampler:
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

    def test_netvlad_mode_trains(self):
        labeled, data = _two_blob_dataset(n_per=40)
        cfg = TrainConfig(
            batch_size=8, per_class=4, epochs_max=2, patience=2, mode="netvlad",
            n_clusters=4, backbone_dims=(8, 16, 8), seed=4, learning_rate=1e-3,
        )
        bb, cb, report = train(labeled, data, cfg)
        assert cb.mode == "netvlad"
        assert len(report.losses) == 2

    def test_starting_models_are_left_unchanged(self):
        labeled, data = _two_blob_dataset()
        backbone = init_backbone((8, 16, 8), seed=9)
        codebook = init_codebook("netrvlad", 4, 8, seed=9)

        def param_bytes():
            arrays = [a for layer in backbone.layers for a in (layer.weight, layer.bias)]
            arrays += [codebook.centers, codebook.weights, codebook.bias]
            return [a.tobytes() for a in arrays]

        before = param_bytes()
        cfg = TrainConfig(
            batch_size=8, per_class=4, epochs_max=2, patience=2,
            n_clusters=4, seed=1, learning_rate=1e-2,
        )
        bb, cb, report = train(labeled, data, cfg, backbone=backbone, codebook=codebook)
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
        rescored = _pool_retrieval_map(encode_flat(bb, cb, pool), labeled.labels[val_idx])
        assert rescored == report.best_val_map

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
