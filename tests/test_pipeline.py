import json
import struct

import numpy as np
import pytest

from wret.aggregation import PageEmbedding
from wret.cli import entrypoint
from wret.encoder import init_backbone, init_codebook
from wret.errors import ArtifactIOError, ValidationError
from wret.features import fit_pca
from wret.fileio import (
    MAGIC_MODEL,
    PageRecord,
    canonical_json,
    load_backbone,
    load_cluster_model,
    load_codebook,
    load_manifest,
    load_page_descriptors,
    load_pca,
    read_descriptors,
    read_embeddings,
    save_backbone,
    save_codebook,
    save_manifest,
    save_model,
    save_pca,
    write_descriptors,
    write_embeddings,
)
from wret.rerank import RerankConfig
from wret.stages import (
    ClusterConfig,
    EncodeConfig,
    load_labels,
    output_lock,
    run_cluster,
    run_encode,
    run_evaluate,
    run_rerank,
    run_report,
    run_sweep,
    run_synth,
    run_train,
)
from wret.synth import SynthSpec, nearest_centroid_accuracy, synth_generate
from wret.trainer import TrainConfig

SEED = 11


def _tiny_spec(**overrides) -> SynthSpec:
    base = dict(
        n_writers=4,
        pages_per_writer=3,
        descriptors_per_page=40,
        n_prototypes=8,
        writer_style_strength=4.0,
        noise_sigma=1.0,
        seed=SEED,
    )
    base.update(overrides)
    return SynthSpec(**base)


def _tiny_train_cfg(**overrides) -> TrainConfig:
    base = dict(
        batch_size=8,
        per_class=4,
        epochs_max=2,
        warmup_epochs=1,
        patience=2,
        max_steps=25,
        n_clusters=6,
        seed=SEED,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny end-to-end run shared by the stage tests."""
    root = tmp_path_factory.mktemp("pipeline")
    manifest = run_synth(_tiny_spec(), root / "data")
    ccfg = ClusterConfig(n_clusters=6, target_dim=16, seed=SEED)
    run_cluster(manifest, root / "run", ccfg)
    run_train(root / "run" / "labels.wrmd", root / "run", _tiny_train_cfg())
    ecfg = EncodeConfig(page_dim=8)
    embeddings = run_encode(manifest, root / "run", root / "run", ecfg)
    return {
        "root": root,
        "manifest": manifest,
        "run": root / "run",
        "embeddings": embeddings,
        "ccfg": ccfg,
        "ecfg": ecfg,
    }


class TestDescriptorFiles:
    def test_round_trip(self, tmp_path):
        data = np.random.default_rng(0).normal(size=(7, 5)).astype(np.float32)
        path = tmp_path / "d.wrds"
        write_descriptors(path, data)
        back = read_descriptors(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, data)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.wrds"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ArtifactIOError, match="not a descriptor"):
            read_descriptors(path)

    def test_rejects_truncation(self, tmp_path):
        path = tmp_path / "d.wrds"
        write_descriptors(path, np.ones((4, 3), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ArtifactIOError, match="truncated"):
            read_descriptors(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactIOError, match="missing"):
            read_descriptors(tmp_path / "absent.wrds")


class TestEmbeddingDumps:
    def _pages(self):
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(3, 6))
        return [
            PageEmbedding(page_id=f"p{i}", writer_id=f"w{i % 2}", vector=v)
            for i, v in enumerate(vecs)
        ]

    def test_round_trip(self, tmp_path):
        pages = self._pages()
        path = tmp_path / "emb.json"
        write_embeddings(path, pages, "abc123", seed=9)
        back, meta = read_embeddings(path)
        assert meta["config_hash"] == "abc123" and meta["seed"] == 9
        for orig, got in zip(pages, back):
            assert got.page_id == orig.page_id
            assert got.writer_id == orig.writer_id
            np.testing.assert_array_equal(got.vector, orig.vector)

    def test_sidecar_blob_mismatch(self, tmp_path):
        path = tmp_path / "emb.json"
        write_embeddings(path, self._pages(), "h", seed=0)
        doc = json.loads(path.read_text())
        doc["count"] = 99
        doc["pages"] = doc["pages"] * 33
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactIOError, match="disagrees"):
            read_embeddings(path)

    def test_missing_blob(self, tmp_path):
        path = tmp_path / "emb.json"
        write_embeddings(path, self._pages(), "h", seed=0)
        (tmp_path / "emb.bin").unlink()
        with pytest.raises(ArtifactIOError, match="missing"):
            read_embeddings(path)


class TestModelFiles:
    def test_backbone_round_trip(self, tmp_path):
        backbone = init_backbone((5, 8, 4), seed=3)
        path = tmp_path / "bb.wrmd"
        save_backbone(path, backbone, seed=3)
        back = load_backbone(path)
        assert len(back.layers) == len(backbone.layers)
        for orig, got in zip(backbone.layers, back.layers):
            np.testing.assert_array_equal(got.weight, orig.weight)
            np.testing.assert_array_equal(got.bias, orig.bias)
            assert got.activation == orig.activation

    def test_backbone_dims_metadata_follows_layer_outputs(self, tmp_path):
        path = tmp_path / "bb.wrmd"
        save_backbone(path, init_backbone((32, 48, 64), seed=0), seed=0)
        _, meta, _ = load_model_kind(path)
        assert meta["dims"] == [32, 48, 64]
        assert [layer.weight.shape for layer in load_backbone(path).layers] == [(48, 32), (64, 48)]

    def test_codebook_round_trip(self, tmp_path):
        codebook = init_codebook("netrvlad", 4, 6, seed=5)
        path = tmp_path / "cb.wrmd"
        save_codebook(path, codebook, seed=5)
        back = load_codebook(path)
        assert back.mode == "netrvlad"
        np.testing.assert_array_equal(back.centers, codebook.centers)
        np.testing.assert_array_equal(back.weights, codebook.weights)
        np.testing.assert_array_equal(back.bias, codebook.bias)

    def test_pca_round_trip(self, tmp_path):
        data = np.random.default_rng(2).normal(size=(30, 5))
        model = fit_pca(data, 3, whiten=True)
        path = tmp_path / "pca.wrmd"
        save_pca(path, model)
        back = load_pca(path)
        assert back.whiten is True
        np.testing.assert_array_equal(back.mean, model.mean)
        np.testing.assert_array_equal(back.basis, model.basis)
        np.testing.assert_array_equal(back.scale, model.scale)

    def test_wrong_kind_rejected(self, tmp_path):
        save_backbone(tmp_path / "bb.wrmd", init_backbone((4, 4), seed=0), seed=0)
        with pytest.raises(ArtifactIOError, match="expected a codebook"):
            load_codebook(tmp_path / "bb.wrmd")

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.wrmd"
        save_model(path, "labels", {}, {"x": np.arange(4, dtype=np.int64)})
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ArtifactIOError, match="trailing"):
            load_model_kind(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="dtype"):
            save_model(
                tmp_path / "m.wrmd", "labels", {}, {"x": np.ones(3, dtype=np.float32)}
            )


_GOOD_ENTRY = {"dtype": "<i8", "name": "x", "shape": [2]}


def _model_file(tmp_path, header):
    """A model file with the given header followed by two int64 zeros."""
    text = canonical_json(header).encode("utf-8")
    path = tmp_path / "m.wrmd"
    path.write_bytes(MAGIC_MODEL + struct.pack("<IQ", 1, len(text)) + text + bytes(16))
    return path


@pytest.mark.parametrize(
    "header",
    [
        {"kind": "labels", "meta": {}},
        {"arrays": [_GOOD_ENTRY], "meta": {}},
        {"arrays": [_GOOD_ENTRY], "kind": "labels"},
        {"arrays": [_GOOD_ENTRY], "kind": 3, "meta": {}},
        {"arrays": [_GOOD_ENTRY], "kind": "labels", "meta": []},
        {"arrays": {"x": _GOOD_ENTRY}, "kind": "labels", "meta": {}},
        {"arrays": [[2]], "kind": "labels", "meta": {}},
        {"arrays": [{**_GOOD_ENTRY, "name": 7}], "kind": "labels", "meta": {}},
        {"arrays": [{**_GOOD_ENTRY, "shape": 2}], "kind": "labels", "meta": {}},
        {"arrays": [{**_GOOD_ENTRY, "shape": [-2]}], "kind": "labels", "meta": {}},
        {"arrays": [{**_GOOD_ENTRY, "shape": [2.0]}], "kind": "labels", "meta": {}},
        {"arrays": [{**_GOOD_ENTRY, "shape": [True, True]}], "kind": "labels", "meta": {}},
        {"arrays": [{**_GOOD_ENTRY, "dtype": "<f4"}], "kind": "labels", "meta": {}},
        {"arrays": [{**_GOOD_ENTRY, "dtype": "O"}], "kind": "labels", "meta": {}},
        ["not", "an", "object"],
    ],
)
def test_malformed_model_header_raises_artifact_error(tmp_path, header):
    with pytest.raises(ArtifactIOError, match="malformed header"):
        load_model_kind(_model_file(tmp_path, header))


def test_oversized_model_shape_reads_as_truncated(tmp_path):
    # 2**62 * 4 elements overflow int64; the size check must still see them.
    header = {"arrays": [{**_GOOD_ENTRY, "shape": [2**62, 4]}], "kind": "labels", "meta": {}}
    with pytest.raises(ArtifactIOError, match="truncated"):
        load_model_kind(_model_file(tmp_path, header))


def load_model_kind(path):
    from wret.fileio import load_model

    return load_model(path)


class TestManifests:
    def _write_pages(self, tmp_path, n=3):
        records = []
        for i in range(n):
            rel = f"p{i}.wrds"
            write_descriptors(tmp_path / rel, np.full((4, 3), i, dtype=np.float32))
            records.append(
                PageRecord(page_id=f"p{i}", writer_id=f"w{i % 2}", descriptor_file=rel)
            )
        return records

    def test_round_trip(self, tmp_path):
        records = self._write_pages(tmp_path)
        save_manifest(tmp_path / "m.json", "demo", "test", records)
        manifest = load_manifest(tmp_path / "m.json")
        assert manifest.dataset == "demo" and manifest.split == "test"
        assert [p.page_id for p in manifest.pages] == ["p0", "p1", "p2"]

    def test_duplicate_page_id(self, tmp_path):
        records = self._write_pages(tmp_path, n=2)
        dup = [records[0], PageRecord("p0", "w1", records[1].descriptor_file)]
        save_manifest(tmp_path / "m.json", "demo", "test", dup)
        with pytest.raises(ValidationError, match="duplicate"):
            load_manifest(tmp_path / "m.json")

    def test_missing_descriptor_file(self, tmp_path):
        records = self._write_pages(tmp_path, n=2)
        records.append(PageRecord("p9", "w0", "absent.wrds"))
        save_manifest(tmp_path / "m.json", "demo", "test", records)
        with pytest.raises(ArtifactIOError, match="absent.wrds"):
            load_manifest(tmp_path / "m.json")

    def test_bad_split_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="split"):
            save_manifest(tmp_path / "m.json", "demo", "dev", [])

    def test_descriptor_cap(self, tmp_path):
        data = np.random.default_rng(3).normal(size=(30, 4)).astype(np.float32)
        write_descriptors(tmp_path / "big.wrds", data)
        save_manifest(
            tmp_path / "m.json", "demo", "test", [PageRecord("p0", "w0", "big.wrds")]
        )
        manifest = load_manifest(tmp_path / "m.json")
        [(record, capped)] = load_page_descriptors(manifest, cap=10)
        assert record.page_id == "p0"
        np.testing.assert_array_equal(capped, data[:10])


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        spec = _tiny_spec(seed=21)
        m1 = synth_generate(spec, tmp_path / "a")
        m2 = synth_generate(spec, tmp_path / "b")
        assert m1.read_text() == m2.read_text()
        for record in load_manifest(m1).pages:
            a = (tmp_path / "a" / record.descriptor_file).read_bytes()
            b = (tmp_path / "b" / record.descriptor_file).read_bytes()
            assert a == b

    def test_zero_noise_identical_pages(self, tmp_path):
        spec = _tiny_spec(noise_sigma=0.0, seed=4)
        manifest = load_manifest(synth_generate(spec, tmp_path))
        by_writer = {}
        for record in manifest.pages:
            by_writer.setdefault(record.writer_id, []).append(
                (tmp_path / record.descriptor_file).read_bytes()
            )
        for pages in by_writer.values():
            assert all(p == pages[0] for p in pages)

    def test_oracle_separability_at_ratio_four(self, tmp_path):
        manifest = load_manifest(synth_generate(_tiny_spec(seed=5), tmp_path))
        assert nearest_centroid_accuracy(manifest) > 0.99

    def test_oracle_needs_two_pages_per_writer(self, tmp_path):
        spec = _tiny_spec(pages_per_writer=(3, 3, 3, 1), seed=6)
        manifest = load_manifest(synth_generate(spec, tmp_path))
        with pytest.raises(ValidationError, match="single page"):
            nearest_centroid_accuracy(manifest)

    def test_per_writer_page_counts(self, tmp_path):
        spec = _tiny_spec(pages_per_writer=(1, 2, 3, 4), seed=7)
        manifest = load_manifest(synth_generate(spec, tmp_path))
        counts = {}
        for record in manifest.pages:
            counts[record.writer_id] = counts.get(record.writer_id, 0) + 1
        assert sorted(counts.values()) == [1, 2, 3, 4]

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            _tiny_spec(n_writers=0)
        with pytest.raises(ValidationError):
            _tiny_spec(noise_sigma=-1.0)
        with pytest.raises(ValidationError):
            _tiny_spec(pages_per_writer=(1, 2))  # wrong length


class TestStages:
    def test_cluster_outputs(self, workspace):
        run = workspace["run"]
        pca = load_pca(run / "pca.wrmd")
        kmeans = load_cluster_model(run / "kmeans.wrmd")
        labeled, descriptors, meta = load_labels(run / "labels.wrmd")
        assert pca.basis.shape == (16, 64)
        assert kmeans.centers.shape == (6, 16)
        assert descriptors.shape == (480, 16)
        assert meta["rho"] == 0.9
        kept = labeled.kept_indices
        assert len(kept) + len(labeled.rejected) == 480
        assert np.all(labeled.labels >= 0) and np.all(labeled.labels < 6)

    def test_cluster_deterministic(self, workspace, tmp_path):
        run_cluster(workspace["manifest"], tmp_path, workspace["ccfg"])
        for name in ("pca.wrmd", "kmeans.wrmd", "labels.wrmd", "cluster_report.json"):
            assert (tmp_path / name).read_bytes() == (
                workspace["run"] / name
            ).read_bytes()

    def test_train_outputs(self, workspace):
        run = workspace["run"]
        backbone = load_backbone(run / "backbone.wrmd")
        codebook = load_codebook(run / "codebook.wrmd")
        assert backbone.input_dim == 16
        assert codebook.n_clusters == 6 and codebook.dim == backbone.output_dim
        report = json.loads((run / "train_report.json").read_text())
        assert report["steps"] <= 25
        assert report["seed"] == SEED and report["config_hash"]

    def test_train_deterministic(self, workspace, tmp_path):
        run_train(workspace["run"] / "labels.wrmd", tmp_path, _tiny_train_cfg())
        for name in ("backbone.wrmd", "codebook.wrmd", "train_report.json"):
            assert (tmp_path / name).read_bytes() == (
                workspace["run"] / name
            ).read_bytes()

    def test_encode_output(self, workspace):
        pages, meta = read_embeddings(workspace["embeddings"])
        assert len(pages) == 12 and meta["dim"] == 8
        for page in pages:
            assert abs(np.linalg.norm(page.vector) - 1.0) <= 1e-9
        writers = {p.writer_id for p in pages}
        assert writers == {f"w{i:03d}" for i in range(4)}

    def test_encode_deterministic(self, workspace, tmp_path):
        run_encode(
            workspace["manifest"], workspace["run"], tmp_path, workspace["ecfg"]
        )
        assert (tmp_path / "embeddings.bin").read_bytes() == (
            workspace["run"] / "embeddings.bin"
        ).read_bytes()
        assert (tmp_path / "embeddings.json").read_text() == (
            workspace["run"] / "embeddings.json"
        ).read_text()

    def test_encode_with_prefit_page_pca(self, workspace, tmp_path):
        cfg = EncodeConfig(page_dim=8, page_pca=str(workspace["run"] / "page_pca.wrmd"))
        path = run_encode(workspace["manifest"], workspace["run"], tmp_path, cfg)
        pages, _ = read_embeddings(path)
        base, _ = read_embeddings(workspace["embeddings"])
        for got, orig in zip(pages, base):
            np.testing.assert_allclose(got.vector, orig.vector, atol=1e-12)

    def test_evaluate_stage(self, workspace, tmp_path):
        report = run_evaluate(workspace["embeddings"], tmp_path, per_query=True)
        assert 0.0 <= report["map"] <= 1.0
        assert report["query_count"] == 12
        assert report["seed"] == 0  # encode default seed
        csv_text = (tmp_path / "eval_per_query.csv").read_text()
        assert csv_text.splitlines()[0] == "query,ap,top1_hit,first_relevant_rank"
        assert len(csv_text.splitlines()) == 13

    def test_evaluate_two_isolated_pages(self, tmp_path):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]])
        pages = [
            PageEmbedding(page_id=f"p{i}", writer_id=f"w{i}", vector=v)
            for i, v in enumerate(vecs)
        ]
        write_embeddings(tmp_path / "emb.json", pages, "h", seed=0)
        report = run_evaluate(tmp_path / "emb.json", tmp_path / "out")
        assert report["query_count"] == 2
        assert sorted(report["isolated_queries"]) == ["p0", "p1"]

    def test_rerank_stage(self, workspace, tmp_path):
        cfg = RerankConfig(method="sgr", k=2, layers=1, gamma=0.4)
        report = run_rerank(workspace["embeddings"], tmp_path, cfg)
        assert report["method"] == "sgr"
        assert 0.0 <= report["after"]["map"] <= 1.0
        pages, meta = read_embeddings(tmp_path / "reranked.json")
        assert len(pages) == 12
        assert meta["config_hash"] == report["config_hash"]

    def test_rerank_rejects_reading_own_output(self, workspace, tmp_path):
        cfg = RerankConfig(method="sgr", k=2, layers=1, gamma=0.4)
        run_rerank(workspace["embeddings"], tmp_path, cfg)
        with pytest.raises(ValidationError, match="overwrite its input"):
            run_rerank(tmp_path / "reranked.json", tmp_path, cfg)

    def test_sweep_grid(self, workspace, tmp_path):
        path = run_sweep(
            workspace["embeddings"],
            tmp_path,
            gammas=[0.2, 0.4],
            layers_grid=[1, 2],
            ks=[1],
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,layers,k,map,top1"
        assert len(lines) == 5
        for line in lines[1:]:
            gamma, layers, k, map_val, top1 = line.split(",")
            assert 0.0 <= float(map_val) <= 1.0
            assert 0.0 <= float(top1) <= 1.0

    def test_sweep_empty_grid(self, workspace, tmp_path):
        with pytest.raises(ValidationError, match="empty"):
            run_sweep(workspace["embeddings"], tmp_path, [], [1], [1])

    def test_report_multi_seed(self, workspace, tmp_path):
        report = run_report(
            workspace["manifest"],
            tmp_path,
            seeds=[1, 2],
            cluster_cfg=ClusterConfig(n_clusters=6, target_dim=16),
            train_cfg=_tiny_train_cfg(max_steps=10, epochs_max=1, warmup_epochs=0),
            encode_cfg=EncodeConfig(page_dim=8),
        )
        assert [r["seed"] for r in report["per_seed"]] == [1, 2]
        maps = [r["map"] for r in report["per_seed"]]
        assert report["map_mean"] == pytest.approx(np.mean(maps))
        assert report["map_spread"] == pytest.approx(max(maps) - min(maps))
        assert (tmp_path / "report.json").exists()

    def test_missing_labels_names_cluster_stage(self, tmp_path):
        with pytest.raises(ArtifactIOError, match="'cluster' stage"):
            run_train(tmp_path / "labels.wrmd", tmp_path / "out", _tiny_train_cfg())

    def test_missing_model_names_train_stage(self, workspace, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        save_pca(models / "pca.wrmd", load_pca(workspace["run"] / "pca.wrmd"))
        with pytest.raises(ArtifactIOError, match="'train' stage"):
            run_encode(workspace["manifest"], models, tmp_path / "out", EncodeConfig())

    def test_output_lock_rejects_concurrent(self, tmp_path):
        with output_lock(tmp_path):
            with pytest.raises(ArtifactIOError, match="another invocation"):
                with output_lock(tmp_path):
                    pass
        # released on exit
        with output_lock(tmp_path):
            pass
        assert not (tmp_path / ".wret.lock").exists()


class TestCli:
    def test_synth_and_cluster_commands(self, tmp_path):
        data = tmp_path / "data"
        code = entrypoint(
            [
                "synth", "--out", str(data), "--writers", "3", "--pages", "2",
                "--descriptors", "30", "--seed", "2",
            ]
        )
        assert code == 0 and (data / "manifest.json").exists()
        code = entrypoint(
            [
                "cluster", "--manifest", str(data / "manifest.json"),
                "--out", str(tmp_path / "run"), "--clusters", "4", "--seed", "2",
            ]
        )
        assert code == 0 and (tmp_path / "run" / "labels.wrmd").exists()

    def test_pages_list_form(self, tmp_path):
        code = entrypoint(
            [
                "synth", "--out", str(tmp_path), "--writers", "3",
                "--pages", "2,3,4", "--descriptors", "10",
            ]
        )
        assert code == 0
        assert len(load_manifest(tmp_path / "manifest.json").pages) == 9

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        from wret.fileio import load_model

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rho": 0.5, "n_clusters": 6, "target_dim": 16}))
        code = entrypoint(
            [
                "cluster", "--manifest", str(workspace["manifest"]),
                "--out", str(tmp_path / "a"), "--config", str(cfg_path),
            ]
        )
        assert code == 0
        _, meta, _ = load_model(tmp_path / "a" / "labels.wrmd")
        assert meta["rho"] == 0.5
        code = entrypoint(
            [
                "cluster", "--manifest", str(workspace["manifest"]),
                "--out", str(tmp_path / "b"), "--config", str(cfg_path),
                "--rho", "0.8",
            ]
        )
        assert code == 0
        _, meta, _ = load_model(tmp_path / "b" / "labels.wrmd")
        assert meta["rho"] == 0.8

    def test_unknown_config_key_exits_one(self, workspace, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        code = entrypoint(
            [
                "cluster", "--manifest", str(workspace["manifest"]),
                "--out", str(tmp_path / "out"), "--config", str(cfg_path),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "command,config",
        [
            ("rerank", {"k": "2"}),
            ("rerank", {"k": 1e9}),
            ("rerank", {"gamma": True}),
            ("rerank", {"gamma": 10**400}),
            ("rerank", {"method": None}),
            ("evaluate", {"per_query": 1}),
            ("sweep", {"ks": [1.5]}),
            ("sweep", {"gammas": 0.4}),
            ("train", {"backbone_dims": ["16", 8]}),
            ("report", {"seeds": "1,2"}),
            ("report", {"cluster": [1]}),
            ("report", {"train": {"epochs_max": "3"}}),
            ("report", {"encode": {"bogus": 1}}),
        ],
    )
    def test_config_value_of_wrong_type_exits_one(
        self, workspace, tmp_path, capsys, command, config
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        inputs = {
            "rerank": ["--embeddings", str(workspace["embeddings"])],
            "evaluate": ["--embeddings", str(workspace["embeddings"])],
            "sweep": ["--embeddings", str(workspace["embeddings"])],
            "train": ["--labels", str(workspace["run"] / "labels.wrmd")],
            "report": ["--manifest", str(workspace["manifest"])],
        }[command]
        out = tmp_path / "out"
        code = entrypoint([command, *inputs, "--out", str(out), "--config", str(cfg_path)])
        assert code == 1
        assert "config key" in capsys.readouterr().err
        assert not out.exists()

    def test_config_int_fills_float_field(self, workspace, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"k": 2, "gamma": 1}))
        code = entrypoint(
            [
                "rerank", "--embeddings", str(workspace["embeddings"]),
                "--out", str(tmp_path / "rr"), "--config", str(cfg_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "rr" / "rerank_report.json").read_text())
        assert report["params"]["gamma"] == 1.0 and isinstance(report["params"]["gamma"], float)

    def test_bad_flag_exits_one(self):
        assert entrypoint(["cluster", "--nope"]) == 1

    def test_validation_error_exits_one(self, workspace, tmp_path):
        code = entrypoint(
            [
                "cluster", "--manifest", str(workspace["manifest"]),
                "--out", str(tmp_path), "--rho", "2.0",
            ]
        )
        assert code == 1

    def test_missing_artifact_exits_two(self, tmp_path):
        code = entrypoint(
            [
                "evaluate", "--embeddings", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_lock_exits_two(self, workspace, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / ".wret.lock").touch()
        code = entrypoint(
            ["evaluate", "--embeddings", str(workspace["embeddings"]), "--out", str(out)]
        )
        assert code == 2

    def test_evaluate_and_rerank_commands(self, workspace, tmp_path):
        code = entrypoint(
            [
                "evaluate", "--embeddings", str(workspace["embeddings"]),
                "--out", str(tmp_path / "eval"), "--per-query",
            ]
        )
        assert code == 0 and (tmp_path / "eval" / "eval_per_query.csv").exists()
        code = entrypoint(
            [
                "rerank", "--embeddings", str(workspace["embeddings"]),
                "--out", str(tmp_path / "rr"), "--method", "krnn_qe", "--k", "2",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "rr" / "rerank_report.json").read_text())
        assert report["method"] == "krnn_qe"

    def test_sweep_command(self, workspace, tmp_path):
        code = entrypoint(
            [
                "sweep", "--embeddings", str(workspace["embeddings"]),
                "--out", str(tmp_path), "--gammas", "0.4,1.0",
                "--layers-grid", "1", "--ks", "2",
            ]
        )
        assert code == 0
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3
