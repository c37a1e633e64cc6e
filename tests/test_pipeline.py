import builtins
import errno
import fcntl
import hashlib
import io
import json
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
from contextlib import ExitStack, suppress
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from helpers import cluster_fit_project_oracle, model_file_oracle, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from wret.aggregation import PageEmbedding, page_matrix
from wret.cli import entrypoint
from wret.encoder import init_backbone, init_codebook
from wret.errors import ArtifactIOError, ValidationError
from wret import fileio, stages
from wret.features import NEAREST_CHUNK, KmeansRun, PcaModel, fit_kmeans, fit_pca
from wret.fileio import (
    MAGIC_MODEL,
    PageRecord,
    canonical_json,
    load_backbone,
    load_cluster_model,
    load_codebook,
    load_manifest,
    load_model,
    load_page_descriptors,
    load_pca,
    read_descriptors,
    read_embeddings,
    read_json,
    save_backbone,
    save_cluster_model,
    save_codebook,
    save_manifest,
    save_model,
    save_pca,
    write_descriptors,
    write_embeddings,
    write_json,
)
from wret.rerank import RerankConfig, rerank
from wret.retrieval import evaluate, rank_all
from wret.seeds import derive_seed
from wret.stages import (
    ClusterConfig,
    EncodeConfig,
    _ap_changes,
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
from wret.trainer import TrainConfig, TrainReport

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

    @pytest.mark.parametrize("layout", ["float32", "float64", "fortran", "sliced"])
    def test_bytes_are_the_header_and_the_float32_rows(self, tmp_path, layout):
        base = np.random.default_rng(4).normal(size=(9, 6))
        data = {
            "float32": base.astype(np.float32),
            "float64": base,
            "fortran": np.asfortranarray(base.astype(np.float32)),
            "sliced": base[1::2, ::2],
        }[layout]
        write_descriptors(tmp_path / "d.wrds", data)
        header = fileio.MATRIX_HEADER.pack(b"WRDS", fileio.FORMAT_VERSION, data.shape[1], len(data))
        assert (tmp_path / "d.wrds").read_bytes() == header + data.astype("<f4").tobytes()

    def test_float32_page_is_written_from_its_own_buffer(self, tmp_path):
        """Neither a copy of the page nor a finiteness mask of it."""
        page = np.random.default_rng(5).random((2000, 64)).astype(np.float32)
        peak = traced_peak(lambda: write_descriptors(tmp_path / "d.wrds", page))
        assert peak < 0.1 * page.nbytes

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, value):
        data = np.ones((4, 3), dtype=np.float32)
        data[2, 1] = value
        with pytest.raises(ValidationError, match="finite"):
            write_descriptors(tmp_path / "d.wrds", data)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("count", [0, 5, 2**63])
    def test_rejects_zero_dim_header(self, tmp_path, count):
        path = tmp_path / "d.wrds"
        path.write_bytes(b"WRDS" + struct.pack("<IIQ", 1, 0, count))
        with pytest.raises(ArtifactIOError, match="dimension 0"):
            read_descriptors(path)


_ABSENT = object()


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
        write_embeddings(path, pages, "abc123")
        back, meta = read_embeddings(path)
        assert meta == {"blob": "emb.bin", "config_hash": "abc123"}
        for orig, got in zip(pages, back):
            assert got.page_id == orig.page_id
            assert got.writer_id == orig.writer_id
            np.testing.assert_array_equal(got.vector, orig.vector)

    def test_sidecar_blob_mismatch(self, tmp_path):
        path = tmp_path / "emb.json"
        write_embeddings(path, self._pages(), "h")
        doc = json.loads(path.read_text())
        doc["pages"] = doc["pages"] * 33
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactIOError, match="disagrees"):
            read_embeddings(path)

    def test_sidecar_with_a_seed_key_loads(self, tmp_path):
        # sidecars written before encode stopped recording a seed
        path = tmp_path / "emb.json"
        write_embeddings(path, self._pages(), "h")
        write_json(path, {**read_json(path), "seed": 0})
        back, _ = read_embeddings(path)
        assert [p.page_id for p in back] == ["p0", "p1", "p2"]

    def test_blob_of_another_dimension_beside_an_old_sidecar_rejected(self, tmp_path):
        # an interrupted re-encode: the new blob is written, the sidecar not
        path = tmp_path / "emb.json"
        write_embeddings(path, self._pages(), "old")
        old_sidecar = path.read_bytes()
        pages = [PageEmbedding(p.page_id, p.writer_id, p.vector[:4]) for p in self._pages()]
        write_embeddings(path, pages, "new")
        path.write_bytes(old_sidecar)
        with pytest.raises(ArtifactIOError, match="disagrees"):
            read_embeddings(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            # evaluate and rerank hash the config hash into their own
            ("config_hash", _ABSENT),
            ("config_hash", None),
            ("config_hash", 5),
            ("config_hash", ["h"]),
            ("dim", _ABSENT),
            ("dim", "6"),
            ("dim", 6.0),
        ],
        ids=[
            "hash-missing", "hash-null", "hash-int", "hash-list", "dim-missing", "dim-str", "dim-float"
        ],
    )
    def test_sidecar_without_a_needed_entry_rejected(self, tmp_path, key, value):
        path = tmp_path / "emb.json"
        write_embeddings(path, self._pages(), "h")
        doc = {k: v for k, v in read_json(path).items() if k != key}
        write_json(path, doc if value is _ABSENT else {**doc, key: value})
        with pytest.raises(ArtifactIOError, match=f"'{key}' entry of the expected type"):
            read_embeddings(path)

    def test_empty_dump_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_embeddings(tmp_path / "emb.json", [], "h")
        assert list(tmp_path.iterdir()) == []

    def test_mixed_dimensions_rejected(self, tmp_path):
        pages = self._pages()
        pages.append(PageEmbedding(page_id="p3", writer_id="w1", vector=np.ones(4)))
        with pytest.raises(ValidationError, match=r"mixed dimensions \[4, 6\]"):
            write_embeddings(tmp_path / "emb.json", pages, "h")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "blob", ["../A/embeddings.bin", "sub/emb.bin", "/abs/emb.bin", "..", ".", ""]
    )
    def test_blob_outside_the_sidecars_directory_rejected(self, tmp_path, blob):
        # Another run's blob, reachable by a relative path, must not load
        # under this sidecar's page ids.
        (tmp_path / "A").mkdir()
        write_embeddings(tmp_path / "A" / "embeddings.json", self._pages(), "a")
        path = tmp_path / "B" / "embeddings.json"
        path.parent.mkdir()
        write_embeddings(path, self._pages(), "b")
        write_json(path, {**read_json(path), "blob": blob})
        with pytest.raises(ArtifactIOError, match=r"embeddings\.json: blob .* not a bare file name"):
            read_embeddings(path)

    def test_missing_blob(self, tmp_path):
        path = tmp_path / "emb.json"
        write_embeddings(path, self._pages(), "h")
        (tmp_path / "emb.bin").unlink()
        with pytest.raises(ArtifactIOError, match="missing"):
            read_embeddings(path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blob_bytes_are_the_header_and_the_float64_rows(self, tmp_path, dtype):
        # Page vectors are strided views of a Fortran-ordered matrix.
        matrix = np.asfortranarray(np.random.default_rng(2).normal(size=(5, 14)), dtype=dtype)
        pages = [
            PageEmbedding(page_id=f"p{i}", writer_id="w", vector=row)
            for i, row in enumerate(matrix[:, ::2])
        ]
        write_embeddings(tmp_path / "emb.json", pages, "h")
        header = fileio.MATRIX_HEADER.pack(b"WREM", fileio.FORMAT_VERSION, 7, 5)
        want = header + matrix[:, ::2].astype("<f8").tobytes()
        assert (tmp_path / "emb.bin").read_bytes() == want

    def test_holds_only_the_page_matrix(self, tmp_path):
        """The (pages, dim) matrix is written from its own buffer; the
        sidecar of 100 pages adds far less than a fifth of it."""
        vectors = np.random.default_rng(3).normal(size=(100, 1000))
        pages = [PageEmbedding(page_id=f"p{i}", writer_id="w", vector=v) for i, v in enumerate(vectors)]
        matrix_peak = traced_peak(lambda: page_matrix(pages))
        peak = traced_peak(lambda: write_embeddings(tmp_path / "emb.json", pages, "h"))
        assert peak < matrix_peak + 0.2 * vectors.nbytes


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

    def test_codebook_round_trip(self, tmp_path):
        codebook = init_codebook(4, 6, seed=5)
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
            load_model(path, "labels")

    @pytest.mark.parametrize("n", [1, NEAREST_CHUNK - 1, NEAREST_CHUNK, NEAREST_CHUNK + 1, 400])
    def test_file_bytes_match_the_joined_copies(self, tmp_path, n):
        """Arrays written from their own buffers give the bytes of the old
        writer, which joined `tobytes` copies: a C-contiguous float64
        matrix, a strided int64 column, an empty array and a scalar."""
        rng = np.random.default_rng(n)
        items = rng.integers(0, 1 << 40, size=(n, 2))
        arrays = {
            "descriptors": rng.normal(size=(n, 32)),
            "kept": items[:, 0],
            "labels": items[:, 1],
            "rejected": np.zeros((0,), dtype=np.int64),
            "empty": np.zeros((0, 3)),
            "scalar": np.float64(0.5),
            "transposed": rng.normal(size=(3, n)).T,
        }
        meta = {"n": n, "rho": 0.9}
        save_model(tmp_path / "m.wrmd", "labels", meta, arrays)
        assert (tmp_path / "m.wrmd").read_bytes() == model_file_oracle("labels", meta, arrays)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="dtype"):
            save_model(
                tmp_path / "m.wrmd", "labels", {}, {"x": np.ones(3, dtype=np.float32)}
            )


def _add_entries(path, kind, meta=None, arrays=None):
    """Rewrite the `kind` model file at path with extra meta and arrays."""
    old_meta, old_arrays = load_model(path, kind)
    save_model(path, kind, {**old_meta, **(meta or {})}, {**old_arrays, **(arrays or {})})


class TestEarlierFormats:
    """Files that still hold an entry this version no longer writes load
    as the same objects as files without it: the entry is ignored."""

    def test_sidecar_with_count(self, tmp_path):
        path = tmp_path / "e.json"
        write_embeddings(path, [PageEmbedding(f"p{i}", "w", np.array([1.0, i])) for i in range(3)], "h")
        want_pages, want_sidecar = read_embeddings(path)
        write_json(path, {**read_json(path), "count": 3})
        pages, sidecar = read_embeddings(path)
        assert sidecar == want_sidecar
        assert [(p.page_id, p.writer_id, p.vector.tobytes()) for p in pages] == [
            (p.page_id, p.writer_id, p.vector.tobytes()) for p in want_pages
        ]

    def test_pca_with_whiten(self, tmp_path):
        path = tmp_path / "pca.wrmd"
        save_pca(path, fit_pca(np.random.default_rng(2).normal(size=(30, 5)), 3, whiten=True))
        want = load_pca(path)
        _add_entries(path, "pca", meta={"whiten": True})
        got = load_pca(path)
        for name in ("mean", "basis", "scale"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_backbone_with_dims(self, tmp_path):
        path = tmp_path / "bb.wrmd"
        save_backbone(path, init_backbone((5, 8, 4), seed=3), seed=3)
        want = load_backbone(path)
        _add_entries(path, "backbone", meta={"dims": [5, 8, 4]})
        got = load_backbone(path)
        assert [(a.weight.tobytes(), a.bias.tobytes(), a.activation) for a in got.layers] == [
            (a.weight.tobytes(), a.bias.tobytes(), a.activation) for a in want.layers
        ]

    def test_labels_with_rejected(self, tmp_path):
        path = tmp_path / "labels.wrmd"
        save_model(path, "labels", {"rho": 0.9}, {**_KEPT, "descriptors": np.ones((3, 2))})
        want, want_descriptors, want_meta = load_labels(path)
        _add_entries(path, "labels", arrays={"rejected": np.array([2])})
        got, descriptors, meta = load_labels(path)
        assert got.items.tobytes() == want.items.tobytes()
        assert descriptors.tobytes() == want_descriptors.tobytes() and meta == want_meta


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
        load_model(_model_file(tmp_path, header), "labels")


def test_oversized_model_shape_reads_as_truncated(tmp_path):
    # 2**62 * 4 elements overflow int64; the size check must still see them.
    header = {"arrays": [{**_GOOD_ENTRY, "shape": [2**62, 4]}], "kind": "labels", "meta": {}}
    with pytest.raises(ArtifactIOError, match="truncated"):
        load_model(_model_file(tmp_path, header), "labels")


_LAYER = {"layer0.weight": np.ones((2, 2)), "layer0.bias": np.zeros(2)}
_CODEBOOK = {"bias": np.zeros(2), "centers": np.ones((2, 2)), "weights": np.ones((2, 2))}
_PCA = {"basis": np.eye(2), "mean": np.zeros(2), "scale": np.ones(2)}
_LABELS = {"descriptors": np.ones((2, 2)), "labels": np.zeros(2, dtype=np.int64)}


@pytest.mark.parametrize(
    "loader, kind, meta, arrays",
    [
        (load_backbone, "backbone", {}, _LAYER),
        (load_backbone, "backbone", {"activations": ["relu"]}, {"layer0.bias": np.zeros(2)}),
        (load_backbone, "backbone", {"activations": 3}, _LAYER),
        (load_codebook, "codebook", {}, _CODEBOOK),
        (load_codebook, "codebook", {"mode": ["netrvlad"]}, _CODEBOOK),
        (load_codebook, "codebook", {"mode": "netrvlad"}, {**_CODEBOOK, "centers": None}),
        (load_cluster_model, "kmeans", {}, {"centers": np.ones((2, 2))}),
        (load_cluster_model, "kmeans", {"inertia": "big"}, {"centers": np.ones((2, 2))}),
        (load_labels, "labels", {}, _LABELS),
    ],
    ids=[
        "backbone-activations-missing", "backbone-weight-missing", "backbone-activations-int",
        "codebook-mode-missing", "codebook-mode-list", "codebook-centers-missing",
        "kmeans-inertia-missing", "kmeans-inertia-str", "labels-kept-missing",
    ],
)
def test_model_without_needed_entry_raises_artifact_error(tmp_path, loader, kind, meta, arrays):
    path = tmp_path / "m.wrmd"
    save_model(path, kind, meta, {k: v for k, v in arrays.items() if v is not None})
    with pytest.raises(ArtifactIOError, match="expected type"):
        loader(path)


_KEPT = {**_LABELS, "kept": np.array([0, 1], dtype=np.int64)}


@pytest.mark.parametrize(
    "loader, kind, arrays, meta",
    [
        (load_pca, "pca", {**_PCA, "basis": np.eye(3)}, {}),
        (load_pca, "pca", {**_PCA, "basis": np.ones((2, 3))}, {}),
        (load_pca, "pca", {**_PCA, "mean": np.zeros((1, 2))}, {}),
        (load_labels, "labels", {**_KEPT, "kept": np.array([0, 2], dtype=np.int64)}, {}),
        (load_labels, "labels", {**_KEPT, "kept": np.array([-1, 0], dtype=np.int64)}, {}),
        (load_labels, "labels", {**_KEPT, "kept": np.array([0.0, 1.0])}, {}),
        (load_labels, "labels", {**_KEPT, "labels": np.zeros(1, dtype=np.int64)}, {}),
        (load_labels, "labels", {**_KEPT, "labels": np.zeros((2, 1), dtype=np.int64)}, {}),
        (load_labels, "labels", {**_KEPT, "descriptors": np.ones(2)}, {}),
        (load_codebook, "codebook", {**_CODEBOOK, "centers": np.ones((2, 3))}, {}),
        # an encoder mode this version no longer implements
        (load_codebook, "codebook", _CODEBOOK, {"mode": "netvlad"}),
        (load_backbone, "backbone", {**_LAYER, "layer0.bias": np.zeros(3)}, {}),
        (
            load_backbone, "backbone",
            {**_LAYER, "layer1.weight": np.ones((2, 3)), "layer1.bias": np.zeros(2)}, {},
        ),
    ],
    ids=[
        "pca-basis-rows", "pca-basis-cols", "pca-mean-2d", "kept-out-of-range",
        "kept-negative", "kept-float", "labels-short", "labels-2d", "descriptors-1d",
        "codebook-weights", "codebook-netvlad-mode", "backbone-bias", "backbone-chain",
    ],
)
def test_model_with_inconsistent_arrays_raises_artifact_error(
    tmp_path, loader, kind, arrays, meta
):
    path = tmp_path / "m.wrmd"
    # each loader reads only its own meta keys; load_labels reads none
    layers = sum(name.endswith(".weight") for name in arrays)
    meta = {"activations": ["relu"] * layers, "mode": "netrvlad", **meta}
    save_model(path, kind, meta, arrays)
    with pytest.raises(ArtifactIOError, match=re.escape(str(path))):
        loader(path)


def _tiny_binary_file(tmp_path, fmt):
    """One tiny file of a binary format and the call that reads it; "bin"
    and "sidecar" are the two files of one embedding dump, "wrmd" a pca
    model and the other names the model kinds."""
    rng = np.random.default_rng(0)
    if fmt == "wrds":
        path = tmp_path / "d.wrds"
        write_descriptors(path, np.arange(6, dtype=np.float32).reshape(2, 3))
        return path, lambda: read_descriptors(path)
    if fmt in ("bin", "sidecar"):
        pages = [PageEmbedding(f"p{i}", "w", np.array([1.0, float(i)])) for i in range(2)]
        write_embeddings(tmp_path / "e.json", pages, "h")
        path = tmp_path / ("e.bin" if fmt == "bin" else "e.json")
        return path, lambda: read_embeddings(tmp_path / "e.json")
    path = tmp_path / f"{fmt}.wrmd"
    if fmt == "backbone":
        save_backbone(path, init_backbone((3, 4, 2), seed=0), seed=0)
        return path, lambda: load_backbone(path)
    if fmt == "codebook":
        save_codebook(path, init_codebook(2, 3, seed=0), seed=0)
        return path, lambda: load_codebook(path)
    if fmt == "kmeans":
        save_cluster_model(path, fit_kmeans(rng.normal(size=(6, 3)), 2, seed=0), seed=0)
        return path, lambda: load_cluster_model(path)
    if fmt == "labels":
        arrays = {**_KEPT, "descriptors": np.ones((3, 2)), "rejected": np.array([2])}
        save_model(path, "labels", {"rho": 0.9, "seed": 0}, arrays)
        return path, lambda: load_labels(path)
    save_pca(path, fit_pca(rng.normal(size=(5, 3)), 2))
    return path, lambda: load_pca(path)


@pytest.mark.parametrize("fmt", ["wrds", "bin", "wrmd"])
def test_every_strict_prefix_raises_artifact_error(tmp_path, fmt):
    path, read = _tiny_binary_file(tmp_path, fmt)
    raw = path.read_bytes()
    read()  # the whole file reads
    for size in range(len(raw)):
        path.write_bytes(raw[:size])
        with pytest.raises(ArtifactIOError):
            read()


# (kind, offset, value): xor a byte with value, set it to value, or cut
# the file at offset; offsets wrap around the file's length
_MUTATION = st.tuples(
    st.sampled_from(["flip", "set", "truncate"]), st.integers(0, 2**16), st.integers(1, 255)
)


def _mutate(raw: bytes, mutations) -> bytes:
    out = bytearray(raw)
    for kind, offset, value in mutations:
        if not out:
            break
        offset %= len(out)
        if kind == "truncate":
            del out[offset:]
        else:
            out[offset] = out[offset] ^ value if kind == "flip" else value
    return bytes(out)


@pytest.mark.parametrize(
    "fmt", ["wrds", "bin", "sidecar", "backbone", "codebook", "wrmd", "kmeans", "labels"]
)
def test_corrupt_bytes_raise_only_artifact_or_validation_errors(tmp_path, fmt):
    path, read = _tiny_binary_file(tmp_path, fmt)
    raw = path.read_bytes()
    read()  # the whole file reads

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_MUTATION, min_size=1, max_size=3))
    def corrupted(mutations):
        path.write_bytes(_mutate(raw, mutations))
        with suppress(ArtifactIOError, ValidationError):  # anything else fails the test
            read()

    corrupted()


_WRITERS = [
    lambda path, n: write_json(path, {"values": list(range(n))}),
    lambda path, n: write_descriptors(path, np.ones((n, 3))),
    lambda path, n: save_model(path, "pca", {}, {"basis": np.ones((n, 3))}),
]


class _FullDisk:
    """A file handle whose write stores half of its data, then fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("write", _WRITERS, ids=["json", "matrix", "model"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, write, existing):
    path = tmp_path / "artifact"
    if existing:
        write(path, 2)
    before = path.read_bytes() if existing else None
    monkeypatch.setattr(
        fileio, "open", lambda *a, **kw: _FullDisk(builtins.open(*a, **kw)), raising=False
    )
    with pytest.raises(OSError, match="No space left"):
        write(path, 50)
    assert [p.name for p in tmp_path.iterdir()] == (["artifact"] if existing else [])
    if existing:
        assert path.read_bytes() == before


@pytest.mark.parametrize("write", _WRITERS, ids=["json", "matrix", "model"])
def test_write_renames_a_sibling_temp_file_over_the_target(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    write(path, 2)
    replaced = []
    real_replace = fileio.os.replace

    def recording_replace(src, dst):
        replaced.append((Path(src), Path(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(fileio.os, "replace", recording_replace)
    write(path, 5)
    [(src, dst)] = replaced
    # a rename within one directory stays on one file system, so it is atomic
    assert dst == path and src.parent == tmp_path
    assert src.name.startswith(".artifact.") and src.name.endswith(".tmp")
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_write_atomic_replaces_a_longer_file_whole(tmp_path):
    path = tmp_path / "artifact"
    fileio.write_atomic(path, b"0123456789")
    fileio.write_atomic(path, b"abc")
    assert path.read_bytes() == b"abc"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_unwritable_later_chunk_leaves_no_partial_file(tmp_path, existing):
    """The first chunk is written, the second is no C-contiguous buffer:
    the target keeps its old bytes, or stays absent, and no temp file is
    left."""
    path = tmp_path / "artifact"
    if existing:
        fileio.write_atomic(path, b"old bytes")
    with pytest.raises(ValueError, match="not C-contiguous"):
        fileio.write_atomic(path, b"header", np.arange(10.0)[::2])
    assert [p.name for p in tmp_path.iterdir()] == (["artifact"] if existing else [])
    if existing:
        assert path.read_bytes() == b"old bytes"


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
        save_manifest(tmp_path / "m.json", "demo", records)
        manifest = load_manifest(tmp_path / "m.json")
        assert manifest.dataset == "demo"
        assert [p.page_id for p in manifest.pages] == ["p0", "p1", "p2"]
        assert "split" not in json.loads((tmp_path / "m.json").read_text())

    def test_manifest_with_a_split_still_loads(self, tmp_path):
        """Manifests written before the split was dropped hold one; it is
        not read, whatever its value."""
        records = self._write_pages(tmp_path)
        save_manifest(tmp_path / "m.json", "demo", records)
        doc = json.loads((tmp_path / "m.json").read_text())
        for split in ("test", "train", "dev"):
            (tmp_path / "old.json").write_text(json.dumps({**doc, "split": split}))
            assert load_manifest(tmp_path / "old.json") == load_manifest(tmp_path / "m.json")

    def test_duplicate_page_id(self, tmp_path):
        records = self._write_pages(tmp_path, n=2)
        dup = [records[0], PageRecord("p0", "w1", records[1].descriptor_file)]
        save_manifest(tmp_path / "m.json", "demo", dup)
        with pytest.raises(ValidationError, match="duplicate"):
            load_manifest(tmp_path / "m.json")

    def test_missing_descriptor_file(self, tmp_path):
        records = self._write_pages(tmp_path, n=2)
        records.append(PageRecord("p9", "w0", "absent.wrds"))
        save_manifest(tmp_path / "m.json", "demo", records)
        with pytest.raises(ArtifactIOError, match="absent.wrds"):
            load_manifest(tmp_path / "m.json")

    def test_descriptor_cap(self, tmp_path):
        rows = fileio.DESCRIPTOR_CAP + 7
        data = np.random.default_rng(3).normal(size=(rows, 4)).astype(np.float32)
        write_descriptors(tmp_path / "big.wrds", data)
        save_manifest(
            tmp_path / "m.json", "demo", [PageRecord("p0", "w0", "big.wrds")]
        )
        manifest = load_manifest(tmp_path / "m.json")
        [(record, capped)] = load_page_descriptors(manifest)
        assert record.page_id == "p0" and len(capped) == fileio.DESCRIPTOR_CAP
        np.testing.assert_array_equal(capped, data[: fileio.DESCRIPTOR_CAP])

    def test_truncated_page_holds_only_its_kept_rows(self, tmp_path):
        """A page cut to DESCRIPTOR_CAP rows does not keep the buffer of
        every row read."""
        data = np.ones((fileio.DESCRIPTOR_CAP + 3000, 4), dtype=np.float32)
        write_descriptors(tmp_path / "big.wrds", data)
        save_manifest(
            tmp_path / "m.json", "demo", [PageRecord("p0", "w0", "big.wrds")]
        )
        [(_, capped)] = load_page_descriptors(load_manifest(tmp_path / "m.json"))
        owner = capped if capped.base is None else capped.base
        assert owner.nbytes == fileio.DESCRIPTOR_CAP * 4 * 4


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

    def test_oracle_leaves_each_page_out_of_its_writers_centroid(self, tmp_path):
        """Page means 0 and 2 (writer a), 4.5 and 10 (writer b). Page 4.5
        is 5.5 from b's other page and 3.5 from a's centroid 1, so it is
        misclassified; it would not be with itself in b's centroid. The
        other three pages are nearest their own writer."""
        records = []
        for writer, values in (("a", (0.0, 2.0)), ("b", (4.5, 10.0))):
            for p, value in enumerate(values):
                rel = f"{writer}{p}.wrds"
                write_descriptors(tmp_path / rel, np.full((2, 3), value, dtype=np.float32))
                records.append(PageRecord(f"{writer}{p}", writer, rel))
        save_manifest(tmp_path / "m.json", "demo", records)
        assert nearest_centroid_accuracy(load_manifest(tmp_path / "m.json")) == 0.75

    def test_oracle_on_a_low_separability_spec(self, tmp_path):
        # 10 of 20 pages, the value of the former per-pair loop
        spec = _tiny_spec(n_writers=5, pages_per_writer=4, writer_style_strength=0.2, seed=3)
        manifest = load_manifest(synth_generate(spec, tmp_path))
        assert nearest_centroid_accuracy(manifest) == 0.5

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
        _, arrays = load_model(run / "labels.wrmd", "labels")
        assert sorted(arrays) == ["descriptors", "kept", "labels"]
        assert pca.basis.shape == (16, 64)
        assert kmeans.centers.shape == (6, 16)
        assert descriptors.shape == (480, 16)
        assert meta["rho"] == 0.9
        n_rejected = read_json(run / "cluster_report.json")["n_rejected"]
        assert 0 < n_rejected == 480 - len(labeled.kept_indices)
        assert np.all(labeled.labels >= 0) and np.all(labeled.labels < 6)

    def test_cluster_report_counts_the_kmeans_run(self, workspace):
        report = read_json(workspace["run"] / "cluster_report.json")
        descriptors = load_labels(workspace["run"] / "labels.wrmd")[1]
        fit = fit_kmeans(descriptors, 6, seed=derive_seed(SEED, "cluster/kmeans"))
        counted = (report["iterations"], report["converged"], report["empty_reseeds"])
        assert KmeansRun(*counted) == fit.run

    def test_cluster_peak_memory(self, tmp_path):
        """tracemalloc peak of the cluster stage above its start, in units
        of one (n, 64) float64 descriptor matrix, with n not a multiple of
        NEAREST_CHUNK. Two phases hold 1.5 units: the float32 pages beside
        the normalized matrix while it is filled, and the normalized
        matrix, centered in place, beside the (n, 32) projection."""
        spec = _tiny_spec(n_writers=8, pages_per_writer=5, descriptors_per_page=251, seed=23)
        manifest = run_synth(spec, tmp_path / "data")
        n = 8 * 5 * 251
        assert n % NEAREST_CHUNK
        cfg = ClusterConfig(n_clusters=16, target_dim=32, seed=SEED)
        peak = traced_peak(lambda: run_cluster(manifest, tmp_path / "run", cfg))
        assert peak < 1.6 * n * 64 * 8

    def test_cluster_artifacts_match_the_copying_fit(self, tmp_path, monkeypatch):
        """The stage's artifacts are byte for byte those of its former
        fit_pca-then-pca_transform body, on n not a multiple of
        NEAREST_CHUNK."""
        spec = _tiny_spec(n_writers=7, pages_per_writer=3, descriptors_per_page=83, seed=29)
        manifest = run_synth(spec, tmp_path / "data")
        assert (7 * 3 * 83) % NEAREST_CHUNK and 7 * 3 * 83 > NEAREST_CHUNK
        cfg = ClusterConfig(n_clusters=8, target_dim=32, seed=SEED)
        run_cluster(manifest, tmp_path / "in_place", cfg)
        monkeypatch.setattr(stages, "fit_transform_pca_in_place", cluster_fit_project_oracle)
        run_cluster(manifest, tmp_path / "copying", cfg)
        for name in ("pca.wrmd", "kmeans.wrmd", "labels.wrmd", "cluster_report.json"):
            assert (tmp_path / "in_place" / name).read_bytes() == (
                tmp_path / "copying" / name
            ).read_bytes(), name

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

    def test_train_report_is_what_run_train_returns(self, workspace, tmp_path):
        """Every TrainReport field, its tuples as JSON lists."""
        report = run_train(workspace["run"] / "labels.wrmd", tmp_path, _tiny_train_cfg())
        assert report == read_json(tmp_path / "train_report.json")
        assert set(report) == {f.name for f in fields(TrainReport)} | {"config_hash", "seed"}

    def test_backbone_dims_config_hash_is_stable(self, workspace, tmp_path):
        # backbone_dims is hashed as a JSON array, so a tuple and a list
        # hash alike. The pins changed when TrainConfig lost its "mining"
        # field (was 55e222c5... and 7240e406...), again when it lost
        # "mode" and "alpha_init" (was c430b454... and 6217f553...), and
        # again when TrainConfig lost "val_pool_cap", ClusterConfig "cap"
        # and EncodeConfig "power_alpha", "cap" and "seed" (was
        # b5c0d7cd... and ae57a7dd...); each time the pins became the old
        # configs' hashes with those keys left out
        short = dict(epochs_max=1, warmup_epochs=0, max_steps=2)
        run_cluster(
            workspace["manifest"], tmp_path, ClusterConfig(n_clusters=6, target_dim=32, seed=SEED)
        )
        train_cfg = _tiny_train_cfg(backbone_dims=(32, 48, 64), **short)
        report = run_train(tmp_path / "labels.wrmd", tmp_path, train_cfg)
        assert report["config_hash"] == "e32dc5566dbdc96ba2396783e21a4b4183fc42065454070cf7c883a2723d84aa"
        report = run_report(
            workspace["manifest"],
            tmp_path / "report",
            seeds=[1],
            cluster_cfg=ClusterConfig(n_clusters=6, target_dim=16),
            train_cfg=_tiny_train_cfg(backbone_dims=(16, 24, 32), **short),
            encode_cfg=EncodeConfig(page_dim=8),
        )
        assert report["config_hash"] == "033d1636f355f784df98c6764e8c2c1d4b35d0e7b9820116608497c41b0ca571"

    def test_synth_config_hash_is_stable(self, tmp_path):
        # per-writer page counts are hashed as a JSON array; the hash
        # earlier versions wrote
        spec = SynthSpec(n_writers=4, pages_per_writer=(3, 3, 4, 3), descriptors_per_page=40)
        run_synth(spec, tmp_path)
        report = json.loads((tmp_path / "synth_report.json").read_text())
        assert report["config_hash"] == "6aa32d06d83f405c28b0fdf50b9071b4acafed5b4d9e76e00a0cbfb5ad90042c"

    def test_encode_output(self, workspace):
        pages, _ = read_embeddings(workspace["embeddings"])
        assert len(pages) == 12 and all(len(page.vector) == 8 for page in pages)
        assert sorted(read_json(workspace["embeddings"])) == ["blob", "config_hash", "dim", "pages"]
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

    def test_encode_never_builds_the_patch_stack(self, workspace, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("encode built an (n, K, D) patch stack")

        monkeypatch.setattr("wret.stages.encode_patches", refuse)
        monkeypatch.setattr("wret.encoder.encode_patches", refuse)
        out = run_encode(workspace["manifest"], workspace["run"], tmp_path, workspace["ecfg"])
        assert out.with_suffix(".bin").read_bytes() == (
            workspace["embeddings"].with_suffix(".bin").read_bytes()
        )

    def test_encode_with_prefit_page_pca(self, workspace, tmp_path):
        cfg = EncodeConfig(page_dim=8, page_pca=str(workspace["run"] / "page_pca.wrmd"))
        path = run_encode(workspace["manifest"], workspace["run"], tmp_path, cfg)
        pages, _ = read_embeddings(path)
        base, _ = read_embeddings(workspace["embeddings"])
        for got, orig in zip(pages, base):
            np.testing.assert_allclose(got.vector, orig.vector, atol=1e-12)

    def test_encode_hashes_the_prefit_page_pca_by_content(self, workspace, tmp_path):
        """The same page PCA reached through two paths hashes alike; a
        different one at the same path hashes differently."""
        original = workspace["run"] / "page_pca.wrmd"
        copy = tmp_path / "elsewhere" / "page_pca.wrmd"
        copy.parent.mkdir()
        shutil.copyfile(original, copy)

        def encode_hash(page_pca: Path, out: str) -> str:
            cfg = EncodeConfig(page_dim=8, page_pca=str(page_pca))
            path = run_encode(workspace["manifest"], workspace["run"], tmp_path / out, cfg)
            return read_json(path)["config_hash"]

        first = encode_hash(original, "a")
        assert encode_hash(copy, "b") == first
        pca = load_pca(copy)
        save_pca(copy, PcaModel(pca.mean + 1e-3, pca.basis, pca.scale))
        assert encode_hash(copy, "c") != first
        # Without a prefit model the hash is the config's alone.
        assert read_json(workspace["embeddings"])["config_hash"] == stages._stage_hash(
            "encode", {"page_dim": 8, "page_pca": None}
        )

    def test_encode_hashes_the_page_pca_it_read(self, workspace, tmp_path, monkeypatch):
        """A page PCA replaced while the pages are encoded does not change
        the hash: it names the model that was used."""
        page_pca = tmp_path / "page_pca.wrmd"
        shutil.copyfile(workspace["run"] / "page_pca.wrmd", page_pca)
        original = page_pca.read_bytes()
        pca = load_pca(page_pca)
        other = tmp_path / "other.wrmd"
        save_pca(other, PcaModel(pca.mean + 1e-3, pca.basis, pca.scale))
        forward = stages.backbone_forward

        def swap_then_forward(*args):
            if other.exists():
                os.replace(other, page_pca)
            return forward(*args)

        monkeypatch.setattr(stages, "backbone_forward", swap_then_forward)
        cfg = EncodeConfig(page_dim=8, page_pca=str(page_pca))
        path = run_encode(workspace["manifest"], workspace["run"], tmp_path / "out", cfg)
        assert not other.exists() and page_pca.read_bytes() != original
        hashed = {"page_dim": 8, "page_pca": hashlib.sha256(original).hexdigest()}
        assert read_json(path)["config_hash"] == stages._stage_hash("encode", hashed)

    def test_encode_reads_the_page_pca_once(self, workspace, tmp_path, monkeypatch):
        page_pca = (workspace["run"] / "page_pca.wrmd").resolve()
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == page_pca:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        cfg = EncodeConfig(page_dim=8, page_pca=str(page_pca))
        run_encode(workspace["manifest"], workspace["run"], tmp_path, cfg)
        assert len(opened) == 1

    def test_evaluate_stage(self, workspace, tmp_path):
        report = run_evaluate(workspace["embeddings"], tmp_path, per_query=True)
        assert 0.0 <= report["map"] <= 1.0
        assert report["query_count"] == 12
        assert "seed" not in report  # encode draws no random numbers, so records no seed
        csv_text = (tmp_path / "eval_per_query.csv").read_text()
        assert csv_text.splitlines()[0] == "query,ap,top1_hit,first_relevant_rank"
        assert len(csv_text.splitlines()) == 13

    def test_evaluate_without_per_query_removes_an_earlier_csv(self, workspace, tmp_path):
        run_evaluate(workspace["embeddings"], tmp_path, per_query=True)
        assert (tmp_path / "eval_per_query.csv").exists()
        run_evaluate(workspace["embeddings"], tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eval_report.json"]

    def test_evaluate_two_isolated_pages(self, tmp_path):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]])
        pages = [
            PageEmbedding(page_id=f"p{i}", writer_id=f"w{i}", vector=v)
            for i, v in enumerate(vecs)
        ]
        write_embeddings(tmp_path / "emb.json", pages, "h")
        report = run_evaluate(tmp_path / "emb.json", tmp_path / "out")
        assert report["query_count"] == 2
        assert sorted(report["isolated_queries"]) == ["p0", "p1"]

    def test_rerank_stage(self, workspace, tmp_path):
        cfg = RerankConfig(method="sgr", k=2, layers=1, gamma=0.4)
        report = run_rerank(workspace["embeddings"], tmp_path, cfg)
        assert report["params"]["method"] == "sgr" and "method" not in report
        assert 0.0 <= report["after"]["map"] <= 1.0
        pages, meta = read_embeddings(tmp_path / "reranked.json")
        assert len(pages) == 12
        assert meta["config_hash"] == report["config_hash"]
        # rerank draws no random numbers
        assert "seed" not in report and "seed" not in read_json(tmp_path / "reranked.json")

    @pytest.mark.parametrize("method", ["sgr", "krnn_qe", "hard_graph"])
    def test_rerank_report_counts_per_query_changes(self, workspace, tmp_path, method):
        cfg = RerankConfig(method=method, k=2, layers=1, gamma=0.4)
        report = run_rerank(workspace["embeddings"], tmp_path / "a", cfg)
        run_rerank(workspace["embeddings"], tmp_path / "b", cfg)
        block = report["per_query"]
        assert set(block) == {"improved", "worsened", "unchanged", "largest_drop"}
        scored = run_evaluate(workspace["embeddings"], tmp_path / "eval")["per_query"]
        assert block["improved"] + block["worsened"] + block["unchanged"] == len(scored)
        if block["worsened"]:
            assert set(block["largest_drop"]) == {"query", "delta"}
            assert block["largest_drop"]["delta"] < 0.0
        else:
            assert block["largest_drop"] is None
        assert (tmp_path / "a" / "rerank_report.json").read_bytes() == (
            tmp_path / "b" / "rerank_report.json"
        ).read_bytes()

    def test_largest_drop_ties_go_to_the_lowest_page_id(self):
        before = {"p2": 0.5, "p0": 1.0, "p1": 0.75, "p3": 0.5}
        after = {"p2": 0.25, "p0": 1.0, "p1": 0.5, "p3": 1.0}
        assert _ap_changes(before, after) == {
            "improved": 1,
            "worsened": 2,
            "unchanged": 1,
            "largest_drop": {"query": "p1", "delta": -0.25},
        }
        assert _ap_changes(before, before)["largest_drop"] is None

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

    @pytest.mark.parametrize("method", ["sgr", "hard_graph", "krnn_qe"])
    def test_sweep_csv_equals_one_rerank_per_grid_point(self, tmp_path, method):
        """run_sweep walks (gamma, k) chains and continues their layers; its
        CSV is byte-equal to scoring every grid point on its own with
        rerank + rank_all + evaluate, in grid order, the duplicate gamma
        0.4 included. 60 pages of 4 per writer, dimension 8."""
        rng = np.random.default_rng(23)
        vectors = rng.normal(size=(60, 8))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        written = [PageEmbedding(f"p{i:03d}", f"w{i // 4:02d}", v) for i, v in enumerate(vectors)]
        (tmp_path / "enc").mkdir()
        write_embeddings(tmp_path / "enc" / "embeddings.json", written, "h")
        pages, _ = read_embeddings(tmp_path / "enc" / "embeddings.json")
        grid = {"gammas": [0.4, 1.0, 0.25, 0.4], "layers_grid": [3, 1, 2], "ks": [2, 1]}
        path = run_sweep(tmp_path / "enc" / "embeddings.json", tmp_path / "sw", **grid, method=method)
        writers = {p.page_id: p.writer_id for p in pages}
        want = ["gamma,layers,k,map,top1"]
        for gamma in grid["gammas"]:
            for layers in grid["layers_grid"]:
                for k in grid["ks"]:
                    cfg = RerankConfig(method=method, k=k, layers=layers, gamma=gamma)
                    result = evaluate(rank_all(rerank(pages, cfg)), writers)
                    want.append(f"{gamma!r},{layers},{k},{result.map!r},{result.top1!r}")
        assert path.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")

    def test_sweep_empty_grid(self, workspace, tmp_path):
        with pytest.raises(ValidationError, match="empty"):
            run_sweep(workspace["embeddings"], tmp_path, [], [1], [1])

    @pytest.mark.parametrize(
        "run, csv_name, header",
        [
            (
                lambda emb, out: run_evaluate(emb, out, per_query=True),
                "eval_per_query.csv", "query,ap,top1_hit,first_relevant_rank",
            ),
            (
                lambda emb, out: run_sweep(emb, out, [0.4], [1], [1]),
                "sweep.csv", "gamma,layers,k,map,top1",
            ),
        ],
        ids=["evaluate", "sweep"],
    )
    def test_stage_csv_is_written_atomically(
        self, workspace, tmp_path, monkeypatch, run, csv_name, header
    ):
        written = []
        real_write = stages.write_atomic

        def recording_write(path, data):
            written.append(Path(path).name)
            real_write(path, data)

        monkeypatch.setattr(stages, "write_atomic", recording_write)
        run(workspace["embeddings"], tmp_path)
        assert csv_name in written
        assert (tmp_path / csv_name).read_text().splitlines()[0] == header

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

    @pytest.mark.parametrize(
        "missing, producer",
        [
            ("manifest", "synth"),
            ("pca.wrmd", "cluster"),
            ("backbone.wrmd", "train"),
            ("codebook.wrmd", "train"),
            ("page_pca", "encode"),
        ],
        ids=["manifest", "pca", "backbone", "codebook", "page_pca"],
    )
    def test_missing_encode_input_names_producer(self, workspace, tmp_path, missing, producer):
        models = tmp_path / "models"
        models.mkdir()
        for name in ("pca.wrmd", "backbone.wrmd", "codebook.wrmd"):
            if name != missing:
                shutil.copy(workspace["run"] / name, models / name)
        manifest = tmp_path / "manifest.json" if missing == "manifest" else workspace["manifest"]
        page_pca = str(tmp_path / "page_pca.wrmd") if missing == "page_pca" else None
        out = tmp_path / "out"
        with pytest.raises(ArtifactIOError, match=f"'{producer}' stage"):
            run_encode(manifest, models, out, EncodeConfig(page_dim=8, page_pca=page_pca))
        assert not out.exists()

    @pytest.mark.parametrize(
        "stage, message",
        [
            (
                lambda ws, out: run_cluster(ws["manifest"], out, ClusterConfig(n_clusters=481)),
                "n_clusters",
            ),
            (
                lambda ws, out: run_encode(ws["manifest"], ws["run"], out, EncodeConfig(page_dim=12)),
                "pages - 1",
            ),
        ],
        ids=["cluster", "encode"],
    )
    def test_failed_stage_removes_the_output_directory_it_created(
        self, workspace, tmp_path, stage, message
    ):
        # 480 descriptors and 12 pages: the config is valid, the data too small
        out = tmp_path / "new" / "out"
        with pytest.raises(ValidationError, match=message):
            stage(workspace, out)
        assert not out.exists()
        assert (tmp_path / "new").is_dir()  # parents the stage created are kept

    def test_output_lock_rejects_concurrent(self, tmp_path):
        with output_lock(tmp_path):
            assert (tmp_path / ".wret.lock").read_text() == str(os.getpid())
            held = rf"another invocation \(pid {os.getpid()}\)"
            with pytest.raises(ArtifactIOError, match=held):
                with output_lock(tmp_path):
                    pass
        # released on exit
        with output_lock(tmp_path):
            pass
        assert not (tmp_path / ".wret.lock").exists()

    @pytest.mark.parametrize("retaken", [False, True], ids=["unlinked", "retaken"])
    def test_output_lock_refuses_a_lock_file_its_holder_unlinked(
        self, tmp_path, monkeypatch, retaken
    ):
        # the holder releases between the contender's open and its flock, so
        # the contender locks a file that no longer guards the directory;
        # meanwhile a third run may have taken a new lock file at the path
        holder = ExitStack()
        holder.enter_context(output_lock(tmp_path))
        flock = fcntl.flock

        def release_then_flock(fd, operation):
            monkeypatch.setattr(fcntl, "flock", flock)
            holder.close()
            if retaken:
                holder.enter_context(output_lock(tmp_path))
            flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", release_then_flock)
        with pytest.raises(ArtifactIOError, match=rf"another invocation \(pid {os.getpid()}\)"):
            with output_lock(tmp_path):
                pass
        assert (tmp_path / ".wret.lock").exists() == retaken  # the third run's lock is kept
        holder.close()
        assert not (tmp_path / ".wret.lock").exists()

    def test_output_lock_removes_only_an_empty_directory_it_created(self, tmp_path):
        fresh, existing, written = tmp_path / "fresh", tmp_path / "existing", tmp_path / "written"
        existing.mkdir()
        for out in (fresh, existing, written):
            with pytest.raises(RuntimeError):
                with output_lock(out):
                    if out == written:
                        (out / "partial.json").write_text("{}")
                    raise RuntimeError("stage failed")
        assert not fresh.exists()
        assert existing.is_dir() and not any(existing.iterdir())
        assert [p.name for p in written.iterdir()] == ["partial.json"]


def _lock_holding_child(out: Path) -> subprocess.Popen:
    """A Python process that holds the output lock on out until it is killed."""
    code = (
        "import sys, time\n"
        "from pathlib import Path\n"
        "from wret.stages import output_lock\n"
        "with output_lock(Path(sys.argv[1])):\n"
        "    print('held', flush=True)\n"
        "    time.sleep(600)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(stages.__file__).resolve().parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-c", code, str(out)], stdout=subprocess.PIPE, text=True, env=env
    )
    assert child.stdout.readline() == "held\n"
    return child


# test_acceptance's test_8 chain, plus every rerank method and a sweep; the
# child prints whether any numpy.ma module was imported.
_CHAIN = """
import sys
from pathlib import Path
from wret.rerank import METHODS, RerankConfig
from wret.stages import (
    ClusterConfig, EncodeConfig, run_cluster, run_encode, run_evaluate, run_rerank,
    run_sweep, run_synth, run_train,
)
from wret.synth import SynthSpec
from wret.trainer import TrainConfig

root = Path(sys.argv[1])
spec = SynthSpec(
    n_writers=4, pages_per_writer=3, descriptors_per_page=40, n_prototypes=8,
    writer_style_strength=4.0, noise_sigma=1.0, seed=11,
)
manifest = run_synth(spec, root / "data")
run_cluster(manifest, root / "run", ClusterConfig(n_clusters=6, target_dim=16, seed=11))
run_train(
    root / "run" / "labels.wrmd", root / "run",
    TrainConfig(
        batch_size=8, per_class=4, epochs_max=2, warmup_epochs=1, patience=2, max_steps=25,
        seed=11,
    ),
)
embeddings = run_encode(manifest, root / "run", root / "enc", EncodeConfig(page_dim=8))
run_evaluate(embeddings, root / "eval", per_query=True)
for method in METHODS:
    run_rerank(embeddings, root / method, RerankConfig(method=method, k=2, layers=1, gamma=0.4))
run_sweep(embeddings, root / "sweep", gammas=[0.4, 1.0], layers_grid=[1, 2], ks=[1, 2])
print(any(name == "numpy.ma" or name.startswith("numpy.ma.") for name in sys.modules))
"""


def test_chain_is_byte_identical_across_processes_and_hash_seeds(tmp_path):
    """Two processes with different string hashing write the same bytes,
    and neither imports numpy.ma (a values-only np.unique, np.setdiff1d
    among its callers, imports it: a cost in time and memory)."""
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": str(Path(stages.__file__).resolve().parents[1]),
    }
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _CHAIN, str(tmp_path / seed)],
            stdout=subprocess.PIPE,
            text=True,
            env={**env, "PYTHONHASHSEED": seed},
        )
        for seed in ("1", "2")
    ]
    outputs = [child.communicate(timeout=120)[0] for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert outputs == ["False\n", "False\n"]
    first, second = (
        {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
        for root in (tmp_path / "1", tmp_path / "2")
    )
    assert len(first) > 30 and sorted(first) == sorted(second)
    assert [name for name in first if first[name] != second[name]] == []


def _with_last_bytes(value: bytes):
    """Overwrite a file's last bytes with value."""
    return lambda path: path.write_bytes(path.read_bytes()[: -len(value)] + value)


def _with_nan_in(kind: str, name: str):
    """Rewrite a model file with NaN as the first value of array name."""

    def corrupt(path: Path) -> None:
        meta, arrays = load_model(path, kind)
        arrays[name].flat[0] = np.nan
        save_model(path, kind, meta, arrays)

    return corrupt


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
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rho": 0.5, "n_clusters": 6, "target_dim": 16}))
        code = entrypoint(
            [
                "cluster", "--manifest", str(workspace["manifest"]),
                "--out", str(tmp_path / "a"), "--config", str(cfg_path),
            ]
        )
        assert code == 0
        meta, _ = load_model(tmp_path / "a" / "labels.wrmd", "labels")
        assert meta["rho"] == 0.5
        code = entrypoint(
            [
                "cluster", "--manifest", str(workspace["manifest"]),
                "--out", str(tmp_path / "b"), "--config", str(cfg_path),
                "--rho", "0.8",
            ]
        )
        assert code == 0
        meta, _ = load_model(tmp_path / "b" / "labels.wrmd", "labels")
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

    @pytest.mark.parametrize(
        "command,flags,config,message",
        [
            ("train", [], {"validation_fraction": 1.0}, "validation_fraction"),
            ("train", ["--backbone-dims", "16,-1"], {}, "backbone_dims"),
            ("train", ["--backbone-dims", ""], {}, "backbone_dims"),
            ("train", ["--learning-rate", "-1"], {}, "learning_rate"),
            ("train", ["--learning-rate", "nan"], {}, "learning_rate"),
            ("rerank", ["--gamma", "nan"], {}, "gamma"),
            ("sweep", [], {"method": "bogus"}, "method"),
            ("sweep", ["--ks", "2,0"], {}, "k and layers"),
            # valid values the tiny collection (12 pages, 6 classes) cannot serve
            ("train", [], {"batch_size": 128}, "insufficient classes"),
            ("rerank", ["--k", "50"], {}, "k + 1 pages"),
            ("sweep", ["--ks", "50"], {}, "k + 1 pages"),
        ],
    )
    def test_invalid_value_exits_one_before_writing(
        self, workspace, tmp_path, capsys, command, flags, config, message
    ):
        if command == "train":
            # sizes the tiny collection can train on, so only the bad value fails
            config = {
                "batch_size": 8, "per_class": 4, "epochs_max": 1, "warmup_epochs": 0,
                "max_steps": 2, "n_clusters": 6, **config,
            }
            inputs = ["--labels", str(workspace["run"] / "labels.wrmd")]
        else:
            inputs = ["--embeddings", str(workspace["embeddings"])]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = entrypoint(
            [command, *inputs, "--out", str(out), "--config", str(cfg_path), *flags]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not out.exists()

    def test_page_pca_of_other_dim_exits_one_before_writing(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        code = entrypoint(
            [
                "encode", "--manifest", str(workspace["manifest"]),
                "--models", str(workspace["run"]), "--out", str(out), "--page-dim", "6",
                "--page-pca", str(workspace["run"] / "page_pca.wrmd"),  # an 8-d model
            ]
        )
        assert code == 1
        assert "target_dim 6" in capsys.readouterr().err
        assert not out.exists()

    def test_page_without_descriptors_exits_one_naming_it(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workspace["manifest"].parent, data)
        manifest = load_manifest(data / "manifest.json")
        empty = manifest.pages[4]
        dim = read_descriptors(manifest.descriptor_path(empty)).shape[1]
        write_descriptors(manifest.descriptor_path(empty), np.zeros((0, dim)))
        out = tmp_path / "out"
        code = entrypoint(
            [
                "encode", "--manifest", str(data / "manifest.json"),
                "--models", str(workspace["run"]), "--out", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"page {empty.page_id} has no descriptors" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, artifact, arrays, meta",
        [
            (
                "train", "labels.wrmd",
                lambda a: {**a, "kept": a["kept"] + len(a["descriptors"])}, {},
            ),
            ("train", "labels.wrmd", lambda a: {**a, "labels": a["labels"][:-1]}, {}),
            ("encode", "pca.wrmd", lambda a: {**a, "basis": a["basis"][:, 1:]}, {}),
            ("encode", "codebook.wrmd", lambda a: {**a, "weights": a["weights"][:, 1:]}, {}),
            # an encoder mode this version no longer implements
            ("encode", "codebook.wrmd", lambda a: a, {"mode": "netvlad"}),
            (
                "encode", "backbone.wrmd",
                lambda a: {**a, "layer0.bias": np.append(a["layer0.bias"], 0.0)}, {},
            ),
            (
                "encode", "backbone.wrmd",
                lambda a: {**a, "layer1.weight": a["layer1.weight"][:, 1:]}, {},
            ),
        ],
        ids=[
            "kept-out-of-range", "labels-short", "pca-basis", "codebook-weights",
            "codebook-netvlad-mode", "backbone-bias", "backbone-chain",
        ],
    )
    def test_inconsistent_model_exits_two(
        self, workspace, tmp_path, capsys, command, artifact, arrays, meta
    ):
        models = tmp_path / "models"
        shutil.copytree(workspace["run"], models)
        kind = artifact.removesuffix(".wrmd")
        saved_meta, loaded = load_model(models / artifact, kind)
        save_model(models / artifact, kind, {**saved_meta, **meta}, arrays(loaded))
        inputs = {
            "train": ["--labels", str(models / "labels.wrmd")],
            "encode": ["--manifest", str(workspace["manifest"]), "--models", str(models)],
        }[command]
        out = tmp_path / "out"
        assert entrypoint([command, *inputs, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(models / artifact) in err and "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("flag", ["--embeddings", "--config"])
    def test_binary_json_input_exits_two(self, workspace, tmp_path, capsys, flag):
        args = {"--embeddings": str(workspace["embeddings"])}
        args[flag] = str(workspace["embeddings"].with_suffix(".bin"))
        code = entrypoint(["evaluate", *[arg for pair in args.items() for arg in pair], "--out", str(tmp_path)])
        assert code == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: 3,
            lambda doc: {**doc, "pages": ["p0", *doc["pages"][1:]]},
            lambda doc: {**doc, "pages": [{"writer_id": "w0"}, *doc["pages"][1:]]},
            lambda doc: {**doc, "pages": [{**doc["pages"][0], "writer_id": 7}, *doc["pages"][1:]]},
            lambda doc: {k: v for k, v in doc.items() if k != "config_hash"},
            lambda doc: {**doc, "config_hash": 7},
        ],
        ids=[
            "not-an-object", "page-not-an-object", "no-page-id", "numeric-writer-id",
            "no-config-hash", "numeric-config-hash",
        ],
    )
    def test_malformed_embeddings_sidecar_exits_two(self, workspace, tmp_path, capsys, edit):
        sidecar = tmp_path / "embeddings.json"
        sidecar.write_text(json.dumps(edit(json.loads(workspace["embeddings"].read_text()))))
        (tmp_path / "embeddings.bin").write_bytes(
            workspace["embeddings"].with_suffix(".bin").read_bytes()
        )
        code = entrypoint(["evaluate", "--embeddings", str(sidecar), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "expected type" in capsys.readouterr().err

    def test_embeddings_blob_in_another_directory_exits_two(self, workspace, tmp_path, capsys):
        sidecar = tmp_path / "B" / "embeddings.json"
        sidecar.parent.mkdir()
        doc = json.loads(workspace["embeddings"].read_text())
        sidecar.write_text(json.dumps({**doc, "blob": "../A/embeddings.bin"}))
        (tmp_path / "A").mkdir()
        (tmp_path / "A" / "embeddings.bin").write_bytes(
            workspace["embeddings"].with_suffix(".bin").read_bytes()
        )
        code = entrypoint(["evaluate", "--embeddings", str(sidecar), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not a bare file name" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "page",
        [
            {"page_id": "p0", "writer_id": "w0"},
            {"page_id": "p0", "descriptor_file": "p0.wrds"},
            {"page_id": 3, "writer_id": "w0", "descriptor_file": "p0.wrds"},
            {"page_id": "p0", "writer_id": "w0", "descriptor_file": ["p0.wrds"]},
        ],
    )
    def test_malformed_manifest_page_exits_two(self, tmp_path, capsys, page):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"dataset": "d", "pages": [page], "split": "train"}))
        code = entrypoint(["cluster", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "expected type" in capsys.readouterr().err

    @pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM], ids=["kill", "term"])
    def test_lock_of_a_killed_run_is_taken_over(self, workspace, tmp_path, signum):
        out = tmp_path / "out"
        child = _lock_holding_child(out)
        child.send_signal(signum)
        child.wait()
        child.stdout.close()
        assert (out / ".wret.lock").read_text() == str(child.pid)  # left behind
        code = entrypoint(
            ["evaluate", "--embeddings", str(workspace["embeddings"]), "--out", str(out)]
        )
        assert code == 0 and (out / "eval_report.json").exists()
        assert not (out / ".wret.lock").exists()

    def test_lock_held_by_a_live_process_exits_two_naming_it(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        child = _lock_holding_child(out)
        try:
            code = entrypoint(
                ["evaluate", "--embeddings", str(workspace["embeddings"]), "--out", str(out)]
            )
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
        assert code == 2
        err = capsys.readouterr().err
        assert f"another invocation (pid {child.pid}) holds {out / '.wret.lock'}" in err
        assert "Traceback" not in err
        assert [path.name for path in out.iterdir()] == [".wret.lock"]

    @pytest.mark.parametrize(
        "command, artifact, corrupt",
        [
            ("cluster", "data/pages/w001p02.wrds", _with_last_bytes(struct.pack("<f", np.nan))),
            ("evaluate", "run/embeddings.bin", _with_last_bytes(struct.pack("<d", np.inf))),
            ("encode", "run/pca.wrmd", _with_nan_in("pca", "mean")),
            ("train", "run/labels.wrmd", _with_nan_in("labels", "descriptors")),
        ],
        ids=["wrds", "bin", "pca", "labels"],
    )
    def test_non_finite_value_exits_two_naming_the_file(
        self, workspace, tmp_path, capsys, command, artifact, corrupt
    ):
        # no writer produces non-finite values, so a file holding one is corrupt
        shutil.copytree(workspace["manifest"].parent, tmp_path / "data")
        shutil.copytree(workspace["run"], tmp_path / "run")
        path = tmp_path / artifact
        corrupt(path)
        inputs = {
            "cluster": ["--manifest", str(tmp_path / "data" / "manifest.json")],
            "evaluate": ["--embeddings", str(tmp_path / "run" / "embeddings.json")],
            "encode": [
                "--manifest", str(tmp_path / "data" / "manifest.json"),
                "--models", str(tmp_path / "run"),
            ],
            "train": ["--labels", str(tmp_path / "run" / "labels.wrmd")],
        }[command]
        out = tmp_path / "out"
        assert entrypoint([command, *inputs, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path} holds non-finite values" in err and "Traceback" not in err
        assert not out.exists()

    def test_evaluate_and_rerank_commands(self, workspace, tmp_path, capsys):
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
        assert report["params"]["method"] == "krnn_qe"
        assert capsys.readouterr().out.splitlines()[-1].startswith("krnn_qe: mAP ")

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
