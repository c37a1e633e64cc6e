"""Binary artifact formats and JSON manifests.

Three little-endian binary containers share one family look:

* descriptor files: magic "WRDS", u32 version, u32 dim, u64 count,
  then count x dim float32 values.
* embedding dumps: magic "WREM", u32 version, u32 dim, u64 count,
  then count x dim float64 values, with a JSON sidecar listing the
  pages row by row.
* model files: magic "WRMD", u32 version, u64 header length, a
  canonical JSON header describing named arrays, then the raw blobs
  in header order.

All JSON emitted here is canonical (sorted keys) so that re-running a
stage with identical inputs reproduces artifacts byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import PageEmbedding
from .encoder import Backbone, Codebook, Layer
from .errors import ArtifactIOError, ValidationError
from .features import ClusterModel, PcaModel

MAGIC_DESCRIPTORS = b"WRDS"
MAGIC_EMBEDDINGS = b"WREM"
MAGIC_MODEL = b"WRMD"
FORMAT_VERSION = 1

SPLITS = ("train", "test")


# --------------------------------------------------------------------------
# JSON helpers


def canonical_json(obj) -> str:
    """Stable single-line JSON used for hashing and model headers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def write_json(path: Path | str, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def read_json(path: Path | str):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ArtifactIOError(f"missing file {path}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactIOError(f"{path} is not valid JSON: {exc}") from None


# --------------------------------------------------------------------------
# Descriptor files


def write_descriptors(path: Path | str, data: np.ndarray) -> None:
    """Dump a (count, dim) float32 matrix in the descriptor format."""
    data = np.asarray(data, dtype=np.float32)
    if data.ndim != 2 or data.shape[1] == 0:
        raise ValidationError("descriptor data must be a (count, dim) matrix")
    if not np.all(np.isfinite(data)):
        raise ValidationError("descriptor data must be finite")
    count, dim = data.shape
    header = MAGIC_DESCRIPTORS + struct.pack("<IIQ", FORMAT_VERSION, dim, count)
    Path(path).write_bytes(header + data.astype("<f4").tobytes(order="C"))


def read_descriptors(path: Path | str) -> np.ndarray:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise ArtifactIOError(f"missing file {path}") from None
    if len(raw) < 20 or raw[:4] != MAGIC_DESCRIPTORS:
        raise ArtifactIOError(f"{path} is not a descriptor file")
    version, dim, count = struct.unpack("<IIQ", raw[4:20])
    if version != FORMAT_VERSION:
        raise ArtifactIOError(f"{path}: unsupported version {version}")
    expected = 20 + count * dim * 4
    if len(raw) != expected:
        raise ArtifactIOError(f"{path} is truncated or padded")
    data = np.frombuffer(raw, dtype="<f4", count=count * dim, offset=20)
    return data.reshape(count, dim).astype(np.float32)


# --------------------------------------------------------------------------
# Embedding dumps


def write_embeddings(
    json_path: Path | str,
    pages: list[PageEmbedding],
    cfg_hash: str,
    seed: int,
) -> None:
    """Write a page-embedding dump: JSON sidecar plus binary blob."""
    json_path = Path(json_path)
    if not pages:
        raise ValidationError("embedding dump needs at least one page")
    dims = {p.vector.shape[0] for p in pages}
    if len(dims) != 1:
        raise ValidationError(f"embeddings have mixed dimensions {sorted(dims)}")
    dim = dims.pop()
    matrix = np.array([p.vector for p in pages], dtype="<f8")
    blob_path = json_path.with_suffix(".bin")
    header = MAGIC_EMBEDDINGS + struct.pack("<IIQ", FORMAT_VERSION, dim, len(pages))
    blob_path.write_bytes(header + matrix.tobytes(order="C"))
    sidecar = {
        "blob": blob_path.name,
        "config_hash": cfg_hash,
        "count": len(pages),
        "dim": dim,
        "pages": [
            {"page_id": p.page_id, "writer_id": p.writer_id} for p in pages
        ],
        "seed": seed,
    }
    write_json(json_path, sidecar)


def read_embeddings(json_path: Path | str) -> tuple[list[PageEmbedding], dict]:
    json_path = Path(json_path)
    sidecar = read_json(json_path)
    for key in ("blob", "count", "dim", "pages"):
        if key not in sidecar:
            raise ArtifactIOError(f"{json_path} is missing the '{key}' field")
    blob_path = json_path.parent / sidecar["blob"]
    try:
        raw = blob_path.read_bytes()
    except FileNotFoundError:
        raise ArtifactIOError(f"missing file {blob_path}") from None
    if len(raw) < 20 or raw[:4] != MAGIC_EMBEDDINGS:
        raise ArtifactIOError(f"{blob_path} is not an embedding blob")
    version, dim, count = struct.unpack("<IIQ", raw[4:20])
    if version != FORMAT_VERSION:
        raise ArtifactIOError(f"{blob_path}: unsupported version {version}")
    if dim != sidecar["dim"] or count != sidecar["count"]:
        raise ArtifactIOError(f"{blob_path} disagrees with its sidecar")
    if count != len(sidecar["pages"]):
        raise ArtifactIOError(f"{json_path} page list does not match count")
    expected = 20 + count * dim * 8
    if len(raw) != expected:
        raise ArtifactIOError(f"{blob_path} is truncated or padded")
    matrix = np.frombuffer(raw, dtype="<f8", count=count * dim, offset=20)
    matrix = matrix.reshape(count, dim).astype(np.float64)
    pages = [
        PageEmbedding(
            page_id=rec["page_id"],
            writer_id=rec["writer_id"],
            vector=matrix[i],
        )
        for i, rec in enumerate(sidecar["pages"])
    ]
    return pages, sidecar


# --------------------------------------------------------------------------
# Model files


def save_model(path: Path | str, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Persist named arrays with a JSON header; blob order follows the header."""
    entries = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype == np.float64:
            dtype = "<f8"
        elif arr.dtype == np.int64:
            dtype = "<i8"
        else:
            raise ValidationError(f"unsupported array dtype {arr.dtype} for {name}")
        entries.append({"dtype": dtype, "name": name, "shape": list(arr.shape)})
        blobs.append(arr.astype(dtype).tobytes(order="C"))
    header = canonical_json({"arrays": entries, "kind": kind, "meta": meta}).encode("utf-8")
    out = bytearray()
    out += MAGIC_MODEL
    out += struct.pack("<IQ", FORMAT_VERSION, len(header))
    out += header
    for blob in blobs:
        out += blob
    Path(path).write_bytes(bytes(out))


def _valid_array_entry(entry) -> bool:
    """A named <f8 or <i8 array whose shape lists non-negative ints."""
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and entry.get("dtype") in ("<f8", "<i8")
        and isinstance(entry.get("shape"), list)
        and all(type(extent) is int and extent >= 0 for extent in entry["shape"])
    )


def load_model(path: Path | str) -> tuple[str, dict, dict[str, np.ndarray]]:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise ArtifactIOError(f"missing file {path}") from None
    if len(raw) < 16 or raw[:4] != MAGIC_MODEL:
        raise ArtifactIOError(f"{path} is not a model file")
    version, header_len = struct.unpack("<IQ", raw[4:16])
    if version != FORMAT_VERSION:
        raise ArtifactIOError(f"{path}: unsupported version {version}")
    if len(raw) < 16 + header_len:
        raise ArtifactIOError(f"{path} is truncated")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ArtifactIOError(f"{path} has a corrupt header") from None
    if not (
        isinstance(header, dict)
        and isinstance(header.get("kind"), str)
        and isinstance(header.get("meta"), dict)
        and isinstance(header.get("arrays"), list)
        and all(_valid_array_entry(entry) for entry in header["arrays"])
    ):
        raise ArtifactIOError(f"{path} has a malformed header")
    offset = 16 + header_len
    arrays = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        dtype = np.dtype(entry["dtype"])
        size = math.prod(shape)
        nbytes = size * dtype.itemsize
        if offset + nbytes > len(raw):
            raise ArtifactIOError(f"{path} is truncated in array {entry['name']}")
        data = np.frombuffer(raw, dtype=dtype, count=size, offset=offset)
        arrays[entry["name"]] = data.reshape(shape).astype(dtype.base)
        offset += nbytes
    if offset != len(raw):
        raise ArtifactIOError(f"{path} has trailing bytes")
    return header["kind"], header["meta"], arrays


def save_backbone(path: Path | str, backbone: Backbone, seed: int) -> None:
    arrays = {}
    for i, layer in enumerate(backbone.layers):
        arrays[f"layer{i}.weight"] = layer.weight
        arrays[f"layer{i}.bias"] = layer.bias
    meta = {
        "activations": [layer.activation for layer in backbone.layers],
        "dims": [backbone.input_dim] + [layer.weight.shape[0] for layer in backbone.layers],
        "seed": seed,
    }
    save_model(path, "backbone", meta, arrays)


def load_backbone(path: Path | str) -> Backbone:
    kind, meta, arrays = load_model(path)
    if kind != "backbone":
        raise ArtifactIOError(f"{path} holds a {kind!r} model, expected a backbone")
    layers = [
        Layer(
            weight=arrays[f"layer{i}.weight"],
            bias=arrays[f"layer{i}.bias"],
            activation=act,
        )
        for i, act in enumerate(meta["activations"])
    ]
    return Backbone(layers=tuple(layers))


def save_codebook(path: Path | str, codebook: Codebook, seed: int) -> None:
    arrays = {
        "bias": codebook.bias,
        "centers": codebook.centers,
        "weights": codebook.weights,
    }
    save_model(path, "codebook", {"mode": codebook.mode, "seed": seed}, arrays)


def load_codebook(path: Path | str) -> Codebook:
    kind, meta, arrays = load_model(path)
    if kind != "codebook":
        raise ArtifactIOError(f"{path} holds a {kind!r} model, expected a codebook")
    return Codebook(
        centers=arrays["centers"],
        weights=arrays["weights"],
        bias=arrays["bias"],
        mode=meta["mode"],
    )


def save_pca(path: Path | str, model: PcaModel) -> None:
    arrays = {"basis": model.basis, "mean": model.mean, "scale": model.scale}
    save_model(path, "pca", {"whiten": bool(model.whiten)}, arrays)


def load_pca(path: Path | str) -> PcaModel:
    kind, meta, arrays = load_model(path)
    if kind != "pca":
        raise ArtifactIOError(f"{path} holds a {kind!r} model, expected a pca")
    return PcaModel(
        mean=arrays["mean"],
        basis=arrays["basis"],
        scale=arrays["scale"],
        whiten=bool(meta["whiten"]),
    )


def save_cluster_model(path: Path | str, model: ClusterModel, seed: int) -> None:
    meta = {"inertia": float(model.inertia), "seed": seed}
    save_model(path, "kmeans", meta, {"centers": model.centers})


def load_cluster_model(path: Path | str) -> ClusterModel:
    kind, meta, arrays = load_model(path)
    if kind != "kmeans":
        raise ArtifactIOError(f"{path} holds a {kind!r} model, expected kmeans")
    return ClusterModel(centers=arrays["centers"], inertia=float(meta["inertia"]))


# --------------------------------------------------------------------------
# Dataset manifests


@dataclass(frozen=True)
class PageRecord:
    page_id: str
    writer_id: str
    descriptor_file: str


@dataclass(frozen=True)
class Manifest:
    dataset: str
    split: str
    pages: tuple[PageRecord, ...]
    base_dir: Path

    def descriptor_path(self, record: PageRecord) -> Path:
        return self.base_dir / record.descriptor_file


def save_manifest(path: Path | str, dataset: str, split: str, pages: list[PageRecord]) -> None:
    if split not in SPLITS:
        raise ValidationError(f"split must be one of {SPLITS}, got {split!r}")
    write_json(
        path,
        {
            "dataset": dataset,
            "pages": [
                {
                    "descriptor_file": p.descriptor_file,
                    "page_id": p.page_id,
                    "writer_id": p.writer_id,
                }
                for p in pages
            ],
            "split": split,
        },
    )


def load_manifest(path: Path | str) -> Manifest:
    """Parse and validate a manifest; descriptor paths resolve relative to it."""
    path = Path(path)
    doc = read_json(path)
    for key in ("dataset", "split", "pages"):
        if key not in doc:
            raise ArtifactIOError(f"{path} is missing the '{key}' field")
    if doc["split"] not in SPLITS:
        raise ValidationError(f"manifest split must be one of {SPLITS}")
    if not doc["pages"]:
        raise ValidationError(f"{path} lists no pages")
    records = []
    seen = set()
    base = path.parent
    for rec in doc["pages"]:
        record = PageRecord(
            page_id=rec["page_id"],
            writer_id=rec["writer_id"],
            descriptor_file=rec["descriptor_file"],
        )
        if record.page_id in seen:
            raise ValidationError(f"duplicate page_id {record.page_id!r} in {path}")
        seen.add(record.page_id)
        if not (base / record.descriptor_file).exists():
            raise ArtifactIOError(
                f"missing file {base / record.descriptor_file} referenced by {path}"
            )
        records.append(record)
    return Manifest(
        dataset=doc["dataset"], split=doc["split"], pages=tuple(records), base_dir=base
    )


def load_page_descriptors(
    manifest: Manifest, cap: int = 2000
) -> list[tuple[PageRecord, np.ndarray]]:
    """Read every page's descriptors, truncating each page to `cap` rows."""
    if cap < 1:
        raise ValidationError("descriptor cap must be >= 1")
    out = []
    dim = None
    for record in manifest.pages:
        data = read_descriptors(manifest.descriptor_path(record))
        if dim is None:
            dim = data.shape[1]
        elif data.shape[1] != dim:
            raise ValidationError(
                f"page {record.page_id} has dimension {data.shape[1]}, expected {dim}"
            )
        out.append((record, data[:cap]))
    return out
