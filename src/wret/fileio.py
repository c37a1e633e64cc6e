"""Binary artifact formats and JSON manifests.

Two little-endian binary containers:

* matrix files: a 4-byte magic, u32 version, u32 dim, u64 count, then
  count x dim row-major values. The magic fixes the value type:
  "WRDS" descriptor files hold float32, "WREM" embedding blobs hold
  float64 and come with a JSON sidecar listing the pages row by row.
* model files: magic "WRMD", u32 version, u64 header length, a
  canonical JSON header describing named arrays, then the raw blobs
  in header order.

All JSON emitted here is canonical (sorted keys) so that re-running a
stage with identical inputs reproduces artifacts byte for byte, each
written whole or not at all by `write_atomic`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import uuid
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import PageEmbedding, page_matrix
from .encoder import Backbone, Codebook, Layer
from .errors import ArtifactIOError, ValidationError
from .features import ClusterModel, PcaModel

MAGIC_DESCRIPTORS = b"WRDS"
MAGIC_EMBEDDINGS = b"WREM"
MAGIC_MODEL = b"WRMD"
FORMAT_VERSION = 1
MATRIX_HEADER = struct.Struct("<4sIIQ")  # magic, version, dim, count

DESCRIPTOR_CAP = 2000  # rows read per page; later rows are ignored


# --------------------------------------------------------------------------
# JSON helpers


def canonical_json(obj) -> str:
    """Stable single-line JSON used for hashing and model headers."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def write_atomic(path: Path | str, *chunks) -> None:
    """Write the chunks (bytes or C-contiguous arrays) one after another to
    a new file beside path and rename it to path, so path holds its old
    bytes or all the new ones; a failed write is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


def write_json(path: Path | str, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    write_atomic(path, text.encode("utf-8"))


def read_bytes(path: Path | str) -> bytes:
    """The file's bytes; a missing file is an ArtifactIOError."""
    path = Path(path)
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise ArtifactIOError(f"missing file {path}") from None


def read_json(path: Path | str):
    path = Path(path)
    try:
        text = read_bytes(path).decode("utf-8")
    except UnicodeDecodeError:
        raise ArtifactIOError(f"{path} is not UTF-8 text") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactIOError(f"{path} is not valid JSON: {exc}") from None


def typed_entry(path: Path | str, table, key: str, kind: type | tuple[type, ...]):
    """table[key] when table is a dict holding a `kind` there; otherwise an
    ArtifactIOError naming the artifact at path."""
    value = table.get(key) if isinstance(table, dict) else None
    if not isinstance(value, kind):
        raise ArtifactIOError(f"{path} has no '{key}' entry of the expected type")
    return value


@contextmanager
def _model_checks(path: Path | str):
    """A model's own consistency checks, failing as an ArtifactIOError that
    names the file at path: its arrays came from disk, not from the user."""
    try:
        yield
    except ValidationError as err:
        raise ArtifactIOError(f"{path}: {err}") from None


# --------------------------------------------------------------------------
# Matrix files: descriptor files and embedding blobs


def _write_matrix(path: Path, magic: bytes, matrix: np.ndarray, dtype: str) -> None:
    """The header, then the matrix from its own buffer: copied only when
    it is not already C-contiguous in the stored dtype."""
    count, dim = matrix.shape
    header = MATRIX_HEADER.pack(magic, FORMAT_VERSION, dim, count)
    write_atomic(path, header, np.ascontiguousarray(matrix, dtype=dtype).ravel())


def _read_matrix(path: Path, magic: bytes, dtype: str, what: str) -> np.ndarray:
    """The (count, dim) matrix of a matrix file, in native byte order."""
    raw = read_bytes(path)
    if len(raw) < MATRIX_HEADER.size or raw[:4] != magic:
        raise ArtifactIOError(f"{path} is not {what}")
    _, version, dim, count = MATRIX_HEADER.unpack_from(raw)
    if version != FORMAT_VERSION:
        raise ArtifactIOError(f"{path}: unsupported version {version}")
    if dim == 0:
        raise ArtifactIOError(f"{path} has rows of dimension 0")
    dtype = np.dtype(dtype)
    if len(raw) != MATRIX_HEADER.size + count * dim * dtype.itemsize:
        raise ArtifactIOError(f"{path} is truncated or padded")
    data = np.frombuffer(raw, dtype=dtype, count=count * dim, offset=MATRIX_HEADER.size)
    if not np.isfinite(data).all():  # the writers refuse such values
        raise ArtifactIOError(f"{path} holds non-finite values")
    return data.reshape(count, dim).astype(dtype.newbyteorder("="))


def write_descriptors(path: Path | str, data: np.ndarray) -> None:
    """Dump a (count, dim) float32 matrix in the descriptor format."""
    data = np.asarray(data, dtype=np.float32)
    if data.ndim != 2 or data.shape[1] == 0:
        raise ValidationError("descriptor data must be a (count, dim) matrix")
    # NaN carries through min and max, so both are finite iff every entry
    # is; unlike np.isfinite(data) this needs no mask of the page.
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise ValidationError("descriptor data must be finite")
    _write_matrix(Path(path), MAGIC_DESCRIPTORS, data, "<f4")


def read_descriptors(path: Path | str) -> np.ndarray:
    return _read_matrix(Path(path), MAGIC_DESCRIPTORS, "<f4", "a descriptor file")


# --------------------------------------------------------------------------
# Embedding dumps


def write_embeddings(json_path: Path | str, pages: list[PageEmbedding], cfg_hash: str) -> None:
    """Write a page-embedding dump: JSON sidecar plus binary blob."""
    json_path = Path(json_path)
    vectors = page_matrix(pages)
    blob_path = json_path.with_suffix(".bin")
    _write_matrix(blob_path, MAGIC_EMBEDDINGS, vectors, "<f8")
    sidecar = {
        "blob": blob_path.name,
        "config_hash": cfg_hash,
        "count": len(pages),
        "dim": vectors.shape[1],
        "pages": [
            {"page_id": p.page_id, "writer_id": p.writer_id} for p in pages
        ],
    }
    write_json(json_path, sidecar)


def read_embeddings(json_path: Path | str) -> tuple[list[PageEmbedding], dict]:
    json_path = Path(json_path)
    sidecar = read_json(json_path)
    blob = typed_entry(json_path, sidecar, "blob", str)
    # write_embeddings names a file beside the sidecar, never another path.
    if blob in ("", "..") or Path(blob).name != blob:
        raise ArtifactIOError(f"{json_path}: blob {blob!r} is not a bare file name")
    blob_path = json_path.parent / blob
    sidecar_count = typed_entry(json_path, sidecar, "count", int)
    sidecar_dim = typed_entry(json_path, sidecar, "dim", int)
    ids = [
        (typed_entry(json_path, rec, "page_id", str), typed_entry(json_path, rec, "writer_id", str))
        for rec in typed_entry(json_path, sidecar, "pages", list)
    ]
    matrix = _read_matrix(blob_path, MAGIC_EMBEDDINGS, "<f8", "an embedding blob")
    if matrix.shape != (sidecar_count, sidecar_dim):
        raise ArtifactIOError(f"{blob_path} disagrees with its sidecar")
    if sidecar_count != len(ids):
        raise ArtifactIOError(f"{json_path} page list does not match count")
    pages = [
        PageEmbedding(page_id=page_id, writer_id=writer_id, vector=matrix[i])
        for i, (page_id, writer_id) in enumerate(ids)
    ]
    return pages, sidecar


# --------------------------------------------------------------------------
# Model files


def save_model(path: Path | str, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Persist named arrays with a JSON header; blob order follows the header.
    Each array is written from its own buffer, copied only when it is not
    already C-contiguous in the stored little-endian dtype."""
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
        blobs.append(np.ascontiguousarray(arr, dtype=dtype).ravel())
    header = canonical_json({"arrays": entries, "kind": kind, "meta": meta}).encode("utf-8")
    write_atomic(
        path, MAGIC_MODEL + struct.pack("<IQ", FORMAT_VERSION, len(header)) + header, *blobs
    )


def _valid_array_entry(entry) -> bool:
    """A named <f8 or <i8 array whose shape lists non-negative ints."""
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and entry.get("dtype") in ("<f8", "<i8")
        and isinstance(entry.get("shape"), list)
        and all(type(extent) is int and extent >= 0 for extent in entry["shape"])
    )


def load_model(
    path: Path | str, kind: str, raw: bytes | None = None
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a model file that must hold a `kind` model; returns (meta, arrays).
    `raw`, when given, is the file's content already read by the caller."""
    path = Path(path)
    if raw is None:
        raw = read_bytes(path)
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
    if header["kind"] != kind:
        raise ArtifactIOError(f"{path} holds a {header['kind']!r} model, expected a {kind} model")
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
        if dtype.kind == "f" and not np.isfinite(data).all():  # no stage fits one: corrupt
            raise ArtifactIOError(f"{path} holds non-finite values")
        arrays[entry["name"]] = data.reshape(shape).astype(dtype.base)
        offset += nbytes
    if offset != len(raw):
        raise ArtifactIOError(f"{path} has trailing bytes")
    return header["meta"], arrays


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
    meta, arrays = load_model(path, "backbone")
    with _model_checks(path):
        layers = [
            Layer(
                weight=typed_entry(path, arrays, f"layer{i}.weight", np.ndarray),
                bias=typed_entry(path, arrays, f"layer{i}.bias", np.ndarray),
                activation=act,
            )
            for i, act in enumerate(typed_entry(path, meta, "activations", list))
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
    meta, arrays = load_model(path, "codebook")
    with _model_checks(path):
        return Codebook(
            centers=typed_entry(path, arrays, "centers", np.ndarray),
            weights=typed_entry(path, arrays, "weights", np.ndarray),
            bias=typed_entry(path, arrays, "bias", np.ndarray),
            mode=typed_entry(path, meta, "mode", str),
        )


def save_pca(path: Path | str, model: PcaModel) -> None:
    arrays = {"basis": model.basis, "mean": model.mean, "scale": model.scale}
    save_model(path, "pca", {"whiten": bool(model.whiten)}, arrays)


def load_pca(path: Path | str, raw: bytes | None = None) -> PcaModel:
    meta, arrays = load_model(path, "pca", raw)
    mean, basis, scale = (
        typed_entry(path, arrays, name, np.ndarray) for name in ("mean", "basis", "scale")
    )
    if not (mean.ndim == scale.ndim == 1 and basis.shape == (len(scale), len(mean))):
        raise ArtifactIOError(f"{path} has a basis that does not match its mean and scale")
    return PcaModel(
        mean=mean, basis=basis, scale=scale, whiten=typed_entry(path, meta, "whiten", bool)
    )


def save_cluster_model(path: Path | str, model: ClusterModel, seed: int) -> None:
    meta = {"inertia": float(model.inertia), "seed": seed}
    save_model(path, "kmeans", meta, {"centers": model.centers})


def load_cluster_model(path: Path | str) -> ClusterModel:
    meta, arrays = load_model(path, "kmeans")
    return ClusterModel(
        centers=typed_entry(path, arrays, "centers", np.ndarray),
        inertia=float(typed_entry(path, meta, "inertia", (int, float))),
    )


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
    pages: tuple[PageRecord, ...]
    base_dir: Path

    def descriptor_path(self, record: PageRecord) -> Path:
        return self.base_dir / record.descriptor_file


def save_manifest(path: Path | str, dataset: str, pages: list[PageRecord]) -> None:
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
        },
    )


def load_manifest(path: Path | str) -> Manifest:
    """Parse and validate a manifest; descriptor paths resolve relative to it."""
    path = Path(path)
    doc = read_json(path)
    dataset = typed_entry(path, doc, "dataset", str)
    pages = typed_entry(path, doc, "pages", list)
    if not pages:
        raise ValidationError(f"{path} lists no pages")
    records = []
    seen = set()
    base = path.parent
    for rec in pages:
        record = PageRecord(
            page_id=typed_entry(path, rec, "page_id", str),
            writer_id=typed_entry(path, rec, "writer_id", str),
            descriptor_file=typed_entry(path, rec, "descriptor_file", str),
        )
        if record.page_id in seen:
            raise ValidationError(f"duplicate page_id {record.page_id!r} in {path}")
        seen.add(record.page_id)
        if not (base / record.descriptor_file).exists():
            raise ArtifactIOError(
                f"missing file {base / record.descriptor_file} referenced by {path}"
            )
        records.append(record)
    return Manifest(dataset=dataset, pages=tuple(records), base_dir=base)


def load_page_descriptors(manifest: Manifest) -> list[tuple[PageRecord, np.ndarray]]:
    """Read every page's descriptors, truncating each page to DESCRIPTOR_CAP rows."""
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
        # A copy, so that a truncated page does not keep its whole buffer.
        out.append((record, data[:DESCRIPTOR_CAP].copy() if len(data) > DESCRIPTOR_CAP else data))
    return out
