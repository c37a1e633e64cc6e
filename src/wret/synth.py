"""Synthetic descriptor collections with known writer structure.

Each writer perturbs a shared set of prototype descriptors by a
persistent per-writer style offset; pages then sample descriptors as
prototype + style + fresh gaussian noise, clipped at zero so the
values stay histogram-like. The strength/noise ratio controls how
separable writers are.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .fileio import Manifest, PageRecord, load_page_descriptors, save_manifest, write_descriptors
from .seeds import derive_seed

DESCRIPTOR_DIM = 64


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one generated collection."""

    n_writers: int = 20
    pages_per_writer: int | tuple[int, ...] = 5
    descriptors_per_page: int = 200
    n_prototypes: int = 16
    writer_style_strength: float = 4.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_writers < 1:
            raise ValidationError("n_writers must be >= 1")
        if self.descriptors_per_page < 1:
            raise ValidationError("descriptors_per_page must be >= 1")
        if self.n_prototypes < 1:
            raise ValidationError("n_prototypes must be >= 1")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be >= 0")
        if not np.isfinite(self.writer_style_strength):
            raise ValidationError("writer_style_strength must be finite")
        for count in self.page_counts():
            if count < 1:
                raise ValidationError("every writer needs >= 1 page")

    def page_counts(self) -> tuple[int, ...]:
        if isinstance(self.pages_per_writer, int):
            return (self.pages_per_writer,) * self.n_writers
        counts = tuple(int(c) for c in self.pages_per_writer)
        if len(counts) != self.n_writers:
            raise ValidationError(
                f"pages_per_writer lists {len(counts)} writers, expected {self.n_writers}"
            )
        return counts


def synth_generate(spec: SynthSpec, out_dir: Path | str) -> Path:
    """Write descriptor files plus a manifest; returns the manifest path.

    Draw order is fixed (prototypes, then style offsets, then per-page
    noise) so equal specs reproduce equal bytes. Pages cycle through the
    prototypes deterministically; noise is the only variation between
    pages of one writer, so noise_sigma = 0 gives every page of a writer
    an identical descriptor multiset.
    """
    out_dir = Path(out_dir)
    pages_dir = out_dir / "pages"
    pages_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(derive_seed(spec.seed, "synth"))
    protos = rng.uniform(1.0, 2.0, size=(spec.n_prototypes, DESCRIPTOR_DIM))
    offsets = spec.writer_style_strength * rng.standard_normal(
        size=(spec.n_writers, spec.n_prototypes, DESCRIPTOR_DIM)
    )
    idx = np.arange(spec.descriptors_per_page) % spec.n_prototypes
    records = []
    for w, n_pages in enumerate(spec.page_counts()):
        writer_id = f"w{w:03d}"
        for p in range(n_pages):
            noise = spec.noise_sigma * rng.standard_normal(
                size=(spec.descriptors_per_page, DESCRIPTOR_DIM)
            )
            data = np.clip(protos[idx] + offsets[w, idx] + noise, 0.0, None)
            page_id = f"{writer_id}p{p:02d}"
            rel = f"pages/{page_id}.wrds"
            write_descriptors(out_dir / rel, data.astype(np.float32))
            records.append(
                PageRecord(page_id=page_id, writer_id=writer_id, descriptor_file=rel)
            )
    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest_path, dataset=f"synthetic-{spec.seed}", split="test", pages=records)
    return manifest_path


def nearest_centroid_accuracy(manifest: Manifest, cap: int = 2000) -> float:
    """Leave-one-out writer classification on raw page means.

    Each page is classified by the nearest writer centroid computed
    from all other pages. Writers need at least two pages each.
    """
    loaded = load_page_descriptors(manifest, cap=cap)
    means = np.array([data.mean(axis=0) for _, data in loaded], dtype=np.float64)
    writers = [record.writer_id for record, _ in loaded]
    writer_set = sorted(set(writers))
    counts = {w: writers.count(w) for w in writer_set}
    for w, c in counts.items():
        if c < 2:
            raise ValidationError(f"writer {w} has a single page; oracle needs >= 2")
    hits = 0
    for i in range(len(loaded)):
        best_writer = None
        best_dist = np.inf
        for w in writer_set:
            rows = [
                j for j in range(len(loaded)) if j != i and writers[j] == w
            ]
            if not rows:
                continue
            centroid = means[rows].mean(axis=0)
            dist = float(np.linalg.norm(means[i] - centroid))
            if dist < best_dist:
                best_dist = dist
                best_writer = w
        if best_writer == writers[i]:
            hits += 1
    return hits / len(loaded)
