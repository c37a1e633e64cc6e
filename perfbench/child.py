"""One workload in a fresh process: set-up, timed repetitions, checks.

Started by run.py with the BLAS thread count fixed in the environment.
Writes only under --tmp and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import time
from pathlib import Path

import numpy as np

import layers
from tracer import Tracer
from workloads import WORKLOADS, Ops, check_retrieval

# Set-up runs this many times in an untraced run; setup_s is the median.
SETUP_REPEATS = {"pipeline_clean": 15, "pipeline_noisy": 15, "gallery_1k": 2}
MIN_REPS = 2  # the determinism check compares repetitions


def tree_digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def combined(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    ops = Ops()
    tracer = Tracer()

    # Set-up: repeated for a median when untraced; traced once otherwise,
    # since gallery_1k fits its models there.
    setup_s = []
    if args.trace:
        layers.install(tracer)
    for i in range(1 if args.trace else SETUP_REPEATS[workload.name]):
        start = time.perf_counter()
        env = workload.setup(ops, args.tmp / f"setup{i}", args.seed)
        setup_s.append(time.perf_counter() - start)
        if i == 0:
            first_env = env
        else:
            shutil.rmtree(args.tmp / f"setup{i}")
    tracer.restore()

    # Timed repetitions. The traced run times one untraced repetition and
    # then one traced repetition; their difference is the tracing overhead.
    # Every repetition writes to the same path, because configs that name
    # a path (the prefit page PCA) hash into the artifacts.
    out = args.tmp / "rep"
    wall_s, digests = [], []
    budget_start = time.perf_counter()
    while len(wall_s) < MIN_REPS or (
        not args.trace and time.perf_counter() - budget_start < args.seconds
    ):
        if args.trace and len(wall_s) == 1:
            layers.install(tracer)
        start = time.perf_counter()
        try:
            result = workload.timed(ops, first_env, out)
        finally:
            wall_s.append(time.perf_counter() - start)
            tracer.restore()
        workload.check(ops, result)
        check_retrieval(ops, result, out)
        digests.append(tree_digests(out))
        shutil.rmtree(out)

    same = all(d == digests[0] for d in digests[1:])
    ops.check(
        "determinism",
        same,
        f"{len(digests)} repetitions, {len(digests[0])} artifacts, digests "
        + ", ".join(sorted({combined(d)[:16] for d in digests})),
    )

    if args.trace:
        nesting = tracer.nesting_errors()
        gap = tracer.unaccounted("stages.")
        ops.check(
            "trace_accounts_for_stages",
            not nesting and abs(gap) <= 1e-9 * max(1.0, tracer.self_total("stages.")),
            f"stage time minus child spans minus stages.self_s = {gap:.3e} s; "
            f"{len(nesting)} spans outside their parent",
        )

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "numpy": f"numpy={np.__version__} blas={blas.get('name')} {blas.get('version')}",
        "attempted": ops.attempted,
        "failed": ops.failed,
        "checks": ops.checks,
        "digests": digests[0],
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "map": result["map"],
        "top1": result["top1"],
        "rerank_map": result["rerank_map"],
    }
    if args.trace:
        report["per_layer"] = layers.per_layer(tracer)
        report["per_layer"]["trace.overhead_s"] = (wall_s[1] - wall_s[0], "s")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
