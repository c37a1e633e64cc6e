"""wret benchmark: run one workload in a fresh child process, check its
outputs, print every metric with its unit, and end with one JSON line.

    python3 perfbench/run.py --workload gallery_1k --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; wret is imported from ./src.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
All data and artifacts live in a temporary directory under
.perfbench_work/ in the checkout and are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Also in workloads.py; this process does not import wret, so that it can
# fail cleanly where the sources are missing.
WORKLOADS = ("pipeline_clean", "pipeline_noisy", "gallery_1k")
CHILD_TIMEOUT_S = 170
# One BLAS thread (never more than nproc): each workload is driven by a
# single process, and a shared host gives steadier timings without BLAS
# worker threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="0 = the acceptance-test seeds")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "wret" / "__init__.py").is_file():
        print(f"no wret sources under {src}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--tmp", str(tmp)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run still uses it
    if proc.returncode != 0:
        print(f"workload child exited with {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    print(f"env nproc={nproc} python={platform.python_version()} {child['numpy']} "
          f"blas_threads={env['OPENBLAS_NUM_THREADS']}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    outcomes: dict[str, list] = {}
    for name, ok, detail in child["checks"]:
        outcomes.setdefault(name, []).append((ok, detail))
    for name, runs in outcomes.items():
        passed = sum(ok for ok, _ in runs)
        detail = next((d for ok, d in runs if not ok), runs[-1][1])
        print(f"check {name}: {'pass' if passed == len(runs) else 'FAIL'} "
              f"{passed}/{len(runs)} ({detail})")
    for path, digest in child["digests"].items():
        print(f"artifact {digest[:16]} {path}")
    for name in ("setup_s", "wall_s"):
        print(f"samples {name} " + " ".join(f"{v:.4f}" for v in child[name]))
    error_rate = child["failed"] / child["attempted"]
    print(f"error_rate {error_rate} ({child['failed']} failed of {child['attempted']} operations)")

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in child["per_layer"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(child["wall_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(child["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
            "map": {"value": child["map"], "unit": "ratio"},
            "top1": {"value": child["top1"], "unit": "ratio"},
            "rerank_map": {"value": child["rerank_map"], "unit": "ratio"},
        }
    samples = {"wall_s": len(child["wall_s"]), "setup_s": len(child["setup_s"])}
    for name, m in metrics.items():
        count = f" (median of {samples[name]})" if name in samples else ""
        print(f"metric {name} = {m['value']} {m['unit']}{count}")

    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
