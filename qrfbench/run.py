"""qrflab benchmark: one workload, several workload processes, one JSON line.

Usage, from the root of the repository:

    python3 qrfbench/run.py --workload corpus --seed 1 --seconds 24 --trace 0

Runs ``PROCESSES`` workload processes one after another, each with one
BLAS thread, and gives each an equal share of ``--seconds`` for whole
passes over the workload's checks. With ``--trace 0`` the last line holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run. Lines before it describe the run. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "crossed-growth", "algebra-structure", "thermal-frames")

# Workload processes per run. Set-up is measured once in each, so setup_s
# is a median of this many; passes from all of them are pooled.
PROCESSES = 3
BLAS_THREADS = 1
# Wall-clock limit for the whole run, below the 180 s a run may take.
DEADLINE_S = 170.0


def _median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="qrflab source tree to import (default: src/ of this checkout)")
    ap.add_argument("--max-svd-u-gb", type=float, default=None,
                    help="skip checks whose full-SVD U would exceed this many GB")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    if not (src / "qrflab" / "__init__.py").is_file():
        print(f"error: no qrflab package under {src}", file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        MKL_NUM_THREADS=str(BLAS_THREADS),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
    )
    out = HERE / "out"
    stop = time.monotonic() + DEADLINE_S
    results = []
    for index in range(PROCESSES):
        t0 = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--budget", repr(args.seconds / PROCESSES), "--trace", str(args.trace),
            "--t0", repr(t0), "--index", str(index), "--src", str(src),
            "--root", str(ROOT), "--out", str(out),
        ]
        if args.max_svd_u_gb is not None:
            cmd += ["--max-svd-u-gb", repr(args.max_svd_u_gb)]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, stop - t0))
        except subprocess.TimeoutExpired:
            print(f"error: workload process {index} ran past the deadline", file=sys.stderr)
            return 1
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload process {index} exited {proc.returncode}", file=sys.stderr)
            return 1
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    passes = [p for r in results for p in r["pass_s"]]
    checks = [c for r in results for c in r["check_ms"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    wrong = sum(r["wrong"] for r in results)
    first = results[0]
    print(f"workload {args.workload}, seed {args.seed}, {PROCESSES} processes, "
          f"{len(passes)} passes, {len(checks)} checks timed")
    print(f"nproc {os.cpu_count()}, python {platform.python_version()}, numpy {first['numpy']}, "
          f"BLAS threads requested {BLAS_THREADS}, reported {first['blas_threads']}")
    if first["skipped"]:
        print("not run (full-SVD U over the limit): " + ", ".join(first["skipped"]))

    if args.trace:
        layers = [layer for r in results for layer in r["layers"]]
        own = [layer.pop("own_ms") for layer in layers]
        metrics = {}
        for name in layers[0]:
            unit = "MB" if name.endswith("_mb") else "count" if name.endswith(".calls") else "ms"
            metrics[name] = {"value": _median([layer[name] for layer in layers]), "unit": unit}
        print(f"traced pass_s {_median(passes):.4f} s; per pass, the time outside every "
              f"module span (the benchmark's own) has median {_median(own):.2f} ms")
    else:
        metrics = {
            "setup_s": {"value": _median([r["setup_s"] for r in results]), "unit": "s"},
            "pass_s": {"value": _median(passes), "unit": "s"},
            "check_p50_ms": {"value": _median(checks), "unit": "ms"},
            "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in results]), "unit": "MB"},
        }
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
