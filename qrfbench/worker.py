"""One workload process: set up, run whole passes for a time budget, verify.

Started by ``run.py``, which passes the monotonic time at which it started
this process; set-up time runs from then until the first check is ready.
Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _blas_threads() -> int | None:
    """Thread count that the loaded OpenBLAS reports, if it is OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--max-svd-u-gb", type=float, default=None)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    sys.path.insert(0, str(HERE))
    out = Path(args.out)
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    import workloads

    wl = workloads.build(args.workload, args.seed, Path(args.root), out)
    setup_s = time.monotonic() - args.t0
    if args.max_svd_u_gb is not None:
        wl.skip_large_svd(args.max_svd_u_gb * 1.0e9)
    if tracer is not None:
        tracer.take_pass()

    pass_s: list[float] = []
    check_ms: list[float] = []
    layers: list[dict] = []
    failed = 0
    errors: list[str] = []
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        t = time.perf_counter()
        res = wl.run_pass()
        pass_s.append(res.seconds)
        check_ms.extend(res.check_ms)
        failed += res.failed
        errors.extend(res.errors)
        problems.extend(res.problems)
        if tracer is not None:
            layer = tracer.take_pass()
            attributed = sum(v for k, v in layer.items() if k.count(".") == 1)
            layer["own_ms"] = res.seconds * 1000.0 - attributed
            layers.append(layer)
        last = time.perf_counter() - t
        if time.perf_counter() - started + last > args.budget:
            break

    if tracer is not None:
        out.mkdir(parents=True, exist_ok=True)
        trace_file = out / f"{args.workload}.trace.{args.index}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "spans": tracer.last}))

    import numpy as np

    for e in errors[:20]:
        print(f"failed: {e}", file=sys.stderr)
    for p in problems[:20]:
        print(f"wrong: {p}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s,
        "pass_s": pass_s,
        "check_ms": check_ms,
        "attempted": len(pass_s) * wl.checks_per_pass,
        "failed": failed,
        "wrong": len(problems),
        "skipped": wl.skipped,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
