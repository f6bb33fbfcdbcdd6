"""Time ``vnalg.commutant`` on fixed algebras and print one JSON document.

Two families, each case named ``family:d``:

- ``tensor:d`` is M_d (x) 1 on C^d (x) C^d with real basis rows, as
  ``modular.gns_doubling`` builds it; its operator space has n^2 = d^4
  dimensions;
- ``full:d`` is the full matrix algebra M_d with complex basis rows, with
  n^2 = d^2.

Each case is timed ``--repeats`` times with ``time.perf_counter`` after one
warm-up call; the median is reported. BLAS runs on one thread unless the
caller's environment already sets ``OPENBLAS_NUM_THREADS``.

    python scripts/bench_commutant.py --repeats 5
    python scripts/bench_commutant.py --src path/to/other/src --cases tensor:2 full:8
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

DEFAULT_CASES = [f"tensor:{d}" for d in range(2, 8)] + [f"full:{d}" for d in (8, 10, 12, 16)]


def build(case: str):
    import numpy as np

    from qrflab.vnalg import OperatorAlgebra

    family, d = case.split(":")
    d = int(d)
    if family == "full":
        return d * d, 1, OperatorAlgebra(d, np.eye(d * d, dtype=complex))
    if family == "tensor":
        units = np.eye(d * d).reshape(d * d, d, d)
        rows = np.array([np.kron(e, np.eye(d)).ravel() for e in units]) / np.sqrt(d)
        return d ** 4, d * d, OperatorAlgebra(d * d, rows)
    raise ValueError(f"unknown case family {family!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="qrflab source tree to import (default: src/ of this checkout)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--cases", nargs="+", default=DEFAULT_CASES)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    from qrflab.vnalg import commutant

    results = []
    for case in args.cases:
        n_squared, expected_dim, alg = build(case)
        assert commutant(alg).dim == expected_dim
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            commutant(alg)
            times.append(time.perf_counter() - t0)
        results.append({
            "case": case,
            "n_squared": n_squared,
            "median_s": statistics.median(times),
            "min_s": min(times),
            "max_s": max(times),
        })
        print(f"{case:>10}  n^2={n_squared:<6} median {statistics.median(times):.4f} s",
              file=sys.stderr)
    print(json.dumps({
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "repeats": args.repeats,
        "cases": results,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
