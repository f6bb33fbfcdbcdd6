"""Time ``build_crossed_product``, ``verify_commutation_theorem`` and
``centre`` on the crossed-growth commutation shapes and print one JSON
document.

The cases are the crossed-growth commutation checks, built as in
``bench_fixed_points.py``: ``scalars-Z<n>-regular``, ``M2-Z<n>-phase`` and
``S3-group-algebra``. For each, the crossed product M x| G is built once
and then timed ``--repeats`` times with ``time.perf_counter`` after one
warm-up call: the build, and the commutation check on the built algebra;
for the ``--centre-cases`` also ``centre`` of the crossed product, which
takes a (d |G|)^2-dimensional ``eigh`` in source trees whose ``centre``
intersects the ambient commutant. Each case reports dim M, d, |G|, the
ambient dimension D = d |G|, the crossed product's dim = dim M |G|, the
size of the group's generating set, and two product counts for the closure
check: dim^2 over all basis pairs, (dim M + |gens|) dim against the
generators. BLAS runs on one thread unless the caller's environment already
sets ``OPENBLAS_NUM_THREADS``.

    python scripts/bench_closure.py --repeats 20
    python scripts/bench_closure.py --src path/to/other/src --cases S3-group-algebra --repeats 5
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

from bench_fixed_points import build  # noqa: E402

DEFAULT_CASES = (
    [f"scalars-Z{n}-regular" for n in (4, 6, 7, 8)]
    + [f"M2-Z{n}-phase" for n in (4, 6, 8, 9, 10)]
    + ["S3-group-algebra"]
)


def median_ms(call, repeats: int) -> float:
    call()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="qrflab source tree to import (default: src/ of this checkout)")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--cases", nargs="+", default=DEFAULT_CASES)
    parser.add_argument("--centre-cases", nargs="*", default=["S3-group-algebra"])
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    from qrflab.crossed import build_crossed_product, verify_commutation_theorem
    from qrflab.relativise import GroupAction
    from qrflab.vnalg import OperatorAlgebra, centre

    results = []
    for case in args.cases:
        rows, rep, _ = build(case)
        action = GroupAction(OperatorAlgebra(rep.dim, rows), rep)
        cp = build_crossed_product(action)
        if not verify_commutation_theorem(cp).passed:
            raise RuntimeError(f"case {case!r}: commutation check failed")
        dim_m, order = rows.shape[0], rep.group.order
        # A source tree without FiniteGroup.generators reports no generator count.
        n_gens = len(rep.group.generators()) if hasattr(rep.group, "generators") else None
        entry = {
            "case": case,
            "dim_m": dim_m,
            "d": rep.dim,
            "order": order,
            "D": cp.ambient_dim,
            "dim": cp.dim,
            "gens": n_gens,
            "all_pairs_products": cp.dim**2,
            "generator_products": None if n_gens is None else (dim_m + n_gens) * cp.dim,
            "build_ms": median_ms(lambda: build_crossed_product(action), args.repeats),
            "verify_ms": median_ms(lambda: verify_commutation_theorem(cp), args.repeats),
        }
        if case in args.centre_cases:
            entry["centre_dim"] = centre(cp.algebra).dim
            entry["centre_ms"] = median_ms(lambda: centre(cp.algebra), args.repeats)
        results.append(entry)
        print(f"{case:>20}  D={entry['D']:<3} dim={entry['dim']:<3} build {entry['build_ms']:.2f} ms "
              f"verify {entry['verify_ms']:.2f} ms centre {entry.get('centre_ms', '-')}", file=sys.stderr)
    print(json.dumps({
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "repeats": args.repeats,
        "cases": results,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
