"""Time ``symmetry.tensor_fixed_point_rows`` on the benchmark's call shapes
and print one JSON document.

The kernel takes the Ad(U (x) V) fixed points of M (x) B(H_V), with M an
Ad U-invariant span of m operators on H_U. The cases are the shapes the
qrfbench workloads call it on:

- crossed-growth, through ``verify_commutation_theorem`` and
  ``invariant_joint_algebra``: ``scalars-Z<n>-regular`` (the scalars of C^n
  under a conjugated Z_n regular rep), ``M2-Z<n>-phase`` (M_2 under a
  conjugated Z_n phase rep) and ``S3-group-algebra`` (the group algebra of a
  conjugated S3 regular rep under that rep), each against the regular rep
  of its group;
- algebra-structure, through ``fixed_point_rows``: ``Z<n>-regular-x-<n>``
  and ``S3-regular-x-3``, the scalars against a tensor product of two reps.

Each case is timed ``--repeats`` times with ``time.perf_counter`` after one
warm-up call; the median is reported with m, d_u, d_v, the number of
quadrature nodes and the fixed-point rank r. BLAS runs on one thread unless
the caller's environment already sets ``OPENBLAS_NUM_THREADS``.

    python scripts/bench_fixed_points.py --repeats 20
    python scripts/bench_fixed_points.py --src path/to/other/src --cases M2-Z10-phase
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

DEFAULT_CASES = (
    [f"scalars-Z{n}-regular" for n in (4, 6, 7, 8)]
    + [f"M2-Z{n}-phase" for n in (4, 6, 8, 9, 10)]
    + ["S3-group-algebra", "Z3-regular-x-3", "Z5-regular-x-5", "S3-regular-x-3"]
)


def build(case: str):
    """(rows, u, v) for a case name; every rep is conjugated by a seeded unitary."""
    import numpy as np

    from qrflab.symmetry import (
        FiniteRep,
        cyclic_group,
        regular_representation,
        symmetric_group,
        tensor_rep,
        trivial_rep,
    )

    rng = np.random.default_rng(0)

    def conjugated(rep):
        q, r = np.linalg.qr(rng.standard_normal((rep.dim, rep.dim))
                            + 1j * rng.standard_normal((rep.dim, rep.dim)))
        w = q * (np.diag(r) / np.abs(np.diag(r)))
        return FiniteRep(rep.group, [w @ u @ w.conj().T for u in rep.unitaries])

    def scalars(d):
        return np.eye(d, dtype=complex).reshape(1, d * d) / np.sqrt(d)

    if m := re.fullmatch(r"scalars-Z(\d+)-regular", case):
        lam = regular_representation(cyclic_group(int(m[1])))
        return scalars(lam.dim), conjugated(lam), lam
    if m := re.fullmatch(r"M2-Z(\d+)-phase", case):
        n = int(m[1])
        phases = [np.diag([1.0, np.exp(2j * np.pi * k / n)]) for k in range(n)]
        rep = conjugated(FiniteRep(cyclic_group(n), phases))
        return np.eye(4, dtype=complex), rep, regular_representation(rep.group)
    if case == "S3-group-algebra":
        rep = conjugated(regular_representation(symmetric_group(3)))
        rows = np.array([u.ravel() for u in rep.unitaries]) / np.sqrt(rep.dim)
        return rows, rep, regular_representation(rep.group)
    if m := re.fullmatch(r"(Z(\d+)|S3)-regular-x-(\d+)", case):
        group = symmetric_group(3) if m[1] == "S3" else cyclic_group(int(m[2]))
        left = conjugated(regular_representation(group))
        if m[1] == "S3":
            perms = [np.eye(3)[:, [int(c) for c in label]] for label in group.labels]
            right = conjugated(FiniteRep(group, perms))
        else:
            right = conjugated(regular_representation(group))
        if right.dim != int(m[3]):
            raise ValueError(f"case {case!r}: partner has dimension {right.dim}")
        joint = tensor_rep(left, right)
        return scalars(1), trivial_rep(group, 1), joint
    raise ValueError(f"unknown case {case!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="qrflab source tree to import (default: src/ of this checkout)")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--cases", nargs="+", default=DEFAULT_CASES)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    from qrflab.symmetry import tensor_fixed_point_rows

    results = []
    for case in args.cases:
        rows, u, v = build(case)
        r = tensor_fixed_point_rows(rows, u, v).shape[0]
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            tensor_fixed_point_rows(rows, u, v)
            times.append(time.perf_counter() - t0)
        median_ms = 1e3 * statistics.median(times)
        results.append({
            "case": case,
            "m": rows.shape[0],
            "d_u": u.dim,
            "d_v": v.dim,
            "nodes": int(u.group.quadrature_nodes().size),
            "r": r,
            "median_ms": median_ms,
        })
        print(f"{case:>20}  m={rows.shape[0]:<2} d_u={u.dim:<2} d_v={v.dim:<2} r={r:<3} "
              f"median {median_ms:.3f} ms", file=sys.stderr)
    print(json.dumps({
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "repeats": args.repeats,
        "cases": results,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
