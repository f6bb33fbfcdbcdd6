"""Time the north-star kernels on fixed shapes and print one JSON document.

Each case is named ``kernel:shape``:

- ``commutant:tensor:d`` times ``vnalg.commutant`` of M_d (x) 1 on
  C^d (x) C^d with real basis rows, as ``modular.gns_doubling`` builds it;
  its operator space has n^2 = d^4 dimensions. ``commutant:full:d`` does the
  same for the full M_d with complex basis rows, with n^2 = d^2. Both
  report the dimension ``gram_dim`` of the block-diagonal subspace whose
  Gram matrix is diagonalised, p = sum of the squared eigenspace sizes of
  the generic element (d^3 for ``tensor:d``, d for ``full:d``), and the
  number of those eigenspaces, ``clusters``. Where ``commutant`` takes the
  whole operator space (d <= 3, or a source tree without
  ``vnalg._generic_eigenbasis``), p = n^2 and there is one cluster.
- ``fixed-points:<shape>`` times ``symmetry.tensor_fixed_point_rows``, the
  Ad(U (x) V) fixed points of M (x) B(H_V) for an Ad U-invariant span M of
  m operators, and reports m, d_u, d_v, the number of quadrature nodes and
  the fixed-point rank r. It also reports how the rows were read off
  eigenspaces: ``components``, the isotypic components that hold fixed
  points (the charges shared by H_V and M (x) H_V, for the circle),
  ``max_d_pi``, the largest dimension of their irreps, and ``averaged``,
  the components with d_pi > 1, whose rows are group averages (all three
  null for a source tree without ``symmetry._fixed_points``). Its shapes are
  the group shapes below and ``charge-sectors-<L>``, the circle shape of
  ``decompose`` below, with M the full M_4.
- ``closure:<shape>`` builds the crossed product M x| G of a group shape and
  times ``verify_commutation_theorem`` on it. It reports dim M, d, |G|, the
  ambient dimension D = d |G| and D^2, the crossed product's dim = dim M |G|,
  the size of the group's generating set, the product counts of the closure
  check (dim^2 products of basis pairs for the all-pairs check, against
  (dim M + |gens|) dim products with the generators, which with the dim
  adjoints and the identity make (dim M + |gens| + 1) dim + 1 projected
  elements) and the median build time. ``route`` is the closure route
  taken: ``graded`` when each row of the span lies on one g-diagonal, and
  each element is then projected in ``width`` = |G| d^2 coordinates, or
  ``dense``, with ``width`` = D^2 (also for a source tree without
  ``crossed._graded_rows``).
- ``centre:<shape>`` times ``vnalg.centre`` of that crossed product. Its
  defaults take both routes: ``S3-group-algebra`` (dim m = 36 = D) the
  commutator Gram matrix, ``M2-Z4-phase`` (m = 16 > D = 8) A cap A'.
- ``decompose:<shape>`` times ``vnalg.decompose`` and reports the
  algebra's dim m, its ambient dimension D and the number of Wedderburn
  blocks. Its shapes are ``S3-group-algebra``, the crossed product above,
  and ``charge-sectors-<L>``: the algebra of two qubits and a clock frame
  diag(0, ..., L) invariant under their joint number operator, with
  blocks M_1, M_3, M_4 (L - 1 times), M_3, M_1 on C^(4 (L + 1)).
- ``invariance:<shape>`` times the ``relativise.GroupAction`` invariance
  check of a span under a rep, and reports m, d, the number of quadrature
  nodes and the number of generators: one for a circle rep, the size of
  ``generators()`` for a finite group. Its shapes are the thermal-frames
  ``circle-<d>x<d_r>`` (the full M_d under a circle rep of band d_r - 1,
  with 4 d_r - 3 nodes) and the group shapes below.

- ``span:phase-generation-<L>`` times ``vnalg.generate_algebra`` on the
  relativised matrix units of a qubit with charges (0, 1), observed
  through the canonical phase frame (c all ones) of the clock
  diag(0, ..., L) on L + 1 equal arcs under the band L + 1, plus 1 (x) each
  clock projection. It reports the ambient dimension D = 2 (L + 1) and the
  generated dim, which is that of the invariant joint algebra, 4 L + 2.
  A source tree whose span kernel normalises each candidate on its own
  raises "ambiguous span rank" at L = 8.
- ``intersection:charge-sectors-<L>`` times ``vnalg.span_intersection`` of
  the smaller of the ``charge-sectors-<L>`` algebra A (below) and its
  commutant A' against the larger, and reports both row counts, the
  dim of the intersection (the centre) and the ``tracemalloc`` peak of one
  more call in MB.

- ``modular:gibbs-d<d>`` builds the modular data of a doubled Gibbs state
  at beta = 1, of a seeded H with spectrum in [0, 2) on C^d, as
  thermal-frames draws it, and times three checks: ``flow_ms``, the median
  of ``ModularData.flow_defect``; ``conjugation_ms``, of
  ``conjugation_defect``; ``kms_ms``, of ``kms_check`` on three seeded pairs
  over the default grid; ``median_ms`` is the median of the three in a row.
  It reports the ambient dimension D = d^2, the algebra's dim m = d^2, and
  the number of flow probe times and KMS grid times.
- ``relativise:circle-<d>x<d_r>`` times ``expected_relative_outcome`` of a
  seeded Hermitian x in the full M_d, under the circle rep of
  ``invariance:circle-<d>x<d_r>``, through a d_r-level phase frame with
  frequencies 0, ..., d_r - 1 and a seeded c on a seeded four-arc
  partition, in seeded states, as thermal-frames draws it. It reports d,
  d_r and the number of quadrature nodes 4B + 1 of its weighted route, and
  as ``localization_ms`` the median of ``localization_defect`` of the same x
  at a seeded frame state.

The group shapes are the qrfbench call shapes, each rep conjugated by a
seeded unitary:

- crossed-growth: ``scalars-Z<n>-regular`` (the scalars of C^n under a
  Z_n regular rep), ``M2-Z<n>-phase`` (M_2 under a Z_n phase rep) and
  ``S3-group-algebra`` (the group algebra of an S3 regular rep under that
  rep), each against the regular rep of its group;
- algebra-structure (``fixed-points`` only): ``Z<n>-regular-x-<n>`` and
  ``S3-regular-x-3``, the scalars against a tensor product of two reps.

Each case is timed ``--repeats`` times with ``time.perf_counter`` after one
warm-up call, and the median is reported in ms. BLAS runs on one thread
unless the caller's environment already sets ``OPENBLAS_NUM_THREADS``.

    python scripts/bench_kernels.py --repeats 5
    python scripts/bench_kernels.py --src path/to/other/src --cases commutant:full:8 closure:M2-Z10-phase
    python scripts/bench_kernels.py --cases invariance:circle-10x24 invariance:S3-group-algebra
    python scripts/bench_kernels.py --cases modular:gibbs-d5 relativise:circle-10x24
    python scripts/bench_kernels.py --cases span:phase-generation-8 intersection:charge-sectors-16
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

_CROSSED_SHAPES = (
    [f"scalars-Z{n}-regular" for n in (4, 6, 7, 8)]
    + [f"M2-Z{n}-phase" for n in (4, 6, 8, 9, 10)]
    + ["S3-group-algebra"]
)
DEFAULT_CASES = (
    [f"commutant:tensor:{d}" for d in range(2, 8)]
    + [f"commutant:full:{d}" for d in (8, 10, 12, 16)]
    + [f"fixed-points:{s}" for s in _CROSSED_SHAPES]
    + [f"fixed-points:{s}" for s in ("Z3-regular-x-3", "Z5-regular-x-5", "S3-regular-x-3")]
    + [f"fixed-points:charge-sectors-{top}" for top in (8, 16)]
    + [f"closure:{s}" for s in _CROSSED_SHAPES]
    + ["centre:S3-group-algebra", "centre:M2-Z4-phase"]
    + [f"decompose:{s}" for s in ("S3-group-algebra", "charge-sectors-8", "charge-sectors-16")]
    + [f"invariance:circle-{d}x{d_r}" for d, d_r in ((5, 12), (9, 24), (10, 24))]
    + ["invariance:M2-Z10-phase", "invariance:S3-group-algebra"]
    + [f"span:phase-generation-{top}" for top in (4, 8)]
    + [f"intersection:charge-sectors-{top}" for top in (8, 16)]
    + [f"modular:gibbs-d{d}" for d in (2, 3, 4, 5)]
    + [f"relativise:circle-{d}x{d_r}" for d, d_r in ((5, 12), (9, 24), (10, 24))]
)


def random_unitary(rng, d: int):
    """A Haar-random d x d unitary: QR of a complex Gaussian, phases fixed."""
    import numpy as np

    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def commutant_case(shape: str):
    """(n^2, expected commutant dim, algebra) for ``tensor:d`` or ``full:d``."""
    import numpy as np

    from qrflab.vnalg import OperatorAlgebra

    family, d = shape.split(":")
    d = int(d)
    if family == "full":
        return d * d, 1, OperatorAlgebra(d, np.eye(d * d, dtype=complex))
    if family == "tensor":
        units = np.eye(d * d).reshape(d * d, d, d)
        rows = np.array([np.kron(e, np.eye(d)).ravel() for e in units]) / np.sqrt(d)
        return d ** 4, d * d, OperatorAlgebra(d * d, rows)
    raise ValueError(f"unknown commutant shape {shape!r}")


def group_case(shape: str):
    """(rows, u, v) for a group shape; every rep is conjugated by a seeded unitary."""
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
        w = random_unitary(rng, rep.dim)
        return FiniteRep(rep.group, w @ rep.unitaries @ w.conj().T)

    def scalars(d):
        return np.eye(d, dtype=complex).reshape(1, d * d) / np.sqrt(d)

    if m := re.fullmatch(r"scalars-Z(\d+)-regular", shape):
        lam = regular_representation(cyclic_group(int(m[1])))
        return scalars(lam.dim), conjugated(lam), lam
    if m := re.fullmatch(r"M2-Z(\d+)-phase", shape):
        n = int(m[1])
        phases = [np.diag([1.0, np.exp(2j * np.pi * k / n)]) for k in range(n)]
        rep = conjugated(FiniteRep(cyclic_group(n), phases))
        return np.eye(4, dtype=complex), rep, regular_representation(rep.group)
    if shape == "S3-group-algebra":
        rep = conjugated(regular_representation(symmetric_group(3)))
        rows = rep.unitaries.reshape(rep.group.order, -1) / np.sqrt(rep.dim)
        return rows, rep, regular_representation(rep.group)
    if m := re.fullmatch(r"(Z(\d+)|S3)-regular-x-(\d+)", shape):
        group = symmetric_group(3) if m[1] == "S3" else cyclic_group(int(m[2]))
        left = conjugated(regular_representation(group))
        if m[1] == "S3":
            perms = [np.eye(3)[:, [int(c) for c in label]] for label in group.labels]
            right = conjugated(FiniteRep(group, perms))
        else:
            right = conjugated(regular_representation(group))
        if right.dim != int(m[3]):
            raise ValueError(f"shape {shape!r}: partner has dimension {right.dim}")
        return scalars(1), trivial_rep(group, 1), tensor_rep(left, right)
    raise ValueError(f"unknown group shape {shape!r}")


def circle_case(shape: str):
    """(rows, rep) for ``circle-<d>x<d_r>``: the full M_d under a circle rep
    of band d_r - 1 whose generator has seeded integer frequencies in
    [-d_r / 2, d_r / 2] in a seeded eigenbasis, as thermal-frames draws it."""
    import numpy as np

    from qrflab.symmetry import CircleGroup, CircleRep

    m = re.fullmatch(r"circle-(\d+)x(\d+)", shape)
    if not m:
        raise ValueError(f"unknown circle shape {shape!r}")
    d, d_r = int(m[1]), int(m[2])
    rng = np.random.default_rng(0)
    w = random_unitary(rng, d)
    freqs = rng.integers(-(d_r // 2), d_r // 2 + 1, d)
    rep = CircleRep(CircleGroup(d_r - 1), (w * freqs) @ w.conj().T)
    return np.eye(d * d, dtype=complex), rep


def random_hermitian(rng, d: int):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (x + x.conj().T) / 2.0


def random_density(rng, d: int):
    """A seeded full-rank density matrix on C^d."""
    import numpy as np

    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x @ x.conj().T + 1e-3 * np.eye(d)
    return rho / np.trace(rho).real


def modular_case(shape: str, repeats: int) -> dict:
    """The shape fields and medians of ``modular:gibbs-d<d>``."""
    import numpy as np

    from qrflab.modular import (
        FLOW_PROBE_TIMES,
        KMS_TIME_GRID,
        gibbs_state,
        gns_doubling,
        kms_check,
        modular_data,
    )

    m = re.fullmatch(r"gibbs-d(\d+)", shape)
    if not m:
        raise ValueError(f"unknown modular shape {shape!r}")
    d = int(m[1])
    rng = np.random.default_rng(0)
    w = random_unitary(rng, d)
    h = (w * rng.uniform(0.0, 2.0, d)) @ w.conj().T
    h = (h + h.conj().T) / 2.0
    rho = gibbs_state(h, 1.0)
    pairs = [(random_hermitian(rng, d) + 1j * random_hermitian(rng, d), random_hermitian(rng, d))
             for _ in range(3)]
    md = modular_data(*gns_doubling(rho))
    _, flow_ms = timed(md.flow_defect, repeats)
    _, conjugation_ms = timed(md.conjugation_defect, repeats)
    _, kms_ms = timed(lambda: kms_check(rho, h, 1.0, pairs), repeats)
    _, ms = timed(
        lambda: (md.flow_defect(), md.conjugation_defect(), kms_check(rho, h, 1.0, pairs)), repeats)
    return {"D": md.algebra.ambient_dim, "m": md.algebra.dim, "probe_times": len(FLOW_PROBE_TIMES),
            "grid_times": len(KMS_TIME_GRID), "flow_ms": flow_ms,
            "conjugation_ms": conjugation_ms, "kms_ms": kms_ms, "median_ms": ms}


def relativise_case(shape: str, repeats: int) -> dict:
    """The shape fields and median of ``relativise:circle-<d>x<d_r>``."""
    import numpy as np

    from qrflab.frames import CirclePartition, QuantumReferenceFrame, phase_povm
    from qrflab.relativise import GroupAction, expected_relative_outcome, localization_defect
    from qrflab.symmetry import CircleRep
    from qrflab.vnalg import OperatorAlgebra

    rows, rep = circle_case(shape)
    d, d_r = rep.dim, rep.group.bandwidth + 1
    rng = np.random.default_rng(1)
    vecs = rng.standard_normal((d_r, d_r)) + 1j * rng.standard_normal((d_r, d_r))
    vecs /= np.linalg.norm(vecs, axis=0)
    bounds = tuple(np.sort(rng.uniform(0.0, 2.0 * np.pi, 4)))
    frame = QuantumReferenceFrame(
        CircleRep(rep.group, np.diag(np.arange(d_r)).astype(complex)),
        phase_povm(d_r, vecs.conj().T @ vecs, CirclePartition(bounds)),
    )
    action = GroupAction(OperatorAlgebra(d, rows), rep)
    x = random_hermitian(rng, d)
    omega_s, omega_r = random_density(rng, d), random_density(rng, d_r)
    sigma = random_density(rng, d_r)
    _, ms = timed(lambda: expected_relative_outcome(x, action, frame, omega_s, omega_r), repeats)
    _, localization_ms = timed(lambda: localization_defect(x, action, frame, sigma), repeats)
    return {"d": d, "d_r": d_r, "nodes": int(rep.group.quadrature_nodes().size), "median_ms": ms,
            "localization_ms": localization_ms}


def charge_sector_reps(top: int):
    """(rows, u, v) of ``charge-sectors-<top>``: the full M_4 of two qubits
    under their number operator, and the clock frame diag(0, ..., top), on
    a circle of band ``top``."""
    import numpy as np

    from qrflab.symmetry import CircleGroup, CircleRep

    band = CircleGroup(top)
    u = CircleRep(band, np.diag([0.0, 1, 1, 2]))
    return np.eye(16, dtype=complex), u, CircleRep(band, np.diag(np.arange(top + 1.0)))


def charge_sector_case(top: int):
    """The algebra of ``charge-sectors-<top>``: M_4 of two qubits and the
    clock frame, invariant under their joint number operator."""
    from qrflab.crossed import invariant_joint_algebra
    from qrflab.relativise import GroupAction
    from qrflab.vnalg import OperatorAlgebra

    rows, u, v = charge_sector_reps(top)
    return invariant_joint_algebra(GroupAction(OperatorAlgebra(4, rows), u), v)


def phase_generation_case(shape: str, repeats: int) -> dict:
    """The shape fields and median of ``span:phase-generation-<L>``."""
    import numpy as np

    from qrflab.frames import CirclePartition, QuantumReferenceFrame, phase_povm
    from qrflab.relativise import GroupAction, relativize
    from qrflab.symmetry import CircleGroup, CircleRep
    from qrflab.vnalg import OperatorAlgebra, generate_algebra

    m = re.fullmatch(r"phase-generation-(\d+)", shape)
    if not m:
        raise ValueError(f"unknown span shape {shape!r}")
    n = int(m[1]) + 1
    band = CircleGroup(n)
    action = GroupAction(OperatorAlgebra(2, np.eye(4, dtype=complex)),
                         CircleRep(band, np.diag([0.0, 1.0])))
    arcs = CirclePartition(tuple(2.0 * np.pi * np.arange(n) / n))
    frame = QuantumReferenceFrame(CircleRep(band, np.diag(np.arange(n, dtype=float))),
                                  phase_povm(n, np.ones((n, n)), arcs))
    gens = [relativize(unit.reshape(2, 2), action, frame) for unit in np.eye(4)]
    gens += [np.kron(np.eye(2), np.diag(p)) for p in np.eye(n)]
    alg, ms = timed(lambda: generate_algebra(gens, 2 * n), repeats)
    return {"D": 2 * n, "dim": alg.dim, "median_ms": ms}


def intersection_case(shape: str, repeats: int) -> dict:
    """The shape fields, median and ``tracemalloc`` peak of
    ``intersection:charge-sectors-<L>``."""
    import tracemalloc

    from qrflab.vnalg import commutant, span_intersection

    m = re.fullmatch(r"charge-sectors-(\d+)", shape)
    if not m:
        raise ValueError(f"unknown intersection shape {shape!r}")
    alg = charge_sector_case(int(m[1]))
    small, large = sorted((alg.rows, commutant(alg).rows), key=len)
    rows, ms = timed(lambda: span_intersection(small, large), repeats)
    tracemalloc.start()
    try:
        span_intersection(small, large)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"small_rows": small.shape[0], "large_rows": large.shape[0], "dim": rows.shape[0],
            "median_ms": ms, "peak_mb": peak / 1e6}


def timed(call, repeats: int):
    """The warm-up call's result and the median of ``repeats`` more calls, in ms."""
    result = call()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return result, 1e3 * statistics.median(times)


def run_case(case: str, repeats: int) -> dict:
    """The shape fields and median time of one ``kernel:shape`` case."""
    from qrflab import crossed, symmetry
    from qrflab.crossed import build_crossed_product, verify_commutation_theorem
    from qrflab.relativise import GroupAction
    from qrflab.symmetry import tensor_fixed_point_rows
    from qrflab import vnalg
    from qrflab.vnalg import OperatorAlgebra, centre, commutant, decompose

    kernel, _, shape = case.partition(":")
    if kernel == "modular":
        return modular_case(shape, repeats)
    if kernel == "relativise":
        return relativise_case(shape, repeats)
    if kernel == "span":
        return phase_generation_case(shape, repeats)
    if kernel == "intersection":
        return intersection_case(shape, repeats)
    if kernel == "commutant":
        n_squared, expected_dim, alg = commutant_case(shape)
        comm, ms = timed(lambda: commutant(alg), repeats)
        if comm.dim != expected_dim:
            raise RuntimeError(f"case {case!r}: commutant has dim {comm.dim}, not {expected_dim}")
        eigenbasis = getattr(vnalg, "_generic_eigenbasis", lambda alg: None)(alg)
        sizes = [alg.ambient_dim] if eigenbasis is None else eigenbasis[1].tolist()
        return {"n_squared": n_squared, "gram_dim": sum(n * n for n in sizes),
                "clusters": len(sizes), "median_ms": ms}
    if kernel == "invariance":
        if shape.startswith("circle-"):
            rows, rep = circle_case(shape)
            gens = 1
        else:
            rows, rep, _ = group_case(shape)
            gens = len(rep.group.generators())
        _, ms = timed(lambda: GroupAction(OperatorAlgebra(rep.dim, rows), rep), repeats)
        return {"m": rows.shape[0], "d": rep.dim, "nodes": int(rep.group.quadrature_nodes().size),
                "gens": gens, "median_ms": ms}
    if kernel == "decompose":
        if m := re.fullmatch(r"charge-sectors-(\d+)", shape):
            alg = charge_sector_case(int(m[1]))
        else:
            rows, u, _ = group_case(shape)
            alg = build_crossed_product(GroupAction(OperatorAlgebra(u.dim, rows), u)).algebra
        structure, ms = timed(lambda: decompose(alg), repeats)
        return {"m": alg.dim, "D": alg.ambient_dim, "blocks": len(structure.blocks), "median_ms": ms}
    if kernel not in ("fixed-points", "closure", "centre"):
        raise ValueError(f"unknown kernel in case {case!r}")
    if m := re.fullmatch(r"charge-sectors-(\d+)", shape):
        rows, u, v = charge_sector_reps(int(m[1]))
    else:
        rows, u, v = group_case(shape)
    if kernel == "fixed-points":
        fixed, ms = timed(lambda: tensor_fixed_point_rows(rows, u, v), repeats)
        labelled = getattr(symmetry, "_fixed_points", None)
        dims = labelled(rows, u, v)[1] if labelled else None
        return {"m": rows.shape[0], "d_u": u.dim, "d_v": v.dim,
                "nodes": int(u.group.quadrature_nodes().size), "r": fixed.shape[0],
                "components": len(dims) if dims is not None else None,
                "max_d_pi": max(dims, default=0) if dims is not None else None,
                "averaged": sum(d > 1 for d in dims) if dims is not None else None,
                "median_ms": ms}
    action = GroupAction(OperatorAlgebra(u.dim, rows), u)
    if kernel == "centre":
        cp = build_crossed_product(action)
        z, ms = timed(lambda: centre(cp.algebra), repeats)
        return {"D": cp.ambient_dim, "dim": cp.dim, "centre_dim": z.dim, "median_ms": ms}
    cp, build_ms = timed(lambda: build_crossed_product(action), repeats)
    report, ms = timed(lambda: verify_commutation_theorem(cp), repeats)
    if not report.passed:
        raise RuntimeError(f"case {case!r}: commutation check failed")
    dim_m, gens = rows.shape[0], len(u.group.generators())
    graded_rows = getattr(crossed, "_graded_rows", lambda rows, d, group: None)
    graded = graded_rows(cp.algebra.rows, u.dim, u.group) is not None
    return {"dim_m": dim_m, "d": u.dim, "order": u.group.order, "D": cp.ambient_dim,
            "D_squared": cp.ambient_dim ** 2, "dim": cp.dim, "gens": gens,
            "all_pairs_products": cp.dim ** 2, "generator_products": (dim_m + gens) * cp.dim,
            "route": "graded" if graded else "dense",
            "width": u.group.order * u.dim ** 2 if graded else cp.ambient_dim ** 2,
            "build_ms": build_ms, "median_ms": ms}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="qrflab source tree to import (default: src/ of this checkout)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--cases", nargs="+", default=DEFAULT_CASES)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    results = []
    for case in args.cases:
        results.append({"case": case, **run_case(case, args.repeats)})
        print(f"{case:>32}  median {results[-1]['median_ms']:.3f} ms", file=sys.stderr)
    print(json.dumps({
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "repeats": args.repeats,
        "cases": results,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
