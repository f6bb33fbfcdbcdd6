"""The benchmark's four workloads: inputs made from a seed, checks, oracles.

A check is one scenario task or one theorem check on one fixture. Each
workload object runs one pass over all of its checks with ``run_pass`` and
verifies every answer afterwards, outside the timed region. Inputs are
built in ``build``; that is the set-up the benchmark times.

qrflab is reached only through its public names, imported inside the
builders so that the import counts as set-up.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc

# The two fields criterion 12 strips before comparing corpus reports.
STAMP = re.compile(r'^\s*"(generated_at|elapsed_ms)": .*$', re.M)


@dataclass
class PassResult:
    seconds: float
    check_ms: list[float]
    failed: int
    errors: list[str]  # operations that raised
    problems: list[str]  # answers an oracle rejected


@dataclass
class Check:
    name: str
    run: Callable[[], object]
    verify: Callable[[object], list[str]]
    # Rows of the largest matrix that vnalg._null_space factors for this
    # check. A full SVD of it allocates rows^2 * 16 bytes for U.
    svd_rows: int = 0


@dataclass
class CheckList:
    """A workload whose checks are independent calls timed one by one."""

    checks: list[Check]
    skipped: list[str] = field(default_factory=list)

    @property
    def checks_per_pass(self) -> int:
        return len(self.checks)

    def skip_large_svd(self, max_bytes: float) -> None:
        keep = [c for c in self.checks if c.svd_rows**2 * 16 <= max_bytes]
        self.skipped = [c.name for c in self.checks if c not in keep]
        self.checks = keep

    def run_pass(self) -> PassResult:
        clock = time.perf_counter
        outs = []
        times = []
        start = clock()
        for c in self.checks:
            t = clock()
            try:
                outs.append((c, c.run(), None))
            except Exception as e:  # a failed operation is counted, not fatal
                outs.append((c, None, e))
            times.append((clock() - t) * 1000.0)
        seconds = clock() - start
        errors = [f"{c.name}: {err!r}" for c, _, err in outs if err is not None]
        problems = [
            f"{c.name}: {p}" for c, out, err in outs if err is None for p in c.verify(out)
        ]
        return PassResult(seconds, times, len(errors), errors, problems)


class Corpus:
    """The bundled scenarios run through ``qrflab.cli.main`` as a user runs
    them, each writing its report into the benchmark's output directory."""

    def __init__(self, root: Path, out: Path, seed: int):
        from qrflab.cli import main

        self.main = main
        self.seed = seed
        self.out = out
        self.paths = sorted(
            p for p in (root / "scenarios").glob("*.json") if not p.name.endswith(".schema.json")
        )
        self.tasks = {p.stem: len(json.loads(p.read_text())["tasks"]) for p in self.paths}
        self.first: dict[str, str] = {}
        self.skipped: list[str] = []
        out.mkdir(parents=True, exist_ok=True)

    @property
    def checks_per_pass(self) -> int:
        return sum(self.tasks.values())

    def skip_large_svd(self, max_bytes: float) -> None:
        pass

    def run_pass(self) -> PassResult:
        codes: dict[str, object] = {}
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            for p in self.paths:
                argv = ["run", str(p), "--report", str(self.out), "--seed", str(self.seed)]
                try:
                    codes[p.stem] = self.main(argv)
                except Exception as e:
                    codes[p.stem] = e
            seconds = time.perf_counter() - start
        times: list[float] = []
        failed = 0
        errors: list[str] = []
        problems: list[str] = []
        for p in self.paths:
            stem, code = p.stem, codes[p.stem]
            if isinstance(code, Exception) or code == 2:
                failed += self.tasks[stem]
                errors.append(f"{stem}: {code!r}")
                continue
            raw = (self.out / f"{stem}.report.json").read_text()
            tasks = json.loads(raw)["tasks"]
            times.extend(t["elapsed_ms"] for t in tasks)
            if len(tasks) != self.tasks[stem]:
                problems.append(f"{stem}: {len(tasks)} tasks reported, want {self.tasks[stem]}")
            problems.extend(f"{stem}/{t['name']}: task failed" for t in tasks if not t["passed"])
            if code != 0:
                problems.append(f"{stem}: exit status {code}")
            stripped = STAMP.sub("", raw)
            if self.first.setdefault(stem, stripped) != stripped:
                problems.append(f"{stem}: report differs from the first pass")
        return PassResult(seconds, times, failed, errors, problems)


# ---------------------------------------------------------------- helpers

def _conjugated(rep, w: np.ndarray, finite_rep):
    return finite_rep(rep.group, [w @ u @ w.conj().T for u in rep.unitaries])


def _span_rows(mats) -> np.ndarray:
    """Vectorised rows of matrices that are already HS-orthogonal with equal norms."""
    rows = np.array([np.asarray(m, dtype=complex).ravel() for m in mats])
    return rows / np.linalg.norm(rows[0])


def _phase_mats(n: int) -> list[np.ndarray]:
    return [np.diag([1.0, np.exp(2j * np.pi * k / n)]) for k in range(n)]


def _perm_matrix(p) -> np.ndarray:
    """The matrix sending e_i to e_{p[i]}."""
    return np.eye(len(p))[:, list(p)]


def _s4_multiplicity_free(group) -> list[np.ndarray]:
    """S4 on C^10 = (triv + standard) + sign (triv + standard) + the 2-dim
    irrep, the last through S4's action on the three pairings of {0,1,2,3}
    restricted to the sum-zero plane."""
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    index = {frozenset(map(frozenset, pr)): k for k, pr in enumerate(pairings)}
    plane = np.linalg.qr(np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]))[0]
    mats = []
    for label in group.labels:
        p = [int(c) for c in label]
        perm4 = _perm_matrix(p)
        moved = [index[frozenset(frozenset(p[i] for i in pair) for pair in pr)] for pr in pairings]
        two = plane.T @ _perm_matrix(moved) @ plane
        u = np.zeros((10, 10), dtype=complex)
        u[:4, :4] = perm4
        u[4:8, 4:8] = np.linalg.det(perm4) * perm4
        u[8:, 8:] = two
        mats.append(u)
    return mats


# ----------------------------------------------------------- crossed-growth

def crossed_growth(seed: int) -> CheckList:
    from qrflab import (
        FiniteRep,
        GroupAction,
        OperatorAlgebra,
        build_crossed_product,
        cyclic_group,
        ideal_frame,
        regular_representation,
        symmetric_group,
        verify_commutation_theorem,
        verify_frame_compression,
    )

    rng = np.random.default_rng(seed)
    checks = []

    def commutation(name, action, dim_m, alpha_traces):
        order = action.rep.group.order
        dim = action.rep.dim * order
        lam = regular_representation(action.rep.group).unitaries
        fixed = orc.fixed_dim(alpha_traces, lam)
        checks.append(Check(
            f"commutation/{name}",
            lambda: verify_commutation_theorem(build_crossed_product(action)),
            lambda rep: orc.commutation_problems(rep, dim_m, order, fixed),
            svd_rows=dim * dim,
        ))

    for n in (4, 6, 7, 8):
        lam = regular_representation(cyclic_group(n))
        rep = _conjugated(lam, orc.random_unitary(rng, n), FiniteRep)
        scalars = OperatorAlgebra(n, _span_rows([np.eye(n)]))
        commutation(f"scalars-Z{n}-regular", GroupAction(scalars, rep), 1, [1.0] * n)
    full2 = OperatorAlgebra(2, np.eye(4, dtype=complex))
    for n in (4, 6, 8, 9, 10):
        w = orc.random_unitary(rng, 2)
        rep = FiniteRep(cyclic_group(n), [w @ u @ w.conj().T for u in _phase_mats(n)])
        commutation(f"M2-Z{n}-phase", GroupAction(full2, rep), 4,
                    orc.full_algebra_traces(rep.unitaries))
    s3 = symmetric_group(3)
    rep = _conjugated(regular_representation(s3), orc.random_unitary(rng, 6), FiniteRep)
    group_alg = OperatorAlgebra(6, _span_rows(rep.unitaries))
    commutation("S3-group-algebra-by-conjugation", GroupAction(group_alg, rep), 6,
                orc.centraliser_sizes(s3.table))

    for n in (4, 5, 6):
        group = cyclic_group(n)
        lam = regular_representation(group)
        w = orc.random_unitary(rng, 2)
        rep = FiniteRep(group, [w @ u @ w.conj().T for u in _phase_mats(n)])
        action = GroupAction(full2, rep)
        frame = ideal_frame(lam)
        want = orc.fixed_dim(orc.full_algebra_traces(rep.unitaries), lam.unitaries)
        dim = 2 * n
        checks.append(Check(
            f"compression/M2-Z{n}-phase-ideal-frame",
            lambda action=action, frame=frame: verify_frame_compression(action, frame),
            lambda rep, want=want: orc.compression_problems(rep, want),
            svd_rows=dim * dim,
        ))
    return CheckList(checks)


# --------------------------------------------------------- algebra-structure

def algebra_structure(seed: int) -> CheckList:
    from qrflab import (
        FiniteRep,
        OperatorAlgebra,
        algebra_from_matrices,
        centre,
        commutant,
        cyclic_group,
        decompose,
        fixed_point_algebra,
        regular_representation,
        right_regular_representation,
        symmetric_group,
        tensor_rep,
    )

    rng = np.random.default_rng(seed)
    checks = []

    s3 = symmetric_group(3)
    w = orc.random_unitary(rng, 6)
    left = _conjugated(regular_representation(s3), w, FiniteRep)
    s3_alg = OperatorAlgebra(6, _span_rows(left.unitaries))
    right = _span_rows([w @ u @ w.conj().T for u in right_regular_representation(s3).unitaries])
    checks += [
        Check("commutant/S3-group-algebra", lambda: commutant(s3_alg),
              lambda c: orc.same_span_problems("commutant", c.rows, right), svd_rows=6**3),
        Check("centre/S3-group-algebra", lambda: centre(s3_alg),
              lambda z, k=orc.class_count(s3.table): orc.dim_problems("centre", z.dim, k),
              svd_rows=6**3),
        Check("bicommutant/S3-group-algebra", lambda: commutant(commutant(s3_alg)),
              lambda b: orc.same_span_problems("bicommutant", b.rows, s3_alg.rows),
              svd_rows=6**3),
    ]
    z8 = cyclic_group(8)
    z8_lam = _conjugated(regular_representation(z8), orc.random_unitary(rng, 8), FiniteRep)
    z8_alg = OperatorAlgebra(8, _span_rows(z8_lam.unitaries))
    checks += [
        Check("decompose/S3-group-algebra", lambda: decompose(s3_alg),
              lambda bs, b=orc.regular_blocks(orc.IRREP_DIMS["S3"], s3.table):
              orc.block_problems(bs, b), svd_rows=6**3),
        Check("decompose/Z8-group-algebra", lambda: decompose(z8_alg),
              lambda bs, b=orc.regular_blocks((1,) * 8, z8.table): orc.block_problems(bs, b),
              svd_rows=8**3),
    ]

    # S4 acts on a 10-dimensional space holding each of its five irreps
    # once, so its group algebra is all of C[S4] at a fraction of the
    # regular representation's cost.
    s4 = symmetric_group(4)
    s4_rep = _conjugated(
        FiniteRep(s4, _s4_multiplicity_free(s4)), orc.random_unitary(rng, 10), FiniteRep
    )
    s4_alg = algebra_from_matrices(s4_rep.unitaries, 10)
    s4_blocks = orc.multiplicity_free_blocks(orc.IRREP_DIMS["S4"], s4.table, s4_rep.unitaries)
    s4_rows = s4_alg.dim * 10**2
    checks += [
        Check("commutant/S4-group-algebra", lambda: commutant(s4_alg),
              lambda c, k=orc.fixed_dim([1.0] * s4.order, s4_rep.unitaries):
              orc.dim_problems("commutant", c.dim, k), svd_rows=s4_rows),
        Check("centre/S4-group-algebra", lambda: centre(s4_alg),
              lambda z, k=orc.class_count(s4.table): orc.dim_problems("centre", z.dim, k),
              svd_rows=s4_rows),
        Check("decompose/S4-group-algebra", lambda: decompose(s4_alg),
              lambda bs: orc.block_problems(bs, s4_blocks), svd_rows=s4_rows),
    ]

    for d in (8, 10, 11, 12):
        w = orc.random_unitary(rng, d)
        rows = np.array([np.outer(w[:, i], w[:, j].conj()).ravel() for i in range(d) for j in range(d)])
        full = OperatorAlgebra(d, rows)
        scalars = _span_rows([np.eye(d)])
        checks.append(Check(
            f"commutant/M{d}",
            lambda full=full: commutant(full),
            lambda c, s=scalars: orc.same_span_problems("commutant", c.rows, s),
            svd_rows=d**4,
        ))

    perm3 = FiniteRep(s3, [_perm_matrix([int(c) for c in label]) for label in s3.labels])
    pairs = [
        ("Z3-regular", regular_representation(cyclic_group(3)), regular_representation(cyclic_group(3))),
        ("Z5-regular", regular_representation(cyclic_group(5)), regular_representation(cyclic_group(5))),
        ("S3-regular", regular_representation(s3), perm3),
    ]
    for label, u, v in pairs:
        u = _conjugated(u, orc.random_unitary(rng, u.dim), FiniteRep)
        v = _conjugated(v, orc.random_unitary(rng, v.dim), FiniteRep)
        want = orc.fixed_dim(orc.full_algebra_traces(u.unitaries), v.unitaries)
        joint = [np.kron(a, b) for a, b in zip(u.unitaries, v.unitaries)]

        def verify(alg, want=want, joint=joint):
            out = orc.dim_problems("fixed-point", alg.dim, want)
            d = joint[0].shape[0]
            mats = alg.rows.reshape(-1, d, d)
            moved = max(float(np.abs(g @ mats @ g.conj().T - mats).max()) for g in joint)
            return out + orc.defect_problems({"fixed-point motion": moved}, orc.DIM_TOL)

        checks.append(Check(
            f"fixed-points/{label}-x-{v.dim}",
            lambda u=u, v=v: fixed_point_algebra(tensor_rep(u, v)),
            verify,
        ))
    return CheckList(checks)


# ------------------------------------------------------------ thermal-frames

def thermal_frames(seed: int) -> CheckList:
    from qrflab import (
        CircleGroup,
        CirclePartition,
        CircleRep,
        GroupAction,
        OperatorAlgebra,
        QuantumReferenceFrame,
        expected_relative_outcome,
        gibbs_state,
        gns_doubling,
        kms_check,
        localization_defect,
        modular_data,
        phase_povm,
        relativize,
    )

    rng = np.random.default_rng(seed)
    checks = []

    for d, beta in ((2, 1.0), (3, 1.0), (4, 0.5), (4, 1.0), (4, 2.0), (5, 1.0)):
        w = orc.random_unitary(rng, d)
        h = (w * rng.uniform(0.0, 2.0, d)) @ w.conj().T
        h = (h + h.conj().T) / 2.0
        rho = gibbs_state(h, beta)
        pairs = [
            (orc.random_hermitian(rng, d) + 1j * orc.random_hermitian(rng, d), orc.random_hermitian(rng, d))
            for _ in range(3)
        ]

        def thermal(rho=rho, h=h, beta=beta, pairs=pairs):
            md = modular_data(*gns_doubling(rho))
            return md.delta, {
                "flow defect": md.flow_defect(),
                "conjugation defect": md.conjugation_defect(),
                "vector defect": md.vector_invariance_defect(),
                "KMS residual (physics sign)": kms_check(rho, h, beta, pairs).max_residual,
                "KMS residual (paper sign, -H)":
                    kms_check(rho, -h, beta, pairs, sign="paper").max_residual,
            }

        checks.append(Check(
            f"modular-kms/gibbs-d{d}-beta{beta}",
            thermal,
            lambda out, h=h, beta=beta: orc.spectrum_problems(out[0], orc.modular_spectrum(h, beta))
            + orc.defect_problems(out[1]),
            svd_rows=d**6,
        ))

    for d_s, d_r in ((5, 12), (9, 24), (10, 24)):
        group = CircleGroup(d_r - 1)
        w = orc.random_unitary(rng, d_s)
        freqs = rng.integers(-(d_r // 2), d_r // 2 + 1, d_s)
        gen_s = (w * freqs) @ w.conj().T
        gen_r = np.diag(np.arange(d_r)).astype(complex)
        vecs = rng.standard_normal((d_r, d_r)) + 1j * rng.standard_normal((d_r, d_r))
        vecs /= np.linalg.norm(vecs, axis=0)
        c = vecs.conj().T @ vecs
        bounds = tuple(np.sort(rng.uniform(0.0, 2.0 * np.pi, 4)))
        frame = QuantumReferenceFrame(
            CircleRep(group, gen_r), phase_povm(d_r, c, CirclePartition(bounds))
        )
        srep = CircleRep(group, gen_s)
        full = OperatorAlgebra(d_s, np.eye(d_s * d_s, dtype=complex))
        x = orc.random_hermitian(rng, d_s)
        omega_s = orc.random_density(rng, d_s)
        omega_r = orc.random_density(rng, d_r)
        sigma = orc.random_density(rng, d_r)

        def relativise(srep=srep, frame=frame, full=full, x=x, om=(omega_s, omega_r), sigma=sigma):
            action = GroupAction(full, srep)
            return (
                relativize(x, action, frame),
                relativize(np.eye(x.shape[0]), action, frame),
                expected_relative_outcome(x, action, frame, *om),
                localization_defect(x, action, frame, sigma),
            )

        def verify(out, d_s=d_s, d_r=d_r, gens=(gen_s, gen_r), bw=group.bandwidth,
                   x=x, om=(omega_s, omega_r), sigma=sigma):
            y, y_id, value, loc = out
            direct = complex(np.trace(np.kron(*om) @ y))
            back = orc.partial_trace_second(y @ np.kron(np.eye(d_s), sigma), d_s, d_r)
            return orc.relativised_problems(y, y_id, *gens, bw) + orc.defect_problems({
                "expectation mismatch": abs(value - direct) / max(1.0, abs(direct)),
                "localisation mismatch": abs(loc - float(np.linalg.norm(back - x, 2))),
            })

        checks.append(Check(f"relativise/circle-{d_s}x{d_r}", relativise, verify))
    return CheckList(checks)


def build(name: str, seed: int, root: Path, out: Path):
    if name == "corpus":
        return Corpus(root, out / "corpus", seed)
    if name == "crossed-growth":
        return crossed_growth(seed)
    if name == "algebra-structure":
        return algebra_structure(seed)
    if name == "thermal-frames":
        return thermal_frames(seed)
    raise ValueError(f"unknown workload {name!r}")
