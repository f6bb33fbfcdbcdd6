"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Every criterion prints exactly one ``PASS criterion-NN ...`` or ``FAIL
criterion-NN ...`` line (visible with -s, and in the captured output on
failure); the assert carries the collected reasons.
"""

import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from qrflab.cli import main as cli_main
from qrflab.crossed import build_crossed_product, verify_commutation_theorem, verify_frame_compression
from qrflab.frames import Povm, QuantumReferenceFrame, covariant_dilate, ideal_frame
from qrflab.modular import gibbs_state, gns_doubling, kms_check, modular_data
from qrflab.opcore import dagger, op_norm
from qrflab.relativise import GroupAction, expected_relative_outcome, relativize
from qrflab.scheme import MeasurementScheme, equivariance_defect
from qrflab.symmetry import (
    CircleGroup,
    CircleRep,
    FiniteRep,
    HomogeneousSpace,
    cyclic_group,
    regular_representation,
    symmetric_group,
    tensor_rep,
)
from qrflab.typecond import (
    CONDITION_FAILS,
    FINITE,
    evaluate_condition,
    indicator,
    kms_weight_on_step,
    so3_partition_multiplicity,
    trace_of_band,
)
from qrflab.vnalg import (
    OperatorAlgebra,
    ProductTrace,
    algebra_from_matrices,
    commutant,
    decompose,
    generate_algebra,
    span_distance,
)

from _factories import SIGMA_X, SIGMA_Z, random_complex, random_density

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# independently recomputed closed forms, frozen
ROTOR_SUM = 2.2802875869162525   # sum (2l+1)^2 exp(-l(l+1))
E_MINUS_ONE = 1.7182818284590452
SINH_ONE = 1.1752011936438014


def conclude(number: int, title: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"{verdict} criterion-{number:02d} {title}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def check(failures: list[str], ok: bool, msg: str) -> None:
    if not ok:
        failures.append(msg)


def full_algebra(d: int) -> OperatorAlgebra:
    return OperatorAlgebra(d, np.eye(d * d, dtype=complex))


def flip_rep(group=None) -> FiniteRep:
    return FiniteRep(group or cyclic_group(2), [np.eye(2, dtype=complex), SIGMA_X])


def phase_rep_z3(group=None) -> FiniteRep:
    omega = np.exp(2j * np.pi / 3)
    return FiniteRep(group or cyclic_group(3), [np.diag([1.0, omega**k]) for k in range(3)])


def unsharp_frame(group=None, p: float = 0.75) -> QuantumReferenceFrame:
    g = group or cyclic_group(2)
    cells = HomogeneousSpace(g, (g.identity,))
    effects = [np.diag([p, 1 - p]).astype(complex), np.diag([1 - p, p]).astype(complex)]
    return QuantumReferenceFrame(regular_representation(g), Povm(cells, effects))


def frame_fixtures():
    # one group object per fixture so the system rep and the frame rep agree
    g2, g3 = cyclic_group(2), cyclic_group(3)
    action2 = GroupAction(full_algebra(2), flip_rep(g2))
    action3 = GroupAction(full_algebra(2), phase_rep_z3(g3))
    return [
        ("sharp-qubit", action2, ideal_frame(regular_representation(g2)), True),
        ("unsharp-qubit", action2, unsharp_frame(g2), False),
        ("phase-qutrit-frame", action3, ideal_frame(regular_representation(g3)), True),
    ]


def test_criterion_01_type_reduction_integral():
    failures: list[str] = []
    halfline = indicator([(0.0, math.inf)])
    evaluate_condition(halfline, 1.0)  # warm the code path before timing
    t0 = time.perf_counter()
    verdict = evaluate_condition(halfline, 1.0)
    elapsed = time.perf_counter() - t0
    check(failures, verdict.status == FINITE, f"half line verdict {verdict.status}")
    check(failures, verdict.integral == 1.0, f"half line integral {verdict.integral!r} != 1.0 exactly")
    full = evaluate_condition(indicator([(-math.inf, math.inf)]), 1.0)
    check(failures, full.status == CONDITION_FAILS, f"full line verdict {full.status}")
    check(failures, elapsed < 1e-3, f"evaluation took {elapsed * 1e3:.3f} ms")
    conclude(1, "type reduction integral on the half line and the full line", failures)


def test_criterion_02_rotor_partition_sum():
    failures: list[str] = []
    t0 = time.perf_counter()
    res = so3_partition_multiplicity(lambda l: float(l * (l + 1)), 1.0, target=1e-9)
    elapsed = time.perf_counter() - t0
    check(failures, res.verdict.status == FINITE, f"verdict {res.verdict.status}")
    check(failures, abs(res.value - ROTOR_SUM) <= 1e-6,
          f"sum {res.value!r} is not within 1e-6 of {ROTOR_SUM!r}")
    check(failures, res.verdict.remainder_bound <= 1e-9,
          f"remainder bound {res.verdict.remainder_bound:.3e}")
    check(failures, abs(res.value - ROTOR_SUM) <= res.verdict.remainder_bound,
          "certified bound does not cover the truncation error")
    check(failures, elapsed < 1e-2, f"evaluation took {elapsed * 1e3:.3f} ms")
    conclude(2, "rotor partition sum with certified remainder", failures)


def test_criterion_03_trace_of_band():
    failures: list[str] = []
    got = trace_of_band([(0.0, 1.0)])
    check(failures, abs(got - E_MINUS_ONE) <= 1e-12, f"band trace {got!r}")
    halfline = indicator([(0.0, math.inf)])
    for beta in (0.5, 1.0, 2.0, 4.0):
        rescaled = trace_of_band(multiplicity=halfline, beta=beta)
        check(failures, rescaled == 1.0, f"rescaled trace at beta={beta} is {rescaled!r}, not exactly 1.0")
    conclude(3, "band trace closed form and exact rescaled product", failures)


def test_criterion_04_kms_weight_identity():
    failures: list[str] = []
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        cuts = np.sort(rng.uniform(-3.0, 3.0, size=rng.integers(2, 7)))
        while len(set(cuts)) != len(cuts):
            cuts = np.sort(rng.uniform(-3.0, 3.0, size=6))
        steps = [(float(rng.uniform(0.05, 2.0)), float(a), float(b))
                 for a, b in zip(cuts[:-1], cuts[1:])]
        mcuts = np.sort(rng.uniform(0.0, 5.0, size=4))
        terms = [(int(rng.integers(1, 4)), float(a), float(b))
                 for a, b in zip(mcuts[:-1], mcuts[1:])]
        from qrflab.typecond import SpectralMultiplicity
        mult = SpectralMultiplicity(terms)
        beta = float(rng.uniform(0.2, 4.0))
        got = kms_weight_on_step(steps, mult, beta)
        l1 = sum(h * (b - a) for h, a, b in steps)
        integral = sum(w * (math.exp(-beta * a) - math.exp(-beta * b)) / beta
                       for w, a, b in terms)
        want = l1 * integral
        worst = max(worst, abs(got - want) / abs(want))
    check(failures, worst <= 1e-12, f"worst relative error {worst:.3e}")
    conclude(4, "weight of a smeared band is the L1 norm times the integral", failures)


def test_criterion_05_commutation_theorem():
    failures: list[str] = []
    from test_crossed import closure_dim, fixtures, hand_built_generators
    t0 = time.perf_counter()
    for name, action, expected in fixtures():
        report = verify_commutation_theorem(build_crossed_product(action))
        check(failures, report.span_defect <= 1e-7, f"{name}: span defect {report.span_defect:.2e}")
        check(failures, report.crossed_dim == report.fixed_dim,
              f"{name}: crossed {report.crossed_dim} != fixed {report.fixed_dim}")
        gens, ambient = hand_built_generators(action)
        brute = closure_dim(gens, ambient)
        check(failures, report.crossed_dim == brute,
              f"{name}: crossed {report.crossed_dim} != brute force {brute}")
    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 5.0, f"suite took {elapsed:.2f} s")
    conclude(5, "crossed products match their fixed point algebras and a brute force count", failures)


def test_criterion_06_compression_theorem():
    failures: list[str] = []
    for name, action, frame, _ in frame_fixtures():
        report = verify_frame_compression(action, frame)
        check(failures, report.span_defect <= 1e-7, f"{name}: span defect {report.span_defect:.2e}")
        check(failures, report.invariant_dim == report.compressed_dim,
              f"{name}: invariant {report.invariant_dim} != compressed {report.compressed_dim}")
    conclude(6, "frame compression recovers the invariant algebra", failures)


def test_criterion_07_relativisation_properties():
    failures: list[str] = []
    rng = np.random.default_rng(7)
    for name, action, frame, sharp in frame_fixtures():
        d_s = action.algebra.ambient_dim
        d_r = frame.povm.dim
        eye_joint = np.eye(d_s * d_r)
        unital = op_norm(relativize(np.eye(d_s), action, frame) - eye_joint)
        check(failures, unital <= 1e-8, f"{name}: unital defect {unital:.2e}")
        joint = tensor_rep(action.rep, frame.rep)
        for _ in range(5):
            x = random_complex(rng, d_s)
            y = relativize(x, action, frame)
            adj = op_norm(relativize(dagger(x), action, frame) - dagger(y))
            check(failures, adj <= 1e-8, f"{name}: adjoint defect {adj:.2e}")
            pos = relativize(dagger(x) @ x, action, frame)
            low = float(np.linalg.eigvalsh((pos + dagger(pos)) / 2).min())
            check(failures, low >= -1e-8, f"{name}: positivity floor {low:.2e}")
            inv = max(op_norm(u @ y @ dagger(u) - y) for u in joint.unitaries)
            check(failures, inv <= 1e-8, f"{name}: invariance defect {inv:.2e}")
        if sharp:
            mult = 0.0
            for _ in range(10):
                a, b = random_complex(rng, d_s), random_complex(rng, d_s)
                mult = max(mult, op_norm(
                    relativize(a @ b, action, frame)
                    - relativize(a, action, frame) @ relativize(b, action, frame)))
            check(failures, mult <= 1e-9, f"{name}: sharp multiplicativity defect {mult:.2e}")
        for _ in range(100):
            x = random_complex(rng, d_s)
            omega_s = random_density(rng, d_s)
            omega_r = random_density(rng, d_r)
            try:
                expected_relative_outcome(x, action, frame, omega_s, omega_r, tol=1e-9)
            except RuntimeError as err:
                check(failures, False, f"{name}: expectation identity broke: {err}")
                break
    g2 = cyclic_group(2)
    action, frame = GroupAction(full_algebra(2), flip_rep(g2)), unsharp_frame(g2)
    image = relativize(SIGMA_Z, action, frame)
    broken = op_norm(relativize(SIGMA_Z @ SIGMA_Z, action, frame) - image @ image)
    check(failures, broken >= 0.1, f"unsharp multiplicativity defect {broken:.2e} is not >= 0.1")
    conclude(7, "relativisation is unital, positive, invariant, and multiplicative exactly when sharp", failures)


def test_criterion_08_covariant_dilation():
    failures: list[str] = []
    frames = [ideal_frame(regular_representation(g))
              for g in (cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3))]
    frames.append(unsharp_frame())
    for frame in frames:
        group = frame.rep.group
        dil = covariant_dilate(frame)
        v = dil.isometry
        iso = op_norm(dagger(v) @ v - np.eye(v.shape[1]))
        check(failures, iso <= 1e-10, f"|G|={group.order}: isometry defect {iso:.2e}")
        lam = regular_representation(group)
        eye_k = np.eye(dil.kdim)
        worst_twine = 0.0
        for g in range(group.order):
            model = np.kron(eye_k, lam.unitaries[g])
            worst_twine = max(worst_twine, op_norm(model @ v - v @ frame.rep.unitaries[g]))
        check(failures, worst_twine <= 1e-9, f"|G|={group.order}: intertwining defect {worst_twine:.2e}")
        recon = dil.reconstruction_defect(frame.povm)
        check(failures, recon <= 1e-9, f"|G|={group.order}: reconstruction defect {recon:.2e}")
    conclude(8, "covariant dilations are isometric, intertwine with translations, and reconstruct", failures)


def test_criterion_09_modular_suite():
    failures: list[str] = []
    alg, omega = gns_doubling(np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex))
    data = modular_data(alg, omega)
    spectrum = np.sort(np.linalg.eigvalsh(data.delta))
    spec_err = float(np.abs(spectrum - np.array([0.5, 1.0, 1.0, 2.0])).max())
    check(failures, spec_err <= 1e-10, f"spectrum error {spec_err:.2e}")
    basis = alg.basis_matrices()
    for t in (-1.3, 0.4, 1.0, 2.0):
        flowed = algebra_from_matrices([data.flow(b, t) for b in basis], 4)
        dist = span_distance(flowed, alg)
        check(failures, dist <= 1e-7, f"flow span distance {dist:.2e} at t={t}")
    conjugated = algebra_from_matrices([data.conjugate_in(b) for b in basis], 4)
    jdist = span_distance(conjugated, commutant(alg))
    check(failures, jdist <= 1e-7, f"conjugation span distance {jdist:.2e}")
    h = np.diag([0.0, 1.0]).astype(complex)
    thermal = kms_check(gibbs_state(h, 1.0), h, 1.0, [(SIGMA_X, SIGMA_X), (SIGMA_X, SIGMA_Z)])
    check(failures, thermal.max_residual <= 1e-9, f"thermal residual {thermal.max_residual:.2e}")
    flat = kms_check(np.eye(2, dtype=complex) / 2, h, 1.0, [(SIGMA_X, SIGMA_X)])
    check(failures, abs(flat.max_residual - SINH_ONE) <= 1e-6,
          f"mismatched residual {flat.max_residual!r} is not sinh(1) within 1e-6")
    conclude(9, "modular spectrum, flow, conjugation, and boundary conditions", failures)


def test_criterion_10_measurement_equivariance():
    failures: list[str] = []
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    ground = np.diag([1.0, 0.0]).astype(complex)
    schemes = [
        ("pointer", MeasurementScheme(2, 2, cnot, ground, SIGMA_Z)),
        ("controlled-flip", MeasurementScheme(2, 2, cnot, plus, SIGMA_X)),
        ("swap", MeasurementScheme(2, 2, swap, ground, SIGMA_Z)),
    ]
    finite = phase_rep_z3()
    circle = CircleRep(CircleGroup(1), np.diag([0.0, 1.0]))
    for name, scheme in schemes:
        for rep_name, rep in (("z3", finite), ("circle", circle)):
            defect = equivariance_defect(scheme, rep, rep)
            check(failures, defect <= 1e-9, f"{name}/{rep_name}: defect {defect:.2e}")
    witness = equivariance_defect(
        MeasurementScheme(2, 2, cnot, plus, SIGMA_X), finite, finite, convention="forward")
    check(failures, witness >= 0.1, f"injected bug defect {witness:.2e} is not >= 0.1")
    conclude(10, "scheme equivariance holds, and the broken convention is caught", failures)


def test_criterion_11_structure_suite():
    failures: list[str] = []
    rng = np.random.default_rng(11)
    fixture_algebras = [
        generate_algebra([SIGMA_X, SIGMA_Z], 2),
        generate_algebra([SIGMA_Z], 2),
        generate_algebra(regular_representation(symmetric_group(3)).unitaries, 6),
    ]
    for k in range(3):
        from _factories import random_hermitian
        d = int(rng.integers(2, 4))
        fixture_algebras.append(generate_algebra([random_hermitian(rng, d)], d))
    for alg in fixture_algebras:
        bic = commutant(commutant(alg))
        dist = span_distance(bic, alg)
        check(failures, dist <= 1e-8, f"double commutant distance {dist:.2e}")
        structure = decompose(alg)
        check(failures, structure.algebra_dim == alg.dim,
              f"sum n_i^2 = {structure.algebra_dim} but algebra dim is {alg.dim}")
        check(failures, structure.commutant_dim == commutant(alg).dim,
              f"sum m_i^2 = {structure.commutant_dim} but commutant dim is {commutant(alg).dim}")
    left = generate_algebra([SIGMA_X, SIGMA_Z], 2)
    right = generate_algebra([SIGMA_Z], 2)
    tau = ProductTrace(left, right)
    check(failures, abs(tau(np.eye(4)) - 1.0) <= 1e-12, "trace is not normalised")
    for _ in range(20):
        a1, b1 = random_complex(rng, 2), np.diag(rng.standard_normal(2)).astype(complex)
        a2, b2 = random_complex(rng, 2), np.diag(rng.standard_normal(2)).astype(complex)
        x, y = np.kron(a1, b1), np.kron(a2, b2)
        check(failures, abs(tau(x @ y) - tau(y @ x)) <= 1e-9, "trace is not tracial")
        val = tau(dagger(x) @ x).real
        check(failures, val >= -1e-12, "trace is not positive")
        if op_norm(x) > 1e-6:
            check(failures, val > 1e-9 * op_norm(x) ** 2 / 4, "trace is not faithful")
    conclude(11, "double commutants, block dimension accounting, and the product trace", failures)


def test_criterion_12_determinism_and_budget(tmp_path, capsys):
    failures: list[str] = []
    corpus = sorted(p for p in SCENARIO_DIR.glob("*.json") if not p.name.endswith(".schema.json"))
    stamp = re.compile(r'^\s*"(generated_at|elapsed_ms)": .*$', re.M)
    t0 = time.perf_counter()
    for round_dir in ("a", "b"):
        out = tmp_path / round_dir
        for scenario in corpus:
            code = cli_main(["run", str(scenario), "--report", str(out)])
            check(failures, code == 0, f"{scenario.stem} exited {code} in round {round_dir}")
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    for scenario in corpus:
        raw_a = (tmp_path / "a" / f"{scenario.stem}.report.json").read_text()
        raw_b = (tmp_path / "b" / f"{scenario.stem}.report.json").read_text()
        check(failures, stamp.sub("", raw_a) == stamp.sub("", raw_b),
              f"{scenario.stem}: reports differ between identical runs")
    check(failures, elapsed < 60.0, f"two corpus passes took {elapsed:.1f} s")
    conclude(12, "byte-identical reports modulo timestamps, within the runtime budget", failures)
