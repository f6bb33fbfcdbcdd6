"""Scenario runner: declarative fixtures in, deterministic report out.

A scenario file is JSON describing groups, representations, algebras,
states, frames and schemes by name, plus a list of check tasks that wire
them together. Every task either verifies an internal contract (a defect
below tolerance, a theorem holding on the nose) or pins computed values
against expectations written in the file. Reports are canonical JSON so
that two runs with the same seed differ only in their timestamps.

Exit status: 0 when every task passed, 1 when any failed, 2 when the
scenario itself is malformed; malformed blocks are named in the message.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import typecond as tc
from .crossed import build_crossed_product, verify_commutation_theorem, verify_frame_compression
from .frames import (
    CirclePartition,
    MarkovKernel,
    PlainCells,
    Povm,
    QuantumReferenceFrame,
    check_norm1,
    covariant_dilate,
    ideal_frame,
    is_sharp,
    naimark_dilate,
    phase_povm,
    smear,
)
from .modular import gibbs_state, gns_doubling, kms_check, modular_data
from .opcore import check_density, dagger, op_norm
from .relativise import GroupAction, expected_relative_outcome, localization_defect, relativize
from .scheme import MeasurementScheme, equivariance_defect, induced_observable
from .symmetry import (
    CircleGroup,
    CircleRep,
    FiniteRep,
    HomogeneousSpace,
    cyclic_group,
    regular_representation,
    symmetric_group,
    trivial_rep,
)
from .vnalg import OperatorAlgebra, commutant, decompose, generate_algebra, span_distance


class ScenarioError(Exception):
    """A malformed scenario block; carries the path that names it."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------- parsing

def _require(mapping, key, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ScenarioError(path, f"missing required key {key!r}")
    return mapping[key]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(x, path) -> float:
    if not _is_number(x):
        raise ScenarioError(path, f"expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ScenarioError(path, "expected a number within float range") from None


def _integer(x, path) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ScenarioError(path, f"expected an integer, got {x!r}")
    return x


def _positive(x, path, *, zero_ok=False) -> float:
    """A finite number > 0, or >= 0 where ``zero_ok`` allows an exact match:
    a tolerance, an inverse temperature or a target."""
    v = _number(x, path)
    if not (0.0 <= v if zero_ok else 0.0 < v) or v == math.inf:
        bound = ">= 0" if zero_ok else "> 0"
        raise ScenarioError(path, f"expected a finite number {bound}, got {v!r}")
    return v


def _extended(x, path) -> float:
    # Interval endpoints admit the two infinities, spelled as strings
    # because strict JSON has no literal for them.
    if x == "inf":
        return math.inf
    if x == "-inf":
        return -math.inf
    return _number(x, path)


def _choice(x, path, allowed: tuple[str, ...]) -> str:
    if x not in allowed:
        raise ScenarioError(path, f"expected one of {', '.join(map(repr, allowed))}, got {x!r}")
    return x


def _list(x, path, item, *, nonempty=False) -> list:
    """A list-valued field, entry i read with ``item(v, f"{path}[{i}]")``."""
    if not isinstance(x, list) or (nonempty and not x):
        raise ScenarioError(path, f"expected a {'non-empty ' if nonempty else ''}list, got {x!r}")
    return [item(v, f"{path}[{i}]") for i, v in enumerate(x)]


def _fixed(x, path, *items) -> tuple:
    """A list of exactly ``len(items)`` entries, entry i read with ``items[i]``."""
    if not isinstance(x, list) or len(x) != len(items):
        raise ScenarioError(path, f"expected a list of {len(items)} entries, got {x!r}")
    return tuple(item(v, f"{path}[{i}]") for i, (item, v) in enumerate(zip(items, x)))


@contextmanager
def _config(path):
    """Report a library ``ValueError`` raised while building ``path`` as a config error."""
    try:
        yield
    except ValueError as e:
        raise ScenarioError(path, str(e)) from None


def _entry(x, path) -> complex:
    if isinstance(x, list):
        return complex(*_fixed(x, path, _number, _number))
    return complex(_number(x, path))


def _matrix(x, path, entry=_entry) -> np.ndarray:
    """A matrix as a list of rows, each entry read with ``entry``: complex
    by default, ``_number`` for a real matrix."""
    if not isinstance(x, list) or not x or not all(isinstance(r, list) for r in x):
        raise ScenarioError(path, "expected a matrix as a list of rows")
    width = len(x[0])
    if width == 0 or any(len(r) != width for r in x):
        raise ScenarioError(path, "matrix rows differ in length")
    return np.array(_list(x, path, lambda row, here: _list(row, here, entry)))


def _weight(x, path):
    return tc.INFINITE if x == "INFINITE" else _integer(x, path)


def _multiplicity(terms, path) -> tc.SpectralMultiplicity:
    parsed = _list(terms, path, lambda t, here: _fixed(t, here, _weight, _extended, _extended))
    with _config(path):
        return tc.SpectralMultiplicity(parsed)


def _intervals(x, path) -> list[tuple[float, float]]:
    return _list(x, path, lambda pair, here: _fixed(pair, here, _extended, _extended))


# ------------------------------------------------------------- serialising

def _real(x) -> float | str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _encode_complex(z: complex) -> list[float]:
    return [_real(z.real), _real(z.imag)]


def _encode_matrix(m: np.ndarray) -> list:
    return [[_encode_complex(complex(v)) for v in row] for row in np.asarray(m)]


# ---------------------------------------------------------------- context

@dataclass
class Context:
    groups: dict = field(default_factory=dict)
    reps: dict = field(default_factory=dict)
    algebras: dict = field(default_factory=dict)
    states: dict = field(default_factory=dict)
    frames: dict = field(default_factory=dict)
    schemes: dict = field(default_factory=dict)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))


def _lookup(table: dict, name, path: str, what: str):
    if not isinstance(name, str):
        raise ScenarioError(path, f"expected the name of a {what}, got {name!r}")
    if name not in table:
        raise ScenarioError(path, f"unknown {what} {name!r}")
    return table[name]


def _build_group(ctx: Context, spec, path):
    kind = _require(spec, "kind", path)
    if kind == "cyclic":
        return cyclic_group(_integer(_require(spec, "n", path), f"{path}.n"))
    if kind == "symmetric":
        return symmetric_group(_integer(_require(spec, "n", path), f"{path}.n"))
    if kind == "circle":
        return CircleGroup(_integer(_require(spec, "bandwidth", path), f"{path}.bandwidth"))
    raise ScenarioError(path, f"unknown group kind {kind!r}")


def _build_rep(ctx: Context, spec, path):
    kind = _require(spec, "kind", path)
    group = _lookup(ctx.groups, _require(spec, "group", path), f"{path}.group", "group")
    if kind == "regular":
        return regular_representation(group)
    if kind == "matrices":
        us = _list(_require(spec, "unitaries", path), f"{path}.unitaries", _matrix)
        return FiniteRep(group, us)
    if kind == "circle":
        gen = _matrix(_require(spec, "generator", path), f"{path}.generator")
        return CircleRep(group, gen)
    if kind == "trivial":
        return trivial_rep(group, _integer(_require(spec, "dim", path), f"{path}.dim"))
    raise ScenarioError(path, f"unknown representation kind {kind!r}")


def _build_algebra(ctx: Context, spec, path):
    kind = _require(spec, "kind", path)
    if kind == "full":
        d = _integer(_require(spec, "dim", path), f"{path}.dim")
        return OperatorAlgebra(d, np.eye(d * d, dtype=complex))
    if kind == "trivial":
        d = _integer(_require(spec, "dim", path), f"{path}.dim")
        rows = np.eye(d, dtype=complex).reshape(1, d * d) / math.sqrt(d)
        return OperatorAlgebra(d, rows)
    if kind == "diagonal":
        d = _integer(_require(spec, "dim", path), f"{path}.dim")
        rows = np.zeros((d, d * d), dtype=complex)
        for i in range(d):
            rows[i, i * d + i] = 1.0
        return OperatorAlgebra(d, rows)
    if kind == "generated":
        d = _integer(_require(spec, "ambient_dim", path), f"{path}.ambient_dim")
        gens = _list(_require(spec, "generators", path), f"{path}.generators", _matrix)
        return generate_algebra(gens, d)
    if kind == "group":
        rep = _lookup(ctx.reps, _require(spec, "rep", path), f"{path}.rep", "representation")
        if not isinstance(rep, FiniteRep):
            raise ScenarioError(path, "group algebras need a finite representation")
        return generate_algebra(rep.unitary_stack(rep.group.quadrature_nodes()), rep.dim)
    raise ScenarioError(path, f"unknown algebra kind {kind!r}")


def _build_state(ctx: Context, spec, path) -> np.ndarray:
    if isinstance(spec, str):
        return _lookup(ctx.states, spec, path, "state")
    with _config(path):
        if isinstance(spec, dict):
            kind = _require(spec, "kind", path)
            if kind == "gibbs":
                h = _matrix(_require(spec, "hamiltonian", path), f"{path}.hamiltonian")
                beta = _number(_require(spec, "beta", path), f"{path}.beta")
                return gibbs_state(h, beta)
            if kind == "random":
                d = _integer(_require(spec, "dim", path), f"{path}.dim")
                if d < 1:
                    raise ScenarioError(f"{path}.dim", "dimension must be positive")
                v = ctx.rng.normal(size=(d, d)) + 1j * ctx.rng.normal(size=(d, d))
                rho = v @ v.conj().T
                return rho / np.trace(rho).real
            if kind == "pure":
                here = f"{path}.vector"
                v = np.array(_list(_require(spec, "vector", path), here, _entry, nonempty=True))
                n = np.linalg.norm(v)
                if n < 1e-12:
                    raise ScenarioError(here, "vector has zero norm")
                v = v / n
                return np.outer(v, v.conj())
            raise ScenarioError(path, f"unknown state kind {kind!r}")
        return check_density(_matrix(spec, path))


def _build_cells(ctx: Context, spec, path, n_effects: int):
    if spec is None:
        return PlainCells(n_effects)
    kind = _require(spec, "kind", path)
    if kind == "plain":
        return PlainCells(_integer(spec.get("size", n_effects), f"{path}.size"))
    if kind == "coset":
        group = _lookup(ctx.groups, _require(spec, "group", path), f"{path}.group", "group")
        members = _list(_require(spec, "subgroup", path), f"{path}.subgroup", _integer)
        with _config(path):
            return HomogeneousSpace(group, tuple(members))
    raise ScenarioError(path, f"unknown cell kind {kind!r}")


def _build_frame(ctx: Context, spec, path):
    kind = _require(spec, "kind", path)
    if kind == "ideal":
        rep = _lookup(ctx.reps, _require(spec, "rep", path), f"{path}.rep", "representation")
        return ideal_frame(rep)
    if kind == "explicit":
        effects = _list(_require(spec, "effects", path), f"{path}.effects", _matrix)
        rep = None
        if spec.get("rep") is not None:
            rep = _lookup(ctx.reps, spec["rep"], f"{path}.rep", "representation")
        if spec.get("cells") is None and isinstance(rep, FiniteRep):
            # One effect per group element: the principal value space.
            g = rep.group
            cells = HomogeneousSpace(g, (g.identity,))
        else:
            cells = _build_cells(ctx, spec.get("cells"), f"{path}.cells", len(effects))
        povm = Povm(cells, effects)
        return povm if rep is None else QuantumReferenceFrame(rep, povm)
    if kind == "phase":
        rep = _lookup(ctx.reps, _require(spec, "rep", path), f"{path}.rep", "representation")
        if not isinstance(rep, CircleRep):
            raise ScenarioError(f"{path}.rep", "phase frames need a circle representation")
        c = _matrix(_require(spec, "c", path), f"{path}.c")
        bounds = _list(_require(spec, "boundaries", path), f"{path}.boundaries", _number)
        povm = phase_povm(rep.dim, c, CirclePartition(tuple(bounds)))
        return QuantumReferenceFrame(rep, povm)
    raise ScenarioError(path, f"unknown frame kind {kind!r}")


def _build_scheme(ctx: Context, spec, path) -> MeasurementScheme:
    return MeasurementScheme(
        system_dim=_integer(_require(spec, "system_dim", path), f"{path}.system_dim"),
        probe_dim=_integer(_require(spec, "probe_dim", path), f"{path}.probe_dim"),
        scattering=_matrix(_require(spec, "scattering", path), f"{path}.scattering"),
        probe_prep=_matrix(_require(spec, "probe_prep", path), f"{path}.probe_prep"),
        probe_obs=_matrix(_require(spec, "probe_obs", path), f"{path}.probe_obs"),
    )


def build_context(doc: dict, seed: int) -> Context:
    ctx = Context(rng=np.random.default_rng(seed))
    for section, target, builder in (
        ("groups", ctx.groups, _build_group),
        ("representations", ctx.reps, _build_rep),
        ("algebras", ctx.algebras, _build_algebra),
        ("states", ctx.states, _build_state),
        ("frames", ctx.frames, _build_frame),
        ("schemes", ctx.schemes, _build_scheme),
    ):
        block = doc.get(section, {})
        if not isinstance(block, dict):
            raise ScenarioError(section, "expected an object of named entries")
        for name, spec in block.items():
            path = f"{section}.{name}"
            with _config(path):
                target[name] = builder(ctx, spec, path)
    return ctx


# ------------------------------------------------------------------ tasks

# The values kms_check takes for ``sign`` and equivariance_defect for ``convention``.
_KMS_SIGNS = ("physics", "paper")
_CONVENTIONS = ("inverse", "forward")


def _action(ctx: Context, args, path) -> GroupAction:
    alg = _lookup(ctx.algebras, _require(args, "algebra", path), f"{path}.algebra", "algebra")
    rep = _lookup(ctx.reps, _require(args, "rep", path), f"{path}.rep", "representation")
    return GroupAction(alg, rep)


def _frame(ctx: Context, args, path) -> QuantumReferenceFrame:
    f = _lookup(ctx.frames, _require(args, "frame", path), f"{path}.frame", "frame")
    if not isinstance(f, QuantumReferenceFrame):
        raise ScenarioError(f"{path}.frame", "this task needs a frame with a representation")
    return f


def _povm(ctx: Context, args, path) -> Povm:
    f = _lookup(ctx.frames, _require(args, "frame", path), f"{path}.frame", "frame")
    return f.povm if isinstance(f, QuantumReferenceFrame) else f


def _verdict_result(v: tc.TypeVerdict) -> dict:
    return {
        "status": v.status,
        "integral": _real(v.integral),
        "remainder_bound": _real(v.remainder_bound),
        "detail": v.detail,
    }


def _op_evaluate_condition(ctx, args, path, tol):
    m = _multiplicity(_require(args, "terms", path), f"{path}.terms")
    beta = _positive(_require(args, "beta", path), f"{path}.beta")
    return _verdict_result(tc.evaluate_condition(m, beta))


def _op_desitter(ctx, args, path, tol):
    iv = _intervals(_require(args, "intervals", path), f"{path}.intervals")
    beta = _positive(_require(args, "beta", path), f"{path}.beta")
    return _verdict_result(tc.desitter_condition(iv, beta))


def _op_trace_of_band(ctx, args, path, tol):
    if "intervals" in args:
        iv = _intervals(args["intervals"], f"{path}.intervals")
        return {"value": _real(tc.trace_of_band(iv))}
    m = _multiplicity(_require(args, "terms", path), f"{path}.terms")
    beta = _positive(_require(args, "beta", path), f"{path}.beta")
    return {"value": _real(tc.trace_of_band(beta=beta, multiplicity=m))}


def _op_kms_weight(ctx, args, path, tol):
    steps = _list(
        _require(args, "steps", path),
        f"{path}.steps",
        lambda s, here: _fixed(s, here, _number, _number, _number),
    )
    m = _multiplicity(_require(args, "terms", path), f"{path}.terms")
    beta = _positive(_require(args, "beta", path), f"{path}.beta")
    return {"value": _real(tc.kms_weight_on_step(steps, m, beta))}


def _op_so3_partition(ctx, args, path, tol):
    spec = _require(args, "energies", path)
    kind = _require(spec, "kind", f"{path}.energies")
    if kind == "rotor":
        energies = lambda l: float(l * (l + 1))
    elif kind == "log":
        scale = _number(_require(spec, "scale", f"{path}.energies"), f"{path}.energies.scale")
        energies = lambda l: scale * math.log(2 * l + 1)
    elif kind == "explicit":
        vals = _require(spec, "values", f"{path}.energies")
        energies = _list(vals, f"{path}.energies.values", _number)
    else:
        raise ScenarioError(f"{path}.energies", f"unknown energy model {kind!r}")
    beta = _positive(_require(args, "beta", path), f"{path}.beta")
    target = _positive(args.get("target", 1.0e-9), f"{path}.target")
    res = tc.so3_partition_multiplicity(energies, beta, target=target)
    out = _verdict_result(res.verdict)
    out["terms_used"] = res.terms_used
    out["value"] = out.pop("integral")
    return out


def _op_commutation(ctx, args, path, tol):
    cp = build_crossed_product(_action(ctx, args, path))
    rep = verify_commutation_theorem(cp)
    return {
        "crossed_dim": rep.crossed_dim,
        "fixed_dim": rep.fixed_dim,
        "span_defect": _real(rep.span_defect),
        "untwist_defect": _real(rep.untwist_defect),
        "translation_defect": _real(rep.translation_defect),
        "passed": rep.passed,
    }


def _op_compression(ctx, args, path, tol):
    rep = verify_frame_compression(_action(ctx, args, path), _frame(ctx, args, path))
    return {
        "invariant_dim": rep.invariant_dim,
        "compressed_dim": rep.compressed_dim,
        "span_defect": _real(rep.span_defect),
        "passed": rep.passed,
    }


def _op_modular_data(ctx, args, path, tol):
    rho = _build_state(ctx, _require(args, "state", path), f"{path}.state")
    alg, omega = gns_doubling(rho)
    md = modular_data(alg, omega)
    spectrum = sorted(float(v) for v in np.linalg.eigvalsh(md.delta))
    flow = md.flow_defect()
    conj = md.conjugation_defect()
    vec = md.vector_invariance_defect()
    return {
        "delta_spectrum": spectrum,
        "flow_defect": _real(flow),
        "conjugation_defect": _real(conj),
        "vector_defect": _real(vec),
        "passed": max(flow, conj, vec) <= tol,
    }


def _op_kms_check(ctx, args, path, tol, sign):
    rho = _build_state(ctx, _require(args, "state", path), f"{path}.state")
    h = _matrix(_require(args, "hamiltonian", path), f"{path}.hamiltonian")
    beta = _positive(_require(args, "beta", path), f"{path}.beta")
    pairs = _list(
        _require(args, "pairs", path),
        f"{path}.pairs",
        lambda pair, here: _fixed(pair, here, _matrix, _matrix),
        nonempty=True,
    )
    use_sign = _choice(args.get("sign", sign), f"{path}.sign", _KMS_SIGNS)
    report = kms_check(rho, h, beta, pairs, sign=use_sign, tol=tol)
    rows = [
        [i, _real(t), _real(report.residuals[i, j])]
        for i in range(report.residuals.shape[0])
        for j, t in enumerate(report.times)
    ]
    return {
        "beta": beta,
        "sign": report.sign_convention,
        "max_residual": _real(report.max_residual),
        "passed": report.passed,
        "_csv_kms": rows,
    }


def _product_invariance(action: GroupAction, frame: QuantumReferenceFrame, y: np.ndarray) -> float:
    nodes = action.rep.group.quadrature_nodes()
    worst = 0.0
    for u_s, u_r in zip(action.rep.unitary_stack(nodes), frame.rep.unitary_stack(nodes)):
        u = np.kron(u_s, u_r)
        worst = max(worst, op_norm(u @ y @ dagger(u) - y))
    return worst


def _op_relativize(ctx, args, path, tol):
    action = _action(ctx, args, path)
    frame = _frame(ctx, args, path)
    x = _matrix(_require(args, "observable", path), f"{path}.observable")
    y = relativize(x, action, frame)
    defect = _product_invariance(action, frame, y)
    out = {
        "joint_dim": int(y.shape[0]),
        "invariance_defect": _real(defect),
        "passed": defect <= tol,
    }
    if args.get("include_matrix"):
        out["matrix"] = _encode_matrix(y)
    return out


def _op_localization(ctx, args, path, tol):
    action = _action(ctx, args, path)
    frame = _frame(ctx, args, path)
    x = _matrix(_require(args, "observable", path), f"{path}.observable")
    sigma = _build_state(ctx, _require(args, "frame_state", path), f"{path}.frame_state")
    return {"defect": _real(localization_defect(x, action, frame, sigma))}


def _op_relative_expectation(ctx, args, path, tol):
    action = _action(ctx, args, path)
    frame = _frame(ctx, args, path)
    x = _matrix(_require(args, "observable", path), f"{path}.observable")
    omega_s = _build_state(ctx, _require(args, "system_state", path), f"{path}.system_state")
    omega_r = _build_state(ctx, _require(args, "frame_state", path), f"{path}.frame_state")
    value = expected_relative_outcome(x, action, frame, omega_s, omega_r, tol=max(tol, 1e-9))
    return {"value": _encode_complex(value)}


def _op_scheme_equivariance(ctx, args, path, tol):
    s = _lookup(ctx.schemes, _require(args, "scheme", path), f"{path}.scheme", "scheme")
    sys_rep = _lookup(
        ctx.reps, _require(args, "system_rep", path), f"{path}.system_rep", "representation"
    )
    probe_rep = _lookup(
        ctx.reps, _require(args, "probe_rep", path), f"{path}.probe_rep", "representation"
    )
    convention = _choice(args.get("convention", "inverse"), f"{path}.convention", _CONVENTIONS)
    defect = equivariance_defect(s, sys_rep, probe_rep, convention=convention)
    out = {"convention": convention, "defect": _real(defect)}
    if convention == "inverse":
        out["passed"] = defect <= tol
    return out


def _op_induced_observable(ctx, args, path, tol):
    s = _lookup(ctx.schemes, _require(args, "scheme", path), f"{path}.scheme", "scheme")
    return {"matrix": _encode_matrix(induced_observable(s))}


def _op_smear(ctx, args, path, tol):
    povm = _povm(ctx, args, path)
    kernel = MarkovKernel(_matrix(_require(args, "kernel", path), f"{path}.kernel", _number))
    blurred = smear(povm, kernel)
    return {
        "n_outcomes": blurred.n_outcomes,
        "norm1_before": [_real(v) for v in check_norm1(povm)],
        "norm1_after": [_real(v) for v in check_norm1(blurred)],
    }


def _op_naimark(ctx, args, path, tol):
    povm = _povm(ctx, args, path)
    dil = naimark_dilate(povm)
    defect = dil.reconstruction_defect(povm)
    return {
        "ambient_dim": dil.ambient_dim,
        "reconstruction_defect": _real(defect),
        "passed": defect <= tol,
    }


def _op_covariant_dilation(ctx, args, path, tol):
    frame = _frame(ctx, args, path)
    dil = covariant_dilate(frame)
    defect = dil.reconstruction_defect(frame.povm)
    return {
        "ambient_dim": dil.ambient_dim,
        "frame_dim": dil.kdim,
        "reconstruction_defect": _real(defect),
        "passed": defect <= tol,
    }


def _op_frame_covariance(ctx, args, path, tol):
    frame = _frame(ctx, args, path)
    defect = frame.covariance_defect()
    complete = frame.is_complete()
    return {
        "defect": _real(defect),
        "principal": frame.is_principal,
        "sharp": is_sharp(frame.povm),
        "complete": "not evaluated" if complete is None else complete,
        "norm1": [_real(v) for v in check_norm1(frame.povm)],
        "passed": defect <= tol,
    }


def _op_double_commutant(ctx, args, path, tol):
    alg = _lookup(ctx.algebras, _require(args, "algebra", path), f"{path}.algebra", "algebra")
    bicomm = commutant(commutant(alg))
    dist = span_distance(bicomm, alg)
    return {
        "algebra_dim": alg.dim,
        "bicommutant_dim": bicomm.dim,
        "distance": _real(dist),
        "passed": dist <= tol and bicomm.dim == alg.dim,
    }


def _op_decompose(ctx, args, path, tol):
    alg = _lookup(ctx.algebras, _require(args, "algebra", path), f"{path}.algebra", "algebra")
    bs = decompose(alg)
    return {
        "blocks": [[n, m] for n, m in bs.blocks],
        "defect": _real(bs.defect),
        "algebra_dim": bs.algebra_dim,
        "commutant_dim": bs.commutant_dim,
        "passed": bs.defect <= tol and bs.algebra_dim == alg.dim,
    }


OPS = {
    "evaluate_condition": _op_evaluate_condition,
    "desitter_condition": _op_desitter,
    "trace_of_band": _op_trace_of_band,
    "kms_weight_on_step": _op_kms_weight,
    "so3_partition": _op_so3_partition,
    "commutation_theorem": _op_commutation,
    "frame_compression": _op_compression,
    "modular_data": _op_modular_data,
    "kms_check": _op_kms_check,
    "relativize": _op_relativize,
    "localization_defect": _op_localization,
    "relative_expectation": _op_relative_expectation,
    "scheme_equivariance": _op_scheme_equivariance,
    "induced_observable": _op_induced_observable,
    "smear": _op_smear,
    "naimark_dilation": _op_naimark,
    "covariant_dilation": _op_covariant_dilation,
    "frame_covariance": _op_frame_covariance,
    "double_commutant": _op_double_commutant,
    "decompose": _op_decompose,
}

_TYPECOND_OPS = {"evaluate_condition", "desitter_condition", "so3_partition"}


# ----------------------------------------------------------- expectations

def _deviation(value, target) -> float:
    """Worst absolute deviation between nested lists; inf on shape mismatch."""
    if isinstance(target, str) or isinstance(value, str):
        return 0.0 if value == target else math.inf
    if isinstance(target, list) or isinstance(value, list):
        if (
            not isinstance(target, list)
            or not isinstance(value, list)
            or len(value) != len(target)
        ):
            return math.inf
        return max((_deviation(v, t) for v, t in zip(value, target)), default=0.0)
    if isinstance(target, bool) or isinstance(value, bool):
        return 0.0 if value == target else math.inf
    return abs(float(value) - float(target))


def _target(x, path):
    """An ``equals`` target: a number, string, boolean or nested list of these."""
    if isinstance(x, list):
        return _list(x, path, _target)
    if not isinstance(x, (int, float, str)):
        raise ScenarioError(path, f"expected a number, string, boolean or list, got {x!r}")
    return x


def _close(value, target, tol, key):
    worst = _deviation(value, target)
    return worst <= tol, f"{key}: expected {target} within {tol}, got {value}"


def _rule(rule, here) -> dict:
    """An expect rule, read before any task runs: its ``equals`` target with
    its ``tol``, and its ``min`` and ``max`` bounds."""
    if not isinstance(rule, dict):
        raise ScenarioError(here, "expected an object with equals/min/max")
    parsed = {}
    if "equals" in rule:
        parsed["tol"] = _positive(rule.get("tol", 0.0), f"{here}.tol", zero_ok=True)
        parsed["equals"] = _target(rule["equals"], f"{here}.equals")
    for bound in ("min", "max"):
        if bound in rule:
            parsed[bound] = _number(rule[bound], f"{here}.{bound}")
    if not parsed:
        raise ScenarioError(here, "rule needs one of equals/min/max")
    return parsed


def check_expectations(result: dict, rules: dict, path: str) -> list[str]:
    """Compare a task's result with its rules, as read by ``_rule``."""
    failures = []
    for key, rule in rules.items():
        if key not in result:
            raise ScenarioError(f"{path}.expect.{key}", f"result has no field {key!r}")
        value = result[key]
        if "equals" in rule:
            ok, msg = _close(value, rule["equals"], rule["tol"], key)
            if not ok:
                failures.append(msg)
        for bound, cmp in (("min", lambda v, b: v >= b), ("max", lambda v, b: v <= b)):
            if bound in rule and (not _is_number(value) or not cmp(value, rule[bound])):
                failures.append(f"{key}: expected {bound} {rule[bound]}, got {value}")
    return failures


# ----------------------------------------------------------------- runner

def run_scenario(doc: dict, *, seed: int, tolerance: float, kms_sign: str, verbose: bool, out) -> dict:
    ctx = build_context(doc, seed)
    tasks = doc.get("tasks", [])
    if not isinstance(tasks, list) or not tasks:
        raise ScenarioError("tasks", "scenario needs a non-empty task list")

    names, tols, rules = [], [], []
    for i, task in enumerate(tasks):
        path = f"tasks[{i}]"
        op = _require(task, "op", path)
        _lookup(OPS, op, f"{path}.op", "op")
        name = task.get("name", f"{op}-{i}")
        if not isinstance(name, str):
            raise ScenarioError(f"{path}.name", f"expected a string, got {name!r}")
        if name in names:
            raise ScenarioError(f"{path}.name", f"duplicate task name {name!r}")
        names.append(name)
        tol = tolerance
        if "tolerance" in task:
            tol = _positive(task["tolerance"], f"{path}.tolerance")
        tols.append(tol)
        expect = task.get("expect", {})
        if not isinstance(expect, dict):
            raise ScenarioError(f"{path}.expect", "expected an object of result fields to rules")
        rules.append({key: _rule(r, f"{path}.expect.{key}") for key, r in expect.items()})
        if op == "scheme_equivariance" and task.get("convention") == "forward":
            if not task.get("expect"):
                raise ScenarioError(path, "the forward convention is a regression witness; pin its defect with an expect block")

    # Only kms_check reads the run's sign; bind it there alone.
    ops = dict(OPS, kms_check=partial(_op_kms_check, sign=kms_sign))
    records = []
    n_passed = 0
    # Printed only once every task has run, so that a config error raised by
    # a later task leaves no PASS or FAIL line behind.
    lines: list[str] = []
    for i, (task, name, tol, task_rules) in enumerate(zip(tasks, names, tols, rules)):
        path = f"tasks[{i}]"
        op = task["op"]
        started = time.perf_counter()
        failures: list[str] = []
        result: dict = {}
        try:
            result = ops[op](ctx, task, path, tol)
            failures.extend(check_expectations(result, task_rules, path))
            # A task may assert that the internal check fails; the report
            # then documents a known negative instead of flagging it.
            if task.get("expect_fail"):
                if result.get("passed") is not False:
                    failures.append("expected the internal check to fail, but it passed")
                else:
                    result = dict(result, passed=False, expected_failure=True)
            elif result.get("passed") is False:
                failures.append("internal check failed")
        except ScenarioError:
            raise
        except (ValueError, RuntimeError) as e:
            failures.append(str(e))
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        passed = not failures
        n_passed += passed
        public = {k: v for k, v in result.items() if not k.startswith("_")}
        records.append(
            {
                "name": name,
                "op": op,
                "tolerance": tol,
                "passed": passed,
                "failures": failures,
                "elapsed_ms": elapsed_ms,
                "result": public,
                "_raw": result,
            }
        )
        status = "PASS" if passed else "FAIL"
        detail = "" if passed else ": " + "; ".join(failures)
        lines.append(f"{status} {name} ({op}){detail}")
        if verbose:
            lines.extend(f"    {key} = {public[key]}" for key in sorted(public))

    report = {
        "version": 1,
        "description": doc.get("description", ""),
        "environment": {
            "package": f"qrflab {__version__}",
            "seed": seed,
            "tolerance": tolerance,
            "kms_sign": kms_sign,
        },
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "tasks": [{k: v for k, v in r.items() if not k.startswith("_")} for r in records],
        "summary": {
            "total": len(records),
            "passed": n_passed,
            "failed": len(records) - n_passed,
        },
        "_records": records,
    }
    for line in lines:
        print(line, file=out)
    print(f"{n_passed}/{len(records)} tasks passed", file=out)
    return report


def _write_outputs(report: dict, scenario_path: Path, report_dir: Path) -> None:
    report_dir.mkdir(parents=True, exist_ok=True)
    stem = scenario_path.stem
    records = report.pop("_records")
    body = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    (report_dir / f"{stem}.report.json").write_text(body + "\n")

    typecond_rows = [
        [r["name"], r["op"], r["result"].get("status", ""),
         r["result"].get("integral", r["result"].get("value", "")),
         r["result"].get("remainder_bound", "")]
        for r in records
        if r["op"] in _TYPECOND_OPS
    ]
    if typecond_rows:
        with (report_dir / f"{stem}.typecond.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["task", "op", "status", "value", "remainder_bound"])
            writer.writerows(typecond_rows)

    kms_rows = [
        [r["name"], *row]
        for r in records
        if r["op"] == "kms_check"
        for row in r["_raw"].get("_csv_kms", [])
    ]
    if kms_rows:
        with (report_dir / f"{stem}.kms.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["task", "pair", "time", "residual"])
            writer.writerows(kms_rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qrflab", description="Run declarative reference-frame scenarios."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="execute a scenario file and report per-task pass/fail")
    runner.add_argument("scenario", help="path to a scenario JSON file")
    runner.add_argument("--report", metavar="DIR", help="directory for report JSON and CSV tables")
    runner.add_argument("--seed", type=int, default=None, help="override the scenario's seed")
    runner.add_argument(
        "--tolerance", type=float, default=1.0e-9, help="default per-task tolerance"
    )
    runner.add_argument(
        "--kms-sign",
        choices=_KMS_SIGNS,
        default="physics",
        help="analytic continuation convention for KMS checks",
    )
    runner.add_argument("--verbose", action="store_true", help="print task result fields")
    args = parser.parse_args(argv)

    scenario_path = Path(args.scenario)
    try:
        doc = json.loads(scenario_path.read_text())
    except OSError as e:
        print(f"config error: cannot read {scenario_path}: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"config error: {scenario_path} is not valid JSON: {e}", file=sys.stderr)
        return 2
    if not isinstance(doc, dict):
        print(f"config error: {scenario_path} must hold a JSON object", file=sys.stderr)
        return 2
    if doc.get("version") != 1:
        print("config error: version: expected 1", file=sys.stderr)
        return 2

    try:
        seed = args.seed if args.seed is not None else _integer(doc.get("seed", 0), "seed")
        report = run_scenario(
            doc,
            seed=seed,
            tolerance=_positive(args.tolerance, "--tolerance"),
            kms_sign=args.kms_sign,
            verbose=args.verbose,
            out=sys.stdout,
        )
    except ScenarioError as e:
        print(f"config error: {e.path}: {e.message}", file=sys.stderr)
        return 2

    if args.report:
        _write_outputs(report, scenario_path, Path(args.report))
    else:
        report.pop("_records", None)
    return 0 if report["summary"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
