"""Relativisation of system observables over a reference frame.

The central map sends an invariant system observable x to a joint
observable on system plus frame by pairing the orbit of x with the frame's
outcome effects. Restriction through a frame state undoes it in the
localised limit; both directions are implemented together with the
expectation identities that connect them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import CosetCells, QuantumReferenceFrame
from .opcore import (
    as_operator,
    check_density,
    dagger,
    op_norm,
    partial_trace,
)
from .symmetry import CircleRep, FiniteRep, Rep
from .vnalg import OperatorAlgebra, _worst_residual

# How far an algebra or an observable may move under the group and stay invariant.
_INVARIANCE_TOL = 1.0e-8


@dataclass
class GroupAction:
    """An algebra of system observables carried into itself by a representation."""

    algebra: OperatorAlgebra
    rep: Rep

    def __post_init__(self) -> None:
        if self.algebra.ambient_dim != self.rep.dim:
            raise ValueError("algebra and representation dimensions differ")
        # At each quadrature node the whole basis stack is conjugated at once
        # and projected onto the span in one product. The rows are
        # orthonormal and conjugation is unitary, so each moved element has
        # norm 1 and the test is distance > _INVARIANCE_TOL.
        rows = self.algebra.rows
        d = self.rep.dim
        basis = rows.reshape(-1, d, d)
        for g in self.rep.group.quadrature_nodes():
            u = self.rep.unitary(g)
            moved = (u @ basis @ dagger(u)).reshape(rows.shape)
            if _worst_residual(moved, rows) > _INVARIANCE_TOL:
                raise ValueError("representation does not preserve the algebra")


def _require_same_group(action: GroupAction, frame: QuantumReferenceFrame) -> None:
    if type(action.rep) is not type(frame.rep) or action.rep.group != frame.rep.group:
        raise ValueError("system action and frame must share one symmetry group")


def _stabiliser_defect(x: np.ndarray, action: GroupAction, frame: QuantumReferenceFrame) -> float:
    if isinstance(frame.rep, CircleRep):
        # Circle frames are principal; the stabiliser is trivial.
        return 0.0
    cells: CosetCells = frame.povm.space
    worst = 0.0
    for h in cells.space.subgroup:
        worst = max(worst, op_norm(action.rep.conjugate(h, x) - x))
    return worst


def relativize(x: np.ndarray, action: GroupAction, frame: QuantumReferenceFrame) -> np.ndarray:
    """Pair the orbit of x with the frame effects.

    For finitely many cells this is sum_s U(g_s) x U(g_s)^dag (x) E_s over
    coset representatives g_s; x must be invariant under the stabiliser
    subgroup for the result to be independent of how representatives were
    chosen. Band-limited circle frames contract Fourier modes exactly
    instead of summing.
    """
    x = as_operator(x)
    _require_same_group(action, frame)
    if x.shape[0] != action.rep.dim:
        raise ValueError("observable dimension does not match the system")
    if not action.algebra.contains(x):
        raise ValueError("observable lies outside the system algebra")
    if _stabiliser_defect(x, action, frame) > _INVARIANCE_TOL * max(1.0, op_norm(x)):
        raise ValueError("relativisation requires stabiliser-invariant input")
    if isinstance(frame.rep, FiniteRep):
        cells: CosetCells = frame.povm.space
        d_s, d_r = action.rep.dim, frame.rep.dim
        out = np.zeros((d_s * d_r, d_s * d_r), dtype=complex)
        for s, g_s in enumerate(cells.space.representatives):
            out += np.kron(action.rep.conjugate(g_s, x), frame.povm.effects[s])
        return out
    return _relativize_circle(x, action, frame)


def _phase_density_matrix(frame: QuantumReferenceFrame) -> np.ndarray:
    c = getattr(frame.povm, "phase_c", None)
    if c is None:
        raise ValueError("circle relativisation needs a phase POVM with its c matrix")
    gen = frame.rep.generator
    if np.abs(gen - np.diag(np.diag(gen))).max() > 1.0e-12:
        raise ValueError("circle frame generator must be diagonal in the POVM basis")
    return c


def _circle_modes(
    x: np.ndarray, action: GroupAction, frame: QuantumReferenceFrame
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared set-up of the two exact circle contractions.

    Returns x in the eigenbasis of the system generator, the phase density
    c, and the mode mask mask[j, n, k, m] = (k_j - k_k + N_n - N_m == 0):
    the orbit entry x_jk carries e^{i theta (k_j - k_k)}, the density entry
    c_nm carries e^{i theta (N_n - N_m)}, and integrating over the circle
    keeps exactly the pairs whose frequencies cancel.
    """
    c = _phase_density_matrix(frame)
    v = action.rep.vecs
    k = action.rep.freqs
    nr = np.rint(np.diag(frame.rep.generator).real).astype(int)
    nu = k[:, None, None, None] - k[None, None, :, None]
    mask = nu + nr[None, :, None, None] - nr[None, None, None, :] == 0
    return dagger(v) @ x @ v, c, mask


def _relativize_circle(
    x: np.ndarray, action: GroupAction, frame: QuantumReferenceFrame
) -> np.ndarray:
    """Exact Fourier-mode contraction of the orbit against the phase density."""
    xt, c, mask = _circle_modes(x, action, frame)
    v = action.rep.vecs
    d_s, d_r = action.rep.dim, frame.rep.dim
    out = np.where(mask, xt[:, None, :, None] * c[None, :, None, :], 0.0)
    big_v = np.kron(v, np.eye(d_r))
    return big_v @ out.reshape(d_s * d_r, d_s * d_r) @ dagger(big_v)


def restrict(joint: np.ndarray, sigma: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Slice a joint observable at a frame state: X -> tr_R(X (1 (x) sigma))."""
    joint = as_operator(joint, "joint observable")
    sigma = check_density(sigma)
    d_s, d_r = dims
    if sigma.shape[0] != d_r:
        raise ValueError("frame state dimension mismatch")
    return partial_trace(joint @ np.kron(np.eye(d_s), sigma), dims, "second")


def expected_relative_outcome(
    x: np.ndarray,
    action: GroupAction,
    frame: QuantumReferenceFrame,
    omega_s: np.ndarray,
    omega_r: np.ndarray,
    tol: float = 1.0e-9,
) -> complex:
    """Expectation of the relativised observable in a product state.

    Evaluated twice: directly on the joint space, and as the orbit
    expectation weighted by the frame's outcome distribution. The two
    routes must agree; their residual is part of the runtime contract.
    """
    omega_s = check_density(omega_s)
    omega_r = check_density(omega_r)
    joint = relativize(x, action, frame)
    direct = complex(np.trace(np.kron(omega_s, omega_r) @ joint))
    if isinstance(frame.rep, FiniteRep):
        cells: CosetCells = frame.povm.space
        weighted = 0.0 + 0.0j
        for s, g_s in enumerate(cells.space.representatives):
            orbit = complex(np.trace(omega_s @ action.rep.conjugate(g_s, x)))
            weight = complex(np.trace(omega_r @ frame.povm.effects[s]))
            weighted += orbit * weight
    else:
        weighted = _circle_pairing(x, action, frame, omega_s, omega_r)
    if abs(direct - weighted) > tol * max(1.0, abs(direct)):
        raise RuntimeError(
            "joint and outcome-weighted expectations disagree: "
            f"{direct!r} vs {weighted!r}"
        )
    return direct


def _circle_pairing(
    x: np.ndarray,
    action: GroupAction,
    frame: QuantumReferenceFrame,
    omega_s: np.ndarray,
    omega_r: np.ndarray,
) -> complex:
    # integral of omega_S(orbit(theta)) against the outcome density of
    # omega_R, contracted mode by mode. It is kept apart from relativize so
    # that expected_relative_outcome compares two independent routes.
    xt, c, mask = _circle_modes(x, action, frame)
    v = action.rep.vecs
    rs = dagger(v) @ omega_s @ v
    return complex(np.einsum("jnkm,jk,kj,nm,mn->", mask, xt, rs, c, omega_r))


def localization_defect(
    x: np.ndarray,
    action: GroupAction,
    frame: QuantumReferenceFrame,
    sigma: np.ndarray,
) -> float:
    """Operator-norm distance between x and its round trip through the frame.

    Vanishes exactly when sigma is perfectly localised at the identity cell
    of a sharp frame; grows as sigma spreads over the orbit.
    """
    joint = relativize(x, action, frame)
    back = restrict(joint, sigma, (action.rep.dim, frame.rep.dim))
    return op_norm(back - x)


@dataclass
class FrameAssignment:
    """A labelled family of invariant observables, transported to each cell.

    Anchors are the observables assigned to the identity cell; the table
    entry for (label, cell) is the anchor conjugated to that cell's coset
    representative. Entries are built on first use and cached.
    """

    action: GroupAction
    frame: QuantumReferenceFrame
    anchors: dict[str, np.ndarray]
    _table: dict[tuple[str, int], np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        _require_same_group(self.action, self.frame)
        if not isinstance(self.frame.rep, FiniteRep):
            raise ValueError("frame assignments are tabulated for finite frames only")
        self.anchors = {k: as_operator(v, f"anchor {k!r}") for k, v in self.anchors.items()}
        for label, a in self.anchors.items():
            if _stabiliser_defect(a, self.action, self.frame) > _INVARIANCE_TOL:
                raise ValueError(f"anchor {label!r} is not stabiliser-invariant")
            if not self.action.algebra.contains(a):
                raise ValueError(f"anchor {label!r} lies outside the system algebra")

    @property
    def labels(self) -> list[str]:
        return sorted(self.anchors)

    def observable(self, label: str, cell: int) -> np.ndarray:
        key = (label, cell)
        if key not in self._table:
            cells: CosetCells = self.frame.povm.space
            g_s = cells.space.representatives[cell]
            self._table[key] = self.action.rep.conjugate(g_s, self.anchors[label])
        return self._table[key]

    def equivariance_defect(self) -> float:
        """Worst violation of moving a table entry with the group action.

        Conjugating the entry at cell s by U(g) must land on the entry at
        g . s, up to the anchor's stabiliser invariance.
        """
        cells: CosetCells = self.frame.povm.space
        worst = 0.0
        for label in self.anchors:
            for g, targets in cells.cell_permutations():
                for s, t in enumerate(targets):
                    moved = self.action.rep.conjugate(g, self.observable(label, s))
                    worst = max(worst, op_norm(moved - self.observable(label, t)))
        return worst

    def relativized(self, label: str) -> np.ndarray:
        return relativize(self.anchors[label], self.action, self.frame)
