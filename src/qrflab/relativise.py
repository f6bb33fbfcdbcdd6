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

from .frames import QuantumReferenceFrame
from .opcore import (
    as_operator,
    check_density,
    dagger,
    op_norm,
)
from .symmetry import CircleRep, FiniteRep, HomogeneousSpace, Rep, _charge_modes
from .vnalg import OperatorAlgebra, _span_residual, _worst_residual

# How far an algebra or an observable may move under the group and stay invariant.
_INVARIANCE_TOL = 1.0e-8


@dataclass
class GroupAction:
    """An algebra of system observables carried into itself by a representation.

    Invariance is read from generators first. Let P project onto the span
    of the algebra's orthonormal rows, Q = 1 - P, and R the rows of the
    generator map on the basis stack with their projections onto the span
    taken off, formed explicitly:

    - circle: ad N b = [N, b] for each basis element b, with
      N = (vecs * freqs) vecs^dag the generator that ``unitary_stack``
      realises, not the stored ``generator``, whose eigenvalues may sit up
      to 1e-9 off the integers. Ad U(theta) = exp(i theta ad N), so by
      Duhamel's formula ||Q Ad U(theta) P|| <= |theta| ||Q ad N P||
      <= pi ||R||_2, with theta wrapped into [-pi, pi).
    - finite group: Ad U(s) b for each s in ``group.generators()``, with
      rows R_s. From Q Ad U(gh) P = Q Ad U(g) P Ad U(h) P
      + Q Ad U(g) Q Ad U(h) P, a word of length l in the generators has
      ||Q Ad U(g) P|| <= l max_s ||R_s||_2, and l <= |G| - 1.

    The bound is taken with ||R||_F >= ||R||_2, which needs no SVD. When it
    is <= ``_INVARIANCE_TOL``, every basis element b moved by any group
    element g has ||Q Ad U(g) b|| <= ||Q Ad U(g) P|| <= ``_INVARIANCE_TOL``,
    so the span passes the per-node test below without it being run; an
    exactly invariant span always does, at one commutator or |gens|
    conjugations per basis element. The bound is basis-free and the node
    distances are per basis element, so near the tolerance it can exceed
    every node distance (2.6 times, for the diagonal algebra of C^3 tilted
    by 3e-9 under Z3). A span whose bound is above the tolerance is
    therefore decided node by node: it is rejected when some basis element,
    moved by U at a quadrature node, lies farther than ``_INVARIANCE_TOL``
    from the span. The rows are orthonormal and conjugation is unitary, so
    each moved element has norm 1. Either way the verdict is the per-node
    one.
    """

    algebra: OperatorAlgebra
    rep: Rep

    def __post_init__(self) -> None:
        if self.algebra.ambient_dim != self.rep.dim:
            raise ValueError("algebra and representation dimensions differ")
        rows = self.algebra.rows
        rows_h = dagger(rows)
        if _invariance_bound(rows, rows_h, self.rep) <= _INVARIANCE_TOL:
            return
        basis = rows.reshape(-1, self.rep.dim, self.rep.dim)
        for u in self.rep.unitary_stack(self.rep.group.quadrature_nodes()):
            moved = (u @ basis @ dagger(u)).reshape(rows.shape)
            if _worst_residual(moved, rows, rows_h) > _INVARIANCE_TOL:
                raise ValueError("representation does not preserve the algebra")


def _invariance_bound(rows: np.ndarray, rows_h: np.ndarray, rep: Rep) -> float:
    """``GroupAction``'s bound on ||Q Ad U(g) P|| over the whole group, from
    the generators alone; ``rows_h`` is ``dagger(rows)``."""
    basis = rows.reshape(-1, rep.dim, rep.dim)
    if isinstance(rep, CircleRep):
        n = (rep.vecs * rep.freqs) @ dagger(rep.vecs)
        moved, length = [n @ basis - basis @ n], np.pi
    else:
        us = rep.unitary_stack(np.array(rep.group.generators(), dtype=int))
        moved, length = [u @ basis @ dagger(u) for u in us], rep.group.order - 1
    norms = [np.linalg.norm(_span_residual(m.reshape(rows.shape), rows, rows_h)) for m in moved]
    return length * float(max(norms, default=0.0))


def _require_same_group(action: GroupAction, frame: QuantumReferenceFrame) -> None:
    if type(action.rep) is not type(frame.rep) or action.rep.group != frame.rep.group:
        raise ValueError("system action and frame must share one symmetry group")


def _stabiliser_defect(x: np.ndarray, action: GroupAction, frame: QuantumReferenceFrame) -> float:
    if isinstance(frame.rep, CircleRep):
        # Circle frames are principal; the stabiliser is trivial.
        return 0.0
    cells: HomogeneousSpace = frame.povm.space
    us = action.rep.unitary_stack(np.array(cells.subgroup))
    return float(np.linalg.norm(us @ x @ dagger(us) - x, 2, axis=(1, 2)).max())


def _is_stabiliser_invariant(
    x: np.ndarray, action: GroupAction, frame: QuantumReferenceFrame
) -> bool:
    """The stabiliser test at ``_INVARIANCE_TOL``, relative to max(1, ||x||)."""
    return _stabiliser_defect(x, action, frame) <= _INVARIANCE_TOL * max(1.0, op_norm(x))


def _orbit_and_effects(
    x: np.ndarray, action: GroupAction, frame: QuantumReferenceFrame
) -> tuple[np.ndarray, np.ndarray]:
    """The orbit X_k = U_S(g_k) x U_S(g_k)^dag at the frame's group points,
    stacked with the effect E_k that each point carries.

    A finite frame pairs cell s with its coset representative g_s and its
    effect E_s. A phase frame pairs each of the 4B + 1 quadrature nodes theta
    of its group with U_R(theta) c U_R(theta)^dag / (4B + 1), which for the
    diagonal frame generator n is c * e^{i theta (n_k - n_l)} / (4B + 1).
    """
    if isinstance(frame.rep, FiniteRep):
        cells: HomogeneousSpace = frame.povm.space
        points = np.array(cells.representatives)
        effects = frame.povm.effects
    else:
        c, n = _phase_density(frame)
        points = frame.rep.group.quadrature_nodes()
        phases = np.exp(1j * np.multiply.outer(points, n))
        effects = phases[:, :, None] * (c / points.size)
        effects *= phases.conj()[:, None, :]
    us = action.rep.unitary_stack(points)
    return us @ x @ dagger(us), effects


def relativize(x: np.ndarray, action: GroupAction, frame: QuantumReferenceFrame) -> np.ndarray:
    """Pair the orbit of x with the frame effects: sum_k X_k (x) E_k.

    The points g_k are the coset representatives of a finite frame, whose
    input x must be invariant under the stabiliser subgroup for the result
    to be independent of how representatives were chosen; the sum is one
    tensor contraction of the orbit and effect stacks.

    A circle frame gives the circle integral of U_S x U_S^dag (x) U_R c U_R^dag.
    ``_require_same_group`` makes both reps share the band limit B, so the
    integrand has frequencies of at most 4B and its 4B + 1 node sum, which
    ``expected_relative_outcome`` takes, is exact. ``relativize`` takes the
    same integral as the charge pinching of ``_charge_pinching`` instead:
    it keeps the entries whose frequencies cancel, read off the two
    spectra, with no node stack. This second circle path is kept beside the
    node sum because it is exact by construction rather than by a
    quadrature rule, costs one d_S^3 rotation per frequency difference
    rather than 4B + 1 orbit and effect products, and is the charge-sector
    structure of the invariant algebra; it also makes the two routes of
    ``expected_relative_outcome`` independent.
    """
    x = as_operator(x)
    _require_same_group(action, frame)
    if x.shape[0] != action.rep.dim:
        raise ValueError("observable dimension does not match the system")
    if not action.algebra.contains(x):
        raise ValueError("observable lies outside the system algebra")
    if not _is_stabiliser_invariant(x, action, frame):
        raise ValueError("relativisation requires stabiliser-invariant input")
    d_s, d_r = action.rep.dim, frame.rep.dim
    if isinstance(frame.rep, CircleRep):
        joint = _charge_pinching(x, action.rep, frame)
    else:
        orbit, effects = _orbit_and_effects(x, action, frame)
        joint = np.tensordot(orbit, effects, axes=(0, 0)).transpose(0, 2, 1, 3)
    return joint.reshape(d_s * d_r, d_s * d_r)


def _charge_pinching(x: np.ndarray, rep: CircleRep, frame: QuantumReferenceFrame) -> np.ndarray:
    """The circle integral of U_S x U_S^dag (x) U_R c U_R^dag, as the
    (d_S, d_R, d_S, d_R) array of entries [(a, k), (b, l)].

    With q the realised system frequencies and V their eigenvectors
    (``rep.freqs``, ``rep.vecs``, what ``unitary_stack`` uses), the entry
    (a, b) of x~ = V^dag x V turns as e^{i theta (q_a - q_b)}, and the entry
    (k, l) of c as e^{i theta (n_k - n_l)} for the diagonal frame generator
    n. Integration keeps the pairs with q_a - q_b = n_l - n_k, so the result
    is x^(n_l - n_k)_ab c_kl, with x^(delta) = V (x~ * [q_a - q_b = delta]) V^dag
    the delta-th Fourier mode of x from ``_charge_modes``.
    """
    c, n = _phase_density(frame)
    spread = int(n.max() - n.min())
    modes = _charge_modes(x, rep, np.arange(-spread, spread + 1))
    # Entry [a, k, b, l] is modes[n_l - n_k + spread, a, b] c_kl: one gather
    # by flat index writes it in that layout, with no transposed copy.
    which = n[None, :] - n[:, None] + spread
    d_s = rep.dim
    a = np.arange(d_s)
    flat = (d_s * d_s * which)[None, :, None, :] + (d_s * a)[:, None, None, None]
    joint = np.take(modes, flat + a[:, None])
    joint *= c[:, None, :]
    return joint


def _phase_density(frame: QuantumReferenceFrame) -> tuple[np.ndarray, np.ndarray]:
    """A phase frame's density c and its generator's diagonal n, rounded to
    the integers as ``unitary_stack`` realises it."""
    c = getattr(frame.povm, "phase_c", None)
    if c is None:
        raise ValueError("circle relativisation needs a phase POVM with its c matrix")
    gen = frame.rep.generator
    if np.abs(gen - np.diag(np.diag(gen))).max() > 1.0e-12:
        raise ValueError("circle frame generator must be diagonal in the POVM basis")
    return c, np.rint(np.diag(gen).real).astype(int)


def restrict(joint: np.ndarray, sigma: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Slice a joint observable at a frame state: X -> tr_R(X (1 (x) sigma))."""
    joint = as_operator(joint, "joint observable")
    sigma = check_density(sigma)
    d_s, d_r = dims
    if sigma.shape[0] != d_r:
        raise ValueError("frame state dimension mismatch")
    if joint.shape[0] != d_s * d_r:
        raise ValueError("incompatible factor dimensions")
    return np.einsum("injm,mn->ij", joint.reshape(d_s, d_r, d_s, d_r), sigma)


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
    expectation weighted by the frame's outcome distribution,
    sum_k tr(omega_S X_k) tr(omega_R E_k), which never forms the joint
    operator. The two routes must agree, or a ``RuntimeError`` is raised.
    For a circle frame they are independent: the joint operator is the
    charge pinching of ``relativize``, the weighted sum runs over the 4B + 1
    quadrature nodes of ``_orbit_and_effects``, and the residual guards
    both. For a finite frame both take the orbit X_k and the effects E_k
    from ``_orbit_and_effects``, so the residual guards the contraction and
    reshape in ``relativize`` but not the orbit and effects themselves;
    those are checked against an independent Kronecker-sum oracle by
    ``tests/test_relativise.py::TestOneQuadraturePath``.
    """
    omega_s = check_density(omega_s)
    omega_r = check_density(omega_r)
    d_s, d_r = action.rep.dim, frame.rep.dim
    joint = relativize(x, action, frame).reshape(d_s, d_r, d_s, d_r)
    direct = complex(np.einsum("injm,ji,mn->", joint, omega_s, omega_r))
    orbit, effects = _orbit_and_effects(x, action, frame)
    weighted = complex(
        np.einsum("kij,ji->k", orbit, omega_s) @ np.einsum("kij,ji->k", effects, omega_r)
    )
    if abs(direct - weighted) > tol * max(1.0, abs(direct)):
        raise RuntimeError(
            "joint and outcome-weighted expectations disagree: "
            f"{direct!r} vs {weighted!r}"
        )
    return direct


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
    representative. Each label's entries are its orbit from
    ``_orbit_and_effects``, built once with the assignment.
    """

    action: GroupAction
    frame: QuantumReferenceFrame
    anchors: dict[str, np.ndarray]
    _orbits: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _require_same_group(self.action, self.frame)
        if not isinstance(self.frame.rep, FiniteRep):
            raise ValueError("frame assignments are tabulated for finite frames only")
        self.anchors = {k: as_operator(v, f"anchor {k!r}") for k, v in self.anchors.items()}
        for label, a in self.anchors.items():
            if not _is_stabiliser_invariant(a, self.action, self.frame):
                raise ValueError(f"anchor {label!r} is not stabiliser-invariant")
            if not self.action.algebra.contains(a):
                raise ValueError(f"anchor {label!r} lies outside the system algebra")
        self._orbits = {
            label: _orbit_and_effects(a, self.action, self.frame)[0]
            for label, a in self.anchors.items()
        }

    @property
    def labels(self) -> list[str]:
        return sorted(self.anchors)

    def observable(self, label: str, cell: int) -> np.ndarray:
        return self._orbits[label][cell]

    def equivariance_defect(self) -> float:
        """Worst violation of moving a table entry with the group action.

        Conjugating the entry at cell s by U(g) must land on the entry at
        g . s, up to the anchor's stabiliser invariance.
        """
        points, targets = self.frame.povm.space.cell_permutations()
        us = self.action.rep.unitary_stack(points)
        worst = 0.0
        for orbit in self._orbits.values():
            for u, t in zip(us, targets):
                moved = u @ orbit @ dagger(u)
                worst = max(worst, np.linalg.norm(moved - orbit[t], 2, axis=(1, 2)).max())
        return float(worst)

    def relativized(self, label: str) -> np.ndarray:
        return relativize(self.anchors[label], self.action, self.frame)
