"""Covariant positive operator valued measures and reference frames.

A frame couples a group representation to a POVM whose outcomes carry a
group action: finitely many cells (cosets of a subgroup) or a partition of
the circle into arcs. Sharpness, the norm-1 property, smearings and the two
dilation constructions all live here.

POVM effects and a dilation's pulled-back effects are complex
(outcomes, d, d) stacks, so every check acts on all effects at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .opcore import (
    DEFAULT_TOL,
    _operator_stack,
    as_operator,
    dagger,
    hermitian_eig,
    hs_norm,
    op_norm,
    psd_sqrt,
    rel_err,
)
from .symmetry import (
    FiniteRep,
    HomogeneousSpace,
    Rep,
    regular_representation,
)

# The defect at which a frame counts as sharp, complete or covariant.
_FRAME_TOL = 1.0e-8


@dataclass(frozen=True)
class PlainCells:
    """A bare finite outcome set with no group action."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("outcome set must be non-empty")


@dataclass(frozen=True)
class CirclePartition:
    """Right-open arcs [b_i, b_{i+1}) cutting the circle at the given angles.

    The final arc wraps around to the first boundary plus a full turn.
    """

    boundaries: tuple[float, ...]

    def __post_init__(self) -> None:
        b = self.boundaries
        if len(b) < 1:
            raise ValueError("a partition needs at least one boundary")
        if any(not (0.0 <= x < 2.0 * np.pi) for x in b):
            raise ValueError("boundaries must lie in [0, 2pi)")
        if any(b[i + 1] <= b[i] for i in range(len(b) - 1)):
            raise ValueError("boundaries must be strictly ascending")

    @property
    def size(self) -> int:
        return len(self.boundaries)

    def arcs(self) -> list[tuple[float, float]]:
        b = self.boundaries
        out = [(b[i], b[i + 1]) for i in range(len(b) - 1)]
        out.append((b[-1], b[0] + 2.0 * np.pi))
        return out

    def cell_permutations(self) -> tuple[np.ndarray, np.ndarray]:
        """The rotations that map the partition onto itself, with their shift.

        Rotating by the gap from the first boundary to boundary j sends arc
        i to arc i + j cyclically, when it maps the boundaries onto
        themselves; other rotations do not permute the arcs. Returns the
        angles and, row by row, the arc each arc is sent to.
        """
        bounds = np.array(self.boundaries)
        n = len(bounds)
        thetas = (bounds - bounds[0]) % (2.0 * np.pi)
        keep = [
            j
            for j, theta in enumerate(thetas)
            if np.abs(np.sort((bounds + theta) % (2.0 * np.pi)) - bounds).max() <= 1.0e-12
        ]
        shifts = np.array(keep, dtype=int)
        return thetas[shifts], (np.arange(n) + shifts[:, None]) % n


ValueSpace = PlainCells | HomogeneousSpace | CirclePartition


@dataclass
class Povm:
    """A discrete positive operator valued measure.

    Effects are held as one (outcomes, d, d) stack. They are Hermitian, sit
    between 0 and 1 and sum to the identity, all within ``DEFAULT_TOL``.
    """

    space: ValueSpace
    effects: np.ndarray
    # For phase observables, the correlation matrix that generated the
    # effects; circle-frame relativisation builds each node's effect from it.
    phase_c: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.effects) != self.space.size:
            raise ValueError("effect count does not match the outcome set")
        es = self.effects = _operator_stack(self.effects, "effects")
        scale = np.maximum(1.0, np.linalg.norm(es, axis=(1, 2)))
        if (np.linalg.norm(es - dagger(es), axis=(1, 2)) > DEFAULT_TOL * scale).any():
            raise ValueError("effect is not Hermitian")
        vals = np.linalg.eigvalsh((es + dagger(es)) / 2.0)
        if vals.min() < -DEFAULT_TOL or vals.max() > 1.0 + DEFAULT_TOL:
            raise ValueError("effect eigenvalues must lie in [0, 1]")
        if rel_err(es.sum(axis=0), np.eye(self.dim)) > DEFAULT_TOL:
            raise ValueError("effects do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


@dataclass
class MarkovKernel:
    """A row-stochastic matrix: rows index inputs, columns outputs."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2:
            raise ValueError("kernel must be a matrix")
        if self.rows.min() < -1.0e-12 or self.rows.max() > 1.0 + 1.0e-12:
            raise ValueError("kernel entries must lie in [0, 1]")
        sums = self.rows.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1.0e-12:
            raise ValueError("kernel rows must sum to one")


def smear(povm: Povm, kernel: MarkovKernel) -> Povm:
    """Classically post-process a POVM through a Markov kernel.

    The new effect for plain output cell y is sum_x kernel[x, y] * E_x.
    """
    if kernel.rows.shape[0] != povm.n_outcomes:
        raise ValueError("kernel input count does not match the POVM")
    # Summed over axis 0 in input order, term by term.
    effects = (kernel.rows[:, :, None, None] * povm.effects[:, None]).sum(axis=0)
    return Povm(PlainCells(kernel.rows.shape[1]), effects)


def check_norm1(povm: Povm) -> list[float]:
    """Per-cell norm-1 score: the largest eigenvalue of each effect.

    A score of 1 for every non-zero effect is the localisability property;
    identically zero effects score 0.
    """
    scores = []
    for e in povm.effects:
        if hs_norm(e) <= 1.0e-14:
            scores.append(0.0)
            continue
        vals, _ = hermitian_eig(e)
        scores.append(float(vals[-1]))
    return scores


def is_sharp(povm: Povm) -> bool:
    """Projection-valued with orthogonal effects: E_x E_y = delta_xy E_x,
    checked for one x at a time against the stack, in one stack of memory."""
    for x, a in enumerate(povm.effects):
        prods = a @ povm.effects
        prods[x] -= a
        if np.linalg.norm(prods, axis=(1, 2)).max() > _FRAME_TOL * max(1.0, hs_norm(a)):
            return False
    return True


def phase_povm(dim: int, c: np.ndarray, partition: CirclePartition) -> Povm:
    """Covariant phase observable with correlation matrix ``c``.

    The effect of an arc has matrix elements c[n, m] times the arc integral
    of e^{i (n - m) theta}, normalised so the full circle gives the
    identity.
    """
    c = as_operator(c, "c matrix")
    if c.shape[0] != dim:
        raise ValueError("c matrix dimension mismatch")
    if np.abs(np.diag(c) - 1.0).max() > 1.0e-9:
        raise ValueError("c matrix must have unit diagonal")
    vals = np.linalg.eigvalsh((c + dagger(c)) / 2.0)
    if vals.min() < -1.0e-9 or hs_norm(c - dagger(c)) > 1.0e-9 * max(1.0, hs_norm(c)):
        raise ValueError("c matrix must be positive semidefinite")
    # (1/2pi) * integral over [lo, hi) of e^{i nu theta}, nu = n - m, one
    # arc at a time; the nu = 0 entries divide by 1 and are then replaced.
    nu = np.subtract.outer(np.arange(dim), np.arange(dim))
    steps = 2.0j * np.pi * np.where(nu == 0, 1, nu)
    effects = np.empty((partition.size, dim, dim), dtype=complex)
    for e, (lo, hi) in zip(effects, partition.arcs()):
        w = np.where(
            nu == 0,
            (hi - lo) / (2.0 * np.pi),
            (np.exp(1j * nu * hi) - np.exp(1j * nu * lo)) / steps,
        )
        # c * w as (ac - bd) + i(ad + bc): numpy's SIMD loop for complex
        # products may fuse these into FMAs, which round differently.
        e.real = c.real * w.real - c.imag * w.imag
        e.imag = c.real * w.imag + c.imag * w.real
    return Povm(partition, effects, phase_c=c)


@dataclass
class QuantumReferenceFrame:
    """A group representation together with a covariant POVM for it."""

    rep: Rep
    povm: Povm

    def __post_init__(self) -> None:
        if self.rep.dim != self.povm.dim:
            raise ValueError("representation and POVM dimensions differ")
        sp = self.povm.space
        if isinstance(self.rep, FiniteRep):
            if not isinstance(sp, HomogeneousSpace) or sp.group != self.rep.group:
                raise ValueError("finite frame needs coset cells over the same group")
        else:
            if not isinstance(sp, CirclePartition):
                raise ValueError("circle frame needs a circle partition")

    @property
    def is_principal(self) -> bool:
        sp = self.povm.space
        return sp.principal if isinstance(sp, HomogeneousSpace) else True

    def covariance_defect(self) -> float:
        """Worst-case violation of U(g) E(X) U(g)^dag = E(g . X).

        Checked at every group point that permutes the cells: all elements
        of a finite group, and for circle frames every rotation that maps
        the arc partition onto itself. Rotations incommensurate with the
        partition are not evaluated.
        """
        effects = self.povm.effects
        points, targets = self.povm.space.cell_permutations()
        worst = 0.0
        for u, t in zip(self.rep.unitary_stack(points), targets):
            moved = u @ effects @ dagger(u)
            worst = max(worst, np.linalg.norm(moved - effects[t], 2, axis=(1, 2)).max())
        return float(worst)

    def is_complete(self) -> bool | None:
        """Whether only the identity leaves every effect fixed.

        Evaluated exhaustively for finite frames; for circle frames the
        check is not evaluated and None is returned.
        """
        if not isinstance(self.rep, FiniteRep):
            return None
        group = self.rep.group
        # One effect that moves settles an element, and one element that
        # fixes every effect settles the frame: both loops stop early.
        for g, u in enumerate(self.rep.unitary_stack(group.quadrature_nodes())):
            if g == group.identity:
                continue
            if all(op_norm(u @ e @ dagger(u) - e) <= _FRAME_TOL for e in self.povm.effects):
                return False
        return True


def ideal_frame(rep: FiniteRep) -> QuantumReferenceFrame:
    """The sharp principal frame carried by the regular representation."""
    group = rep.group
    nodes = group.quadrature_nodes()
    lam = regular_representation(group).unitary_stack(nodes)
    # rel_err per element; every lambda(g) has Frobenius norm sqrt(|G|) >= 1.
    if rep.dim != group.order or (
        np.linalg.norm(rep.unitary_stack(nodes) - lam, axis=(1, 2)) > 1.0e-9 * np.sqrt(group.order)
    ).any():
        raise ValueError("ideal frame needs the left regular representation")
    hom = HomogeneousSpace(group, (group.identity,))
    effects = np.zeros((hom.size, group.order, group.order), dtype=complex)
    effects[np.arange(hom.size), hom.representatives, hom.representatives] = 1.0
    return QuantumReferenceFrame(rep, Povm(hom, effects))


@dataclass
class Dilation:
    """An isometry W onto K (x) C^k on which the POVM becomes projective.

    Row i * k + x of W is row i of a block M_x, for k = ``outcomes``, so the
    projection 1 (x) |x><x| is never formed: it pulls back to M_x^dag M_x.
    """

    isometry: np.ndarray
    outcomes: int

    def __post_init__(self) -> None:
        w = np.asarray(self.isometry, dtype=complex)
        if self.outcomes < 1 or w.shape[0] % self.outcomes:
            raise ValueError("isometry rows do not split into one block per outcome")
        if rel_err(dagger(w) @ w, np.eye(w.shape[1])) > 1.0e-9:
            raise ValueError("dilation map is not an isometry")
        self.isometry = w

    @property
    def ambient_dim(self) -> int:
        return self.isometry.shape[0]

    @property
    def kdim(self) -> int:
        """The dimension of K."""
        return self.ambient_dim // self.outcomes

    def pulled_back_effects(self) -> np.ndarray:
        """M_x^dag M_x for every outcome x, as one (outcomes, d, d) stack."""
        blocks = self.isometry.reshape(self.kdim, self.outcomes, -1).transpose(1, 0, 2)
        return dagger(blocks) @ blocks

    def reconstruction_defect(self, povm: Povm) -> float:
        # One hs_norm per outcome: a batched norm would sum in another order.
        return max(hs_norm(diff) for diff in povm.effects - self.pulled_back_effects())


def _stack_isometry(blocks: np.ndarray) -> np.ndarray:
    """W with row i * k + x equal to row i of blocks[x], for a (k, d, d) stack.

    This is W psi = sum_x (M_x psi) (x) |x> on the system tensored with a
    k-dimensional outcome space.
    """
    stack = np.asarray(blocks, dtype=complex)
    k, d, _ = stack.shape
    return stack.transpose(1, 0, 2).reshape(d * k, d)


def naimark_dilate(povm: Povm) -> Dilation:
    """Square-root dilation on the system tensored with the outcome space.

    W psi = sum_x (sqrt(E_x) psi) (x) |x>; pulling the position projections
    1 (x) |x><x| back through W recovers the POVM exactly.
    """
    w = _stack_isometry([psd_sqrt(e) for e in povm.effects])
    return Dilation(w, povm.n_outcomes)


def covariant_dilate(frame: QuantumReferenceFrame) -> Dilation:
    """Dilate a finite principal frame to a projective one on H (x) l2(G).

    The isometry sends psi to the function g -> sqrt(E_e) U(g^-1) psi; it
    intertwines U with 1 (x) lambda and pulls the position projections
    1 (x) |g><g| back to the original effects. 1 (x) lambda(g) sends row
    block h of W to block g h, so it is checked as a permutation of blocks.
    """
    if not isinstance(frame.rep, FiniteRep) or not frame.is_principal:
        raise ValueError("covariant dilation implemented for finite principal frames only")
    if frame.covariance_defect() > _FRAME_TOL:
        raise ValueError("frame is not covariant within tolerance")
    group = frame.rep.group
    cells: HomogeneousSpace = frame.povm.space
    d = frame.rep.dim
    n = group.order
    cell_of = {hom_rep: c for c, hom_rep in enumerate(cells.representatives)}
    e_id = frame.povm.effects[cell_of[group.identity]]
    us = frame.rep.unitary_stack(group.quadrature_nodes())
    w = _stack_isometry(psd_sqrt(e_id) @ us[group.inverse])
    dil = Dilation(w, n)
    # Block x of (1 (x) lambda(g)) W is block g^-1 x of W.
    blocks = w.reshape(d, n, d)
    worst = max(
        rel_err(w @ us[g], blocks[:, group.table[group.inverse[g]]].reshape(d * n, d))
        for g in range(n)
    )
    if worst > 1.0e-9:
        raise RuntimeError("dilation failed to intertwine the representations")
    return dil
