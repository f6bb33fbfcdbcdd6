"""Crossed products of matrix algebras by finite group actions.

The crossed product lives on the system space tensored with l2(G). It is
spanned by the products of the twisted embedding of the algebra with the
right translations, and two classical identities about it are checked
numerically: the commutation theorem that identifies it with a fixed-point
algebra, and the compression theorem that recovers the invariant algebra
of a frame from a corner of the crossed product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .frames import Dilation, QuantumReferenceFrame, covariant_dilate
from .opcore import dagger, hs_norm
from .relativise import GroupAction
from .symmetry import (
    FiniteGroup,
    FiniteRep,
    regular_representation,
    right_regular_representation,
    tensor_rep,
)
from .vnalg import (
    OperatorAlgebra,
    SPAN_TOL,
    _orthonormal_rows,
    algebra_from_matrices,
    span_distance,
)


def _diagonal_blocks(blocks: list[np.ndarray]) -> np.ndarray:
    """sum_g A_g (x) |g><g|: block A_g placed at rows and columns i * n + g."""
    stack = np.asarray(blocks, dtype=complex)
    n, d, _ = stack.shape
    out = np.zeros((d, n, d, n), dtype=complex)
    idx = np.arange(n)
    out[:, idx, :, idx] = stack
    return out.reshape(d * n, d * n)


def embed_twisted(a: np.ndarray, rep: FiniteRep) -> np.ndarray:
    """The crossed product embedding, pi(a) = sum_g alpha(g, a) (x) |g><g|."""
    return _diagonal_blocks([rep.conjugate(g, a) for g in rep.group.quadrature_nodes()])


def right_translations(group: FiniteGroup, dim: int) -> list[np.ndarray]:
    """1 (x) rho(g) on the system space tensored with l2(G)."""
    rho = right_regular_representation(group)
    eye = np.eye(dim)
    return [np.kron(eye, u) for u in rho.unitaries]


@dataclass
class CrossedProductAlgebra:
    """The algebra generated by pi(M) and the right translations."""

    action: GroupAction
    algebra: OperatorAlgebra

    @property
    def group(self) -> FiniteGroup:
        return self.action.rep.group

    @property
    def ambient_dim(self) -> int:
        return self.algebra.ambient_dim

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def covariance_defect(self) -> float:
        """Worst violation of rho(g) pi(a) rho(g)^dag = pi(alpha(g, a))."""
        rep = self.action.rep
        rhos = right_translations(rep.group, rep.dim)
        worst = 0.0
        for b in self.action.algebra.basis_matrices():
            pb = embed_twisted(b, rep)
            for g in range(rep.group.order):
                lhs = rhos[g] @ pb @ dagger(rhos[g])
                rhs = embed_twisted(rep.conjugate(g, b), rep)
                worst = max(worst, hs_norm(lhs - rhs))
        return worst

    def pi_homomorphism_defect(self) -> float:
        rep = self.action.rep
        mats = self.action.algebra.basis_matrices()
        worst = 0.0
        for a in mats:
            worst = max(
                worst,
                hs_norm(embed_twisted(dagger(a), rep) - dagger(embed_twisted(a, rep))),
            )
            for b in mats:
                lhs = embed_twisted(a @ b, rep)
                rhs = embed_twisted(a, rep) @ embed_twisted(b, rep)
                worst = max(worst, hs_norm(lhs - rhs))
        return worst


def build_crossed_product(action: GroupAction) -> CrossedProductAlgebra:
    """M x| G as the span of the dim M * |G| products pi(b) (1 (x) rho(g)).

    Covariance, rho(g) pi(a) rho(g)^dag = pi(alpha(g, a)), moves every
    translation in a word to the right, so no closure is run; closure is
    measured by ``verify_commutation_theorem``.
    """
    if not isinstance(action.rep, FiniteRep):
        raise ValueError("continuous crossed products handled analytically in typecond")
    rep = action.rep
    rhos = right_translations(rep.group, rep.dim)
    prods = [embed_twisted(b, rep) @ u for b in action.algebra.basis_matrices() for u in rhos]
    return CrossedProductAlgebra(action, algebra_from_matrices(prods, rep.dim * rep.group.order))


def intertwining_unitary(rep: FiniteRep) -> np.ndarray:
    """V with (V phi)(g) = U(g) phi(g); conjugation by V untwists pi."""
    return _diagonal_blocks(rep.unitaries)


def _invariant_tensor_rows(
    algebra: OperatorAlgebra, rep: FiniteRep, aux: FiniteRep
) -> np.ndarray:
    """Orthonormal rows spanning the Ad(U (x) V) fixed points of M (x) B(H_W).

    ``rep`` is U on the space of M and ``aux`` is V on H_W. Each tensor
    basis element a (x) E_kl is averaged directly, as
    sum_g W_g X W_g^dag / |G| with W = U (x) V. M is invariant under Ad U
    (a GroupAction guarantees it to its closure_tol), so the average maps
    M (x) B(H_W) into itself, and in the orthonormal tensor basis it is a
    Hermitian projection matrix. Its eigenvalues are 0 or 1; the cut sits
    at the midpoint, the widest margin on either side, and the eigenvalue-1
    eigenvectors are the coordinates of the fixed points.
    """
    joint = tensor_rep(rep, aux)
    d_w = aux.dim
    dim = joint.dim
    units = np.eye(d_w * d_w).reshape(-1, d_w, d_w)
    mats = np.array(algebra.basis_matrices())
    # kron(a, e)[i*d_w + k, j*d_w + l] = a[i, j] e[k, l], in the order a-major.
    xs = np.einsum("aij,bkl->abikjl", mats, units).reshape(-1, dim, dim)
    acc = np.zeros_like(xs)
    for u in joint.unitaries:
        acc += u @ xs @ dagger(u)
    acc /= joint.group.order
    basis = xs.reshape(xs.shape[0], -1)
    coords = acc.reshape(basis.shape) @ dagger(basis)
    vals, vecs = np.linalg.eigh((coords + dagger(coords)) / 2)
    return dagger(vecs[:, vals > 0.5]) @ basis


def invariant_joint_algebra(
    action: GroupAction, frame_rep: FiniteRep
) -> OperatorAlgebra:
    """Fixed points of Ad(U_S (x) U_R) inside M_S (x) B(H_R).

    The tensor basis of M_S (x) B(H_R) is group-averaged directly, and the
    fixed points are read off the average in that basis's coordinates; no
    superoperator on the whole joint operator space is built. The result
    stays inside M_S (x) B(H_R) because the action keeps M_S invariant to
    its closure_tol.
    """
    if action.rep.group != frame_rep.group:
        raise ValueError("system and frame must share one symmetry group")
    rows = _invariant_tensor_rows(action.algebra, action.rep, frame_rep)
    return OperatorAlgebra(action.rep.dim * frame_rep.dim, rows)


@dataclass
class CommutationReport:
    """Numerical witness for the commutation theorem on one fixture."""

    crossed_dim: int
    fixed_dim: int
    span_defect: float
    untwist_defect: float
    translation_defect: float
    closure_defect: float
    tolerance: float = SPAN_TOL

    @property
    def passed(self) -> bool:
        return (
            self.crossed_dim == self.fixed_dim
            and self.span_defect <= self.tolerance
            and self.closure_defect <= self.tolerance
            and self.untwist_defect <= 1.0e-10
            and self.translation_defect <= 1.0e-10
        )


def _closure_defect(alg: OperatorAlgebra) -> float:
    """Worst distance to the span of a basis element's adjoint or of a
    product of two basis elements, formed one left factor at a time."""
    rows = alg.rows
    stack = rows.reshape(-1, alg.ambient_dim, alg.ambient_dim)
    worst = 0.0
    for mats in chain([stack.conj().transpose(0, 2, 1)], (a @ stack for a in stack)):
        x = mats.reshape(rows.shape)
        worst = max(worst, float(np.linalg.norm(x - (x @ dagger(rows)) @ rows, axis=1).max()))
    return worst


def verify_commutation_theorem(cp: CrossedProductAlgebra) -> CommutationReport:
    """Check M x| G = (M (x) B(l2 G))^{alpha (x) Ad lambda}.

    The fixed points are computed inside M (x) B(l2 G) by
    ``_invariant_tensor_rows``. Also checks that the crossed product's span
    is closed under adjoints and products, and the conjugation identities
    for V: it untwists pi back to a (x) 1 and carries U(g) (x) rho(g) to
    1 (x) rho(g).
    """
    action = cp.action
    rep = action.rep
    group = rep.group
    lam = regular_representation(group)
    fixed_in_m = _invariant_tensor_rows(action.algebra, rep, lam)
    d, n = rep.dim, group.order
    span_defect = span_distance(cp.algebra.rows, fixed_in_m)

    v = intertwining_unitary(rep)
    untwist = 0.0
    for a in action.algebra.basis_matrices():
        lhs = v @ np.kron(a, np.eye(n)) @ dagger(v)
        untwist = max(untwist, hs_norm(lhs - embed_twisted(a, rep)))
    rho = right_regular_representation(group)
    rhos = right_translations(group, d)
    translation = 0.0
    for g in range(n):
        lhs = v @ np.kron(rep.unitary(g), rho.unitaries[g]) @ dagger(v)
        translation = max(translation, hs_norm(lhs - rhos[g]))

    return CommutationReport(
        crossed_dim=cp.dim,
        fixed_dim=fixed_in_m.shape[0],
        span_defect=span_defect,
        untwist_defect=untwist,
        translation_defect=translation,
        closure_defect=_closure_defect(cp.algebra),
    )


def _check_frame_projection(p: np.ndarray, translations: list[np.ndarray], tol: float) -> None:
    """Reject p unless it is a projection whose corner keeps the translation symmetry."""
    if hs_norm(p @ p - p) > tol * max(1.0, hs_norm(p)) or hs_norm(p - dagger(p)) > tol:
        raise ValueError("compression needs a self-adjoint idempotent")
    for u in translations:
        if hs_norm(p @ u - u @ p) > tol * max(1.0, hs_norm(p)):
            raise ValueError("projection does not commute with the frame translations")


def compress_by_frame(
    alg: OperatorAlgebra,
    p: np.ndarray,
    translations: list[np.ndarray],
    tol: float = 1.0e-8,
) -> OperatorAlgebra:
    """Corner of an algebra cut by a translation-invariant projection.

    ``translations`` are the unitaries p must commute with (the frame-side
    left translations).
    """
    d = alg.ambient_dim
    if p.shape != (d, d):
        raise ValueError("projection dimension mismatch")
    _check_frame_projection(p, translations, tol)
    cands = np.array([(p @ b @ p).ravel() for b in alg.basis_matrices()])
    rows = _orthonormal_rows(cands, None)
    return OperatorAlgebra(d, rows)


@dataclass
class CompressionReport:
    """Numerical witness for the frame compression theorem on one fixture."""

    invariant_dim: int
    compressed_dim: int
    span_defect: float
    tolerance: float = SPAN_TOL

    @property
    def passed(self) -> bool:
        return self.invariant_dim == self.compressed_dim and self.span_defect <= self.tolerance


def verify_frame_compression(
    action: GroupAction, frame: QuantumReferenceFrame
) -> CompressionReport:
    """Check that the frame's dilation carries the invariant algebra of
    system plus frame onto a corner of (M x| G) (x) B(K).

    The dilation isometry W embeds H_R into K (x) l2(G). The corner cut by
    1 (x) W W^dag is the image of the Y = (1 (x) W)^dag (c (x) e_kl) (1 (x) W),
    c in M x| G and e_kl matrix units of B(K), under the Hilbert-Schmidt
    isometry Y -> (1 (x) W) Y (1 (x) W)^dag; so the Y are compared with the
    invariant algebra on H_S (x) H_R, with the same dims and span distance.
    """
    if not isinstance(frame.rep, FiniteRep):
        raise ValueError("frame compression is verified for finite frames only")
    inv = invariant_joint_algebra(action, frame.rep)
    dil: Dilation = covariant_dilate(frame)
    w = dil.isometry
    d_s = action.rep.dim
    d_k = dil.kdim
    n = frame.rep.group.order
    lam = regular_representation(frame.rep.group)
    # W W^dag must commute with 1_K (x) lambda(g) on K (x) l2(G).
    _check_frame_projection(w @ dagger(w), [np.kron(np.eye(d_k), u) for u in lam.unitaries], 1e-8)

    cp = build_crossed_product(action)
    # W's rows run over K (x) l2(G), k-major; c's indices over H_S (x) l2(G).
    w3 = w.reshape(d_k, n, -1)
    c5 = cp.algebra.rows.reshape(-1, d_s, n, d_s, n)
    pulled = np.einsum("kgr,csgth,lhu->cklsrtu", w3.conj(), c5, w3, optimize=True)
    corner = _orthonormal_rows(pulled.reshape(-1, inv.ambient_dim**2), None)
    return CompressionReport(inv.dim, corner.shape[0], span_distance(inv.rows, corner))
