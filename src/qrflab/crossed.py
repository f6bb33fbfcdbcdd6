"""Crossed products of matrix algebras by finite group actions.

The crossed product lives on the system space tensored with l2(G). It is
generated by the twisted embedding of the algebra together with the right
translations, and two classical identities about it are checked
numerically: the commutation theorem that identifies it with a fixed-point
algebra, and the compression theorem that recovers the invariant algebra
of a frame from a corner of the crossed product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import Dilation, QuantumReferenceFrame, covariant_dilate
from .opcore import dagger, hs_norm, rel_err
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
    generate_algebra,
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
    tagged_generators: list[tuple[str, np.ndarray]]

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
    """Generate M x| G from the twisted embedding and right translations."""
    if not isinstance(action.rep, FiniteRep):
        raise ValueError("continuous crossed products handled analytically in typecond")
    rep = action.rep
    tagged: list[tuple[str, np.ndarray]] = []
    for i, b in enumerate(action.algebra.basis_matrices()):
        tagged.append((f"pi:{i}", embed_twisted(b, rep)))
    for g, u in enumerate(right_translations(rep.group, rep.dim)):
        tagged.append((f"rho:{rep.group.labels[g]}", u))
    alg = generate_algebra([m for _, m in tagged], rep.dim * rep.group.order)
    return CrossedProductAlgebra(action, alg, tagged)


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
    tolerance: float = SPAN_TOL

    @property
    def passed(self) -> bool:
        return (
            self.crossed_dim == self.fixed_dim
            and self.span_defect <= self.tolerance
            and self.untwist_defect <= 1.0e-10
            and self.translation_defect <= 1.0e-10
        )


def verify_commutation_theorem(cp: CrossedProductAlgebra) -> CommutationReport:
    """Check M x| G = (M (x) B(l2 G))^{alpha (x) Ad lambda}.

    The fixed points are computed inside M (x) B(l2 G): each tensor basis
    element a (x) E_kl is averaged over Ad(U (x) lambda), and the fixed
    points are read off the average in that basis's coordinates. Because
    the action keeps M invariant to its closure_tol, the averages stay
    inside M (x) B(l2 G), so no intersection with the full fixed space of
    the joint operator space is needed.

    Also verifies the conjugation identities for V: it untwists pi back to
    a (x) 1 and carries U(g) (x) rho(g) to 1 (x) rho(g).
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
    )


def compress_by_frame(
    alg: OperatorAlgebra,
    p: np.ndarray,
    translations: list[np.ndarray],
    tol: float = 1.0e-8,
) -> OperatorAlgebra:
    """Corner of an algebra cut by a translation-invariant projection.

    ``translations`` are the unitaries p must commute with (the frame-side
    left translations); a projection that fails this is rejected because
    the corner would not inherit the symmetry.
    """
    d = alg.ambient_dim
    if p.shape != (d, d):
        raise ValueError("projection dimension mismatch")
    if hs_norm(p @ p - p) > tol * max(1.0, hs_norm(p)) or hs_norm(p - dagger(p)) > tol:
        raise ValueError("compression needs a self-adjoint idempotent")
    for u in translations:
        if hs_norm(p @ u - u @ p) > tol * max(1.0, hs_norm(p)):
            raise ValueError("projection does not commute with the frame translations")
    cands = np.array([(p @ b @ p).ravel() for b in alg.basis_matrices()])
    rows = _orthonormal_rows(cands, None)
    return OperatorAlgebra(d, rows)


def _reorder_middle_last(d_s: int, n: int, d_k: int) -> np.ndarray:
    """Permutation taking (H_S (x) l2(G)) (x) K to H_S (x) K (x) l2(G)."""
    size = d_s * n * d_k
    perm = np.zeros((size, size), dtype=complex)
    for s in range(d_s):
        for g in range(n):
            for k in range(d_k):
                src = (s * n + g) * d_k + k
                dst = (s * d_k + k) * n + g
                perm[dst, src] = 1.0
    return perm


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

    The dilation isometry W embeds H_R into K (x) l2(G); conjugating the
    invariant algebra by 1 (x) W must give exactly the compression of the
    extended crossed product by 1 (x) W W^dag.
    """
    if not isinstance(frame.rep, FiniteRep):
        raise ValueError("frame compression is verified for finite frames only")
    inv = invariant_joint_algebra(action, frame.rep)
    dil: Dilation = covariant_dilate(frame)
    w = dil.isometry
    d_s = action.rep.dim
    d_k = dil.kdim
    n = frame.rep.group.order
    p = w @ dagger(w)

    cp = build_crossed_product(action)
    perm = _reorder_middle_last(d_s, n, d_k)
    units = np.eye(d_k * d_k)
    ext_rows = []
    for c in cp.algebra.basis_matrices():
        for kl in range(d_k * d_k):
            e = units[kl].reshape(d_k, d_k)
            ext_rows.append((perm @ np.kron(c, e) @ dagger(perm)).ravel())
    extended = OperatorAlgebra(d_s * d_k * n, np.array(ext_rows))

    lam = regular_representation(frame.rep.group)
    guards = [np.kron(np.eye(d_s * d_k), u) for u in lam.unitaries]
    big_p = np.kron(np.eye(d_s), p)
    corner = compress_by_frame(extended, big_p, guards)

    big_w = np.kron(np.eye(d_s), w)
    embedded = np.array([(big_w @ x @ dagger(big_w)).ravel() for x in inv.basis_matrices()])
    defect = span_distance(embedded, corner.rows)
    return CompressionReport(
        invariant_dim=inv.dim, compressed_dim=corner.dim, span_defect=defect
    )
