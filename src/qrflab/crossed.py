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

import numpy as np

from .frames import QuantumReferenceFrame, covariant_dilate
from .opcore import dagger, hs_norm
from .relativise import GroupAction
from .symmetry import (
    FiniteGroup,
    FiniteRep,
    Rep,
    regular_representation,
    tensor_fixed_point_rows,
)
from .vnalg import (
    OperatorAlgebra,
    SPAN_TOL,
    _orthonormal_rows,
    _worst_residual,
    span_distance,
)

# The defect at which a frame projection counts as one and as translation-invariant.
_PROJECTION_TOL = 1.0e-8


def _alphas(mats: np.ndarray, rep: FiniteRep) -> np.ndarray:
    """alpha(g, a) = U(g) a U(g)^dag for a (k, d, d) stack of matrices and
    every g at once, as a (k, n, d, d) stack from one einsum. These are the
    diagonal blocks of pi(a) = sum_g alpha(g, a) (x) |g><g|, the only form
    in which pi is held."""
    us = rep.unitary_stack(rep.group.quadrature_nodes())
    return np.einsum("gij,kjl,gml->kgim", us, mats, us.conj(), optimize=True)


@dataclass
class CrossedProductAlgebra:
    """The algebra generated by pi(M) and the right translations."""

    action: GroupAction
    algebra: OperatorAlgebra

    @property
    def ambient_dim(self) -> int:
        return self.algebra.ambient_dim

    @property
    def dim(self) -> int:
        return self.algebra.dim


def build_crossed_product(action: GroupAction) -> CrossedProductAlgebra:
    """M x| G as the span of the dim M * |G| products pi(b) (1 (x) rho(g)).

    Covariance, rho(g) pi(a) rho(g)^dag = pi(alpha(g, a)), moves every
    translation in a word to the right, so no closure is run; closure is
    measured by ``verify_commutation_theorem``. The products are placed
    block by block: rho(g), which sends |h'> to |h' g^-1>, carries column
    block h g of H_S (x) l2(G) to row block h, where pi(b) acts as alpha(h, b);
    so row (b, g) holds alpha(h, b) at block (h, h g) for every h, and zeros
    elsewhere. They need no orthonormalisation:
    <pi(a) rho(g), pi(b) rho(h)> = tr(pi(a^dag b) rho(h g^-1)) vanishes for
    g != h, because pi is block diagonal over l2(G) and rho(k) has no
    diagonal block for k != e, and equals |G| <a, b> for g = h; so the
    products of an orthonormal basis of M, divided by sqrt(|G|), are an
    orthonormal basis of the span.
    """
    if not isinstance(action.rep, FiniteRep):
        raise ValueError("continuous crossed products handled analytically in typecond")
    rep = action.rep
    group = rep.group
    d, n = rep.dim, group.order
    alphas = _alphas(action.algebra.rows.reshape(-1, d, d), rep) / np.sqrt(n)
    # blocks[h] is the (k, d, d) stack alpha(h, b) / sqrt(|G|) over M's basis
    blocks = np.moveaxis(alphas, 1, 0)
    h = np.arange(n)
    prods = np.zeros((alphas.shape[0], n, d, n, d, n), dtype=complex)
    for g in range(n):
        prods[:, g, :, h, :, group.table[h, g]] = blocks
    return CrossedProductAlgebra(action, OperatorAlgebra(d * n, prods.reshape(-1, (d * n) ** 2)))


def invariant_joint_algebra(action: GroupAction, frame_rep: Rep) -> OperatorAlgebra:
    """Fixed points of Ad(U_S (x) U_R) inside M_S (x) B(H_R).

    Taken by ``tensor_fixed_point_rows`` from M_S's own basis: for a
    band-limited circle, M_S's charge-delta Fourier modes times the frame's
    matrix units e_k e_l^dag with n_l - n_k = delta; for a finite group,
    from the isotypic components on H_R and on M_S (x) H_R of a seeded
    class sum, split where needed by a seeded generic element. No
    superoperator on the joint operator space and no SVD is formed. The
    result stays inside M_S (x) B(H_R) because the action keeps M_S
    invariant to ``relativise._INVARIANCE_TOL``.
    """
    if action.rep.group != frame_rep.group:
        raise ValueError("system and frame must share one symmetry group")
    rows = tensor_fixed_point_rows(action.algebra.rows, action.rep, frame_rep)
    return OperatorAlgebra(action.rep.dim * frame_rep.dim, rows)


@dataclass
class CommutationReport:
    """Numerical witness for the commutation theorem on one fixture.

    ``closure_defect`` measures the crossed product's span S against the
    algebra generated by pi(M) and the translations: the worst distance to
    S of a basis element's adjoint, of the normalised identity, and of
    x a_j for each generator x (pi of M's basis, 1 (x) rho(s) for s in the
    group's ``generators()``) and each basis element a_j. It vanishes
    exactly when S is that generated *-algebra, for any S spanned by words
    in the generators, as the span of ``build_crossed_product`` is. When
    each row of S lies on one g-diagonal of H_S (x) l2(G), as each row of
    the closed form does, every product is projected onto its own
    diagonal's rows in |G| d^2 coordinates; any other basis of S is
    projected over all D^2 (``_closure_defect``).
    """

    crossed_dim: int
    fixed_dim: int
    span_defect: float
    untwist_defect: float
    translation_defect: float
    closure_defect: float

    @property
    def passed(self) -> bool:
        return (
            self.crossed_dim == self.fixed_dim
            and self.span_defect <= SPAN_TOL
            and self.closure_defect <= SPAN_TOL
            and self.untwist_defect <= 1.0e-10
            and self.translation_defect <= 1.0e-10
        )


def _graded_rows(rows: np.ndarray, d: int, group: FiniteGroup) -> np.ndarray | None:
    """The orthonormal ``rows`` on H_S (x) l2(G), d = dim H_S, sorted by
    g-diagonal, or None unless each row is nonzero on exactly one.

    Block (h, k) of an operator lies on the g-diagonal g = h^-1 k, and a
    row on diagonal g is held as its |G| blocks (h, h g) in h order:
    |G| d^2 coordinates rather than D^2. The result is a (|G|, r, |G| d^2)
    stack whose slice g holds the rows on diagonal g, padded with zero rows
    to the largest count r. The test is on exact zeros, so a basis mixed
    across diagonals, even by rounding, gives None.
    """
    n, m = group.order, rows.shape[0]
    rows = np.ascontiguousarray(rows, dtype=complex)
    # each row takes the diagonal of its first nonzero entry, and keeps it
    # if that diagonal holds all of the row's nonzero real and imaginary parts
    nonzero = rows.view(float) != 0
    _, h, _, k = np.unravel_index(nonzero.argmax(axis=1) // 2, (d, n, d, n))
    label = group.table[group.inverse[h], k]
    h = np.arange(n)
    blocks = rows.reshape(m, d, n, d, n)
    on_diagonal = blocks[np.arange(m)[:, None], :, h, :, group.table[h, label[:, None]]]
    kept = np.count_nonzero(on_diagonal.reshape(m, -1).view(float), axis=1)
    if (kept != np.count_nonzero(nonzero, axis=1)).any():
        return None
    counts = np.bincount(label, minlength=n)
    order = np.argsort(label, kind="stable")
    slot = np.arange(m) - np.repeat(np.cumsum(counts) - counts, counts)
    graded = np.zeros((n, counts.max(initial=0), n * d * d), dtype=complex)
    graded[label[order], slot] = on_diagonal[order].reshape(m, -1)
    return graded


def _graded_closure_defect(graded: np.ndarray, alphas: np.ndarray, group: FiniteGroup) -> float:
    """``_closure_defect`` on the ``_graded_rows`` of a span.

    Each generator sends a row on one g-diagonal to one diagonal: pi(b)
    keeps it, acting on block h as alpha(h, b); 1 (x) rho(s) takes block
    (h s, h s g) to block (h, h s g), so diagonal g to s g; the adjoint
    takes block (h, h g) to (h g, h), so g to g^-1; and the identity lies on
    e. Rows on different diagonals are orthogonal, so the projection of an
    element of diagonal t onto the span is its projection onto the rows on
    t, and each residual is formed explicitly in |G| d^2 coordinates, one
    batched product over the diagonals: |G|^2 fewer flops than over D^2.
    """
    n, r, w = graded.shape
    d = alphas.shape[2]
    table = group.table
    blocks = graded.reshape(n, r, n, d, d)
    unit = np.tile(np.eye(d, dtype=complex).ravel(), (1, n)) / np.sqrt(n * d)
    result = _worst_residual(unit, graded[group.identity])
    # diagonal t of the adjoints: block (h, h t) is block (h t, h) of diagonal t^-1, conjugated
    adjoints = dagger(blocks[group.inverse[:, None], :, table.T].swapaxes(1, 2))
    result = max(result, _worst_residual(adjoints.reshape(n, r, w), graded))
    # every pi(b) at once: one batched product over the diagonals
    moved = np.einsum("bhts,gjhsc->gbjhtc", alphas, blocks, optimize=True)
    result = max(result, _worst_residual(moved.reshape(n, -1, w), graded))
    for s in group.generators():
        # diagonal t = s g takes the rows of diagonal g = s^-1 t, blocks h s
        moved = blocks[table[group.inverse[s]]][:, :, table[:, s]]
        result = max(result, _worst_residual(moved.reshape(n, r, w), graded))
    return result


def _closure_defect(alg: OperatorAlgebra, alphas: np.ndarray, group: FiniteGroup) -> float:
    """Worst distance to the span S of a basis element's adjoint, of the
    identity over its norm, and of x a_j for each generator x and each
    basis element a_j. The generators are pi(b) for the alpha(g, b) in the
    (k, n, d, d) ``alphas`` of M's basis, and 1 (x) rho(s) for s in the
    group's ``generators()``.

    A span that holds 1 and satisfies x S in S holds every word in the
    generators, by induction on the word's length; a span spanned by such
    words is then the unital algebra they generate, closed under products,
    and the adjoint half makes it a *-algebra. So (k + |gens|) dim products
    replace the dim^2 products of all basis pairs.

    M x| G is graded by G: each of its elements is sum_g pi(x_g) rho(g),
    and each row ``build_crossed_product`` places lies on one g-diagonal.
    When every row of S does, S is the direct sum of its diagonals and the
    check runs diagonal by diagonal (``_graded_closure_defect``). The route
    is read from the rows alone, so it needs no proof that S has the closed
    form: a hand-built span, or a basis mixed across diagonals, takes
    ``_dense_closure_defect`` over all D^2 coordinates, with the same
    meaning.
    """
    graded = _graded_rows(alg.rows, alphas.shape[2], group)
    if graded is None:
        return _dense_closure_defect(alg, alphas, group)
    return _graded_closure_defect(graded, alphas, group)


def _dense_closure_defect(alg: OperatorAlgebra, alphas: np.ndarray, group: FiniteGroup) -> float:
    """``_closure_defect`` over D^2 coordinates, for any orthonormal rows.

    No generator is formed: on the row index (t, h) of H_S (x) l2(G), pi(b)
    acts on row block h as alpha(h, b), and rho(s), which sends |h> to
    |h s^-1>, permutes the blocks, h -> h s.
    """
    d = alg.ambient_dim
    rows = alg.rows
    unit = np.eye(d, dtype=complex).reshape(1, -1) / np.sqrt(d)
    adjoints = dagger(rows.reshape(-1, d, d)).reshape(rows.shape)
    worst = max(_worst_residual(unit, rows), _worst_residual(adjoints, rows))
    _, n, d_s, _ = alphas.shape
    blocks = rows.reshape(-1, d_s, n, d)
    for alpha in alphas:
        moved = np.einsum("hts,jshc->jthc", alpha, blocks, optimize=True)
        worst = max(worst, _worst_residual(moved.reshape(rows.shape), rows))
    for s in group.generators():
        moved = blocks[:, :, group.table[:, s]]
        worst = max(worst, _worst_residual(moved.reshape(rows.shape), rows))
    return worst


def verify_commutation_theorem(cp: CrossedProductAlgebra) -> CommutationReport:
    """Check M x| G = (M (x) B(l2 G))^{alpha (x) Ad lambda}.

    The fixed points are computed inside M (x) B(l2 G) by
    ``tensor_fixed_point_rows``. Also checks that the crossed product's span
    is the *-algebra generated by pi(M) and the translations (see
    ``CommutationReport``), and the conjugation identities for
    V = sum_g U(g) (x) |g><g|: it untwists pi back to a (x) 1 and carries
    U(g) (x) rho(g) to 1 (x) rho(g). V is block diagonal over l2(G), so both
    are checked block by block and no operator on H_S (x) l2(G) is formed:
    block g of V (a (x) 1) V^dag - pi(a) is U(g) a U(g)^dag - alpha(g, a),
    and the blocks of V (U(g) (x) rho(g)) V^dag - 1 (x) rho(g) are
    U(h g^-1) U(g) U(h)^dag - 1, in column block h. The alpha(g, b) of M's
    basis are computed once, for the untwist and closure checks together.

    The two sides of ``span_defect`` are computed independently: the fixed
    points are read off eigenspaces of group-algebra elements on H_S and on
    M (x) l2(G), and averaged by Schur orthogonality where an irrep has
    dimension > 1, never from ``build_crossed_product``'s formula. For
    V = lambda the orbit sum over index pairs would give
    sum_h alpha_h(b) (x) |h><h g|, that formula, and ``span_defect`` would
    then compare it with itself.
    """
    action = cp.action
    rep = action.rep
    group = rep.group
    lam = regular_representation(group)
    fixed_in_m = tensor_fixed_point_rows(action.algebra.rows, rep, lam)
    d, n = rep.dim, group.order
    span_defect = span_distance(cp.algebra.rows, fixed_in_m)

    basis = action.algebra.rows.reshape(-1, d, d)
    alphas = _alphas(basis, rep)
    us = rep.unitary_stack(group.quadrature_nodes())
    untwist = max(hs_norm(us @ a @ dagger(us) - alpha) for a, alpha in zip(basis, alphas))
    eye = np.eye(d)
    translation = max(
        hs_norm(us[group.table[:, group.inverse[g]]] @ us[g] @ dagger(us) - eye) for g in range(n)
    )

    return CommutationReport(
        crossed_dim=cp.dim,
        fixed_dim=fixed_in_m.shape[0],
        span_defect=span_defect,
        untwist_defect=untwist,
        translation_defect=translation,
        closure_defect=_closure_defect(cp.algebra, alphas, group),
    )


def _check_frame_projection(p: np.ndarray, translations: np.ndarray) -> None:
    """Reject p unless it is a projection whose corner keeps the translation symmetry."""
    scale = max(1.0, hs_norm(p))
    if hs_norm(p @ p - p) > _PROJECTION_TOL * scale or hs_norm(p - dagger(p)) > _PROJECTION_TOL:
        raise ValueError("compression needs a self-adjoint idempotent")
    us = np.asarray(translations)
    if (np.linalg.norm(p @ us - us @ p, axis=(1, 2)) > _PROJECTION_TOL * scale).any():
        raise ValueError("projection does not commute with the frame translations")


def compress_by_frame(
    alg: OperatorAlgebra, p: np.ndarray, translations: np.ndarray
) -> OperatorAlgebra:
    """Corner of an algebra cut by a translation-invariant projection.

    ``translations`` are the unitaries p must commute with (the frame-side
    left translations), stacked on axis 0.
    """
    d = alg.ambient_dim
    if p.shape != (d, d):
        raise ValueError("projection dimension mismatch")
    _check_frame_projection(p, translations)
    cands = (p @ alg.basis_matrices() @ p).reshape(alg.dim, -1)
    rows = _orthonormal_rows(cands, None)
    return OperatorAlgebra(d, rows)


@dataclass
class CompressionReport:
    """Numerical witness for the frame compression theorem on one fixture."""

    invariant_dim: int
    compressed_dim: int
    span_defect: float

    @property
    def passed(self) -> bool:
        return self.invariant_dim == self.compressed_dim and self.span_defect <= SPAN_TOL


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

    W W^dag needs no check of its own: ``Dilation`` has checked W^dag W = 1,
    so it is a projection, and ``covariant_dilate`` W U(g) = (1 (x) lambda(g)) W,
    so (1 (x) lambda(g)) W W^dag = W U(g) W^dag = W W^dag (1 (x) lambda(g)).
    """
    if not isinstance(frame.rep, FiniteRep):
        raise ValueError("frame compression is verified for finite frames only")
    inv = invariant_joint_algebra(action, frame.rep)
    dil = covariant_dilate(frame)
    w = dil.isometry
    d_s, d_k, n = action.rep.dim, dil.kdim, dil.outcomes

    cp = build_crossed_product(action)
    # W's rows run over K (x) l2(G), k-major; c's indices over H_S (x) l2(G).
    w3 = w.reshape(d_k, n, -1)
    c5 = cp.algebra.rows.reshape(-1, d_s, n, d_s, n)
    pulled = np.einsum("kgr,csgth,lhu->cklsrtu", w3.conj(), c5, w3, optimize=True)
    corner = _orthonormal_rows(pulled.reshape(-1, inv.ambient_dim**2), None)
    return CompressionReport(inv.dim, corner.shape[0], span_distance(inv.rows, corner))
