"""Finite-dimensional von Neumann algebra engine.

An algebra is stored as a Hilbert-Schmidt orthonormal basis of a subspace of
d x d matrices that is closed under adjoints and products and contains the
identity. Everything here is exact linear algebra on the vectorised
operator space; no structure theory is assumed, it is computed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .opcore import DEFAULT_TOL, as_operator, dagger, hermitian_eig, hs_norm

# The one rank cut on spans: a value counts towards a rank when it exceeds
# RANK_TOL * max(1, largest value).
RANK_TOL = 1.0e-9

# Span comparisons throughout the package use this threshold.
SPAN_TOL = 1.0e-7

# The HS distance to a span, over max(1, ||x||), at which x is a member.
_MEMBER_TOL = 1.0e-8

# The seed of the generic elements ``_generic_draws`` holds, so runs are
# reproducible, and how many pairs of them ``decompose`` may try.
_DECOMPOSE_SEED = 7
_DECOMPOSE_ATTEMPTS = 8

# The fraction of max(1, spread) that a gap in the spectrum of
# ``commutant``'s generic element must exceed to split two eigenspaces.
_COMMUTANT_SPLIT = 1.0e-3
# Up to this ambient dimension ``commutant`` takes the whole operator
# space as one eigenspace, without drawing.
_WHOLE_GRAM_DIM = 3


def _rank(values: np.ndarray, what: str) -> np.ndarray:
    """Mask of the ``values`` that count towards a rank: those above the
    cut RANK_TOL * max(1, max value). A value within a factor 1e3 of the
    cut on either side makes the rank ambiguous and raises ValueError
    naming the values on both sides of the cut; ``what`` names the rank
    and the values, as in "centre rank: Gram eigenvalues"."""
    values = np.asarray(values, dtype=float)
    cut = RANK_TOL * max(1.0, float(values.max()) if values.size else 0.0)
    kept = values > cut
    if np.any((values > cut / 1.0e3) & (values <= cut * 1.0e3)):
        below = float(values[~kept].max()) if (~kept).any() else float("nan")
        above = float(values[kept].min()) if kept.any() else float("nan")
        raise ValueError(
            f"ambiguous {what} {below:.3e} and {above:.3e} lie on either side "
            f"of the cut {cut:.3e} with a value within 1e3 of it"
        )
    return kept


def _span_residual(x: np.ndarray, rows: np.ndarray, rows_h: np.ndarray | None = None) -> np.ndarray:
    """The rows of ``x`` minus their projections onto the span of orthonormal
    ``rows``, formed explicitly. ``rows_h`` is ``dagger(rows)`` when the
    caller projects several stacks onto one span and has taken it once."""
    if rows_h is None:
        rows_h = dagger(rows)
    return x - (x @ rows_h) @ rows


def _worst_residual(x: np.ndarray, rows: np.ndarray, rows_h: np.ndarray | None = None) -> float:
    """Largest HS distance from a row of ``x`` to the span of orthonormal ``rows``."""
    if not x.shape[0]:
        return 0.0
    return float(np.linalg.norm(_span_residual(x, rows, rows_h), axis=1).max())


def _orthonormal_rows(candidates: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    """Extend orthonormal ``basis`` rows to span the ``candidates`` too.

    Candidates whose norm ``_rank`` cuts are dropped, the rest normalised
    and projected off the basis twice ("twice is enough": Giraud, Langou &
    Rozloznik, Numer. Math. 101, 2005). Residual rows cut by ``_rank`` lie
    in the basis span; a thin SVD of the survivors gives the new rows.
    """
    cur = basis if basis is not None else np.zeros((0, candidates.shape[1]), complex)
    cur_h = dagger(cur)
    norms = np.linalg.norm(candidates, axis=1)
    nonzero = _rank(norms, "span rank: candidate norms")
    resid = candidates[nonzero] / norms[nonzero, None]
    for _ in range(2):
        resid = _span_residual(resid, cur, cur_h)
    resid = resid[_rank(np.linalg.norm(resid, axis=1), "span rank: residual norms")]
    if not resid.shape[0]:
        return cur
    _, s, vh = np.linalg.svd(resid, full_matrices=False)
    return np.vstack([cur, vh[_rank(s, "span rank: singular values")]])


@dataclass
class OperatorAlgebra:
    """A *-subalgebra of d x d matrices, held as an orthonormal basis.

    ``rows`` has one vectorised basis element per row; the span is closed
    under adjoints and products and contains the identity.
    """

    ambient_dim: int
    rows: np.ndarray

    def __post_init__(self) -> None:
        d = self.ambient_dim
        if d < 1:
            raise ValueError("ambient dimension must be positive")
        if self.rows.ndim != 2 or self.rows.shape[1] != d * d:
            raise ValueError("basis rows do not match the ambient dimension")
        gram = self.rows @ self.rows.conj().T
        if np.linalg.norm(gram - np.eye(self.rows.shape[0])) > 1.0e-9 * max(
            1.0, self.rows.shape[0]
        ):
            raise ValueError("basis rows are not orthonormal")

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def basis_matrices(self) -> np.ndarray:
        """The basis as a (dim, d, d) view of ``rows``."""
        return self.rows.reshape(-1, self.ambient_dim, self.ambient_dim)

    def project(self, x: np.ndarray) -> np.ndarray:
        """The HS-orthogonal projection onto the span of a d x d matrix or of
        each in a (k, d, d) stack, with no conjugated copy of the basis."""
        x = np.asarray(x, dtype=complex)
        coef = (x.reshape(-1, self.rows.shape[1]).conj() @ self.rows.T).conj()
        return (coef @ self.rows).reshape(x.shape)

    def distance(self, x: np.ndarray) -> float:
        """HS distance from ``x`` to the span."""
        return hs_norm(x - self.project(x))

    def contains(self, x: np.ndarray) -> bool:
        return self.distance(x) <= _MEMBER_TOL * max(1.0, hs_norm(x))

    def star_closure_defect(self) -> float:
        d = self.ambient_dim
        adjoints = dagger(self.rows.reshape(-1, d, d)).reshape(self.rows.shape)
        return _worst_residual(adjoints, self.rows)

    def validate(self) -> None:
        if self.star_closure_defect() > _MEMBER_TOL:
            raise ValueError("basis span is not closed under adjoints")
        if self.distance(np.eye(self.ambient_dim)) > _MEMBER_TOL * np.sqrt(self.ambient_dim):
            raise ValueError("basis span does not contain the identity")


def algebra_from_matrices(mats, ambient_dim: int) -> OperatorAlgebra:
    """Orthonormalise a spanning set (no closure) into an algebra object.

    The set is scaled by its largest HS norm first, so that its span, and
    not its units, decides which members are zero.
    """
    cands = np.array([as_operator(m).ravel() for m in mats])
    scale = np.linalg.norm(cands, axis=1).max()
    rows = _orthonormal_rows(cands / scale if scale else cands, None)
    return OperatorAlgebra(ambient_dim, rows)


def generate_algebra(generators, ambient_dim: int) -> OperatorAlgebra:
    """Smallest unital *-closed algebra containing the generators.

    Grows the span of words in the letters, the HS-normalised generators
    and their adjoints, from the identity: each round multiplies the rows
    it added by every letter, until a round adds nothing. A span that holds
    1 and is carried into itself by every letter holds every word, and the
    words in a *-closed set of letters span a *-algebra. A generator of HS
    norm at most 64 eps max(sqrt d, largest generator norm) is rounding
    noise and is dropped: normalised, it would weigh as much as any other.
    """
    d = int(ambient_dim)
    gens = [as_operator(g, "generator") for g in generators]
    for g in gens:
        if g.shape[0] != d:
            raise ValueError("generator dimension does not match ambient_dim")
    norms = [hs_norm(g) for g in gens]
    cut = 64.0 * np.finfo(float).eps * max([np.sqrt(d), *norms])
    letters = np.array([g / n for g, n in zip(gens, norms) if n > cut]).reshape(-1, d, d)
    letters = np.concatenate([letters, dagger(letters)])
    rows = np.eye(d, dtype=complex).reshape(1, -1) / np.sqrt(d)
    new = rows
    while new.shape[0]:
        words = letters[:, None] @ new.reshape(1, -1, d, d)
        grown = _orthonormal_rows(words.reshape(-1, d * d), rows)
        new, rows = grown[rows.shape[0]:], grown
    return OperatorAlgebra(d, rows)


def commutant(alg: OperatorAlgebra) -> OperatorAlgebra:
    """All matrices commuting with every element of ``alg``.

    For row-major vec, vec(bx - xb) = L_b vec(x) with L_b = b (x) I - I (x) b^T,
    so the commutant is the null space of the positive Gram operator
    G = sum_b L_b^dag L_b = S (x) I + I (x) conj(T) - K - K^dag, where
    S = sum b^dag b, T = sum b b^dag and K = sum b (x) conj(b). Its
    eigenvalues, the squared singular values of the stacked (dim d^2) x d^2
    system, are cut by ``_rank``; an ambiguous rank raises ValueError.

    G is diagonalised only on a subspace known to hold the commutant. The
    first Hermitian draw of ``_generic_draws`` projected onto a span closed
    under adjoints is an element h of the span, so every x in the
    commutant commutes with h: the commutant lies in {h}', which in h's
    eigenbasis is the block-diagonal matrices (+)_c B(E_c) over h's
    eigenspaces E_c, of dimension p = sum_c dim(E_c)^2: for M_n (x) 1 on
    C^n (x) C^n, p = n^3 of the n^4 dimensions. G is compressed to that
    subspace block by block (``_block_gram``), so no d^2 x d^2 array is
    formed unless h has a single eigenspace.

    - The spectrum of h is split only at gaps above ``_COMMUTANT_SPLIT``
      times max(1, spread), and never raises. Merging two eigenspaces only
      enlarges the subspace, which costs time; splitting one eigenspace
      would drop the commutant elements that mix its halves, with no error.
    - Compressing a positive operator to a subspace that holds its kernel
      keeps the kernel and can only raise the smallest nonzero eigenvalue
      (Cauchy interlacing), while the cut, set by the largest, can only
      fall; so the rank margin of an exact algebra never gets worse.
    - A span that is not closed under adjoints may project the draw to a
      non-Hermitian matrix, whose eigenspaces need not hold the commutant;
      that raises ValueError. For d up to ``_WHOLE_GRAM_DIM`` the whole
      space is one eigenspace, so G itself is diagonalised: its at most
      81 x 81 eigendecomposition costs less than finding h's eigenspaces.
    """
    d = alg.ambient_dim
    w, sizes = _generic_eigenbasis(alg)
    rotated = dagger(w) @ alg.basis_matrices() @ w
    null = _gram_null_vectors(_block_gram(rotated, sizes), "commutant")
    # The coordinates run block by block, row-major within a block: the
    # row-major order of the block-diagonal entries of a d x d matrix.
    label = np.repeat(np.arange(sizes.size), sizes)
    blocks = np.zeros((null.shape[1], d, d), dtype=complex)
    blocks[:, label[:, None] == label] = null.T
    return OperatorAlgebra(d, (w @ blocks @ dagger(w)).reshape(-1, d * d))


@functools.lru_cache(maxsize=8)
def _generic_draws(d: int) -> np.ndarray:
    """The seeded (Hermitian, complex) Gaussian pairs on C^d, read-only, one
    per attempt of ``decompose``; ``commutant`` takes the first Hermitian."""
    x = np.random.default_rng(_DECOMPOSE_SEED).standard_normal((_DECOMPOSE_ATTEMPTS, 4, d, d))
    herm = x[:, 0] + 1j * x[:, 1]
    draws = np.stack([(herm + dagger(herm)) / 2.0, x[:, 2] + 1j * x[:, 3]], axis=1)
    draws.flags.writeable = False
    return draws


def _generic_eigenbasis(alg: OperatorAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """A unitary whose columns run through the eigenspaces of ``commutant``'s
    generic element h, and the sizes of those eigenspaces, ascending, in the
    order the columns take them: eigenvalues ascending within one size.
    For d <= ``_WHOLE_GRAM_DIM`` the whole space is one eigenspace. A span
    that projects the draw to a non-Hermitian matrix is not closed under
    adjoints and raises ValueError."""
    d = alg.ambient_dim
    if d <= _WHOLE_GRAM_DIM:
        return np.eye(d, dtype=complex), np.array([d])
    h = alg.project(_generic_draws(d)[0, 0])
    if hs_norm(h - dagger(h)) > DEFAULT_TOL * max(1.0, hs_norm(h)):
        raise ValueError("commutant needs a span closed under adjoints")
    vals, w = np.linalg.eigh((h + dagger(h)) / 2.0)
    split = np.diff(vals) > _COMMUTANT_SPLIT * max(1.0, float(vals[-1] - vals[0]))
    sizes = np.diff(np.flatnonzero(np.concatenate([[True], split, [True]])))
    # The eigenspaces of one size made consecutive, each keeping its order.
    return w[:, np.argsort(np.repeat(sizes, sizes), kind="stable")], np.sort(sizes)


def _block_gram(stack: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``commutant``'s Gram operator G of the basis ``stack``, compressed to
    the block-diagonal matrices whose consecutive diagonal blocks have the
    ascending ``sizes``; the coordinates run block by block, row-major
    within a block. One block of size d gives G itself.

    Block (x, y) of the compression is [x = y] (S_x (x) I + I (x) conj(T_x))
    - K_xy - K_yx^dag, with S_x and T_x the (x, x) blocks of S and T and
    K_xy[(i,k),(j,l)] = sum_b b_ij conj(b_kl) over the (x, y) blocks of the
    basis. The K blocks of all pairs of two sizes come from batched
    products over chunks of those pairs, so no copy of the stack holds more
    than d^3 entries.
    """
    m, d = stack.shape[0], stack.shape[1]
    # S = sum b^dag b and conj(T) = sum conj(b b^dag), one GEMM each per
    # chunk of at most d matrices, laid end to end by rows for S and by
    # columns for T, so that no copy exceeds d^3 entries.
    s, t_conj = np.zeros((2, d, d), dtype=complex)
    for chunk in np.split(stack, range(d, m, d)):
        rows, cols = chunk.reshape(-1, d), np.swapaxes(chunk, 1, 2).reshape(-1, d)
        s += dagger(rows) @ rows
        t_conj += dagger(cols) @ cols
    del rows, cols
    # Both are Hermitian; symmetrising them here makes G exactly Hermitian.
    s = (s + dagger(s)) / 2.0
    t_conj = (t_conj + dagger(t_conj)) / 2.0
    # (size, count, first matrix index, first coordinate) of each size.
    spans, a, o = [], 0, 0
    for n, group in itertools.groupby(sizes.tolist()):
        c = len(list(group))
        spans.append((n, c, a, o))
        a, o = a + n * c, o + n * n * c
    k = np.empty((o, o), dtype=complex)
    for n1, c1, a1, o1 in spans:
        for n2, c2, a2, o2 in spans:
            # The pairs (x, y) of blocks, ``step`` rows x at a time, so that
            # neither f nor its adjoint holds more than d^3 entries.
            step = max(1, d**3 // max(1, m * n1 * n2 * c2))
            for x in range(0, c1, step):
                r = min(step, c1 - x)
                f = stack[:, a1 + n1 * x : a1 + n1 * (x + r), a2 : a2 + n2 * c2]
                f = f.reshape(m, r, n1, c2, n2).transpose(1, 3, 2, 4, 0).reshape(r * c2, n1 * n2, m)
                # outer[x, y, i, j, k, l] = sum_b B_ij conj(B_kl), B = block (x, y).
                outer = (f @ dagger(f)).reshape(r, c2, n1, n2, n1, n2)
                k[o1 + n1 * n1 * x : o1 + n1 * n1 * (x + r), o2 : o2 + n2 * n2 * c2].reshape(
                    r, n1, n1, c2, n2, n2
                )[...] = outer.transpose(0, 2, 4, 1, 3, 5)
    gram = k + dagger(k)
    del k
    np.negative(gram, out=gram)
    for n, c, a, o in spans:
        # g6[x, i, k, y, j, l] is the entry ((x, i, k), (y, j, l)); at
        # x = y its two partial diagonals, writable einsum views, take
        # S_x (x) I and I (x) conj(T_x) without forming either product.
        g6 = gram[o : o + n * n * c, o : o + n * n * c].reshape(c, n, n, c, n, n)
        s_x = np.einsum("xixj->xij", s[a : a + n * c, a : a + n * c].reshape(c, n, c, n))
        t_x = np.einsum("xkxl->xkl", t_conj[a : a + n * c, a : a + n * c].reshape(c, n, c, n))
        np.einsum("xikxjk->xkij", g6)[...] += s_x[:, None]
        np.einsum("xikxil->xikl", g6)[...] += t_x[:, None]
    return gram


def _gram_null_vectors(gram: np.ndarray, what: str) -> np.ndarray:
    """Eigenvector columns of a positive Gram matrix for the eigenvalues
    ``_rank`` cuts, from one ``eigh``."""
    vals, vecs = np.linalg.eigh(gram)
    return vecs[:, ~_rank(vals, f"{what} rank: Gram eigenvalues")]


def span_intersection(a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the intersection of the spans of two sets
    of orthonormal rows.

    sum_k c_k a_k lies in span(b) exactly when c kills the residual R of
    the a rows off the b rows, so the intersection is spanned by the left
    singular vectors of R whose singular values ``_rank`` cuts, applied to
    the a rows; they come out orthonormal.
    """
    if not a_rows.shape[0]:
        return a_rows
    u, s, _ = np.linalg.svd(_span_residual(a_rows, b_rows), full_matrices=False)
    null = ~_rank(s, "intersection rank: singular values")
    return dagger(u[:, null]) @ a_rows


def centre(alg: OperatorAlgebra) -> OperatorAlgebra:
    """The elements of ``alg`` that commute with all of it; no d^2 x d^2
    array is formed. For m <= d, in the algebra's own m coordinates:
    c = sum_k c_k a_k is central when every commutator map
    C_i : c -> [c, a_i] kills it, so the centre is the null space of the
    m x m Gram matrix sum_i C_i^dag C_i, formed from the m^2 commutators
    [a_k, a_i] and cut by ``_rank`` as ``commutant``'s. For m > d, as
    Z(A) = A cap A', the smaller span first so that the SVD of
    ``span_intersection`` runs on min(m, dim A') rows.
    """
    d = alg.ambient_dim
    rows = alg.rows
    m = rows.shape[0]
    if m > d:
        small, large = sorted((rows, commutant(alg).rows), key=len)
        return OperatorAlgebra(d, span_intersection(small, large))
    stack = rows.reshape(-1, d, d)
    gram = np.zeros((m, m), dtype=complex)
    for a in stack:
        # Row k holds vec([a_k, a]).
        comm = (stack @ a - a @ stack).reshape(m, -1)
        gram += comm.conj() @ comm.T
    gram = (gram + dagger(gram)) / 2.0
    coeffs = _gram_null_vectors(gram, "centre")
    return OperatorAlgebra(d, coeffs.T @ rows)


def is_factor(alg: OperatorAlgebra) -> bool:
    return centre(alg).dim == 1


def span_distance(a: OperatorAlgebra | np.ndarray, b: OperatorAlgebra | np.ndarray) -> float:
    """Symmetric span distance: worst distance of one orthonormal basis
    element to the other span, maximised over both directions."""
    ra = a.rows if isinstance(a, OperatorAlgebra) else a
    rb = b.rows if isinstance(b, OperatorAlgebra) else b
    return max(_worst_residual(ra, rb), _worst_residual(rb, ra))


@dataclass
class BlockStructure:
    """Wedderburn block data: the algebra is a direct sum of full matrix
    blocks M_n acting with multiplicity m, exhibited by ``change_of_basis``."""

    blocks: list[tuple[int, int]]
    change_of_basis: np.ndarray
    defect: float = 0.0

    @property
    def algebra_dim(self) -> int:
        return sum(n * n for n, _ in self.blocks)

    @property
    def commutant_dim(self) -> int:
        return sum(m * m for _, m in self.blocks)


def _eigen_clusters(vals: np.ndarray, what: str) -> list:
    """Index arrays of the groups of an ascending spectrum, split at the
    gaps ``_rank`` keeps; an ambiguous gap raises ValueError."""
    split = np.flatnonzero(_rank(np.diff(vals), f"{what}: eigenvalue gaps")) + 1
    return np.split(np.arange(vals.size), split)


def decompose(alg: OperatorAlgebra) -> BlockStructure:
    """Exhibit the block structure of a finite-dimensional algebra.

    Each attempt reads it from one pair of ``_generic_draws`` on the ambient
    space, a Hermitian h and a complex g, projected onto the algebra's span, so
    that neither depends on the rows that carry it. Up to a unitary,
    A = (+)_i M_{n_i} (x) 1_{m_i}, so a generic h = (+)_i H_i (x) 1_{m_i}
    has n_i eigenspaces of dimension m_i in central block i, split at the
    gaps ``_rank`` keeps. In h's eigenbasis the (c, c') block of a generic g
    is nonzero exactly when c and c' lie in one central block, and is then
    a multiple of a unitary. So eigenspaces with one pattern of nonzero
    blocks (squared HS norms cut by ``_rank``) form one central block,
    linked all to all, and the polar factor
    of block (c, c_0) aligns c with the block's first eigenspace c_0, which
    puts A in the form (+)_i X_i (x) 1_{m_i}. sum_i n_i^2 = dim A and a
    ``_block_defect`` within SPAN_TOL certify the result. A degenerate
    draw, an ambiguous rank among them, moves on to the next of
    ``_DECOMPOSE_ATTEMPTS`` seeded attempts.
    """
    for draws in _generic_draws(alg.ambient_dim):
        try:
            pieces = _block_pieces(alg, draws)
        except ValueError:
            continue
        if pieces is None or sum(n * n for n, _, _ in pieces) != alg.dim:
            continue
        pieces.sort(key=lambda p: (p[0], p[1]))
        u = np.hstack([p[2] for p in pieces])
        blocks = [(n, m) for n, m, _ in pieces]
        defect = _block_defect(alg, blocks, u)
        if defect <= SPAN_TOL:
            return BlockStructure(blocks, u, defect)
    raise RuntimeError(f"block structure remained degenerate after {_DECOMPOSE_ATTEMPTS} attempts")


def _block_pieces(alg: OperatorAlgebra, draws: np.ndarray) -> list | None:
    """``decompose``'s (n, m, isometry) of each central block, read from a
    (Hermitian, complex) pair of ``draws``, or None for a degenerate draw;
    an ambiguous rank raises ValueError."""
    h, g = alg.project(draws)
    vals, vecs = hermitian_eig(h)
    clusters = _eigen_clusters(vals, "block split")
    g = dagger(vecs) @ g @ vecs
    starts = [c[0] for c in clusters]
    power = np.add.reduceat(np.add.reduceat(np.abs(g) ** 2, starts, axis=0), starts, axis=1)
    linked = _rank(power.ravel(), "block pattern: squared block norms").reshape(power.shape)
    # Each cluster labelled by the first cluster it is linked to, which
    # labels itself.
    label = linked.argmax(axis=1)
    if not np.array_equal(linked, label[:, None] == label):
        return None
    pieces = []
    for first in np.flatnonzero(label == np.arange(label.size)):
        chunks = [clusters[c] for c in np.flatnonzero(label == first)]
        if len({c.size for c in chunks}) != 1:
            return None
        u, s, vh = np.linalg.svd(np.array([g[np.ix_(c, chunks[0])] for c in chunks]))
        if not _rank(s.ravel(), "block alignment: singular values").all():
            return None
        q = [vecs[:, c] @ (uk @ vk) for c, uk, vk in zip(chunks, u, vh)]
        pieces.append((len(chunks), chunks[0].size, np.hstack(q)))
    return pieces


def _block_defect(
    alg: OperatorAlgebra, blocks: list[tuple[int, int]], u: np.ndarray
) -> float:
    """Worst deviation of conjugated basis elements from (+) X_i (x) 1_m form,
    taken over chunks of at most d basis elements, so that no stack of more
    than d^3 entries is held."""
    d, u_h, norms = alg.ambient_dim, dagger(u), []
    basis = alg.basis_matrices()
    for chunk in np.split(basis, range(d, basis.shape[0], d)):
        c = u_h @ chunk @ u
        off = 0
        for n, m in blocks:
            r = n * m
            # A view: splitting the axes of a slice never copies.
            sub = c[:, off : off + r, off : off + r].reshape(-1, n, m, n, m)
            x = np.einsum("ikalb->ikl", sub) / m
            # X (x) 1_m taken off in place, through the writable diagonal a = b.
            np.einsum("ikala->iakl", sub)[...] -= x[:, None]
            off += r
        # One norm per basis element: a batched norm would sum in another order.
        norms.extend(float(np.linalg.norm(diff)) for diff in c)
    return max(norms)


def normalized_trace(x: np.ndarray) -> complex:
    """The tracial state of the ambient matrix algebra, tr(x)/d."""
    x = np.asarray(x)
    return complex(np.trace(x)) / x.shape[0]


@dataclass
class ProductTrace:
    """Linear extension of tau1 (x) tau2 to the algebra generated by
    elementary tensors a (x) b.

    On a (x) b it is tr(a) tr(b) / (d1 d2) = tr(a (x) b) / (d1 d2), so on
    the product algebra it is the normalised trace; the rows only check
    membership.
    """

    left: OperatorAlgebra
    right: OperatorAlgebra
    _span: OperatorAlgebra = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Elementary tensors of two orthonormal bases are orthonormal; row
        # (i, j) is vec(a_i (x) b_j).
        a, b = self.left.basis_matrices(), self.right.basis_matrices()
        kron = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
        d = self.left.ambient_dim * self.right.ambient_dim
        self._span = OperatorAlgebra(d, kron.reshape(a.shape[0] * b.shape[0], -1))

    def __call__(self, x: np.ndarray) -> complex:
        if not self._span.contains(x):
            raise ValueError("operator lies outside the tensor product algebra")
        return normalized_trace(x)
