"""Reference span kernels for the tests: a sequential Gram-Schmidt
extension, closure by alternating adjoints and all pairwise products, span
intersection from the null space of the stacked rows, the centre from the
commutators of the basis, and tensor fixed points from a seeded Gaussian
sketch of the group average. Each cuts with its own fixed tolerance and
shares no code with ``qrflab.vnalg`` or ``qrflab.symmetry``'s kernel."""

import numpy as np

DROP_TOL = 1.0e-9


def gram_schmidt_rows(candidates: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """Extend orthonormal ``basis`` rows by Gram-Schmidt over ``candidates``.

    Candidates are normalised first; a candidate is dropped when its residual
    after projection falls below DROP_TOL.
    """
    cur = basis if basis is not None else np.zeros((0, candidates.shape[1]), complex)
    norms = np.linalg.norm(candidates, axis=1)
    cands = candidates[norms > DROP_TOL] / norms[norms > DROP_TOL, None]
    if cur.shape[0]:
        cands = cands - (cands @ cur.conj().T) @ cur
    new: list[np.ndarray] = []
    for v in cands:
        if cur.shape[0]:
            v = v - (cur.conj() @ v) @ cur
        for w in new:
            v = v - np.vdot(w, v) * w
        n = np.linalg.norm(v)
        if n > DROP_TOL:
            new.append(v / n)
    if not new:
        return cur
    return np.vstack([cur, np.array(new)])


def pairwise_generate_algebra(generators, d: int) -> np.ndarray:
    """Orthonormal rows of the unital *-algebra generated by ``generators``:
    adjoin adjoints and all pairwise products of basis elements until one
    full pass adds no direction."""
    seed = [np.eye(d, dtype=complex)] + [np.asarray(g, complex) for g in generators]
    rows = gram_schmidt_rows(np.array([m.ravel() for m in seed]))
    while True:
        before = rows.shape[0]
        stack = rows.reshape(-1, d, d)
        rows = gram_schmidt_rows(stack.conj().transpose(0, 2, 1).reshape(-1, d * d), rows)
        stack = rows.reshape(-1, d, d)
        prods = np.einsum("aij,bjk->abik", stack, stack).reshape(-1, d * d)
        rows = gram_schmidt_rows(prods, rows)
        if rows.shape[0] == before:
            return rows


def null_space(a: np.ndarray, tol: float = 1.0e-9) -> np.ndarray:
    """Orthonormal rows spanning {x : a @ x = 0}, cut relative to s_0."""
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    cut = tol * max(1.0, s[0] if s.size else 0.0)
    rank = int((s > cut).sum())
    return vh[rank:].conj()


def null_space_intersection(a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the intersection of two row spans, from the
    null space of the stacked rows."""
    m1 = a_rows.shape[0]
    if m1 == 0 or b_rows.shape[0] == 0:
        return np.zeros((0, a_rows.shape[1]), complex)
    combos = null_space(np.vstack([a_rows, -b_rows]).T)
    if combos.shape[0] == 0:
        return np.zeros((0, a_rows.shape[1]), complex)
    return gram_schmidt_rows(combos[:, :m1] @ a_rows)


def commutator_centre_rows(rows: np.ndarray, d: int, tol: float = 1.0e-9) -> np.ndarray:
    """Orthonormal rows spanning the centre of the algebra with orthonormal
    basis ``rows`` on C^d, at any number m of rows: sum_k c_k a_k is central
    when c is in the null space of the m x m Gram matrix
    G[k, l] = sum_i <[a_k, a_i], [a_l, a_i]>, cut relative to its largest
    eigenvalue."""
    stack = rows.reshape(-1, d, d)
    m = stack.shape[0]
    gram = np.zeros((m, m), dtype=complex)
    for a in stack:
        comm = (stack @ a - a @ stack).reshape(m, -1)
        gram += comm.conj() @ comm.T
    return null_space((gram + gram.conj().T) / 2.0, tol) @ rows


# The sketch's samples beyond the rank, its seed, and the singular-value gap
# that certifies the rank.
SKETCH_OVERSAMPLE = 10
SKETCH_SEED = 7
SKETCH_GAP = 1.0e-6


def sketch_fixed_point_rows(rows: np.ndarray, u, v) -> np.ndarray:
    """Orthonormal rows spanning the Ad(U (x) V) fixed points of M (x) B(H_V)
    for the Ad U-invariant span M of ``rows``, from a seeded Gaussian range
    sketch of the group average (Halko, Martinsson & Tropp, SIAM Rev. 53
    (2011) 217) and a thin SVD.

    C_g[k, i] = <a_k, U(g) a_i U(g)^dag> is Ad U(g) on M's basis; the rank
    r = (1 / |nodes|) sum_g tr(C_g) |tr V(g)|^2 of the average is rounded
    from the character formula; r + SKETCH_OVERSAMPLE random coordinate
    stacks y are averaged as sum_g C_g . (V(g) y V(g)^dag), and the top r
    right singular vectors, certified by the gap SKETCH_GAP on both sides
    of the cut, are the coordinates of the fixed points in the tensor basis
    a_i (x) E_kl. Reads the representations only through
    ``unitary_stack`` at the group's quadrature nodes.
    """
    d_u, d_v = u.dim, v.dim
    a = rows.reshape(-1, d_u, d_u)
    m = a.shape[0]
    nodes = u.group.quadrature_nodes()
    us, vs = u.unitary_stack(nodes), v.unitary_stack(nodes)
    moved = (us[:, None] @ a[None] @ us.conj().transpose(0, 2, 1)[:, None]).reshape(nodes.size, m, -1)
    cs = np.einsum("kx,gix->gki", a.reshape(m, -1).conj(), moved)
    trace = np.trace(cs, axis1=1, axis2=2) @ np.abs(np.trace(vs, axis1=1, axis2=2)) ** 2
    r = int(round((trace / nodes.size).real))
    s = r + SKETCH_OVERSAMPLE
    rng = np.random.default_rng(SKETCH_SEED)
    y = rng.standard_normal((s, m, d_v, d_v)) + 1j * rng.standard_normal((s, m, d_v, d_v))
    # Held as (k, i, sample, l) for y[sample, i, k, l]: left and right
    # multiplication on H_V are then each one GEMM over the whole sketch.
    y = np.ascontiguousarray(y.transpose(2, 1, 0, 3))
    acc = np.zeros_like(y)
    for c, vg in zip(cs, vs):
        left = (vg @ y.reshape(d_v, -1)).reshape(d_v, m, s * d_v)
        acc += ((c @ left).reshape(-1, d_v) @ vg.conj().T).reshape(acc.shape)
    acc = acc.transpose(2, 1, 0, 3)
    _, sv, vh = np.linalg.svd(acc.reshape(s, -1), full_matrices=False)
    sv = np.append(sv, 0.0)
    if r and (sv[r - 1] < SKETCH_GAP * sv[0] or sv[r] > SKETCH_GAP * sv[r - 1]):
        raise ValueError(f"sketch rank {r} is not certified")
    fixed = vh[:r].reshape(r, m, d_v, d_v)
    return np.einsum("rmkl,mij->rikjl", fixed, a).reshape(r, (d_u * d_v) ** 2)
