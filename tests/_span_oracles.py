"""Reference span kernels for the tests: a sequential Gram-Schmidt
extension, closure by alternating adjoints and all pairwise products, span
intersection from the null space of the stacked rows, and the centre from
the commutators of the basis. Each cuts with its own fixed tolerance and
shares no code with ``qrflab.vnalg``."""

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
