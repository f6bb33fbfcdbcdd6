"""Reference relativisation for the tests: the exact Fourier-mode
contraction and the 4B + 1 node sum of a band-limited circle frame, the
Kronecker sum over the cells of a finite frame, and the node-by-node
invariance distance of a span. Each works on plain matrices, traces through
Kronecker products, and shares no code with ``qrflab.relativise``."""

import numpy as np


def _modes(x, sys_gen, frame_gen):
    """x in the eigenbasis v of the system generator, v itself, and the mode
    mask mask[j, n, k, m] = (k_j - k_k + N_n - N_m == 0).

    The orbit entry x_jk carries e^{i theta (k_j - k_k)}, the phase density
    entry c_nm carries e^{i theta (N_n - N_m)}, and integrating over the
    circle keeps exactly the pairs whose frequencies cancel.
    """
    vals, v = np.linalg.eigh(sys_gen)
    k = np.rint(vals).astype(int)
    n_r = np.rint(np.diag(frame_gen).real).astype(int)
    nu = k[:, None, None, None] - k[None, None, :, None]
    mask = nu + n_r[None, :, None, None] - n_r[None, None, None, :] == 0
    return v.conj().T @ x @ v, v, mask


def circle_relativize(x, sys_gen, frame_gen, c):
    """The circle integral of U_S x U_S^dag (x) (c * e^{i theta (N_n - N_m)}),
    contracted mode by mode."""
    xt, v, mask = _modes(x, sys_gen, frame_gen)
    d_s, d_r = x.shape[0], c.shape[0]
    out = np.where(mask, xt[:, None, :, None] * c[None, :, None, :], 0.0)
    big_v = np.kron(v, np.eye(d_r))
    return big_v @ out.reshape(d_s * d_r, d_s * d_r) @ big_v.conj().T


def circle_node_relativize(x, sys_gen, frame_gen, c, bandwidth):
    """The 4B + 1 node sum of kron(U_S x U_S^dag, U_R c U_R^dag) / (4B + 1),
    one node at a time, with both unitaries realised from their generators'
    eigenvalues rounded to the integers."""
    u_s = circle_node_unitaries(sys_gen, bandwidth)
    u_r = circle_node_unitaries(frame_gen, bandwidth)
    total = 0.0
    for a, b in zip(u_s, u_r):
        total = total + np.kron(a @ x @ a.conj().T, b @ c @ b.conj().T)
    return total / len(u_s)


def circle_expectation(x, sys_gen, frame_gen, c, omega_s, omega_r):
    """The circle integral of omega_S(orbit(theta)) against the outcome
    density of omega_R, contracted mode by mode."""
    xt, v, mask = _modes(x, sys_gen, frame_gen)
    rs = v.conj().T @ omega_s @ v
    return complex(np.einsum("jnkm,jk,kj,nm,mn->", mask, xt, rs, c, omega_r))


def finite_relativize(x, unitaries, effects):
    """sum_s U_s x U_s^dag (x) E_s, with U_s the unitary of cell s's
    representative."""
    return sum(np.kron(u @ x @ u.conj().T, e) for u, e in zip(unitaries, effects))


def finite_expectation(x, unitaries, effects, omega_s, omega_r):
    """sum_s tr(omega_S U_s x U_s^dag) tr(omega_R E_s)."""
    return complex(sum(
        np.trace(omega_s @ u @ x @ u.conj().T) * np.trace(omega_r @ e)
        for u, e in zip(unitaries, effects)
    ))


def restrict(joint, sigma, d_s, d_r):
    """tr_R(X (1 (x) sigma)), through the Kronecker product."""
    blk = (joint @ np.kron(np.eye(d_s), sigma)).reshape(d_s, d_r, d_s, d_r)
    return np.einsum("injn->ij", blk)


def circle_node_unitaries(generator, bandwidth):
    """U(theta) = v e^{i theta k} v^dag at the 4B + 1 quadrature angles, with k
    the generator's eigenvalues rounded to the integers, as a circle rep
    realises them."""
    vals, v = np.linalg.eigh(generator)
    k = np.rint(vals)
    nodes = 2.0 * np.pi * np.arange(4 * bandwidth + 1) / (4 * bandwidth + 1)
    return [(v * np.exp(1j * t * k)) @ v.conj().T for t in nodes]


def node_invariance_distance(rows, unitaries):
    """The per-node invariance test: the largest HS distance from U b U^dag
    to the span of the orthonormal ``rows``, over each basis element b and
    each given unitary U, projecting one moved element at a time."""
    d = int(round(np.sqrt(rows.shape[1])))
    worst = 0.0
    for u in unitaries:
        for b in rows:
            moved = (u @ b.reshape(d, d) @ u.conj().T).ravel()
            resid = moved - rows.T @ (rows.conj() @ moved)
            worst = max(worst, float(np.linalg.norm(resid)))
    return worst
