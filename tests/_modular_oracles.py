"""Reference modular checks for the tests: the KMS boundary residuals by a
loop over pairs and times, the flow defect with Delta^{it} formed as a
matrix at every probe time, the conjugation defect against a commutant
found by a null-space solve, and the purification as a Kronecker sum. Each
takes its inputs as plain matrices and shares no kernel with
``qrflab.modular``."""

import numpy as np


def kms_residuals(rho, h, beta, pairs, times, sign="physics"):
    """The (pairs, times) table of |F(t + i shift) - G(t)|, one pair and one
    time at a time, in the eigenbasis of h, with F(t) = tr(rho y sigma_t(x)),
    G(t) = tr(rho sigma_t(x) y) and shift = beta (physics sign) or -beta
    (paper sign)."""
    shift = beta if sign == "physics" else -beta
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    vh = vecs.conj().T
    rt = vh @ rho @ vecs
    gaps = vals[:, None] - vals[None, :]  # E_j - E_k
    rows = []
    for x, y in pairs:
        xt = vh @ x @ vecs
        yt = vh @ y @ vecs
        ry = rt @ yt
        yr = yt @ rt
        row = []
        for t in times:
            # the (j, k) term of F(t + i shift) is (rho y)_jk x_kj e^{i (E_k - E_j)(t + i shift)}
            f_cont = complex((ry * np.exp(-1j * gaps * (t + 1j * shift)) * xt.T).sum())
            g_val = complex(((xt * np.exp(1j * gaps * t)) * yr.T).sum())
            row.append(abs(f_cont - g_val))
        rows.append(row)
    return np.array(rows, dtype=float)


def flow_defect(delta, rows, times):
    """Worst HS distance from Delta^{it} b Delta^{-it} to the span of the
    orthonormal ``rows``, with Delta^{it} formed as a matrix at each time
    from Delta's own eigendecomposition, and every basis element b flowed
    and projected on its own."""
    d = int(round(np.sqrt(rows.shape[1])))
    vals, vecs = np.linalg.eigh((delta + delta.conj().T) / 2.0)
    worst = 0.0
    for t in times:
        u = (vecs * np.exp(1j * t * np.log(vals))) @ vecs.conj().T
        for b in rows:
            moved = (u @ b.reshape(d, d) @ u.conj().T).ravel()
            resid = moved - rows.T @ (rows.conj() @ moved)
            worst = max(worst, float(np.linalg.norm(resid)))
    return worst


def conjugation_defect(j, rows, commutant_rows):
    """Worst HS distance from J b J to the span of the orthonormal
    ``commutant_rows``, over the orthonormal ``rows`` b of the algebra, with
    J antilinear as J psi = j conj(psi), each b moved and projected on its
    own. The commutant is taken as given: the tests pass that of
    ``vnalg.commutant``, the Gram-operator null space."""
    d = j.shape[0]
    worst = 0.0
    for b in rows:
        moved = (j @ b.reshape(d, d).conj() @ j.conj()).ravel()
        resid = moved - commutant_rows.T @ (commutant_rows.conj() @ moved)
        worst = max(worst, float(np.linalg.norm(resid)))
    return worst


def purification(rho):
    """sum_i sqrt(l_i) v_i (x) conj(v_i) over the eigenpairs of rho."""
    vals, vecs = np.linalg.eigh(rho)
    return sum(np.sqrt(l) * np.kron(v, v.conj()) for l, v in zip(vals, vecs.T))
