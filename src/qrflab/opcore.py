"""Dense complex operator primitives.

Everything downstream works on plain complex ndarrays. This module
centralises validation, the Hilbert-Schmidt geometry, tensor calculus and a
deterministic Hermitian eigendecomposition; all other modules build on it.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

# Relative Frobenius tolerance used as the package-wide default.
DEFAULT_TOL = 1.0e-9

# Magnitudes below this (relative to the vector max) are treated as zero
# when picking the phase-fixing component of an eigenvector.
_PHASE_EPS = 1.0e-12


def as_operator(x, name: str = "operator") -> np.ndarray:
    """Coerce ``x`` to a square complex matrix with finite entries."""
    arr = np.array(x, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _operator_stack(xs, name: str) -> np.ndarray:
    """Copy square matrices of one dimension, with finite entries, into one
    complex (k, d, d) stack; ``name`` names them in errors."""
    if len({np.shape(x) for x in xs}) > 1:
        raise ValueError(f"{name} differ in dimension")
    stack = np.array(xs, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValueError(f"{name} must be square matrices, got a stack of shape {stack.shape}")
    if not np.isfinite(stack).all():
        raise ValueError(f"{name} have non-finite entries")
    return stack


def dagger(x: np.ndarray) -> np.ndarray:
    """The adjoint of a matrix, or of each matrix in a (..., d, d) stack."""
    return np.swapaxes(np.asarray(x).conj(), -1, -2)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a^dag b), antilinear in ``a``."""
    return complex(np.vdot(a, b))


def hs_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x))


def rel_err(x: np.ndarray, target: np.ndarray) -> float:
    """Frobenius distance scaled by max(1, ||target||_F)."""
    scale = max(1.0, float(np.linalg.norm(target)))
    return float(np.linalg.norm(np.asarray(x) - np.asarray(target))) / scale


def op_norm(x: np.ndarray) -> float:
    """Operator (spectral) norm."""
    return float(np.linalg.norm(np.asarray(x), ord=2))


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor on the coarse index."""
    return np.kron(as_operator(a, "left factor"), as_operator(b, "right factor"))


def partial_trace(x: np.ndarray, dims: tuple[int, int], side: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on a bipartite space.

    Parameters
    ----------
    x : ndarray
        Operator on the product space, dimension ``dims[0] * dims[1]``.
    dims : (int, int)
        Dimensions of the two factors, left factor first.
    side : str
        ``"first"`` traces out the left factor, ``"second"`` the right.
    """
    x = as_operator(x)
    d1, d2 = int(dims[0]), int(dims[1])
    if d1 < 1 or d2 < 1 or d1 * d2 != x.shape[0]:
        raise ValueError("incompatible factor dimensions")
    if side not in ("first", "second"):
        raise ValueError(f"side must be 'first' or 'second', got {side!r}")
    blk = x.reshape(d1, d2, d1, d2)
    if side == "first":
        return np.einsum("ijik->jk", blk)
    return np.einsum("ijkj->ik", blk)


def _pivots(vecs: np.ndarray) -> np.ndarray:
    """Per column, the index of its first component of non-negligible
    magnitude: above _PHASE_EPS times the column's largest."""
    mags = np.abs(vecs)
    return np.argmax(mags > _PHASE_EPS * mags.max(axis=0), axis=0)


def hermitian_eig(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with a fixed ordering.

    Eigenvalues come out ascending. Within a degenerate cluster the
    eigenvectors are phase-fixed (first non-negligible component real
    positive) and sorted by the real part of that component, so repeated
    calls on the same input give identical output.

    Returns
    -------
    (vals, vecs) : eigenvalues and a unitary whose columns are eigenvectors.
    """
    x = as_operator(x)
    scale = max(1.0, hs_norm(x))
    if hs_norm(x - dagger(x)) > DEFAULT_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    xh = (x + dagger(x)) / 2.0
    vals, vecs = np.linalg.eigh(xh)

    cols = np.arange(vecs.shape[1])
    pivot = vecs[_pivots(vecs), cols]
    # np.hypot is the scalar abs; the vectorised np.abs of a complex array
    # may differ from it in the last bit.
    vecs = vecs * (np.conj(pivot) / np.hypot(pivot.real, pivot.imag))
    # Clusters are runs of gaps within ``gap``; a stable sort keeps ties
    # in eigh's order. The ascending ends hold the largest |eigenvalue|.
    gap = 1.0e-12 * max(1.0, abs(float(vals[0])), abs(float(vals[-1])))
    ties = np.diff(vals) <= gap
    if ties.any():
        cluster = np.concatenate([[0], np.cumsum(~ties)])
        order = np.lexsort((vecs[_pivots(vecs), cols].real, cluster))
        vecs, vals = vecs[:, order], vals[order]
    vecs = np.ascontiguousarray(vecs)

    recon = (vecs * vals) @ dagger(vecs)
    if np.linalg.norm(recon - xh) > 1.0e-9 * scale:
        raise RuntimeError("eigendecomposition failed to reconstruct the input")
    return vals, vecs


def apply_spectral_function(x: np.ndarray, f: Callable[[float], complex]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum."""
    vals, vecs = hermitian_eig(x)
    fv = np.array([f(float(v)) for v in vals], dtype=complex)
    if not np.isfinite(fv).all():
        bad = float(vals[int(np.flatnonzero(~np.isfinite(fv))[0])])
        raise ValueError(f"spectral function is not finite at eigenvalue {bad!r}")
    return (vecs * fv) @ dagger(vecs)


def psd_sqrt(x: np.ndarray) -> np.ndarray:
    """Square root of a positive semidefinite matrix.

    With scale = max(1, max |eigenvalue|) and tol = DEFAULT_TOL, eigenvalues
    in [-tol * scale, tol * scale] are rounding noise around zero and are
    set to zero, so that sqrt does not lift them to sqrt(tol)-sized entries;
    anything more negative is an error.
    """
    vals, vecs = hermitian_eig(x)
    scale = max(1.0, float(np.abs(vals).max()))
    if vals.min() < -DEFAULT_TOL * scale:
        raise ValueError("matrix is not positive semidefinite")
    root = np.sqrt(np.where(vals > DEFAULT_TOL * scale, vals, 0.0))
    return (vecs * root) @ dagger(vecs)


def unitary_defect(u: np.ndarray) -> float:
    u = as_operator(u, "unitary")
    return rel_err(u @ dagger(u), np.eye(u.shape[0]))


def check_density(rho, tol: float = 1.0e-10) -> np.ndarray:
    """Validate a density matrix: Hermitian, positive, unit trace."""
    rho = as_operator(rho, "state")
    scale = max(1.0, hs_norm(rho))
    if hs_norm(rho - dagger(rho)) > tol * scale:
        raise ValueError("state is not Hermitian within tolerance")
    vals = np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)
    if vals.min() < -tol * max(1.0, float(np.abs(vals).max())):
        raise ValueError("state has a negative eigenvalue")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError("state trace differs from one")
    return rho
