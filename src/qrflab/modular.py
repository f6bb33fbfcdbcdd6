"""Modular operators of cyclic separating vectors, flows and KMS checks.

Antilinear operators are stored as plain matrices with the convention that
the operator acts by entrywise conjugation followed by the matrix: A psi =
A_mat conj(psi). Under that convention the adjoint of an antilinear A has
matrix A_mat^T, which fixes all the polar decomposition formulas below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .opcore import (
    DEFAULT_TOL,
    as_operator,
    check_density,
    dagger,
    hermitian_eig,
    rel_err,
)
from .vnalg import OperatorAlgebra, _rank, _worst_residual, commutant

# Real times at which flow invariance of the algebra is probed.
FLOW_PROBE_TIMES = (-2.7, -1.0, -0.3, 0.3, 1.0, 2.7)

# Default grid for KMS boundary residuals. Includes pi/2 so that the
# two-level mismatch fixture attains its analytic maximum on the grid.
KMS_TIME_GRID = (-2.7, -1.0, -0.3, 0.0, 0.3, 1.0, np.pi / 2.0, 2.7)

# A state is faithful when its least eigenvalue is this fraction of its largest.
_FAITHFUL_RATIO = 1.0e-12


def is_faithful_state(rho: np.ndarray) -> bool:
    vals = np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)
    return bool(vals.min() >= _FAITHFUL_RATIO * max(vals.max(), 0.0))


@dataclass
class ModularData:
    """Modular objects of a cyclic separating vector for an algebra.

    Delta is diagonalised once, on construction, into ``delta_eig``.
    """

    algebra: OperatorAlgebra
    omega: np.ndarray
    s_matrix: np.ndarray
    delta: np.ndarray
    j_matrix: np.ndarray
    delta_eig: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.delta_eig = hermitian_eig(self.delta)

    def delta_power(self, t: float) -> np.ndarray:
        vals, vecs = self.delta_eig
        return (vecs * np.exp(1j * t * np.log(vals))) @ dagger(vecs)

    def flow(self, x: np.ndarray, t: float) -> np.ndarray:
        u = self.delta_power(t)
        return u @ x @ dagger(u)

    def conjugate_in(self, x: np.ndarray) -> np.ndarray:
        """The linear operator J x J, of one matrix or of each in a stack."""
        return self.j_matrix @ x.conj() @ self.j_matrix.conj()

    def flow_defect(self) -> float:
        """Worst distance of a flowed basis element from the algebra; the
        whole basis stack is flowed and projected at once at each probe time."""
        rows = self.algebra.rows
        basis = rows.reshape(-1, self.algebra.ambient_dim, self.algebra.ambient_dim)
        worst = 0.0
        for t in FLOW_PROBE_TIMES:
            u = self.delta_power(t)
            moved = (u @ basis @ dagger(u)).reshape(rows.shape)
            worst = max(worst, _worst_residual(moved, rows))
        return worst

    def conjugation_defect(self) -> float:
        """Worst distance of J x J from the commutant, over the basis."""
        moved = self.conjugate_in(self.algebra.basis_matrices())
        return _worst_residual(moved.reshape(self.algebra.rows.shape), commutant(self.algebra).rows)

    def vector_invariance_defect(self) -> float:
        """max of |J omega - omega| and |Delta omega - omega|."""
        j_def = float(np.linalg.norm(self.j_matrix @ self.omega.conj() - self.omega))
        d_def = float(np.linalg.norm(self.delta @ self.omega - self.omega))
        return max(j_def, d_def)


def modular_data(alg: OperatorAlgebra, omega: np.ndarray) -> ModularData:
    """Build S, Delta and J for the vector omega.

    The rank of the set {x omega} is cut by ``_rank``. S is fixed on that
    (necessarily full) set by S x omega = x^dag omega, then
    polar-decomposed as J Delta^(1/2): with the SVD S = U Sigma V^dag,
    J = U V^dag and Delta = conj(V) Sigma^2 V^T.
    """
    omega = np.asarray(omega, dtype=complex).ravel()
    d = alg.ambient_dim
    if omega.shape[0] != d:
        raise ValueError("vector dimension does not match the algebra")
    mats = alg.basis_matrices()
    c = (mats @ omega).T
    rank = int(_rank(np.linalg.svd(c, compute_uv=False), "cyclicity rank: singular values").sum())
    if rank < d:
        raise ValueError("omega is not cyclic for the algebra")
    if rank < alg.dim or alg.dim > d:
        raise ValueError("omega is not separating for the algebra")
    dmat = (dagger(mats) @ omega).T
    s = dmat @ np.linalg.inv(c).conj()

    u, _, vh = np.linalg.svd(s)
    md = ModularData(alg, omega, s, s.T @ s.conj(), u @ vh)
    _validate_modular(md)
    return md


def _validate_modular(md: ModularData) -> None:
    s, j = md.s_matrix, md.j_matrix
    vals, vecs = md.delta_eig
    if vals.min() <= 0.0:
        raise ValueError("modular operator is not positive definite")
    root = (vecs * np.sqrt(vals)) @ dagger(vecs)
    if rel_err(j @ root.conj(), s) > DEFAULT_TOL:
        raise RuntimeError("polar decomposition of S failed")
    if rel_err(j @ dagger(j), np.eye(j.shape[0])) > DEFAULT_TOL:
        raise RuntimeError("modular conjugation is not unitary")
    if rel_err(j @ j.conj(), np.eye(j.shape[0])) > DEFAULT_TOL:
        raise RuntimeError("modular conjugation is not an involution")
    # Row k of each side is S (a_k omega)^* and a_k^dag omega.
    mats = md.algebra.basis_matrices()
    lhs = (mats @ md.omega).conj() @ s.T
    worst = np.linalg.norm(lhs - dagger(mats) @ md.omega, axis=1).max()
    if worst > DEFAULT_TOL * max(1.0, float(np.linalg.norm(md.omega))):
        raise RuntimeError("S does not send x omega to x^dag omega")


def modular_flow(md: ModularData, x: np.ndarray, t: float) -> np.ndarray:
    """sigma_t(x) = Delta^{it} x Delta^{-it}, checked to stay in the algebra."""
    x = as_operator(x)
    if not md.algebra.contains(x):
        raise ValueError("observable lies outside the algebra")
    out = md.flow(x, t)
    if not md.algebra.contains(out):
        raise RuntimeError("modular flow left the algebra")
    return out


def gibbs_state(h: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta H) / Z, computed with the spectrum shifted to avoid overflow.

    The shift by the ground energy is exact: it cancels between numerator
    and normalisation.
    """
    h = as_operator(h, "hamiltonian")
    if not np.isfinite(beta) or beta <= 0.0:
        raise ValueError("inverse temperature must be positive and finite")
    vals, vecs = hermitian_eig(h)
    shifted = -beta * (vals - vals.min())
    weights = np.exp(shifted)
    z = weights.sum()
    rho = (vecs * (weights / z)) @ dagger(vecs)
    if not np.isfinite(rho).all():
        raise ValueError(
            "Gibbs weights overflowed; rescale the Hamiltonian or lower beta"
        )
    return rho


def gns_doubling(rho: np.ndarray) -> tuple[OperatorAlgebra, np.ndarray]:
    """Represent a faithful state as a vector on the doubled space.

    Returns the algebra M (x) 1 acting on H (x) H and the purification
    vector, which is cyclic and separating for it.
    """
    rho = check_density(rho)
    if not is_faithful_state(rho):
        raise ValueError("state must be faithful to double")
    d = rho.shape[0]
    vals, vecs = hermitian_eig(rho)
    omega = np.zeros(d * d, dtype=complex)
    for i in range(d):
        omega += np.sqrt(vals[i]) * np.kron(vecs[:, i], vecs[:, i].conj())
    # Row kl is vec(e_kl (x) 1) / sqrt(d), over the matrix units e_kl.
    rows = np.kron(np.eye(d * d).reshape(-1, d, d), np.eye(d)).reshape(d * d, -1) / np.sqrt(d)
    return OperatorAlgebra(d * d, rows), omega


@dataclass
class KmsReport:
    """Boundary-condition residuals of a state for a Hamiltonian flow."""

    beta: float
    sign_convention: str
    times: tuple[float, ...]
    residuals: np.ndarray  # shape (n_pairs, n_times)
    tolerance: float

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if self.residuals.size else 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def kms_check(
    rho: np.ndarray,
    h: np.ndarray,
    beta: float,
    pairs: list[tuple[np.ndarray, np.ndarray]],
    times=KMS_TIME_GRID,
    sign: str = "physics",
    tol: float = 1.0e-9,
) -> KmsReport:
    """Residuals of the analytic KMS boundary condition on a time grid.

    With the ``physics`` sign the state of a flow exp(iHt) is tested at
    inverse temperature beta through F(t + i beta) = tr(rho sigma_t(x) y);
    the ``paper`` sign continues to t - i beta instead, which tests the
    convention in which modular flows satisfy the condition at inverse
    temperature minus one.
    """
    rho = check_density(rho)
    h = as_operator(h, "hamiltonian")
    if not np.isfinite(beta) or beta <= 0.0:
        raise ValueError("inverse temperature must be positive and finite")
    if sign not in ("physics", "paper"):
        raise ValueError(f"unknown sign convention {sign!r}")
    shift = beta if sign == "physics" else -beta
    vals, vecs = hermitian_eig(h)
    rows = []
    for x, y in pairs:
        x = as_operator(x)
        y = as_operator(y)
        xt = dagger(vecs) @ x @ vecs
        yt = dagger(vecs) @ y @ vecs
        rt = dagger(vecs) @ rho @ vecs
        ry = rt @ yt
        yr = yt @ rt
        gaps = vals[:, None] - vals[None, :]  # E_j - E_k
        row = []
        for t in times:
            # F(t + i shift) with F(t) = tr(rho y sigma_t(x)); the term for
            # index pair (j, k) is (rho y)_jk x_kj e^{i (E_k - E_j)(t + i shift)}.
            cont = np.exp(1j * (-gaps) * (t + 1j * shift))
            f_cont = complex((ry * cont * xt.T).sum())
            # G(t) = tr(rho sigma_t(x) y)
            phase = np.exp(1j * gaps * t)
            g_val = complex(((xt * phase) * yr.T).sum())
            row.append(abs(f_cont - g_val))
        rows.append(row)
    return KmsReport(
        beta=beta,
        sign_convention=sign,
        times=tuple(float(t) for t in times),
        residuals=np.array(rows, dtype=float),
        tolerance=tol,
    )
