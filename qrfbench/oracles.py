"""Independent oracles for the benchmark's checks.

Everything here is plain numpy on the inputs the benchmark built; nothing
calls qrflab. Each ``*_problems`` function takes the program's answer and
returns a list of reasons it is wrong (empty when it is right), so the
benchmark and its tests share one verdict.
"""

from __future__ import annotations

import numpy as np

# Irreducible representation dimensions, from the character tables of
# S3 (trivial, sign, standard) and S4 (trivial, sign, the 2-dimensional one
# through S3, standard, standard times sign). Z_n has n one-dimensional ones.
IRREP_DIMS = {"S3": (1, 1, 2), "S4": (1, 1, 2, 3, 3)}

DIM_TOL = 1.0e-8
DEFECT_TOL = 1.0e-9


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with the phases of R fixed."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2.0


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


# ------------------------------------------------------------ group data

def _identity(table: np.ndarray) -> int:
    n = table.shape[0]
    return int(next(i for i in range(n) if (table[i] == np.arange(n)).all()))


def class_count(table: np.ndarray) -> int:
    """Number of conjugacy classes, counted from the Cayley table."""
    n = table.shape[0]
    e = _identity(table)
    inv = [int(np.flatnonzero(table[g] == e)[0]) for g in range(n)]
    seen: set[int] = set()
    classes = 0
    for h in range(n):
        if h in seen:
            continue
        classes += 1
        seen.update(int(table[table[g, h], inv[g]]) for g in range(n))
    return classes


def centraliser_sizes(table: np.ndarray) -> list[int]:
    """|C(g)| for each g: the trace of Ad lambda(g) on the group algebra,
    whose orthonormal basis lambda(h)/sqrt|G| it permutes."""
    return [int((table[g] == table[:, g]).sum()) for g in range(table.shape[0])]


def regular_blocks(irrep_dims, table: np.ndarray) -> list[tuple[int, int]]:
    """Blocks (n, m) of the left regular group algebra: each irrep of
    dimension n appears with multiplicity n. The dimensions are checked
    against the group order and the class count first."""
    dims = list(irrep_dims)
    if sum(d * d for d in dims) != table.shape[0] or len(dims) != class_count(table):
        raise ValueError("irrep dimensions do not fit the Cayley table")
    return sorted((d, d) for d in dims)


def multiplicity_free_blocks(irrep_dims, table: np.ndarray, unitaries) -> list[tuple[int, int]]:
    """Blocks (n, 1) of the group algebra of a representation that holds
    each irrep once. (1/|G|) sum_g |tr U_g|^2 = sum of squared
    multiplicities equals the class count, and dim U = sum of irrep
    dimensions; for the irrep dimensions of Z_n, S3 and S4 only
    multiplicity one everywhere satisfies both."""
    dims = list(irrep_dims)
    if fixed_dim([1.0] * len(unitaries), unitaries) != len(dims) or len(dims) != class_count(table):
        raise ValueError("representation is not multiplicity-free over these irreps")
    if unitaries[0].shape[0] != sum(dims):
        raise ValueError("representation dimension is not the sum of the irrep dimensions")
    return sorted((d, 1) for d in dims)


def fixed_dim(alpha_traces, v_unitaries) -> int:
    """dim of the fixed points of alpha (x) Ad V inside M (x) B(H_V):
    (1/|G|) sum_g tr(alpha_g on M) |tr V_g|^2."""
    vals = [a * abs(np.trace(v)) ** 2 for a, v in zip(alpha_traces, v_unitaries)]
    mean = float(np.real(sum(vals))) / len(vals)
    k = int(round(mean))
    if abs(mean - k) > 1.0e-6:
        raise ValueError(f"character average {mean} is not an integer")
    return k


def full_algebra_traces(unitaries) -> list[float]:
    """tr(Ad U_g) on all of B(H) is |tr U_g|^2."""
    return [abs(np.trace(u)) ** 2 for u in unitaries]


# -------------------------------------------------------------- verdicts

def commutation_problems(report, dim_m: int, order: int, fixed: int) -> list[str]:
    """crossed dim = fixed dim = dim M * |G|, which must also be ``fixed``,
    the character average, with the report's defects in tolerance."""
    want = dim_m * order
    out = []
    if fixed != want:
        out.append(f"character average {fixed} differs from dim M * |G| = {want}")
    if report.crossed_dim != want or report.fixed_dim != want:
        out.append(f"crossed/fixed dims {report.crossed_dim}/{report.fixed_dim}, want {want}")
    if not report.passed:
        out.append("commutation report did not pass")
    return out


def compression_problems(report, want: int) -> list[str]:
    out = []
    if report.invariant_dim != want or report.compressed_dim != want:
        out.append(
            f"invariant/compressed dims {report.invariant_dim}/{report.compressed_dim}, want {want}"
        )
    if not report.passed:
        out.append("compression report did not pass")
    return out


def dim_problems(name: str, got: int, want: int) -> list[str]:
    return [] if got == want else [f"{name} dim {got}, want {want}"]


def span_gap(a_rows: np.ndarray, b_rows: np.ndarray) -> float:
    """Largest residual of a row of either span after projecting onto the other."""
    worst = 0.0
    for x, y in ((a_rows, b_rows), (b_rows, a_rows)):
        resid = x - (x @ y.conj().T) @ y
        worst = max(worst, float(np.linalg.norm(resid, axis=1).max()))
    return worst


def same_span_problems(name: str, got_rows: np.ndarray, want_rows: np.ndarray) -> list[str]:
    if got_rows.shape[0] != want_rows.shape[0]:
        return [f"{name} dim {got_rows.shape[0]}, want {want_rows.shape[0]}"]
    gap = span_gap(got_rows, want_rows)
    return [] if gap <= DIM_TOL else [f"{name} span differs by {gap:.2e}"]


def block_problems(structure, want: list[tuple[int, int]]) -> list[str]:
    got = [tuple(b) for b in structure.blocks]
    out = [] if got == want else [f"blocks {got}, want {want}"]
    if structure.defect > 1.0e-7:
        out.append(f"block defect {structure.defect:.2e}")
    return out


def gibbs_weights(h: np.ndarray, beta: float) -> np.ndarray:
    e = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


def modular_spectrum(h: np.ndarray, beta: float) -> np.ndarray:
    """Spectrum of Delta for the doubled Gibbs state: all ratios p_i / p_j."""
    p = gibbs_weights(h, beta)
    return np.sort((p[:, None] / p[None, :]).ravel())


def spectrum_problems(delta: np.ndarray, want: np.ndarray) -> list[str]:
    got = np.sort(np.linalg.eigvalsh((delta + delta.conj().T) / 2.0))
    if got.shape != want.shape:
        return [f"Delta has {got.size} eigenvalues, want {want.size}"]
    err = float(np.max(np.abs(got - want) / want))
    return [] if err <= DIM_TOL else [f"Delta spectrum off by {err:.2e} (relative)"]


def defect_problems(named: dict, tol: float = DEFECT_TOL) -> list[str]:
    return [f"{k} {v:.2e} above {tol:.0e}" for k, v in named.items() if not v <= tol]


def relativised_problems(
    y: np.ndarray, y_identity: np.ndarray, gen_s: np.ndarray, gen_r: np.ndarray, bandwidth: int
) -> list[str]:
    """Relativised operators are unital and invariant under
    exp(i theta N_s) (x) exp(i theta N_r) at every node theta = 2 pi k / (4B+1).

    The joint unitary is diagonal in the eigenbasis of the generators, where
    conjugating y multiplies entry (a, b) by exp(i theta (l_a - l_b)). The
    Frobenius norm of the change bounds its operator norm.
    """
    out = []
    unital = float(np.linalg.norm(y_identity - np.eye(y_identity.shape[0]), 2))
    if unital > DEFECT_TOL:
        out.append(f"relativised identity is off the identity by {unital:.2e}")
    l_s, v_s = np.linalg.eigh((gen_s + gen_s.conj().T) / 2.0)
    l_r, v_r = np.linalg.eigh((gen_r + gen_r.conj().T) / 2.0)
    v = np.kron(v_s, v_r)
    levels = (l_s[:, None] + l_r[None, :]).ravel()
    gaps = levels[:, None] - levels[None, :]
    yt = v.conj().T @ y @ v
    n = 4 * bandwidth + 1
    worst = max(
        float(np.linalg.norm((np.exp(2j * np.pi * k / n * gaps) - 1.0) * yt)) for k in range(n)
    )
    if worst > DEFECT_TOL * max(1.0, float(np.linalg.norm(y, 2))):
        out.append(f"relativised operator moves by {worst:.2e} under the joint action")
    return out


def partial_trace_second(x: np.ndarray, d1: int, d2: int) -> np.ndarray:
    return np.einsum("ijkj->ik", x.reshape(d1, d2, d1, d2))
