import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qrflab.opcore import (
    apply_spectral_function,
    as_operator,
    check_density,
    commutator,
    dagger,
    hermitian_eig,
    hs_inner,
    hs_norm,
    op_norm,
    partial_trace,
    psd_sqrt,
    rel_err,
    tensor_product,
    unitary_defect,
)

from _factories import SIGMA_X, SIGMA_Z, random_complex, random_density, random_hermitian, random_unitary

seeds = st.integers(0, 2**31 - 1)
dims = st.integers(1, 5)


def test_as_operator_rejects_nonsquare():
    with pytest.raises(ValueError, match="square matrix"):
        as_operator(np.zeros((2, 3)))


def test_as_operator_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        as_operator(np.array([[np.inf, 0], [0, 1]]))


@given(seeds, dims)
def test_dagger_is_an_involution(seed, n):
    x = random_complex(np.random.default_rng(seed), n)
    assert np.array_equal(dagger(dagger(x)), x)


def test_dagger_of_a_matrix_is_its_conjugate_transpose(rng):
    x = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    assert np.array_equal(dagger(x), x.conj().T)


def test_dagger_of_a_stack_takes_each_matrix_adjoint(rng):
    stack = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    got = dagger(stack)
    assert got.shape == stack.shape
    for x, xd in zip(stack, got):
        assert np.array_equal(xd, x.conj().T)


@given(seeds, dims)
def test_hs_inner_is_positive_definite(seed, n):
    x = random_complex(np.random.default_rng(seed), n)
    val = hs_inner(x, x)
    assert abs(val.imag) < 1e-12 * max(1.0, abs(val))
    assert val.real >= 0
    assert math.isclose(val.real, hs_norm(x) ** 2, rel_tol=1e-12)


@given(seeds, st.integers(2, 5))
def test_operator_norm_bounded_by_hs_norm(seed, n):
    x = random_complex(np.random.default_rng(seed), n)
    assert op_norm(x) <= hs_norm(x) + 1e-12


@given(seeds)
def test_commutator_antisymmetry(seed):
    gen = np.random.default_rng(seed)
    a, b = random_complex(gen, 3), random_complex(gen, 3)
    assert np.allclose(commutator(a, b), -commutator(b, a))


@given(seeds, st.integers(1, 4), st.integers(1, 4))
def test_partial_trace_splits_tensor_products(seed, n, m):
    gen = np.random.default_rng(seed)
    a, b = random_complex(gen, n), random_complex(gen, m)
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, (n, m), "second"), np.trace(b) * a)
    assert np.allclose(partial_trace(joint, (n, m), "first"), np.trace(a) * b)


def test_partial_trace_rejects_bad_dims():
    with pytest.raises(ValueError, match="incompatible factor dimensions"):
        partial_trace(np.eye(6), (2, 2), "first")
    with pytest.raises(ValueError, match="side must be"):
        partial_trace(np.eye(4), (2, 2), "left")


def test_partial_trace_is_trace_compatible(rng):
    joint = random_complex(rng, 6)
    reduced = partial_trace(joint, (2, 3), "second")
    assert np.isclose(np.trace(reduced), np.trace(joint))


def test_tensor_product_matches_kron(rng):
    a, b = random_complex(rng, 2), random_complex(rng, 3)
    assert np.array_equal(tensor_product(a, b), np.kron(a, b))


def test_hermitian_eig_is_deterministic(rng):
    x = random_hermitian(rng, 5)
    vals1, vecs1 = hermitian_eig(x)
    vals2, vecs2 = hermitian_eig(x.copy())
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vecs1, vecs2)


def test_hermitian_eig_reconstructs_with_sorted_spectrum(rng):
    x = random_hermitian(rng, 6)
    vals, vecs = hermitian_eig(x)
    assert np.all(np.diff(vals) >= 0)
    assert np.allclose(vecs @ np.diag(vals) @ dagger(vecs), x, atol=1e-10)


def loop_hermitian_eig(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: hermitian_eig's ordering one column at a time. Each
    eigenvector is turned so that its first component above 1e-12 times its
    largest is real positive; within a run of eigenvalue gaps of at most
    1e-12 max(1, max |eigenvalue|), columns are sorted by the real part of
    that component, ties kept in eigh's order."""

    def first(v):
        mags = np.abs(v)
        return np.flatnonzero(mags > 1.0e-12 * mags.max())[0]

    def phase_fixed(v):
        pivot = v[first(v)]
        return v * (np.conj(pivot) / abs(pivot))

    vals, vecs = np.linalg.eigh((x + dagger(x)) / 2.0)
    cols = [phase_fixed(vecs[:, j]) for j in range(vecs.shape[1])]
    gap = 1.0e-12 * max(1.0, float(np.abs(vals).max()))
    order, j = [], 0
    while j < len(vals):
        k = j
        while k + 1 < len(vals) and vals[k + 1] - vals[k] <= gap:
            k += 1
        order += sorted(range(j, k + 1), key=lambda i: float(cols[i][first(cols[i])].real))
        j = k + 1
    return vals[order], np.column_stack([cols[i] for i in order])


def eig_inputs():
    """(name, Hermitian matrix): generic spectra and degenerate ones, with
    eigenvectors that have zero leading components."""
    gen = np.random.default_rng(17)
    cases = [(f"random-{d}-{k}", random_hermitian(gen, d)) for d in range(1, 9) for k in range(3)]
    for d, k in ((2, 2), (3, 2), (2, 3), (4, 3)):
        h = random_hermitian(gen, d)
        cases += [(f"h-x-1{k}-{d}", np.kron(h, np.eye(k))), (f"1{k}-x-h-{d}", np.kron(np.eye(k), h))]
    for d in (1, 3, 6):
        cases += [(f"zero-{d}", np.zeros((d, d))), (f"identity-{d}", np.eye(d)),
                  (f"ones-{d}", np.ones((d, d))),
                  (f"integer-diagonal-{d}", np.diag(gen.integers(0, 3, d)).astype(float))]
    proj = np.zeros((5, 5))
    proj[2, 2] = 1.0
    u = random_unitary(gen, 4)
    cases += [
        ("projector", proj),
        ("block-diagonal", np.kron(np.eye(2), SIGMA_X) + np.kron(SIGMA_Z, np.eye(2))),
        ("circulant", np.roll(np.eye(6), 1, axis=0) + np.roll(np.eye(6), -1, axis=0)),
        # eigenvalues 1e-13 apart: one tie cluster
        ("near-tie", u @ np.diag([0.0, 1e-13, 1.0, 1.0 + 1e-13]) @ dagger(u)),
    ]
    return cases


@pytest.mark.parametrize("x", [c[1] for c in eig_inputs()], ids=[c[0] for c in eig_inputs()])
def test_hermitian_eig_is_bit_identical_to_the_column_loop(x):
    vals, vecs = hermitian_eig(x)
    want_vals, want_vecs = loop_hermitian_eig(np.asarray(x, dtype=complex))
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(vecs, want_vecs)


def test_hermitian_eig_rejects_nonhermitian(rng):
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(random_complex(rng, 3))


def test_spectral_square_agrees_with_matrix_square(rng):
    x = random_hermitian(rng, 4)
    assert np.allclose(apply_spectral_function(x, lambda v: v * v), x @ x, atol=1e-10)


def test_spectral_exponential_against_series():
    # Truncated Taylor series as an independent route: pi^20/20! ~ 3.6e-9
    # bounds the truncation error, so 1e-7 is a comfortable gap.
    generator = math.pi * SIGMA_Z
    series = np.zeros((2, 2), dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(20):
        series += term
        term = term @ (1j * generator) / (k + 1)
    lib = apply_spectral_function(generator, lambda v: complex(math.cos(v), math.sin(v)))
    assert op_norm(lib - series) < 1e-7
    assert np.allclose(lib, -np.eye(2), atol=1e-12)


def test_spectral_function_rejects_nonfinite_values(rng):
    x = random_hermitian(rng, 3)
    with pytest.raises(ValueError, match="not finite at eigenvalue"):
        apply_spectral_function(x, lambda v: float("nan"))


def test_psd_sqrt_squares_back(rng):
    x = random_complex(rng, 4)
    p = x @ dagger(x)
    r = psd_sqrt(p)
    assert np.allclose(r @ r, p, atol=1e-9)


def test_psd_sqrt_keeps_a_rotated_projector_exact():
    # a rank-one projector in a random basis has eigenvalues of order 1e-17
    # where it should have zeros; their square roots must not survive
    v = random_unitary(np.random.default_rng(0), 3)
    p = v @ np.diag([1.0, 0.0, 0.0]) @ dagger(v)
    assert op_norm(psd_sqrt(p) - p) <= 1e-14


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        psd_sqrt(SIGMA_Z)


@given(seeds, st.integers(1, 5))
def test_random_unitaries_pass_the_defect_check(seed, n):
    u = random_unitary(np.random.default_rng(seed), n)
    assert unitary_defect(u) < 1e-12


def test_unitary_defect_detects_contraction():
    assert unitary_defect(0.5 * np.eye(2)) > 0.1


class TestCheckDensity:
    def test_accepts_random_density(self, rng):
        rho = check_density(random_density(rng, 4))
        assert np.isclose(np.trace(rho), 1.0)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace differs from one"):
            check_density(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            check_density(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_nonhermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density(bad)


def test_rel_err_scales():
    assert rel_err(np.eye(2) * 1e6, np.eye(2) * 1e6 * (1 + 1e-9)) < 1e-8
    assert rel_err(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


def test_op_norm_of_pauli():
    assert math.isclose(op_norm(SIGMA_X), 1.0, abs_tol=1e-12)
