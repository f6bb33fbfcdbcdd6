"""The span kernel of ``qrflab.vnalg`` against the reference kernels in
``_span_oracles``, its one rank rule, and metamorphic properties of the
algebras it builds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrflab.symmetry import cyclic_group, regular_representation, symmetric_group
from qrflab.vnalg import (
    _orthonormal_rows,
    algebra_from_matrices,
    commutant,
    generate_algebra,
    span_distance,
    span_intersection,
)

from _factories import SIGMA_X, SIGMA_Z, random_hermitian, random_unitary
from _span_oracles import gram_schmidt_rows, null_space_intersection, pairwise_generate_algebra
from test_crossed import fixtures, growth_cases, hand_built_generators
from test_vnalg import block_sum, conjugated, crossed_fixture_algebras, group_algebra

seeds = st.integers(0, 2**31 - 1)


def generated_cases():
    """The generator sets the suite hands to ``generate_algebra``."""
    rng = np.random.default_rng(11)
    z = np.zeros((3, 3), dtype=complex)
    gx, gz, gp = z.copy(), z.copy(), z.copy()
    gx[:2, :2], gz[:2, :2], gp[2, 2] = SIGMA_X, SIGMA_Z, 1.0
    raising = np.array([[0, 1], [0, 0]], dtype=complex)
    cases = [
        ("paulis", [SIGMA_X, SIGMA_Z], 2),
        ("sigma-z", [SIGMA_Z], 2),
        ("raising", [raising], 2),
        ("m2-plus-c", [gx, gz, gp], 3),
        ("amplified-m2", [np.kron(SIGMA_X, np.eye(2)), np.kron(SIGMA_Z, np.eye(2))], 4),
        ("sharp-effects", [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2),
        ("hermitian-d2", [random_hermitian(rng, 2)], 2),
        ("hermitian-d3", [random_hermitian(rng, 3)], 3),
    ]
    for name, group in (("Z3", cyclic_group(3)), ("Z5", cyclic_group(5)),
                        ("S3", symmetric_group(3)), ("S4", symmetric_group(4))):
        cases.append((f"{name}-regular", list(regular_representation(group).unitaries), group.order))
    for name, action, _ in fixtures():
        gens, ambient = hand_built_generators(action)
        cases.append((f"crossed-{name}", gens, ambient))
    return cases


def block_sum_units() -> list[np.ndarray]:
    """Matrix units of C (+) M_2 (x) 1_3 (+) M_3 on C^10."""
    mats = [block_sum(1.0, np.zeros((2, 2)), np.zeros((3, 3)))]
    mats += [block_sum(0.0, e, np.zeros((3, 3))) for e in np.eye(4).reshape(4, 2, 2)]
    return mats + [block_sum(0.0, np.zeros((2, 2)), e) for e in np.eye(9).reshape(9, 3, 3)]


def spanned_cases():
    """The spanning sets the suite hands to ``algebra_from_matrices``."""
    w = random_unitary(np.random.default_rng(5), 10)
    cases = [
        ("identity", [np.eye(3)], 3),
        ("sigma-x", [SIGMA_X], 2),
        ("unit-and-raising", [np.eye(2), np.array([[0, 1], [0, 0]], dtype=complex)], 2),
        *((f"diagonal-d{d}", [np.diag(np.eye(d)[k]) for k in range(d)], d) for d in (2, 3, 5)),
        ("conjugated-block-sum", [w @ m @ w.conj().T for m in block_sum_units()], 10),
        ("lifted-m2", [np.kron(e.reshape(2, 2), np.eye(2)) for e in np.eye(4)], 4),
    ]
    for name, action in growth_cases():
        if name == "S3-group-algebra":
            cases.append((name, list(action.rep.unitaries), 6))
    for name, action, _ in fixtures():
        gens, ambient = hand_built_generators(action)
        cases.append((f"crossed-{name}-unclosed", gens, ambient))
    return cases


def intersection_cases():
    """The algebras whose centre the suite checks against the intersection
    with the commutant, and a block sum in a complex basis, whose centre is
    a proper complex subspace."""
    cases = [(f"{g}-group-algebra", group_algebra(group))
             for g, group in (("S3", symmetric_group(3)), ("Z5", cyclic_group(5)),
                              ("S4", symmetric_group(4)))]
    mixed = conjugated(block_sum_units(), np.random.default_rng(6))
    return cases + crossed_fixture_algebras() + [("conjugated-block-sum", mixed)]


def assert_same_span(got: np.ndarray, oracle: np.ndarray) -> None:
    assert got.shape[0] == oracle.shape[0]
    assert span_distance(got, oracle) <= 1e-10


class TestAgainstTheReferenceKernels:
    @pytest.mark.parametrize("name,gens,d", generated_cases(), ids=[c[0] for c in generated_cases()])
    def test_word_closure_matches_pairwise_closure(self, name, gens, d):
        assert_same_span(generate_algebra(gens, d).rows, pairwise_generate_algebra(gens, d))

    @settings(max_examples=25)
    @given(seeds, st.integers(2, 4), st.integers(1, 2))
    def test_word_closure_matches_pairwise_closure_on_random_hermitians(self, seed, d, k):
        gens = [random_hermitian(np.random.default_rng(seed), d) for _ in range(k)]
        assert_same_span(generate_algebra(gens, d).rows, pairwise_generate_algebra(gens, d))

    @pytest.mark.parametrize("name,mats,d", spanned_cases(), ids=[c[0] for c in spanned_cases()])
    def test_spanning_sets_match_gram_schmidt(self, name, mats, d):
        cands = np.array([np.asarray(m, complex).ravel() for m in mats])
        assert_same_span(algebra_from_matrices(mats, d).rows, gram_schmidt_rows(cands))

    @pytest.mark.parametrize("name,alg", intersection_cases(), ids=[c[0] for c in intersection_cases()])
    def test_intersection_matches_the_stacked_null_space(self, name, alg):
        comm = commutant(alg).rows
        assert_same_span(span_intersection(alg.rows, comm), null_space_intersection(alg.rows, comm))

    def test_extension_keeps_the_basis_rows(self):
        basis = np.eye(9, dtype=complex)[:2]
        cands = np.random.default_rng(3).standard_normal((5, 9)) + 0j
        rows = _orthonormal_rows(cands, basis)
        assert np.array_equal(rows[:2], basis)
        assert_same_span(rows, gram_schmidt_rows(cands, basis))


class TestKernel:
    def test_new_rows_are_orthogonal_to_the_basis_near_the_span(self):
        # candidates within 1e-5 of a 40-row span: one projection would
        # leave overlaps of rounding / 1e-5 with the basis
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((200, 44)) + 1j * rng.standard_normal((200, 44)))
        basis, extra = q[:, :40].T, q[:, 40:].T
        coef = rng.standard_normal((4, 40)) + 1j * rng.standard_normal((4, 40))
        rows = _orthonormal_rows(coef @ basis + 1e-5 * extra, basis)
        assert rows.shape[0] == 44
        assert np.abs(rows[40:] @ basis.conj().T).max() <= 1e-13
        assert np.linalg.norm(rows @ rows.conj().T - np.eye(44)) <= 1e-12

    def test_candidates_inside_the_span_take_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("no residual row survives, so nothing is factored")

        basis = np.eye(16, dtype=complex)[:4]
        cands = np.random.default_rng(2).standard_normal((30, 4)) @ basis
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert np.array_equal(_orthonormal_rows(cands, basis), basis)


class TestAmbiguousRank:
    def test_residual_near_the_cut_raises_and_names_both_values(self):
        # e0 lies in the basis span exactly; e0 + 1e-8 e1 leaves a residual
        # of 1e-8, inside the 1e3 band around the 1e-9 cut
        units = np.eye(4, dtype=complex)
        cands = np.array([units[0] + 1e-8 * units[1], units[0]])
        with pytest.raises(ValueError, match=r"ambiguous span rank: residual norms "
                                             r"0\.000e\+00 and 1\.000e-08"):
            _orthonormal_rows(cands, units[:1])

    def test_near_dependent_candidates_raise_and_name_both_values(self):
        units = np.eye(4, dtype=complex)
        cands = np.array([units[0], units[0], units[0] + 1e-8 * units[1]])
        with pytest.raises(ValueError, match=r"ambiguous span rank: singular values "
                                             r"\S+ and \d\.\d{3}e-09") as err:
            _orthonormal_rows(cands, None)
        below = float(str(err.value).split("singular values ")[1].split(" and ")[0])
        assert below < 1e-12

    def test_intersection_near_the_cut_raises_and_names_both_values(self):
        # span{e0 + 1e-8 e1, e2} against span{e0, e2}: e2 is common, the
        # first row misses span{e0, e2} by 1e-8
        units = np.eye(4, dtype=complex)
        a_rows = np.array([units[0] + 1e-8 * units[1], units[2]])
        with pytest.raises(ValueError, match=r"ambiguous intersection rank: singular values "
                                             r"(\S+) and 1\.000e-08") as err:
            span_intersection(a_rows, units[[0, 2]])
        below = float(str(err.value).split("singular values ")[1].split(" and ")[0])
        assert below < 1e-12

    def test_clear_ranks_do_not_raise(self):
        units = np.eye(4, dtype=complex)
        a_rows = np.array([(units[0] + units[1]) / np.sqrt(2), units[2]])
        assert span_intersection(a_rows, units[[0, 2]]).shape[0] == 1
        assert _orthonormal_rows(np.array([units[0], 2 * units[0], units[1]]), None).shape[0] == 2


FAMILIES = ("hermitian", "pair", "block", "raising")


def family(kind: str, rng, d: int) -> tuple[list[np.ndarray], int]:
    """Generators with a known closure dimension on C^d, d >= 3."""
    if kind == "hermitian":
        return [random_hermitian(rng, d)], d
    if kind == "pair":
        return [random_hermitian(rng, d), random_hermitian(rng, d)], d * d
    gens = [np.zeros((d, d), dtype=complex) for _ in range(2)]
    if kind == "block":
        # two Hermitians on the first d - 1 coordinates generate M_{d-1} (+) C
        for g in gens:
            g[: d - 1, : d - 1] = random_hermitian(rng, d - 1)
        return gens, (d - 1) ** 2 + 1
    # e_01 generates M_2 (+) C on C^d
    gens[0][0, 1] = 1.0
    return gens[:1], 5


def conjugate(mats, w):
    return [w @ m @ w.conj().T for m in mats]


class TestMetamorphic:
    @settings(max_examples=25)
    @given(seeds, st.integers(3, 4), st.sampled_from(FAMILIES),
           st.lists(st.sampled_from([1e-6, 1.0, 1e6]), min_size=2, max_size=2))
    def test_scaling_the_generators_keeps_the_dims(self, seed, d, kind, scales):
        rng = np.random.default_rng(seed)
        gens, dim = family(kind, rng, d)
        gens = conjugate(gens, random_unitary(rng, d))
        plain = generate_algebra(gens, d)
        scaled = generate_algebra([s * g for s, g in zip(scales, gens)], d)
        assert plain.dim == scaled.dim == dim
        assert span_distance(plain, scaled) <= 1e-10
        assert commutant(scaled).dim == commutant(plain).dim
        for s in (1e-6, 1.0, 1e6):
            spanned = algebra_from_matrices([s * m for m in plain.basis_matrices()], d)
            assert spanned.dim == dim
            assert commutant(spanned).dim == commutant(plain).dim

    @settings(max_examples=25)
    @given(seeds, st.integers(3, 4), st.sampled_from(FAMILIES))
    def test_conjugating_the_generators_keeps_the_dims(self, seed, d, kind):
        rng = np.random.default_rng(seed)
        gens, dim = family(kind, rng, d)
        w = random_unitary(rng, d)
        plain = generate_algebra(gens, d)
        moved = generate_algebra(conjugate(gens, w), d)
        assert plain.dim == moved.dim == dim
        assert plain.star_closure_defect() <= 1e-10
        assert moved.star_closure_defect() <= 1e-10
        assert commutant(moved).dim == commutant(plain).dim
        spanned = algebra_from_matrices(conjugate(plain.basis_matrices(), w), d)
        assert spanned.dim == dim
        assert span_distance(spanned, moved) <= 1e-10
