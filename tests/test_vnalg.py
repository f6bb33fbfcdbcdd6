import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qrflab.vnalg
from qrflab.opcore import dagger
from qrflab.symmetry import cyclic_group, dihedral_group, regular_representation, symmetric_group
from qrflab.vnalg import (
    OperatorAlgebra,
    ProductTrace,
    algebra_from_matrices,
    centre,
    commutant,
    decompose,
    generate_algebra,
    is_factor,
    normalized_trace,
    span_distance,
    span_intersection,
)

from _factories import SIGMA_X, SIGMA_Z, random_complex, random_hermitian, random_unitary
from _span_oracles import commutator_centre_rows

seeds = st.integers(0, 2**31 - 1)


def full_matrix_algebra(d: int) -> OperatorAlgebra:
    rows = np.eye(d * d, dtype=complex)
    return OperatorAlgebra(d, rows)


def diagonal_algebra(d: int) -> OperatorAlgebra:
    mats = [np.diag(np.eye(d)[k]).astype(complex) for k in range(d)]
    return algebra_from_matrices(mats, d)


class TestValidation:
    def test_rejects_row_length_mismatch(self):
        with pytest.raises(ValueError, match="do not match the ambient dimension"):
            OperatorAlgebra(2, np.eye(3, dtype=complex))

    def test_rejects_non_orthonormal_rows(self):
        rows = np.ones((2, 4), dtype=complex)
        with pytest.raises(ValueError, match="not orthonormal"):
            OperatorAlgebra(2, rows)

    def test_validate_flags_missing_identity(self):
        alg = algebra_from_matrices([SIGMA_X], 2)
        with pytest.raises(ValueError, match="does not contain the identity"):
            alg.validate()

    def test_validate_flags_open_adjoints(self):
        raising = np.array([[0, 1], [0, 0]], dtype=complex)
        alg = algebra_from_matrices([np.eye(2), raising], 2)
        with pytest.raises(ValueError, match="not closed under adjoints"):
            alg.validate()

    def test_generator_dimension_guard(self):
        with pytest.raises(ValueError, match="does not match ambient_dim"):
            generate_algebra([np.eye(3)], 2)


class TestGeneration:
    def test_two_paulis_generate_everything(self):
        alg = generate_algebra([SIGMA_X, SIGMA_Z], 2)
        assert alg.dim == 4
        alg.validate()

    def test_single_diagonal_generates_the_diagonal(self):
        alg = generate_algebra([SIGMA_Z], 2)
        assert alg.dim == 2
        assert span_distance(alg, diagonal_algebra(2)) < 1e-10

    @pytest.mark.parametrize("diagonal,dim", [([np.diag([1.0, 2.0, 3.0])], 3), ([], 1)],
                             ids=["beside-diag", "alone"])
    def test_a_rounding_noise_generator_is_dropped(self, diagonal, dim):
        # 1e-17 B normalised would be a full-weight letter and generate all
        # of M_3; dropped, diag(1, 2, 3) generates the diagonal algebra and
        # nothing the scalars
        noise = 1e-17 * random_complex(np.random.default_rng(0), 3)
        alg = generate_algebra(diagonal + [noise], 3)
        assert alg.dim == dim
        assert span_distance(alg, generate_algebra(diagonal, 3)) <= 1e-10

    @given(seeds)
    def test_projection_is_idempotent(self, seed):
        gen = np.random.default_rng(seed)
        alg = generate_algebra([SIGMA_Z], 2)
        x = random_complex(gen, 2)
        once = alg.project(x)
        assert np.allclose(alg.project(once), once, atol=1e-12)
        assert alg.distance(once) < 1e-10
        assert alg.contains(once)

    def test_a_stack_projects_as_each_of_its_matrices(self, rng):
        alg = group_algebra(symmetric_group(3))
        x = np.array([random_complex(rng, 6) for _ in range(5)])
        stacked = alg.project(x)
        assert stacked.shape == x.shape
        assert max(np.abs(p - alg.project(m)).max() for p, m in zip(stacked, x)) <= 1e-14

    def test_memory_peak_of_a_projection_at_l16(self, charge_sectors_l16):
        # D = 68, dim 260: one copy of the basis is 19.2 MB, and the
        # coefficients are taken without one
        alg = charge_sectors_l16
        x = random_complex(np.random.default_rng(0), alg.ambient_dim)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            alg.project(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestCommutant:
    def test_full_algebra_has_trivial_commutant(self):
        assert commutant(full_matrix_algebra(3)).dim == 1

    def test_diagonal_is_its_own_commutant(self):
        d2 = diagonal_algebra(2)
        assert span_distance(commutant(d2), d2) < 1e-10

    def test_commutant_elements_commute(self, rng):
        alg = generate_algebra([SIGMA_Z], 2)
        comm = commutant(alg)
        for b in comm.basis_matrices():
            assert np.allclose(b @ SIGMA_Z, SIGMA_Z @ b, atol=1e-10)

    @settings(max_examples=25)
    @given(seeds, st.integers(2, 3), st.integers(1, 2))
    def test_double_commutant_returns_the_algebra(self, seed, d, k):
        gen = np.random.default_rng(seed)
        alg = generate_algebra([random_hermitian(gen, d) for _ in range(k)], d)
        bic = commutant(commutant(alg))
        assert bic.dim == alg.dim
        assert span_distance(bic, alg) <= 1e-8

    def test_commutant_of_a_full_algebra_diagonalises_one_operator_space_matrix(
        self, monkeypatch
    ):
        # the stacked commutator system is dim d^2 x d^2 and the Gram
        # operator d^2 x d^2; the commutant is taken from the d x d generic
        # element, whose d eigenspaces leave a d x d compressed Gram matrix
        shapes = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        def no_svd(*args, **kwargs):
            raise AssertionError("commutant must not factor the stacked system")

        monkeypatch.setattr(np.linalg, "eigh", spy)
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        comm = commutant(full_matrix_algebra(4))
        assert comm.dim == 1
        assert shapes == [(4, 4), (4, 4)]

    def test_ambiguous_rank_raises_with_both_eigenvalues(self):
        # (I + delta X)/norm spans no *-algebra; its Gram eigenvalues are
        # 0, 0 and 2 delta^2 ~ 1.8e-9, next to the 1e-9 cut
        m = np.eye(2) + 3e-5 * SIGMA_X
        alg = OperatorAlgebra(2, (m / np.linalg.norm(m)).reshape(1, 4).astype(complex))
        with pytest.raises(ValueError, match=r"ambiguous commutant rank.*1\.800e-09"):
            commutant(alg)


def stacked_svd_commutant_rows(alg: OperatorAlgebra, tol: float = 1.0e-9) -> np.ndarray:
    """Oracle: null rows of the stacked system vstack(b (x) I - I (x) b^T)."""
    d = alg.ambient_dim
    eye = np.eye(d)
    stack = np.vstack([np.kron(b, eye) - np.kron(eye, b.T) for b in alg.basis_matrices()])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = int((s > tol * max(1.0, s[0])).sum())
    return vh[rank:].conj()


def conjugated(mats, rng) -> OperatorAlgebra:
    d = mats[0].shape[0]
    u = random_unitary(rng, d)
    return algebra_from_matrices([u @ m @ dagger(u) for m in mats], d)


def block_sum(scalar, middle, last) -> np.ndarray:
    """C (+) M_2 (x) 1_3 (+) M_3 on C^10."""
    out = np.zeros((10, 10), dtype=complex)
    out[0, 0] = scalar
    out[1:7, 1:7] = np.kron(middle, np.eye(3))
    out[7:, 7:] = last
    return out


class TestCommutantAgainstStackedSvd:
    def assert_matches_oracle(self, alg):
        comm = commutant(alg)
        oracle = stacked_svd_commutant_rows(alg)
        assert comm.dim == oracle.shape[0]
        assert span_distance(comm, oracle) <= 1e-10

    @settings(max_examples=25)
    @given(seeds, st.integers(2, 4), st.integers(1, 2))
    def test_generated_algebras(self, seed, d, k):
        gen = np.random.default_rng(seed)
        self.assert_matches_oracle(
            generate_algebra([random_hermitian(gen, d) for _ in range(k)], d))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_diagonal_algebras(self, d):
        self.assert_matches_oracle(diagonal_algebra(d))

    def test_conjugated_s3_group_algebra(self, rng):
        unitaries = regular_representation(symmetric_group(3)).unitaries
        self.assert_matches_oracle(conjugated(list(unitaries), rng))

    def test_conjugated_uneven_block_sum(self, rng):
        # the Gram spectrum of this algebra is non-uniform, about
        # {0.22, 0.28, 0.61, 0.67, 1} lambda_max, so the cut sits away from a
        # single cluster
        mats = [block_sum(1.0, np.zeros((2, 2)), np.zeros((3, 3)))]
        mats += [block_sum(0.0, e, np.zeros((3, 3))) for e in np.eye(4).reshape(4, 2, 2)]
        mats += [block_sum(0.0, np.zeros((2, 2)), e) for e in np.eye(9).reshape(9, 3, 3)]
        alg = conjugated(mats, rng)
        assert alg.dim == 14
        assert commutant(alg).dim == 11
        self.assert_matches_oracle(alg)


def hermitian_units(d: int) -> list[np.ndarray]:
    """A Hermitian basis of M_d: the diagonal units, and (e_ij + e_ji) and
    i(e_ij - e_ji) for i < j."""
    units = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            if i == j:
                e[i, i] = 1.0
            elif i < j:
                e[i, j] = e[j, i] = 1.0
            else:
                e[i, j], e[j, i] = 1j, -1j
            units.append(e)
    return units


def amplified_factor(d: int, k: int) -> OperatorAlgebra:
    """M_d (x) 1_k, as ``modular.gns_doubling`` builds it for k = d."""
    units = np.eye(d * d).reshape(d * d, d, d)
    rows = np.array([np.kron(e, np.eye(k)).ravel() for e in units]) / np.sqrt(k)
    return OperatorAlgebra(d * k, rows.astype(complex))


def full_gram_commutant_dim(alg: OperatorAlgebra) -> int | str:
    """Oracle: the null space of the whole d^2 x d^2 Gram operator under the
    same cut, or "ambiguous" where that cut raises."""
    try:
        gram = qrflab.vnalg._block_gram(alg.basis_matrices(), np.array([alg.ambient_dim]))
        return qrflab.vnalg._gram_null_vectors(gram, "commutant").shape[1]
    except ValueError as err:
        assert "ambiguous commutant rank" in str(err)
        return "ambiguous"


class TestCommutantOnTheBlockDiagonalSubspace:
    """``commutant`` diagonalises the Gram operator only on the commutant of
    one generic element of the span."""

    @pytest.mark.parametrize("eps", [0.0] + [10.0**-k for k in range(12, 2, -1)] + [3e-5])
    def test_a_perturbed_amplified_factor_matches_the_full_gram_and_the_oracle(self, eps):
        # M_3 (x) 1_3 has a 9-dim commutant. Hermitian noise keeps the span
        # *-closed, so the draw stays Hermitian and its triple eigenvalues
        # split by about eps: a split inside one would drop commutant
        # elements. Up to 1e-7 both routes keep all 9; from 1e-6 the Gram
        # eigenvalues of size eps^2 sit in the ambiguous band and both
        # raise; at 1e-3 they are cut and only the scalars remain.
        u = random_unitary(np.random.default_rng(3), 9)
        noise = np.random.default_rng(4)
        mats = [u @ np.kron(e, np.eye(3)) @ dagger(u) + eps * random_hermitian(noise, 9)
                for e in hermitian_units(3)]
        alg = algebra_from_matrices(mats, 9)
        _, sizes = qrflab.vnalg._generic_eigenbasis(alg)
        assert int(sizes @ sizes) < 81
        expected = full_gram_commutant_dim(alg)
        if expected == "ambiguous":
            with pytest.raises(ValueError, match="ambiguous commutant rank"):
                commutant(alg)
            return
        assert commutant(alg).dim == expected
        assert stacked_svd_commutant_rows(alg, np.sqrt(qrflab.vnalg.RANK_TOL)).shape[0] == expected
        if eps <= 1e-7:
            assert expected == 9 and sizes.tolist() == [3, 3, 3]

    @pytest.mark.parametrize("d", [4, 6])
    def test_a_span_that_is_not_star_closed_raises(self, d):
        # span{I, N}, N the nilpotent shift on C^d: the projected draw
        # c I + c' N is not Hermitian, so its eigenbasis would drop the
        # powers of N from the commutant span{I, N, ..., N^(d-1)}
        nilpotent = np.diag(np.ones(d - 1), k=1).astype(complex)
        alg = algebra_from_matrices([np.eye(d), nilpotent], d)
        with pytest.raises(ValueError, match="closed under adjoints"):
            commutant(alg)

    def test_a_span_that_is_not_star_closed_at_d3_takes_the_whole_gram(self, monkeypatch):
        # span{I, N} on C^3: at d <= 3 no draw is taken and the whole Gram
        # operator is diagonalised, so the commutant is the polynomials in
        # N, span{I, N, N^2}
        nilpotent = np.diag(np.ones(2), k=1).astype(complex)
        alg = algebra_from_matrices([np.eye(3), nilpotent], 3)
        monkeypatch.setattr(qrflab.vnalg, "_generic_draws", None)
        comm = commutant(alg)
        powers = algebra_from_matrices([np.eye(3), nilpotent, nilpotent @ nilpotent], 3)
        assert comm.dim == 3
        assert span_distance(comm, powers) <= 1e-12

    def test_the_generic_element_is_the_first_hermitian_draw_of_decompose(self, monkeypatch):
        # commutant and decompose read one cached seeded draw: commutant's
        # h is decompose's first projected Hermitian draw
        alg = group_algebra(symmetric_group(3))
        real_project = OperatorAlgebra.project
        seen = []

        def spy(self, x):
            seen.append(real_project(self, x))
            return seen[-1]

        monkeypatch.setattr(OperatorAlgebra, "project", spy)
        commutant(alg)
        assert len(seen) == 1 and seen[0].shape == (6, 6)
        decompose(alg)
        assert seen[1].shape == (2, 6, 6)
        assert np.abs(seen[0] - seen[1][0]).max() <= 1e-14

    @pytest.mark.parametrize("d", [3, 4])
    def test_the_empty_span_has_all_of_b_h_as_its_commutant(self, d):
        empty = OperatorAlgebra(d, np.zeros((0, d * d), dtype=complex))
        comm = commutant(empty)
        assert comm.dim == d * d
        assert span_distance(comm, full_matrix_algebra(d)) <= 1e-12

    @pytest.mark.parametrize("name", ["S3-group-algebra", "block-sum", "amplified-M2"])
    def test_commutant_is_covariant_and_ignores_the_basis(self, name, rng):
        alg = {
            "S3-group-algebra": lambda: group_algebra(symmetric_group(3)),
            "block-sum": lambda: conjugated(
                [block_sum(1.0, np.zeros((2, 2)), np.zeros((3, 3)))]
                + [block_sum(0.0, e, np.zeros((3, 3))) for e in np.eye(4).reshape(4, 2, 2)]
                + [block_sum(0.0, np.zeros((2, 2)), e) for e in np.eye(9).reshape(9, 3, 3)],
                np.random.default_rng(5)),
            "amplified-M2": lambda: amplified_factor(2, 3),
        }[name]()
        d = alg.ambient_dim
        comm = commutant(alg)
        u = random_unitary(rng, d)
        moved = OperatorAlgebra(d, (u @ alg.basis_matrices() @ dagger(u)).reshape(alg.dim, -1))
        moved_comm = (u @ comm.basis_matrices() @ dagger(u)).reshape(comm.dim, -1)
        got = commutant(moved)
        assert got.dim == comm.dim
        assert span_distance(got, moved_comm) <= 1e-10
        mixed = OperatorAlgebra(d, random_unitary(rng, alg.dim) @ alg.rows)
        got = commutant(mixed)
        assert got.dim == comm.dim
        assert span_distance(got, comm) <= 1e-10

    def test_an_amplified_factor_diagonalises_only_the_block_diagonal_subspace(
        self, monkeypatch
    ):
        # M_3 (x) 1_3: the generic element has 3 eigenspaces of size 3, so
        # the Gram matrix is 27 x 27 where the operator space is 81-dim
        shapes = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        assert commutant(amplified_factor(3, 3)).dim == 9
        assert shapes == [(9, 9), (27, 27)]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_up_to_c3_the_whole_gram_is_diagonalised_and_nothing_else(self, d, monkeypatch):
        # a d^2 x d^2 Gram operator of at most 81 entries costs less than
        # the generic element's eigenspaces; the result is the whole Gram's
        alg = full_matrix_algebra(d)
        gram = qrflab.vnalg._block_gram(alg.basis_matrices(), np.array([d]))
        want = qrflab.vnalg._gram_null_vectors(gram, "c").T
        shapes = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        assert np.array_equal(commutant(alg).rows, want)
        assert shapes == [(d * d, d * d)]

    def test_memory_peak_of_the_doubled_d5_algebra(self):
        # the d^2 x d^2 Gram operator of M_5 (x) 1_5 alone is 625^2
        # complex entries, 6.25 MB
        alg = amplified_factor(5, 5)
        commutant(alg)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            comm = commutant(alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert comm.dim == 25
        assert peak < 3e6


class TestCentre:
    def test_factor_detection(self):
        assert is_factor(full_matrix_algebra(2))
        assert not is_factor(diagonal_algebra(2))

    def test_centre_of_diagonal_is_diagonal(self):
        d2 = diagonal_algebra(2)
        assert centre(d2).dim == 2

    def test_centre_of_full_is_scalars(self):
        c = centre(full_matrix_algebra(3))
        assert c.dim == 1
        b = c.basis_matrices()[0]
        assert np.allclose(b, b[0, 0] * np.eye(3), atol=1e-10)


def group_algebra(group) -> OperatorAlgebra:
    return generate_algebra(regular_representation(group).unitaries, group.order)


def crossed_fixture_algebras():
    from test_crossed import fixtures
    from qrflab.crossed import build_crossed_product

    return [(name, build_crossed_product(action).algebra) for name, action, _ in fixtures()]


@pytest.fixture(scope="module")
def charge_sectors_l16() -> OperatorAlgebra:
    return charge_sector_algebra(16)


def charge_sector_algebra(frame_top: int) -> OperatorAlgebra:
    """The invariant algebra of two qubits under their number operator and
    the clock frame diag(0, ..., L), L = ``frame_top``: the charge blocks
    M_1, M_3, M_4 (L - 1 times), M_3, M_1 on C^(4 (L + 1)), of dim
    20 + 16 (L - 1), with every multiplicity 1."""
    from qrflab.crossed import invariant_joint_algebra
    from qrflab.relativise import GroupAction
    from qrflab.symmetry import CircleGroup, CircleRep

    band = CircleGroup(frame_top)
    action = GroupAction(full_matrix_algebra(4), CircleRep(band, np.diag([0.0, 1, 1, 2])))
    return invariant_joint_algebra(action, CircleRep(band, np.diag(np.arange(frame_top + 1.0))))


def m2_z4_phase_crossed_product() -> OperatorAlgebra:
    """M_2 x| Z_4 under the phase rep diag(1, i^k): dim 16 on C^8."""
    from qrflab.crossed import build_crossed_product
    from qrflab.relativise import GroupAction
    from qrflab.symmetry import FiniteRep

    phases = [np.diag([1.0, 1j**k]) for k in range(4)]
    action = GroupAction(full_matrix_algebra(2), FiniteRep(cyclic_group(4), phases))
    return build_crossed_product(action).algebra


class TestCentreAgainstCommutantIntersection:
    """``centre`` against the commutator Gram matrix in the algebra's own
    coordinates, which ``tests/_span_oracles.py`` takes at every m, while
    the program takes A cap A' for m > d."""

    def assert_matches_oracle(self, alg):
        z = centre(alg)
        oracle = commutator_centre_rows(alg.rows, alg.ambient_dim)
        assert z.dim == oracle.shape[0]
        assert span_distance(z, oracle) <= 1e-10

    @pytest.mark.parametrize(
        "group,classes",
        [(symmetric_group(3), 3), (cyclic_group(5), 5), (symmetric_group(4), 5)],
        ids=["S3", "Z5", "S4"],
    )
    def test_group_algebras(self, group, classes):
        alg = group_algebra(group)
        assert centre(alg).dim == classes
        self.assert_matches_oracle(alg)

    @pytest.mark.parametrize("name,alg", crossed_fixture_algebras(),
                             ids=[c[0] for c in crossed_fixture_algebras()])
    def test_crossed_products(self, name, alg):
        self.assert_matches_oracle(alg)

    @settings(max_examples=25)
    @given(seeds, st.integers(2, 4), st.integers(1, 2))
    def test_generated_algebras(self, seed, d, k):
        gen = np.random.default_rng(seed)
        self.assert_matches_oracle(
            generate_algebra([random_hermitian(gen, d) for _ in range(k)], d))

    @pytest.mark.parametrize("alg,centre_dim,eighs,grams", [
        # m = d = 24: the Gram matrix from the commutators, no commutant
        (group_algebra(symmetric_group(4)), 5, [(24, 24)], []),
        # m = 64 > d = 8: A' from the generic element's 8 eigenspaces of
        # size 1, an 8 x 8 Gram matrix, then A cap A' by one SVD; no 64 x 64
        # Gram matrix and no d^2 x d^2 operator
        (full_matrix_algebra(8), 1, [(8, 8), (8, 8)], [(8, 8)]),
    ], ids=["S4-group-algebra", "M8"])
    def test_diagonalises_one_matrix_in_the_algebras_coordinates(
        self, alg, centre_dim, eighs, grams, monkeypatch
    ):
        # the m x m Gram matrix for m <= d, none larger than d x d for m > d
        shapes, formed = [], []
        eigh, block_gram = np.linalg.eigh, qrflab.vnalg._block_gram

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        def record(*args):
            gram = block_gram(*args)
            formed.append(gram.shape)
            return gram

        monkeypatch.setattr(np.linalg, "eigh", spy)
        monkeypatch.setattr(qrflab.vnalg, "_block_gram", record)
        assert centre(alg).dim == centre_dim
        assert shapes == eighs
        assert formed == grams

    @pytest.mark.parametrize("name", ["M2-Z4-phase", "charge-sectors-L4"])
    def test_centre_above_d_is_covariant_and_ignores_the_basis(self, name, rng):
        # m > d, the A cap A' route: M_2 x| Z_4 (m = 16, d = 8, centre 4)
        # and the charge blocks at L = 4 (m = 68, d = 20, centre 7)
        alg = {"M2-Z4-phase": m2_z4_phase_crossed_product,
               "charge-sectors-L4": lambda: charge_sector_algebra(4)}[name]()
        d = alg.ambient_dim
        assert alg.dim > d
        z = centre(alg)
        self.assert_matches_oracle(alg)
        mixed = centre(OperatorAlgebra(d, random_unitary(rng, alg.dim) @ alg.rows))
        assert mixed.dim == z.dim
        assert span_distance(mixed, z) <= 1e-10
        u = random_unitary(rng, d)
        moved = OperatorAlgebra(d, (u @ alg.basis_matrices() @ dagger(u)).reshape(alg.dim, -1))
        got = centre(moved)
        assert got.dim == z.dim
        assert span_distance(got, (u @ z.basis_matrices() @ dagger(u)).reshape(z.dim, -1)) <= 1e-10

    def test_empty_span_has_an_empty_centre(self):
        empty = OperatorAlgebra(3, np.zeros((0, 9), dtype=complex))
        assert centre(empty).dim == commutator_centre_rows(empty.rows, 3).shape[0] == 0

    def test_ambiguous_rank_raises_with_both_eigenvalues(self):
        # Z/sqrt2 and (I + delta X)/norm on a 2 x 2 block, plus the unit of
        # a 1 x 1 block: the Gram eigenvalues are 0 and, twice,
        # 4 delta^2 / (2 + 2 delta^2) ~ 1.8e-9, next to the 1e-9 cut
        delta = 3e-5
        mats = [np.zeros((3, 3), dtype=complex) for _ in range(3)]
        mats[0][:2, :2] = SIGMA_Z / np.sqrt(2)
        mats[1][:2, :2] = (np.eye(2) + delta * SIGMA_X) / np.sqrt(2 + 2 * delta**2)
        mats[2][2, 2] = 1.0
        alg = OperatorAlgebra(3, np.array([m.ravel() for m in mats]))
        with pytest.raises(ValueError, match=r"ambiguous centre rank: Gram eigenvalues \S+ and 1\.800e-09"):
            centre(alg)


def amplified_m2() -> OperatorAlgebra:
    """M_2 (x) 1_2 on C^4: one central block, two eigenspaces of size 2."""
    return generate_algebra([np.kron(SIGMA_X, np.eye(2)), np.kron(SIGMA_Z, np.eye(2))], 4)


class TestDecompose:
    def test_memory_peak_of_the_charge_sectors_at_l8(self):
        # D = 36, dim 132, 11 blocks of multiplicity 1: no d^2 x d^2 = 1296^2
        # Gram operator (27 MB) is formed
        alg = charge_sector_algebra(8)
        assert (alg.ambient_dim, alg.dim) == (36, 132)
        tracemalloc.start()
        try:
            structure = decompose(alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert structure.blocks == [(1, 1), (1, 1), (3, 1), (3, 1)] + [(4, 1)] * 7
        assert peak < 20e6

    def test_memory_peak_of_the_charge_sectors_at_l16(self, charge_sectors_l16):
        # D = 68, dim 260: the conjugated basis stack is 19.2 MB. The block
        # defect conjugates it 68 elements at a time and takes the X (x) 1
        # model off each chunk in place, so the peak is about 15 MB; the
        # whole stack and one product temporary would take it to about 39 MB
        alg = charge_sectors_l16
        assert (alg.ambient_dim, alg.dim) == (68, 260)
        tracemalloc.start()
        try:
            structure = decompose(alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert structure.blocks == [(1, 1), (1, 1), (3, 1), (3, 1)] + [(4, 1)] * 15
        assert structure.defect <= 1e-9
        assert peak < 20e6

    def test_symmetric_group_algebra_splits_1_1_2(self):
        rep = regular_representation(symmetric_group(3))
        alg = generate_algebra(rep.unitaries, 6)
        structure = decompose(alg)
        assert structure.blocks == [(1, 1), (1, 1), (2, 2)]
        assert structure.defect <= 1e-7
        assert structure.algebra_dim == alg.dim == 6
        assert structure.commutant_dim == 6

    def test_direct_sum_with_uneven_multiplicity(self):
        z = np.zeros((3, 3), dtype=complex)
        gx, gz, gp = z.copy(), z.copy(), z.copy()
        gx[:2, :2] = SIGMA_X
        gz[:2, :2] = SIGMA_Z
        gp[2, 2] = 1.0
        alg = generate_algebra([gx, gz, gp], 3)
        structure = decompose(alg)
        assert structure.blocks == [(1, 1), (2, 1)]
        assert structure.algebra_dim == 5
        assert structure.commutant_dim == 2

    def test_amplified_factor(self):
        structure = decompose(amplified_m2())
        assert structure.blocks == [(2, 2)]
        assert structure.defect <= 1e-7

    def test_a_conjugated_m10_amplified_ten_times(self, rng):
        # M_10 (x) 1_10 on C^100 in a random basis: one central block of ten
        # eigenspaces of size 10
        alg = conjugated([np.kron(e, np.eye(10)) for e in np.eye(100).reshape(100, 10, 10)], rng)
        structure = decompose(alg)
        assert structure.blocks == [(10, 10)]
        assert structure.defect <= 1e-9

    def test_an_eigenvalue_gap_on_the_cut_raises_with_both_gaps(self):
        # gaps 1e-9 and 1 - 1e-9: the first sits on the 1e-9 cut, inside its 1e3 band
        with pytest.raises(
            ValueError, match=r"ambiguous block split: eigenvalue gaps 1\.000e-09 and 1\.000e\+00"
        ):
            qrflab.vnalg._eigen_clusters(np.array([0.0, 1e-9, 1.0]), "block split")

    @pytest.mark.parametrize(
        "what",
        ["block split: eigenvalue gaps", "block pattern: squared block norms"],
        ids=["eigenvalue-gap", "block-norm"],
    )
    def test_a_draw_with_an_ambiguous_gap_is_retried(self, what, monkeypatch):
        # the first attempt's smallest eigenvalue gap, or smallest squared
        # block norm, is moved onto the 1e-9 cut: the draw must count as
        # degenerate and the next attempt be taken
        alg = amplified_m2()
        real_rank = qrflab.vnalg._rank
        calls = []

        def spy(values, name):
            if name == what:
                calls.append(name)
                if len(calls) == 1:
                    values = np.array(values, dtype=float)
                    values[values.argmin()] = 1e-9 * max(1.0, values.max())
            return real_rank(values, name)

        monkeypatch.setattr(qrflab.vnalg, "_rank", spy)
        structure = decompose(alg)
        assert structure.blocks == [(2, 2)]
        assert structure.defect <= 1e-7
        assert len(calls) == 2

    def test_an_alignment_draw_with_an_ambiguous_singular_value_is_retried(self, monkeypatch):
        # the first stack of aligner blocks gets a singular value on the cut
        alg = amplified_m2()
        real_svd = np.linalg.svd
        stacks = []

        def spy(a, *args, **kwargs):
            u, s, vh = real_svd(a, *args, **kwargs)
            if np.ndim(a) == 3:
                stacks.append(a)
                if len(stacks) == 1:
                    s = s.copy()
                    s[0, -1] = 1e-9 * s.max()
            return u, s, vh

        monkeypatch.setattr(np.linalg, "svd", spy)
        structure = decompose(alg)
        assert structure.blocks == [(2, 2)]
        assert structure.defect <= 1e-7
        assert len(stacks) > 1

    def test_a_spectrum_that_merges_two_central_blocks_is_retried(self, monkeypatch):
        # the diagonal algebra of C^3 has three central blocks; the first
        # spectrum decompose takes has its two lowest eigenvalues made equal,
        # so one eigenspace spans two central blocks. That draw reads
        # 1 + 1 = 2 < 3 = dim A and must be retried, not reported
        alg = diagonal_algebra(3)
        real_eig = qrflab.vnalg.hermitian_eig
        calls = []

        def spy(x):
            vals, vecs = real_eig(x)
            calls.append(vals)
            if len(calls) == 1:
                vals = vals.copy()
                vals[1] = vals[0]
            return vals, vecs

        monkeypatch.setattr(qrflab.vnalg, "hermitian_eig", spy)
        structure = decompose(alg)
        assert structure.blocks == [(1, 1)] * 3
        assert structure.defect <= 1e-12
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "alg",
        [group_algebra(symmetric_group(3)), group_algebra(cyclic_group(5)), charge_sector_algebra(4)],
        ids=["S3", "Z5", "charge-sectors-L4"],
    )
    def test_takes_neither_the_centre_nor_the_commutant(self, alg, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("decompose must read its blocks from its own draws")

        monkeypatch.setattr(qrflab.vnalg, "centre", forbidden)
        monkeypatch.setattr(qrflab.vnalg, "commutant", forbidden)
        structure = decompose(alg)
        assert structure.algebra_dim == alg.dim
        assert structure.defect <= 1e-9

    @pytest.mark.parametrize(
        "group", [symmetric_group(3), dihedral_group(4), symmetric_group(4)], ids=["S3", "D4", "S4"]
    )
    def test_block_draws_do_not_depend_on_the_algebra_basis(self, group, monkeypatch):
        # the algebra's rows mixed by a seeded unitary: the pair of draws
        # that every attempt decompose makes projects in one stacked call,
        # and must not change
        rep = regular_representation(group)
        alg = generate_algebra(rep.unitaries, group.order)
        mix = random_unitary(np.random.default_rng(11), alg.dim)
        real_project = OperatorAlgebra.project

        def draws(a):
            seen = []

            def spy(self, x):
                seen.append(real_project(self, x))
                return seen[-1]

            monkeypatch.setattr(OperatorAlgebra, "project", spy)
            structure = decompose(a)
            return seen, structure

        plain, plain_structure = draws(alg)
        mixed, mixed_structure = draws(OperatorAlgebra(alg.ambient_dim, mix @ alg.rows))
        assert len(plain) == len(mixed) >= 1
        assert all(x.shape == (2, alg.ambient_dim, alg.ambient_dim) for x in plain + mixed)
        assert max(np.abs(a - b).max() for a, b in zip(plain, mixed)) <= 1e-12
        assert plain_structure.blocks == mixed_structure.blocks


class TestProductTrace:
    def make(self):
        left = full_matrix_algebra(2)
        right = diagonal_algebra(2)
        lifted_left = algebra_from_matrices(
            [np.kron(b, np.eye(2)) for b in left.basis_matrices()], 4)
        lifted_right = algebra_from_matrices(
            [np.kron(np.eye(2), b) for b in right.basis_matrices()], 4)
        return ProductTrace(left, right), lifted_left, lifted_right

    def test_normalised_at_identity(self):
        tau, _, _ = self.make()
        assert abs(tau(np.eye(4)) - 1.0) < 1e-12

    def test_tracial_on_the_product(self, rng):
        tau, lifted_left, lifted_right = self.make()
        for _ in range(20):
            x = sum(c * np.kron(a, b)
                    for c, a, b in zip(rng.standard_normal(4),
                                       [np.eye(2), SIGMA_X, SIGMA_Z, SIGMA_X @ SIGMA_Z],
                                       [np.diag([1.0, 0.0])] * 4))
            y = np.kron(SIGMA_X, np.diag([0.0, 1.0]).astype(complex))
            assert abs(tau(x @ y) - tau(y @ x)) < 1e-9

    def test_faithful_on_positive_elements(self, rng):
        tau, _, _ = self.make()
        x = np.kron(random_complex(rng, 2), np.diag(rng.uniform(0.5, 1.5, 2)).astype(complex))
        assert tau(x.conj().T @ x).real > 1e-9

    def test_rejects_operators_outside_the_product(self):
        tau, _, _ = self.make()
        stray = np.zeros((4, 4), dtype=complex)
        stray[0, 1] = 1.0  # the off-diagonal on the right leg is not in D2
        with pytest.raises(ValueError, match="outside the tensor product algebra"):
            tau(stray)

    @pytest.mark.parametrize("pair", ["M2-D2", "X-M3", "D3-X"])
    def test_is_the_normalised_trace_on_random_members(self, pair, rng):
        x_alg = algebra_from_matrices([np.eye(2), SIGMA_X], 2)
        left, right = {
            "M2-D2": (full_matrix_algebra(2), diagonal_algebra(2)),
            "X-M3": (x_alg, full_matrix_algebra(3)),
            "D3-X": (diagonal_algebra(3), x_alg),
        }[pair]
        tau = ProductTrace(left, right)
        d1, d2 = left.ambient_dim, right.ambient_dim
        pairs = [(a, b) for a in left.basis_matrices() for b in right.basis_matrices()]
        for _ in range(10):
            coef = random_complex(rng, len(pairs), 1)[:, 0]
            x = sum(c * np.kron(a, b) for c, (a, b) in zip(coef, pairs))
            # tau1 (x) tau2, extended linearly over elementary tensors
            expected = sum(c * np.trace(a) * np.trace(b) for c, (a, b) in zip(coef, pairs)) / (d1 * d2)
            assert abs(tau(x) - expected) <= 1e-12 * max(1.0, abs(expected))
            assert tau(x) == normalized_trace(x)
        outside = x + random_complex(rng, d1 * d2)
        with pytest.raises(ValueError, match="outside the tensor product algebra"):
            tau(outside)


def test_span_distance_ignores_basis_choice(rng):
    alg = generate_algebra([SIGMA_X, SIGMA_Z], 2)
    q, _ = np.linalg.qr(random_complex(rng, alg.dim))
    recombined = OperatorAlgebra(2, q @ alg.rows)
    assert span_distance(alg, recombined) < 1e-10


def test_span_intersection_picks_common_operators():
    d2 = diagonal_algebra(2)
    other = algebra_from_matrices([np.eye(2), SIGMA_X], 2)
    rows = span_intersection(d2.rows, other.rows)
    assert rows.shape[0] == 1
    common = rows[0].reshape(2, 2)
    assert np.allclose(common, common[0, 0] * np.eye(2), atol=1e-10)


def test_normalized_trace_of_identity():
    assert normalized_trace(np.eye(5)) == 1.0
