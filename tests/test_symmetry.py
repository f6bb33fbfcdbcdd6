import inspect
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrflab import symmetry
from qrflab.symmetry import (
    CircleGroup,
    CircleRep,
    FiniteGroup,
    FiniteRep,
    HomogeneousSpace,
    average_over_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    fixed_point_algebra,
    fixed_point_rows,
    regular_representation,
    right_regular_representation,
    symmetric_group,
    tensor_fixed_point_rows,
    tensor_rep,
    trivial_rep,
)
from qrflab.relativise import GroupAction
from qrflab.vnalg import (
    OperatorAlgebra,
    _orthonormal_rows,
    algebra_from_matrices,
    commutant,
    generate_algebra,
    span_distance,
)
from qrflab.opcore import DEFAULT_TOL, rel_err

import _frame_oracles as frame_oracle
from _factories import SIGMA_X, SIGMA_Y, SIGMA_Z, random_complex, random_hermitian, random_unitary
from _span_oracles import gram_schmidt_rows, null_space_intersection, sketch_fixed_point_rows

seeds = st.integers(0, 2**31 - 1)


def superoperator_projector(u) -> np.ndarray:
    """The D^2 x D^2 averaging superoperator of Ad U on row-major vectorised
    operators, vec(U x U^dag) = (U (x) conj(U)) vec(x), summed over the
    quadrature nodes."""
    nodes = u.group.quadrature_nodes()
    return sum(np.kron(v, v.conj()) for v in u.unitary_stack(nodes)) / nodes.size


def superoperator_fixed_rows(u) -> np.ndarray:
    """Oracle for the fixed points of Ad U: the averaging superoperator is
    idempotent, so Gram-Schmidt over its columns spans its range."""
    return gram_schmidt_rows(superoperator_projector(u).T)


def coordinate_fixed_rows(rows: np.ndarray, u, v) -> np.ndarray:
    """Oracle for the Ad(U (x) V) fixed points of M (x) B(H_V): Gram-Schmidt
    over the columns of the averaging superoperator of C_g (x) V(g) (x) conj(V(g))
    on M's coordinates y_i in B(H_V), with C_g[k, i] = <a_k, U(g) a_i U(g)^dag>
    taken one entry at a time; each fixed coordinate vector is lifted to
    sum_i a_i (x) y_i."""
    d_u, d_v = u.dim, v.dim
    a = rows.reshape(-1, d_u, d_u)
    nodes = u.group.quadrature_nodes()
    avg = 0.0
    for ug, vg in zip(u.unitary_stack(nodes), v.unitary_stack(nodes)):
        c = np.array([[np.vdot(ak, ug @ ai @ ug.conj().T) for ai in a] for ak in a])
        avg = avg + np.kron(c, np.kron(vg, vg.conj()))
    coords = gram_schmidt_rows((avg / nodes.size).T).reshape(-1, len(a), d_v, d_v)
    lifted = [sum(np.kron(ai, y) for ai, y in zip(a, x)).ravel() for x in coords]
    return np.array(lifted).reshape(-1, (d_u * d_v) ** 2)


def charge_sector_reps(top: int) -> tuple[CircleRep, CircleRep]:
    """Two qubits under their number operator diag(0, 1, 1, 2), and the
    clock frame diag(0, ..., top), on a circle of band ``top``: with the
    full M_4 their invariant algebra is the charge blocks M_1, M_3,
    M_4 (top - 1 times), M_3, M_1, of dim 20 + 16 (top - 1)."""
    band = CircleGroup(top)
    return CircleRep(band, np.diag([0.0, 1, 1, 2])), CircleRep(band, np.diag(np.arange(top + 1.0)))


def mixed_within_degenerate_eigenspaces(vals: np.ndarray, vecs: np.ndarray, rng) -> np.ndarray:
    """``vecs`` with the columns of each run of equal ``vals`` (within 1e-9
    of the largest |value|) mixed by a random unitary."""
    vecs = vecs.copy()
    cut = 1e-9 * max(1.0, float(np.abs(vals).max()))
    starts = np.flatnonzero(np.concatenate([[True], np.diff(vals) > cut, [True]]))
    for lo, hi in zip(starts[:-1], starts[1:]):
        vecs[:, lo:hi] = vecs[:, lo:hi] @ random_unitary(rng, hi - lo)
    return vecs


def loop_regular(group) -> list[np.ndarray]:
    """Oracle: lambda(g)|h> = |gh>, one matrix entry at a time."""
    n = group.order
    mats = []
    for g in range(n):
        m = np.zeros((n, n), dtype=complex)
        for h in range(n):
            m[group.table[g, h], h] = 1.0
        mats.append(m)
    return mats


def loop_right_regular(group) -> list[np.ndarray]:
    """Oracle: rho(g)|h> = |h g^-1>, one matrix entry at a time."""
    n = group.order
    mats = []
    for g in range(n):
        m = np.zeros((n, n), dtype=complex)
        for h in range(n):
            m[group.table[h, group.inverse[g]], h] = 1.0
        mats.append(m)
    return mats


def pair_errors(group, mats) -> dict[tuple[int, int], float]:
    """Oracle: rel_err(U(i) U(j), U(table[i, j])) for every pair, row-major."""
    return {
        (i, j): rel_err(mats[i] @ mats[j], mats[group.table[i, j]])
        for i in range(group.order)
        for j in range(group.order)
    }


def dihedral_irrep(n: int) -> list[np.ndarray]:
    """The 2-dim irrep of D_n: r^k s^e -> R^k S^e, R the rotation by 2 pi / n
    and S the reflection diag(1, -1), in the element order of dihedral_group."""
    c, s = np.cos(2 * np.pi / n), np.sin(2 * np.pi / n)
    rot = np.array([[c, -s], [s, c]])
    refl = np.diag([1.0, -1.0])
    return [np.linalg.matrix_power(rot, k) @ np.linalg.matrix_power(refl, e)
            for e in (0, 1) for k in range(n)]


def element_order(group, a: int) -> int:
    x, k = a, 1
    while x != group.identity:
        x, k = int(group.table[x, a]), k + 1
    return k


def cayley_reach(group, gens) -> set[int]:
    """Elements reached from the identity by right multiplication with the
    generators, a breadth-first search over the Cayley table."""
    seen = {int(group.identity)}
    queue = [int(group.identity)]
    while queue:
        h = queue.pop(0)
        for g in gens:
            k = int(group.table[h, g])
            if k not in seen:
                seen.add(k)
                queue.append(k)
    return seen


def character_rank(u) -> int:
    """dim Fix(Ad U) = (1 / |nodes|) sum_g |tr U(g)|^2."""
    nodes = u.group.quadrature_nodes()
    return int(round(sum(abs(np.trace(v)) ** 2 for v in u.unitary_stack(nodes)) / nodes.size))


def conjugated(rep, w):
    if isinstance(rep, CircleRep):
        return CircleRep(rep.group, w @ rep.generator @ w.conj().T)
    return FiniteRep(rep.group, [w @ u @ w.conj().T for u in rep.unitaries])


def permutation_rep_s3() -> FiniteRep:
    s3 = symmetric_group(3)
    return FiniteRep(s3, [np.eye(3)[[int(c) for c in label]].T for label in s3.labels])


def z_flip() -> FiniteRep:
    return FiniteRep(cyclic_group(2), [np.eye(2, dtype=complex), SIGMA_Z])


def z_phase3() -> FiniteRep:
    omega = np.exp(2j * np.pi / 3)
    return FiniteRep(cyclic_group(3), [np.diag([1.0, omega**k]) for k in range(3)])


def kernel_cases():
    """The shapes of the benchmark's fixed-point pairs (regular reps of Z3,
    Z5 and S3 against a partner, each conjugated by a random unitary) and
    band-limited circle representations, one with a non-diagonal generator."""
    rng = np.random.default_rng(20261018)
    s3 = symmetric_group(3)
    pairs = [
        ("Z3-regular-x-3", regular_representation(cyclic_group(3)),
         regular_representation(cyclic_group(3))),
        ("Z5-regular-x-5", regular_representation(cyclic_group(5)),
         regular_representation(cyclic_group(5))),
        ("S3-regular-x-3", regular_representation(s3), permutation_rep_s3()),
    ]
    cases = [
        (name, tensor_rep(conjugated(u, random_unitary(rng, u.dim)),
                          conjugated(v, random_unitary(rng, v.dim))))
        for name, u, v in pairs
    ]
    w = random_unitary(rng, 6)
    cases.append(("circle-nondiagonal",
                  CircleRep(CircleGroup(2), w @ np.diag([-2.0, -1, 0, 1, 1, 2]) @ w.conj().T)))
    h_s = CircleRep(CircleGroup(2), np.diag([0.0, 1, 2, 1]))
    h_r = CircleRep(CircleGroup(2), np.diag([-2.0, -1, 0, 1, 2]))
    cases.append(("circle-system-x-frame", tensor_rep(h_s, h_r, group=CircleGroup(4))))
    return cases


class TestFiniteGroups:
    def test_cyclic_orders(self):
        for n in (1, 2, 5):
            assert cyclic_group(n).order == n

    def test_cyclic_needs_positive_order(self):
        with pytest.raises(ValueError, match="n >= 1"):
            cyclic_group(0)

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_symmetric_needs_positive_degree(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            symmetric_group(n)

    def test_symmetric_three_is_nonabelian(self):
        g = symmetric_group(3)
        assert g.order == 6
        assert not np.array_equal(g.table, g.table.T)

    def test_inverses_close(self):
        g = symmetric_group(3)
        for a in range(g.order):
            assert g.table[a, g.inverse[a]] == g.identity
            assert g.table[g.inverse[a], a] == g.identity

    def test_rejects_wrong_table_shape(self):
        with pytest.raises(ValueError, match="shape does not match"):
            FiniteGroup(["e", "a"], np.zeros((3, 3), dtype=int))

    def test_rejects_table_without_identity(self):
        table = np.zeros((2, 2), dtype=int)
        with pytest.raises(ValueError, match="no two-sided identity"):
            FiniteGroup(["a", "b"], table)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_dihedral_group_order_and_commutativity(self, n):
        g = dihedral_group(n)
        assert g.order == 2 * n
        assert np.array_equal(g.table, g.table.T) == (n < 3)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_dihedral_table_matches_the_polygon_symmetries(self, n):
        # the rotation and reflection matrices multiply by the table
        g = dihedral_group(n)
        FiniteRep(g, dihedral_irrep(n))

    def test_dihedral_needs_positive_n(self):
        with pytest.raises(ValueError, match="n >= 1"):
            dihedral_group(0)

    @pytest.mark.parametrize("left,right", [
        (cyclic_group(2), cyclic_group(3)),
        (symmetric_group(3), cyclic_group(4)),
        (dihedral_group(4), cyclic_group(2)),
        (cyclic_group(1), symmetric_group(3)),
    ])
    def test_direct_product_is_componentwise(self, left, right):
        g = direct_product(left, right)
        assert g.order == left.order * right.order
        nh = right.order
        for a in range(g.order):
            for b in range(g.order):
                c = g.table[a, b]
                assert c // nh == left.table[a // nh, b // nh]
                assert c % nh == right.table[a % nh, b % nh]

    def test_z2_times_z3_is_cyclic_of_order_six(self):
        g = direct_product(cyclic_group(2), cyclic_group(3))
        assert max(element_order(g, a) for a in range(g.order)) == 6

    @pytest.mark.parametrize("group,count", [
        (cyclic_group(1), 0),
        (cyclic_group(7), 1),
        (symmetric_group(3), None),
        (symmetric_group(4), None),
        (dihedral_group(6), None),
        (direct_product(cyclic_group(2), cyclic_group(3)), None),
    ], ids=["Z1", "Z7", "S3", "S4", "D6", "Z2xZ3"])
    def test_generators_reach_the_whole_group(self, group, count):
        gens = group.generators()
        assert group.identity not in gens
        assert len(set(gens)) == len(gens)
        if count is not None:
            assert len(gens) == count
        assert cayley_reach(group, gens) == set(range(group.order))
        # greedy: each generator lies outside the subgroup of those before it
        for k, g in enumerate(gens):
            assert g not in cayley_reach(group, gens[:k])

    def test_generators_are_computed_once(self, monkeypatch):
        group = symmetric_group(4)
        first = group.generators()
        first.append(99)
        monkeypatch.setattr(FiniteGroup, "_greedy_generators", lambda self: pytest.fail("recomputed"))
        # a caller's list is its own: appending to it leaves the group's set
        assert group.generators() == first[:-1]

    @pytest.mark.parametrize("group,classes", [
        (cyclic_group(1), 1),
        (cyclic_group(6), 6),
        (symmetric_group(3), 3),
        (symmetric_group(4), 5),
        (dihedral_group(4), 5),
        (dihedral_group(5), 4),
    ], ids=["Z1", "Z6", "S3", "S4", "D4", "D5"])
    def test_class_labels_are_the_conjugacy_classes(self, group, classes):
        labels = group.class_labels
        t, inv = group.table, group.inverse
        for g in range(group.order):
            conjugates = {int(t[t[h, g], inv[h]]) for h in range(group.order)}
            assert conjugates == set(np.flatnonzero(labels == labels[g]).tolist())
        assert sorted(set(labels.tolist())) == list(range(classes))
        # labelled in the order of each class's smallest element
        firsts = [int(np.flatnonzero(labels == c)[0]) for c in range(classes)]
        assert firsts == sorted(firsts)
        assert labels is group.class_labels

    def test_cyclic_groups_have_one_generator(self):
        for n in (2, 3, 5, 12):
            assert len(cyclic_group(n).generators()) == 1

    def test_rejects_nonassociative_table(self):
        # smallest nonassociative loop: a Latin square with identity and
        # two-sided inverses where (a.b).b != a.(b.b)
        table = np.array([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])
        with pytest.raises(ValueError, match="not associative"):
            FiniteGroup(list("eabcd"), table)

    def test_rejects_nonassociative_table_of_order_66(self):
        # Z_66 with 33 added at (1,1), (1,34), (34,1), (34,34): still a Latin
        # square with identity 0 and two-sided inverses, but
        # (1.1).33 = 35 + 33 = 2 while 1.(1.33) = 1.34 = 2 + 33 = 35.
        n = 66
        table = np.add.outer(np.arange(n), np.arange(n)) % n
        for a, b in ((1, 1), (1, 34), (34, 1), (34, 34)):
            table[a, b] = (table[a, b] + 33) % n
        with pytest.raises(ValueError, match="not associative"):
            FiniteGroup([str(k) for k in range(n)], table)

    def test_accepts_large_groups(self):
        assert symmetric_group(5).order == 120
        assert cyclic_group(66).order == 66
        # the order cap, at which every group is checked in well under a second
        assert symmetric_group(6).order == 720
        assert cyclic_group(720).order == 720

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_symmetric_table_matches_the_composition_loop(self, n):
        # p*q : i -> p[q[i]], over the permutations in itertools order
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        want = [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]
        g = symmetric_group(n)
        assert np.array_equal(g.table, want)
        assert g.labels == ["".join(map(str, p)) for p in perms]

    @pytest.mark.parametrize("build,order", [
        (lambda: symmetric_group(3), "3!"),
        (lambda: symmetric_group(11), "11!"),
        (lambda: cyclic_group(6), "6"),
        (lambda: dihedral_group(3), "6"),
        (lambda: direct_product(cyclic_group(2), cyclic_group(3)), "6"),
    ], ids=["S3", "S11", "Z6", "D3", "Z2xZ3"])
    def test_order_cap_raises_before_any_table_is_built(self, monkeypatch, build, order):
        # the cap is lowered, and enumerating permutations would raise, so
        # nothing past the cap is allocated
        def no_enumeration(*args):
            raise AssertionError("permutations enumerated past the order cap")

        monkeypatch.setattr(symmetry, "_MAX_ORDER", 5)
        monkeypatch.setattr(symmetry.itertools, "permutations", no_enumeration)
        with pytest.raises(ValueError, match=f"has order {re.escape(order)}, above the 5"):
            build()

    def test_order_cap_admits_its_own_order(self, monkeypatch):
        monkeypatch.setattr(symmetry, "_MAX_ORDER", 6)
        for group in (symmetric_group(3), cyclic_group(6), dihedral_group(3),
                      direct_product(cyclic_group(2), cyclic_group(3))):
            assert group.order == 6


class TestFiniteReps:
    def test_regular_rep_is_a_homomorphism(self):
        g = symmetric_group(3)
        lam = regular_representation(g)
        for a in range(g.order):
            for b in range(g.order):
                prod = lam.unitaries[a] @ lam.unitaries[b]
                assert np.allclose(prod, lam.unitaries[g.table[a, b]], atol=1e-12)

    def test_left_and_right_translations_commute(self):
        g = symmetric_group(3)
        lam = regular_representation(g)
        rho = right_regular_representation(g)
        for a in range(g.order):
            for b in range(g.order):
                left, right = lam.unitaries[a], rho.unitaries[b]
                assert np.allclose(left @ right, right @ left, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_left_commutant_is_the_right_algebra(self, n):
        g = symmetric_group(n) if n == 3 else cyclic_group(2)
        lam = regular_representation(g)
        rho = right_regular_representation(g)
        left_alg = generate_algebra(lam.unitaries, g.order)
        right_alg = generate_algebra(rho.unitaries, g.order)
        assert span_distance(commutant(left_alg), right_alg) <= 1e-7

    def test_rep_needs_one_matrix_per_element(self):
        g = cyclic_group(2)
        with pytest.raises(ValueError, match="one unitary per group element"):
            FiniteRep(g, [np.eye(2, dtype=complex)])

    def test_rep_rejects_matrices_of_different_dimension(self):
        with pytest.raises(ValueError, match="differ in dimension"):
            FiniteRep(cyclic_group(2), [np.eye(2, dtype=complex), np.eye(3, dtype=complex)])

    def test_rep_rejects_nonunitary_matrix(self):
        g = cyclic_group(2)
        mats = [np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex)]
        with pytest.raises(ValueError, match="not unitary"):
            FiniteRep(g, mats)

    def test_rep_rejects_broken_homomorphism(self):
        g = cyclic_group(3)
        omega = np.exp(2j * np.pi / 3)
        mats = [np.eye(1, dtype=complex), omega * np.eye(1), omega * np.eye(1)]
        with pytest.raises(ValueError):
            FiniteRep(g, mats)

    @pytest.mark.parametrize("group", [cyclic_group(1), cyclic_group(7), symmetric_group(3),
                                       symmetric_group(4)], ids=["Z1", "Z7", "S3", "S4"])
    def test_indexed_regular_reps_equal_the_loop(self, group):
        for got, want in ((regular_representation(group), loop_regular(group)),
                          (right_regular_representation(group), loop_right_regular(group))):
            assert len(got.unitaries) == group.order
            for u, w in zip(got.unitaries, want):
                assert np.array_equal(u, w)

    def test_broken_pair_is_named_in_row_major_order(self):
        # a validated Z4 with table entries edited afterwards, so that
        # exactly the edited pairs fail against the Z4 regular rep
        lam = regular_representation(cyclic_group(4))
        g = cyclic_group(4)
        g.table = g.table.copy()
        g.table[2, 3] = g.table[2, 2]
        with pytest.raises(ValueError, match=r"pair \(g2, g3\)$"):
            FiniteRep(g, lam.unitaries)
        g.table[1, 3] = g.table[1, 2]
        g.table[3, 0] = g.table[3, 1]
        # (1, 3) precedes (2, 3) and (3, 0) in row-major order
        with pytest.raises(ValueError, match=r"pair \(g1, g3\)$"):
            FiniteRep(g, lam.unitaries)

    @pytest.mark.parametrize("entries", [16, 32, 48], ids=["1-matrix", "2-matrices", "3-matrices"])
    def test_chunked_checks_name_the_same_first_failure(self, entries, monkeypatch):
        # chunks of 1, 2 and 3 of Z4's 4 x 4 regular matrices: the first
        # failing element and pair are the ones the one-chunk check names
        monkeypatch.setattr(symmetry, "_CHECK_ENTRIES", entries)
        lam = regular_representation(cyclic_group(4))
        mats = lam.unitaries.copy()
        mats[3] *= 1.0 + 1e-6
        mats[2] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match=r"matrix for 'g2' is not unitary"):
            FiniteRep(lam.group, mats)
        g = cyclic_group(4)
        g.table = g.table.copy()
        g.table[1, 3] = g.table[1, 2]
        g.table[2, 1] = g.table[2, 0]
        with pytest.raises(ValueError, match=r"pair \(g1, g3\)$"):
            FiniteRep(g, lam.unitaries)

    def test_validation_holds_one_stack_and_its_chunks(self, monkeypatch):
        # with one matrix per chunk, validating S4's regular rep holds the
        # stored copy of the n^3 stack and chunk temporaries of n^2 entries;
        # checking the whole stack at once peaks at 3 to 4 n^3
        monkeypatch.setattr(symmetry, "_CHECK_ENTRIES", 24 * 24)
        lam = regular_representation(symmetric_group(4))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            FiniteRep(lam.group, lam.unitaries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 16 * 24**3

    @pytest.mark.parametrize("size", [2e-9, 5e-10])
    def test_homomorphism_tolerance(self, size):
        # S3's permutation rep with one matrix turned by exp(i eps H):
        # still unitary, and off by a pair error of size either side of
        # DEFAULT_TOL; the oracle's first failing pair is the one named
        rep = permutation_rep_s3()
        h = random_hermitian(np.random.default_rng(11), 3)
        vals, vecs = np.linalg.eigh(h)

        def turned(eps):
            mats = list(rep.unitaries)
            mats[3] = mats[3] @ (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T
            return mats

        eps = size / max(pair_errors(rep.group, turned(1e-6)).values()) * 1e-6
        mats = turned(eps)
        errors = pair_errors(rep.group, mats)
        assert max(errors.values()) == pytest.approx(size, rel=1e-3)
        broken = [pair for pair, err in errors.items() if err > DEFAULT_TOL]
        assert bool(broken) == (size > DEFAULT_TOL)
        if not broken:
            FiniteRep(rep.group, mats)
            return
        labels = rep.group.labels
        i, j = broken[0]
        with pytest.raises(ValueError, match=rf"pair \({labels[i]}, {labels[j]}\)$"):
            FiniteRep(rep.group, mats)

    def test_identity_must_act_trivially(self):
        g = cyclic_group(2)
        mats = [SIGMA_X, np.eye(2, dtype=complex)]
        with pytest.raises(ValueError, match="identity element must act"):
            FiniteRep(g, mats)


class TestAveraging:
    @given(seeds)
    def test_projection_onto_fixed_points(self, seed):
        g = cyclic_group(3)
        lam = regular_representation(g)
        x = random_complex(np.random.default_rng(seed), 3)
        avg = average_over_group(lam, lam, x)
        twice = average_over_group(lam, lam, avg)
        assert np.allclose(avg, twice, atol=1e-12)
        assert np.isclose(np.trace(avg), np.trace(x))
        for u in lam.unitaries:
            assert np.allclose(u @ avg @ u.conj().T, avg, atol=1e-12)

    def test_needs_matching_dimensions(self):
        g = cyclic_group(2)
        lam = regular_representation(g)
        with pytest.raises(ValueError, match="operator shape"):
            average_over_group(lam, lam, np.eye(3))

    def test_mixed_group_reps_are_rejected(self):
        lam2 = regular_representation(cyclic_group(2))
        omega = np.exp(2j * np.pi / 3)
        phases = FiniteRep(cyclic_group(3), [np.diag([1.0, omega**k]) for k in range(3)])
        with pytest.raises(ValueError, match="one group"):
            average_over_group(lam2, phases, np.eye(2))

    def test_intertwiners_between_reps_of_different_dimension(self, rng):
        lam = regular_representation(cyclic_group(3))
        triv = trivial_rep(lam.group, 2)
        x = random_complex(rng, 3, 2)
        avg = average_over_group(lam, triv, x)
        assert avg.shape == (3, 2)
        # the average is a fixed point: constant columns, each the column mean
        for u in lam.unitaries:
            assert np.allclose(u @ avg, avg, atol=1e-12)
        assert np.allclose(avg, np.ones((3, 1)) * x.mean(axis=0), atol=1e-12)
        with pytest.raises(ValueError, match="operator shape"):
            average_over_group(lam, triv, x.T)
        with pytest.raises(ValueError, match="non-finite"):
            average_over_group(lam, triv, np.full((3, 2), np.nan))

    def test_fixed_point_algebra_of_the_regular_rep(self):
        g = cyclic_group(3)
        lam = regular_representation(g)
        fixed = fixed_point_algebra(lam)
        # for an abelian group the fixed points of Ad lambda are the
        # commutant of the whole translation algebra
        assert fixed.dim == 3
        assert span_distance(fixed, commutant(generate_algebra(lam.unitaries, 3))) <= 1e-8


class TestFixedPointKernel:
    @pytest.mark.parametrize("name,rep", kernel_cases(), ids=[c[0] for c in kernel_cases()])
    def test_matches_the_superoperator_oracle(self, name, rep):
        got = fixed_point_rows(rep)
        oracle = superoperator_fixed_rows(rep)
        assert got.shape[0] == oracle.shape[0] == character_rank(rep)
        assert span_distance(got, oracle) <= 1e-10
        assert np.linalg.norm(got @ got.conj().T - np.eye(got.shape[0])) <= 1e-12

    @pytest.mark.parametrize("name,rep", kernel_cases(), ids=[c[0] for c in kernel_cases()])
    def test_span_kernel_matches_gram_schmidt_on_the_superoperator(self, name, rep):
        # the superoperator's columns: many are zero up to rounding, the
        # rest span the fixed points with heavy repetition
        columns = superoperator_projector(rep).T
        got = _orthonormal_rows(columns, None)
        oracle = gram_schmidt_rows(columns)
        assert got.shape[0] == oracle.shape[0] == character_rank(rep)
        assert span_distance(got, oracle) <= 1e-10

    def test_m2_tensor_identity_under_a_circle_rep(self):
        # M_2 (x) 1_2 on C^4 under exp(i theta (N_1 (x) 1 + 1 (x) N_2)) with N_1
        # non-diagonal, so Ad U mixes M's basis; frame exp(i theta N_V).
        # Oracle: the superoperator fixed points of the joint rep,
        # intersected with the tensor rows of M (x) B(C^3)
        w = random_unitary(np.random.default_rng(17), 2)
        n1 = w @ np.diag([0.0, 1.0]) @ w.conj().T
        u = CircleRep(CircleGroup(2), np.kron(n1, np.eye(2)) + np.kron(np.eye(2), np.diag([-1.0, 1.0])))
        v = CircleRep(CircleGroup(2), np.diag([-1.0, 0.0, 2.0]))
        rows = np.array([np.kron(e.reshape(2, 2), np.eye(2)).ravel() for e in np.eye(4)]) / np.sqrt(2)
        got = tensor_fixed_point_rows(rows.astype(complex), u, v)
        units = np.eye(9)
        tensor_rows = np.array([np.kron(a.reshape(4, 4), e.reshape(3, 3)).ravel()
                                for a in rows for e in units])
        oracle = null_space_intersection(
            superoperator_fixed_rows(tensor_rep(u, v, group=CircleGroup(4))), tensor_rows
        )
        assert got.shape[0] == oracle.shape[0] > 0
        assert span_distance(got, oracle) <= 1e-10

    @pytest.mark.parametrize("name,rep", kernel_cases(), ids=[c[0] for c in kernel_cases()])
    def test_matches_the_sketch_and_superoperator_oracles(self, name, rep):
        got = fixed_point_rows(rep)
        sketch = sketch_fixed_point_rows(np.ones((1, 1), dtype=complex), trivial_rep(rep.group, 1), rep)
        oracle = superoperator_fixed_rows(rep)
        assert got.shape == sketch.shape == oracle.shape
        assert span_distance(got, sketch) <= 1e-12
        assert span_distance(got, oracle) <= 1e-12

    @pytest.mark.parametrize("top", [4, 8, 16])
    def test_charge_sectors_match_the_sketch_oracle(self, top):
        u, v = charge_sector_reps(top)
        rows = np.eye(16, dtype=complex)
        got = tensor_fixed_point_rows(rows, u, v)
        oracle = sketch_fixed_point_rows(rows, u, v)
        assert got.shape == oracle.shape == (20 + 16 * (top - 1), (4 * (top + 1)) ** 2)
        assert span_distance(got, oracle) <= 1e-12

    def test_memory_peak_of_the_charge_sector_build_at_l16(self):
        # the whole build: the kernel's rows and the orthonormality check of
        # the algebra that carries them
        from qrflab.crossed import invariant_joint_algebra

        u, v = charge_sector_reps(16)
        action = GroupAction(OperatorAlgebra(4, np.eye(16, dtype=complex)), u)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            alg = invariant_joint_algebra(action, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alg.dim == 260
        assert peak < 2.5 * alg.rows.nbytes

    def test_a_mix_inside_a_degenerate_charge_leaves_the_span(self):
        # N_S = diag(0, 1, 1, 2) and a frame with charge 1 twice: the
        # eigenvectors of each generator mixed inside the charge-1 eigenspace
        band = CircleGroup(4)
        u = CircleRep(band, np.diag([0.0, 1, 1, 2]))
        v = CircleRep(band, np.diag([0.0, 1, 1, 2, 4]))
        rows = np.eye(16, dtype=complex)
        want = tensor_fixed_point_rows(rows, u, v)
        rng = np.random.default_rng(27)
        for rep in (u, v):
            rep.vecs = mixed_within_degenerate_eigenspaces(rep.freqs, rep.vecs, rng)
        got = tensor_fixed_point_rows(rows, u, v)
        assert got.shape == want.shape
        assert span_distance(got, want) <= 1e-12

    @pytest.mark.parametrize("name", ["Z3-regular-x-3", "Z5-regular-x-5", "S3-regular-x-3"])
    def test_a_mix_inside_a_degenerate_eigenspace_leaves_the_span(self, name, monkeypatch):
        # every eigenbasis the kernel reads, of the class sum and of the
        # generic element, mixed inside each degenerate eigenspace
        rep = dict(kernel_cases())[name]
        want = fixed_point_rows(rep)
        rng = np.random.default_rng(27)
        eigh = np.linalg.eigh

        def mixed_eigh(x):
            vals, vecs = eigh(x)
            return vals, mixed_within_degenerate_eigenspaces(vals, vecs, rng)

        monkeypatch.setattr(np.linalg, "eigh", mixed_eigh)
        got = fixed_point_rows(rep)
        assert got.shape == want.shape
        assert span_distance(got, want) <= 1e-12

    @pytest.mark.parametrize("name", ["Z3-regular-x-3", "S3-regular-x-3"])
    def test_a_merged_draw_is_retried_then_refused(self, name, monkeypatch):
        # all-ones coefficients make both elements a multiple of sum_g g,
        # which merges every nontrivial isotypic component into one label
        rep = dict(kernel_cases())[name]
        want = fixed_point_rows(rep)
        real = symmetry._label_draws(rep.group.order)
        merged = np.ones_like(real)
        monkeypatch.setattr(symmetry, "_label_draws", lambda order: merged)
        with pytest.raises(ValueError, match="not certified"):
            fixed_point_rows(rep)
        monkeypatch.setattr(symmetry, "_label_draws", lambda order: np.concatenate([merged[:1], real]))
        got = fixed_point_rows(rep)
        assert got.shape == want.shape
        assert span_distance(got, want) <= 1e-12

    def test_never_calls_kron(self, monkeypatch):
        calls = []
        real_kron = np.kron

        def spy(*args, **kwargs):
            calls.append(args)
            return real_kron(*args, **kwargs)

        cases = [(np.eye(8, dtype=complex).reshape(1, 64) / np.sqrt(8),
                  *self.scalars_z8_regular())]
        lam = regular_representation(cyclic_group(3))
        cases.append((np.eye(4, dtype=complex), z_phase3(), lam))
        monkeypatch.setattr(np, "kron", spy)
        for rows, u, v in cases:
            tensor_fixed_point_rows(rows, u, v)
        assert calls == []

    @staticmethod
    def scalars_z8_regular():
        """The crossed-growth shape scalars-Z8-regular: a conjugated Z8
        regular rep on H_U = C^8, and the Z8 regular rep as the frame."""
        lam = regular_representation(cyclic_group(8))
        return conjugated(lam, random_unitary(np.random.default_rng(8), 8)), lam

    def test_memory_peak_on_the_scalars_z8_regular_shape(self):
        u, lam = self.scalars_z8_regular()
        rows = np.eye(8, dtype=complex).reshape(1, 64) / np.sqrt(8)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = tensor_fixed_point_rows(rows, u, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (8, 64**2)
        assert peak < 1.5e6

    def test_reproducible_under_the_fixed_seed(self):
        rep = dict(kernel_cases())["S3-regular-x-3"]
        assert np.array_equal(fixed_point_rows(rep), fixed_point_rows(rep))

    def test_a_span_with_a_fractional_trace_raises(self):
        # Ad Z moves (Z + X)/2 to (Z - X)/2, outside its span; the average
        # has trace 1/2 there
        flip = z_flip()
        rows = ((SIGMA_Z + SIGMA_X) / 2).reshape(1, 4)
        with pytest.raises(ValueError, match="not a rank"):
            tensor_fixed_point_rows(rows, flip, trivial_rep(flip.group, 1))

    def test_a_span_whose_average_is_not_a_projection_raises(self):
        # Ad Z swaps (Z + X)/2 with (Z - X)/2 and (I + Y)/2 with (I - Y)/2:
        # the compressed average is diag(1/2, 1/2), of trace 1 but rank 2
        flip = z_flip()
        rows = np.array([((SIGMA_Z + SIGMA_X) / 2).ravel(), ((np.eye(2) + SIGMA_Y) / 2).ravel()])
        with pytest.raises(ValueError, match="not certified"):
            tensor_fixed_point_rows(rows, flip, trivial_rep(flip.group, 1))
        with pytest.raises(ValueError, match="not certified"):
            tensor_fixed_point_rows(rows, flip, regular_representation(flip.group))

    @pytest.mark.parametrize("eps", [1e-10, 1e-9, 3e-9])
    def test_an_algebra_invariant_to_closure_tol_keeps_the_exact_dim(self, eps):
        # the diagonal algebra of C^3 under the Z3 regular rep, rotated by
        # exp(i eps H): no longer exactly invariant, but a GroupAction
        # still accepts it
        lam = regular_representation(cyclic_group(3))
        diagonal = algebra_from_matrices([np.diag(np.eye(3)[k]) for k in range(3)], 3)
        vals, vecs = np.linalg.eigh(random_hermitian(np.random.default_rng(3), 3))
        v = (vecs * np.exp(1j * eps * vals)) @ vecs.conj().T
        rotated = OperatorAlgebra(
            3, np.array([(v @ a @ v.conj().T).ravel() for a in diagonal.basis_matrices()])
        )
        action = GroupAction(rotated, lam)
        exact = tensor_fixed_point_rows(diagonal.rows, lam, lam)
        got = tensor_fixed_point_rows(action.algebra.rows, lam, lam)
        assert exact.shape[0] == got.shape[0] == 9
        assert span_distance(got, exact) <= 1e3 * eps

    def test_no_fixed_points(self):
        # Ad Z negates X, so span{X} (x) B(C) has only 0 fixed
        flip = z_flip()
        rows = (SIGMA_X / np.sqrt(2)).reshape(1, 4)
        assert tensor_fixed_point_rows(rows, flip, trivial_rep(flip.group, 1)).shape == (0, 4)

    def test_needs_one_group(self):
        lam2 = regular_representation(cyclic_group(2))
        lam3 = regular_representation(cyclic_group(3))
        with pytest.raises(ValueError, match="one group"):
            tensor_fixed_point_rows(np.eye(4, dtype=complex), lam2, lam3)


class TestCircle:
    def test_quadrature_node_count_covers_the_band(self):
        g = CircleGroup(2)
        nodes = g.quadrature_nodes()
        assert len(nodes) == 9

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ValueError, match="non-negative"):
            CircleGroup(-1)

    def test_generator_eigenvalues_must_be_integers(self):
        with pytest.raises(ValueError, match="must be integers"):
            CircleRep(CircleGroup(1), np.diag([0.0, 0.5]))

    def test_generator_must_fit_the_band(self):
        with pytest.raises(ValueError, match="exceeds the group band limit"):
            CircleRep(CircleGroup(1), np.diag([0.0, 2.0]))

    def test_averaging_kills_off_diagonals_exactly(self):
        g = CircleGroup(1)
        rep = CircleRep(g, np.diag([0.0, 1.0]))
        x = np.array([[0.3, 0.7], [0.2, -0.1]], dtype=complex)
        avg = average_over_group(rep, rep, x)
        assert np.allclose(avg, np.diag(np.diag(x)), atol=1e-14)

    def test_unitary_at_angle(self):
        rep = CircleRep(CircleGroup(1), np.diag([0.0, 1.0]))
        u = rep.unitary_stack(np.array([np.pi]))[0]
        assert np.allclose(u, np.diag([1.0, -1.0]), atol=1e-12)


@pytest.mark.parametrize("kind", ["finite", "circle"])
def test_unitary_stack_matches_the_unitary_at_each_node(rng, kind):
    # the finite rep against its own matrices, the circle rep against
    # V e^{i theta n} V^dag for the spectrum n and eigenbasis V it was built from
    w = random_unitary(rng, 3)
    freqs = np.array([-2.0, 0.0, 1.0])
    if kind == "finite":
        rep = regular_representation(symmetric_group(3))
    else:
        rep = CircleRep(CircleGroup(2), w @ np.diag(freqs) @ w.conj().T)

    def expected(g):
        if kind == "finite":
            return rep.unitaries[g]
        return w @ np.diag(np.exp(1j * g * freqs)) @ w.conj().T

    nodes = rep.group.quadrature_nodes()
    stack = rep.unitary_stack(nodes)
    assert stack.shape == (nodes.size, rep.dim, rep.dim)
    for u, g in zip(stack, nodes):
        assert rel_err(u, expected(g)) <= 1e-14


@pytest.mark.parametrize("cls", [FiniteRep, CircleRep])
def test_unitary_stack_is_the_only_public_method(cls):
    methods = {
        name for name, member in vars(cls).items()
        if inspect.isfunction(member) and not name.startswith("_")
    }
    assert methods == {"unitary_stack"}


class TestTensorRep:
    def test_finite_tensor_is_pointwise_kron(self):
        g = cyclic_group(2)
        lam = regular_representation(g)
        both = tensor_rep(lam, lam)
        assert np.allclose(both.unitaries[1], np.kron(lam.unitaries[1], lam.unitaries[1]))

    def test_circle_tensor_needs_room_for_the_sum(self):
        rep = CircleRep(CircleGroup(1), np.diag([0.0, 1.0]))
        with pytest.raises(ValueError):
            tensor_rep(rep, rep)
        wide = tensor_rep(rep, rep, group=CircleGroup(2))
        point = np.array([np.pi / 2])
        u = rep.unitary_stack(point)[0]
        assert np.allclose(wide.unitary_stack(point)[0], np.kron(u, u))

    def test_trivial_rep_acts_as_identity(self):
        g = cyclic_group(3)
        triv = trivial_rep(g, 2)
        for k in range(3):
            assert np.array_equal(triv.unitaries[k], np.eye(2, dtype=complex))


class TestHomogeneousSpace:
    def test_coset_count(self):
        g = symmetric_group(3)
        pair = next(a for a in range(1, 6) if g.table[a, a] == g.identity)
        space = HomogeneousSpace(g, (g.identity, pair))
        assert space.size == 3
        assert not space.principal

    @pytest.mark.parametrize(
        "n, members",
        [
            (3, ["012", "021"]),
            (3, ["012", "120", "201"]),
            (4, ["0123", "1032", "2301", "3210"]),
            (4, ["0123", "0213", "1023", "1203", "2013", "2103"]),
        ],
        ids=["S3-pair", "S3-A3", "S4-klein", "S4-point-stabiliser"],
    )
    def test_action_table_is_the_action_on_coset_sets(self, n, members):
        g = symmetric_group(n)
        subgroup = [g.labels.index(p) for p in members]
        space = HomogeneousSpace(g, tuple(subgroup))
        cosets, action = frame_oracle.coset_action(g.table, subgroup)
        assert [frozenset(c) for c in space.cosets] == cosets
        assert space.action.shape == (g.order, len(cosets))
        assert space.action.tolist() == action

    def test_action_is_a_group_action(self):
        g = symmetric_group(3)
        space = HomogeneousSpace(g, (g.identity,))
        assert space.principal
        for a in range(g.order):
            for b in range(g.order):
                for cell in range(space.size):
                    act = space.action
                    assert act[g.table[a, b], cell] == act[a, act[b, cell]]

    def test_subgroup_must_contain_identity(self):
        g = cyclic_group(4)
        with pytest.raises(ValueError, match="must contain the identity"):
            HomogeneousSpace(g, (1, 3))

    def test_subgroup_must_be_closed(self):
        g = cyclic_group(4)
        with pytest.raises(ValueError, match="not closed"):
            HomogeneousSpace(g, (0, 1))

    @pytest.mark.parametrize("subgroup", [(0, -1, 5), (0, 99)], ids=["negative", "too-large"])
    def test_subgroup_indices_must_name_group_elements(self, subgroup):
        # (0, -1, 5) would otherwise read -1 as element 5 and pass as {0, 5}
        with pytest.raises(ValueError, match=r"must lie in \[0, 6\)"):
            HomogeneousSpace(symmetric_group(3), subgroup)
