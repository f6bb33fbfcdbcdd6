import numpy as np
import pytest

import qrflab.crossed
from qrflab.crossed import (
    CrossedProductAlgebra,
    build_crossed_product,
    compress_by_frame,
    invariant_joint_algebra,
    verify_commutation_theorem,
    verify_frame_compression,
)
from qrflab.frames import Povm, QuantumReferenceFrame, covariant_dilate, ideal_frame
from qrflab.opcore import dagger, hs_norm
from qrflab.relativise import GroupAction, relativize
from qrflab.symmetry import (
    CircleGroup,
    CircleRep,
    FiniteRep,
    HomogeneousSpace,
    cyclic_group,
    dihedral_group,
    regular_representation,
    symmetric_group,
    tensor_fixed_point_rows,
    tensor_rep,
)
from qrflab.vnalg import (
    OperatorAlgebra,
    algebra_from_matrices,
    decompose,
    generate_algebra,
    span_distance,
)

from _factories import SIGMA_X, SIGMA_Z, random_complex, random_unitary
from _span_oracles import null_space_intersection, sketch_fixed_point_rows
from test_symmetry import coordinate_fixed_rows, dihedral_irrep, superoperator_fixed_rows


def full_algebra(d: int) -> OperatorAlgebra:
    return OperatorAlgebra(d, np.eye(d * d, dtype=complex))


def trivial_algebra(d: int) -> OperatorAlgebra:
    return algebra_from_matrices([np.eye(d)], d)


def diagonal_algebra(d: int) -> OperatorAlgebra:
    return algebra_from_matrices([np.diag(np.eye(d)[k]) for k in range(d)], d)


def flip_rep():
    return FiniteRep(cyclic_group(2), [np.eye(2, dtype=complex), SIGMA_X])


def phase_rep_z3(group=None):
    omega = np.exp(2j * np.pi / 3)
    return FiniteRep(group or cyclic_group(3), [np.diag([1.0, omega**k]) for k in range(3)])


def fixtures():
    z2, z3, s3 = cyclic_group(2), cyclic_group(3), symmetric_group(3)
    reg2, reg3, reg6 = (regular_representation(g) for g in (z2, z3, s3))
    group_alg = generate_algebra(reg6.unitaries, 6)
    return [
        ("scalars-by-z2", GroupAction(trivial_algebra(2), reg2), 2),
        ("scalars-by-z3", GroupAction(trivial_algebra(3), reg3), 3),
        ("scalars-by-s3", GroupAction(trivial_algebra(6), reg6), 6),
        ("qubit-by-flip", GroupAction(full_algebra(2), flip_rep()), 8),
        ("translations-by-z2", GroupAction(full_algebra(2), reg2), 8),
        ("diagonal-by-flip", GroupAction(diagonal_algebra(2), flip_rep()), 4),
        # a free module of rank |G| over the 6-dimensional group algebra
        ("group-algebra-by-conjugation", GroupAction(group_alg, reg6), 36),
    ]


def circle_joint_case():
    """Full M_4 under H_S = diag(0, 1, 2, 1) with the frame H_R = diag(-2..2)."""
    h_s = CircleRep(CircleGroup(2), np.diag([0.0, 1, 2, 1]))
    h_r = CircleRep(CircleGroup(2), np.diag([-2.0, -1, 0, 1, 2]))
    return ("circle-system-x-frame", GroupAction(full_algebra(4), h_s), h_r)


def mixed_basis_case():
    """M_2 held in a basis mixed by a random unitary, so that its rows are
    complex, under the Z3 phase rep; frame: regular Z3."""
    mix = random_unitary(np.random.default_rng(5), 4)
    z3 = cyclic_group(3)
    action = GroupAction(OperatorAlgebra(2, mix @ np.eye(4, dtype=complex)), phase_rep_z3(z3))
    return ("z3-phase-mixed-basis", action, regular_representation(z3))


def superoperator_joint_fixed_rows(action: GroupAction, frame_rep) -> np.ndarray:
    """The superoperator fixed points of the joint rep, intersected with the
    tensor rows of M (x) B(H_W); circle joint reps get a band wide enough
    for the summed frequencies."""
    wide = CircleGroup(2 * action.rep.group.bandwidth) if isinstance(frame_rep, CircleRep) else None
    joint = tensor_rep(action.rep, frame_rep, group=wide)
    d_w = frame_rep.dim
    units = np.eye(d_w * d_w)
    tensor_rows = np.array([
        np.kron(a, units[kl].reshape(d_w, d_w)).ravel()
        for a in action.algebra.basis_matrices()
        for kl in range(d_w * d_w)
    ])
    return null_space_intersection(superoperator_fixed_rows(joint), tensor_rows)


def orthonormal_rows(rows: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return vh[:0]
    return vh[s > tol * s[0]]


def closure_dim(generators: list[np.ndarray], ambient: int) -> int:
    """Count the closure span by brute force: extend words one generator at
    a time and keep an SVD basis, until the rank stops growing."""
    gens = [np.asarray(g, complex) for g in generators]
    gens += [g.conj().T for g in gens]
    start = [np.eye(ambient, dtype=complex), *gens]
    basis = orthonormal_rows(np.array([m.reshape(-1) for m in start]))
    while True:
        words = [(b.reshape(ambient, ambient) @ g).reshape(-1) for b in basis for g in gens]
        grown = orthonormal_rows(np.vstack([basis, np.array(words)]))
        if grown.shape[0] == basis.shape[0]:
            return int(basis.shape[0])
        basis = grown


def right_translation(group, g: int) -> np.ndarray:
    """rho(g) on l2(G), sending |h> to |h g^-1>, written out from the table."""
    rho = np.zeros((group.order, group.order), dtype=complex)
    for h in range(group.order):
        rho[group.table[h, int(group.inverse[g])], h] = 1.0
    return rho


def hand_built_generators(action: GroupAction) -> tuple[list[np.ndarray], int]:
    """The twisted system copy and the translation unitaries, written out
    directly from the definitions rather than through the library."""
    group = action.rep.group
    n = group.order
    d = action.algebra.ambient_dim
    gens = []
    for a in action.algebra.basis_matrices():
        pi = np.zeros((d * n, d * n), dtype=complex)
        for g in range(n):
            block = action.rep.unitaries[g] @ a @ dagger(action.rep.unitaries[g])
            tag = np.zeros((n, n))
            tag[g, g] = 1.0
            pi += np.kron(block, tag)
        gens.append(pi)
    for g in range(n):
        gens.append(np.kron(np.eye(d), right_translation(group, g)))
    return gens, d * n


def dense_conjugation_defects(action: GroupAction) -> tuple[float, float]:
    """The untwist and translation defects with V = sum_g U(g) (x) |g><g|,
    a (x) 1 and U(g) (x) rho(g) written out as D x D matrices."""
    group, us = action.rep.group, action.rep.unitaries
    n, d = group.order, action.rep.dim
    gens, _ = hand_built_generators(action)
    k = action.algebra.dim
    tags = np.eye(n)
    v = sum(np.kron(us[g], np.outer(tags[g], tags[g])) for g in range(n))
    untwist = max(
        hs_norm(v @ np.kron(a, np.eye(n)) @ dagger(v) - pi)
        for a, pi in zip(action.algebra.basis_matrices(), gens[:k])
    )
    translation = max(
        hs_norm(v @ np.kron(us[g], right_translation(group, g)) @ dagger(v) - gens[k + g])
        for g in range(n)
    )
    return untwist, translation


def all_pairs_closure_defect(alg: OperatorAlgebra) -> float:
    """Closure over all basis pairs: the worst distance to the span of a
    basis element's adjoint or of a product of two basis elements, formed
    one left factor at a time."""
    rows = alg.rows
    stack = rows.reshape(-1, alg.ambient_dim, alg.ambient_dim)
    worst = 0.0
    for mats in [stack.conj().transpose(0, 2, 1), *(a @ stack for a in stack)]:
        x = mats.reshape(rows.shape)
        worst = max(worst, float(np.linalg.norm(x - (x @ dagger(rows)) @ rows, axis=1).max()))
    return worst


def growth_cases():
    """The shapes of the benchmark's crossed-growth commutation checks:
    scalars under conjugated regular reps of Z_n, M_2 under conjugated
    Z_n phase reps, and the S3 group algebra under its conjugated regular
    rep."""
    rng = np.random.default_rng(20241101)
    cases = []
    for n in (4, 6, 7, 8):
        w = random_unitary(rng, n)
        lam = regular_representation(cyclic_group(n))
        rep = FiniteRep(lam.group, [w @ u @ dagger(w) for u in lam.unitaries])
        cases.append((f"scalars-Z{n}-regular", GroupAction(trivial_algebra(n), rep)))
    for n in (4, 6, 8, 9, 10):
        w = random_unitary(rng, 2)
        phases = [np.diag([1.0, np.exp(2j * np.pi * k / n)]) for k in range(n)]
        rep = FiniteRep(cyclic_group(n), [w @ u @ dagger(w) for u in phases])
        cases.append((f"M2-Z{n}-phase", GroupAction(full_algebra(2), rep)))
    w = random_unitary(rng, 6)
    lam = regular_representation(symmetric_group(3))
    rep = FiniteRep(lam.group, [w @ u @ dagger(w) for u in lam.unitaries])
    cases.append(("S3-group-algebra", GroupAction(algebra_from_matrices(rep.unitaries, 6), rep)))
    return cases


def kernel_fixture_cases():
    """Every crossed fixture with the frame rep ``tensor_fixed_point_rows``
    meets in the checks: the regular rep for ``fixtures()`` and
    ``growth_cases()``, and the two cases with their own frames."""
    cases = [(name, action, regular_representation(action.rep.group))
             for name, action, _ in fixtures()]
    cases += [(name, action, regular_representation(action.rep.group))
              for name, action in growth_cases()]
    return cases + [circle_joint_case(), mixed_basis_case()]


def squares_off_the_identity(action: GroupAction) -> bool:
    """Whether the first generator s of the action's group has s^2 != e."""
    group = action.rep.group
    s = group.generators()[0]
    return group.table[s, s] != group.identity


def hand_built_span(action: GroupAction, mats) -> CrossedProductAlgebra:
    """A candidate crossed product spanned by the given matrices."""
    return CrossedProductAlgebra(action, algebra_from_matrices(mats, mats[0].shape[0]))


class TestEmbedding:
    @pytest.mark.parametrize("name,action,expected", fixtures(), ids=[f[0] for f in fixtures()])
    def test_rows_are_the_products_of_the_generators(self, name, action, expected):
        # row (b, g) is pi(a_b) (1 (x) rho(g)) / sqrt(|G|), with pi and rho
        # written out from their definitions
        gens, ambient = hand_built_generators(action)
        k, n = action.algebra.dim, action.rep.group.order
        rows = build_crossed_product(action).algebra.rows.reshape(k, n, ambient, ambient)
        for b in range(k):
            for g in range(n):
                want = gens[b] @ gens[k + g] / np.sqrt(n)
                assert hs_norm(rows[b, g] - want) <= 1e-12, (b, g)


class TestCommutationTheorem:
    @pytest.mark.parametrize("name,action,expected", fixtures(), ids=[f[0] for f in fixtures()])
    def test_crossed_span_equals_the_fixed_points(self, name, action, expected):
        report = verify_commutation_theorem(build_crossed_product(action))
        assert report.crossed_dim == report.fixed_dim == expected
        assert report.span_defect <= 1e-7
        assert report.untwist_defect <= 1e-10
        assert report.translation_defect <= 1e-10
        assert report.closure_defect <= 1e-12
        assert report.passed

    @pytest.mark.parametrize("name,action,expected", fixtures(), ids=[f[0] for f in fixtures()])
    def test_dimension_matches_a_brute_force_count(self, name, action, expected):
        gens, ambient = hand_built_generators(action)
        assert closure_dim(gens, ambient) == expected

    def test_fixed_points_match_the_superoperator_construction(self):
        # oracle: the fixed space of the whole joint operator space, taken
        # from the D^2 x D^2 averaging superoperator, intersected with the
        # tensor rows of M (x) B(H_W)
        z3 = cyclic_group(3)
        cases = [
            (name, action, regular_representation(action.rep.group))
            for name, action, _ in fixtures()
            if action.rep.dim * action.rep.group.order <= 9
        ]
        cases += [
            ("flip-frame", GroupAction(full_algebra(2), flip_rep()), flip_rep()),
            ("z3-phase-regular-frame", GroupAction(full_algebra(2), phase_rep_z3(z3)),
             regular_representation(z3)),
            ("z3-phase-frame", GroupAction(full_algebra(2), phase_rep_z3(z3)), phase_rep_z3(z3)),
            circle_joint_case(),
            mixed_basis_case(),
        ]
        assert len(cases) == 10
        for name, action, frame_rep in cases:
            oracle = superoperator_joint_fixed_rows(action, frame_rep)
            got = invariant_joint_algebra(action, frame_rep).rows
            assert got.shape[0] == oracle.shape[0], name
            assert span_distance(got, oracle) <= 1e-10, name

    def test_circle_invariant_joint_algebra_is_the_charge_blocks(self):
        # sum over joint charges q of n_q^2, for n_q = 1, 3, 4, 4, 4, 3, 1
        _, action, frame_rep = circle_joint_case()
        assert invariant_joint_algebra(action, frame_rep).dim == 68

    @pytest.mark.parametrize("name,action,expected", fixtures(), ids=[f[0] for f in fixtures()])
    def test_closed_form_span_equals_the_generated_algebra(self, name, action, expected):
        # oracle: the words in pi(M) and rho(G), written out from the
        # definitions, grown from the identity by generate_algebra, which
        # tests/test_spans.py pins against closure by all pairwise products
        gens, ambient = hand_built_generators(action)
        generated = generate_algebra(gens, ambient)
        closed_form = build_crossed_product(action).algebra
        assert closed_form.dim == generated.dim == expected
        assert span_distance(closed_form, generated) <= 1e-10

    @pytest.mark.parametrize(
        "name,action,expected",
        [f for f in fixtures() if f[1].algebra.dim > 1],
        ids=[f[0] for f in fixtures() if f[1].algebra.dim > 1],
    )
    def test_closure_defect_flags_a_span_without_products(self, name, action, expected):
        # negative control: pi(M) and rho(G) spanned with no products taken;
        # for a scalar M that span is already closed, so those are skipped
        gens, ambient = hand_built_generators(action)
        unclosed = CrossedProductAlgebra(action, algebra_from_matrices(gens, ambient))
        report = verify_commutation_theorem(unclosed)
        assert report.closure_defect >= 0.1
        assert all_pairs_closure_defect(unclosed.algebra) >= 0.1
        assert not report.passed

    def test_closure_defect_flags_a_span_without_adjoints(self):
        # upper triangular matrices: closed under products, not adjoints
        action = GroupAction(full_algebra(2), flip_rep())
        units = np.eye(16, dtype=complex)
        upper = OperatorAlgebra(4, units[[i * 4 + j for i in range(4) for j in range(i, 4)]])
        report = verify_commutation_theorem(CrossedProductAlgebra(action, upper))
        assert report.closure_defect >= 0.1
        assert all_pairs_closure_defect(upper) >= 0.1
        assert not report.passed

    def test_closure_defect_flags_a_span_missing_a_translation_power(self):
        # scalars under Z3 spanned by 1 and rho(s) alone: rho(s) rho(s) =
        # rho(s^2) lies outside the span
        name, action, _ = fixtures()[1]
        assert name == "scalars-by-z3"
        gens, _ = hand_built_generators(action)
        (s,) = action.rep.group.generators()
        cp = hand_built_span(action, [gens[0], gens[1 + s]])
        s2 = action.rep.group.table[s, s]
        assert cp.algebra.distance(gens[1 + s2]) >= 0.1 * np.linalg.norm(gens[1 + s2])
        report = verify_commutation_theorem(cp)
        assert report.closure_defect >= 0.1
        assert not report.passed

    def test_closure_defect_flags_a_subalgebra_without_the_translations(self):
        # span{1, rho(s) + rho(s)^dag} under Z3 is a *-subalgebra, so the
        # all-pairs check passes it; it is not closed under the generator
        # rho(s), so it is not the crossed product
        _, action, _ = fixtures()[1]
        gens, _ = hand_built_generators(action)
        (s,) = action.rep.group.generators()
        cp = hand_built_span(action, [gens[0], gens[1 + s] + dagger(gens[1 + s])])
        assert all_pairs_closure_defect(cp.algebra) <= 1e-12
        report = verify_commutation_theorem(cp)
        assert report.closure_defect >= 0.1
        assert not report.passed

    def test_closure_defect_flags_the_translations_without_pi(self):
        # span{1 (x) rho(g)} under the flip on M_2 is a *-algebra holding
        # the identity and closed under every rho(s), so the all-pairs check
        # passes it; it is not closed under the generators pi(b)
        name, action, _ = fixtures()[3]
        assert name == "qubit-by-flip"
        gens, _ = hand_built_generators(action)
        cp = hand_built_span(action, gens[action.algebra.dim:])
        assert all_pairs_closure_defect(cp.algebra) <= 1e-12
        report = verify_commutation_theorem(cp)
        assert report.closure_defect >= 0.1
        assert not report.passed

    def test_closure_defect_flags_a_span_without_the_identity(self):
        # e_00 (x) C[Z2] inside scalars under Z2: closed under adjoints,
        # products and both generators, but it misses the identity
        name, action, _ = fixtures()[0]
        assert name == "scalars-by-z2"
        gens, _ = hand_built_generators(action)
        e00 = np.diag([1.0, 0.0]).astype(complex)
        cp = hand_built_span(action, [np.kron(e00, np.eye(2)) @ g for g in gens[1:]])
        assert all_pairs_closure_defect(cp.algebra) <= 1e-12
        report = verify_commutation_theorem(cp)
        assert report.closure_defect >= 0.1
        assert not report.passed

    def test_closure_defect_flags_a_generator_closed_span_without_adjoints(self):
        # span{1, e_01} (x) C[Z2] under scalars by Z2 holds the identity and
        # is closed under both generators, but e_01^dag = e_10 is missing
        _, action, _ = fixtures()[0]
        gens, _ = hand_built_generators(action)
        e01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        mats = [*gens[1:], *(np.kron(e01, np.eye(2)) @ g for g in gens[1:])]
        report = verify_commutation_theorem(hand_built_span(action, mats))
        assert report.closure_defect >= 0.1
        assert not report.passed

    @pytest.mark.parametrize("name,action,expected", fixtures(), ids=[f[0] for f in fixtures()])
    def test_block_structure_does_not_depend_on_the_basis(self, name, action, expected):
        alg = build_crossed_product(action).algebra
        mix = random_unitary(np.random.default_rng(20241018), alg.dim)
        mixed = OperatorAlgebra(alg.ambient_dim, mix @ alg.rows)
        plain, remixed = decompose(alg), decompose(mixed)
        assert plain.blocks == remixed.blocks
        assert plain.defect <= 1e-12
        assert remixed.defect <= 1e-12

    def test_continuous_actions_are_rejected(self):
        rep = CircleRep(CircleGroup(1), np.diag([0.0, 1.0]))
        action = GroupAction(full_algebra(2), rep)
        with pytest.raises(ValueError, match="handled analytically"):
            build_crossed_product(action)


class TestFixedPointKernelOnFixtures:
    @pytest.mark.parametrize("name,action,frame_rep", kernel_fixture_cases(),
                             ids=[c[0] for c in kernel_fixture_cases()])
    def test_matches_the_sketch_and_coordinate_oracles(self, name, action, frame_rep):
        rows = action.algebra.rows
        got = tensor_fixed_point_rows(rows, action.rep, frame_rep)
        sketch = sketch_fixed_point_rows(rows, action.rep, frame_rep)
        oracle = coordinate_fixed_rows(rows, action.rep, frame_rep)
        assert got.shape == sketch.shape == oracle.shape
        assert span_distance(got, sketch) <= 1e-12
        assert span_distance(got, oracle) <= 1e-12


class TestClosureAgainstAllPairs:
    """The generator check against the closure over all basis pairs."""

    CASES = [(name, action) for name, action, _ in fixtures()] + growth_cases()

    @pytest.mark.parametrize("name,action", CASES, ids=[c[0] for c in CASES])
    def test_both_defects_vanish_on_crossed_products(self, name, action):
        cp = build_crossed_product(action)
        assert verify_commutation_theorem(cp).closure_defect <= 1e-12
        assert all_pairs_closure_defect(cp.algebra) <= 1e-12

    def test_closure_projects_generator_products_only(self, monkeypatch):
        # M2 under Z10: dim M = 4, one generator of Z10, dim = 40; the
        # all-pairs check would project dim^2 = 1600 products. The closed
        # form takes the graded route: each product is projected once, onto
        # its own g-diagonal's rows, in |G| d^2 = 40 of the D^2 = 400
        # coordinates
        (action,) = [a for name, a in growth_cases() if name == "M2-Z10-phase"]
        cp = build_crossed_product(action)
        dim, dim_m = cp.dim, action.algebra.dim
        n_gens = len(action.rep.group.generators())
        assert (dim, dim_m, n_gens) == (40, 4, 1)
        shapes = []

        def spy(x, rows, kernel=qrflab.crossed._worst_residual):
            shapes.append(x.shape)
            return kernel(x, rows)

        monkeypatch.setattr(qrflab.crossed, "_worst_residual", spy)
        report = verify_commutation_theorem(cp)
        assert report.passed
        assert shapes and max(shape[-1] for shape in shapes) <= 40 < cp.ambient_dim**2
        assert sum(int(np.prod(shape[:-1])) for shape in shapes) <= (dim_m + n_gens + 1) * dim + 1

    def test_closure_takes_no_adjoint_of_the_rows(self, monkeypatch):
        # M2 under Z10: every projection takes its coefficients with no copy
        # of the rows, so no adjoint is taken of the graded
        # (|G|, dim M, |G| d^2) rows or of the D^2-wide rows
        (action,) = [a for name, a in growth_cases() if name == "M2-Z10-phase"]
        cp = build_crossed_product(action)
        d = action.rep.dim
        alphas = qrflab.crossed._alphas(action.algebra.rows.reshape(-1, d, d), action.rep)
        shapes = []
        for module in (qrflab.crossed, qrflab.vnalg):
            def spy(x, adjoint=module.dagger):
                shapes.append(np.shape(x))
                return adjoint(x)

            monkeypatch.setattr(module, "dagger", spy)
        defect = qrflab.crossed._closure_defect(cp.algebra, alphas, action.rep.group)
        assert defect <= 1e-12
        assert (10, 4, 40) not in shapes
        assert cp.algebra.rows.shape not in shapes


class TestGradedClosure:
    """The graded closure route against the dense one, which projects over
    all D^2 coordinates and stays as the oracle."""

    CASES = TestClosureAgainstAllPairs.CASES

    @staticmethod
    def routes(monkeypatch, cp):
        """The closure defect of ``cp`` and the routes it took."""
        d = cp.action.rep.dim
        alphas = qrflab.crossed._alphas(cp.action.algebra.rows.reshape(-1, d, d), cp.action.rep)
        taken = []
        with monkeypatch.context() as patch:
            for route in ("graded", "dense"):
                name = f"_{route}_closure_defect"

                def spy(*args, kernel=getattr(qrflab.crossed, name), route=route):
                    taken.append(route)
                    return kernel(*args)

                patch.setattr(qrflab.crossed, name, spy)
            defect = qrflab.crossed._closure_defect(cp.algebra, alphas, cp.action.rep.group)
        return defect, taken, alphas

    @pytest.mark.parametrize("name,action", CASES, ids=[c[0] for c in CASES])
    def test_graded_route_agrees_with_the_dense_route(self, name, action, monkeypatch):
        cp = build_crossed_product(action)
        defect, taken, alphas = self.routes(monkeypatch, cp)
        assert taken == ["graded"]
        dense = qrflab.crossed._dense_closure_defect(cp.algebra, alphas, action.rep.group)
        assert defect <= 1e-12
        assert abs(defect - dense) <= 1e-14

    RICH = [(name, action) for name, action in CASES if action.algebra.dim > 1]

    @pytest.mark.parametrize("name,action", RICH, ids=[c[0] for c in RICH])
    def test_graded_route_agrees_on_a_span_that_differs_per_diagonal(
        self, name, action, monkeypatch
    ):
        # a graded span that is not closed: on each g-diagonal, a different
        # random half of the rows pi(b) rho(g), mixed within the diagonal,
        # so a product projected onto the wrong diagonal reads differently
        cp = build_crossed_product(action)
        k, n = action.algebra.dim, action.rep.group.order
        rows = cp.algebra.rows.reshape(k, n, -1)
        rng = np.random.default_rng(20241020)
        keep = (k + 1) // 2
        mixed = np.vstack([random_unitary(rng, k)[:keep] @ rows[:, g] for g in range(n)])
        span = CrossedProductAlgebra(action, OperatorAlgebra(cp.ambient_dim, mixed))
        defect, taken, alphas = self.routes(monkeypatch, span)
        assert taken == ["graded"]
        dense = qrflab.crossed._dense_closure_defect(span.algebra, alphas, action.rep.group)
        assert defect >= 0.1
        assert abs(defect - dense) <= 1e-14

    @pytest.mark.parametrize("name,action", CASES, ids=[c[0] for c in CASES])
    def test_a_basis_mixed_across_diagonals_takes_the_dense_route(self, name, action, monkeypatch):
        # the same span in a basis mixed by a unitary: no row lies on one
        # g-diagonal, and the defect does not depend on the basis
        alg = build_crossed_product(action).algebra
        mix = random_unitary(np.random.default_rng(20241018), alg.dim)
        mixed = CrossedProductAlgebra(action, OperatorAlgebra(alg.ambient_dim, mix @ alg.rows))
        defect, taken, _ = self.routes(monkeypatch, mixed)
        assert taken == ["dense"]
        assert defect <= 1e-12

    DROPPED = [(name, action) for name, action in CASES if squares_off_the_identity(action)]

    @pytest.mark.parametrize("name,action", DROPPED, ids=[c[0] for c in DROPPED])
    def test_graded_route_flags_a_span_without_a_diagonal(self, name, action, monkeypatch):
        # negative control: the closed-form rows pi(b) rho(g) with those on
        # the rho(s^2)-diagonal dropped; rho(s) carries the rho(s)-diagonal
        # there, so the graded span is not closed
        cp = build_crossed_product(action)
        group = action.rep.group
        s = group.generators()[0]
        k, n = action.algebra.dim, group.order
        keep = np.arange(k * n) % n != group.table[s, s]
        unclosed = CrossedProductAlgebra(
            action, OperatorAlgebra(cp.ambient_dim, cp.algebra.rows[keep])
        )
        defect, taken, alphas = self.routes(monkeypatch, unclosed)
        assert taken == ["graded"]
        assert defect >= 0.1
        dense = qrflab.crossed._dense_closure_defect(unclosed.algebra, alphas, group)
        assert abs(defect - dense) <= 1e-14
        assert not verify_commutation_theorem(unclosed).passed


class TestConjugationDefects:
    """The block untwist and translation defects against V, a (x) 1 and
    U(g) (x) rho(g) written out as D x D matrices."""

    CASES = TestClosureAgainstAllPairs.CASES

    @pytest.mark.parametrize("name,action", CASES, ids=[c[0] for c in CASES])
    def test_conjugation_defects_match_the_dense_oracle(self, name, action):
        report = verify_commutation_theorem(build_crossed_product(action))
        untwist, translation = dense_conjugation_defects(action)
        assert abs(report.untwist_defect - untwist) <= 1e-14
        assert abs(report.translation_defect - translation) <= 1e-14


class TestDihedral:
    def test_m2_under_the_d4_irrep(self):
        # D4 acts on M_2 through its 2-dim irrep; both theorems hold with
        # the ideal regular frame. lambda's character vanishes off the
        # identity, so both algebras have dim M * |G| = 4 * 8.
        d4 = dihedral_group(4)
        action = GroupAction(full_algebra(2), FiniteRep(d4, dihedral_irrep(4)))
        report = verify_commutation_theorem(build_crossed_product(action))
        assert report.passed
        assert report.crossed_dim == report.fixed_dim == 32
        compression = verify_frame_compression(action, ideal_frame(regular_representation(d4)))
        assert compression.passed
        assert compression.invariant_dim == compression.compressed_dim == 32


class TestCompression:
    def sharp_frame(self):
        return ideal_frame(regular_representation(cyclic_group(2)))

    def unsharp_frame(self):
        g = cyclic_group(2)
        cells = HomogeneousSpace(g, (g.identity,))
        effects = [np.diag([0.75, 0.25]).astype(complex), np.diag([0.25, 0.75]).astype(complex)]
        return QuantumReferenceFrame(regular_representation(g), Povm(cells, effects))

    def test_invariant_joint_algebra_dimension(self):
        action = GroupAction(full_algebra(2), flip_rep())
        alg = invariant_joint_algebra(action, regular_representation(cyclic_group(2)))
        assert alg.dim == 8

    @pytest.mark.parametrize("which", ["sharp", "unsharp"])
    def test_compression_reproduces_the_invariants(self, which):
        action = GroupAction(full_algebra(2), flip_rep())
        frame = self.sharp_frame() if which == "sharp" else self.unsharp_frame()
        report = verify_frame_compression(action, frame)
        assert report.invariant_dim == report.compressed_dim == 8
        assert report.span_defect <= 1e-7
        assert report.passed

    def test_phase_rep_compression(self):
        omega = np.exp(2j * np.pi / 3)
        phases = FiniteRep(cyclic_group(3), [np.diag([1.0, omega**k]) for k in range(3)])
        action = GroupAction(full_algebra(2), phases)
        report = verify_frame_compression(action, ideal_frame(regular_representation(cyclic_group(3))))
        assert report.invariant_dim == report.compressed_dim
        assert report.span_defect <= 1e-7
        assert report.passed

    def test_frame_with_a_rotated_identity_effect(self):
        # the ideal Z3 frame conjugated by a random unitary: its identity
        # effect is a rank-one projector that is not diagonal, and its
        # square root in the dilation must stay that projector
        report = verify_frame_compression(
            GroupAction(full_algebra(2), phase_rep_z3(cyclic_group(3))), rotated_z3_frame()
        )
        assert report.invariant_dim == report.compressed_dim == 12
        assert report.span_defect <= 1e-12
        assert report.passed

    def test_compress_needs_a_projection(self):
        alg = full_algebra(2)
        with pytest.raises(ValueError, match="self-adjoint idempotent"):
            compress_by_frame(alg, 0.5 * np.eye(2), [np.eye(2, dtype=complex)])

    def test_compress_needs_translation_compatibility(self):
        alg = full_algebra(2)
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="does not commute"):
            compress_by_frame(alg, p, [SIGMA_X])


def _reorder_middle_last(d_s: int, n: int, d_k: int) -> np.ndarray:
    """Permutation taking (H_S (x) l2(G)) (x) K to H_S (x) K (x) l2(G)."""
    size = d_s * n * d_k
    perm = np.zeros((size, size), dtype=complex)
    for s in range(d_s):
        for g in range(n):
            for k in range(d_k):
                src = (s * n + g) * d_k + k
                dst = (s * d_k + k) * n + g
                perm[dst, src] = 1.0
    return perm


def extended_corner(action: GroupAction, frame: QuantumReferenceFrame):
    """The corner of (M x| G) (x) B(K) cut by 1 (x) W W^dag, built in the
    (d_s n d_k)-dimensional space, and its span distance to the invariant
    algebra conjugated by 1 (x) W."""
    dil = covariant_dilate(frame)
    w = dil.isometry
    d_s, d_k, n = action.rep.dim, dil.kdim, frame.rep.group.order
    cp = build_crossed_product(action)
    perm = _reorder_middle_last(d_s, n, d_k)
    units = np.eye(d_k * d_k)
    ext_rows = [
        (perm @ np.kron(c, units[kl].reshape(d_k, d_k)) @ dagger(perm)).ravel()
        for c in cp.algebra.basis_matrices()
        for kl in range(d_k * d_k)
    ]
    extended = OperatorAlgebra(d_s * d_k * n, np.array(ext_rows))
    lam = regular_representation(frame.rep.group)
    guards = [np.kron(np.eye(d_s * d_k), u) for u in lam.unitaries]
    big_w = np.kron(np.eye(d_s), w)
    corner = compress_by_frame(extended, big_w @ dagger(big_w), guards)
    inv = invariant_joint_algebra(action, frame.rep)
    embedded = np.array([(big_w @ x @ dagger(big_w)).ravel() for x in inv.basis_matrices()])
    return corner, span_distance(embedded, corner.rows), big_w


def rotated_z3_frame() -> QuantumReferenceFrame:
    z3 = cyclic_group(3)
    ideal = ideal_frame(regular_representation(z3))
    v = random_unitary(np.random.default_rng(0), 3)
    return QuantumReferenceFrame(
        FiniteRep(z3, [v @ u @ dagger(v) for u in ideal.rep.unitaries]),
        Povm(ideal.povm.space, [v @ e @ dagger(v) for e in ideal.povm.effects]),
    )


def compression_cases():
    from test_acceptance import frame_fixtures

    cases = [(name, action, frame) for name, action, frame, _ in frame_fixtures()]
    for n in (4, 5):
        group = cyclic_group(n)
        phases = FiniteRep(group, [np.diag([1.0, np.exp(2j * np.pi * k / n)]) for k in range(n)])
        cases.append((f"M2-Z{n}-phase", GroupAction(full_algebra(2), phases),
                      ideal_frame(regular_representation(group))))
    # the ideal Z3 frame rephased by a diagonal unitary, so that W is complex
    # while the effects stay exactly diagonal
    z3 = cyclic_group(3)
    ideal = ideal_frame(regular_representation(z3))
    v = np.diag(np.exp(1j * np.array([0.0, 0.7, 1.9])))
    rephased = QuantumReferenceFrame(
        FiniteRep(z3, [v @ u @ dagger(v) for u in ideal.rep.unitaries]),
        Povm(ideal.povm.space, [v @ e @ dagger(v) for e in ideal.povm.effects]),
    )
    cases.append(("M2-Z3-phase-rephased-frame", GroupAction(full_algebra(2), phase_rep_z3(z3)),
                  rephased))
    cases.append(("M2-Z3-phase-rotated-frame", GroupAction(full_algebra(2), phase_rep_z3(z3)),
                  rotated_z3_frame()))
    return cases


class TestCompressionAgainstExtendedAlgebra:
    """The corner pulled back to H_S (x) H_R against the old construction
    in the extended space, kept here as the oracle."""

    @pytest.mark.parametrize("name,action,frame", compression_cases(),
                             ids=[c[0] for c in compression_cases()])
    def test_pulled_back_corner_matches_the_extended_corner(self, name, action, frame, monkeypatch):
        corners = []
        orthonormal = qrflab.crossed._orthonormal_rows

        def keep(*args, **kwargs):
            corners.append(orthonormal(*args, **kwargs))
            return corners[-1]

        monkeypatch.setattr(qrflab.crossed, "_orthonormal_rows", keep)
        report = verify_frame_compression(action, frame)
        monkeypatch.undo()
        old_corner, old_defect, big_w = extended_corner(action, frame)
        (pulled,) = corners
        assert report.invariant_dim == report.compressed_dim == old_corner.dim == pulled.shape[0]
        assert abs(report.span_defect - old_defect) <= 1e-12
        d = big_w.shape[1]
        pushed = np.array([(big_w @ y.reshape(d, d) @ dagger(big_w)).ravel() for y in pulled])
        assert span_distance(pushed, old_corner.rows) <= 1e-10


def conjugated_rep(rep: FiniteRep, w: np.ndarray) -> FiniteRep:
    return FiniteRep(rep.group, [w @ u @ dagger(w) for u in rep.unitaries])


class TestConjugatingSystemAndFrameTogether:
    """Conjugating the system (U_S and M's basis) by W_S and the frame (its
    rep and effects) by W_R is the change of basis W_S (x) W_R on
    H_S (x) H_R, so every theorem keeps its dims and defects and the
    relativisation map is carried along."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_theorems_and_relativisation_follow_the_change_of_basis(self, n):
        rng = np.random.default_rng(100 + n)
        group = cyclic_group(n)
        phases = FiniteRep(group, [np.diag([1.0, np.exp(2j * np.pi * k / n)]) for k in range(n)])
        action = GroupAction(full_algebra(2), phases)
        frame = ideal_frame(regular_representation(group))
        w_s, w_r = random_unitary(rng, 2), random_unitary(rng, n)
        basis = w_s @ action.algebra.basis_matrices() @ dagger(w_s)
        turned = GroupAction(OperatorAlgebra(2, basis.reshape(4, 4)), conjugated_rep(phases, w_s))
        turned_frame = QuantumReferenceFrame(
            conjugated_rep(frame.rep, w_r),
            Povm(frame.povm.space, [w_r @ e @ dagger(w_r) for e in frame.povm.effects]),
        )

        reports = [verify_commutation_theorem(build_crossed_product(a)) for a in (action, turned)]
        assert all(r.passed for r in reports)
        assert reports[0].crossed_dim == reports[1].crossed_dim == 2 * 2 * n
        assert reports[0].fixed_dim == reports[1].fixed_dim
        for field in ("span_defect", "untwist_defect", "translation_defect", "closure_defect"):
            assert abs(getattr(reports[0], field) - getattr(reports[1], field)) <= 1e-12, field

        plain = verify_frame_compression(action, frame)
        moved = verify_frame_compression(turned, turned_frame)
        assert plain.passed and moved.passed
        assert plain.invariant_dim == moved.invariant_dim
        assert plain.compressed_dim == moved.compressed_dim
        assert abs(plain.span_defect - moved.span_defect) <= 1e-12

        x = random_complex(rng, 2)
        joint = np.kron(w_s, w_r)
        want = joint @ relativize(x, action, frame) @ dagger(joint)
        got = relativize(w_s @ x @ dagger(w_s), turned, turned_frame)
        assert hs_norm(got - want) <= 1e-12
