import numpy as np
import pytest

from qrflab import relativise
from qrflab.frames import (
    CirclePartition,
    Povm,
    QuantumReferenceFrame,
    ideal_frame,
    phase_povm,
)
from qrflab.opcore import dagger, op_norm
from qrflab.relativise import (
    _INVARIANCE_TOL,
    FrameAssignment,
    GroupAction,
    _invariance_bound,
    _stabiliser_defect,
    expected_relative_outcome,
    localization_defect,
    relativize,
    restrict,
)
from qrflab.symmetry import (
    CircleGroup,
    CircleRep,
    FiniteRep,
    HomogeneousSpace,
    cyclic_group,
    regular_representation,
    symmetric_group,
    tensor_rep,
)
from qrflab.vnalg import OperatorAlgebra, algebra_from_matrices, generate_algebra

import _frame_oracles as frame_oracle
import _relativise_oracles as oracle
from _factories import (
    SIGMA_X,
    SIGMA_Z,
    random_complex,
    random_density,
    random_hermitian,
    random_unitary,
)


def qubit_action() -> GroupAction:
    g = cyclic_group(2)
    flip = FiniteRep(g, [np.eye(2, dtype=complex), SIGMA_X])
    full = OperatorAlgebra(2, np.eye(4, dtype=complex))
    return GroupAction(full, flip)


def sharp_frame() -> QuantumReferenceFrame:
    return ideal_frame(regular_representation(cyclic_group(2)))


def unsharp_frame(p: float = 0.75) -> QuantumReferenceFrame:
    g = cyclic_group(2)
    cells = HomogeneousSpace(g, (g.identity,))
    effects = [np.diag([p, 1 - p]).astype(complex), np.diag([1 - p, p]).astype(complex)]
    return QuantumReferenceFrame(regular_representation(g), Povm(cells, effects))


def coset_fixture():
    """Conjugation action of S3 on its own translation algebra, observed
    through a frame whose cells are the cosets of a two-element subgroup."""
    g = symmetric_group(3)
    lam = regular_representation(g)
    algebra = generate_algebra(lam.unitaries, 6)
    action = GroupAction(algebra, lam)
    pair = next(a for a in range(1, 6) if g.table[a, a] == g.identity)
    space = HomogeneousSpace(g, (g.identity, pair))
    effects = []
    for coset in space.cosets:
        p = np.zeros((6, 6), dtype=complex)
        for member in coset:
            p[member, member] = 1.0
        effects.append(p)
    frame = QuantumReferenceFrame(lam, Povm(space, effects))
    cycles = [a for a in range(1, 6) if g.table[a, a] != g.identity]
    return g, lam, action, frame, cycles


CIRCLE_BAND = 3


def circle_fixture(rng):
    """Full M_3 under a non-diagonal circle generator, observed through a
    four-level phase frame on an uneven three-arc partition.

    System frequencies -1, 0, 2 and frame frequencies 0..3 keep every
    frequency of the relativised integrand within 3 * CIRCLE_BAND, so the
    4 * CIRCLE_BAND + 1 node sum of ``circle_node_relativize`` is exact.
    """
    group = CircleGroup(CIRCLE_BAND)
    v = random_unitary(rng, 3)
    sys_gen = v @ np.diag([-1.0, 0.0, 2.0]) @ dagger(v)
    action = GroupAction(OperatorAlgebra(3, np.eye(9, dtype=complex)), CircleRep(group, sys_gen))
    a = random_complex(rng, 4)
    gram = a @ dagger(a)
    scale = 1.0 / np.sqrt(np.diag(gram).real)
    c = gram * np.outer(scale, scale)
    frame_gen = np.diag(np.arange(4.0)).astype(complex)
    povm = phase_povm(4, c, CirclePartition((0.4, 1.3, 4.1)))
    frame = QuantumReferenceFrame(CircleRep(group, frame_gen), povm)
    return action, frame, sys_gen, frame_gen, c


class TestGroupAction:
    def test_rejects_dimension_mismatch(self):
        g = cyclic_group(2)
        flip = FiniteRep(g, [np.eye(2, dtype=complex), SIGMA_X])
        with pytest.raises(ValueError, match="dimensions differ"):
            GroupAction(OperatorAlgebra(3, np.eye(9, dtype=complex)), flip)

    def test_rejects_non_invariant_algebra(self):
        g = cyclic_group(2)
        hadamard = (SIGMA_X + SIGMA_Z) / np.sqrt(2)
        rot = FiniteRep(g, [np.eye(2, dtype=complex), hadamard])
        diag = algebra_from_matrices([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2)
        with pytest.raises(ValueError, match="does not preserve the algebra"):
            GroupAction(diag, rot)

    def test_rejects_non_invariant_algebra_under_a_circle_rep(self):
        rotation = CircleRep(CircleGroup(1), SIGMA_X)
        diag = algebra_from_matrices([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2)
        with pytest.raises(ValueError, match="does not preserve the algebra"):
            GroupAction(diag, rotation)


def tilted_rows(mats, eps, seed=3):
    """Orthonormal rows of the span of ``mats``, each conjugated by
    exp(i eps H) for a seeded Hermitian H."""
    d = mats[0].shape[0]
    vals, vecs = np.linalg.eigh(random_hermitian(np.random.default_rng(seed), d))
    v = (vecs * np.exp(1j * eps * vals)) @ dagger(vecs)
    return algebra_from_matrices([v @ m @ dagger(v) for m in mats], d).rows


def circle_diagonal_fixture():
    """A circle rep on C^4 of band 3 in a seeded eigenbasis w, and the
    diagonal algebra in that basis, which U(theta) preserves."""
    w = random_unitary(np.random.default_rng(11), 4)
    gen = (w * np.array([-3.0, -1.0, 1.0, 3.0])) @ dagger(w)
    mats = [w @ np.diag(np.eye(4)[k]) @ dagger(w) for k in range(4)]
    return CircleRep(CircleGroup(3), gen), mats, oracle.circle_node_unitaries(gen, 3)


def finite_diagonal_fixture():
    """The S3 regular rep, with two generators, and the diagonal algebra of
    C^6, which its permutation matrices preserve."""
    lam = regular_representation(symmetric_group(3))
    mats = [np.diag(np.eye(6)[k]) for k in range(6)]
    return lam, mats, lam.unitaries


def circle_phase_fixture():
    """span{1, Z} on C^2 under U(theta) = diag(1, e^{i theta}). A tilt
    gives Z an off-diagonal part that U turns by e^{i theta} and
    e^{-i theta}, so the node distance reaches 2 sin(2 pi / 5) ||R|| at the
    node 4 pi / 5: more than ||R||, within pi ||R||."""
    gen = np.diag([0.0, 1.0])
    return (CircleRep(CircleGroup(1), gen), [np.eye(2), SIGMA_Z],
            oracle.circle_node_unitaries(gen, 1))


def finite_phase_fixture():
    """span{1, Z} on C^2 under Z10 as diag(1, w^k): the node distance at
    k = 5 is 1 / sin(pi / 10) ||R_s||, more than ||R_s||, within 9 ||R_s||."""
    phases = [np.diag([1.0, np.exp(2j * np.pi * k / 10)]) for k in range(10)]
    return FiniteRep(cyclic_group(10), phases), [np.eye(2), SIGMA_Z], phases


class TestInvarianceFromGenerators:
    """``GroupAction`` against the per-node oracle: spans tilted by
    exp(i eps H) across the tolerance, exactly invariant spans at a wide
    band, and a generator whose eigenvalues sit off the integers."""

    EPS = np.geomspace(1e-11, 1e-6, 41)

    @pytest.mark.parametrize(
        "fixture",
        [circle_diagonal_fixture, finite_diagonal_fixture, circle_phase_fixture,
         finite_phase_fixture],
        ids=["circle-diagonal", "S3-diagonal", "circle-qubit", "Z10-qubit"],
    )
    def test_verdict_is_the_node_oracle_verdict_on_tilted_spans(self, fixture):
        rep, mats, unitaries = fixture()
        verdicts, straddled = [], False
        for eps in self.EPS:
            rows = tilted_rows(mats, eps)
            distance = oracle.node_invariance_distance(rows, unitaries)
            # the generator bound is never below the distance at a node
            bound = _invariance_bound(rows, dagger(rows), rep)
            assert bound >= distance
            straddled |= distance <= _INVARIANCE_TOL < bound
            try:
                GroupAction(OperatorAlgebra(rep.dim, rows), rep)
                rejected = False
            except ValueError as e:
                assert "does not preserve the algebra" in str(e)
                rejected = True
            assert rejected == (distance > _INVARIANCE_TOL), eps
            verdicts.append(rejected)
        # both sides of the tolerance are reached, and some span between
        # the node distance and the bound is decided node by node
        assert verdicts[0] is False and verdicts[-1] is True
        assert straddled

    @pytest.mark.parametrize("name", ["scalars", "full", "block-diagonal"])
    def test_exactly_invariant_spans_pass_on_the_bound_at_a_wide_band(self, name, monkeypatch):
        # frequencies +-64 under a circle group of band 64; N is constant on
        # each 2 x 2 block of the seeded basis w
        w = random_unitary(np.random.default_rng(5), 6)
        freqs = np.array([-64.0, -64.0, 7.0, 7.0, 64.0, 64.0])
        rep = CircleRep(CircleGroup(64), (w * freqs) @ dagger(w))
        if name == "scalars":
            mats = [np.eye(6)]
        elif name == "full":
            mats = list(np.eye(36).reshape(36, 6, 6))
        else:
            # M_2 + M_2 + M_2 on the three blocks
            mats = [w @ np.kron(np.diag(np.eye(3)[k]), e) @ dagger(w)
                    for k in range(3) for e in np.eye(4).reshape(4, 2, 2)]
        alg = algebra_from_matrices(mats, 6)
        assert _invariance_bound(alg.rows, dagger(alg.rows), rep) <= 1e-10
        assert oracle.node_invariance_distance(alg.rows, oracle.circle_node_unitaries(
            rep.generator, 64)) <= 1e-12
        calls = []
        monkeypatch.setattr(CircleRep, "unitary_stack", lambda self, points: calls.append(points))
        GroupAction(alg, rep)
        assert calls == []

    def test_off_integer_generator_is_judged_by_its_realised_unitaries(self):
        # eigenvalues 1 + 5e-10, 1 - 5e-10 and -5e-10 are realised as 1, 1
        # and 0, so U(theta) is a phase on the first two basis vectors of w
        # and preserves the algebra generated by the flip X between them;
        # the stored generator splits them and moves X by 1e-9
        w = random_unitary(np.random.default_rng(9), 3)
        raw = (w * np.array([1.0 + 5e-10, 1.0 - 5e-10, -5e-10])) @ dagger(w)
        rep = CircleRep(CircleGroup(1), raw)
        flip = np.zeros((3, 3))
        flip[0, 1] = flip[1, 0] = 1.0
        mats = [np.diag([1.0, 1.0, 0.0]), flip, np.diag([0.0, 0.0, 1.0])]
        alg = algebra_from_matrices([w @ m @ dagger(w) for m in mats], 3)
        rows = alg.rows
        basis = rows.reshape(-1, 3, 3)
        moved = (raw @ basis - basis @ raw).reshape(rows.shape)
        raw_bound = np.pi * np.linalg.norm(moved - (moved @ dagger(rows)) @ rows)
        assert raw_bound >= 1e-9
        assert _invariance_bound(rows, dagger(rows), rep) <= 1e-14
        assert oracle.node_invariance_distance(rows, oracle.circle_node_unitaries(raw, 1)) <= 1e-14
        GroupAction(alg, rep)

    def test_full_m17_under_a_129_node_circle_rep_makes_no_node_unitaries(self, monkeypatch):
        w = random_unitary(np.random.default_rng(17), 17)
        rep = CircleRep(CircleGroup(32), (w * np.arange(-32.0, 33.0, 4.0)) @ dagger(w))
        assert rep.group.quadrature_nodes().size == 129
        calls = []
        monkeypatch.setattr(CircleRep, "unitary_stack", lambda self, points: calls.append(points))
        GroupAction(OperatorAlgebra(17, np.eye(17 * 17, dtype=complex)), rep)
        assert calls == []

    def test_an_invariant_span_under_a_finite_group_reads_the_generators_only(self, monkeypatch):
        lam, mats, _ = finite_diagonal_fixture()
        gens = lam.group.generators()
        assert len(gens) == 2
        calls = []
        stack = FiniteRep.unitary_stack

        def spy(self, points):
            calls.append(list(points))
            return stack(self, points)

        monkeypatch.setattr(FiniteRep, "unitary_stack", spy)
        GroupAction(algebra_from_matrices(mats, 6), lam)
        assert calls == [gens]


class TestRelativize:
    def test_sharp_qubit_oracle(self):
        out = relativize(SIGMA_Z, qubit_action(), sharp_frame())
        assert np.allclose(out, np.kron(SIGMA_Z, SIGMA_Z), atol=1e-12)

    def test_unsharp_qubit_oracle(self):
        out = relativize(SIGMA_Z, qubit_action(), unsharp_frame())
        assert np.allclose(out, np.kron(SIGMA_Z, np.diag([0.5, -0.5])), atol=1e-12)

    def test_output_is_invariant_under_the_joint_rep(self):
        action = qubit_action()
        frame = sharp_frame()
        joint = tensor_rep(action.rep, frame.rep)
        for x in (SIGMA_X, SIGMA_Z, SIGMA_X @ SIGMA_Z):
            y = relativize(x, action, frame)
            for u in joint.unitaries:
                assert op_norm(u @ y @ dagger(u) - y) <= 1e-9

    def test_linearity(self, rng):
        action, frame = qubit_action(), unsharp_frame()
        a, b = random_complex(rng, 2), random_complex(rng, 2)
        lhs = relativize(a + 2.0 * b, action, frame)
        rhs = relativize(a, action, frame) + 2.0 * relativize(b, action, frame)
        assert np.allclose(lhs, rhs, atol=1e-11)

    def test_sharp_frames_preserve_products(self, rng):
        action, frame = qubit_action(), sharp_frame()
        for _ in range(10):
            a, b = random_complex(rng, 2), random_complex(rng, 2)
            defect = op_norm(
                relativize(a @ b, action, frame)
                - relativize(a, action, frame) @ relativize(b, action, frame))
            assert defect <= 1e-10

    def test_unsharp_frames_do_not(self):
        action, frame = qubit_action(), unsharp_frame()
        defect = op_norm(
            relativize(SIGMA_Z @ SIGMA_Z, action, frame)
            - relativize(SIGMA_Z, action, frame) @ relativize(SIGMA_Z, action, frame))
        assert defect == pytest.approx(0.75, abs=1e-12)
        assert defect >= 0.1

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="does not match the system"):
            relativize(np.eye(3), qubit_action(), sharp_frame())

    def test_membership_guard(self):
        g = cyclic_group(2)
        flip = FiniteRep(g, [np.eye(2, dtype=complex), SIGMA_X])
        diag = algebra_from_matrices([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2)
        action = GroupAction(diag, flip)
        with pytest.raises(ValueError, match="outside the system algebra"):
            relativize(SIGMA_X + 0.5 * SIGMA_Z, action, sharp_frame())

    def test_stabiliser_guard_on_coset_frames(self):
        _, lam, action, frame, cycles = coset_fixture()
        with pytest.raises(ValueError, match="stabiliser-invariant"):
            relativize(lam.unitaries[cycles[0]], action, frame)

    def test_stabiliser_invariant_input_passes(self):
        g, lam, action, frame, cycles = coset_fixture()
        x = lam.unitaries[cycles[0]] + lam.unitaries[cycles[1]]
        y = relativize(x, action, frame)
        joint = tensor_rep(action.rep, frame.rep)
        for u in joint.unitaries:
            assert op_norm(u @ y @ dagger(u) - y) <= 1e-9


class TestSpanStructure:
    def test_sharp_relativisation_lands_in_the_invariant_product(self):
        action, frame = qubit_action(), sharp_frame()
        joint = tensor_rep(action.rep, frame.rep)
        effect_alg = generate_algebra(frame.povm.effects, 2)
        product_rows = algebra_from_matrices(
            [np.kron(a, b)
             for a in action.algebra.basis_matrices()
             for b in effect_alg.basis_matrices()], 4)
        images = []
        for b in action.algebra.basis_matrices():
            y = relativize(b, action, frame)
            for u in joint.unitaries:
                assert op_norm(u @ y @ dagger(u) - y) <= 1e-8
            assert product_rows.distance(y) <= 1e-7
            images.append(y.reshape(-1))
        assert np.linalg.matrix_rank(np.array(images), tol=1e-8) == 4


class TestExpectations:
    @pytest.mark.parametrize("frame_builder", [sharp_frame, unsharp_frame])
    def test_dual_routes_agree_on_random_triples(self, rng, frame_builder):
        action, frame = qubit_action(), frame_builder()
        for _ in range(100):
            x = random_complex(rng, 2)
            omega_s = random_density(rng, 2)
            omega_r = random_density(rng, 2)
            # raises RuntimeError if the two evaluation routes disagree
            expected_relative_outcome(x, action, frame, omega_s, omega_r, tol=1e-9)

    def test_peaked_frame_reproduces_the_bare_expectation(self):
        action, frame = qubit_action(), sharp_frame()
        omega_s = np.diag([0.3, 0.7]).astype(complex)
        peaked = np.diag([1.0, 0.0]).astype(complex)
        got = expected_relative_outcome(SIGMA_Z, action, frame, omega_s, peaked)
        assert got == pytest.approx(np.trace(omega_s @ SIGMA_Z), abs=1e-12)

    def test_restrict_factorises_tensors(self, rng):
        a, b = random_complex(rng, 2), random_complex(rng, 2)
        sigma = random_density(rng, 2)
        out = restrict(np.kron(a, b), sigma, (2, 2))
        assert np.allclose(out, a * np.trace(b @ sigma), atol=1e-12)

    def test_restrict_dimension_guard(self):
        with pytest.raises(ValueError, match="frame state dimension"):
            restrict(np.eye(4), np.eye(3) / 3, (2, 2))


class TestLocalization:
    def test_peaked_state_localizes(self):
        action, frame = qubit_action(), sharp_frame()
        sigma = np.diag([1.0, 0.0]).astype(complex)
        assert localization_defect(SIGMA_Z, action, frame, sigma) <= 1e-12

    def test_maximally_mixed_state_does_not(self):
        action, frame = qubit_action(), sharp_frame()
        sigma = np.eye(2, dtype=complex) / 2
        assert localization_defect(SIGMA_Z, action, frame, sigma) == pytest.approx(1.0, abs=1e-12)

    def test_unsharp_frame_localizes_halfway(self):
        action, frame = qubit_action(), unsharp_frame()
        sigma = np.diag([1.0, 0.0]).astype(complex)
        assert localization_defect(SIGMA_Z, action, frame, sigma) == pytest.approx(0.5, abs=1e-12)


class TestFrameAssignment:
    def test_table_is_equivariant(self):
        g, lam, action, frame, cycles = coset_fixture()
        anchor = lam.unitaries[cycles[0]] + lam.unitaries[cycles[1]]
        assignment = FrameAssignment(action, frame, {"spin": anchor})
        assert assignment.labels == ["spin"]
        assert assignment.equivariance_defect() <= 1e-9
        assert np.allclose(assignment.observable("spin", 0), anchor)

    def test_relativized_matches_direct_call(self):
        g, lam, action, frame, cycles = coset_fixture()
        anchor = lam.unitaries[cycles[0]] + lam.unitaries[cycles[1]]
        assignment = FrameAssignment(action, frame, {"spin": anchor})
        direct = relativize(anchor, action, frame)
        assert np.allclose(assignment.relativized("spin"), direct, atol=1e-12)

    def test_rejects_non_invariant_anchor(self):
        g, lam, action, frame, cycles = coset_fixture()
        with pytest.raises(ValueError, match="not stabiliser-invariant"):
            FrameAssignment(action, frame, {"bad": lam.unitaries[cycles[0]]})

    def test_stabiliser_tolerance_scales_with_the_anchor(self, rng):
        # an exactly invariant anchor of norm ~1e7 in a rotated basis: its
        # rounding error is above the bare tolerance and below the scaled one,
        # and the assignment must accept it as relativize does
        g, _, action, frame, cycles = rotated_coset_fixture(rng)
        anchor = 1e7 * (action.rep.unitaries[cycles[0]] + action.rep.unitaries[cycles[1]])
        assert _stabiliser_defect(anchor, action, frame) > 1e-8
        direct = relativize(anchor, action, frame)
        assignment = FrameAssignment(action, frame, {"big": anchor})
        assert np.allclose(assignment.relativized("big"), direct, atol=1e-12 * op_norm(direct))


def rotated_coset_fixture(rng):
    """``coset_fixture`` with the system rep conjugated by a random unitary,
    so that invariance holds only up to rounding."""
    g, lam, _, frame, cycles = coset_fixture()
    w = random_unitary(rng, 6)
    rep = FiniteRep(g, [w @ u @ dagger(w) for u in lam.unitaries])
    return g, lam, GroupAction(generate_algebra(rep.unitaries, 6), rep), frame, cycles


def stabiliser_average(a, action, subgroup):
    us = [action.rep.unitaries[h] for h in subgroup]
    return sum(u @ a @ dagger(u) for u in us) / len(us)


class TestGroupAverage:
    """On a coset frame with stabiliser H, relativisation of an H-invariant
    x is the group average of x (x) E_eH scaled by |G| / |H|:
    relativize(x) = (|G| / |H|) (1 / |G|) sum_g Ad(U_S(g) (x) U_R(g))(x (x) E_eH)."""

    @pytest.mark.parametrize("fixture", ["cosets", "rotated-cosets"])
    def test_coset_frame_constant_is_the_index(self, rng, fixture):
        if fixture == "cosets":
            g, _, action, frame, _ = coset_fixture()
        else:
            g, _, action, frame, _ = rotated_coset_fixture(rng)
        space = frame.povm.space
        assert (g.order, len(space.subgroup)) == (6, 2)
        a = sum(z * u for z, u in zip(random_complex(rng, 1, g.order)[0], action.rep.unitaries))
        x = stabiliser_average(a, action, space.subgroup)
        e_id = frame.povm.effects[space.coset_index[g.identity]]
        seed = np.kron(x, e_id)
        total = 0.0
        for u_s, u_r in zip(action.rep.unitaries, frame.rep.unitaries):
            u = np.kron(u_s, u_r)
            total = total + u @ seed @ dagger(u)
        want = (g.order / len(space.subgroup)) * total / g.order
        got = relativize(x, action, frame)
        assert op_norm(got - want) <= 1e-12 * op_norm(want)


class TestAgainstPerPointLoops:
    """The stacked stabiliser and assignment checks against one group point
    and one cell at a time."""

    @pytest.mark.parametrize("fixture", ["cosets", "rotated-cosets", "ideal"])
    def test_stabiliser_and_equivariance_defects(self, rng, fixture):
        if fixture == "ideal":
            lam = regular_representation(symmetric_group(3))
            action = GroupAction(generate_algebra(lam.unitaries, 6), lam)
            frame = ideal_frame(lam)
        elif fixture == "cosets":
            _, _, action, frame, _ = coset_fixture()
        else:
            _, _, action, frame, _ = rotated_coset_fixture(rng)
        rep, space = action.rep, frame.povm.space
        _, cell_action = frame_oracle.coset_action(rep.group.table, space.subgroup)
        mats = [sum(z * u for z, u in zip(random_complex(rng, 1, 6)[0], rep.unitaries))
                for _ in range(3)]
        for x in mats:
            want = frame_oracle.stabiliser_defect(rep.unitaries, space.subgroup, x)
            assert abs(_stabiliser_defect(x, action, frame) - want) <= 1e-12
        anchors = [stabiliser_average(x, action, space.subgroup) for x in mats]
        assignment = FrameAssignment(action, frame, {f"a{i}": a for i, a in enumerate(anchors)})
        want = frame_oracle.assignment_equivariance_defect(
            rep.unitaries, anchors, space.representatives, cell_action
        )
        assert abs(assignment.equivariance_defect() - want) <= 1e-12
        assert want <= 1e-12

    def test_circle_frames_have_a_trivial_stabiliser(self, rng):
        action, frame, *_ = circle_fixture(rng)
        assert _stabiliser_defect(random_complex(rng, 3), action, frame) == 0.0


class TestCircleFrames:
    def test_relativize_matches_the_quadrature_oracle(self, rng):
        action, frame, sys_gen, frame_gen, c = circle_fixture(rng)
        for _ in range(5):
            x = random_complex(rng, 3)
            got = relativize(x, action, frame)
            want = oracle.circle_node_relativize(x, sys_gen, frame_gen, c, CIRCLE_BAND)
            assert op_norm(got - want) <= 1e-12 * max(1.0, op_norm(want))

    def test_relativize_sends_the_identity_to_the_identity(self, rng):
        action, frame, *_ = circle_fixture(rng)
        assert np.allclose(relativize(np.eye(3), action, frame), np.eye(12), atol=1e-12)

    def test_expected_outcome_matches_the_oracle(self, rng):
        action, frame, sys_gen, frame_gen, c = circle_fixture(rng)
        for _ in range(5):
            x = random_complex(rng, 3)
            omega_s, omega_r = random_density(rng, 3), random_density(rng, 4)
            joint = oracle.circle_node_relativize(x, sys_gen, frame_gen, c, CIRCLE_BAND)
            want = np.trace(np.kron(omega_s, omega_r) @ joint)
            # raises RuntimeError if the joint and outcome-weighted routes disagree
            got = expected_relative_outcome(x, action, frame, omega_s, omega_r)
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))

    def test_localization_defect_matches_the_oracle(self, rng):
        action, frame, sys_gen, frame_gen, c = circle_fixture(rng)
        x = random_complex(rng, 3)
        sigma = random_density(rng, 4)
        joint = oracle.circle_node_relativize(x, sys_gen, frame_gen, c, CIRCLE_BAND)
        back = restrict(joint, sigma, (3, 4))
        want = op_norm(back - x)
        assert want >= 0.1
        got = localization_defect(x, action, frame, sigma)
        assert got == pytest.approx(want, abs=1e-12 * max(1.0, want))


def random_phase_density(rng, d):
    """A Gram matrix of unit vectors: positive with unit diagonal."""
    vecs = random_complex(rng, d)
    vecs /= np.linalg.norm(vecs, axis=0)
    return dagger(vecs) @ vecs


def thermal_frame_case(rng):
    """The largest relativise shape of the thermal-frames benchmark: M_10
    under a random circle generator with frequencies in [-12, 12], observed
    through a 24-level phase frame with frame frequencies 0..23, all under
    the band limit B = 23, on a random four-arc partition."""
    d_s, d_r = 10, 24
    group = CircleGroup(d_r - 1)
    w = random_unitary(rng, d_s)
    sys_gen = (w * rng.integers(-(d_r // 2), d_r // 2 + 1, d_s)) @ dagger(w)
    frame_gen = np.diag(np.arange(d_r)).astype(complex)
    c = random_phase_density(rng, d_r)
    partition = CirclePartition(tuple(np.sort(rng.uniform(0.0, 2.0 * np.pi, 4))))
    frame = QuantumReferenceFrame(CircleRep(group, frame_gen), phase_povm(d_r, c, partition))
    full = OperatorAlgebra(d_s, np.eye(d_s * d_s, dtype=complex))
    return GroupAction(full, CircleRep(group, sys_gen)), frame, sys_gen, frame_gen, c


def degenerate_case(rng):
    """M_6 under a circle generator with eigenvalues -2, -2, 1, 1, 1, 3,
    whose cached eigenvectors are mixed by a random unitary inside each
    eigenspace after validation, so they are not the ones ``eigh`` returns;
    observed through a five-level phase frame whose frequencies 0, 0, 1, 3,
    3 repeat too, under the band limit 3."""
    group = CircleGroup(3)
    w = random_unitary(rng, 6)
    sys_gen = (w * np.array([-2.0, -2.0, 1.0, 1.0, 1.0, 3.0])) @ dagger(w)
    rep = CircleRep(group, sys_gen)
    mix = np.zeros((6, 6), dtype=complex)
    for lo, hi in ((0, 2), (2, 5), (5, 6)):
        assert np.all(rep.freqs[lo:hi] == rep.freqs[lo])
        mix[lo:hi, lo:hi] = random_unitary(rng, hi - lo)
    rep.vecs = rep.vecs @ mix
    frame_gen = np.diag([0.0, 0.0, 1.0, 3.0, 3.0]).astype(complex)
    c = random_phase_density(rng, 5)
    frame = QuantumReferenceFrame(
        CircleRep(group, frame_gen), phase_povm(5, c, CirclePartition((0.3, 2.0, 5.1))))
    return GroupAction(OperatorAlgebra(6, np.eye(36, dtype=complex)), rep), frame, sys_gen, frame_gen, c


def off_integer_case(rng):
    """M_5 under a circle generator whose eigenvalues -3, -1, 0, 2, 3 are
    each moved off the integers by up to 1e-9, observed through a six-level
    phase frame whose diagonal generator 0..5 is moved likewise, under the
    band limit 5; both reps realise the rounded frequencies."""
    group = CircleGroup(5)
    w = random_unitary(rng, 5)
    nudge = lambda k: rng.uniform(-9e-10, 9e-10, k)  # noqa: E731
    sys_gen = (w * (np.array([-3.0, -1.0, 0.0, 2.0, 3.0]) + nudge(5))) @ dagger(w)
    frame_gen = np.diag(np.arange(6.0) + nudge(6)).astype(complex)
    c = random_phase_density(rng, 6)
    frame = QuantumReferenceFrame(
        CircleRep(group, frame_gen), phase_povm(6, c, CirclePartition((1.0, 2.5, 4.0))))
    full = OperatorAlgebra(5, np.eye(25, dtype=complex))
    return GroupAction(full, CircleRep(group, sys_gen)), frame, sys_gen, frame_gen, c


CIRCLE_CASES = {
    "circle": circle_fixture,
    "thermal-10x24": thermal_frame_case,
    "degenerate": degenerate_case,
    "off-integer": off_integer_case,
}


def oracle_case(name, rng):
    """(action, frame, x, oracle joint operator, oracle expectation) for one
    of the frames the relativisation is pinned on."""
    if name == "coset":
        g, lam, action, frame, _ = coset_fixture()
        # a random element of the translation algebra, averaged over the
        # stabiliser so that relativisation accepts it
        a = sum(z * lam.unitaries[k] for k, z in enumerate(random_complex(rng, 1, g.order)[0]))
        x = stabiliser_average(a, action, frame.povm.space.subgroup)
        us = [lam.unitaries[r] for r in frame.povm.space.representatives]
        effects = frame.povm.effects
        return (
            action, frame, x, oracle.finite_relativize(x, us, effects),
            lambda om_s, om_r: oracle.finite_expectation(x, us, effects, om_s, om_r),
        )
    action, frame, sys_gen, frame_gen, c = CIRCLE_CASES[name](rng)
    x = random_complex(rng, action.rep.dim)
    return (
        action, frame, x, oracle.circle_relativize(x, sys_gen, frame_gen, c),
        lambda om_s, om_r: oracle.circle_expectation(x, sys_gen, frame_gen, c, om_s, om_r),
    )


ORACLE_CASES = [*CIRCLE_CASES, "coset"]


class TestOneQuadraturePath:
    """relativize, expected_relative_outcome and localization_defect against
    the test-side mode contraction, node sum and Kronecker sum.

    On a circle frame ``relativize`` is the charge pinching and the
    outcome-weighted route of ``expected_relative_outcome`` the 4B + 1 node
    sum, so the latter's residual already compares two independent routes;
    on a finite frame both routes share ``_orbit_and_effects``, and only the
    Kronecker-sum oracle here checks the orbit and effects."""

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_relativize_matches_the_oracle(self, rng, name):
        action, frame, x, want, _ = oracle_case(name, rng)
        got = relativize(x, action, frame)
        assert op_norm(got - want) <= 1e-12 * op_norm(want)

    @pytest.mark.parametrize("name", CIRCLE_CASES)
    def test_relativize_matches_the_node_sum(self, rng, name):
        action, frame, sys_gen, frame_gen, c = CIRCLE_CASES[name](rng)
        bandwidth = frame.rep.group.bandwidth
        for _ in range(3):
            x = random_complex(rng, action.rep.dim)
            want = oracle.circle_node_relativize(x, sys_gen, frame_gen, c, bandwidth)
            modes = oracle.circle_relativize(x, sys_gen, frame_gen, c)
            got = relativize(x, action, frame)
            assert op_norm(got - want) <= 1e-12 * op_norm(want)
            assert op_norm(got - modes) <= 1e-12 * op_norm(modes)

    @pytest.mark.parametrize("name", CIRCLE_CASES)
    def test_circle_relativisation_forms_no_node_stack(self, rng, name, monkeypatch):
        action, frame, *_ = CIRCLE_CASES[name](rng)
        x = random_complex(rng, action.rep.dim)
        sigma = random_density(rng, frame.rep.dim)
        calls = []
        stack = CircleRep.unitary_stack

        def spy(self, points):
            calls.append(points)
            return stack(self, points)

        monkeypatch.setattr(CircleRep, "unitary_stack", spy)
        relativize(x, action, frame)
        localization_defect(x, action, frame, sigma)
        assert calls == []

    def test_a_dropped_charge_mode_fails_the_expectation_cross_check(self, rng, monkeypatch):
        # the weighted node sum does not go through the pinching, so a
        # pinching without its zero mode disagrees with it
        action, frame, x, _, _ = oracle_case("circle", rng)
        omega_s = random_density(rng, action.rep.dim)
        omega_r = random_density(rng, frame.rep.dim)
        expected_relative_outcome(x, action, frame, omega_s, omega_r)
        modes = relativise._charge_modes

        def drop_zero_mode(x, rep, deltas):
            out = modes(x, rep, deltas)
            out[deltas == 0] = 0.0
            return out

        monkeypatch.setattr(relativise, "_charge_modes", drop_zero_mode)
        with pytest.raises(RuntimeError, match="expectations disagree"):
            expected_relative_outcome(x, action, frame, omega_s, omega_r)

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_expected_outcome_matches_the_oracle(self, rng, name):
        action, frame, x, _, expectation = oracle_case(name, rng)
        omega_s = random_density(rng, action.rep.dim)
        omega_r = random_density(rng, frame.rep.dim)
        want = expectation(omega_s, omega_r)
        got = expected_relative_outcome(x, action, frame, omega_s, omega_r)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_localization_defect_matches_the_oracle(self, rng, name):
        action, frame, x, joint, _ = oracle_case(name, rng)
        d_s, d_r = action.rep.dim, frame.rep.dim
        sigma = random_density(rng, d_r)
        want = op_norm(oracle.restrict(joint, sigma, d_s, d_r) - x)
        assert want >= 0.1
        got = localization_defect(x, action, frame, sigma)
        assert abs(got - want) <= 1e-12 * want

    def test_restrict_matches_the_kronecker_route(self, rng):
        joint = random_complex(rng, 12)
        sigma = random_density(rng, 4)
        want = oracle.restrict(joint, sigma, 3, 4)
        assert op_norm(restrict(joint, sigma, (3, 4)) - want) <= 1e-12 * op_norm(want)

    def test_restrict_rejects_a_joint_of_the_wrong_size(self):
        with pytest.raises(ValueError, match="incompatible factor dimensions"):
            restrict(np.eye(6), np.eye(2) / 2, (2, 2))

    def test_circle_frame_without_its_c_matrix_is_rejected(self, rng):
        action, frame, *_ = circle_fixture(rng)
        bare = QuantumReferenceFrame(frame.rep, Povm(frame.povm.space, frame.povm.effects))
        with pytest.raises(ValueError, match="needs a phase POVM with its c matrix"):
            relativize(random_hermitian(rng, 3), action, bare)

    def test_non_diagonal_frame_generator_is_rejected(self, rng):
        action, frame, _, frame_gen, _ = circle_fixture(rng)
        v = random_unitary(rng, 4)
        turned = CircleRep(frame.rep.group, v @ frame_gen @ dagger(v))
        with pytest.raises(ValueError, match="generator must be diagonal in the POVM basis"):
            relativize(random_hermitian(rng, 3), action, QuantumReferenceFrame(turned, frame.povm))
