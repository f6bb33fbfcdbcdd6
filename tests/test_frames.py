import math
import tracemalloc

import numpy as np
import pytest

from qrflab import frames
from qrflab.frames import (
    CirclePartition,
    Dilation,
    MarkovKernel,
    PlainCells,
    Povm,
    QuantumReferenceFrame,
    check_norm1,
    covariant_dilate,
    ideal_frame,
    is_sharp,
    naimark_dilate,
    phase_povm,
    smear,
)
from qrflab.opcore import dagger, op_norm, psd_sqrt
from qrflab.vnalg import generate_algebra
from qrflab.symmetry import (
    CircleGroup,
    CircleRep,
    FiniteRep,
    HomogeneousSpace,
    cyclic_group,
    dihedral_group,
    regular_representation,
    symmetric_group,
    trivial_rep,
)

import _frame_oracles as oracle
from _factories import random_complex


def principal_cells(group):
    return HomogeneousSpace(group, (group.identity,))


def unsharp_qubit_frame(p: float = 0.75) -> QuantumReferenceFrame:
    g = cyclic_group(2)
    rep = regular_representation(g)
    effects = [np.diag([p, 1 - p]).astype(complex), np.diag([1 - p, p]).astype(complex)]
    return QuantumReferenceFrame(rep, Povm(principal_cells(g), effects))


def random_povm(rng, d: int, n: int) -> Povm:
    raw = [random_complex(rng, d) for _ in range(n)]
    pieces = [a @ dagger(a) + 0.1 * np.eye(d) for a in raw]
    total = sum(pieces)
    shrink = np.linalg.inv(psd_sqrt(total))
    effects = [(shrink @ a @ shrink + dagger(shrink @ a @ shrink)) / 2 for a in pieces]
    return Povm(PlainCells(n), effects)


class TestPovmValidation:
    def test_empty_outcome_set(self):
        with pytest.raises(ValueError, match="non-empty"):
            PlainCells(0)

    def test_effect_count_mismatch(self):
        with pytest.raises(ValueError, match="does not match the outcome set"):
            Povm(PlainCells(3), [np.eye(2) / 2, np.eye(2) / 2])

    def test_effects_must_share_dimension(self):
        with pytest.raises(ValueError, match="differ in dimension"):
            Povm(PlainCells(2), [np.eye(2) / 2, np.eye(3) / 2])

    def test_effects_must_be_hermitian(self):
        skew = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            Povm(PlainCells(2), [skew, np.eye(2) - skew])

    def test_effects_must_be_contractive(self):
        with pytest.raises(ValueError, match="lie in \\[0, 1\\]"):
            Povm(PlainCells(2), [2.0 * np.eye(2), -1.0 * np.eye(2)])

    def test_effects_must_resolve_identity(self):
        with pytest.raises(ValueError, match="do not sum to the identity"):
            Povm(PlainCells(2), [np.eye(2) / 2, np.eye(2) / 4])


class TestCirclePartition:
    def test_needs_boundaries(self):
        with pytest.raises(ValueError, match="at least one boundary"):
            CirclePartition([])

    def test_boundaries_inside_the_circle(self):
        with pytest.raises(ValueError, match="lie in \\[0, 2pi\\)"):
            CirclePartition([0.0, 7.0])

    def test_boundaries_strictly_ascending(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            CirclePartition([1.0, 1.0])

    def test_cell_count_matches_boundaries(self):
        part = CirclePartition([0.0, math.pi / 2, math.pi])
        assert part.size == 3

    def test_even_partition_is_permuted_by_its_rotations(self):
        angles, targets = CirclePartition(
            (0.5, 0.5 + 2 * math.pi / 3, 0.5 + 4 * math.pi / 3)
        ).cell_permutations()
        assert targets.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        assert angles == pytest.approx([0.0, 2 * math.pi / 3, 4 * math.pi / 3])

    def test_uneven_partition_keeps_only_the_identity(self):
        angles, targets = CirclePartition((0.4, 1.3, 4.1)).cell_permutations()
        assert angles.tolist() == [0.0]
        assert targets.tolist() == [[0, 1, 2]]



class TestMarkovKernel:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError, match="rows must sum to one"):
            MarkovKernel(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_entries_must_be_probabilities(self):
        with pytest.raises(ValueError, match="entries must lie"):
            MarkovKernel(np.array([[1.5, -0.5], [0.0, 1.0]]))

    def test_needs_a_matrix(self):
        with pytest.raises(ValueError, match="must be a matrix"):
            MarkovKernel(np.ones(3))


class TestSmearing:
    def test_identity_kernel_is_a_no_op(self):
        povm = unsharp_qubit_frame().povm
        out = smear(povm, MarkovKernel(np.eye(2)))
        for a, b in zip(out.effects, povm.effects):
            assert np.allclose(a, b)

    def test_kernel_size_must_match(self):
        povm = unsharp_qubit_frame().povm
        with pytest.raises(ValueError, match="input count does not match"):
            smear(povm, MarkovKernel(np.eye(3)))

    def test_random_kernels_preserve_povm_validity(self, rng):
        # Povm.__init__ re-validates, so constructing the smeared POVM is
        # itself the assertion; 100 draws cover a wide kernel range.
        for _ in range(100):
            n, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            povm = random_povm(rng, d, n)
            rows = rng.uniform(0.0, 1.0, (n, n)) + 1e-3
            rows /= rows.sum(axis=1, keepdims=True)
            out = smear(povm, MarkovKernel(rows))
            assert out.n_outcomes == n
            assert np.allclose(sum(out.effects), np.eye(d), atol=1e-9)

    def test_blur_averages_the_scores(self):
        frame = unsharp_qubit_frame()
        blurred = smear(frame.povm, MarkovKernel(np.array([[0.9, 0.1], [0.1, 0.9]])))
        assert check_norm1(blurred) == pytest.approx([0.7, 0.7], abs=1e-12)


class TestPhasePovm:
    def make(self):
        return phase_povm(2, np.ones((2, 2)), CirclePartition([0.0, math.pi]))

    def test_effects_resolve_identity(self):
        povm = self.make()
        assert np.allclose(sum(povm.effects), np.eye(2), atol=1e-12)

    def test_half_circle_overlap_is_minus_i_over_pi(self):
        povm = self.make()
        assert povm.effects[0][0, 0] == pytest.approx(0.5, abs=1e-12)
        assert povm.effects[0][0, 1] == pytest.approx(-1j / math.pi, abs=1e-12)

    def test_top_score_is_half_plus_one_over_pi(self):
        scores = check_norm1(self.make())
        assert scores[0] == pytest.approx(0.5 + 1.0 / math.pi, abs=1e-9)

    def test_c_matrix_needs_unit_diagonal(self):
        with pytest.raises(ValueError, match="unit diagonal"):
            phase_povm(2, 2.0 * np.ones((2, 2)), CirclePartition([0.0, math.pi]))

    def test_c_matrix_must_be_psd(self):
        c = np.array([[1.0, 3.0], [3.0, 1.0]])
        with pytest.raises(ValueError, match="positive semidefinite"):
            phase_povm(2, c, CirclePartition([0.0, math.pi]))

    def test_c_matrix_shape_guard(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            phase_povm(3, np.ones((2, 2)), CirclePartition([0.0, math.pi]))


class TestAgainstEntryLoops:
    """``phase_povm`` and ``smear`` against their entry-by-entry definitions,
    bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 5, 12])
    @pytest.mark.parametrize(
        "bounds",
        [(0.0,), (0.0, math.pi), (0.3, 1.0, 4.0), tuple(2.0 * math.pi * np.arange(7) / 7)],
        ids=["whole", "halves", "uneven", "sevenths"],
    )
    def test_phase_povm(self, rng, dim, bounds):
        a = random_complex(rng, dim)
        gram = a @ dagger(a)
        scale = 1.0 / np.sqrt(np.diag(gram).real)
        c = scale[:, None] * gram * scale[None, :]
        partition = CirclePartition(bounds)
        got = phase_povm(dim, c, partition).effects
        assert np.array_equal(got, oracle.phase_effects(c, partition.arcs()))

    @pytest.mark.parametrize("d, n, m", [(1, 2, 3), (2, 3, 2), (3, 4, 4), (4, 5, 3)])
    def test_smear(self, rng, d, n, m):
        povm = random_povm(rng, d, n)
        kernel = rng.uniform(0.0, 1.0, (n, m))
        kernel /= kernel.sum(axis=1, keepdims=True)
        got = smear(povm, MarkovKernel(kernel)).effects
        assert np.array_equal(got, oracle.smeared_effects(povm.effects, kernel))


@pytest.mark.parametrize("family", ["rep", "povm", "dilation", "algebra"])
def test_operator_families_are_complex_stacks(family):
    # Each family is held as one (k, d, d) complex array, however it was given.
    g = symmetric_group(3)
    frame = ideal_frame(regular_representation(g))
    build = {
        "rep": lambda: FiniteRep(g, [u.real for u in frame.rep.unitaries]).unitaries,
        "povm": lambda: Povm(frame.povm.space, [e.real for e in frame.povm.effects]).effects,
        "dilation": lambda: naimark_dilate(frame.povm).pulled_back_effects(),
        "algebra": lambda: generate_algebra(frame.rep.unitaries, 6).basis_matrices(),
    }
    stack = build[family]()
    assert isinstance(stack, np.ndarray)
    assert stack.dtype == complex
    assert stack.shape == (6, 6, 6)


class TestSharpness:
    def test_projective_povm_is_sharp(self):
        povm = ideal_frame(regular_representation(cyclic_group(2))).povm
        assert is_sharp(povm)

    def test_unsharp_effects_are_detected(self):
        assert not is_sharp(unsharp_qubit_frame().povm)

    def test_norm1_handles_zero_effects(self):
        povm = Povm(PlainCells(2), [np.eye(2), np.zeros((2, 2))])
        assert check_norm1(povm) == [1.0, 0.0]


class TestFrames:
    def test_ideal_frame_is_sharp_principal_covariant(self):
        frame = ideal_frame(regular_representation(symmetric_group(3)))
        assert is_sharp(frame.povm)
        assert frame.is_principal
        assert frame.is_complete()
        assert frame.covariance_defect() < 1e-12

    def test_ideal_frame_rejects_other_reps(self):
        g = cyclic_group(3)
        omega = np.exp(2j * np.pi / 3)
        phases = FiniteRep(g, [np.diag([1.0, omega**k]) for k in range(3)])
        with pytest.raises(ValueError, match="left regular"):
            ideal_frame(phases)

    def test_unsharp_frame_stays_covariant(self):
        frame = unsharp_qubit_frame()
        assert frame.covariance_defect() < 1e-12
        assert not is_sharp(frame.povm)

    def test_covariance_breaks_under_the_wrong_rep(self):
        g = cyclic_group(2)
        effects = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        frame = QuantumReferenceFrame(trivial_rep(g, 2), Povm(principal_cells(g), effects))
        assert frame.covariance_defect() >= 0.1

    def test_coset_cells_list_every_element_with_its_action(self):
        g = symmetric_group(3)
        cells = HomogeneousSpace(g, (g.identity, 1))
        points, targets = cells.cell_permutations()
        assert points.tolist() == list(range(g.order))
        assert targets.shape == (g.order, cells.size)
        assert np.array_equal(targets, cells.action)

    def test_phase_frame_is_covariant_under_the_number_rep(self):
        povm = phase_povm(2, np.ones((2, 2)), CirclePartition([0.0, math.pi]))
        frame = QuantumReferenceFrame(CircleRep(CircleGroup(2), np.diag([0.0, 1.0])), povm)
        assert frame.covariance_defect() < 1e-12

    def test_phase_frame_covariance_breaks_under_a_doubled_generator(self):
        # U(pi) = 1 for the generator diag(0, 2), so the half turn fixes
        # each effect instead of swapping them.
        povm = phase_povm(2, np.ones((2, 2)), CirclePartition([0.0, math.pi]))
        frame = QuantumReferenceFrame(CircleRep(CircleGroup(2), np.diag([0.0, 2.0])), povm)
        assert frame.covariance_defect() >= 0.1

    def test_dimensions_must_agree(self):
        g = cyclic_group(2)
        effects = [np.eye(3) / 2] * 2
        with pytest.raises(ValueError, match="dimensions differ"):
            QuantumReferenceFrame(regular_representation(g), Povm(principal_cells(g), [e.astype(complex) for e in effects]))

    def test_finite_frame_needs_coset_cells(self):
        g = cyclic_group(2)
        effects = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        with pytest.raises(ValueError, match="coset cells"):
            QuantumReferenceFrame(regular_representation(g), Povm(PlainCells(2), effects))


def coset_frame(group, subgroup, p: float = 1.0) -> QuantumReferenceFrame:
    """The regular representation with effects p P_s + (1 - p) / k on the k
    cosets s, P_s the projection onto the members of s: sharp at p = 1."""
    space = HomogeneousSpace(group, tuple(subgroup))
    n, k = group.order, space.size
    effects = []
    for coset in space.cosets:
        proj = np.zeros((n, n), dtype=complex)
        proj[list(coset), list(coset)] = 1.0
        effects.append(p * proj + (1.0 - p) / k * np.eye(n))
    return QuantumReferenceFrame(regular_representation(group), Povm(space, effects))


def phase_frame(generator, boundaries) -> QuantumReferenceFrame:
    d = len(generator)
    c = np.full((d, d), 0.5) + 0.5 * np.eye(d)
    povm = phase_povm(d, c, CirclePartition(boundaries))
    return QuantumReferenceFrame(CircleRep(CircleGroup(2), np.diag(generator)), povm)


def _s3_pair(g):
    return (g.identity, next(a for a in range(1, 6) if g.table[a, a] == g.identity))


def _non_covariant_frame():
    g = cyclic_group(2)
    effects = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    return QuantumReferenceFrame(trivial_rep(g, 2), Povm(principal_cells(g), effects))


S3, S4 = symmetric_group(3), symmetric_group(4)
# name: (builder, whether only the identity fixes every effect)
FINITE_FRAMES = {
    "S3-ideal": (lambda: ideal_frame(regular_representation(S3)), True),
    "C2-unsharp": (unsharp_qubit_frame, True),
    "C2-trivial-rep": (_non_covariant_frame, False),
    "S3-pair-cosets": (lambda: coset_frame(S3, _s3_pair(S3)), True),
    # A3 is normal, so its elements fix every coset
    "S3-A3-cosets": (lambda: coset_frame(S3, [S3.labels.index(p) for p in ("012", "120", "201")], 0.7), False),
    "S4-point-stabiliser-unsharp": (
        lambda: coset_frame(S4, [i for i, w in enumerate(S4.labels) if w[3] == "3"], 0.6), True
    ),
}
PHASE_FRAMES = {
    "phase-even": lambda: phase_frame([0.0, 1.0, 2.0], (0.5, 0.5 + 2 * math.pi / 3, 0.5 + 4 * math.pi / 3)),
    "phase-uneven": lambda: phase_frame([0.0, 1.0, 2.0], (0.4, 1.3, 4.1)),
    "phase-half-turns": lambda: phase_frame([0.0, 1.0], (0.0, math.pi)),
    "phase-doubled-generator": lambda: QuantumReferenceFrame(
        CircleRep(CircleGroup(2), np.diag([0.0, 2.0])), phase_frame([0.0, 1.0], (0.0, math.pi)).povm
    ),
}
FRAMES = {name: build for name, (build, _) in FINITE_FRAMES.items()} | PHASE_FRAMES


def per_point_inputs(frame):
    """The unitaries and cell maps of the per-point oracle, taken from the
    group table or the cut points and not from the frame's own tables."""
    if isinstance(frame.rep, FiniteRep):
        group = frame.rep.group
        _, action = oracle.coset_action(group.table, frame.povm.space.subgroup)
        return frame.rep.unitaries, action
    n = frame.povm.space.size
    rotations = oracle.arc_rotations(frame.povm.space.boundaries)
    us = [oracle.circle_unitary(frame.rep.generator, theta) for theta, _ in rotations]
    return us, [[(s + j) % n for s in range(n)] for _, j in rotations]


class TestAgainstPerPointLoops:
    """The stacked checks against one group point and one cell at a time."""

    @pytest.mark.parametrize("name", FRAMES)
    def test_covariance_defect(self, name):
        frame = FRAMES[name]()
        us, targets = per_point_inputs(frame)
        want = oracle.covariance_defect(us, frame.povm.effects, targets)
        assert abs(frame.covariance_defect() - want) <= 1e-12
        covariant = name not in ("C2-trivial-rep", "phase-doubled-generator")
        assert (want <= 1e-12) == covariant

    @pytest.mark.parametrize("name", FINITE_FRAMES)
    def test_is_complete(self, name):
        build, complete = FINITE_FRAMES[name]
        frame = build()
        group = frame.rep.group
        want = oracle.is_complete(frame.rep.unitaries, frame.povm.effects, group.identity, 1e-8)
        assert want is complete
        assert frame.is_complete() is want

    @pytest.mark.parametrize("name", PHASE_FRAMES)
    def test_is_complete_is_not_evaluated_on_the_circle(self, name):
        assert PHASE_FRAMES[name]().is_complete() is None


class TestNaimark:
    def test_random_povms_dilate_to_projections(self, rng):
        for _ in range(10):
            n, d = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            povm = random_povm(rng, d, n)
            dil = naimark_dilate(povm)
            v = dil.isometry
            assert np.allclose(dagger(v) @ v, np.eye(d), atol=1e-10)
            assert dil.reconstruction_defect(povm) <= 1e-9
            for got, want in zip(dil.pulled_back_effects(), povm.effects):
                assert op_norm(got - want) <= 1e-9

    def test_ambient_space_is_block_sized(self):
        povm = ideal_frame(regular_representation(cyclic_group(2))).povm
        dil = naimark_dilate(povm)
        assert dil.ambient_dim == povm.dim * povm.n_outcomes
        assert dil.kdim == povm.dim

    def test_isometry_rows_must_split_into_outcome_blocks(self):
        with pytest.raises(ValueError, match="one block per outcome"):
            Dilation(np.eye(4)[:, :2], 3)


def position_projections(d: int, k: int) -> list[np.ndarray]:
    """The projections 1 (x) |x><x| on C^d (x) C^k, for x = 0 .. k-1."""
    return [np.kron(np.eye(d), np.diag(e)) for e in np.eye(k, dtype=complex)]


class TestCovariantDilation:
    @pytest.mark.parametrize("group", [cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3)])
    def test_ideal_frames_dilate_covariantly(self, group):
        frame = ideal_frame(regular_representation(group))
        dil = covariant_dilate(frame)
        v = dil.isometry
        n = group.order
        assert np.allclose(dagger(v) @ v, np.eye(n), atol=1e-10)
        assert dil.reconstruction_defect(frame.povm) <= 1e-9
        projections = position_projections(dil.kdim, n)
        for got, p in zip(dil.pulled_back_effects(), projections):
            assert op_norm(got - dagger(v) @ p @ v) <= 1e-12
        lam = regular_representation(group)
        space = frame.povm.space
        for g in range(n):
            u = np.kron(np.eye(dil.kdim), lam.unitaries[g])
            assert op_norm(v @ frame.rep.unitaries[g] - u @ v) <= 1e-9
            for cell in range(space.size):
                moved = u @ projections[cell] @ dagger(u)
                assert op_norm(moved - projections[space.action[g, cell]]) <= 1e-9

    def test_reordered_blocks_fail_to_intertwine(self, monkeypatch):
        # Reversing W's blocks keeps W an isometry but breaks W U(g) = (1 (x) lambda(g)) W.
        stack = frames._stack_isometry
        monkeypatch.setattr(frames, "_stack_isometry", lambda blocks: stack(list(blocks)[::-1]))
        frame = ideal_frame(regular_representation(symmetric_group(3)))
        with pytest.raises(RuntimeError, match="failed to intertwine"):
            covariant_dilate(frame)

    @pytest.mark.parametrize(
        "build", [covariant_dilate, lambda frame: naimark_dilate(frame.povm)],
        ids=["covariant", "naimark"],
    )
    def test_dilations_form_no_ambient_operators(self, build):
        # On K (x) l2(D6) one dense 1 (x) lambda(g) or position projection is
        # 144 x 144 complex entries, 0.33 MB, and there are 12 of each.
        frame = ideal_frame(regular_representation(dihedral_group(6)))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            build(frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_unsharp_frame_dilates_covariantly(self):
        frame = unsharp_qubit_frame()
        dil = covariant_dilate(frame)
        assert dil.reconstruction_defect(frame.povm) <= 1e-9
        for got, want in zip(dil.pulled_back_effects(), frame.povm.effects):
            assert op_norm(got - want) <= 1e-9

    def test_non_principal_frames_are_rejected(self):
        g = symmetric_group(3)
        pair = next(a for a in range(1, 6) if g.table[a, a] == g.identity)
        space = HomogeneousSpace(g, (g.identity, pair))
        rep = regular_representation(g)
        effects = []
        for coset in space.cosets:
            p = np.zeros((6, 6), dtype=complex)
            for member in coset:
                p[member, member] = 1.0
            effects.append(p)
        frame = QuantumReferenceFrame(rep, Povm(space, effects))
        assert frame.covariance_defect() < 1e-12
        with pytest.raises(ValueError, match="principal frames only"):
            covariant_dilate(frame)

    def test_non_covariant_frames_are_rejected(self):
        g = cyclic_group(2)
        effects = [np.diag([0.9, 0.2]).astype(complex), np.diag([0.1, 0.8]).astype(complex)]
        frame = QuantumReferenceFrame(regular_representation(g), Povm(principal_cells(g), effects))
        with pytest.raises(ValueError, match="not covariant within tolerance"):
            covariant_dilate(frame)
