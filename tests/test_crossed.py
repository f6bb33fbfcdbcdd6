import numpy as np
import pytest

import qrflab.crossed
from qrflab.crossed import (
    CrossedProductAlgebra,
    build_crossed_product,
    compress_by_frame,
    embed_twisted,
    intertwining_unitary,
    invariant_joint_algebra,
    right_translations,
    verify_commutation_theorem,
    verify_frame_compression,
)
from qrflab.frames import CosetCells, Povm, QuantumReferenceFrame, covariant_dilate, ideal_frame
from qrflab.opcore import dagger, op_norm, unitary_defect
from qrflab.relativise import GroupAction
from qrflab.symmetry import (
    CircleGroup,
    CircleRep,
    FiniteRep,
    HomogeneousSpace,
    cyclic_group,
    fixed_point_rows,
    regular_representation,
    symmetric_group,
    tensor_rep,
)
from qrflab.vnalg import (
    OperatorAlgebra,
    algebra_from_matrices,
    decompose,
    generate_algebra,
    span_distance,
    span_intersection,
)

from _factories import SIGMA_X, SIGMA_Z, random_complex, random_unitary


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
            block = action.rep.unitary(g) @ a @ dagger(action.rep.unitary(g))
            tag = np.zeros((n, n))
            tag[g, g] = 1.0
            pi += np.kron(block, tag)
        gens.append(pi)
    for g in range(n):
        rho = np.zeros((n, n), dtype=complex)
        for h in range(n):
            rho[group.table[h, int(group.inverse[g])], h] = 1.0
        gens.append(np.kron(np.eye(d), rho))
    return gens, d * n


class TestEmbedding:
    def test_twisted_copy_is_a_conjugated_tensor_factor(self, rng):
        rep = flip_rep()
        v = intertwining_unitary(rep)
        assert unitary_defect(v) < 1e-12
        a = random_complex(rng, 2)
        direct = embed_twisted(a, rep)
        assert np.allclose(direct, v @ np.kron(a, np.eye(2)) @ dagger(v), atol=1e-12)

    def test_translations_conjugate_the_twisted_copy_covariantly(self, rng):
        # rho(g) pi(a) rho(g)^dag = pi(alpha_g(a)), with rho written out by
        # hand from the group table rather than taken from the library
        rep = regular_representation(symmetric_group(3))
        group = rep.group
        a = random_complex(rng, 6)
        pi = embed_twisted(a, rep)
        for g in range(group.order):
            rho = np.zeros((group.order, group.order), dtype=complex)
            for h in range(group.order):
                rho[group.table[h, int(group.inverse[g])], h] = 1.0
            w = np.kron(np.eye(6), rho)
            target = embed_twisted(rep.unitary(g) @ a @ dagger(rep.unitary(g)), rep)
            assert op_norm(w @ pi @ dagger(w) - target) <= 1e-12

    def test_reported_defects_vanish_on_a_clean_fixture(self):
        cp = build_crossed_product(GroupAction(full_algebra(2), flip_rep()))
        assert cp.covariance_defect() <= 1e-10
        assert cp.pi_homomorphism_defect() <= 1e-10


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
        ]
        assert len(cases) == 8
        for name, action, frame_rep in cases:
            joint = tensor_rep(action.rep, frame_rep)
            d_w = frame_rep.dim
            units = np.eye(d_w * d_w)
            tensor_rows = np.array([
                np.kron(a, units[kl].reshape(d_w, d_w)).ravel()
                for a in action.algebra.basis_matrices()
                for kl in range(d_w * d_w)
            ])
            oracle = span_intersection(fixed_point_rows(joint, joint), tensor_rows)
            got = invariant_joint_algebra(action, frame_rep).rows
            assert got.shape[0] == oracle.shape[0], name
            assert span_distance(got, oracle) <= 1e-10, name

    @pytest.mark.parametrize("name,action,expected", fixtures(), ids=[f[0] for f in fixtures()])
    def test_closed_form_span_equals_the_generated_algebra(self, name, action, expected):
        # oracle: closure of pi(M) and rho(G), written out from the
        # definitions, by alternating adjoints and pairwise products
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
        assert not report.passed

    def test_closure_defect_flags_a_span_without_adjoints(self):
        # upper triangular matrices: closed under products, not adjoints
        action = GroupAction(full_algebra(2), flip_rep())
        units = np.eye(16, dtype=complex)
        upper = OperatorAlgebra(4, units[[i * 4 + j for i in range(4) for j in range(i, 4)]])
        report = verify_commutation_theorem(CrossedProductAlgebra(action, upper))
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


class TestCompression:
    def sharp_frame(self):
        return ideal_frame(regular_representation(cyclic_group(2)))

    def unsharp_frame(self):
        g = cyclic_group(2)
        cells = CosetCells(HomogeneousSpace(g, (g.identity,)))
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
