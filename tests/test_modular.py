import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import qrflab.modular
from qrflab.modular import (
    FLOW_PROBE_TIMES,
    KMS_TIME_GRID,
    gibbs_state,
    gns_doubling,
    is_faithful_state,
    kms_check,
    modular_data,
    modular_flow,
)
from qrflab.opcore import dagger, op_norm
from qrflab.vnalg import OperatorAlgebra, commutant, span_distance

from _factories import (
    SIGMA_X,
    SIGMA_Z,
    random_complex,
    random_density,
    random_hermitian,
    random_unitary,
)

# sinh(1): the peak residual when a flat state is tested against the
# boundary condition of a gap-one Hamiltonian at beta = 1.
SINH_ONE = 1.1752011936438014


def skew_qubit():
    return np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex)


class TestGibbs:
    def test_gap_one_populations(self):
        rho = gibbs_state(np.diag([0.0, 1.0]), 1.0)
        z = 1.0 + math.exp(-1.0)
        assert rho[0, 0].real == pytest.approx(1.0 / z, abs=1e-15)
        assert rho[1, 1].real == pytest.approx(math.exp(-1.0) / z, abs=1e-15)

    def test_survives_huge_spectral_spread(self):
        rho = gibbs_state(np.diag([0.0, 2000.0]), 1.0)
        assert np.isfinite(rho).all()
        assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_basis_independence(self, rng):
        h = np.diag([0.0, 1.3]).astype(complex)
        q, _ = np.linalg.qr(random_complex(rng, 2))
        rotated = gibbs_state(q @ h @ dagger(q), 0.8)
        assert np.allclose(rotated, q @ gibbs_state(h, 0.8) @ dagger(q), atol=1e-12)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError, match="inverse temperature"):
            gibbs_state(np.diag([0.0, 1.0]), 0.0)


class TestDoubling:
    def test_vector_reproduces_the_state(self, rng):
        rho = random_density(rng, 3)
        alg, omega = gns_doubling(rho)
        for _ in range(10):
            x = random_complex(rng, 3)
            lifted = np.kron(x, np.eye(3))
            got = omega.conj() @ lifted @ omega
            assert abs(got - np.trace(rho @ x)) < 1e-10

    def test_needs_a_faithful_state(self):
        with pytest.raises(ValueError, match="must be faithful"):
            gns_doubling(np.diag([1.0, 0.0]).astype(complex))

    def test_faithfulness_predicate(self):
        assert is_faithful_state(np.eye(2) / 2)
        assert not is_faithful_state(np.diag([1.0, 0.0]))


class TestModularData:
    def make(self):
        alg, omega = gns_doubling(skew_qubit())
        return modular_data(alg, omega), alg, omega

    def test_delta_spectrum_is_the_population_ratio_set(self):
        data, _, _ = self.make()
        spectrum = np.sort(np.linalg.eigvalsh(data.delta))
        assert np.allclose(spectrum, [0.5, 1.0, 1.0, 2.0], atol=1e-10)

    def test_invariance_of_the_cyclic_vector(self):
        data, _, _ = self.make()
        assert data.vector_invariance_defect() <= 1e-10

    def test_flow_preserves_the_algebra(self):
        data, _, _ = self.make()
        assert data.flow_defect() <= 1e-7

    def test_conjugation_lands_in_the_commutant(self):
        data, alg, _ = self.make()
        assert data.conjugation_defect() <= 1e-7
        comm = commutant(alg)
        probe = np.kron(SIGMA_X, np.eye(2))
        assert comm.distance(data.conjugate_in(probe)) <= 1e-8

    def test_conjugation_is_an_antilinear_involution(self):
        data, _, _ = self.make()
        probe = np.kron(SIGMA_X + 1j * SIGMA_Z, np.eye(2))
        assert op_norm(data.conjugate_in(data.conjugate_in(probe)) - probe) <= 1e-10

    def test_s_maps_x_omega_to_adjoint_omega(self, rng):
        data, alg, omega = self.make()
        for _ in range(5):
            x = np.kron(random_complex(rng, 2), np.eye(2))
            lhs = data.s_matrix @ (x @ omega).conj()
            rhs = dagger(x) @ omega
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    def test_flow_composes_additively(self):
        data, _, _ = self.make()
        probe = np.kron(SIGMA_X, np.eye(2))
        once = data.flow(data.flow(probe, 0.4), 0.9)
        at_once = data.flow(probe, 1.3)
        assert op_norm(once - at_once) <= 1e-10

    def test_rejects_non_cyclic_vectors(self):
        alg, _ = gns_doubling(skew_qubit())
        bad = np.zeros(4, dtype=complex)
        bad[0] = 1.0
        with pytest.raises(ValueError, match="not (cyclic|separating)"):
            modular_data(alg, bad)

    def test_modular_flow_guards_membership(self):
        data, alg, _ = self.make()
        with pytest.raises(ValueError, match="outside the algebra"):
            modular_flow(data, np.kron(np.eye(2), SIGMA_X), 0.5)


def right_factor(d: int) -> OperatorAlgebra:
    """1 (x) M_d on C^d (x) C^d, from the matrix units."""
    units = np.eye(d * d).reshape(d * d, d, d)
    return OperatorAlgebra(
        d * d, np.array([np.kron(np.eye(d), e).ravel() for e in units]) / np.sqrt(d))


def doubled_gibbs(d: int, rng):
    h = np.diag(np.arange(d, dtype=float)) + 0.3 * random_hermitian(rng, d)
    return gns_doubling(gibbs_state(h, 1.0))


class TestConjugationClosedForm:
    """J M J = M' on the doubled Gibbs state, with M' = 1 (x) M_d known."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_commutant_and_conjugation_of_a_doubled_gibbs_state(self, d, rng):
        alg, omega = doubled_gibbs(d, rng)
        data = modular_data(alg, omega)
        assert span_distance(commutant(alg), right_factor(d)) <= 1e-12
        tracemalloc.start()
        try:
            defect = data.conjugation_defect()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert defect <= 1e-9
        if d == 6:
            # the stacked commutator system would be 46656 x 1296 (0.48 GB
            # as float64, 0.97 GB as complex)
            assert peak < 200e6


class TestRankAndEigenpairsOnce:
    def test_rank_is_taken_once_and_both_messages_remain(self, monkeypatch):
        ranks = []
        rank = qrflab.modular._rank

        def counting(*args, **kwargs):
            ranks.append(1)
            return rank(*args, **kwargs)

        monkeypatch.setattr(qrflab.modular, "_rank", counting)
        alg, omega = gns_doubling(skew_qubit())
        modular_data(alg, omega)
        assert len(ranks) == 1
        bad = np.zeros(4, dtype=complex)
        bad[0] = 1.0
        with pytest.raises(ValueError, match="not cyclic"):
            modular_data(alg, bad)
        full = OperatorAlgebra(4, np.eye(16, dtype=complex))
        with pytest.raises(ValueError, match="not separating"):
            modular_data(full, omega)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_flow_defect_matches_a_per_element_oracle(self, d, rng):
        # oracle: Delta re-diagonalised at every time, each basis element
        # flowed and measured on its own. A positive operator that is not
        # modular for the algebra gives the oracle a defect of order one.
        # The basis is mixed by a unitary so that its rows are complex.
        alg, omega = doubled_gibbs(d, rng)
        alg = OperatorAlgebra(alg.ambient_dim, random_unitary(rng, alg.dim) @ alg.rows)
        data = modular_data(alg, omega)
        x = random_complex(rng, d * d)
        foreign = dataclasses.replace(data, delta=x @ dagger(x) + np.eye(d * d))
        for md in (data, foreign):
            oracle = 0.0
            for t in FLOW_PROBE_TIMES:
                vals, vecs = np.linalg.eigh(md.delta)
                u = (vecs * np.exp(1j * t * np.log(vals))) @ dagger(vecs)
                for b in alg.basis_matrices():
                    oracle = max(oracle, alg.distance(u @ b @ dagger(u)))
            assert abs(md.flow_defect() - oracle) <= 1e-12
        assert foreign.flow_defect() >= 0.1

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_flow_reads_the_eigenpairs_kept_at_construction(self, d, rng, monkeypatch):
        alg, omega = doubled_gibbs(d, rng)
        calls = []
        eig = qrflab.modular.hermitian_eig

        def counting(x):
            calls.append(x.shape)
            return eig(x)

        monkeypatch.setattr(qrflab.modular, "hermitian_eig", counting)
        data = modular_data(alg, omega)
        assert calls == [(d * d, d * d)]
        calls.clear()
        data.flow_defect()
        data.delta_power(0.7)
        assert calls == []


class TestGeometricFlow:
    def test_doubled_gibbs_flow_is_heisenberg_evolution(self):
        beta, gap = 1.7, 1.0
        h = np.diag([0.0, gap]).astype(complex)
        alg, omega = gns_doubling(gibbs_state(h, beta))
        data = modular_data(alg, omega)
        probe = np.kron(SIGMA_X, np.eye(2))
        for t in (-1.0, 0.3, 2.0):
            flowed = modular_flow(data, probe, t)
            u = np.kron(np.diag([1.0, np.exp(1j * beta * gap * t)]), np.eye(2))
            geometric = dagger(u) @ probe @ u
            assert op_norm(flowed - geometric) <= 1e-8


class TestKms:
    def test_gibbs_state_satisfies_the_boundary_condition(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        report = kms_check(gibbs_state(h, 1.0), h, 1.0, [(SIGMA_X, SIGMA_X), (SIGMA_X, SIGMA_Z)])
        assert report.max_residual <= 1e-9
        assert report.passed
        assert report.sign_convention == "physics"

    def test_flat_state_misses_by_sinh_one(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        report = kms_check(np.eye(2, dtype=complex) / 2, h, 1.0, [(SIGMA_X, SIGMA_X)])
        assert not report.passed
        assert report.max_residual == pytest.approx(SINH_ONE, abs=1e-12)

    def test_grid_includes_the_quarter_period(self):
        # the sinh(1) peak sits at t = pi/2; dropping that node would
        # understate the violation, so the default grid pins it
        assert any(abs(t - math.pi / 2) < 1e-12 for t in KMS_TIME_GRID)

    def test_zero_hamiltonian_has_zero_residuals(self):
        report = kms_check(np.eye(2, dtype=complex) / 2, np.zeros((2, 2)), 2.0, [(SIGMA_X, SIGMA_Z)])
        assert report.max_residual <= 1e-14

    def test_paper_sign_flips_the_continuation(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        rho = gibbs_state(h, 1.0)
        flipped = kms_check(rho, -h, 1.0, [(SIGMA_X, SIGMA_X)], sign="paper")
        assert flipped.max_residual <= 1e-9
        assert flipped.passed

    def test_unknown_sign_is_rejected(self):
        with pytest.raises(ValueError, match="unknown sign convention"):
            kms_check(np.eye(2) / 2, np.zeros((2, 2)), 1.0, [(SIGMA_X, SIGMA_X)], sign="both")

    def test_residual_table_shape(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        report = kms_check(gibbs_state(h, 1.0), h, 1.0, [(SIGMA_X, SIGMA_X), (SIGMA_Z, SIGMA_Z)])
        assert len(report.residuals) == 2
        assert all(len(row) == len(report.times) for row in report.residuals)
