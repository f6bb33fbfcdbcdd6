import numpy as np
import pytest

from qrflab.opcore import dagger, op_norm
from qrflab.scheme import MeasurementScheme, equivariance_defect, induced_observable, transform_scheme
from qrflab.symmetry import CircleGroup, CircleRep, FiniteRep, cyclic_group

from _factories import SIGMA_X, SIGMA_Z, random_density, random_hermitian, random_unitary

CNOT = np.array([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=complex)

PLUS = np.full((2, 2), 0.5, dtype=complex)
SWAP = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
], dtype=complex)


def pointer_scheme() -> MeasurementScheme:
    ground = np.diag([1.0, 0.0]).astype(complex)
    return MeasurementScheme(2, 2, CNOT, ground, SIGMA_Z)


def phase_rep_z3() -> FiniteRep:
    omega = np.exp(2j * np.pi / 3)
    return FiniteRep(cyclic_group(3), [np.diag([1.0, omega**k]) for k in range(3)])


class TestValidation:
    def test_scattering_must_act_on_the_joint_space(self):
        with pytest.raises(ValueError, match="act on system tensor probe"):
            MeasurementScheme(2, 3, CNOT, np.eye(3) / 3, np.eye(3))

    def test_scattering_must_be_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            MeasurementScheme(2, 2, 0.5 * CNOT, np.eye(2) / 2, SIGMA_Z)

    def test_preparation_must_be_a_probe_state(self):
        with pytest.raises(ValueError, match="preparation must act on the probe"):
            MeasurementScheme(2, 2, CNOT, np.eye(3) / 3, SIGMA_Z)

    def test_observable_must_be_hermitian(self):
        skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            MeasurementScheme(2, 2, CNOT, np.eye(2) / 2, skew)

    def test_dimensions_must_be_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            MeasurementScheme(0, 2, CNOT, np.eye(2) / 2, SIGMA_Z)

    @pytest.mark.parametrize("seed", range(5))
    def test_hermiticity_tolerance_scales_with_the_observable(self, seed):
        # Rounding leaves an asymmetry of ~1e-8 on a Hermitian observable of
        # norm 1e8: ~1e-16 relative to its size, so it must be accepted.
        u = random_unitary(np.random.default_rng(seed), 3)
        obs = u @ np.diag([1e8, -5e7, 3.3e7]) @ dagger(u)
        assert op_norm(obs - dagger(obs)) > 1e-9
        MeasurementScheme(1, 3, np.eye(3), np.eye(3) / 3, obs)
        skew = np.zeros((3, 3), dtype=complex)
        skew[0, 1] = 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            MeasurementScheme(1, 3, np.eye(3), np.eye(3) / 3, obs + skew)


class TestInducedObservable:
    def test_pointer_readout_induces_the_parity(self):
        # CNOT copies the system parity onto a ground-state probe, so
        # reading sigma_z downstream is the same as measuring it upstream.
        assert np.allclose(induced_observable(pointer_scheme()), SIGMA_Z, atol=1e-12)

    def test_identity_scattering_induces_a_scalar(self):
        scheme = MeasurementScheme(2, 2, np.eye(4), PLUS, SIGMA_Z)
        induced = induced_observable(scheme)
        assert np.allclose(induced, np.trace(PLUS @ SIGMA_Z) * np.eye(2), atol=1e-12)

    def test_swap_reads_the_probe_preparation(self):
        scheme = MeasurementScheme(2, 2, SWAP, np.diag([0.2, 0.8]).astype(complex), SIGMA_Z)
        # after a swap the probe observable sees the system state, so the
        # induced observable is sigma_z itself regardless of preparation
        assert np.allclose(induced_observable(scheme), SIGMA_Z, atol=1e-12)

    def test_statistics_identity_on_random_states(self, rng):
        scheme = MeasurementScheme(2, 2, CNOT, PLUS, SIGMA_X)
        induced = induced_observable(scheme)
        moved = dagger(CNOT) @ np.kron(np.eye(2), SIGMA_X) @ CNOT
        for _ in range(20):
            w = random_density(rng, 2)
            direct = np.trace(np.kron(w, PLUS) @ moved)
            through = np.trace(w @ induced)
            assert abs(direct - through) < 1e-11


    @pytest.mark.parametrize("seed", range(5))
    def test_hermiticity_tolerance_scales_with_the_observable(self, seed):
        # An exactly Hermitian pointer of norm 6e7 induces an observable whose
        # rounding asymmetry is ~1e-9, ~1e-16 relative to its size.
        rng = np.random.default_rng(seed)
        theta, prep = random_unitary(rng, 6), random_density(rng, 3)
        h = random_hermitian(rng, 3)
        obs = 6e7 * h / op_norm(h)
        obs = (obs + dagger(obs)) / 2
        assert np.array_equal(obs, dagger(obs))
        induced = induced_observable(MeasurementScheme(2, 3, theta, prep, obs))
        assert op_norm(induced - dagger(induced)) <= 1e-14 * op_norm(induced)


class TestTransform:
    def test_inverse_convention_is_exactly_covariant(self, rng):
        # holds for any scattering and preparation, so exercise random ones
        for _ in range(5):
            u = random_unitary(rng, 4)
            prep = random_density(rng, 2)
            scheme = MeasurementScheme(2, 2, u, prep, SIGMA_X)
            rep = phase_rep_z3()
            defect = equivariance_defect(scheme, rep, rep, convention="inverse")
            assert defect <= 1e-9

    def test_circle_group_covariance(self):
        rep = CircleRep(CircleGroup(1), np.diag([0.0, 1.0]))
        scheme = MeasurementScheme(2, 2, CNOT, PLUS, SIGMA_X)
        assert equivariance_defect(scheme, rep, rep) <= 1e-9

    def test_forward_convention_breaks_by_three_halves(self):
        scheme = MeasurementScheme(2, 2, CNOT, PLUS, SIGMA_X)
        rep = phase_rep_z3()
        defect = equivariance_defect(scheme, rep, rep, convention="forward")
        assert defect == pytest.approx(1.5, abs=1e-9)
        assert defect >= 0.1

    def test_forward_and_inverse_agree_when_the_preparation_commutes(self):
        # diagonal preparation commutes with the phase rep, hiding the
        # transposed conjugation; the regression witness needs a skew state
        scheme = pointer_scheme()
        rep = phase_rep_z3()
        forward = equivariance_defect(scheme, rep, rep, convention="forward")
        assert forward <= 1e-9

    def test_transform_roundtrip_at_the_identity(self):
        scheme = MeasurementScheme(2, 2, CNOT, PLUS, SIGMA_X)
        rep = phase_rep_z3()
        back = transform_scheme(scheme, 0, rep, rep)
        assert np.allclose(back.scattering, scheme.scattering)
        assert np.allclose(back.probe_prep, scheme.probe_prep)
        assert np.allclose(back.probe_obs, scheme.probe_obs)

    def test_unknown_convention_is_rejected(self):
        scheme = pointer_scheme()
        rep = phase_rep_z3()
        with pytest.raises(ValueError, match="'inverse' or 'forward'"):
            transform_scheme(scheme, 1, rep, rep, convention="sideways")

    def test_reps_must_match_the_scheme_dimensions(self):
        scheme = MeasurementScheme(2, 3, np.eye(6), np.eye(3) / 3, np.eye(3))
        rep = phase_rep_z3()
        with pytest.raises(ValueError, match="probe"):
            equivariance_defect(scheme, rep, rep)
