"""Indirect measurement schemes and their behaviour under symmetry.

A scheme couples the system to a probe through a scattering unitary, then
reads a probe observable after the probe was prepared in a fixed state.
Tracing the probe out of the Heisenberg picture leaves an effective system
observable, and conjugating every ingredient of the scheme by a group
element moves that effective observable covariantly. The covariance check
here is exact by construction; the module also keeps one deliberately
broken transformation rule around so that reports can show what a genuine
equivariance failure looks like.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .opcore import (
    DEFAULT_TOL,
    as_operator,
    check_density,
    dagger,
    op_norm,
    partial_trace,
    unitary_defect,
)
from .symmetry import Rep


@dataclass(frozen=True)
class MeasurementScheme:
    """Probe preparation, scattering unitary, probe pointer observable."""

    system_dim: int
    probe_dim: int
    scattering: np.ndarray
    probe_prep: np.ndarray
    probe_obs: np.ndarray

    def __post_init__(self):
        if self.system_dim < 1 or self.probe_dim < 1:
            raise ValueError("scheme dimensions must be positive")
        joint = self.system_dim * self.probe_dim
        theta = as_operator(self.scattering, "scattering")
        if theta.shape[0] != joint:
            raise ValueError("scattering map must act on system tensor probe")
        if unitary_defect(theta) > DEFAULT_TOL:
            raise ValueError("scattering map is not unitary within tolerance")
        prep = as_operator(self.probe_prep, "probe_prep")
        if prep.shape[0] != self.probe_dim:
            raise ValueError("probe preparation must act on the probe")
        check_density(prep, tol=DEFAULT_TOL)
        obs = as_operator(self.probe_obs, "probe_obs")
        if obs.shape[0] != self.probe_dim:
            raise ValueError("probe observable must act on the probe")
        # Relative to max(1, ||obs||); the norm costs an SVD, so it is taken
        # only when the asymmetry exceeds the bare tolerance.
        asym = op_norm(obs - dagger(obs))
        if asym > DEFAULT_TOL and asym > DEFAULT_TOL * op_norm(obs):
            raise ValueError("probe observable is not Hermitian within tolerance")
        object.__setattr__(self, "scattering", theta)
        object.__setattr__(self, "probe_prep", prep)
        object.__setattr__(self, "probe_obs", obs)

    @property
    def joint_dim(self) -> int:
        return self.system_dim * self.probe_dim


def induced_observable(scheme: MeasurementScheme) -> np.ndarray:
    """Effective system observable the scheme measures.

    Heisenberg-evolve the pointer through the scattering map, then average
    the probe leg against the preparation. The result reproduces every
    joint expectation: for any system state w,
    tr(w A) = tr((w (x) prep) Theta^* (1 (x) obs) Theta).
    """
    d_s, d_p = scheme.system_dim, scheme.probe_dim
    theta = scheme.scattering
    moved = dagger(theta) @ np.kron(np.eye(d_s), scheme.probe_obs) @ theta
    weighted = moved @ np.kron(np.eye(d_s), scheme.probe_prep)
    out = partial_trace(weighted, (d_s, d_p), "second")
    defect = op_norm(out - dagger(out))
    # Relative to max(1, ||out||), as for the pointer in MeasurementScheme.
    if defect > DEFAULT_TOL and defect > DEFAULT_TOL * op_norm(out):
        raise RuntimeError(f"induced observable failed hermiticity by {defect:.3e}")
    return out


def _check_reps(scheme: MeasurementScheme, sys_rep: Rep, probe_rep: Rep) -> None:
    if sys_rep.dim != scheme.system_dim:
        raise ValueError("system representation does not act on the scheme's system")
    if probe_rep.dim != scheme.probe_dim:
        raise ValueError("probe representation does not act on the scheme's probe")
    if sys_rep.group != probe_rep.group:
        raise ValueError("system and probe representations must share one group")


def transform_scheme(
    scheme: MeasurementScheme,
    g,
    sys_rep: Rep,
    probe_rep: Rep,
    convention: str = "inverse",
) -> MeasurementScheme:
    """Conjugate every ingredient of the scheme by the group element.

    The default rule moves the scattering map, the preparation, and the
    pointer all by the same conjugation, which is what makes the induced
    observable covariant. The "forward" rule conjugates the preparation
    the opposite way; it is not physically meaningful and exists only as a
    reproducible witness of what breaking covariance does to the numbers.
    """
    _check_reps(scheme, sys_rep, probe_rep)
    point = np.array([g])
    return _moved_scheme(
        scheme, sys_rep.unitary_stack(point)[0], probe_rep.unitary_stack(point)[0], convention
    )


def _moved_scheme(
    scheme: MeasurementScheme, u_s: np.ndarray, u_p: np.ndarray, convention: str
) -> MeasurementScheme:
    """``transform_scheme`` at the point where the reps are u_s and u_p."""
    w = np.kron(u_s, u_p)
    theta = w @ scheme.scattering @ dagger(w)
    obs = u_p @ scheme.probe_obs @ dagger(u_p)
    if convention == "inverse":
        prep = u_p @ scheme.probe_prep @ dagger(u_p)
    elif convention == "forward":
        prep = dagger(u_p) @ scheme.probe_prep @ u_p
    else:
        raise ValueError("convention must be 'inverse' or 'forward'")
    return MeasurementScheme(scheme.system_dim, scheme.probe_dim, theta, prep, obs)


def equivariance_defect(
    scheme: MeasurementScheme,
    sys_rep: Rep,
    probe_rep: Rep,
    convention: str = "inverse",
) -> float:
    """Worst mismatch between transforming the scheme and the observable.

    At every quadrature node of the group (each element of a finite group,
    each quadrature angle of the circle), compare the observable induced by
    the moved scheme with the conjugated observable of the original scheme,
    in operator norm.
    """
    _check_reps(scheme, sys_rep, probe_rep)
    base = induced_observable(scheme)
    nodes = sys_rep.group.quadrature_nodes()
    worst = 0.0
    for u_s, u_p in zip(sys_rep.unitary_stack(nodes), probe_rep.unitary_stack(nodes)):
        moved = induced_observable(_moved_scheme(scheme, u_s, u_p, convention))
        worst = max(worst, op_norm(moved - u_s @ base @ dagger(u_s)))
    return worst
