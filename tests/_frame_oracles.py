"""Reference frame checks for the tests: one group point and one cell at a
time, on plain matrices. The group enters as a Cayley table, a subgroup
as a list of element indices, a circle representation as its generator;
nothing here imports ``qrflab``, so a stacked check in the library is
compared with the definition it computes."""

import numpy as np


def _dag(x):
    return x.conj().T


def _op_norm(x) -> float:
    return float(np.linalg.norm(x, 2))


def coset_action(table, subgroup):
    """(cosets, action): the left cosets g H as sets, ordered by their
    smallest member, and action[g][s], the index of the coset that is the
    set {g x : x in coset s}, so no representative is chosen."""
    cosets = []
    for e in range(len(table)):
        coset = frozenset(int(table[e, h]) for h in subgroup)
        if coset not in cosets:
            cosets.append(coset)
    cosets.sort(key=min)
    action = [
        [cosets.index(frozenset(int(table[g, x]) for x in c)) for c in cosets]
        for g in range(len(table))
    ]
    return cosets, action


def arc_rotations(boundaries):
    """(theta, shift) for every rotation theta that maps the cut points onto
    themselves, sending arc i to arc i + shift."""
    b = np.array(boundaries)
    out = []
    for j in range(b.size):
        theta = (b[j] - b[0]) % (2.0 * np.pi)
        if np.abs(np.sort((b + theta) % (2.0 * np.pi)) - b).max() <= 1.0e-12:
            out.append((theta, j))
    return out


def circle_unitary(generator, theta):
    """exp(i theta N) from the eigendecomposition of the generator."""
    vals, v = np.linalg.eigh(generator)
    return (v * np.exp(1j * theta * np.rint(vals))) @ _dag(v)


def covariance_defect(unitaries, effects, targets):
    """max over points k and cells s of ||U_k E_s U_k^dag - E_{targets[k][s]}||."""
    worst = 0.0
    for u, row in zip(unitaries, targets):
        for e, t in zip(effects, row):
            worst = max(worst, _op_norm(u @ e @ _dag(u) - effects[t]))
    return worst


def is_complete(unitaries, effects, identity, tol):
    """Whether no element but the identity fixes every effect within tol."""
    for g, u in enumerate(unitaries):
        if g != identity and all(_op_norm(u @ e @ _dag(u) - e) <= tol for e in effects):
            return False
    return True


def stabiliser_defect(unitaries, subgroup, x):
    """max over h in the subgroup of ||U_h x U_h^dag - x||."""
    return max(_op_norm(unitaries[h] @ x @ _dag(unitaries[h]) - x) for h in subgroup)


def assignment_equivariance_defect(unitaries, anchors, representatives, action):
    """max over anchors a, elements g and cells s of
    ||U_g A_s U_g^dag - A_{g . s}||, with A_s = U_{r_s} a U_{r_s}^dag."""
    worst = 0.0
    for a in anchors:
        entries = [unitaries[r] @ a @ _dag(unitaries[r]) for r in representatives]
        for u, row in zip(unitaries, action):
            for s, t in enumerate(row):
                worst = max(worst, _op_norm(u @ entries[s] @ _dag(u) - entries[t]))
    return worst


def arc_integral(nu, lo, hi):
    """(1/2pi) * integral over [lo, hi) of e^{i nu theta}, for one integer nu."""
    if nu == 0:
        return complex((hi - lo) / (2.0 * np.pi))
    return (np.exp(1j * nu * hi) - np.exp(1j * nu * lo)) / (2.0j * np.pi * nu)


def phase_effects(c, arcs):
    """The phase POVM entry by entry: effect [lo, hi) has entry (n, m) equal
    to c[n, m] times the arc integral of e^{i (n - m) theta}."""
    dim = c.shape[0]
    effects = []
    for lo, hi in arcs:
        e = np.zeros((dim, dim), dtype=complex)
        for n in range(dim):
            for m in range(dim):
                e[n, m] = c[n, m] * arc_integral(n - m, lo, hi)
        effects.append(e)
    return effects


def smeared_effects(effects, kernel):
    """sum_x kernel[x, y] E_x for each output cell y, one term at a time."""
    out = []
    for y in range(kernel.shape[1]):
        e = np.zeros(effects[0].shape, dtype=complex)
        for x in range(kernel.shape[0]):
            e += kernel[x, y] * effects[x]
        out.append(e)
    return out
