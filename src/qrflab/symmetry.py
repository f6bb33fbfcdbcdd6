"""Symmetry groups, unitary representations and group averaging.

Two kinds of group are supported: finite groups given by a Cayley table,
and the circle, handled through a band limit so that every integral in
sight is an exact finite quadrature. Both are unimodular, so a single Haar
average suffices for left and right invariance.

Every group exposes the same quadrature through ``quadrature_nodes()``:
the element indices of a finite group, or the ``4 * bandwidth + 1``
equispaced angles of the band-limited circle. The nodes carry equal
weights, so a Haar average is ``sum(f(node) for node in nodes) / nodes.size``
for both kinds of group.

A representation is ``group``, ``dim`` and ``unitary_stack(points)``, the
unitaries at an array of group points stacked on axis 0; it is the only
way the package reads a representation, at quadrature nodes, coset
representatives, stabiliser elements or the rotations of a partition. A
finite representation stores its unitaries as one complex (|G|, d, d)
stack, which ``unitary_stack`` indexes; a circle representation assembles
the stack from its generator's eigendecomposition. A
homogeneous space G/H tabulates its left action as ``action[g, cell]``, so
a covariance check pairs row g of that table with the unitary at g.

Fixed points of a conjugation action have one kernel,
``tensor_fixed_point_rows``: the Ad(U (x) V) fixed points of M (x) B(H_V)
for an Ad U-invariant span M of dimension m. It works in M's own
coordinates, where the action at a node is C_g (x) Ad V(g), with C_g the
m x m matrix of Ad U(g) on M's basis. The fixed space's dimension comes
from a character formula, and its basis is read exactly off eigenspaces of
group-algebra elements, since a fixed point intertwines V with C (x) V:
integer charges for the circle (``_charge_modes`` gives M's Fourier modes),
and for a finite group the isotypic components of a seeded class sum,
split by a seeded generic element where an irrep has dimension > 1 and
averaged by Schur orthogonality. No operator on the joint space, no
superoperator and no SVD is formed. ``fixed_point_rows`` is that kernel on
the scalars, and the crossed-product and frame checks call it on the
system algebra.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .opcore import DEFAULT_TOL, _operator_stack, as_operator, dagger, hermitian_eig, rel_err
from .vnalg import OperatorAlgebra

# The seed of the group-algebra elements that label a finite group's
# eigenspaces in ``tensor_fixed_point_rows``, and how many draws it may try.
_LABEL_SEED = 7
_LABEL_ATTEMPTS = 8
# Eigenvalues of a drawn element within _LABEL_CUT * max(1, largest |value|)
# of each other share a label. The cut sits 100 times above the 1e-8 at
# which a GroupAction accepts a span as invariant, and two of k distinct
# eigenvalues of a Gaussian draw fall within it with probability of order
# k^2 * 1e-6; such a merge fails the count, and the next draw is taken.
_LABEL_CUT = 1.0e-6
# The largest residual of a fixed point under a generator, deviation of the
# Gram matrix from the identity, and distance of a mode projection's
# eigenvalue from 0 or 1 at which the rows are certified.
_FIXED_TOL = 1.0e-6
# How far the character trace may sit from the integer rank.
_TRACE_TOL = 1.0e-6
# The largest order a group constructor tabulates, that of S6. The Cayley
# table holds order^2 integers (4 MB here), and the regular representation
# order^3 complex entries (6 GB here); S11's table would hold 1.6e15.
_MAX_ORDER = 720

# The most entries a temporary of ``FiniteRep``'s validation holds.
_CHECK_ENTRIES = 1 << 16


@dataclass
class FiniteGroup:
    """A finite group presented by labels and a Cayley table.

    ``table[i, j]`` is the index of the product of elements i and j.
    """

    labels: list[str]
    table: np.ndarray
    identity: int = field(init=False)
    inverse: np.ndarray = field(init=False)
    _generators: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.labels)
        self.table = np.asarray(self.table, dtype=int)
        if self.table.shape != (n, n):
            raise ValueError("Cayley table shape does not match element count")
        if not ((0 <= self.table) & (self.table < n)).all():
            raise ValueError("Cayley table entry out of range")
        idx = np.arange(n)
        ids = np.flatnonzero((self.table == idx).all(axis=1) & (self.table.T == idx).all(axis=1))
        if ids.size != 1:
            raise ValueError("Cayley table has no two-sided identity")
        self.identity = int(ids[0])
        inv = np.full(n, -1, dtype=int)
        for i in range(n):
            hits = np.flatnonzero(self.table[i] == self.identity)
            if hits.size != 1 or self.table[hits[0], i] != self.identity:
                raise ValueError(f"element {self.labels[i]!r} has no inverse")
            inv[i] = hits[0]
        self.inverse = inv
        # Light's test, (ab)s == a(bs) for all a, b and each generator s, is
        # exact: the c with (ab)c = a(bc) for all a, b include e and are closed
        # under products, (ab)(cc') = ((ab)c)c' = (a(bc))c' = a((bc)c') = a(b(cc')),
        # and ``generators()`` reaches each element as a product (..(e s1)..) sk.
        t = self.table
        self._generators = self._greedy_generators()
        if any((t[t, s] != t[:, t[:, s]]).any() for s in self._generators):
            raise ValueError("Cayley table is not associative")

    @property
    def order(self) -> int:
        return len(self.labels)

    def quadrature_nodes(self) -> np.ndarray:
        """Element indices; the Haar average gives each weight 1 / order."""
        return np.arange(self.order)

    def generators(self) -> list[int]:
        """A generating set, chosen greedily in index order from the table
        once, when the group is built.

        Each element not yet reached is added, and the reached set grows to
        the subgroup it generates with the ones before it; in a finite group
        the products of generators already reach every inverse. The identity
        is never listed, so the trivial group has none.
        """
        return list(self._generators)

    @functools.cached_property
    def class_labels(self) -> np.ndarray:
        """The conjugacy class of each element, as labels 0, 1, ... in the
        order of each class's smallest element; read-only, computed once.

        The class of g is {h g h^-1 : h in G}, read from the table as
        table[table[h, g], inverse[h]], and labelled by its smallest member.
        """
        t = self.table
        _, labels = np.unique(t[t, self.inverse[:, None]].min(axis=0), return_inverse=True)
        labels.flags.writeable = False
        return labels

    def _greedy_generators(self) -> list[int]:
        reached = np.zeros(self.order, dtype=bool)
        reached[self.identity] = True
        gens: list[int] = []
        for g in range(self.order):
            if reached[g]:
                continue
            gens.append(g)
            while True:
                size = reached.sum()
                reached[self.table[np.ix_(reached, gens)]] = True
                if reached.sum() == size:
                    break
        return gens

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteGroup)
            and self.labels == other.labels
            and np.array_equal(self.table, other.table)
        )


@dataclass(frozen=True)
class CircleGroup:
    """The circle group, up to a fixed band limit.

    Any representation attached to this group may only carry integer
    frequencies of magnitude at most ``bandwidth``; group averages are then
    exact sums over ``4 * bandwidth + 1`` equispaced angles.
    """

    bandwidth: int

    def __post_init__(self) -> None:
        if self.bandwidth < 0:
            raise ValueError("bandwidth must be non-negative")

    def quadrature_nodes(self) -> np.ndarray:
        n = 4 * self.bandwidth + 1
        return 2.0 * np.pi * np.arange(n) / n


SymmetryGroup = FiniteGroup | CircleGroup


def _check_order(order: int, what: str) -> None:
    """Raise before a table of more than ``_MAX_ORDER`` elements is built."""
    if order > _MAX_ORDER:
        raise ValueError(f"{what} has order {order}, above the {_MAX_ORDER} that is tabulated")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    _check_order(n, f"Z_{n}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup([f"g{k}" for k in range(n)], table)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n with permutations composed as functions, p*q : i -> p[q[i]]."""
    if n < 1:
        raise ValueError("symmetric group needs n >= 1")
    # n! by steps, stopping at the first partial product past the cap.
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > _MAX_ORDER:
            raise ValueError(f"S_{n} has order {n}!, above the {_MAX_ORDER} that is tabulated")
    perms = np.array(list(itertools.permutations(range(n))))
    # Base-n codes are ascending in the lexicographic order of ``permutations``,
    # so one search finds the index of every product p*q = p[q].
    weights = n ** np.arange(n - 1, -1, -1)
    products = perms[np.arange(order)[:, None, None], perms[None, :, :]]
    table = np.searchsorted(perms @ weights, products @ weights)
    labels = ["".join(map(str, p)) for p in perms]
    return FiniteGroup(labels, table)


def dihedral_group(n: int) -> FiniteGroup:
    """D_n, the symmetries of a regular n-gon, of order 2n.

    Element e * n + k is r^k s^e, with r a rotation of order n and s a
    reflection, s r s = r^-1; so r^a s^e r^b s^f = r^(a + (-1)^e b) s^(e + f).
    """
    if n < 1:
        raise ValueError("dihedral group needs n >= 1")
    _check_order(2 * n, f"D_{n}")
    k = np.tile(np.arange(n), 2)
    e = np.repeat([0, 1], n)
    rot = (k[:, None] + np.where(e[:, None], -1, 1) * k[None, :]) % n
    table = ((e[:, None] + e[None, :]) % 2) * n + rot
    labels = [f"r{a}" for a in range(n)] + [f"r{a}s" for a in range(n)]
    return FiniteGroup(labels, table)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """G x H with componentwise products; element i * |H| + j is (g_i, h_j)."""
    _check_order(g.order * h.order, "the direct product")
    table = g.table[:, None, :, None] * h.order + h.table[None, :, None, :]
    labels = [f"({a},{b})" for a in g.labels for b in h.labels]
    return FiniteGroup(labels, table.reshape(g.order * h.order, g.order * h.order))


@dataclass
class FiniteRep:
    """A unitary representation of a finite group, held as one (|G|, d, d)
    stack whose g-th matrix is U(g)."""

    group: FiniteGroup
    unitaries: np.ndarray

    def __post_init__(self) -> None:
        g = self.group
        if len(self.unitaries) != g.order:
            raise ValueError("representation needs one unitary per group element")
        us = self.unitaries = _operator_stack(self.unitaries, "representation matrices")
        d = us.shape[1]
        eye = np.eye(d)
        # Both checks run over chunks of the stack, so that each temporary
        # holds at most _CHECK_ENTRIES entries however large the group.
        step = max(1, _CHECK_ENTRIES // (d * d))
        chunks = [slice(lo, lo + step) for lo in range(0, g.order, step)]
        # rel_err per element, batched: Frobenius distance over max(1, ||target||_F).
        unit_scale = max(1.0, float(np.sqrt(d)))
        scale = np.empty(g.order)
        for chunk in chunks:
            unit_err = np.linalg.norm(us[chunk] @ dagger(us[chunk]) - eye, axis=(1, 2))
            bad = np.flatnonzero(unit_err / unit_scale > DEFAULT_TOL)
            if bad.size:
                raise ValueError(f"matrix for {g.labels[chunk.start + bad[0]]!r} is not unitary")
            scale[chunk] = np.maximum(1.0, np.linalg.norm(us[chunk], axis=(1, 2)))
        if rel_err(us[g.identity], eye) > DEFAULT_TOL:
            raise ValueError("identity element must act as the identity matrix")
        # One chunk of a Cayley-table row at a time: U(i) U(j) against
        # U(table[i, j]), with rel_err's scale taken from each target.
        for i in range(g.order):
            for chunk in chunks:
                row = g.table[i, chunk]
                err = np.linalg.norm(us[i] @ us[chunk] - us[row], axis=(1, 2)) / scale[row]
                bad = np.flatnonzero(err > DEFAULT_TOL)
                if bad.size:
                    raise ValueError(
                        f"not a homomorphism at pair ({g.labels[i]}, {g.labels[chunk.start + bad[0]]})"
                    )

    @property
    def dim(self) -> int:
        return self.unitaries.shape[1]

    def unitary_stack(self, points: np.ndarray) -> np.ndarray:
        """The unitaries at an array of element indices, stacked on axis 0."""
        return self.unitaries[points]


@dataclass
class CircleRep:
    """A band-limited circle representation, U(theta) = exp(i theta N).

    The generator must be Hermitian with integer eigenvalues bounded by the
    group's band limit; the eigendecomposition is cached so U(theta) is
    assembled exactly from phases.
    """

    group: CircleGroup
    generator: np.ndarray
    freqs: np.ndarray = field(init=False)
    vecs: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.generator = as_operator(self.generator, "generator")
        vals, vecs = hermitian_eig(self.generator)
        ints = np.rint(vals)
        if np.abs(vals - ints).max() > 1.0e-9:
            raise ValueError("generator eigenvalues must be integers")
        if ints.size and np.abs(ints).max() > self.group.bandwidth:
            raise ValueError("generator frequency exceeds the group band limit")
        self.freqs = ints.astype(int)
        self.vecs = vecs

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    def unitary_stack(self, points: np.ndarray) -> np.ndarray:
        """U(theta) at an array of angles, stacked on axis 0."""
        phases = np.exp(1j * np.multiply.outer(points, self.freqs))
        return (self.vecs * phases[:, None, :]) @ dagger(self.vecs)


Rep = FiniteRep | CircleRep


def trivial_rep(group: SymmetryGroup, dim: int) -> Rep:
    if isinstance(group, FiniteGroup):
        return FiniteRep(group, np.broadcast_to(np.eye(dim), (group.order, dim, dim)))
    return CircleRep(group, np.zeros((dim, dim), dtype=complex))


def tensor_rep(a: Rep, b: Rep, group: SymmetryGroup | None = None) -> Rep:
    """Tensor product representation on the Kronecker product space.

    For circle representations the combined frequencies can exceed either
    band limit, so a wide-enough target ``group`` must be supplied when the
    default (reusing ``a.group``) would not hold them.
    """
    if isinstance(a, FiniteRep) and isinstance(b, FiniteRep):
        if a.group != b.group:
            raise ValueError("tensor product needs representations of one group")
        nodes = a.group.quadrature_nodes()
        ua, ub = a.unitary_stack(nodes), b.unitary_stack(nodes)
        # kron(ua[g], ub[g]) for every g at once
        us = ua[:, :, None, :, None] * ub[:, None, :, None, :]
        us = us.reshape(nodes.size, a.dim * b.dim, -1)
        return FiniteRep(group if isinstance(group, FiniteGroup) else a.group, us)
    if isinstance(a, CircleRep) and isinstance(b, CircleRep):
        gen = np.kron(a.generator, np.eye(b.dim)) + np.kron(np.eye(a.dim), b.generator)
        target = group if isinstance(group, CircleGroup) else a.group
        return CircleRep(target, gen)
    raise ValueError("cannot mix finite and circle representations")


def _check_pair(u: Rep, v: Rep, x: np.ndarray) -> None:
    if u.group != v.group:
        raise ValueError("averaging needs two representations of one group")
    if x.shape != (u.dim, v.dim):
        raise ValueError("operator shape does not match the representations")


def average_over_group(u: Rep, v: Rep, x: np.ndarray) -> np.ndarray:
    """Haar average of g -> U(g) x V(g)^dag.

    ``x`` maps the space of V into the space of U, so it is rectangular when
    the two dimensions differ. Sums over the group's quadrature nodes in
    order: the elements of a finite group, the exact angle grid of the
    circle. The result is a fixed point of the same map.
    """
    x = np.array(x, dtype=complex)
    _check_pair(u, v, x)
    if not np.isfinite(x).all():
        raise ValueError("operator has non-finite entries")
    nodes = u.group.quadrature_nodes()
    moved = u.unitary_stack(nodes) @ x @ dagger(v.unitary_stack(nodes))
    return moved.sum(axis=0) / nodes.size


def _charge_modes(x: np.ndarray, rep: CircleRep, deltas: np.ndarray) -> np.ndarray:
    """The Fourier modes x^(delta) = V (x~ * [q_a - q_b = delta]) V^dag of x
    under ``rep``, one per entry of ``deltas``, with q the realised
    frequencies, V their eigenvectors (``rep.freqs``, ``rep.vecs``) and
    x~ = V^dag x V: Ad U(theta) multiplies x^(delta) by e^{i theta delta}.
    The modes of one (d, d) operator are stacked on axis 0; those of a
    (k, d, d) stack on axis 1."""
    v, q = rep.vecs, rep.freqs
    mask = (q[:, None] - q[None, :]) == deltas[:, None, None]
    return v @ ((dagger(v) @ x @ v)[..., None, :, :] * mask) @ dagger(v)


def tensor_fixed_point_rows(rows: np.ndarray, u: Rep, v: Rep) -> np.ndarray:
    """Orthonormal rows spanning the Ad(U (x) V) fixed points of M (x) B(H_V).

    ``rows`` are orthonormal vectorised operators a_i on H_U whose span M is
    invariant under Ad U. At each quadrature node C_g[k, i] =
    <a_k, U(g) a_i U(g)^dag> is the m x m matrix of Ad U(g) on M, and
    X = sum_i a_i (x) y_i is fixed exactly when its coordinates, read as a
    map Y from H_V to W = C^m (x) H_V, intertwine V with W(g) = C_g (x) V(g).
    The rank is the trace of the group average,
    r = (1 / |nodes|) sum_g tr(C_g) |tr V(g)|^2, exact on the quadrature
    nodes of both group kinds. An intertwiner maps each eigenspace of a
    group-algebra element on H_V into the same eigenvalue's eigenspace on W,
    so the fixed points are read off eigenspaces, with no random sketch and
    no SVD:

    - circle: the labels are integer charges. V's are its ``freqs``; M's
      modes M^(delta) are the eigenvalue-1 eigenvectors of the compressions
      B_delta[k, i] = <a_k, a_i^(delta)> of ``_charge_modes``, and each
      b in M^(delta) gives the fixed points b (x) e_k e_l^dag for
      eigenvectors e_k, e_l of V with n_l - n_k = delta.
    - finite group (``_isotypic_rows``): the eigenspaces of a Hermitian
      class sum z are the isotypic components, and those of a generic
      Hermitian element h split a component of an irrep of dimension d_pi
      into d_pi eigenspaces.

    The rows are certified by sum of block counts = r, and within
    ``_FIXED_TOL`` by mode projections with eigenvalues 0 and 1 (circle) or
    by orthonormal averaged rows and their residual under ``generators()``
    (finite group). Raises ValueError when the trace is not an integer or
    the rows are not certified; either means M is not invariant.
    """
    return _fixed_points(rows, u, v)[0]


def _fixed_points(rows: np.ndarray, u: Rep, v: Rep) -> tuple[np.ndarray, list[int]]:
    """``tensor_fixed_point_rows``, and the irrep dimension d_pi of each
    isotypic component that holds fixed points (each charge shared by H_V
    and W, for the circle)."""
    if u.group != v.group:
        raise ValueError("fixed points need two representations of one group")
    d_u, d_v = u.dim, v.dim
    a = rows.reshape(-1, d_u, d_u)
    m = a.shape[0]
    nodes = u.group.quadrature_nodes()
    us = u.unitary_stack(nodes)[:, None]
    moved = (us @ a @ dagger(us)).reshape(nodes.size, m, -1)
    cs = a.reshape(m, -1).conj() @ moved.transpose(0, 2, 1)
    if isinstance(v, CircleRep):
        vs = None
        traces = np.exp(1j * np.multiply.outer(nodes, v.freqs)).sum(axis=1)
    else:
        vs = v.unitary_stack(nodes)
        traces = np.trace(vs, axis1=1, axis2=2)
    trace = complex(np.trace(cs, axis1=1, axis2=2) @ np.abs(traces) ** 2) / nodes.size
    r = int(round(trace.real))
    if abs(trace - r) > _TRACE_TOL * max(1.0, abs(trace)):
        raise ValueError(f"group-average trace {trace:.6g} is not a rank; M is not invariant")
    if r == 0:
        # The compressed average is positive, so a zero trace certifies r = 0.
        return np.zeros((0, (d_u * d_v) ** 2), dtype=complex), []
    if isinstance(v, CircleRep):
        return _charge_sector_rows(a, u, v, r)
    return _isotypic_rows(a, cs, vs, u.group, r)


def _not_certified(r: int, why: str) -> ValueError:
    return ValueError(f"fixed-point rank {r} is not certified: {why}; M is not invariant")


def _charge_sector_rows(
    a: np.ndarray, u: CircleRep, v: CircleRep, r: int
) -> tuple[np.ndarray, list[int]]:
    """``tensor_fixed_point_rows`` for the circle, from exact charges.

    B_delta is the matrix of the mode projection compressed to M, and
    sum_delta B_delta = 1 over all the differences delta of U's charges. M
    is invariant exactly when each B_delta is a projection, and then the
    eigenvalue-1 eigenvectors c give the orthonormal modes
    b = sum_i c_i a_i of M^(delta), sum_delta dim M^(delta) = m. The rows
    b (x) e_k e_l^dag are written straight into the output, one charge
    at a time.
    """
    m, d_u, _ = a.shape
    d_v = v.dim
    q = u.freqs
    deltas = np.unique(q[:, None] - q[None, :])
    flat = a.reshape(m, -1)
    modes = _charge_modes(a, u, deltas).reshape(m, deltas.size, -1)
    vals, vecs = np.linalg.eigh(flat.conj() @ modes.transpose(1, 2, 0))
    off = np.minimum(np.abs(vals), np.abs(vals - 1.0)).max()
    kept = vals > 0.5
    if off > _FIXED_TOL:
        raise _not_certified(r, f"a mode projection has an eigenvalue {off:.3e} from 0 or 1")
    n, e = v.freqs, v.vecs
    pairs = [np.nonzero(n[None, :] - n[:, None] == delta) for delta in deltas]
    count = sum(int(k.sum()) * ks.size for k, (ks, _) in zip(kept, pairs))
    if count != r:
        raise _not_certified(r, f"the charge sectors hold {count} fixed points")
    out = np.empty((r, (d_u * d_v) ** 2), dtype=complex)
    start = 0
    for k, c, (ks, ls) in zip(kept, vecs, pairs):
        size = int(k.sum()) * ks.size
        if not size:
            continue
        b = (c[:, k].T @ flat).reshape(-1, 1, d_u, 1, d_u, 1)
        y = (e[:, ks].T[:, :, None] * e[:, ls].T.conj()[:, None, :]).reshape(1, -1, 1, d_v, 1, d_v)
        block = out[start:start + size].reshape(b.shape[0], ks.size, d_u, d_v, d_u, d_v)
        np.multiply(b, y, out=block)
        start += size
    # A charge c of H_V is shared with W when some delta with M^(delta) != 0
    # has c - delta among V's charges.
    reached = deltas[kept.any(axis=1)][:, None] + n[None, :]
    charges = set(n.tolist()) & set(reached.ravel().tolist())
    return out, [1] * len(charges)


@functools.lru_cache(maxsize=8)
def _label_draws(order: int) -> np.ndarray:
    """The seeded complex Gaussian coefficients of ``_isotypic_rows``'s
    group-algebra elements, (attempts, 2, order), read-only: per attempt
    one row for the class sum and one for the generic element."""
    x = np.random.default_rng(_LABEL_SEED).standard_normal((2, _LABEL_ATTEMPTS, 2, order))
    draws = x[0] + 1j * x[1]
    draws.flags.writeable = False
    return draws


def _shared_labels(ev: np.ndarray, ew: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shared labels 0, 1, ... for the eigenvalues of one element on two
    spaces: sorted together, neighbours at most _LABEL_CUT * max(1, largest
    |value|) apart share a label."""
    vals = np.concatenate([ev, ew])
    order = np.argsort(vals, kind="stable")
    ranked = vals[order]
    cut = _LABEL_CUT * max(1.0, float(np.abs(ranked).max()))
    labels = np.empty(vals.size, dtype=int)
    labels[order] = np.concatenate([[0], np.cumsum(np.diff(ranked) > cut)])
    return labels[: ev.size], labels[ev.size:]


def _isotypic_rows(
    a: np.ndarray, cs: np.ndarray, vs: np.ndarray, group: FiniteGroup, r: int
) -> tuple[np.ndarray, list[int]]:
    """``tensor_fixed_point_rows`` for a finite group, from the first seeded
    draw that certifies the r fixed points.

    Each draw gives a Hermitian class sum z = sum_g z_g g, with
    z_{g^-1} = conj(z_g) and complex z_g, which acts on an irrep pi as a
    real scalar; real coefficients would give pi and its dual one value.
    Its eigenspaces on H_V and W, labelled together, are the isotypic
    components. A component of an irrep of dimension d_pi = 1, and every
    component of an abelian group, is fixed pointwise, so the w v^dag for
    orthonormal eigenvectors v on H_V and w on W of one label are its
    fixed points, orthonormal by construction. In a component with
    d_pi > 1 a generic Hermitian element h has d_pi eigenvalues, each with
    the same multiplicity on each side; for one such pair of eigenspaces,
    the averages
    sqrt(d_pi) / |G| sum_g (W(g) w)(V(g) v)^dag are by Schur orthogonality
    an orthonormal basis of the component's fixed points.

    Merged labels fail the count and the draw is retried, as ``decompose``
    retries; ValueError once ``_LABEL_ATTEMPTS`` draws have failed.
    """
    n_nodes, m, d_u, _ = (cs.shape[0], *a.shape)
    d_v = vs.shape[1]
    p = m * d_v
    labels, inverse, gens = group.class_labels, group.inverse, group.generators()
    abelian = labels.max() == group.order - 1
    flat_c, flat_v = cs.reshape(n_nodes, -1), vs.reshape(n_nodes, -1)

    def on_both(coef):
        """sum_g coef_g V(g) and sum_g coef_g W(g), Hermitian up to rounding
        for Hermitian coefficients; ``eigh`` reads their lower triangles."""
        zw = ((coef[:, None] * flat_c).T @ flat_v).reshape(m, m, d_v, d_v)
        return (coef @ flat_v).reshape(d_v, d_v), zw.transpose(0, 2, 1, 3).reshape(p, p)

    def averaged(wsub, vsub, d_pi):
        """The averaged fixed points of one pair of eigenspaces as
        (k, m, d_v, d_v) coordinates, their Gram matrix's deviation from the
        identity, and a bound on their residual under the generators."""
        w, n = wsub.shape[1], vsub.shape[1]
        a_g = cs @ (vs[:, None] @ wsub.reshape(1, m, d_v, w)).reshape(n_nodes, m, -1)
        b_g = vs @ vsub
        coords = np.tensordot(a_g.reshape(n_nodes, p, w), b_g.conj(), axes=(0, 0))
        coords = coords.transpose(1, 3, 0, 2).reshape(w * n, -1) * (np.sqrt(d_pi) / n_nodes)
        off = float(np.abs(coords.conj() @ coords.T - np.eye(w * n)).max())
        # W(s) X V(s)^dag - X = sqrt(d_pi) / |G| sum_g [(W(s) a_g)(V(s) b_g)^dag
        # - a_{sg} b_{sg}^dag], and each term is at most the two column residuals.
        residual = 0.0
        for s in gens:
            moved = cs[s] @ (vs[s] @ a_g.reshape(n_nodes, m, d_v, w)).reshape(n_nodes, m, -1)
            res_a = np.linalg.norm((moved - a_g[group.table[s]]).reshape(n_nodes, p, w), axis=1)
            res_b = np.linalg.norm(vs[s] @ b_g - b_g[group.table[s]], axis=1)
            residual = max(residual, np.sqrt(d_pi) * float(res_a.max() + res_b.max()))
        return coords.reshape(w * n, m, d_v, d_v), off, residual

    def certify(draw):
        """The eigenvectors qw, qv and the index pairs (iw, iv) of the
        draw's rows w v^dag, and the coordinates of its averaged rows, or
        why they fail."""
        z = draw[0][labels]
        (ev, qv), (ew, qw) = map(np.linalg.eigh, on_both((z + z[inverse].conj()) / 2.0))
        lv, lw = _shared_labels(ev, ew)
        size = max(lv.max(), lw.max()) + 1
        single = np.ones(size, dtype=bool)
        shared = np.flatnonzero(np.bincount(lv, minlength=size) * np.bincount(lw, minlength=size))
        dims, pieces, off, residual = [1] * shared.size, [], 0.0, 0.0
        hv = hw = None
        for i, c in enumerate([] if abelian else shared):
            vc, wc = qv[:, lv == c], qw[:, lw == c]
            # d_pi divides both sizes and |G|, so a gcd of 1 leaves d_pi = 1.
            if math.gcd(vc.shape[1], wc.shape[1], group.order) == 1:
                continue
            if hv is None:
                hv, hw = on_both((draw[1] + draw[1][inverse].conj()) / 2.0)
            (sv, uv), (sw, uw) = map(np.linalg.eigh, (dagger(vc) @ hv @ vc, dagger(wc) @ hw @ wc))
            sub_v, sub_w = _shared_labels(sv, sw)
            d_pi = max(sub_v.max(), sub_w.max()) + 1
            n_v, n_w = np.bincount(sub_v, minlength=d_pi), np.bincount(sub_w, minlength=d_pi)
            if (n_v != n_v[0]).any() or (n_w != n_w[0]).any():
                return "a generic element splits an isotypic component unevenly"
            if d_pi > 1:
                single[c], dims[i] = False, int(d_pi)
                coords, off_c, res_c = averaged(
                    wc @ uw[:, sub_w == 0], vc @ uv[:, sub_v == 0], d_pi
                )
                pieces.append(coords)
                off, residual = max(off, off_c), max(residual, res_c)
        iw, iv = np.nonzero((lw[:, None] == lv[None, :]) & single[lw][:, None])
        count = iw.size + sum(c.shape[0] for c in pieces)
        if count != r:
            return f"the labelled eigenspaces hold {count} fixed points"
        if iw.size and gens:
            # A row w v^dag moves under s by at most |rho_w conj(rho_v) - 1| + e_w + e_v,
            # with rho the Rayleigh quotients and e the eigen-residuals of W(s) and V(s),
            # for all generators at once.
            moved_w = cs[gens] @ (vs[gens, None] @ qw.reshape(m, d_v, p)).reshape(len(gens), m, -1)
            moved_w, moved_v = moved_w.reshape(-1, p, p), vs[gens] @ qv
            rho_w = np.einsum("pb,spb->sb", qw.conj(), moved_w)
            rho_v = np.einsum("pb,spb->sb", qv.conj(), moved_v)
            e_w = np.linalg.norm(moved_w - qw * rho_w[:, None], axis=1)
            e_v = np.linalg.norm(moved_v - qv * rho_v[:, None], axis=1)
            bound = np.abs(rho_w[:, iw] * rho_v[:, iv].conj() - 1.0) + e_w[:, iw] + e_v[:, iv]
            residual = max(residual, float(bound.max()))
        if off > _FIXED_TOL or residual > _FIXED_TOL:
            return f"Gram deviation {off:.3e} and residual {residual:.3e} under the generators"
        return (qw, qv, iw, iv, pieces), dims

    def assemble(qw, qv, iw, iv, pieces):
        """The certified rows, lifted to the tensor basis a_i (x) E_kl."""
        out = np.empty((r, (d_u * d_v) ** 2), dtype=complex)
        # Each w lifted to sum_i a_i (x) w_i, indexed (w, x, k, y) for the
        # entry (x, k), (y, l) of the row w v^dag.
        lifted = (a.reshape(m, -1).T @ qw.reshape(m, -1)).reshape(d_u, d_u, d_v, p)
        lifted = lifted.transpose(3, 0, 2, 1)[iw, ..., None]
        np.multiply(lifted, qv.T.conj()[iv, None, None, None, :],
                    out=out[: iw.size].reshape(iw.size, d_u, d_v, d_u, d_v))
        start = iw.size
        for coords in pieces:
            rows = np.tensordot(coords, a, axes=(1, 0)).transpose(0, 3, 1, 4, 2)
            out[start:start + rows.shape[0]].reshape(rows.shape)[...] = rows
            start += rows.shape[0]
        return out

    why = ""
    for draw in _label_draws(group.order):
        got = certify(draw)
        if isinstance(got, str):
            why = got
            continue
        blocks, dims = got
        return assemble(*blocks), dims
    raise _not_certified(r, f"{why}, on each of {_LABEL_ATTEMPTS} draws")


def fixed_point_rows(u: Rep) -> np.ndarray:
    """Orthonormal basis (as vectorised rows) of {x : U(g) x U(g)^dag = x}.

    The kernel ``tensor_fixed_point_rows`` on the scalars C of a trivial
    one-dimensional representation, so that C (x) B(H_U) = B(H_U).
    """
    return tensor_fixed_point_rows(np.ones((1, 1), dtype=complex), trivial_rep(u.group, 1), u)


def fixed_point_algebra(u: Rep) -> OperatorAlgebra:
    """Fixed points of the adjoint action, packaged as an algebra."""
    alg = OperatorAlgebra(u.dim, fixed_point_rows(u))
    alg.validate()
    return alg


def _permutation_rep(group: FiniteGroup, images: np.ndarray) -> FiniteRep:
    """The rep whose g-th matrix sends |h> to |images[g, h]>."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    idx = np.arange(n)
    mats[idx[:, None], images, idx[None, :]] = 1.0
    return FiniteRep(group, mats)


def regular_representation(group: SymmetryGroup) -> FiniteRep:
    """Left regular representation, lambda(g)|h> = |gh>."""
    if isinstance(group, CircleGroup):
        raise ValueError("regular representation not finite-dimensional")
    return _permutation_rep(group, group.table)


def right_regular_representation(group: SymmetryGroup) -> FiniteRep:
    """Right regular representation, rho(g)|h> = |h g^-1>."""
    if isinstance(group, CircleGroup):
        raise ValueError("regular representation not finite-dimensional")
    return _permutation_rep(group, group.table[:, group.inverse].T)


@dataclass
class HomogeneousSpace:
    """Left cosets of a subgroup, with the left action tabulated.

    ``subgroup`` is a set of element indices; cosets are stored as sorted
    tuples with the smallest member as representative. ``action[g, s]`` is
    the cell g . (s H), for s H the coset of cell s.
    """

    group: FiniteGroup
    subgroup: tuple[int, ...]
    cosets: list[tuple[int, ...]] = field(init=False)
    representatives: list[int] = field(init=False)
    coset_index: np.ndarray = field(init=False)
    action: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        g = self.group
        sub = tuple(sorted(set(int(s) for s in self.subgroup)))
        if any(not 0 <= s < g.order for s in sub):
            raise ValueError(f"subgroup indices must lie in [0, {g.order})")
        if g.identity not in sub:
            raise ValueError("subgroup must contain the identity")
        for a in sub:
            if g.inverse[a] not in sub:
                raise ValueError("subgroup is not closed under inverses")
            for b in sub:
                if g.table[a, b] not in sub:
                    raise ValueError("subgroup is not closed under products")
        self.subgroup = sub
        seen: dict[int, int] = {}
        cosets: list[tuple[int, ...]] = []
        for e in range(g.order):
            if e in seen:
                continue
            cs = tuple(sorted(int(g.table[e, s]) for s in sub))
            for member in cs:
                seen[member] = len(cosets)
            cosets.append(cs)
        self.cosets = cosets
        self.representatives = [c[0] for c in cosets]
        idx = np.zeros(g.order, dtype=int)
        for e, c in seen.items():
            idx[e] = c
        self.coset_index = idx
        self.action = idx[g.table[:, self.representatives]]

    @property
    def size(self) -> int:
        return len(self.cosets)

    @property
    def principal(self) -> bool:
        return len(self.subgroup) == 1

    def cell_permutations(self) -> tuple[np.ndarray, np.ndarray]:
        """Every group element g, with row g of ``action`` mapping s -> g . s."""
        return self.group.quadrature_nodes(), self.action
