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
from a character formula and its basis from a seeded Gaussian sketch of the
group average, at (r + 10) m d_v^2 (2 d_v + m) flops per node for r fixed
points, so no operator on the joint space and no superoperator is built.
``fixed_point_rows`` is that kernel on the scalars, and the crossed-product
and frame checks call it on the system algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .opcore import DEFAULT_TOL, _operator_stack, as_operator, dagger, hermitian_eig, rel_err
from .vnalg import OperatorAlgebra

# The seeded range sketch of ``tensor_fixed_point_rows``: samples beyond the
# rank, and the seed, so that runs are reproducible.
_SKETCH_OVERSAMPLE = 10
_SKETCH_SEED = 7
# The rank r is certified when sigma_{r-1} >= _SKETCH_GAP * sigma_0 and
# sigma_r <= _SKETCH_GAP * sigma_{r-1} (0-based, descending).
_SKETCH_GAP = 1.0e-6
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
        if any((t[t, s] != t[:, t[:, s]]).any() for s in self.generators()):
            raise ValueError("Cayley table is not associative")

    @property
    def order(self) -> int:
        return len(self.labels)

    def quadrature_nodes(self) -> np.ndarray:
        """Element indices; the Haar average gives each weight 1 / order."""
        return np.arange(self.order)

    def generators(self) -> list[int]:
        """A generating set, chosen greedily in index order from the table.

        Each element not yet reached is added, and the reached set grows to
        the subgroup it generates with the ones before it; in a finite group
        the products of generators already reach every inverse. The identity
        is never listed, so the trivial group has none.
        """
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


def tensor_fixed_point_rows(rows: np.ndarray, u: Rep, v: Rep) -> np.ndarray:
    """Orthonormal rows spanning the Ad(U (x) V) fixed points of M (x) B(H_V).

    ``rows`` are orthonormal vectorised operators a_i on H_U whose span M is
    invariant under Ad U. Everything is computed in M's own coordinates: at
    each quadrature node, C_g[k, i] = <a_k, U(g) a_i U(g)^dag> is the m x m
    matrix of Ad U(g) on M, and Ad(U (x) V)(g) acts on coordinates
    y_i in B(H_V) as C_g (x) Ad V(g). On M (x) B(H_V) the group average is
    then a Hermitian projection, and its rank is its trace,
    r = (1 / |nodes|) sum_g tr(C_g) |tr V(g)|^2, exact on the quadrature nodes
    of both group kinds. A seeded Gaussian sketch of its range (Halko,
    Martinsson & Tropp, SIAM Rev. 53 (2011) 217) takes the fixed points: r + p
    random coordinate stacks y are summed as sum_g C_g . (V(g) y V(g)^dag),
    the V-conjugation as two GEMMs over the whole sketch, and the top r right
    singular vectors of a thin SVD are the coordinates of the fixed points in
    the tensor basis a_i (x) E_kl. A node costs (r + p) m d_v^2 (2 d_v + m)
    flops on the sketch; no operator on the joint space is conjugated. Raises
    ValueError when the trace is not an integer or the singular values do not
    separate at r; either means M is not invariant.
    """
    if u.group != v.group:
        raise ValueError("fixed points need two representations of one group")
    d_u, d_v = u.dim, v.dim
    a = rows.reshape(-1, d_u, d_u)
    m = a.shape[0]
    a_conj = a.reshape(m, -1).conj()
    nodes = u.group.quadrature_nodes()
    vs = v.unitary_stack(nodes)
    cs = np.empty((nodes.size, m, m), dtype=complex)
    for c, ug in zip(cs, u.unitary_stack(nodes)):
        c[...] = a_conj @ (ug @ a @ dagger(ug)).reshape(m, -1).T
    chi = np.trace(cs, axis1=1, axis2=2)
    trace = complex(chi @ np.abs(np.trace(vs, axis1=1, axis2=2)) ** 2) / nodes.size
    r = int(round(trace.real))
    if abs(trace - r) > _TRACE_TOL * max(1.0, abs(trace)):
        raise ValueError(f"group-average trace {trace:.6g} is not a rank; M is not invariant")

    rng = np.random.default_rng(_SKETCH_SEED)
    s = r + _SKETCH_OVERSAMPLE
    shape = (s, m, d_v, d_v)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # Held as (k, i, sample, l) for y[sample, i, k, l]: left and right
    # multiplication on H_V are then each one GEMM over the whole sketch.
    y = np.ascontiguousarray(y.transpose(2, 1, 0, 3))
    acc = np.zeros_like(y)
    for c, vg in zip(cs, vs):
        left = (vg @ y.reshape(d_v, -1)).reshape(d_v, m, s * d_v)
        acc += ((c @ left).reshape(-1, d_v) @ dagger(vg)).reshape(acc.shape)
    coords = acc.transpose(2, 1, 0, 3).reshape(s, m * d_v * d_v)
    _, sv, vh = np.linalg.svd(coords, full_matrices=False)
    sv = np.append(sv, 0.0)
    # The compressed average is positive, so a zero trace already certifies
    # r = 0.
    if r and (sv[r - 1] < _SKETCH_GAP * sv[0] or sv[r] > _SKETCH_GAP * sv[r - 1]):
        raise ValueError(
            f"fixed-point rank {r} is not certified: singular values {sv[r - 1]:.3e} and "
            f"{sv[r]:.3e} at the cut; M is not invariant"
        )
    fixed = vh[:r].reshape(r, m, d_v, d_v)
    return np.einsum("rmkl,mij->rikjl", fixed, a).reshape(r, (d_u * d_v) ** 2)


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
