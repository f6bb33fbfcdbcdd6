"""Analytic type analysis for crossed products by the real line.

Continuous crossed products are too large to hold as matrices, but the
question that matters about them reduces to integrability of a spectral
multiplicity function against an exponential density. This module keeps
multiplicities as exact step data (weights on right-open intervals, with an
explicit symbol for infinite weight) and evaluates every integral in
closed form, so the only approximation anywhere is the truncation of
infinite series, and that truncation carries a certified remainder bound.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

FINITE = "FINITE"
CONDITION_FAILS = "CONDITION_FAILS"
NOT_EVALUATED = "NOT_EVALUATED"

# A CONDITION_FAILS verdict signals that the sufficient integrability
# condition fails; it does not by itself decide anything further.
FAILS_MEANING = "sufficient condition fails"


class _InfiniteWeight:
    """Explicit symbol for infinite multiplicity; never a large float."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _InfiniteWeight()

Weight = int | _InfiniteWeight


def _check_weight(w: Weight) -> Weight:
    if isinstance(w, _InfiniteWeight):
        return w
    if isinstance(w, bool) or not isinstance(w, int):
        raise ValueError("weights must be non-negative integers or INFINITE")
    if w < 0:
        raise ValueError("weights must be non-negative integers or INFINITE")
    return w


def _check_interval(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = float(lo), float(hi)
    if math.isnan(lo) or math.isnan(hi) or not lo < hi:
        raise ValueError(f"need lower < upper, got [{lo}, {hi})")
    if lo == math.inf or hi == -math.inf:
        raise ValueError(f"need lower < upper, got [{lo}, {hi})")
    return lo, hi


@dataclass(frozen=True)
class SpectralMultiplicity:
    """A multiplicity function as weighted right-open intervals.

    Terms may overlap; overlapping weights add. ``canonical`` rewrites the
    sum as sorted disjoint intervals with constant positive weight, which
    every evaluation below goes through, so re-chunking the same function
    never changes a result.
    """

    terms: tuple[tuple[Weight, float, float], ...]

    def __init__(self, terms: Sequence[tuple[Weight, float, float]]):
        clean = []
        for w, lo, hi in terms:
            w = _check_weight(w)
            lo, hi = _check_interval(lo, hi)
            if w is INFINITE or w > 0:
                clean.append((w, lo, hi))
        object.__setattr__(self, "terms", tuple(clean))

    def canonical(self) -> tuple[tuple[Weight, float, float], ...]:
        if not self.terms:
            return ()
        cuts = sorted({x for _, lo, hi in self.terms for x in (lo, hi)})
        pieces: list[tuple[Weight, float, float]] = []
        for a, b in zip(cuts, cuts[1:]):
            total: Weight = 0
            for w, lo, hi in self.terms:
                if lo <= a and b <= hi:
                    if w is INFINITE or total is INFINITE:
                        total = INFINITE
                    else:
                        total += w
            if total is INFINITE or total > 0:
                if pieces and pieces[-1][2] == a and pieces[-1][0] == total:
                    prev = pieces.pop()
                    pieces.append((total, prev[1], b))
                else:
                    pieces.append((total, a, b))
        return tuple(pieces)

    def weight_at(self, xi: float) -> Weight:
        total: Weight = 0
        for w, lo, hi in self.terms:
            if lo <= xi < hi:
                if w is INFINITE or total is INFINITE:
                    return INFINITE
                total += w
        return total


def indicator(intervals: Sequence[tuple[float, float]]) -> SpectralMultiplicity:
    """Multiplicity one on a union of right-open intervals."""
    return SpectralMultiplicity([(1, lo, hi) for lo, hi in intervals])


@dataclass(frozen=True)
class TypeVerdict:
    """Outcome of the integrability test, with the certified numbers."""

    status: str
    integral: float
    remainder_bound: float = 0.0
    detail: str = ""

    @property
    def finite(self) -> bool:
        return self.status == FINITE


def _segment_integral(beta: float, lo: float, hi: float) -> float:
    # integral over [lo, hi) of e^{-beta xi} d xi; expm1 keeps short
    # segments accurate, where e^{-beta lo} - e^{-beta hi} would cancel
    if hi == math.inf:
        return math.exp(-beta * lo) / beta
    if beta * (hi - lo) < sys.float_info.min:
        # A subnormal beta (hi - lo) has lost bits, or is 0.0, so dividing
        # it by beta again would not give back hi - lo; expm1(-x) = -x here.
        return math.exp(-beta * lo) * (hi - lo)
    return -math.exp(-beta * lo) * math.expm1(-beta * (hi - lo)) / beta


def evaluate_condition(m: SpectralMultiplicity, beta: float) -> TypeVerdict:
    """Closed-form test of integral e^{-beta xi} m(xi) d xi < infinity.

    Any interval of infinite weight with positive length fails the
    condition, as does any positive weight reaching down to -infinity;
    otherwise the integral is a finite sum of exponentials.
    """
    _check_beta(beta)
    total = 0.0
    for w, lo, hi in m.canonical():
        if w is INFINITE:
            return TypeVerdict(
                CONDITION_FAILS,
                math.inf,
                detail=f"{FAILS_MEANING}: infinite multiplicity on [{lo}, {hi})",
            )
        if lo == -math.inf:
            return TypeVerdict(
                CONDITION_FAILS,
                math.inf,
                detail=f"{FAILS_MEANING}: weight {w} extends to -infinity",
            )
        total += w * _segment_integral(beta, lo, hi)
    return TypeVerdict(FINITE, total)


def _check_beta(beta: float) -> None:
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError("inverse temperature must be positive and finite")


def trace_of_band(
    intervals: Sequence[tuple[float, float]] | None = None,
    *,
    beta: float | None = None,
    multiplicity: SpectralMultiplicity | None = None,
) -> float:
    """Trace weight of a spectral band projection.

    With ``intervals`` alone this is the unrescaled weight, the integral of
    e^xi over the band; an unbounded band gives +inf, reported rather than
    raised. With ``multiplicity`` and ``beta`` it is the rescaled weight
    beta * integral of e^{-beta xi} m(xi) d xi.
    """
    if intervals is not None:
        if beta is not None or multiplicity is not None:
            raise ValueError("pass either intervals alone or multiplicity with beta")
        total = 0.0
        for lo, hi in intervals:
            lo, hi = _check_interval(lo, hi)
            if hi == math.inf:
                return math.inf
            low = 0.0 if lo == -math.inf else math.exp(lo)
            total += math.exp(hi) - low
        return total
    if multiplicity is None or beta is None:
        raise ValueError("pass either intervals alone or multiplicity with beta")
    _check_beta(beta)
    verdict = evaluate_condition(multiplicity, beta)
    if not verdict.finite:
        return math.inf
    return beta * verdict.integral


def kms_weight_on_step(
    f_steps: Sequence[tuple[float, float, float]],
    multiplicity: SpectralMultiplicity,
    beta: float,
) -> float:
    """Weight of a smeared band operator built from a step function.

    ``f_steps`` lists (height, lo, hi) pieces of a non-negative step
    function on the line of the translation parameter; the weight factorises
    as its L1 norm times the spectral integral.
    """
    _check_beta(beta)
    l1 = 0.0
    for height, lo, hi in f_steps:
        lo, hi = _check_interval(lo, hi)
        if not math.isfinite(lo) or not math.isfinite(hi):
            raise ValueError("step function pieces must be bounded")
        if not math.isfinite(height) or height < 0.0:
            raise ValueError("step function heights must be non-negative")
        l1 += height * (hi - lo)
    if l1 == 0.0:
        return 0.0
    verdict = evaluate_condition(multiplicity, beta)
    if not verdict.finite:
        return math.inf
    return l1 * verdict.integral


@dataclass(frozen=True)
class PartitionResult:
    """Adaptively truncated rotation-invariant partition sum."""

    verdict: TypeVerdict
    terms_used: int
    multiplicity: SpectralMultiplicity

    @property
    def value(self) -> float:
        return self.verdict.integral


def so3_partition_multiplicity(
    energies: Callable[[int], float] | Sequence[float],
    beta: float,
    target: float = 1.0e-9,
    max_terms: int = 100000,
) -> PartitionResult:
    """Sum of (2l+1)^2 e^{-beta E_l} with a certified geometric tail bound.

    The level-l rotation eigenspace on the group carries multiplicity
    (2l+1)^2 above energy E_l. Summation stops once the next term, divided
    by one minus the observed decay ratio, falls below ``target``; sixteen
    consecutive non-decaying ratios give a failure verdict instead.
    """
    _check_beta(beta)
    if not math.isfinite(target) or target <= 0.0:
        raise ValueError("remainder target must be positive")

    def level(l: int, floor: float) -> tuple[float, float]:
        """(E_l, (2l+1)^2 e^{-beta E_l}), reading level l once; E_l >= floor."""
        e = float(energies(l) if callable(energies) else energies[l])
        if not math.isfinite(e):
            raise ValueError(f"energy at level {l} is not finite")
        if e < floor:
            raise ValueError("energies must be nondecreasing")
        return e, (2 * l + 1) ** 2 * math.exp(-beta * e)

    limit = max_terms if callable(energies) else min(max_terms, len(energies))
    if limit < 1:
        raise ValueError("need at least one energy level")

    e_cur, s_cur = level(0, -math.inf)
    total = s_cur
    bad_ratios = 0
    terms = [(1, e_cur)]
    for l in range(0, limit - 1):
        e_next, s_next = level(l + 1, e_cur)
        ratio = s_next / s_cur if s_cur > 0.0 else math.inf
        # Ratios within rounding of 1 count as non-decaying: a tail bound
        # of s/(1-r) with r that close to 1 could never certify anything.
        if ratio >= 1.0 - 1e-12:
            bad_ratios += 1
            if bad_ratios >= 16:
                verdict = TypeVerdict(
                    CONDITION_FAILS,
                    math.inf,
                    detail=f"{FAILS_MEANING}: terms stopped decaying at level {l + 1}",
                )
                return PartitionResult(verdict, l + 2, _so3_multiplicity(terms))
        else:
            bad_ratios = 0
        total += s_next
        terms.append(((2 * (l + 1) + 1) ** 2, e_next))
        if ratio < 1.0 - 1e-12:
            tail = s_next * ratio / (1.0 - ratio)
            if tail < target:
                verdict = TypeVerdict(FINITE, total, remainder_bound=tail)
                return PartitionResult(verdict, l + 2, _so3_multiplicity(terms))
        e_cur, s_cur = e_next, s_next
    if not callable(energies) and limit == len(energies):
        # A finite level list is a complete spectrum; the sum is exact.
        verdict = TypeVerdict(FINITE, total, remainder_bound=0.0)
        return PartitionResult(verdict, limit, _so3_multiplicity(terms))
    verdict = TypeVerdict(
        NOT_EVALUATED,
        math.nan,
        detail=f"no verdict within {max_terms} terms",
    )
    return PartitionResult(verdict, limit, _so3_multiplicity(terms))


def _so3_multiplicity(terms: list[tuple[int, float]]) -> SpectralMultiplicity:
    return SpectralMultiplicity([(w, e, math.inf) for w, e in terms])


def desitter_condition(
    intervals: Sequence[tuple[float, float]], beta: float
) -> TypeVerdict:
    """Integrability test for an observer band of boost frequencies.

    The multiplicity is the indicator of the given union of intervals; the
    condition holds exactly when the band is bounded below, and the
    integral is then a plain sum of exponentials.
    """
    return evaluate_condition(indicator(intervals), beta)
