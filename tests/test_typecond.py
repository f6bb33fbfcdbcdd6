import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from qrflab.typecond import (
    CONDITION_FAILS,
    FAILS_MEANING,
    FINITE,
    INFINITE,
    NOT_EVALUATED,
    SpectralMultiplicity,
    desitter_condition,
    evaluate_condition,
    indicator,
    kms_weight_on_step,
    so3_partition_multiplicity,
    trace_of_band,
)

# Values below are pinned from closed forms evaluated independently:
#   integral of e^{-x} over [0, inf)            = 1
#   e - 1                                       = 1.7182818284590452
#   e^1 - e^{-2}                                = 2.5829465452224325
#   sum (2l+1)^2 exp(-l(l+1)) to convergence    = 2.2802875869162525
E_MINUS_ONE = 1.7182818284590452
BAND_TRACE = 2.5829465452224325
ROTOR_SUM = 2.2802875869162525


@st.composite
def step_multiplicities(draw, low=-3.0, high=6.0):
    cuts = sorted(draw(st.lists(
        st.floats(low, high, allow_nan=False, allow_infinity=False),
        min_size=2, max_size=8, unique=True,
    )))
    terms = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        w = draw(st.integers(0, 4))
        if w:
            terms.append((w, lo, hi))
    assume(terms)
    return SpectralMultiplicity(terms)


betas = st.floats(0.05, 8.0, allow_nan=False)


class TestConstruction:
    def test_infinite_weight_is_a_singleton(self):
        assert type(INFINITE)() is INFINITE
        assert repr(INFINITE) == "INFINITE"

    def test_zero_weights_are_dropped(self):
        assert SpectralMultiplicity([(0, 0.0, 1.0)]).canonical() == ()

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="non-negative integers or INFINITE"):
            SpectralMultiplicity([(-1, 0.0, 1.0)])

    def test_rejects_bool_weight(self):
        with pytest.raises(ValueError, match="non-negative integers or INFINITE"):
            SpectralMultiplicity([(True, 0.0, 1.0)])

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="need lower < upper"):
            SpectralMultiplicity([(1, 1.0, 1.0)])

    def test_rejects_nan_endpoint(self):
        with pytest.raises(ValueError, match="need lower < upper"):
            SpectralMultiplicity([(1, float("nan"), 1.0)])

    @given(step_multiplicities())
    def test_canonical_is_sorted_disjoint_positive(self, m):
        terms = m.canonical()
        for w, lo, hi in terms:
            assert lo < hi
            assert w is INFINITE or w > 0
        for (_, _, hi), (_, lo, _) in zip(terms[:-1], terms[1:]):
            assert hi <= lo
        # adjacent terms with equal weight would have been merged
        for (w1, _, hi), (w2, lo, _) in zip(terms[:-1], terms[1:]):
            assert not (hi == lo and w1 == w2)

    @given(step_multiplicities())
    @example(SpectralMultiplicity([(1, 5.999999999999999, 6.0)]))
    def test_weight_at_matches_term_cover(self, m):
        for w, lo, hi in m.canonical():
            mid = lo + (hi - lo) / 2
            # Between adjacent doubles the midpoint rounds onto an end;
            # lo is then the only point inside the right-open term.
            point = mid if lo < mid < hi else lo
            assert m.weight_at(point) == w

    @given(step_multiplicities())
    def test_midpoint_rechunking_is_invisible(self, m):
        split = []
        for w, lo, hi in m.canonical():
            mid = lo + (hi - lo) / 2
            if lo < mid < hi:
                split += [(w, lo, mid), (w, mid, hi)]
            else:
                split.append((w, lo, hi))
        assert SpectralMultiplicity(split).canonical() == m.canonical()


class TestEvaluate:
    def test_halfline_scales_inversely_with_beta(self):
        m = indicator([(0.0, math.inf)])
        for beta in (0.5, 1.0, 2.0, 3.7):
            v = evaluate_condition(m, beta)
            assert v.status == FINITE
            assert math.isclose(v.integral, 1.0 / beta, rel_tol=1e-14)

    def test_window_matches_closed_form(self):
        v = evaluate_condition(indicator([(0.0, 2.0)]), 1.0)
        assert math.isclose(v.integral, -math.expm1(-2.0), rel_tol=1e-14)

    def test_left_unbounded_band_fails(self):
        v = evaluate_condition(indicator([(-math.inf, math.inf)]), 1.0)
        assert v.status == CONDITION_FAILS
        assert v.integral == math.inf
        assert FAILS_MEANING in v.detail
        assert not v.finite

    def test_infinite_multiplicity_fails(self):
        v = evaluate_condition(SpectralMultiplicity([(INFINITE, 0.0, 1.0)]), 1.0)
        assert v.status == CONDITION_FAILS
        assert "infinite multiplicity" in v.detail

    def test_rejects_bad_beta(self):
        m = indicator([(0.0, 1.0)])
        for beta in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="inverse temperature"):
                evaluate_condition(m, beta)

    @given(step_multiplicities(), step_multiplicities(), betas)
    def test_additive_over_term_lists(self, m1, m2, beta):
        joined = SpectralMultiplicity(list(m1.canonical()) + list(m2.canonical()))
        total = evaluate_condition(joined, beta).integral
        parts = evaluate_condition(m1, beta).integral + evaluate_condition(m2, beta).integral
        assert math.isclose(total, parts, rel_tol=1e-11, abs_tol=1e-13)

    @given(step_multiplicities(low=0.0), betas, betas)
    def test_monotone_in_beta_on_positive_support(self, m, b1, b2):
        lo, hi = sorted((b1, b2))
        assume(hi > lo)
        cold = evaluate_condition(m, hi).integral
        hot = evaluate_condition(m, lo).integral
        assert cold <= hot * (1 + 1e-12)

    @pytest.mark.parametrize("width", [5e-324, 1e-310, 3e-308])
    def test_a_subnormal_segment_is_its_width_at_every_beta(self, width):
        # beta * width is subnormal or zero: the hypothesis example
        # (1, 0.0, 5e-324) gave 5e-324 at beta = 1 and 0.0 at beta = 1/2
        m = SpectralMultiplicity([(1, 0.0, width)])
        for beta in (0.5, 1.0, 2.0):
            assert evaluate_condition(m, beta).integral == width

    def test_agrees_with_simpson_quadrature(self):
        m = SpectralMultiplicity([(1, 0.0, 1.0), (3, 1.0, 2.5), (2, 4.0, 6.0)])
        for beta in (0.5, 1.3):
            total = 0.0
            for w, lo, hi in m.canonical():
                xs = np.linspace(lo, hi, 801)
                ys = np.exp(-beta * xs)
                h = (hi - lo) / 800
                total += w * h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
            assert abs(evaluate_condition(m, beta).integral - total) < 1e-7


class TestTraceOfBand:
    def test_unit_band(self):
        assert math.isclose(trace_of_band([(0.0, 1.0)]), E_MINUS_ONE, abs_tol=1e-12)

    def test_shifted_band(self):
        assert math.isclose(trace_of_band([(-2.0, 1.0)]), BAND_TRACE, abs_tol=1e-12)

    def test_unbounded_band_is_infinite(self):
        assert trace_of_band([(0.0, math.inf)]) == math.inf

    def test_rescaled_halfline_is_one_for_every_beta(self):
        m = indicator([(0.0, math.inf)])
        for beta in (0.5, 1.0, 2.0):
            assert math.isclose(trace_of_band(multiplicity=m, beta=beta), 1.0, rel_tol=1e-14)

    def test_mode_mixing_is_rejected(self):
        with pytest.raises(ValueError, match="either intervals alone or multiplicity with beta"):
            trace_of_band([(0.0, 1.0)], multiplicity=indicator([(0.0, 1.0)]), beta=1.0)
        with pytest.raises(ValueError, match="either intervals alone or multiplicity with beta"):
            trace_of_band()


class TestKmsWeight:
    def test_matches_l1_times_integral(self, rng):
        m = indicator([(0.0, math.inf)])
        reference = evaluate_condition(m, 1.7).integral
        for _ in range(50):
            cuts = np.sort(rng.uniform(-4.0, 4.0, size=6))
            steps = [(float(rng.uniform(0.1, 3.0)), float(a), float(b))
                     for a, b in zip(cuts[:-1], cuts[1:])]
            l1 = sum(h * (b - a) for h, a, b in steps)
            got = kms_weight_on_step(steps, m, 1.7)
            assert math.isclose(got, l1 * reference, rel_tol=1e-12)

    def test_zero_function_gives_zero_weight(self):
        assert kms_weight_on_step([(0.0, 0.0, 1.0)], indicator([(0.0, 1.0)]), 1.0) == 0.0

    def test_failing_condition_gives_infinite_weight(self):
        m = SpectralMultiplicity([(INFINITE, 0.0, 1.0)])
        assert kms_weight_on_step([(1.0, 0.0, 1.0)], m, 1.0) == math.inf

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError, match="must be non-negative"):
            kms_weight_on_step([(-1.0, 0.0, 1.0)], indicator([(0.0, 1.0)]), 1.0)

    def test_rejects_unbounded_piece(self):
        with pytest.raises(ValueError, match="must be bounded"):
            kms_weight_on_step([(1.0, 0.0, math.inf)], indicator([(0.0, 1.0)]), 1.0)


class TestPartitionSums:
    def test_rotor_sum_hits_pinned_value(self):
        res = so3_partition_multiplicity(lambda l: float(l * (l + 1)), 1.0, target=1e-9)
        assert res.verdict.status == FINITE
        assert res.verdict.remainder_bound <= 1e-9
        assert abs(res.value - ROTOR_SUM) <= res.verdict.remainder_bound
        assert res.terms_used == 5

    def test_truncated_multiplicity_reproduces_the_sum(self):
        # Each level contributes (2l+1)^2 e^{-beta E_l}/beta to the plain
        # integral, so the beta-rescaled band trace recovers the sum itself.
        res = so3_partition_multiplicity(lambda l: float(l * (l + 1)), 2.0, target=1e-9)
        rescaled = trace_of_band(multiplicity=res.multiplicity, beta=2.0)
        assert math.isclose(rescaled, res.value, rel_tol=1e-12)

    def test_explicit_finite_spectrum_is_exact(self):
        res = so3_partition_multiplicity([0.0, 1.0], 1.0)
        assert res.verdict.status == FINITE
        assert res.verdict.remainder_bound == 0.0
        assert math.isclose(res.value, 1.0 + 9.0 * math.exp(-1.0), rel_tol=1e-15)

    def test_logarithmic_spectrum_never_decays(self):
        res = so3_partition_multiplicity(lambda l: 2.0 * math.log(2 * l + 1), 1.0)
        assert res.verdict.status == CONDITION_FAILS
        assert "stopped decaying" in res.verdict.detail

    def test_budget_exhaustion_is_inconclusive(self):
        res = so3_partition_multiplicity(lambda l: 0.05 * l, 1.0, max_terms=10)
        assert res.verdict.status == NOT_EVALUATED
        assert math.isnan(res.verdict.integral)

    def test_rejects_decreasing_energies(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            so3_partition_multiplicity([1.0, 0.5], 1.0)

    def test_decreasing_energies_are_rejected_before_the_weight_overflows(self):
        # e^{-beta E} overflows at E = -1e6; the order check comes first.
        with pytest.raises(ValueError, match="nondecreasing"):
            so3_partition_multiplicity([0.0, -1.0e6], 1.0)

    @pytest.mark.parametrize("energy, kwargs, levels", [
        (lambda l: float(l * (l + 1)), {}, 5),
        (lambda l: 2.0 * math.log(2 * l + 1), {}, 17),
        (lambda l: 0.05 * l, {"max_terms": 10}, 10),
    ], ids=["rotor", "log", "budget"])
    def test_each_level_is_read_once(self, energy, kwargs, levels):
        reads = []

        def spy(l):
            reads.append(l)
            return energy(l)

        so3_partition_multiplicity(spy, 1.0, **kwargs)
        assert reads == list(range(levels))


def staircase(levels):
    """The canonical multiplicity of levels E_0 <= E_1 <= ...: the weight
    sum_{k<=l} (2k+1)^2 on [E_l, E_{l+1}), with the last step unbounded."""
    out, weight = [], 0
    for l, e in enumerate(levels):
        weight += (2 * l + 1) ** 2
        if l + 1 < len(levels) and levels[l + 1] == e:
            continue
        out.append((weight, e, levels[l + 1] if l + 1 < len(levels) else math.inf))
    return tuple(out)


def rotor(l):
    return float(l * (l + 1))


def log_levels(l):
    return 2.0 * math.log(2 * l + 1)


# energies, beta, keywords, then the pinned status, value, remainder_bound,
# detail, terms_used and the number of levels the multiplicity keeps (a
# non-decaying last level is counted in terms_used but not kept).
PARTITION_SWEEP = {
    "rotor-beta1": (rotor, 1.0, {}, FINITE, 2.28028758690493, 9.263377548803764e-11, "", 5, 5),
    "rotor-beta2": (rotor, 2.0, {}, FINITE, 1.1649943571572565, 2.2276965535496637e-14, "", 4, 4),
    "log": (log_levels, 1.0, {}, CONDITION_FAILS, math.inf, 0.0,
            f"{FAILS_MEANING}: terms stopped decaying at level 16", 17, 16),
    "explicit": ([0.0, 1.0, 2.5, 2.5, 7.0], 0.7, {}, FINITE, 18.9317127782005, 0.0, "", 5, 5),
    "budget": (lambda l: 0.05 * l, 1.0, {"max_terms": 10}, NOT_EVALUATED, math.nan, 0.0,
               "no verdict within 10 terms", 10, 10),
}


@pytest.mark.parametrize("case", PARTITION_SWEEP)
def test_partition_sweep_matches_pinned_values(case):
    energies, beta, kwargs, status, value, bound, detail, terms_used, kept = PARTITION_SWEEP[case]
    res = so3_partition_multiplicity(energies, beta, **kwargs)
    assert res.verdict.status == status
    assert res.value == value or (math.isnan(value) and math.isnan(res.value))
    assert res.verdict.remainder_bound == bound
    assert res.verdict.detail == detail
    assert res.terms_used == terms_used
    levels = [energies(l) if callable(energies) else energies[l] for l in range(kept)]
    assert res.multiplicity.canonical() == staircase(levels)


def test_desitter_condition_is_indicator_evaluation():
    intervals = [(-1.0, 0.5), (2.0, math.inf)]
    direct = desitter_condition(intervals, 1.3)
    via = evaluate_condition(indicator(intervals), 1.3)
    assert direct == via
