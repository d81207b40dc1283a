"""Degeneracy residuals, curve inversion, slopes, endpoints and traces."""

import math
import random

import mpmath
import numpy as np
import pytest

import qposc.degeneracy
from qposc import (ConsistencyError, CurveTrace, DeformationPoint,
                   DegeneracyCondition, DomainError, PowerFamily, endpoint_q,
                   energy_level, implicit_derivative, residual,
                   solve_degeneracy_on_family, solve_p_for_q, trace_curve)
from qposc.degeneracy import bisect_bracket

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def ground_p_closed(q):
    # explicit E_0 = E_2 curve
    return 0.5 * (-1.0 - q + math.sqrt((1.0 + q) * (1.0 - 3.0 * q) + 4.0))


def bisect_oracle(f, lo, hi):
    # plain midpoint bisection, independent of the package root finder
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCondition:
    def test_kinds(self):
        assert DegeneracyCondition(0, 2).kind == "ground"
        assert DegeneracyCondition(0, 6).kind == "ground"
        assert DegeneracyCondition(1, 2).kind == "neighbor"
        assert DegeneracyCondition(4, 5).kind == "neighbor"
        assert DegeneracyCondition(0, 1).kind == "general"
        assert DegeneracyCondition(2, 5).kind == "general"

    @pytest.mark.parametrize("m1,m2", [(0, 0), (2, 2), (3, 1), (-1, 2)])
    def test_invalid_pairs(self, m1, m2):
        with pytest.raises(DomainError):
            DegeneracyCondition(m1, m2)

    def test_numpy_integer_indices(self):
        cond = DegeneracyCondition(np.int64(0), np.int64(2))
        assert cond == DegeneracyCondition(0, 2)
        assert type(cond.m1) is int and type(cond.m2) is int
        assert repr(cond) == "DegeneracyCondition(m1=0, m2=2)"
        for m1, m2 in ((False, 2), (0, True), (0.0, 2)):
            with pytest.raises(DomainError, match="non-negative integers"):
                DegeneracyCondition(m1, m2)


class TestResidual:
    def test_known_zeros(self):
        cond = DegeneracyCondition(0, 2)
        third = 1.0 / 3.0
        assert residual(cond, DeformationPoint(third, third)) == pytest.approx(0.0, abs=1e-12)
        assert residual(cond, DeformationPoint(GOLDEN, 0.0)) == pytest.approx(0.0, abs=1e-12)
        assert residual(DegeneracyCondition(1, 2), DeformationPoint(0.0, 1.0)) == 0.0

    def test_symmetric_in_q_and_p(self):
        rng = np.random.default_rng(5)
        conds = [DegeneracyCondition(0, m) for m in range(2, 7)]
        conds += [DegeneracyCondition(m, m + 1) for m in range(1, 6)]
        for _ in range(200):
            q, p = rng.uniform(0.0, 1.0, size=2)
            if q == 0.0 and p == 0.0:
                continue
            for cond in conds:
                a = residual(cond, DeformationPoint(q, p))
                b = residual(cond, DeformationPoint(p, q))
                assert abs(a - b) <= 1e-14

    def test_equals_twice_energy_gap(self):
        rng = np.random.default_rng(9)
        cases = ([(DegeneracyCondition(0, m), 0, m) for m in range(2, 7)]
                 + [(DegeneracyCondition(m, m + 1), m, m + 1) for m in range(1, 6)]
                 + [(DegeneracyCondition(1, 3), 1, 3), (DegeneracyCondition(2, 5), 2, 5)])
        for _ in range(100):
            q, p = rng.uniform(0.01, 1.0, size=2)
            pt = DeformationPoint(q, p)
            for cond, m1, m2 in cases:
                gap = 2.0 * (energy_level(m2, pt) - energy_level(m1, pt))
                assert residual(cond, pt) == pytest.approx(gap, abs=1e-12)


def count_bisections(monkeypatch):
    """Record the bracket of every bisect_bracket call that degeneracy makes."""
    calls = []

    def counting(f, lo, hi):
        calls.append((lo, hi))
        return bisect_bracket(f, lo, hi)

    monkeypatch.setattr("qposc.degeneracy.bisect_bracket", counting)
    return calls


def count_residuals(monkeypatch):
    """Record the p of every residual evaluation, in degeneracy and in
    families, which imports the name."""
    raw = qposc.degeneracy._residual_raw
    calls = []

    def counting(cond, q, p):
        calls.append(p)
        return raw(cond, q, p)

    monkeypatch.setattr("qposc.degeneracy._residual_raw", counting)
    monkeypatch.setattr("qposc.families._residual_raw", counting)
    return calls


class TestSolveP:
    def test_axis_and_interior_values(self):
        cond = DegeneracyCondition(0, 2)
        assert solve_p_for_q(cond, 0.0) == pytest.approx(GOLDEN, abs=1e-12)
        assert solve_p_for_q(cond, 0.3) == pytest.approx(ground_p_closed(0.3), abs=1e-10)
        assert solve_p_for_q(cond, 0.9) is None  # beyond the curve extent

    def test_closed_form_along_extent(self):
        cond = DegeneracyCondition(0, 2)
        q_end = endpoint_q(cond)
        for q in np.linspace(0.0, q_end, 50):
            got = solve_p_for_q(cond, float(q))
            assert got is not None
            assert got == pytest.approx(ground_p_closed(float(q)), abs=1e-10)

    def test_neighbor_axis_roots(self):
        assert solve_p_for_q(DegeneracyCondition(1, 2), 0.0) == 1.0
        assert solve_p_for_q(DegeneracyCondition(1, 2), 1.0) == 0.0
        assert solve_p_for_q(DegeneracyCondition(3, 4), 0.0) == 1.0

    def test_diagonal_crossing_within_ulps(self):
        # the curve crosses p = q at x*, the root of phi'(x) = F(x, x): 1/3 for
        # (0, 2) and sqrt(m / (m + 2)) for (m, m + 1); for q a few ulps either
        # side the root is p = q, where rounding alone sets the sign of F
        cases = [(DegeneracyCondition(0, 2), 1.0 / 3.0)]
        cases += [(DegeneracyCondition(m, m + 1), math.sqrt(m / (m + 2))) for m in (1, 5, 12, 39)]
        for cond, x_star in cases:
            q = x_star
            for _ in range(10):
                q = math.nextafter(q, 0.0)
            for _ in range(21):
                assert solve_p_for_q(cond, q) == pytest.approx(q, abs=1e-12), (cond, q)
                q = math.nextafter(q, 1.0)

    @pytest.mark.parametrize("m1, m2, falling, rising", [
        (0, 2, 0.1, 0.5), (1, 2, 0.3, 0.8), (3, 7, 0.2, 0.95)])
    def test_one_bisection_per_root(self, monkeypatch, m1, m2, falling, rising):
        # F(q, q) = phi'(q) picks the p-bracket on either side of phi's minimum
        cond = DegeneracyCondition(m1, m2)
        assert residual(cond, DeformationPoint(falling, falling)) < 0.0
        assert residual(cond, DeformationPoint(rising, rising)) > 0.0
        calls = count_bisections(monkeypatch)
        for q in (0.0, falling, rising):
            calls.clear()
            assert solve_p_for_q(cond, q) is not None
            assert len(calls) == 1, (cond, q, calls)

    def test_no_bisection_without_an_interior_root(self, monkeypatch):
        calls = count_bisections(monkeypatch)
        assert solve_p_for_q(DegeneracyCondition(0, 2), 0.9) is None  # past q_m
        assert solve_p_for_q(DegeneracyCondition(1, 2), 1.0) == 0.0
        assert solve_p_for_q(DegeneracyCondition(3, 7), 1.0) == 0.0
        assert calls == []

    def test_few_residual_evaluations_per_root(self, monkeypatch):
        # Newton on ln(-phi) lands within a few ulps of the root, so F only
        # certifies and finishes it; bisecting the whole bracket takes ~54
        grids = {}
        for m1, m2 in ((0, 2), (1, 2), (7, 8), (12, 13), (39, 40), (2, 40)):
            cond = DegeneracyCondition(m1, m2)
            q_hi = endpoint_q(cond) if cond.kind == "ground" else 1.0
            grids[cond] = [q_hi * i / 999 for i in range(1, 999)]  # trace_curve's, 1000 samples
        calls = count_residuals(monkeypatch)
        for cond, qs in grids.items():
            calls.clear()
            for q in qs:
                assert solve_p_for_q(cond, q) is not None
            assert len(calls) / len(qs) <= 12, (cond, len(calls) / len(qs))

    def test_rejects_bad_q(self):
        cond = DegeneracyCondition(0, 2)
        with pytest.raises(DomainError):
            solve_p_for_q(cond, -0.1)
        with pytest.raises(DomainError):
            solve_p_for_q(cond, 1.5)

class TestImplicitDerivative:
    def test_ground_anchor_slopes(self):
        cond = DegeneracyCondition(0, 2)
        p2 = endpoint_q(cond)
        at_p_axis = implicit_derivative(cond, DeformationPoint(0.0, p2))
        assert at_p_axis == pytest.approx(-(p2 + 1) / (2 * p2 + 1), abs=1e-12)
        assert at_p_axis == pytest.approx(-0.7236, abs=5e-4)
        at_q_axis = implicit_derivative(cond, DeformationPoint(p2, 0.0))
        assert at_q_axis == pytest.approx(-(2 * p2 + 1) / (p2 + 1), abs=1e-12)
        assert at_q_axis == pytest.approx(-1.382, abs=5e-4)

    def test_diagonal_slope_is_minus_one(self):
        # on the p = q diagonal both partials coincide, so the slope is -1
        for m in range(2, 7):
            q_mid = bisect_oracle(
                lambda q: (m + 1) * q ** m + m * q ** (m - 1) - 1.0, 0.0, 1.0)
            d = implicit_derivative(DegeneracyCondition(0, m),
                                    DeformationPoint(q_mid, q_mid))
            assert d == -1.0

    def test_first_neighbor_endpoints(self):
        cond = DegeneracyCondition(1, 2)
        assert implicit_derivative(cond, DeformationPoint(0.0, 1.0)) == -0.5
        assert implicit_derivative(cond, DeformationPoint(1.0, 0.0)) == -2.0

    def test_neighbor_limit_slopes(self):
        # slope falls from 0 at q = 0 to -infinity at q = 1 for m >= 2
        for m in range(2, 6):
            cond = DegeneracyCondition(m, m + 1)
            p_left = solve_p_for_q(cond, 1e-6)
            d_left = implicit_derivative(cond, DeformationPoint(1e-6, p_left))
            assert abs(d_left) < 1e-3
            p_right = solve_p_for_q(cond, 1.0 - 1e-6)
            d_right = implicit_derivative(cond, DeformationPoint(1.0 - 1e-6, p_right))
            assert d_right < -100.0
            if m >= 3:
                assert d_right < -1e3

    def test_off_curve_rejected(self):
        with pytest.raises(DomainError):
            implicit_derivative(DegeneracyCondition(0, 2), DeformationPoint(0.5, 0.5))

    @pytest.mark.parametrize("m1, p", [(30, 0.5), (40, 0.3)])
    def test_tiny_residual_off_the_curve_rejected(self, m1, p):
        # |F| < 1e-8 here (1.4e-9, 3.7e-21), but the curve's p at q = 0 is
        # 1.0 and |F| is 0.6 and 0.83 of the sum of |monomials|
        cond = DegeneracyCondition(m1, m1 + 1)
        assert solve_p_for_q(cond, 0.0) == 1.0
        with pytest.raises(DomainError, match="is not on the"):
            implicit_derivative(cond, DeformationPoint(0.0, p))

    def test_vertical_tangent_rejected(self):
        with pytest.raises(DomainError):
            implicit_derivative(DegeneracyCondition(2, 3), DeformationPoint(1.0, 0.0))

    def test_underflowed_partials_are_a_domain_error(self):
        # at (0, 1e-10) F and both partials of (40, 41) underflow to 0: the
        # point passes the |F| < 1e-8 test but has no slope to report
        with pytest.raises(DomainError, match="dF/dq = 0, dF/dp = 0"):
            implicit_derivative(DegeneracyCondition(40, 41), DeformationPoint(0.0, 1e-10))


class TestEndpoint:
    def test_golden_section_case(self):
        assert endpoint_q(DegeneracyCondition(0, 2)) == pytest.approx(GOLDEN, abs=1e-12)

    def test_cubic_case_against_oracle(self):
        got = endpoint_q(DegeneracyCondition(0, 3))
        want = bisect_oracle(lambda q: q ** 3 + q ** 2 - 1.0, 0.0, 1.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.7548776662466927, abs=1e-10)

    def test_ordering_and_bound(self):
        values = [endpoint_q(DegeneracyCondition(0, m)) for m in range(2, 11)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 1.0 for v in values)
        q50 = endpoint_q(DegeneracyCondition(0, 50))
        q49 = endpoint_q(DegeneracyCondition(0, 49))
        assert q49 < q50 < 1.0

    def test_only_ground_type(self):
        with pytest.raises(DomainError):
            endpoint_q(DegeneracyCondition(1, 2))
        with pytest.raises(DomainError):
            endpoint_q(DegeneracyCondition(1, 3))


class TestTrace:
    def test_degenerate_tangent_raises(self, monkeypatch):
        # both partials vanishing is a ConsistencyError, never a silent slope
        monkeypatch.setattr("qposc.degeneracy._residual_dq", lambda cond, q, p: 0.0)
        with pytest.raises(ConsistencyError, match="degenerate tangent"):
            trace_curve(DegeneracyCondition(1, 2), 3)

    def test_ground_three_samples(self):
        cond = DegeneracyCondition(0, 2)
        trace = trace_curve(cond, 3)
        q_end = endpoint_q(cond)
        qs = [s.q for s in trace.samples]
        assert qs == pytest.approx([0.0, q_end / 2, q_end], abs=1e-15)
        assert trace.samples[0].p == pytest.approx(q_end, abs=1e-15)
        assert trace.samples[-1].p == 0.0
        assert trace.samples[1].p == pytest.approx(ground_p_closed(q_end / 2), abs=1e-10)

    def test_first_neighbor_two_samples(self):
        trace = trace_curve(DegeneracyCondition(1, 2), 2)
        assert trace.samples[0] == (0.0, 1.0, -0.5)
        assert trace.samples[1] == (1.0, 0.0, -2.0)

    def test_samples_lie_on_curve_and_fall(self):
        for cond in (DegeneracyCondition(0, 3), DegeneracyCondition(2, 3),
                     DegeneracyCondition(1, 3)):
            trace = trace_curve(cond, 9)
            ps = [s.p for s in trace.samples]
            qs = [s.q for s in trace.samples]
            assert all(a < b for a, b in zip(qs, qs[1:]))
            assert all(a > b for a, b in zip(ps, ps[1:]))
            for s in trace.samples:
                assert abs(residual(cond, DeformationPoint(s.q, s.p))) < 1e-10
            for s in trace.samples[1:-1]:
                assert s.dpdq < 0.0
            assert trace.samples[0].dpdq <= 0.0
            assert trace.samples[-1].dpdq < 0.0  # may be -inf past m = 1

    def test_vertical_tangent_reported_as_inf(self):
        trace = trace_curve(DegeneracyCondition(2, 3), 3)
        assert trace.samples[0].dpdq == 0.0
        assert math.isinf(trace.samples[-1].dpdq) and trace.samples[-1].dpdq < 0

    def test_high_ground_curve_stays_left_of_one(self):
        trace = trace_curve(DegeneracyCondition(0, 6), 7)
        q6 = endpoint_q(DegeneracyCondition(0, 6))
        assert all(s.q <= q6 < 1.0 for s in trace.samples)

    def test_slope_matches_finite_difference(self):
        h = 1e-6
        for cond in (DegeneracyCondition(0, 2), DegeneracyCondition(2, 3)):
            trace = trace_curve(cond, 9)
            for s in trace.samples[1:-1]:
                fd = (solve_p_for_q(cond, s.q + h) - solve_p_for_q(cond, s.q - h)) / (2 * h)
                assert s.dpdq == pytest.approx(fd, abs=1e-5)

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            trace_curve(DegeneracyCondition(0, 2), 1)

    def test_numpy_sample_count(self):
        cond = DegeneracyCondition(0, 5)
        trace = trace_curve(cond, np.int64(5))
        assert trace == trace_curve(cond, 5)
        assert all(type(v) is float for s in trace.samples for v in s)
        with pytest.raises(DomainError, match="at least 2 samples"):
            trace_curve(cond, True)

    def test_lowest_pair_has_no_curve(self):
        # E_1 exceeds E_0 everywhere, so there is nothing to trace
        with pytest.raises(DomainError):
            trace_curve(DegeneracyCondition(0, 1), 5)
        assert solve_p_for_q(DegeneracyCondition(0, 1), 0.5) is None

    def test_off_curve_sample_flagged(self, monkeypatch):
        # the curves are monotone and each p-solve has one root, so force a
        # sample off the curve artificially
        monkeypatch.setattr("qposc.degeneracy.solve_p_for_q", lambda cond, q: 0.5)
        with pytest.raises(ConsistencyError, match=r"\|F\| = .* >= 1e-08"):
            trace_curve(DegeneracyCondition(0, 2), 5)

    def test_lost_curve_names_bracket_signs(self, monkeypatch):
        # an extent stretched past q_m = 0.618 (and an on-curve tolerance wide
        # enough to accept the stretched first sample) reaches q where the
        # E_0 = E_2 curve has no p
        monkeypatch.setattr("qposc.degeneracy.endpoint_q", lambda cond: 0.9)
        monkeypatch.setattr("qposc.degeneracy._ON_CURVE_TOL", 1.0)
        with pytest.raises(ConsistencyError,
                           match=r"lost at q=0\.675: F\(q, p\) > 0 at both ends of "
                                 r"\[0, q\], F\(q, 0\) = 0\.131"):
            trace_curve(DegeneracyCondition(0, 2), 5)

    def test_trace_is_frozen_record(self):
        trace = trace_curve(DegeneracyCondition(0, 2), 4)
        assert isinstance(trace, CurveTrace)
        assert trace.condition == DegeneracyCondition(0, 2)
        assert len(trace.samples) == 4


def mp_gap(m1, m2, q, p):
    # independent 50-digit F = 2 (E_m2 - E_m1) from [[k]] = (q^k - p^k) / (q - p)
    def bracket(k):
        return k * q ** (k - 1) if q == p else (q ** k - p ** k) / (q - p)
    return bracket(m2 + 1) + bracket(m2) - bracket(m1 + 1) - bracket(m1)


def oracle_trace_errors(m1, m2, n_samples):
    """Trace (m1, m2) and return |p - p_mpmath| at every 10th sample."""
    errors = []
    with mpmath.workdps(50):
        for s in trace_curve(DegeneracyCondition(m1, m2), n_samples).samples[::10]:
            q = mpmath.mpf(s.q)
            root = mpmath.findroot(lambda p: mp_gap(m1, m2, q, p), mpmath.mpf(s.p))
            assert 0 <= root <= 1, (m1, m2, s.q, root)
            errors.append(float(abs(s.p - root)))
    return errors


class TestCurveOracle:
    # near the (0, 1) corner of the neighbour curves 1 - p falls far below
    # float resolution (1 - 3e-19 at q = 1/33 on (12, 13)), so p = 1.0 there
    # and the sign of F(q, 1) rests on the compensated residual
    def test_neighbor_traces_reach_the_corner(self):
        for m in (12, 20, 39):
            trace = trace_curve(DegeneracyCondition(m, m + 1), 100)
            assert len(trace.samples) == 100

    def test_ground_and_neighbor_pairs_against_mpmath(self):
        pairs = [(0, m) for m in range(2, 41)] + [(m, m + 1) for m in range(1, 40)]
        worst = max(max(oracle_trace_errors(m1, m2, 100)) for m1, m2 in pairs)
        assert worst < 1e-13, worst

    @pytest.mark.parametrize("m", [7, 12, 20, 39])
    def test_dense_neighbor_traces_against_mpmath(self, m):
        worst = max(oracle_trace_errors(m, m + 1, 1000))
        assert worst < 1e-13, worst

    def test_general_pairs_against_mpmath(self):
        rng = random.Random(2026)
        pairs = []
        while len(pairs) < 8:
            m2 = rng.randint(3, 40)
            pairs.append((rng.randint(1, m2 - 2), m2))
        worst = max(max(oracle_trace_errors(m1, m2, 100)) for m1, m2 in pairs)
        assert worst < 1e-13, worst


class TestRootHelpers:
    @pytest.mark.parametrize("m", [2, 3, 4, 6, 20, 40])
    def test_endpoint_to_two_ulps_against_mpmath(self, m):
        with mpmath.workdps(50):
            want = mpmath.findroot(lambda x: x ** m + x ** (m - 1) - 1, (0.5, 1), solver="anderson")
            err = abs(mpmath.mpf(endpoint_q(DegeneracyCondition(0, m))) - want)
            assert err <= 2 * math.ulp(float(want)), float(err)

    def test_curve_ends_take_few_residual_evaluations(self, monkeypatch):
        # q_m and the q = 0 p-roots start from Newton too; bisecting the whole
        # bracket took 53 and 54 evaluations, and the family solve 108
        calls = count_residuals(monkeypatch)
        for m in (2, 3, 8, 14, 18, 32, 40, 60):
            calls.clear()
            endpoint_q(DegeneracyCondition(0, m))
            assert len(calls) <= 12, (m, len(calls))
        for m1, m2 in ((0, 2), (1, 2), (3, 7), (12, 13), (39, 40)):
            calls.clear()
            assert solve_p_for_q(DegeneracyCondition(m1, m2), 0.0) is not None
            assert len(calls) <= 12, ((m1, m2), len(calls))
        # g(0) computes to 0.0 here, so admission asks for the q = 0 p-root
        calls.clear()
        assert solve_degeneracy_on_family(PowerFamily(2.5), DegeneracyCondition(3, 7)) is not None
        assert len(calls) <= 70, len(calls)

    def test_curve_ends_match_a_whole_bracket_bisection(self):
        # The computed F(x, 0) = fsum(x^m, x^(m-1), -1) is non-decreasing in x,
        # its powers coming from repeated multiplication, so exactly one pair
        # of adjacent floats has F(lo, 0) <= 0 < F(hi, 0) and every bracket
        # shrink that keeps those signs ends on it.  For m1 >= 1 the computed
        # F(0, p) is <= 0 on [0, 1), so the q = 0 p-root is 1.0 on any path.
        for m in range(2, 121):
            cond = DegeneracyCondition(0, m)
            lo, _ = bisect_bracket(lambda x: qposc.degeneracy._residual_raw(cond, x, 0.0),
                                   0.0, 1.0)
            assert endpoint_q(cond) == lo, m
        for m2 in range(2, 41):
            for m1 in range(1, m2):
                assert solve_p_for_q(DegeneracyCondition(m1, m2), 0.0) == 1.0, (m1, m2)

    def test_bisect_bracket_refines(self):
        lo, hi = bisect_bracket(lambda x: x * x - 0.25, 0.0, 1.0)
        assert hi - lo <= 1e-13
        assert lo <= 0.5 <= hi or abs(lo - 0.5) < 1e-13

    def test_bisect_bracket_runs_past_an_exact_zero_to_adjacent_floats(self):
        # f(lo) <= 0 < f(hi) is the contract; an exact zero is a lo end
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.5

        assert bisect_bracket(f, 0.0, 1.0) == (0.5, math.nextafter(0.5, 1.0))
        assert 0.0 not in calls and 1.0 not in calls  # the ends are not evaluated
