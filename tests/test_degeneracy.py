"""Degeneracy residuals, curve inversion, slopes, endpoints and traces."""

import hashlib
import math
import random
import statistics
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qposc.degeneracy
from qposc import (CurveTrace, DeformationPoint,
                   DegeneracyCondition, DomainError, ExpFamily, LogFamily, PowerFamily,
                   endpoint_q, energy_level, family_p, implicit_derivative, parse_family,
                   residual, solve_degeneracy_on_family, solve_p_for_q, trace_curve)
from qposc.degeneracy import _FixedQ, _log_neg_phi, _phi_int, _phi_pair, bisect_bracket

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


PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)

pairs = st.integers(0, 44).flatmap(
    lambda m1: st.tuples(st.just(m1), st.integers(m1 + 1, 45)))
# the whole unit interval (subnormals too), its ends, and doubles within
# 1e-12 of 1, where the terms of F cancel to a few of their digits
unit_values = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]),
                        st.floats(1.0 - 1e-12, 1.0))


def mp_terms(cond, q, p, dq):
    """The signed monomials of F = [[m2+1]] + [[m2]] - [[m1+1]] - [[m1]],
    [[k]] = sum_{r<k} q^(k-1-r) p^r, or of dF/dq, in mpmath."""
    q, p = mpmath.mpf(q), mpmath.mpf(p)
    for k, sign in ((cond.m2 + 1, 1), (cond.m2, 1), (cond.m1 + 1, -1), (cond.m1, -1)):
        for r in range(k):
            if not dq:
                yield sign * q ** (k - 1 - r) * p ** r
            elif k - 1 - r:
                yield sign * (k - 1 - r) * q ** (k - 2 - r) * p ** r


def assert_correctly_rounded(got, cond, q, p, dq=False):
    """got is the double nearest to F (dF/dq if dq): mpmath's sum of the
    monomials at 60 digits, widened by a bound on its error, lies inside
    got's rounding interval.  Where 60 digits cannot tell, the sum is redone
    with enough bits to be exact (each term is a dyadic rational of at most
    53 * 47 bits, scaled by no less than 2^(-1074 * 45)), and a tie must go
    to the even significand."""
    def rounding_interval():  # midpoints to got's neighbours, exact here
        return [(got + mpmath.mpf(math.nextafter(got, to))) / 2 for to in (-math.inf, math.inf)]

    with mpmath.workdps(60):
        below, above = rounding_interval()
        terms = list(mp_terms(cond, q, p, dq))
        want = mpmath.fsum(terms)
        # each term is rounded at most 4 times, and the sum once per term
        err = (len(terms) + 4) * mpmath.eps * 16 * mpmath.fsum(map(abs, terms))
        if below < want - err and want + err < above:
            return
    with mpmath.workprec(120_000):
        below, above = rounding_interval()
        want = mpmath.fsum(mp_terms(cond, q, p, dq))
        even = got / math.ulp(got) % 2 == 0
        assert below < want < above or (want in (below, above) and even), (
            f"{got!r} is not {mpmath.nstr(want, 20)} correctly rounded "
            f"({cond}, q={q!r}, p={p!r}, dq={dq})")


class TestExactResidual:
    @PROPERTY
    @given(pair=pairs, q=unit_values, p=unit_values, diagonal=st.booleans())
    def test_residual_and_partials_are_correctly_rounded(self, pair, q, p, diagonal):
        cond = DegeneracyCondition(*pair)
        p = q if diagonal else p
        if q or p:  # DeformationPoint excludes the corner (0, 0)
            assert_correctly_rounded(residual(cond, DeformationPoint(q, p)), cond, q, p)
        f, dq, dp = _FixedQ(cond, q).partials(p)
        assert_correctly_rounded(f, cond, q, p)
        assert_correctly_rounded(dq, cond, q, p, dq=True)
        assert_correctly_rounded(dp, cond, p, q, dq=True)

    def test_the_oracle_rejects_a_neighbouring_double(self):
        cond = DegeneracyCondition(3, 7)
        got = residual(cond, DeformationPoint(0.3, 0.7))
        with pytest.raises(AssertionError, match="correctly rounded"):
            assert_correctly_rounded(math.nextafter(got, 0.0), cond, 0.3, 0.7)


def fraction_sign(cond, q, p):
    """The sign of F = [[m2+1]] + [[m2]] - [[m1+1]] - [[m1]] at the floats q
    and p as exact rationals, [[k]] = sum_{r<k} q^(k-1-r) p^r summed by
    [[k+1]] = q [[k]] + p^k: built from the brackets, not from Phi."""
    q, p = Fraction(q), Fraction(p)
    brackets, bracket, p_pow = [], Fraction(0), Fraction(1)
    for _ in range(cond.m2 + 2):
        brackets.append(bracket)
        bracket, p_pow = q * bracket + p_pow, p_pow * p
    f = brackets[cond.m2 + 1] + brackets[cond.m2] - brackets[cond.m1 + 1] - brackets[cond.m1]
    return (f > 0) - (f < 0)


def ulps_away(x, k):
    """The float k steps from x towards +inf (k < 0: -inf), kept in [0, 1]."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return min(max(x, 0.0), 1.0)


sign_pairs = st.integers(1, 60).flatmap(
    lambda m2: st.tuples(st.integers(0, m2 - 1), st.just(m2)))
# the ends, the smallest subnormals, the largest subnormal and smallest
# normal, any other subnormal, and uniform draws
sign_values = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1e-323, math.nextafter(2.0 ** -1022, 0.0), 2.0 ** -1022]),
    st.integers(1, 2 ** 52 - 1).map(lambda n: n * 5e-324), st.floats(0.0, 1.0))


class TestExactSign:
    """A call of the fixed-q state is F's exact sign, from its integers."""

    @PROPERTY
    @given(pair=sign_pairs, q=sign_values, p=sign_values,
           where=st.sampled_from(["free", "diagonal", "root"]), step=st.integers(-2, 2))
    def test_a_call_is_the_exact_sign_of_f(self, pair, q, p, where, step):
        # "root" moves p to within two floats of the p-root at q, if any
        cond = DegeneracyCondition(*pair)
        if where == "diagonal":
            p = q
        elif where == "root":
            root = solve_p_for_q(cond, q)
            p = p if root is None else ulps_away(root, step)
        got = _FixedQ(cond, q)(p)
        assert type(got) is int and got == fraction_sign(cond, q, p), (q, p, got)

    @pytest.mark.parametrize("q, p", [(1e-10, 1e-10), (1e-10, 2e-10)])
    def test_the_sign_is_exact_where_the_residual_underflows(self, q, p):
        # F is about -1e-400 here: its correctly rounded value is -0.0
        cond = DegeneracyCondition(40, 41)
        r = residual(cond, DeformationPoint(q, p))
        assert r == 0.0 and math.copysign(1.0, r) == -1.0
        assert fraction_sign(cond, q, p) == -1
        assert _FixedQ(cond, q)(p) == -1


def phi_derivative_reference(cond, n, e, j):
    """Phi^(j)(n) for Phi(n) = phi(n / u) u^(m2+1), u = 2^e, built apart from
    the package: (1 + x)(x^m2 - x^m1) expanded into integer coefficients,
    the one of x^k scaled by u^(m2+1-k), differentiated j times and
    evaluated by Horner."""
    factor = [0] * (cond.m2 + 1)
    factor[cond.m2] += 1
    factor[cond.m1] -= 1
    coeffs = [0] * (cond.m2 + 2)
    for k, c in enumerate(factor):  # times 1 + x
        coeffs[k] += c
        coeffs[k + 1] += c
    coeffs = [c << e * (cond.m2 + 1 - k) for k, c in enumerate(coeffs)]
    for _ in range(j):
        coeffs = [k * c for k, c in enumerate(coeffs)][1:]
    value = 0
    for c in reversed(coeffs):
        value = value * n + c
    return value


# the lowest pairs, neighbours (where two of Phi's monomials cancel) and a
# high pair
phi_pairs = st.one_of(st.sampled_from([(0, 1), (0, 2), (2, 300)]),
                      st.integers(1, 60).map(lambda m: (m, m + 1)), pairs)
phi_points = st.integers(0, 80).flatmap(lambda e: st.tuples(
    st.just(e), st.one_of(st.just(0), st.just(1), st.integers(0, (1 << e) - 1))))


class TestPhiIntegers:
    @PROPERTY
    @given(pair=phi_pairs, point=phi_points)
    def test_phi_and_its_derivatives_are_the_reference(self, pair, point):
        cond, (e, n) = DegeneracyCondition(*pair), point
        want = [phi_derivative_reference(cond, n, e, j) for j in range(4)]
        assert [_phi_int(cond, n, e, j) for j in range(4)] == want
        assert _phi_pair(cond, n, e) == (want[0], want[1])

    def test_the_reference_is_phi_at_small_points(self):
        # Phi(n) = n^3 + 2 n^2 - 2^2 n - 2^3 for (0, 2) at e = 1, and
        # Phi'(n) = 3 n^2 + 4 n - 4
        cond = DegeneracyCondition(0, 2)
        assert [phi_derivative_reference(cond, n, 1, 0) for n in range(3)] == [-8, -9, 0]
        assert [phi_derivative_reference(cond, n, 1, 1) for n in range(3)] == [-4, 3, 16]


def count_bisections(monkeypatch):
    """Record the bracket of every bisect_bracket call that degeneracy makes."""
    calls = []

    def counting(f, lo, hi):
        calls.append((lo, hi))
        return bisect_bracket(f, lo, hi)

    monkeypatch.setattr("qposc.degeneracy.bisect_bracket", counting)
    return calls


def count_residuals(monkeypatch):
    """Record the p of every exact evaluation of F: each call of a fixed-q
    state, through which degeneracy and families evaluate F.  A test that
    counts asserts that each counted solve recorded at least one, so the
    count cannot pass with the work moved elsewhere."""
    calls, call = [], _FixedQ.__call__

    def counting(state, p):
        calls.append(p)
        return call(state, p)

    monkeypatch.setattr(_FixedQ, "__call__", counting)
    return calls


def bisected_p(cond, q):
    """solve_p_for_q's p from bisecting its whole bracket, or None."""
    f = _FixedQ(cond, q)
    if f(q) <= 0.0:
        lo, hi = q, 1.0
    elif f(0.0) >= 0.0:
        return None if f(0.0) > 0.0 else 0.0
    else:
        lo, hi = 0.0, q
    lo, hi = bisect_bracket(f, lo, hi)
    return 0.5 * (lo + hi)


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
                before = len(calls)
                assert solve_p_for_q(cond, q) is not None
                assert len(calls) > before, (cond, q)
            assert len(calls) / len(qs) <= 12, (cond, len(calls) / len(qs))

    @staticmethod
    def evaluations_per_root(monkeypatch):
        # F evaluations of each solve on trace_curve's grid of 1000 samples
        grids = {}
        for m1, m2 in ((0, 2), (1, 2), (7, 8), (12, 13), (39, 40), (2, 40), (0, 5), (3, 7),
                       (0, 40)):
            cond = DegeneracyCondition(m1, m2)
            q_hi = endpoint_q(cond) if cond.kind == "ground" else 1.0
            grids[cond] = [q_hi * i / 999 for i in range(1, 999)]
        calls = count_residuals(monkeypatch)
        counts = []
        for cond, qs in grids.items():
            for q in qs:
                calls.clear()
                assert solve_p_for_q(cond, q) is not None
                counts.append(len(calls))
        assert min(counts) >= 1
        return counts

    def test_median_of_three_residual_evaluations_per_root(self, monkeypatch):
        # F(q, q), then F at Newton's estimate and at its neighbour towards
        # the root: with exact signs two different ones end the search
        counts = self.evaluations_per_root(monkeypatch)
        assert statistics.median(counts) <= 3, statistics.median(counts)

    def test_mean_of_at_most_three_and_a_half_residual_evaluations_per_root(self, monkeypatch):
        # the walk from Newton's estimate takes one step more per doubling
        # of the estimate's error in ulps, so a root rarely costs more than 3
        counts = self.evaluations_per_root(monkeypatch)
        assert statistics.mean(counts) <= 3.5, statistics.mean(counts)

    @pytest.mark.parametrize("m1, m2, q_max", [(12, 13, 0.045), (39, 40, 0.3)])
    def test_estimate_at_a_bracket_end_is_not_evaluated(self, monkeypatch, m1, m2, q_max):
        # up to q_max Newton's estimate rounds to p = 1.0, the end of [q, 1],
        # which takes the end's stated sign: F(q, 1) is never computed
        cond = DegeneracyCondition(m1, m2)
        qs = [q_max * i / 100 for i in range(101)]
        assert all(qposc.degeneracy._estimate_p(cond, q, _log_neg_phi(cond, q)[0], q, 1.0) == 1.0
                   for q in qs)
        calls = count_residuals(monkeypatch)
        for q in qs:
            calls.clear()
            assert solve_p_for_q(cond, q) is not None
            assert 1.0 not in calls, (q, calls)
            assert 1 <= len(calls) <= 3, (q, calls)

    @PROPERTY
    @given(pair=pairs.filter(lambda pair: pair != (0, 1)),
           q=st.one_of(unit_values, st.floats(0.0, 1e-3)))
    def test_roots_equal_a_whole_bracket_bisection(self, pair, q):
        # exact signs leave one pair of adjacent floats where F(q, .) changes
        # sign, so Newton's shortcut must end on the pair plain bisection finds
        cond = DegeneracyCondition(*pair)
        assert solve_p_for_q(cond, q) == bisected_p(cond, q)

    @pytest.mark.parametrize("m", [7, 12, 39])
    @pytest.mark.parametrize("gap", [1e-9, 1e-12, 1e-15])
    def test_p_within_two_ulps_of_mpmath_near_q_one(self, m, gap):
        # near (1, 0) the terms of F cancel to the digits of 1 - q, so only
        # an exact sign of F keeps p to its last digits
        q = 1.0 - gap
        got = solve_p_for_q(DegeneracyCondition(m, m + 1), q)
        with mpmath.workdps(60):
            want = mpmath.findroot(lambda p: mp_gap(m, m + 1, mpmath.mpf(q), p), got)
            assert abs(got - want) <= 2 * math.ulp(float(want)), float(got - want)

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

    @pytest.mark.parametrize("p", [1e-10, 1e-8])
    def test_underflowed_phi_prime_gives_the_ratios_limit(self, monkeypatch, p):
        # (1 - 2^-53, p) lies within 1.1e-16 of the (40, 41) curve, far off
        # the diagonal; phi'(1e-10) underflows to 0 in floats and phi'(1e-8)
        # is subnormal, so phi'(q) / phi'(p) is -inf, its limit.  -F_q/F_p
        # there has the wrong sign (+9.0e15 at 1e-10): F_p is -2.2e-16
        cond, point = DegeneracyCondition(40, 41), DeformationPoint(1.0 - 2.0 ** -53, p)
        assert implicit_derivative(cond, point) == -math.inf
        monkeypatch.delattr(_FixedQ, "partials")  # the ratio needs no exact state
        assert qposc.degeneracy._slope(cond, point.q, point.p) == -math.inf

    def test_trace_slopes_are_implicit_derivatives(self):
        # one slope rule serves both: every sample's dpdq is
        # implicit_derivative's at its (q, p), bit for bit, except at a
        # vertical tangent, which the trace reports as an infinite slope and
        # implicit_derivative refuses
        outcomes = Counter()
        for pair in [(0, 2), (0, 3), (0, 6), (1, 2), (2, 3), (4, 5), (7, 8), (12, 13),
                     (39, 40), (2, 40), (3, 7), (0, 40)]:
            cond = DegeneracyCondition(*pair)
            for q, p, dpdq in trace_curve(cond, 200).samples:
                try:
                    slope = implicit_derivative(cond, DeformationPoint(q, p))
                except DomainError:
                    assert math.isinf(dpdq), (pair, q, p, dpdq)
                    outcomes["vertical"] += 1
                else:
                    assert float.hex(slope) == float.hex(dpdq), (pair, q, p, slope, dpdq)
                    outcomes["equal"] += 1
        assert outcomes == Counter(equal=2393, vertical=7)


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

    def test_partials_are_read_only_in_the_band_with_positive_dF_dp(self, monkeypatch):
        # _slope reads the exact partials only in its band around the
        # diagonal, |q - p| < 2 / max(m2 + 1, 32), never at a curve end on an
        # axis, and there dF/dp ~ phi''(x*) / 2 > 0, so -(dF/dq) / (dF/dp) is
        # finite
        seen, partials = [], _FixedQ.partials

        def recording(state, p):  # (q, p, (F, dF/dq, dF/dp))
            seen.append((math.ldexp(state.nq, -state.eq), p, partials(state, p)))
            return seen[-1][2]

        monkeypatch.setattr(_FixedQ, "partials", recording)
        outcomes = Counter()
        for m1, m2 in [(0, 2), (1, 2), (2, 3), (3, 7), (5, 6), (0, 40), (2, 40), (39, 40),
                       (0, 300), (2, 300), (299, 300), (100, 400)]:
            band = 2.0 / max(m2 + 1, 32)
            for n in (101, 257):
                seen.clear()
                trace_curve(DegeneracyCondition(m1, m2), n)
                for q, p, (_, dq, dp) in seen:
                    assert abs(q - p) < band and dp > 0.0, (m1, m2, q, p, dq, dp)
                    outcomes["dF/dp > 0"] += 1
        assert outcomes == Counter({"dF/dp > 0": 182})

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

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(pair=pairs.filter(lambda pair: pair != (0, 1)), n=st.integers(3, 40))
    def test_every_interior_sample_is_a_sign_change_witness(self, pair, n):
        # p is one of two adjacent floats lo < hi in [0, 1] with
        # F(q, lo) <= 0 < F(q, hi) by F's exact sign: on the curve to within
        # an ulp, with no off-curve or lost sample to report
        cond = DegeneracyCondition(*pair)
        for q, p, _ in trace_curve(cond, n).samples[1:-1]:
            f = _FixedQ(cond, q)
            lo, hi = (p, math.nextafter(p, 2.0)) if f(p) <= 0.0 else (math.nextafter(p, -1.0), p)
            assert 0.0 <= lo < hi <= 1.0 and f(lo) <= 0.0 < f(hi), (pair, q, p)

    def test_trace_is_frozen_record(self):
        trace = trace_curve(DegeneracyCondition(0, 2), 4)
        assert isinstance(trace, CurveTrace)
        assert trace.condition == DegeneracyCondition(0, 2)
        assert len(trace.samples) == 4


PIN_PAIRS = [(0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (2, 3), (4, 5),
             (7, 8), (2, 15), (10, 37), (39, 40)]

# sha256 of the float.hex of every (q, p, dp/dq) of trace_curve(pair, 200):
# a change to how F and its partials are evaluated may change how often each
# value is computed, never a bit of it
TRACE_DIGESTS = {
    (0, 2): "c561734b0036e750bf319244270bc0adb349c54f5e5a7920c576d6bcc74fb0f4",
    (0, 3): "1c4441458ef8904193b1d717fb5ecaf470225bcd15da3570df9adb16915c3af7",
    (0, 4): "098262672e320b22d1e42babf56c82a5e0bf2070db9ae02d6a8f1e4a2433a3cc",
    (0, 6): "95be729fca7350971783fb5011af49510481dd0f52652f53586f7750bc6e1a18",
    (1, 2): "c362134b6e0fe64f781dcadce989f416ab0858c7ebf08c3958f6bd65b997f11a",
    (2, 3): "5e7eb172f4209bee3d08fa56ecc7177065d7f5110ab315c36842307a9482d92c",
    (4, 5): "7d2495c2e147ad5a9a3182584e78c16c2ff421aabdf1c8d10cdab8402620fd57",
    (7, 8): "1ec1e928bcfec2fb0227178588d05054426f513716aa74f023ac3c37d0fab77c",
    (2, 15): "30f9aaa3f434007436f7a0b6a830eb75d29d706f1e265760da07d25c615b14ce",
    (10, 37): "d6e9f49809fd9d9a38dbe1d07a5ec9acfaa6fea105ef0a8f3dd355995e7d30e0",
    (39, 40): "778abd8c1521ae1d58f84dd6cb9c86d2cecddf33e5db3ede02e2023006483147",
}
# the same digest of implicit_derivative at 401 on-curve points, 40 seeded
# draws of q per pair in PIN_PAIRS (39 of the 440 lie past a ground curve's q_m)
SLOPE_DIGEST = "3fd603a8495b5bb1a6bf75677b27096a8e6270b7aac0b6fc91abf8b7dfa4f4f6"
# the same digest of solve_p_for_q at high pairs, where F's integers run to
# 10^5 bits, over q from the smallest subnormal to 1 and 20 seeded draws
SOLVE_DIGESTS = {
    (0, 200): "bb364c3c522365212391968a2b214d0544a75c932ae141ad3d5cf01e4cc8ec77",
    (150, 151): "5d1366d20ab4dce79aeab25a9e9083ac0fd3dc872612d2520ff9a3c85d785249",
    (3, 300): "a2bd7c8752abd0dbdabacd7ba12025ccc3b966d2050634f164edd1033297adcb",
    (100, 500): "85b2a8c0b9c928b416b91ecb9ed32f7ba7c920450b93d416781d4cf165b4f267",
}
# the same digest of solve_degeneracy_on_family (q*, None or the DomainError
# text) over family_cases: 300 seeded members and pairs, then five fixed ones
FAMILY_DIGEST = "9f205a4d400570506372140e34692c9e6a5ebb95796755a7bb54ff4cd7989c83"


def family_cases():
    """(family, condition) pairs: power l and exp a log-uniform in
    [1e-6, 1e2], log a log-uniform in [0.0015, 1e4], m1 in [0, 60] and
    m2 - m1 in [1, 30]; then crossings near 0, at high pairs and on the
    diagonal."""
    rng, cases = random.Random(27), []
    for _ in range(300):
        kind = rng.choice(("power", "log", "exp"))
        if kind == "log":
            fam = LogFamily(math.exp(rng.uniform(math.log(0.0015), math.log(1e4))))
        else:
            value = 10.0 ** rng.uniform(-6.0, 2.0)
            fam = PowerFamily(value) if kind == "power" else ExpFamily(value)
        m1 = rng.randint(0, 60)
        cases.append((fam, DegeneracyCondition(m1, m1 + rng.randint(1, 30))))
    return cases + [(parse_family(text), DegeneracyCondition(*pair)) for text, pair in (
        ("power:2.5", (0, 5)), ("exp:0.5", (3, 4)), ("power:1", (60, 61)),
        ("log:0.0014", (0, 2)), ("exp:0.5", (300, 301)))]


def record_evaluations(monkeypatch):
    """Record every _phi_int and _phi_pair call that degeneracy makes, with
    'solve' and 'solved' around each solve_p_for_q that trace_curve makes;
    each of those solves must record at least one call."""
    events = []
    deg = qposc.degeneracy
    for name in ("_phi_int", "_phi_pair"):
        def counting(*args, _real=getattr(deg, name), _name=name):
            events.append(_name)
            return _real(*args)
        monkeypatch.setattr(deg, name, counting)

    def marking(cond, q, _solve=deg.solve_p_for_q):
        events.append("solve")
        start = len(events)
        p = _solve(cond, q)
        assert len(events) > start, f"the solve at q={q} recorded no evaluation"
        events.append("solved")
        return p
    monkeypatch.setattr(deg, "solve_p_for_q", marking)
    return events


class TestOneEvaluationPerPoint:
    @pytest.mark.parametrize("pair", PIN_PAIRS)
    def test_trace_bits_are_pinned(self, pair):
        digest = hashlib.sha256()
        for sample in trace_curve(DegeneracyCondition(*pair), 200).samples:
            digest.update(" ".join(map(float.hex, sample)).encode() + b"\n")
        assert digest.hexdigest() == TRACE_DIGESTS[pair]

    def test_implicit_derivative_bits_are_pinned(self):
        rng, digest, points = random.Random(17), hashlib.sha256(), 0
        for pair in PIN_PAIRS:
            cond = DegeneracyCondition(*pair)
            for _ in range(40):
                q = rng.random()
                p = solve_p_for_q(cond, q)
                if p is None:
                    continue
                try:
                    out = float.hex(implicit_derivative(cond, DeformationPoint(q, p)))
                except DomainError:
                    out = "DomainError"
                digest.update(f"{pair} {q.hex()} {p.hex()} {out}\n".encode())
                points += 1
        assert (points, digest.hexdigest()) == (401, SLOPE_DIGEST)

    def test_high_pair_solve_bits_are_pinned(self):
        rng = random.Random(23)
        qs = [0.0, 5e-324, 1e-300, 1e-20] + [rng.random() for _ in range(20)]
        qs += [1.0 - 2.0 ** -53, 1.0]
        digests = {}
        for pair in SOLVE_DIGESTS:
            cond, digest = DegeneracyCondition(*pair), hashlib.sha256()
            for q in qs:
                p = solve_p_for_q(cond, q)
                digest.update(f"{q.hex()} {'None' if p is None else p.hex()}\n".encode())
            digests[pair] = digest.hexdigest()
        assert digests == SOLVE_DIGESTS
        assert endpoint_q(DegeneracyCondition(0, 200)).hex() == "0x1.fe3963c90f2abp-1"

    def test_in_family_solve_bits_are_pinned(self):
        digest = hashlib.sha256()
        for fam, cond in family_cases():
            try:
                q_star = solve_degeneracy_on_family(fam, cond)
                out = "None" if q_star is None else q_star.hex()
            except DomainError as exc:
                out = str(exc)
            digest.update(f"{fam.label} {cond.m1} {cond.m2} {out}\n".encode())
        assert digest.hexdigest() == FAMILY_DIGEST

    @pytest.mark.parametrize("pair, outside", [((0, 2), 9), ((1, 2), 10), ((10, 37), 10),
                                               ((39, 40), 10)])
    def test_one_evaluation_after_each_solve(self, monkeypatch, pair, outside):
        # between a solve's return and the next solve, a sample's slope reads
        # no exact state outside _slope's band, |q - p| < 2 / max(m2 + 1, 32),
        # and one _phi_pair, Phi and Phi', at each of n_q and n_p inside it
        events = record_evaluations(monkeypatch)
        trace = trace_curve(DegeneracyCondition(*pair), 12)
        assert all(s.q != s.p for s in trace.samples)
        after, current = [], None
        for event in events:
            if event == "solved":
                current = Counter()
                after.append(current)
            elif event == "solve":
                current = None
            elif current is not None:
                current[event] += 1
        assert len(after) == 10
        band = 2.0 / max(pair[1] + 1, 32)
        want = [Counter() if abs(s.q - s.p) >= band else Counter(_phi_pair=2)
                for s in trace.samples[1:-1]]
        assert after == want
        assert want.count(Counter()) == outside

    @pytest.mark.parametrize("pair, q, p, calls", [
        # on the diagonal: q's Phi and Phi', then Phi''
        ((0, 2), 1.0 / 3.0, 1.0 / 3.0, {"_phi_pair": 1, "_phi_int": 1}),
        ((0, 2), 0.3, None, {"_phi_pair": 2}), ((10, 37), 0.8, None, {"_phi_pair": 2})])
    def test_one_evaluation_per_implicit_derivative(self, monkeypatch, pair, q, p, calls):
        cond = DegeneracyCondition(*pair)
        point = DeformationPoint(q, solve_p_for_q(cond, q) if p is None else p)
        events = record_evaluations(monkeypatch)
        implicit_derivative(cond, point)
        assert Counter(events) == Counter(calls)


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
            assert 1 <= len(calls) <= 12, (m, len(calls))
        for m1, m2 in ((0, 2), (1, 2), (3, 7), (12, 13), (39, 40)):
            calls.clear()
            assert solve_p_for_q(DegeneracyCondition(m1, m2), 0.0) is not None
            assert 1 <= len(calls) <= 12, ((m1, m2), len(calls))
        # g(0) computes to 0.0 here, so admission asks for the q = 0 p-root
        calls.clear()
        assert solve_degeneracy_on_family(PowerFamily(2.5), DegeneracyCondition(3, 7)) is not None
        assert 1 <= len(calls) <= 70, len(calls)

    def test_curve_ends_match_a_whole_bracket_bisection(self):
        # F(x, 0) = x^m + x^(m-1) - 1 is increasing and its sign is exact:
        # exactly one pair of adjacent floats has F(lo, 0) <= 0 < F(hi, 0)
        # and every bracket shrink that keeps those signs ends on it.  For
        # m1 >= 1, F(0, p) <= 0 on [0, 1), so the q = 0 p-root is 1.0 on any
        # path.
        for m in range(2, 121):
            cond = DegeneracyCondition(0, m)
            lo, _ = bisect_bracket(lambda x: _FixedQ(cond, x)(0.0), 0.0, 1.0)
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

    @pytest.mark.parametrize("r", [1e-17, 1e-100, 1e-300, 0.3])
    def test_a_whole_bracket_bisection_takes_at_most_64_evaluations(self, r):
        # the midpoint is geometric while hi > 16 lo (hi < 1), so a root near
        # 0 costs no more halvings than one near 1
        calls = []

        def f(x):
            calls.append(x)
            return x - r

        assert bisect_bracket(f, 0.0, 1.0) == (r, math.nextafter(r, 1.0))
        assert len(calls) <= 64, len(calls)

    @pytest.mark.parametrize("m, p_hex", [
        (8, "0x1.975a4be6bba56p-58"), (9, "0x1.6ab725e75a37ap-57"),
        (52, "0x1.b49419196abcap-54"), (60, "0x1.5165fee2cdd4ep-53"),
        (105, "0x1.d1b01d4e59790p-58")])
    def test_the_p_root_at_q_m_takes_at_most_four_evaluations(self, monkeypatch, m, p_hex):
        # at q = q_m the root p is about 1e-17; L(q) = log1p(-q F(q, 0)) from
        # the exact state starts Newton next to it, where the float L(q),
        # which rounds to about L(0) = 0, left all of [0, q_m] to bisect
        cond = DegeneracyCondition(0, m)
        q = endpoint_q(cond)
        calls = count_residuals(monkeypatch)
        assert solve_p_for_q(cond, q).hex() == p_hex
        assert 1 <= len(calls) <= 4, len(calls)

    @pytest.mark.parametrize("m", [2, 5, 20])
    def test_p_roots_below_q_m_take_at_most_twelve_evaluations(self, monkeypatch, m):
        # at q = q_m (1 - 2^-k) the root p falls towards 0 with k; bisecting
        # from a float L(q) took up to 105 / 112 / 98 evaluations
        cond = DegeneracyCondition(0, m)
        q_m = endpoint_q(cond)
        calls = count_residuals(monkeypatch)
        counts = []
        for q in (q_m * (1.0 - 2.0 ** -k) for k in range(1, 60)):
            calls.clear()
            p = solve_p_for_q(cond, q)
            counts.append(len(calls))
            assert p == bisected_p(cond, q), q
        assert 1 <= min(counts) and max(counts) <= 12, counts

    @pytest.mark.parametrize("m", [2, 5, 20])
    def test_ground_log_neg_phi_within_four_ulps_of_mpmath(self, m):
        # L(x) = log1p(x) + log1p(-x^m) nears 0 with x; ln(-expm1(m ln x))
        # keeps only the absolute digits of 1 - x^m there (6.7e7 ulps off at
        # x = 2^-27 for m = 2).  1 + x loses x below 1e-50 even at 50 digits,
        # so the reference takes mpmath's log1p too
        cond, worst = DegeneracyCondition(0, m), 0.0
        with mpmath.workdps(80):
            for k in range(1, 200):
                for x in (2.0 ** -k, 0.7 * 2.0 ** -k):
                    want = mpmath.log1p(x) + mpmath.log1p(-mpmath.mpf(x) ** m)
                    err = abs(_log_neg_phi(cond, x)[0] - want) / math.ulp(float(want))
                    worst = max(worst, float(err))
        assert worst <= 4.0, worst


class TestInFamilyEvaluations:
    """Exact residual evaluations per in-family solve, counted with
    count_residuals: the admission test's p-solve at domain_low, then g.
    Bisecting g over the whole bracket took 56 evaluations on the grid and
    449 for log:0.0014 (0, 2)."""

    GRID = [(family, (m, m + 1)) for family in ("exp:0.5", "power:2.5", "log:0.3")
            for m in (10, 80, 300, 1000, 3000)]

    def test_median_of_at_most_six_evaluations_on_the_grid(self, monkeypatch):
        calls = count_residuals(monkeypatch)
        counts = []
        for family, pair in self.GRID:
            calls.clear()
            assert solve_degeneracy_on_family(parse_family(family),
                                              DegeneracyCondition(*pair)) is not None
            counts.append(len(calls))
        assert min(counts) >= 1 and statistics.median(counts) <= 6, counts

    def test_a_crossing_near_zero_takes_at_most_twenty_evaluations(self, monkeypatch):
        # log:0.0014 starts at exp(-1/0.0014), about 1e-310, and meets the
        # (0, 2) curve near q = 1e-119
        calls = count_residuals(monkeypatch)
        q_star = solve_degeneracy_on_family(parse_family("log:0.0014"), DegeneracyCondition(0, 2))
        assert 1e-120 < q_star < 1e-118
        assert 1 <= len(calls) <= 20, len(calls)

    def test_the_p_equals_one_plateau_ends_at_the_members_step(self, monkeypatch):
        # the computed power:1.41514e-18 is 1.0 from q about 9.2066e-18 up,
        # where g = F(q, 1.0) = phi(q) / (q - 1) > 0 is far below the
        # smallest double; below that step it is 1 - 2^-53, where g < 0
        fam, cond = PowerFamily(1.41514e-18), DegeneracyCondition(50, 54)
        calls = count_residuals(monkeypatch)
        q_star = solve_degeneracy_on_family(fam, cond)
        assert 1 <= len(calls) <= 20, len(calls)
        assert q_star == pytest.approx(9.2066e-18, rel=1e-4)
        a, b = qposc.degeneracy._crossing(cond, lambda q: family_p(fam, q), fam.domain_low)
        assert q_star == 0.5 * (a + b) and math.nextafter(a, 1.0) == b
        g_a, g_b = (fraction_sign(cond, x, family_p(fam, x)) for x in (a, b))
        assert g_a <= 0 < g_b, (a, b)
        assert (family_p(fam, a), family_p(fam, b)) == (1.0 - 2.0 ** -53, 1.0)
