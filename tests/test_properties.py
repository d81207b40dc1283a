"""The paper's claims as properties over the documented family domains.

Every one-parameter class realizes E_m = E_{m+1} at some q(m), and a member
admits E_0 = E_k iff it starts below the k-th ground curve, which ends on
both axes at q_k, the root of x^k + x^(k-1) = 1.  The members are drawn from
the ranges the families document: power l in (0, 50], log a in
[1.4e-3, 100] (LogFamily rejects a below about 1.34e-3, where exp(-1/a)
underflows), exp a in (0, 50].  Power and exp draws start at 2^-52, the
machine epsilon: for l or a below about 1e-17, f(q) rounds to 1.0 wherever
the crossing lies, so the double-precision member is the boundary member
p = 1, which admits nothing (exp) or crosses below the smallest positive
double (power); just above 2^-52 the crossings already keep few correct
digits (CHANGES.md, FOUND).  A power member meets the k-th ground curve at
p <= q_k, so at q <= q_k^(1/l): below the smallest positive double once
l < ln(1/q_k)/745, and there the solver raises DomainError.

validate_family reports a built-in member without evaluating it; one test
checks that report against the grid report of the same map, over the whole
positive float range of each parameter, and another checks its values,
which skip the range passes, against the same map as a CustomFamily,
which takes them; one more holds family_p, asymptotic_intercept and
intercept_curve to returning, raising DomainError, or raising what
float() raises for a non-number.  Each in-family root is a sign
change of the exact g(q) = F(q, f(q)), the one that bisecting g over the
whole bracket finds wherever that sign change is unique, and the intercept
grid is the grid of integer indices bit for bit.  The last five tests check the
curve inversion that all of these rest on: every p that solve_p_for_q
returns is certified by the residual itself, no slope of a point in the
open square or on an axis that implicit_derivative accepts is positive,
the residual and the partials of the fixed-q state through which every
evaluation of F goes are, bit for bit, the correctly rounded exact
quotients over q's and p's common denominator, and every p-solve's Newton
start lies in its bracket.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qposc.degeneracy
from qposc import (CustomFamily, DeformationPoint, DegeneracyCondition, DomainError,
                   ExpFamily, InterceptCurve, LogFamily, PowerFamily, asymptotic_intercept,
                   endpoint_q, family_energy, family_p, implicit_derivative, intercept_curve,
                   peak_level, residual, solve_degeneracy_on_family, solve_p_for_q,
                   validate_family)
from qposc.degeneracy import _FixedQ, bisect_bracket
from qposc.families import _family_ps

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

members = st.one_of(
    st.floats(2.0 ** -52, 50.0).map(PowerFamily),
    st.floats(1.4e-3, 100.0).map(LogFamily),
    st.floats(2.0 ** -52, 50.0).map(ExpFamily),
)


def ground_endpoint(k):
    # x^k + x^(k-1) - 1 rises on [0, 1] from -1 to 1: plain bisection
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mid ** k + mid ** (k - 1) < 1.0 else (lo, mid)
    return lo


def member_start(fam):
    """Where the member meets the axes: (q, p) at q = domain_low."""
    if isinstance(fam, PowerFamily):
        return 0.0, 0.0
    if isinstance(fam, LogFamily):
        return math.exp(-1.0 / fam.alpha), 0.0
    return 0.0, math.exp(-fam.alpha)


@PROPERTY
@given(fam=members, m=st.integers(1, 80))
def test_every_member_realizes_each_neighbor_degeneracy(fam, m):
    q_star = solve_degeneracy_on_family(fam, DegeneracyCondition(m, m + 1))
    assert q_star is not None
    e_m, e_next = family_energy(fam, m, q_star), family_energy(fam, m + 1, q_star)
    assert abs(e_next - e_m) <= 1e-9 * e_m, (q_star, e_m, e_next)


@PROPERTY
@given(fam=members, k=st.integers(2, 80))
def test_ground_degeneracy_admitted_iff_member_starts_below_the_curve(fam, k):
    q_k = ground_endpoint(k)
    start = max(member_start(fam))  # one of the two coordinates is 0
    # a member that starts on the curve's end is decided by its last digit
    assume(abs(start - q_k) > 1e-12)
    try:
        admitted = solve_degeneracy_on_family(fam, DegeneracyCondition(0, k)) is not None
    except DomainError as exc:
        assert "below the smallest positive double" in str(exc)
        admitted = True
    assert admitted == (start < q_k), (start, q_k)


@PROPERTY
@given(fam=members, m=st.integers(1, 79))
def test_neighbor_crossings_rise_with_m(fam, m):
    q_m = solve_degeneracy_on_family(fam, DegeneracyCondition(m, m + 1))
    q_next = solve_degeneracy_on_family(fam, DegeneracyCondition(m + 1, m + 2))
    assert q_m < q_next, (q_m, q_next)


@PROPERTY
@given(fam=members, m=st.integers(1, 80))
def test_spectrum_peaks_at_the_degenerate_pair(fam, m):
    # E_m = E_{m+1} at q(m) puts the maximum of E_n on one of the two levels
    q_star = solve_degeneracy_on_family(fam, DegeneracyCondition(m, m + 1))
    assert peak_level(fam, q_star) in (m, m + 1), q_star


def family_sign(fam, cond, q):
    """Whether g(q) = F(q, f(q)) > 0, as the in-family solver reads it: the
    ends take the model's signs, g(domain_low) < 0 < g(1), and every other
    q the exact sign of F."""
    if q in (fam.domain_low, 1.0):
        return q == 1.0
    return _FixedQ(cond, q)(family_p(fam, q)) > 0.0


level_pairs = st.integers(2, 60).flatmap(lambda m2: st.tuples(st.integers(0, m2 - 1), st.just(m2)))


@PROPERTY
@given(fam=members, pair=level_pairs)
def test_the_in_family_root_is_a_sign_change_of_g(fam, pair):
    cond = DegeneracyCondition(*pair)
    try:
        q_star = solve_degeneracy_on_family(fam, cond)
    except DomainError as exc:
        assert "below the smallest positive double" in str(exc)
        return
    if q_star is None:
        return
    # q_star is the midpoint of two adjacent floats, which rounds to one of them
    if family_sign(fam, cond, q_star):
        lo, hi = math.nextafter(q_star, 0.0), q_star
    else:
        lo, hi = q_star, math.nextafter(q_star, 1.0)
    assert not family_sign(fam, cond, lo) and family_sign(fam, cond, hi), (lo, hi)
    # the whole-bracket bisection ends on a sign change too; where the two
    # differ, g changes sign more than once, since one pair lies wholly below
    # the other: its positive end comes before the other's non-positive end
    a, b = bisect_bracket(lambda q: family_sign(fam, cond, q) - 0.5, fam.domain_low, 1.0)
    if (a, b) != (lo, hi):
        below, above = sorted([(a, b), (lo, hi)])
        assert below[1] < above[0], (below, above)
        assert family_sign(fam, cond, below[1]) and not family_sign(fam, cond, above[0])


@PROPERTY
@given(fam=st.one_of(members, st.floats(0.0, 1.0, exclude_max=True).map(
           lambda low: CustomFamily(lambda q: 1.0, "one", domain_low=low))),
       n=st.integers(2, 20_000))
def test_the_intercept_grid_is_the_integer_index_grid_bit_for_bit(fam, n):
    lo, last = fam.domain_low, n - 1
    span = 1.0 - lo
    qs = [lo + span * i / last for i in range(last)] + [1.0]
    assert [q.hex() for q, _ in intercept_curve(fam, n).samples] == [q.hex() for q in qs]


# the maps as the families module docstring states them
FORMULAS = {PowerFamily: lambda fam, q: q ** fam.exponent,
            LogFamily: lambda fam, q: 1.0 + fam.alpha * math.log(q),
            ExpFamily: lambda fam, q: math.exp(fam.alpha * (q - 1.0))}


@PROPERTY
@given(fam=members, us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_the_bulk_map_is_the_pointwise_map_bit_for_bit(fam, us):
    lo = fam.domain_low
    qs = sorted(lo + (1.0 - lo) * u for u in us)
    formula = FORMULAS[type(fam)]
    assert ([p.hex() for p in fam.p_of_qs(qs)] == [fam.p_of_q(q).hex() for q in qs]
            == [formula(fam, q).hex() for q in qs])
    assert [p.hex() for p in _family_ps(fam, qs)] == [family_p(fam, q).hex() for q in qs]


# parameters from 5e-324 to near the float maximum, log-uniform, with the
# ends themselves; log coefficients over [1e-3, 1e6], across both of the
# limits where LogFamily refuses a member
LARGEST = math.nextafter(math.inf, 0.0)
magnitudes = st.sampled_from([5e-324, LARGEST]) | st.floats(-744.0, 709.78).map(math.exp)
built_in_parameters = st.one_of(
    st.tuples(st.just(PowerFamily), st.just(0.0) | magnitudes),
    st.tuples(st.just(LogFamily), st.floats(math.log(1e-3), math.log(1e6)).map(math.exp)),
    st.tuples(st.just(ExpFamily), magnitudes),
)


@PROPERTY
@given(made=built_in_parameters)
def test_a_built_in_members_report_is_its_grid_report(made):
    maker, value = made
    try:
        fam = maker(value)
    except DomainError:  # LogFamily refuses a member whose edge misses 0
        assume(False)
    closed = validate_family(fam)
    grid = validate_family(CustomFamily(fam.p_of_q, fam.label, fam.domain_low))
    constant = isinstance(fam, PowerFamily) and fam.exponent == 0.0
    assert closed.notes == (["boundary member: constant map p = 1"] if constant else [])
    closed.notes = grid.notes
    assert repr(closed) == repr(grid)


def hex_or_error(call, *args):
    """The floats that call(*args) returns, in hex, or its DomainError's text."""
    try:
        value = call(*args)
    except DomainError as exc:
        return str(exc)
    samples = value.samples if isinstance(value, InterceptCurve) else [(value,)]
    return [tuple(x.hex() for x in sample) for sample in samples]


@PROPERTY
@example(made=(LogFamily, 6.05), n=10_001, u=0.5)  # f(domain_low) a few ulps below 0
@example(made=(ExpFamily, 0.1653), n=10_001, u=0.5)
@given(made=built_in_parameters, n=st.integers(2, 300), u=st.floats(0.0, 1.0))
def test_a_built_in_members_values_are_its_checked_twins(made, n, u):
    # the twin is the same map as a CustomFamily, whose values the C-level
    # passes check; the exact class skips them by theorem
    maker, value = made
    try:
        fam = maker(value)
    except DomainError:
        assume(False)
    twin = CustomFamily(fam.p_of_q, fam.label, fam.domain_low)
    lo = fam.domain_low
    for q in (lo, 1.0, lo + (1.0 - lo) * u):
        assert hex_or_error(family_p, fam, q) == hex_or_error(family_p, twin, q), q
    assert hex_or_error(intercept_curve, fam, n) == hex_or_error(intercept_curve, twin, n)


def obeys_the_exception_contract(call, x):
    """call(x) returns, raises DomainError, or, for an x that is not a
    number, raises the TypeError or ValueError that float(x) raises."""
    try:
        call(x)
    except DomainError:
        return True
    except (TypeError, ValueError) as exc:
        try:
            float(x)
        except (TypeError, ValueError) as expected:
            return (type(exc), str(exc)) == (type(expected), str(expected))
        raise
    return True


contract_members = members | st.sampled_from([
    LogFamily(6.05), PowerFamily(0.0), CustomFamily(lambda q: q * q, "square"),
    CustomFamily(lambda q: q - 5e-13, "below"), CustomFamily(lambda q: 2.0 - q, "above", 0.25),
    CustomFamily(lambda q: math.nan, "nan", 0.5)])
# no int below sys.maxsize other than 1: intercept_curve takes x as its size too
contract_inputs = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308, 10 ** 400, 1.0, 0.5,
    np.float64(0.5), np.float32(math.nan), np.float64(-math.inf), np.int64(1),
    None, "x", [0.5], []])


@PROPERTY
@example(fam=LogFamily(6.05), x=None, ulps=0, n=2)  # family_p at a negative edge
@given(fam=contract_members, x=contract_inputs, ulps=st.none() | st.integers(-3, 3),
       n=st.integers(2, 50))
def test_the_family_entry_points_raise_only_domain_error(fam, x, ulps, n):
    if ulps is not None:  # x is the ulps-th float neighbour of domain_low instead
        x = fam.domain_low
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
    assert obeys_the_exception_contract(lambda q: family_p(fam, q), x)
    assert obeys_the_exception_contract(lambda q: asymptotic_intercept(fam, q), x)
    assert obeys_the_exception_contract(lambda size: intercept_curve(fam, size), x)
    assert obeys_the_exception_contract(lambda size: intercept_curve(fam, size), n)


pairs = st.integers(1, 80).flatmap(lambda m2: st.tuples(st.integers(0, m2 - 1), st.just(m2)))


def certified(cond, q, p):
    """p is one of two adjacent floats a < b with F(q, a) <= 0 < F(q, b).

    An end at 0 or 1 is a branch end, whose sign the solver states from the
    model instead of computing it (F(q, 1) > 0 can underflow to 0.0)."""
    def F(x):
        return residual(cond, DeformationPoint(q, x))

    below, above = math.nextafter(p, 0.0), math.nextafter(p, 1.0)
    return any(a < b and (a == 0.0 or F(a) <= 0.0) and (b == 1.0 or F(b) > 0.0)
               for a, b in ((below, p), (p, above)))


@PROPERTY
@given(pair=pairs, q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_the_residual_certifies_every_curve_point(pair, q):
    cond = DegeneracyCondition(*pair)
    p = solve_p_for_q(cond, q)
    if p is None:  # only a ground curve (or (0, 1), which has none) stops short of q = 1
        assert cond.m1 == 0 and residual(cond, DeformationPoint(q, 0.0)) > 0.0
    else:
        assert certified(cond, q, p), (q, p)


def test_the_residual_certifies_the_diagonal_crossing_and_the_curve_ends():
    # within 40 ulps of x* = sqrt(m / (m + 2)) the root is next to q, where
    # rounding alone sets the sign of F; near the (0, 1) corner the true
    # 1 - p, about (1 + q) q^m (1 - q) / 2, is below 1e-16 (60-digit mpmath:
    # 2.7e-19 at q = 30/999 for m = 12, 1.0e-21 at q = 295/999 for m = 39)
    for m in (1, 2, 5, 12, 39):
        cond = DegeneracyCondition(m, m + 1)
        q = math.sqrt(m / (m + 2))
        for _ in range(40):
            q = math.nextafter(q, 0.0)
        for _ in range(81):
            assert certified(cond, q, solve_p_for_q(cond, q)), (cond, q)
            q = math.nextafter(q, 1.0)
    for m, qs in ((12, range(1, 31)), (39, range(1, 300, 7))):
        cond = DegeneracyCondition(m, m + 1)
        for q in (i / 999 for i in qs):
            p = solve_p_for_q(cond, q)
            assert p >= math.nextafter(1.0, 0.0) and certified(cond, q, p), (cond, q, p)
    # from a ground curve's end q_k down, p falls towards 0, and L(q) nears
    # L(0) = 0 (e.g. (0, 8) at the computed q_k, 0.9115923534820549)
    for k in (8, 14, 18, 32):
        cond = DegeneracyCondition(0, k)
        q = endpoint_q(cond)
        for _ in range(200):
            p = solve_p_for_q(cond, q)
            assert p is None or certified(cond, q, p), (cond, q, p)
            q = math.nextafter(q, 0.0)


# near q = 1 every F(q, p) is about phi(q) / (q - p), tiny for every p, so
# many of these points pass implicit_derivative's on-curve test, some with
# p so small that float phi'(p) underflows, and some on the axes, p = 0
@PROPERTY
@example(pair=(40, 41), k=53, p=1e-10, swap=False)
@example(pair=(2, 3), k=28, p=0.0, swap=True)
@given(pair=level_pairs, k=st.integers(20, 53),
       p=st.just(0.0) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
       | st.floats(1.0, 300.0).map(lambda u: 10.0 ** -u),
       swap=st.booleans())
def test_every_interior_slope_is_non_positive(pair, k, p, swap):
    # each curve is a decreasing p(q), so no slope is positive; -inf is allowed
    q = 1.0 - 2.0 ** -k
    point = DeformationPoint(p, q) if swap else DeformationPoint(q, p)
    try:
        slope = implicit_derivative(DegeneracyCondition(*pair), point)
    except DomainError:  # off the curve, or no finite dF/dp
        return
    assert slope <= 0.0, (point, slope)


# F's exact integers across binades: the ends of [0, 1], the smallest
# subnormal and normal doubles, 1 - 2^-53, and log-uniform draws from 2^-1074
# to 1, so that p's denominator 2^e is larger than q's in some draws and
# smaller in others; pairs with m1 = 0, with d = 1, and any pair to m2 = 300
binades = st.one_of(st.sampled_from([0.0, 5e-324, 2.0 ** -1022, 1.0 - 2.0 ** -53, 1.0]),
                    st.floats(-1074.0, 0.0).map(lambda k: 2.0 ** k), st.floats(0.0, 1.0))
exact_pairs = st.one_of(
    st.integers(1, 300).map(lambda m2: (0, m2)),
    st.integers(1, 299).map(lambda m1: (m1, m1 + 1)),
    st.integers(1, 300).flatmap(lambda m2: st.tuples(st.integers(0, m2 - 1), st.just(m2))))


def phi_int(cond, n, e, j):
    """The j-th derivative of Phi(n) = phi(n / 2^e) 2^(e (m2 + 1)), term by
    term: Phi(n) = n^(m2+1) + u n^m2 - u^d n^(m1+1) - u^(d+1) n^m1 with
    u = 2^e and d = m2 - m1."""
    u, u_d = 1 << e, 1 << e * (cond.m2 - cond.m1)
    terms = ((cond.m2 + 1, 1), (cond.m2, u), (cond.m1 + 1, -u_d), (cond.m1, -u_d * u))
    return sum(c * math.perm(k, j) * n ** (k - j) for k, c in terms if k >= j)


def common_denominator(q, p):
    """(n_q, n_p, e): q = n_q / 2^e and p = n_p / 2^e exactly."""
    (a, b), (c, f) = q.as_integer_ratio(), p.as_integer_ratio()
    if b < f:
        a *= f // b
    else:
        c *= b // f
    return a, c, max(b, f).bit_length() - 1


def reference_partials(cond, q, p):
    """(F, dF/dq, dF/dp) as exact quotients over q's and p's common
    denominator, each rounded once: N = F 2^(e m2) is
    (Phi(n_q) - Phi(n_p)) / (n_q - n_p) off the diagonal and Phi'(n) on it,
    dF/dq = (phi'(q) - F) / (q - p) off it and phi''(x) / 2 on it."""
    nq, np_, e = common_denominator(q, p)
    m2 = cond.m2
    if nq == np_:
        d = phi_int(cond, nq, e, 2) / (2 << e * (m2 - 1))
        return phi_int(cond, nq, e, 1) / (1 << e * m2), d, d
    n = (phi_int(cond, nq, e, 0) - phi_int(cond, np_, e, 0)) // (nq - np_)
    den = (nq - np_) << e * (m2 - 1)
    return (n / (1 << e * m2), (phi_int(cond, nq, e, 1) - n) / den,
            (phi_int(cond, np_, e, 1) - n) / -den)


@PROPERTY
@given(pair=exact_pairs, q=binades, p=binades, diagonal=st.booleans())
def test_the_fixed_q_residual_is_the_residual_bit_for_bit(pair, q, p, diagonal):
    cond = DegeneracyCondition(*pair)
    p = q if diagonal else p
    f = _FixedQ(cond, q)
    want = reference_partials(cond, q, p)
    if q or p:  # DeformationPoint excludes the corner (0, 0)
        assert residual(cond, DeformationPoint(q, p)).hex() == want[0].hex()
    assert f.partials(q)[0].hex() == reference_partials(cond, q, q)[0].hex()
    assert list(map(float.hex, f.partials(p))) == list(map(float.hex, want))


@PROPERTY
@example(pair=(0, 8), q=0.0, ulps_below_end=0)
@example(pair=(0, 52), q=0.0, ulps_below_end=0)
@given(pair=level_pairs, q=binades, ulps_below_end=st.none() | st.integers(0, 2 ** 40))
def test_every_newton_start_lies_in_its_bracket(pair, q, ulps_below_end):
    # _root bisects the whole bracket from a start outside it, so a start
    # must lie in it for the walk to save anything: at a ground curve's end
    # q_m too, where the root p is about 1e-17 and L(q) nears L(0) = 0.
    # The end, q_m or 1, lies in [1/2, 1], where an ulp below it is 2^-53
    cond = DegeneracyCondition(*pair)
    if ulps_below_end is not None:
        q = (endpoint_q(cond) if cond.m1 == 0 else 1.0) - ulps_below_end * 2.0 ** -53
    starts, root = [], qposc.degeneracy._root

    def recording(f, x, lo, hi):
        starts.append((x, lo, hi))
        return root(f, x, lo, hi)

    with mock.patch.object(qposc.degeneracy, "_root", recording):
        solve_p_for_q(cond, q)
    assert all(lo < x <= hi for x, lo, hi in starts), starts
