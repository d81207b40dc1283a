"""Pairwise energy-level degeneracy curves of the two-parameter oscillator.

A condition E_{m1} = E_{m2} cuts a curve F(q, p) = 0 out of the unit
square, with the residual

    F = [[m2+1]] + [[m2]] - [[m1+1]] - [[m1]] = 2 (E_{m2} - E_{m1}),

a symmetric polynomial with integer coefficients.  Every pair obeys the
level-set identity

    (q - p) F(q, p) = phi(q) - phi(p),    phi(x) = (1 + x)(x^m2 - x^m1),

and phi'(x) = F(x, x) changes sign exactly once on (0, 1) (Descartes' rule;
every pair but (0, 1), where F = q + p > 0), so phi falls to a single
minimum and rises after it.  Off the diagonal the curve is the set
phi(p) = phi(q) with p and q on opposite branches of phi, so for each q at
most one p solves F(q, p) = 0: in [q, 1] when F(q, q) <= 0 (q on the
falling branch) and in [0, q] otherwise.  On its extent each curve is the
graph of a continuous, decreasing function p(q) with slope
-(dF/dq) / (dF/dp), which equals phi'(q) / phi'(p) off the diagonal.

On (0, 1), -phi(x) = (1 + x) x^m1 (1 - x^d) > 0 with d = m2 - m1, so

    L(x) = ln(-phi(x)) = log1p(x) + m1 ln x + ln(-expm1(d ln x))

costs O(1) for every pair, is concave, and peaks where phi has its minimum.
Off the diagonal the curve is L(p) = L(q), and
sign F(q, p) = sign((L(p) - L(q)) / (q - p)).  Every p-root, endpoint_q's
too, is estimated by Newton on L, and F has the last word.  Floats are
dyadic rationals, so the identity gives F exactly as a quotient of Python
ints, rounded once (_residual_raw): every computed sign of F is its true
sign, and the root is the one pair of adjacent floats at which that sign
changes.  A walk from Newton's estimate towards the root, in steps that
double from one ulp, brackets it and bisect_bracket finishes it (_root,
which the in-family solver of qposc.families calls with its own
estimate).  q is fixed for a p-solve, so q's half of those integers,
phi(q) and phi'(q), is computed once per solve (_residual_at), and each
evaluation computes p's half alone.  At a curve point the on-curve check
and the slope read F, dF/dq and dF/dp from one set of those integers
(_residual_partials), with phi and phi' at each point from one pair of
big powers (_phi_pair).
"""

import math
import sys
from typing import NamedTuple, Optional

from .errors import ConsistencyError, DomainError, Record, to_float, to_index

GROUND = "ground"
NEIGHBOR = "neighbor"
GENERAL = "general"

_ON_CURVE_TOL = 1e-8
# F's exact integers take up to e (m2 + 1) bits, e <= 1074 for subnormal q or
# p; past this m2 that bit count, a shift's operand, exceeds sys.maxsize
_MAX_M2 = sys.maxsize // 1074 - 1
_INDEX_RULE = (f"level indices must be non-negative integers at most {_MAX_M2}, "
               f"past which F's exact integers would take over sys.maxsize bits")


class DegeneracyCondition(Record):
    """An ordered pair of level indices whose energies are required to meet."""

    __slots__ = ("m1", "m2")

    def __init__(self, m1, m2):
        m1 = to_index(m1, _INDEX_RULE, high=_MAX_M2 + 1)
        m2 = to_index(m2, _INDEX_RULE, high=_MAX_M2 + 1)
        if m1 >= m2:
            raise DomainError(f"need m1 < m2, got ({m1}, {m2})")
        Record.__init__(self, m1, m2)

    @property
    def kind(self):
        if self.m1 == 0 and self.m2 >= 2:
            return GROUND
        if self.m1 >= 1 and self.m2 == self.m1 + 1:
            return NEIGHBOR
        return GENERAL


def _dyadic(q, p):
    """(n_q, n_p, e): q = n_q / 2^e and p = n_p / 2^e exactly, as every
    float is a dyadic rational."""
    (a, b), (c, f) = q.as_integer_ratio(), p.as_integer_ratio()
    if b < f:
        a *= f // b
    else:
        c *= b // f
    return a, c, max(b, f).bit_length() - 1


def _phi_int(cond, n, e, j=0):
    """The j-th derivative of the integer polynomial
    Phi(n) = phi(x) 2^(e (m2 + 1)) at x = n / 2^e, so that
    phi^(j)(x) = Phi^(j)(n) / 2^(e (m2 + 1 - j)).  With
    u = 2^e (x = 1) and d = m2 - m1,

        Phi(n) = n^(m2+1) + u n^m2 - u^d (n^(m1+1) + u n^m1),

    so n^j Phi^(j)(n) has the factor n^m1, and n^m1 and n^d are its only
    big powers."""
    m1, m2, d = cond.m1, cond.m2, cond.m2 - cond.m1
    unit, unit_d = 1 << e, 1 << e * d
    if not j:  # the hot case
        return (unit + n) * n ** m1 * (n ** d - unit_d)
    if not n:  # j! times Phi's coefficient of n^j
        terms = ((m2 + 1, 1), (m2, unit), (m1 + 1, -unit_d), (m1, -unit_d * unit))
        return math.factorial(j) * sum(c for k, c in terms if k == j)
    perm = math.perm
    return n ** m1 * (n ** d * (perm(m2 + 1, j) * n + perm(m2, j) * unit)
                      - (perm(m1 + 1, j) * n + perm(m1, j) * unit) * unit_d) // n ** j


def _residual_raw(cond, q, p):
    """F(q, p) correctly rounded: the exact quotient N / 2^(e m2) of Python
    ints (CPython's int / int rounds correctly), so its sign is F's own
    unless |F| <= 2^-1075 rounds to 0.0.  N = F(q, p) 2^(e m2) is
    (Phi(n_q) - Phi(n_p)) / (n_q - n_p) off the diagonal, Phi'(n) on it."""
    nq, np_, e = _dyadic(q, p)
    if nq == np_:
        return _phi_int(cond, nq, e, 1) / (1 << e * cond.m2)
    return (_phi_int(cond, nq, e) - _phi_int(cond, np_, e)) // (nq - np_) / (1 << e * cond.m2)


def _phi_pair(cond, n, e):
    """(Phi(n), Phi'(n)) from one pair of big powers and no division:

        Phi'(n) = n^(m1-1) (n^d ((m2+1) n + m2 u) - u^d ((m1+1) n + m1 u)),

    which for m1 = 0 is n^(d-1) ((m2+1) n + m2 u) - u^d."""
    m1, m2, d = cond.m1, cond.m2, cond.m2 - cond.m1
    unit, unit_d = 1 << e, 1 << e * d
    if m1:
        low, high = n ** (m1 - 1), n ** d
        return ((unit + n) * low * n * (high - unit_d),
                low * (high * ((m2 + 1) * n + m2 * unit) - unit_d * ((m1 + 1) * n + m1 * unit)))
    high = n ** (d - 1)
    return (unit + n) * (high * n - unit_d), high * ((m2 + 1) * n + m2 * unit) - unit_d


def _residual_at(cond, q):
    """f(p) = _residual_raw(cond, q, p), bit for bit, with q's half computed
    once: Phi(n_q) and Phi'(n_q) at q's own denominator 2^e_q.  Phi^(j) is
    homogeneous of degree m2 + 1 - j in (n, 2^e), so a p with a larger
    denominator shifts them left, and one with a smaller shifts n_p; each
    evaluation then computes Phi(n_p) alone."""
    nq, den = q.as_integer_ratio()
    eq, m2 = den.bit_length() - 1, cond.m2
    phi_q, dphi_q = _phi_pair(cond, nq, eq)

    def f(p):
        np_, den = p.as_integer_ratio()
        e = den.bit_length() - 1
        if e <= eq:  # to q's denominator: shift n_p
            np_, e, n, phi, dphi = np_ << eq - e, eq, nq, phi_q, dphi_q
        else:  # to p's: shift n_q, Phi(n_q) and Phi'(n_q) by their degrees
            s = e - eq
            n, phi, dphi = nq << s, phi_q << s * (m2 + 1), dphi_q << s * m2
        if n == np_:
            return dphi / (1 << e * m2)
        return (phi - _phi_int(cond, np_, e)) // (n - np_) / (1 << e * m2)
    return f


def _residual_partials(cond, q, p):
    """(F, dF/dq, dF/dp) correctly rounded, from one _dyadic and Phi, Phi' at
    n_q and n_p (two _phi_pair calls): off the diagonal
    dF/dq = (phi'(q) - F) / (q - p) and dF/dp is its mirror (F is
    symmetric), on it F = phi'(x) and both are phi''(x) / 2."""
    nq, np_, e = _dyadic(q, p)
    if nq == np_:
        d = _phi_int(cond, nq, e, 2) / (2 << e * (cond.m2 - 1))
        return _phi_int(cond, nq, e, 1) / (1 << e * cond.m2), d, d
    (phi_q, dphi_q), (phi_p, dphi_p) = _phi_pair(cond, nq, e), _phi_pair(cond, np_, e)
    n = (phi_q - phi_p) // (nq - np_)
    den = (nq - np_) << e * (cond.m2 - 1)
    return n / (1 << e * cond.m2), (dphi_q - n) / den, (dphi_p - n) / -den


def residual(cond, point):
    """Degeneracy residual at the given point; zero iff E_{m1} == E_{m2}."""
    return _residual_raw(cond, point.q, point.p)


def _log_neg_phi(cond, x):
    """L(x) = ln(-phi(x)) and L'(x) for 0 < x < 1, in O(1) for every pair:
    -phi(x) = (1 + x) x^m1 (1 - x^d) > 0 with d = m2 - m1."""
    d, lx = cond.m2 - cond.m1, math.log(x)
    tail = -math.expm1(d * lx)  # 1 - x^d without cancellation
    return (math.log1p(x) + cond.m1 * lx + math.log(tail),
            1.0 / (1.0 + x) + (cond.m1 - d * x ** d / tail) / x)


def _log_neg_phi_value(cond, x):
    """L(x) alone, bit for bit _log_neg_phi's value, on [0, 1] with its
    limits at the ends: L(0) = 0 for a ground pair (-phi(0) = 1) and -inf
    otherwise, and L(1) = -inf (phi(1) = 0)."""
    if not 0.0 < x < 1.0:
        return 0.0 if x == 0.0 and not cond.m1 else -math.inf
    lx = math.log(x)
    return math.log1p(x) + cond.m1 * lx + math.log(-math.expm1((cond.m2 - cond.m1) * lx))


def _estimate_p(cond, q, lo, hi):
    """Newton's estimate of the p in [lo, hi] with L(p) = L(q), 0 <= q < 1,
    or None where it cannot start.

    L is concave on (0, 1), so Newton moves monotonically towards the root
    from the side it starts on: beyond the root on [q, 1], below it on
    [0, q].  The start is on that side by a bound on L: L(p) < ln(2d(1 - p))
    on [q, 1], L(p) < log1p(q) + m1 ln p on [0, q] for m1 > 0, and
    L(p) < log1p(p) for m1 = 0.  Steps stop when they no longer move the
    estimate that way, or leave the bracket; F decides the root.  L(0) is
    closed-form: 0 for a ground pair (-phi(0) = 1), else -inf, where the
    start rounds to hi = 1.0, the root, as F(0, p) <= 0 on [0, 1).
    """
    lq = _log_neg_phi_value(cond, q)
    if lo == q:  # [q, 1]: q is on the falling branch of phi
        x, s = 1.0 - math.exp(lq) / (2 * (cond.m2 - cond.m1)), -1.0
    elif cond.m1:
        x, s = math.exp((lq - math.log1p(q)) / cond.m1), 1.0
    else:
        x, s = math.expm1(lq), 1.0
    if x == hi:  # the start rounds to the bracket end, e.g. p = 1.0
        return x
    if not lo < x < hi:
        return None
    for _ in range(64):  # a cap, not a tolerance: F certifies what is left
        lx, dl = _log_neg_phi(cond, x)
        if not s * dl > 0.0:
            break
        x_next = x + (lq - lx) / dl
        if not (s * (x_next - x) > 0.0 and lo < x_next < hi):
            break
        x = x_next
    return x


def bisect_bracket(f, lo, hi):
    """Shrink [lo, hi], where f(lo) <= 0 < f(hi), to two adjacent floats and
    return them as (lo, hi).  The ends' signs are the caller's, from the
    model; the ends are never evaluated, as near a root, or where f
    underflows to 0.0, their computed signs can be wrong.  f(mid) > 0 makes
    mid hi and any other value, 0.0 too, lo; there is no tolerance."""
    # linear midpoints: a float-order one would cap [0, 1] at 64 steps, but
    # only brackets with no Newton estimate in them are bisected whole
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # lo and hi are adjacent floats
            return lo, hi
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid


def _root(f, x, lo, hi):
    """The root of f on [lo, hi], where f(lo) <= 0 < f(hi) by the caller's
    model, as two adjacent floats, from an estimate x (None if there is
    none).  f's exact sign at x says which way the root lies; the walk goes
    that way in steps doubling from ulp(x) (Bentley and Yao's unbounded
    search) and never evaluates an end.  bisect_bracket finishes it, or
    bisects the whole bracket if there is no estimate.  The p-solves and the
    in-family solve of qposc.families share this one walk."""
    if x is not None:
        w = math.ulp(x)
        while lo <= x <= hi:
            if x == hi or x != lo and f(x) > 0.0:
                hi, x = x, x - w
            else:
                lo, x = x, x + w
            w *= 2.0
    return bisect_bracket(f, lo, hi)


def solve_p_for_q(cond, q) -> Optional[float]:
    """The unique p in [0, 1] with residual(cond, (q, p)) == 0, or None.

    F(q, .) rises through its root on the p-bracket that the sign of
    F(q, q) = phi'(q) picks (see the module docstring).  On the falling
    branch, F(q, q) <= 0, the bracket is [q, 1]: F(q, 1) = phi(q) / (q - 1)
    is stated positive, not computed (it may vanish at q = 0, where p = 1 is
    the root).  On the rising branch the bracket is [0, q], and only
    F(q, 0) >= 0 leaves no interior root: a ground curve past its endpoint
    q_m.  F's signs are exact, so the branch is never the wrong one.

    Newton on L(p) = L(q) estimates the root, and a walk from the estimate
    brackets it (_root): 3 evaluations of F per root in the median, with
    F(q, q).  Only where Newton has no start is the whole bracket bisected.
    """
    q = to_float(q, "q")
    if not (math.isfinite(q) and 0.0 <= q <= 1.0):
        raise DomainError(f"q must lie in [0, 1], got {q}")
    if (cond.m1, cond.m2) == (0, 1):
        return None  # E_1 - E_0 = (q + p)/2 > 0 on the whole admissible square

    f = _residual_at(cond, q)
    if f(q) <= 0.0:
        lo, hi = q, 1.0
    else:
        f0 = f(0.0)
        if f0 >= 0.0:  # past q_m, or F(q, 0) == 0 at q = q_m or q = 1
            return None if f0 > 0.0 else 0.0
        lo, hi = 0.0, q
    lo, hi = _root(f, _estimate_p(cond, q, lo, hi), lo, hi)
    return 0.5 * (lo + hi)


def _slope(cond, q, p, dq, dp):
    """dp/dq = -dq/dp from the partials; a vertical tangent gives -inf (or +inf)."""
    if dp == 0.0:
        if dq == 0.0:
            raise ConsistencyError(f"degenerate tangent for {cond} at ({q}, {p}): "
                                   f"dF/dq = dF/dp = 0")
        return -math.inf if dq > 0.0 else math.inf
    return -dq / dp + 0.0  # + 0.0 normalizes -0.0


def _monomial_scale(cond, q, p):
    """The sum of |monomials| of F: the sum of the brackets left in F, all
    non-negative on the square, less the pair [[m2]] = [[m1+1]] that cancels
    for m2 = m1 + 1, by [[k+1]] = q [[k]] + p^k."""
    ks = {cond.m2 + 1, cond.m2, cond.m1 + 1, cond.m1}
    if cond.m2 == cond.m1 + 1:
        ks.remove(cond.m2)
    bracket, p_pow, total = 0.0, 1.0, 0.0
    for k in range(cond.m2 + 2):
        if k in ks:
            total += bracket
        bracket, p_pow = q * bracket + p_pow, p_pow * p
    return total


def implicit_derivative(cond, point):
    """Curve slope dp/dq = -(dF/dq)/(dF/dp) at a point on the curve.

    The point must satisfy |residual| < 1e-8, and |residual| <= 1e-8 times
    the sum of |monomials| of F (_monomial_scale): near q = 0 a high pair's
    F is tiny everywhere, on the curve or off it.  A vanishing dF/dp is
    rejected: a vertical tangent at an extent endpoint, or partials that
    underflow to 0 together with F, as at q = 0 with p tiny.
    """
    q, p = point.q, point.p
    r, dq, dp = _residual_partials(cond, q, p)
    if not (abs(r) < _ON_CURVE_TOL and abs(r) <= _ON_CURVE_TOL * _monomial_scale(cond, q, p)):
        raise DomainError(f"point ({q}, {p}) is not on the {cond} curve "
                          f"(|residual| = {abs(r):.3g})")
    if dp == 0.0:
        raise DomainError(f"no finite slope at ({q}, {p}): dF/dq = {dq + 0.0:.3g}, dF/dp = 0")
    return -dq / dp + 0.0  # + 0.0 normalizes -0.0


def endpoint_q(cond):
    """Largest q reached by a ground-type curve: the root of q^m + q^(m-1) = 1.

    It is the q = 0 p-root of its pair, _root on [0, 1]; the lower end
    is returned, and F(0, x) = x^m + x^(m-1) - 1 is F(x, 0) exactly, so
    F(q_m, 0) <= 0 where solve_p_for_q evaluates it.  F(0, x) is increasing
    and its computed signs are exact, so every sign-keeping bracket shrink
    ends on the one pair of adjacent floats with F(0, lo) <= 0 < F(0, hi).
    """
    if cond.kind != GROUND:
        raise DomainError(f"endpoint_q applies to ground-type conditions only, got {cond}")
    return _root(_residual_at(cond, 0.0), _estimate_p(cond, 0.0, 0.0, 1.0), 0.0, 1.0)[0]


class CurvePoint(NamedTuple):
    q: float
    p: float
    dpdq: float


class CurveTrace(Record):
    """Ordered samples (q, p, dp/dq) along one degeneracy curve."""

    __slots__ = ("condition", "samples")


def trace_curve(cond, n_samples):
    """Sample the curve at n_samples q-values uniform on its extent.

    Ground-type curves live on [0, q_m]; every other type runs across the
    whole square from (0, 1) to (1, 0).  The extent endpoints are attached
    exactly rather than re-solved, which keeps the root finder away from the
    axis touch points.  A vertical tangent at an endpoint is reported as
    an infinite slope.
    """
    n_samples = to_index(n_samples, "need at least 2 samples, below sys.maxsize", low=2)
    if (cond.m1, cond.m2) == (0, 1):
        # E_1 - E_0 = (q + p)/2 > 0 on the whole admissible square
        raise DomainError("the pair (0, 1) has no degeneracy locus")
    q_hi = endpoint_q(cond) if cond.kind == GROUND else 1.0

    samples = []
    last = n_samples - 1
    for i in range(n_samples):
        qv = q_hi * i / last
        if i == 0:
            pv = q_hi  # the axis intercepts coincide
        elif i == last:
            qv, pv = q_hi, 0.0
        else:
            pv = solve_p_for_q(cond, qv)
            if pv is None:
                raise ConsistencyError(
                    f"curve for {cond} lost at q={qv}: F(q, p) > 0 at both ends of "
                    f"[0, q], F(q, 0) = {_residual_raw(cond, qv, 0.0):.3g}")
        r, dq, dp = _residual_partials(cond, qv, pv)
        if abs(r) >= _ON_CURVE_TOL:
            raise ConsistencyError(f"sample ({qv}, {pv}) off the {cond} curve: "
                                   f"|F| = {abs(r):.3g} >= {_ON_CURVE_TOL:.0e}")
        samples.append(CurvePoint(qv, pv, _slope(cond, qv, pv, dq, dp)))
    return CurveTrace(cond, tuple(samples))
