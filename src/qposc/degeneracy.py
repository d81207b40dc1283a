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
ints, and F's sign is read from them with no division, exact everywhere
(a subnormal |F| too): the root is the one pair of adjacent floats at
which that sign changes, and residual and the partials keep correctly
rounded values.  A walk from Newton's estimate towards the root, in steps
that double from one ulp, brackets it and bisect_bracket finishes it
(_root), halving at one midpoint rule (_mid).  Every evaluation of F goes
through one fixed-q state, _FixedQ: it computes q's half of those
integers, phi(q) and phi'(q), once, from one pair of big powers
(_phi_pair), and each F(q, p) computes p's half alone.  Its partials give
the curve slope only near the diagonal, |q - p| < 2 / max(m2 + 1, 32),
and on the axes; elsewhere the slope is the float ratio phi'(q) / phi'(p),
where -F_q/F_p at the float p loses digits towards the (0, 1) corner.
_slope derives the band: either way the slope is within about twice
max(m1 + m2, 32) ulps of the curve's.

An in-family degeneracy is where a line p = f(q), non-decreasing with
f(1) = 1, crosses a curve: the sign change of g(q) = F(q, f(q)) on
[lo, 1] (_crossing).  Illinois on the O(1) surrogate
G(q) = (L(f(q)) - L(q)) / (q - f(q)), which has g's sign, estimates it
(_estimate_q), and g's exact sign certifies it through the same walk, in
2 exact evaluations of g in the median.
"""

import math
import sys
from typing import NamedTuple, Optional

from .errors import DomainError, Record, to_float, to_index

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


def _phi_int(cond, n, e, j=0):
    """The j-th derivative of the integer polynomial
    Phi(n) = phi(x) 2^(e (m2 + 1)) at x = n / 2^e, so that
    phi^(j)(x) = Phi^(j)(n) / 2^(e (m2 + 1 - j)).  With
    u = 2^e (x = 1) and d = m2 - m1, Phi is four monomials c n^k,

        Phi(n) = n^(m2+1) + u n^m2 - u^d n^(m1+1) - u^(d+1) n^m1,

    and Phi^(j) is their exact sum of c k!/(k-j)! n^(k-j) over k >= j."""
    m1, m2, d = cond.m1, cond.m2, cond.m2 - cond.m1
    unit, unit_d = 1 << e, 1 << e * d
    if not j:  # the hot case
        return (unit + n) * n ** m1 * (n ** d - unit_d)
    terms = ((m2 + 1, 1), (m2, unit), (m1 + 1, -unit_d), (m1, -unit_d * unit))
    return sum(c * math.perm(k, j) * n ** (k - j) for k, c in terms if k >= j)


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


class _FixedQ:
    """F(q, .) for one q from the one set of F's exact integers: Phi(n_q)
    and Phi'(n_q) at q's own denominator 2^e_q, computed once.  At p,
    N = F(q, p) 2^(e m2) is (Phi(n_q) - Phi(n_p)) / (n_q - n_p) off the
    diagonal, an exact integer quotient, and Phi'(n) on it, over the common
    denominator 2^e.  A call returns F's sign from those integers with no
    division, exact everywhere, subnormal |F| too; partials rounds N and the
    derivatives' numerators correctly (CPython's int / int)."""

    __slots__ = ("cond", "nq", "eq", "phi", "dphi")

    def __init__(self, cond, q):
        self.cond = cond
        self.nq, den = q.as_integer_ratio()
        self.eq = den.bit_length() - 1
        self.phi, self.dphi = _phi_pair(cond, self.nq, self.eq)

    def _align(self, p):
        """(n_q, Phi(n_q), Phi'(n_q), n_p, e) over the common denominator 2^e.
        Phi^(j) is homogeneous of degree m2 + 1 - j in (n, 2^e), so a p with
        a larger denominator shifts q's half left, and one with a smaller
        shifts n_p."""
        np_, den = p.as_integer_ratio()
        e, eq = den.bit_length() - 1, self.eq
        if e <= eq:
            return self.nq, self.phi, self.dphi, np_ << eq - e, eq
        s, m2 = e - eq, self.cond.m2
        return self.nq << s, self.phi << s * (m2 + 1), self.dphi << s * m2, np_, e

    def __call__(self, p):
        """The sign of F(q, p), -1, 0 or 1: that of Phi'(n) on the diagonal,
        else that of Phi(n_q) - Phi(n_p), flipped where n_q < n_p.  Each
        evaluation computes Phi(n_p) alone."""
        nq, phi, dphi, np_, e = self._align(p)
        if nq == np_:
            return (dphi > 0) - (dphi < 0)
        n = phi - _phi_int(self.cond, np_, e)
        return (n > 0) - (n < 0) if nq > np_ else (n < 0) - (n > 0)

    def partials(self, p):
        """(F, dF/dq, dF/dp) at p, from Phi and Phi' at n_p (_phi_pair): off
        the diagonal dF/dq = (phi'(q) - F) / (q - p) and dF/dp is its mirror
        (F is symmetric), on it F = phi'(x) and both are phi''(x) / 2."""
        nq, phi_q, dphi_q, np_, e = self._align(p)
        cond, m2 = self.cond, self.cond.m2
        if nq == np_:
            d = _phi_int(cond, nq, e, 2) / (2 << e * (m2 - 1))
            return dphi_q / (1 << e * m2), d, d
        phi_p, dphi_p = _phi_pair(cond, np_, e)
        n = (phi_q - phi_p) // (nq - np_)
        den = (nq - np_) << e * (m2 - 1)
        return n / (1 << e * m2), (dphi_q - n) / den, (dphi_p - n) / -den


def residual(cond, point):
    """Degeneracy residual F at the given point, correctly rounded: zero iff
    E_{m1} == E_{m2}, or |F| is at most half the smallest positive double."""
    return _FixedQ(cond, point.q).partials(point.p)[0]


def _log_neg_phi(cond, x):
    """(L(x), L'(x)), L = ln(-phi), in O(1) for every pair: -phi(x) =
    (1 + x) x^m1 (1 - x^d) > 0 on (0, 1), d = m2 - m1.  At the ends L is its
    limit, L(0) = 0 for a ground pair (-phi(0) = 1), else -inf, and
    L(1) = -inf (phi(1) = 0); L' there is NaN, which no caller reads."""
    if not 0.0 < x < 1.0:
        return (0.0 if x == 0.0 and not cond.m1 else -math.inf), math.nan
    d, lx = cond.m2 - cond.m1, math.log(x)
    tail = -math.expm1(d * lx)  # 1 - x^d without cancellation
    return (math.log1p(x) + cond.m1 * lx + math.log(tail),
            1.0 / (1.0 + x) + (cond.m1 - d * x ** d / tail) / x)


def _estimate_p(cond, q, lo, hi):
    """Newton's estimate of the p in [lo, hi] with L(p) = L(q), 0 <= q < 1,
    or None where it cannot start, with L and L' from _log_neg_phi.

    L is concave on (0, 1), so Newton moves monotonically towards the root
    from the side it starts on: beyond the root on [q, 1], below it on
    [0, q].  The start is on that side by a bound on L: L(p) < ln(2d(1 - p))
    on [q, 1], L(p) < log1p(q) + m1 ln p on [0, q] for m1 > 0, and
    L(p) < log1p(p) for m1 = 0.  Steps stop when they no longer move the
    estimate that way, or leave the bracket; F decides the root.  A start
    at hi takes no step, as L' there is NaN (hi = 1.0) or points away (a
    rising-branch q): at q = 0 a pair with m1 > 0 has L(0) = -inf, so the
    start rounds to hi = 1.0, the root, as F(0, p) <= 0 on [0, 1).
    """
    lq = _log_neg_phi(cond, q)[0]
    if lo == q:  # [q, 1]: q is on the falling branch of phi
        x, s = 1.0 - math.exp(lq) / (2 * (cond.m2 - cond.m1)), -1.0
    elif cond.m1:
        x, s = math.exp((lq - math.log1p(q)) / cond.m1), 1.0
    else:
        x, s = math.expm1(lq), 1.0
    if not lo < x <= hi:
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


def _estimate_q(cond, f, lo):
    """The float estimate of g's sign change on [lo, 1]: Illinois on the
    surrogate G of the module docstring, -L'(q) where f(q) == q, with L(q)
    and L'(q) from one _log_neg_phi call.  The ends are not evaluated:
    g(lo) < 0 by the admission test and g(1) > 0.  A step that leaves the
    bracket, as when an end's value is infinite, or that follows three
    steps that did not halve it, takes _mid instead."""
    def surrogate(q):
        p, (lq, dlq) = f(q), _log_neg_phi(cond, q)
        if p == q:  # F(q, q) = phi'(q) = -L'(q) exp(L(q))
            return -dlq
        return (_log_neg_phi(cond, p)[0] - lq) / (q - p)

    a, b, ga, gb = lo, 1.0, -math.inf, math.inf
    side, slow, width = 0, 0, math.inf  # the end the last step moved; steps since the bracket halved
    for _ in range(200):  # a cap, not a tolerance: g's exact sign finishes
        x = a - ga * (b - a) / (gb - ga)  # regula falsi; NaN or an end if a value is infinite
        if slow > 2 or not a < x < b:
            x = _mid(a, b)
            if not a < x < b:  # a and b are adjacent floats
                break
        gx = surrogate(x)
        if gx > 0.0:
            b, gb = x, gx
            if side > 0:  # Illinois: the same end twice, so halve the other's value
                ga *= 0.5
            side = 1
        elif gx < 0.0:
            a, ga = x, gx
            if side < 0:
                gb *= 0.5
            side = -1
        else:
            return x
        slow += 1
        if b - a <= 0.5 * width:
            slow, width = 0, b - a
    return a if -ga < gb else b


def _mid(lo, hi):
    """The midpoint of [lo, hi], 0 <= lo < hi, strictly inside unless they
    are adjacent floats: arithmetic while hi is 1 or at most 16 lo, else
    geometric, so a root near 0 takes about 64 halvings of [0, 1], not 1 075."""
    if hi == 1.0 or hi <= 16.0 * lo:
        return 0.5 * (lo + hi)
    return math.sqrt(max(lo, 5e-324)) * math.sqrt(hi)


def bisect_bracket(f, lo, hi):
    """Shrink [lo, hi], 0 <= lo < hi, where f(lo) <= 0 < f(hi), to two
    adjacent floats and return them as (lo, hi), halving at _mid.  The ends'
    signs are the caller's, from the model, and the ends are never
    evaluated: an end can be the root itself, as p = 1 is at q = 0, where
    F(0, 1) = 0.  f(mid) > 0 makes mid hi and any other sign, 0 too, lo;
    there is no tolerance."""
    while True:
        mid = _mid(lo, hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
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
    in-family crossing (_crossing) share this one walk."""
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

    f = _FixedQ(cond, q)
    if f(q) <= 0.0:
        lo, hi = q, 1.0
    else:
        f0 = f(0.0)
        if f0 >= 0.0:  # past q_m, or F(q, 0) == 0 at q = q_m or q = 1
            return None if f0 > 0.0 else 0.0
        lo, hi = 0.0, q
    lo, hi = _root(f, _estimate_p(cond, q, lo, hi), lo, hi)
    return 0.5 * (lo + hi)


def _crossing(cond, f, lo):
    """The crossing on [lo, 1] of the line p = f(q) with cond's curve, as two
    adjacent floats, or None.  The line crosses the decreasing curve at most
    once, and does iff it starts below it: the curve has a p at q = lo
    (solve_p_for_q) and f(lo) lies below it.  By (q - p) F = phi(q) - phi(p),
    g(q) = F(q, f(q)) then rises through zero once (g(1) = 2 (m2 - m1) > 0)."""
    p_curve = solve_p_for_q(cond, lo)
    if p_curve is None or not f(lo) < p_curve:
        return None
    return _root(lambda q: _FixedQ(cond, q)(f(q)), _estimate_q(cond, f, lo), lo, 1.0)


def _dphi(cond, x):
    """phi'(x) in floats, 0 < x <= 1: x^(m2-1) ((m2+1) x + m2) - 1 for m1 = 0,
    else x^(m1-1) (d (1 + x) - (1 - x^d) ((m2+1) x + m2)) with d = m2 - m1
    and 1 - x^d = -expm1(d ln x), which cancels nothing near x = 1."""
    m1, m2 = cond.m1, cond.m2
    h = (m2 + 1) * x + m2
    if not m1:
        return x ** (m2 - 1) * h - 1.0
    d = m2 - m1
    return x ** (m1 - 1) * (d * (1.0 + x) + math.expm1(d * math.log(x)) * h)


def _slope(cond, q, p, partials=None):
    """dp/dq at the curve point (q, p).  Off the axes and off the band
    |q - p| < 2 / max(m2 + 1, 32) around the diagonal it is the float ratio
    phi'(q) / phi'(p) (_dphi), which needs no exact state, or its limit -inf
    where float phi'(p) underflows to 0 (p ~ 1e-10 on a high pair); else it
    is -(dF/dq) / (dF/dp) from the exact partials, the caller's or
    _FixedQ.partials', or -inf where dF/dp = 0: the curve is a decreasing
    graph p(q), so that is a vertical tangent, and never dF/dq = 0 too.
    implicit_derivative rejects dF/dp = 0, and trace_curve meets it only at
    the (1, 0) end of a pair with m1 >= 2, where dF/dq = phi'(1) =
    2 (m2 - m1) > 0: in the band dF/dp ~ phi''(x*) / 2 > 0, and on the axes
    dF/dp > 0 elsewhere.

    p is within an ulp of the curve, and each form carries that error into
    the slope s.  The ratio's relative error is |phi''(p) / phi'(p)| ulp(p),
    about 2 ulp(p) / |q - p| near x*, where phi' vanishes and q and p lie
    either side of it; the cancellation of float phi' there adds about as
    much.  Outside the band that is at most about max(m2 + 1, 32) ulp(p): 32,
    under 1e-14 with the cancellation, or for m2 > 31 the order of the
    ratio's error at the (0, 1) corner, ulp(p) phi''(1) / phi'(1) =
    (m1 + m2) ulp(p).  -F_q/F_p's is |1 + 1/s| ulp(p) / |q - p|: small near
    the diagonal, where s is near -1, but growing as 1/|s| towards the
    corner, which a band of width 2 / (m2 + 1) keeps out."""
    if q and p and abs(q - p) >= 2.0 / max(cond.m2 + 1, 32):
        dphi_p = _dphi(cond, p)
        return _dphi(cond, q) / dphi_p + 0.0 if dphi_p else -math.inf
    _, dq, dp = partials or _FixedQ(cond, q).partials(p)
    return -dq / dp + 0.0 if dp else -math.inf  # + 0.0 normalizes -0.0


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
    """Curve slope dp/dq at a point on the curve, by _slope's rule: -F_q/F_p
    in its band and on the axes, else phi'(q) / phi'(p), or its limit -inf.

    The point must satisfy |residual| < 1e-8, and |residual| <= 1e-8 times
    the sum of |monomials| of F (_monomial_scale): near q = 0 a high pair's
    F is tiny everywhere, on the curve or off it.  A vanishing dF/dp is
    rejected: a vertical tangent at an extent endpoint, or partials that
    underflow to 0 together with F, as at q = 0 with p tiny.
    """
    q, p = point.q, point.p
    r, dq, dp = _FixedQ(cond, q).partials(p)
    if not (abs(r) < _ON_CURVE_TOL and abs(r) <= _ON_CURVE_TOL * _monomial_scale(cond, q, p)):
        raise DomainError(f"point ({q}, {p}) is not on the {cond} curve "
                          f"(|residual| = {abs(r):.3g})")
    if dp == 0.0:
        raise DomainError(f"no finite slope at ({q}, {p}): dF/dq = {dq + 0.0:.3g}, dF/dp = 0")
    return _slope(cond, q, p, (r, dq, dp))


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
    return _root(_FixedQ(cond, 0.0), _estimate_p(cond, 0.0, 0.0, 1.0), 0.0, 1.0)[0]


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

    Every interior sample has a p, and lies on the curve, so neither is
    checked.  solve_p_for_q finds no p only where F(q, q) > 0 and
    F(q, 0) > 0, by exact signs.  But F(q, 0) = phi(q) / q < 0 on (0, 1) for
    m1 >= 1, and for a ground pair F(q, 0) = q^m2 + q^(m2-1) - 1 rises to
    F(q_m, 0) <= 0 at the float q_m that endpoint_q returns, above every
    interior q = q_m i / last (rounding is monotone, and last < 2^53 in any
    trace that fits in memory).  The p it returns is one of two adjacent
    floats lo < hi with F(q, lo) <= 0 < F(q, hi), by exact signs, so
    |F(q, p)| <= max |dF/dp| ulp(p) <= m2^2 2^-53: on the unit square dF/dp
    is a difference of two sums of non-negative terms, the larger at most
    m2^2.  That is below implicit_derivative's 1e-8 for m2 <= 9 000, and
    past it p is still one of the two floats next to the root.
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
        samples.append(CurvePoint(qv, pv, _slope(cond, qv, pv)))
    return CurveTrace(cond, tuple(samples))
