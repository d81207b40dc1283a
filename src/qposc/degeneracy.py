"""Pairwise energy-level degeneracy curves of the two-parameter oscillator.

A condition E_{m1} = E_{m2} cuts a curve F(q, p) = 0 out of the unit
square.  Two families have closed polynomial residuals:

  ground   (0, m), m >= 2:
      F = sum_{r=0}^{m} p^(m-r) q^r + sum_{s=0}^{m-1} p^(m-1-s) q^s - 1
  neighbor (m, m+1), m >= 1:
      F = sum_{r=0}^{m+1} p^(m+1-r) q^r - sum_{s=0}^{m-1} p^(m-1-s) q^s

Both equal twice the corresponding energy gap, so all residual forms vanish
on the same locus; any other index pair ("general" type) is handled through
2 * (E_{m2} - E_{m1}) directly.  On its extent each curve is the graph of a
continuous, monotonically decreasing implicit function p(q) whose slope is
-(dF/dq) / (dF/dp).
"""

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import NamedTuple, Optional

import numpy as np

from .core import _brackets
from .errors import ConsistencyError, DomainError
from .roots import bisect_bracket, grid_roots_from_values

GROUND = "ground"
NEIGHBOR = "neighbor"
GENERAL = "general"

# p-scan resolution used when inverting the curve at fixed q.
_SCAN_STEP = 1e-3
_ON_CURVE_TOL = 1e-8


@dataclass(frozen=True)
class DegeneracyCondition:
    """An ordered pair of level indices whose energies are required to meet."""

    m1: int
    m2: int

    def __post_init__(self):
        for m in (self.m1, self.m2):
            if not isinstance(m, int) or isinstance(m, bool) or m < 0:
                raise DomainError(f"level indices must be non-negative integers, got {m!r}")
        if self.m1 >= self.m2:
            raise DomainError(f"need m1 < m2, got ({self.m1}, {self.m2})")

    @property
    def kind(self):
        if self.m1 == 0 and self.m2 >= 2:
            return GROUND
        if self.m1 >= 1 and self.m2 == self.m1 + 1:
            return NEIGHBOR
        return GENERAL


def _pows(x, n):
    """[x^0, x^1, ..., x^n] by repeated multiplication (x^0 == 1 even at x = 0)."""
    return list(accumulate(repeat(x, n), operator.mul, initial=1.0))


def _ground_raw(m, q, p):
    qp, pp = _pows(q, m), _pows(p, m)
    terms = [pp[m - r] * qp[r] for r in range(m + 1)]
    terms += [pp[m - 1 - s] * qp[s] for s in range(m)]
    terms.append(-1.0)
    return math.fsum(terms)


def _neighbor_raw(m, q, p):
    qp, pp = _pows(q, m + 1), _pows(p, m + 1)
    terms = [pp[m + 1 - r] * qp[r] for r in range(m + 2)]
    terms += [-pp[m - 1 - s] * qp[s] for s in range(m)]
    return math.fsum(terms)


def _residual_raw(cond, q, p):
    kind = cond.kind
    if kind == GROUND:
        return _ground_raw(cond.m2, q, p)
    if kind == NEIGHBOR:
        return _neighbor_raw(cond.m1, q, p)
    # general type: twice the energy gap, no hand-expanded polynomial
    b = _brackets(cond.m2 + 1, q, p)
    e1 = 0.5 * (b[cond.m1 + 1] + b[cond.m1])
    e2 = 0.5 * (b[cond.m2 + 1] + b[cond.m2])
    return 2.0 * (e2 - e1)


def _ground_dq(m, q, p):
    qp, pp = _pows(q, m), _pows(p, m)
    terms = [r * pp[m - r] * qp[r - 1] for r in range(1, m + 1)]
    terms += [s * pp[m - 1 - s] * qp[s - 1] for s in range(1, m)]
    return math.fsum(terms)


def _neighbor_dq(m, q, p):
    qp, pp = _pows(q, m + 1), _pows(p, m + 1)
    terms = [r * pp[m + 1 - r] * qp[r - 1] for r in range(1, m + 2)]
    terms += [-s * pp[m - 1 - s] * qp[s - 1] for s in range(1, m)]
    return math.fsum(terms)


def _bracket_dq(k, q, p):
    """d[[k]]/dq = sum_{r=0}^{k-2} (k-1-r) q^(k-2-r) p^r."""
    if k < 2:
        return 0.0
    qp, pp = _pows(q, k - 2), _pows(p, k - 2)
    return math.fsum((k - 1 - r) * qp[k - 2 - r] * pp[r] for r in range(k - 1))


def _general_dq(cond, q, p):
    return math.fsum([_bracket_dq(cond.m2 + 1, q, p), _bracket_dq(cond.m2, q, p),
                      -_bracket_dq(cond.m1 + 1, q, p), -_bracket_dq(cond.m1, q, p)])


def _partials_raw(cond, q, p):
    """(dF/dq, dF/dp); the residuals are symmetric in (q, p), so the
    p-partial is the q-partial with arguments swapped."""
    kind = cond.kind
    if kind == GROUND:
        return _ground_dq(cond.m2, q, p), _ground_dq(cond.m2, p, q)
    if kind == NEIGHBOR:
        return _neighbor_dq(cond.m1, q, p), _neighbor_dq(cond.m1, p, q)
    return _general_dq(cond, q, p), _general_dq(cond, p, q)


def _pow_table(x, n):
    """Stacked powers x^0 .. x^n of an array, by repeated multiplication."""
    out = np.empty((n + 1,) + x.shape)
    out[0] = 1.0
    for j in range(1, n + 1):
        out[j] = out[j - 1] * x
    return out


def _residual_grid(cond, q_arr, p_arr):
    """Residual evaluated over whole grids at once (scan acceleration).

    Values may differ from _residual_raw in the last few ulp, which is
    harmless for sign-change bracketing: the brackets are re-refined against
    the scalar form and grid values next to a root sit ~1e-4 * slope away
    from zero.  Exact zeros (curve endpoints on the axes) coincide.
    """
    q_arr = np.asarray(q_arr, dtype=float)
    p_arr = np.asarray(p_arr, dtype=float)
    kind = cond.kind
    if kind == GROUND:
        m = cond.m2
        qt, pt = _pow_table(q_arr, m), _pow_table(p_arr, m)
        res = -np.ones_like(q_arr)
        for r in range(m + 1):
            res += pt[m - r] * qt[r]
        for s in range(m):
            res += pt[m - 1 - s] * qt[s]
        return res
    if kind == NEIGHBOR:
        m = cond.m1
        qt, pt = _pow_table(q_arr, m + 1), _pow_table(p_arr, m + 1)
        res = np.zeros_like(q_arr)
        for r in range(m + 2):
            res += pt[m + 1 - r] * qt[r]
        for s in range(m):
            res -= pt[m - 1 - s] * qt[s]
        return res
    top = max(cond.m2, 1)
    qt, pt = _pow_table(q_arr, top), _pow_table(p_arr, top)

    def bracket(k):
        out = np.zeros_like(q_arr)
        for r in range(k):
            out += qt[k - 1 - r] * pt[r]
        return out

    e1 = 0.5 * (bracket(cond.m1 + 1) + bracket(cond.m1))
    e2 = 0.5 * (bracket(cond.m2 + 1) + bracket(cond.m2))
    return 2.0 * (e2 - e1)


def residual(cond, point):
    """Degeneracy residual at the given point; zero iff E_{m1} == E_{m2}."""
    return _residual_raw(cond, point.q, point.p)


def solve_p_for_q(cond, q) -> Optional[float]:
    """The unique p in [0, 1] with residual(cond, (q, p)) == 0, or None.

    A uniform p-scan (step 1e-3) looks for sign changes which bisection then
    refines below 1e-12.  No sign change means the curve does not reach this
    q.  More than one candidate root contradicts the monotone-uniqueness of
    the curve and raises ConsistencyError.
    """
    q = float(q)
    if not (math.isfinite(q) and 0.0 <= q <= 1.0):
        raise DomainError(f"q must lie in [0, 1], got {q}")
    n = round(1.0 / _SCAN_STEP)
    grid = [i / n for i in range(n + 1)]
    if q == 0.0:
        grid = grid[1:]  # (0, 0) is outside the parameter domain

    def f(p):
        return _residual_raw(cond, q, p)

    vals = _residual_grid(cond, np.full(len(grid), q), np.array(grid))
    candidates = grid_roots_from_values(grid, vals)
    if not candidates:
        return None
    if len(candidates) > 1:
        raise ConsistencyError(
            f"{len(candidates)} roots in p for {cond} at q={q}; expected at most one")
    lo, hi = candidates[0]
    if lo == hi:
        return lo
    lo, hi = bisect_bracket(f, lo, hi, xtol=1e-13)
    return 0.5 * (lo + hi)


def implicit_derivative(cond, point):
    """Curve slope dp/dq = -(dF/dq)/(dF/dp) at a point on the curve.

    The point must satisfy |residual| < 1e-8; a vanishing dF/dp (vertical
    tangent, reached only at extent endpoints) is rejected.
    """
    r = _residual_raw(cond, point.q, point.p)
    if abs(r) >= _ON_CURVE_TOL:
        raise DomainError(f"point ({point.q}, {point.p}) is not on the {cond} curve "
                          f"(|residual| = {abs(r):.3g})")
    dq, dp = _partials_raw(cond, point.q, point.p)
    if dp == 0.0:
        raise DomainError(f"vertical tangent at ({point.q}, {point.p}): dF/dp vanishes")
    return -dq / dp


def endpoint_q(cond):
    """Largest q reached by a ground-type curve: the root of q^m + q^(m-1) = 1.

    By the q <-> p symmetry this also equals the p-axis endpoint.  The value
    returned is the inner edge of the final bisection bracket (residual < 0
    side), so a p-solve at this q still sees a sign change.
    """
    if cond.kind != GROUND:
        raise DomainError(f"endpoint_q applies to ground-type conditions only, got {cond}")
    m = cond.m2

    def f(x):
        return x ** m + x ** (m - 1) - 1.0

    lo, hi = bisect_bracket(f, 0.0, 1.0, flo=-1.0, fhi=1.0, xtol=1e-13)
    return lo


class CurvePoint(NamedTuple):
    q: float
    p: float
    dpdq: float


@dataclass(frozen=True)
class CurveTrace:
    """Ordered samples (q, p, dp/dq) along one degeneracy curve."""

    condition: DegeneracyCondition
    samples: tuple


def _slope_for_trace(cond, q, p):
    # like implicit_derivative, but a vertical tangent at an extent endpoint
    # is reported as -inf instead of an error
    dq, dp = _partials_raw(cond, q, p)
    if dp == 0.0:
        if dq == 0.0:
            raise ConsistencyError(f"degenerate tangent for {cond} at ({q}, {p})")
        return -math.inf if dq > 0.0 else math.inf
    return -dq / dp + 0.0  # + 0.0 normalizes -0.0


def trace_curve(cond, n_samples):
    """Sample the curve at n_samples q-values uniform on its extent.

    Ground-type curves live on [0, q_m]; every other type runs across the
    whole square from (0, 1) to (1, 0).  The extent endpoints are attached
    exactly rather than re-solved, which keeps the root finder away from the
    axis touch points.
    """
    if not isinstance(n_samples, int) or n_samples < 2:
        raise DomainError(f"need at least 2 samples, got {n_samples!r}")
    if (cond.m1, cond.m2) == (0, 1):
        # E_1 - E_0 = (q + p)/2 > 0 on the whole admissible square
        raise DomainError("the pair (0, 1) has no degeneracy locus")
    if cond.kind == GROUND:
        q_hi = endpoint_q(cond)
        p_first = q_hi  # the axis intercepts coincide
    else:
        q_hi = 1.0
        p_first = 1.0

    samples = []
    last = n_samples - 1
    for i in range(n_samples):
        qv = q_hi * i / last
        if i == 0:
            pv = p_first
        elif i == last:
            qv, pv = q_hi, 0.0
        else:
            pv = solve_p_for_q(cond, qv)
            if pv is None:
                raise ConsistencyError(f"curve for {cond} lost at q={qv}")
        r = _residual_raw(cond, qv, pv)
        if abs(r) >= _ON_CURVE_TOL:
            raise ConsistencyError(f"sample ({qv}, {pv}) off curve: residual {r:.3g}")
        samples.append(CurvePoint(qv, pv, _slope_for_trace(cond, qv, pv)))
    return CurveTrace(condition=cond, samples=tuple(samples))
