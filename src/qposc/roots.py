"""Bisection on a bracket whose signs the caller states from the model.

The contract is f(lo) <= 0 < f(hi), and the ends are never evaluated: near a
root, or where f underflows to 0.0, their computed signs can be wrong.  A
midpoint with f(mid) > 0 becomes hi and any other, an exact zero too, lo,
until lo and hi are adjacent floats; there is no tolerance.

The midpoint is linear.  A float-order midpoint (halving the count of floats
left) would cap every bisection in [0, 1] at 64 steps, where a root near 0
costs up to ~1075 linear halvings (446 evaluations for log:0.0014 (0,2)
against 62).  The curves would not gain: their p-roots, endpoint_q's too,
bisect a few ulps around a Newton estimate (6.47 evaluations per sample with
either midpoint, 17 964 solves on 18 level pairs).  Only in-family solves
and p-roots where Newton has no start bisect a whole bracket.
"""


def bisect_bracket(f, lo, hi):
    """Shrink [lo, hi], where f(lo) <= 0 < f(hi), to two adjacent floats and
    return them as (lo, hi); f is called at midpoints only."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # lo and hi are adjacent floats
            return lo, hi
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
