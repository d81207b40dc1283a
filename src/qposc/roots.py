"""Bisection root location on a bracket with a known sign change.

Bisection is used instead of Newton so that convergence is guaranteed on
the brackets the callers derive from the model.  There is no step cap: a
bisection stops at width <= xtol or when its ends are adjacent floats.
"""


def bisect_bracket(f, lo, hi, flo=None, fhi=None, xtol=1e-13):
    """Shrink a sign-change bracket [lo, hi] to width <= xtol or to two
    adjacent floats, and return the final (lo, hi) pair.

    If an exact zero of f is hit, both entries equal that abscissa.  f(lo)
    and f(hi) must have opposite signs (pass flo/fhi if already evaluated).
    """
    if flo is None:
        flo = f(lo)
    if fhi is None:
        fhi = f(hi)
    if flo == 0.0:
        return lo, lo
    if fhi == 0.0:
        return hi, hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # lo and hi are adjacent floats
            break
        fm = f(mid)
        if fm == 0.0:
            return mid, mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return lo, hi
