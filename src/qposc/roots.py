"""Bisection root location on a bracket with a known sign change.

Bisection is used instead of Newton so that convergence is guaranteed for
the polynomial residuals this package works with; the callers derive each
bracket from the model, so no scan for sign changes is needed.
"""


def bisect_bracket(f, lo, hi, flo=None, fhi=None, xtol=1e-13, max_iter=200):
    """Shrink a sign-change bracket [lo, hi] until hi - lo <= xtol.

    Returns the final (lo, hi) pair.  If an exact zero of f is hit, both
    entries equal that abscissa.  f(lo) and f(hi) must have opposite signs
    (pass flo/fhi if already evaluated).
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
    for _ in range(max_iter):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval below float resolution
            break
        fm = f(mid)
        if fm == 0.0:
            return mid, mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return lo, hi
