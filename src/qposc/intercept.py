"""Large-momentum intercept of the two-particle correlation in the deformed
Bose gas built on a reduction family.

The asymptote is lambda = q + f(q) - 1.  Two members have this form on
record: the constant family p = 1, an exact PowerFamily(0), where the
intercept is q itself, and an exact ExpFamily(0.5), where it is
-1 + q + exp((q-1)/2).  For every other family, a subclass of either
class included, the same expression is an extrapolation and is labeled
as such in emitted tables.
"""

import math

from .errors import Record, to_float, to_index
from .families import _BOUNDS_SLACK, ExpFamily, LogFamily, PowerFamily, _family_ps


def _intercepts(fam, qs):
    """The (q, lambda) pairs on a rising grid qs, in one pass over qs and
    _family_ps(fam, qs), the checked path; lambda = q + f(q) - 1 is grouped
    as q + (p - 1) so that the constant family returns q bit-exactly."""
    return [(q, q + (p - 1.0)) for q, p in zip(qs, _family_ps(fam, qs))]


def asymptotic_intercept(fam, q):
    """lambda(q) = q + f(q) - 1; equals 1 at q = 1 for any admissible family.
    The one-point case of _intercepts, as family_p is of _family_ps, so
    f(q) is checked where _family_ps says."""
    return _intercepts(fam, [to_float(q, "q")])[0][1]


class InterceptCurve(Record):
    """(q, lambda) samples on a uniform q-grid; extrapolated is True unless
    the family has the form on record."""

    __slots__ = ("family", "samples", "extrapolated")


def _is_extrapolated(fam):
    if type(fam) is PowerFamily and fam.exponent == 0.0:
        return False
    if type(fam) is ExpFamily and fam.alpha == 0.5:
        return False
    return True


def intercept_curve(fam, n_samples):
    """Sample the intercept on a uniform q-grid over the family domain:
    asymptotic_intercept(fam, q) bit for bit, or its first error.

    An exact built-in member (type(fam), as in validate_family), frozen at
    construction, takes one fused pass over the grid index below q = 1,
    with its map written inline as the families docstring states it.  By
    the theorem validate_family states, its values lie in [0, 1], but an
    exact LogFamily's leading ones below _BOUNDS_SLACK, next to domain_low;
    those are taken again from _intercepts, clamped and checked, as is the
    end q = 1.  Any other family, a subclass included, takes _intercepts
    over the whole grid.  A twin property holds each fused pass to the same
    map as a CustomFamily, which takes the checked path, bit for bit."""
    last = to_index(n_samples, "need at least 2 samples, below sys.maxsize", low=2) - 1
    lo, end = fam.domain_low, float(last)
    span, kind = 1.0 - lo, type(fam)
    # float indices: int operands convert to the same doubles, at a lower
    # cost; where lo is 0.0, x / end has the bits of lo + span * x / end
    xs = map(float, range(last))
    if kind is PowerFamily:
        exponent = fam.exponent
        pairs = [(q := x / end, q + (q ** exponent - 1.0)) for x in xs]
    elif kind is ExpFamily:
        alpha, exp = fam.alpha, math.exp
        pairs = [(q := x / end, q + (exp(alpha * (q - 1.0)) - 1.0)) for x in xs]
    elif kind is LogFamily:
        alpha, log = fam.alpha, math.log
        pairs = [(q := lo + span * x / end, q + ((1.0 + alpha * log(q)) - 1.0)) for x in xs]
        lead = next((i for i, (q, _) in enumerate(pairs) if 1.0 + alpha * log(q) >= _BOUNDS_SLACK),
                    last)
        if lead:
            pairs[:lead] = _intercepts(fam, [q for q, _ in pairs[:lead]])
    else:
        pairs = _intercepts(fam, [lo + span * x / end for x in xs] + [1.0])
        return InterceptCurve(fam, tuple(pairs), _is_extrapolated(fam))
    pairs += _intercepts(fam, [1.0])
    return InterceptCurve(fam, tuple(pairs), _is_extrapolated(fam))
