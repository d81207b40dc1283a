"""Large-momentum intercept of the two-particle correlation in the deformed
Bose gas built on a reduction family.

The asymptote is lambda = q + f(q) - 1.  Two members have this form on
record: the constant family p = 1, an exact PowerFamily(0), where the
intercept is q itself, and an exact ExpFamily(0.5), where it is
-1 + q + exp((q-1)/2).  For every other family, a subclass of either
class included, the same expression is an extrapolation and is labeled
as such in emitted tables.
"""

from .errors import Record, to_float, to_index
from .families import ExpFamily, PowerFamily, _family_ps


def _intercepts(fam, qs):
    """The (q, lambda) pairs on a rising grid qs, in one pass over qs and
    _family_ps(fam, qs); lambda = q + f(q) - 1 is grouped as q + (p - 1)
    so that the constant family returns q bit-exactly."""
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
    """Sample the intercept on a uniform q-grid over the family domain, in
    one pass: asymptotic_intercept(fam, q) bit for bit, or its first error.
    f is checked where _family_ps says: an exact built-in member by the
    theorem validate_family states, plus LogFamily's edge clamp, and any
    other family by C-level passes over the whole grid."""
    last = to_index(n_samples, "need at least 2 samples, below sys.maxsize", low=2) - 1
    lo, end = fam.domain_low, float(last)
    span = 1.0 - lo
    # float indices: int operands convert to the same doubles, at a lower cost
    qs = [lo + span * x / end for x in map(float, range(last))] + [1.0]
    return InterceptCurve(fam, tuple(_intercepts(fam, qs)), _is_extrapolated(fam))
