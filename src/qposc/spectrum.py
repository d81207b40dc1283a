"""Shape of the spectrum E(n) along a one-parameter family.

For any strictly deformed member with p < 1 the level energies rise over the
first few n, reach a single maximum, then decay monotonically to zero; the
peak moves right as q grows toward the equally-spaced q = 1 limit.
"""

import math
import operator
from itertools import compress

from .core import DeformationPoint, energy_spectrum
from .errors import DomainError, Record, to_float, to_index
from .families import family_p


class SpectrumProfile(Record):
    """E_0..E_n_max with the peak position and the tail value E_n_max.

    decay_violations lists any post-peak indices n where E_n fails to
    decrease strictly (empty for a well-formed profile).
    """

    __slots__ = ("family", "q", "energies", "peak_index", "tail_bound", "decay_violations")


def profile(fam, q, n_max=200):
    """Profile the spectrum at the family member q (strictly deformed). On a
    member with p = 1 (no peak, see peak_level) peak_index is where the rise
    stalls in floating point, with the plateau in decay_violations, or n_max."""
    n_max = to_index(n_max, "n_max must be an integer >= 2 and below sys.maxsize", low=2)
    q = to_float(q, "q")
    if q >= 1.0:
        raise DomainError("profile needs q < 1; the undeformed spectrum is linear and has no peak")
    point = DeformationPoint(q, family_p(fam, q))
    energies = energy_spectrum(n_max, point)
    peak = energies.index(max(energies))  # the first maximum
    # post-peak n with E_n >= E_{n-1}, in one C-level pass; a NaN compares False
    violations = tuple(compress(range(peak + 1, n_max + 1),
                                map(operator.ge, energies[peak + 1:], energies[peak:n_max])))
    return SpectrumProfile(fam, q, tuple(energies), peak, energies[n_max], violations)


def peak_level(fam, q):
    """Index of the spectral maximum in O(1): 2 (q - p)(E_{n+1} - E_n) =
    p^n (1 - p^2) - q^n (1 - q^2) changes sign once in n, at
    n* = ln((1 - q^2)/(1 - p^2)) / ln(p/q), so the peak is floor(n*) + 1."""
    q = to_float(q, "q")
    if q >= 1.0:
        raise DomainError("peak_level needs q < 1")
    p = DeformationPoint(q, family_p(fam, q)).p
    if p == 1.0:
        raise DomainError(f"{fam.label} has p = 1 at q={q}: E_n rises for ever, no peak")
    if q == 0.0 or p == 0.0:
        return 1  # n* = 0 on the axes
    if q == p:
        return math.floor(2.0 * q * q / ((1.0 - q) * (1.0 + q))) + 1
    # log1p keeps a few ulp of relative accuracy as p -> q, where p - q is
    # exact (Sterbenz); for p < q/2, (p - q)/q can round to -1, so ln(p/q)
    log_pq = math.log(p / q) if p < 0.5 * q else math.log1p((p - q) / q)
    return math.floor(math.log1p((p - q) * (p + q) / ((1.0 - p) * (1.0 + p))) / log_pq) + 1
