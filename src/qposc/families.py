"""One-parameter reductions p = f(q) of the two-parameter oscillator.

An admissible reduction must be non-decreasing on its domain, stay inside
[0, 1], and satisfy f(1) = 1; each such map selects a one-parameter
q-oscillator class.  Built-in families:

    power:  p = q^l         (l >= 0; l = 1 is the p = q diagonal,
                             l = 0 the constant boundary member p = 1)
    log:    p = 1 + a ln q  (a > 0; domain clipped to [exp(-1/a), 1])
    exp:    p = exp(a(q-1)) (a > 0)

plus arbitrary user maps via CustomFamily.  A member's value is read one
way: family_p is the one-point case of the validated grid map _family_ps.
"""

import math
import operator
from dataclasses import dataclass, field

from .core import DeformationPoint, energy_level
from .degeneracy import _residual_raw, bisect_bracket, solve_p_for_q
from .errors import DomainError

# grid size fixed by the admissibility contract
_VALIDATE_GRID = 10_000
_BOUNDS_SLACK = 1e-12


class ReductionFamily:
    """Base interface: a label, the smallest admissible q, and the map itself.

    A subclass overrides p_of_qs, the map on a sequence of q returned as a
    list; p_of_q(q) is its value on (q,), so each formula is written once.
    """

    label = "?"
    domain_low = 0.0

    def p_of_q(self, q):
        return self.p_of_qs((q,))[0]

    def p_of_qs(self, qs):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.label!r})"

    def __eq__(self, other):
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self):
        return hash((type(self), frozenset(vars(self).items())))


def _parameter(value, name, allow_zero=False):
    """float(value), which must be finite and > 0 (>= 0 with allow_zero)."""
    value = float(value)
    if not (math.isfinite(value) and (value > 0.0 or allow_zero and value == 0.0)):
        raise DomainError(f"{name} must be {'>=' if allow_zero else '>'} 0, got {value}")
    return value


class PowerFamily(ReductionFamily):
    def __init__(self, exponent):
        self.exponent = _parameter(exponent, "power exponent", allow_zero=True)
        self.label = f"power:{self.exponent:g}"

    def p_of_qs(self, qs):
        exponent = self.exponent
        return [q ** exponent for q in qs]


class LogFamily(ReductionFamily):
    def __init__(self, alpha):
        self.alpha = alpha = _parameter(alpha, "log coefficient")
        self.label = f"log:{alpha:g}"
        self.domain_low = math.exp(-1.0 / alpha)  # where p reaches 0
        if self.domain_low == 0.0:
            raise DomainError(f"log coefficient {alpha} too small: exp(-1/alpha) underflows to 0")
        edge = self.p_of_q(self.domain_low)  # misses 0 if exp(-1/alpha) is subnormal
        if not -_BOUNDS_SLACK < edge < _BOUNDS_SLACK:
            raise DomainError(f"log coefficient {alpha} too small: "
                              f"f(exp(-1/alpha)) = {edge!r}, not within {_BOUNDS_SLACK:g} of 0")

    def p_of_qs(self, qs):
        alpha, log = self.alpha, math.log
        return [1.0 + alpha * log(q) for q in qs]


class ExpFamily(ReductionFamily):
    def __init__(self, alpha):
        self.alpha = _parameter(alpha, "exp coefficient")
        self.label = f"exp:{self.alpha:g}"

    def p_of_qs(self, qs):
        alpha, exp = self.alpha, math.exp
        return [exp(alpha * (q - 1.0)) for q in qs]


class CustomFamily(ReductionFamily):
    """User-supplied map; must be side-effect-free and finite on its domain."""

    def __init__(self, func, label, domain_low=0.0):
        if not (0.0 <= domain_low < 1.0):
            raise DomainError(f"domain_low must lie in [0, 1), got {domain_low}")
        self._func = func
        self.label = str(label)
        self.domain_low = float(domain_low)

    def p_of_qs(self, qs):
        return list(map(self._func, qs))


def parse_family(text):
    """Parse the CLI grammar power:<l> | log:<alpha> | exp:<alpha>."""
    kind, sep, value = str(text).partition(":")
    if not sep:
        raise ValueError(f"family must look like kind:value, got {text!r}")
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"family parameter must be a decimal literal, got {value!r}") from None
    makers = {"power": PowerFamily, "log": LogFamily, "exp": ExpFamily}
    if kind not in makers:
        raise ValueError(f"unknown family kind {kind!r}; expected power, log or exp")
    return makers[kind](number)


def _clamp(p):
    # boundary values like 1 + a*ln(exp(-1/a)) land a few ulp outside [0, 1]
    if -_BOUNDS_SLACK < p < 0.0:
        return 0.0
    if 1.0 < p < 1.0 + _BOUNDS_SLACK:
        return 1.0
    return p


def _in_unit(ps):  # C-level passes; min and max can pass over a NaN, sum cannot
    return 0.0 <= min(ps) and max(ps) <= 1.0 and not math.isnan(sum(ps))


def _family_ps(fam, qs):
    """f(q) for each q of a rising grid qs, in one p_of_qs call: the domain
    is checked at the grid's ends, a p within _BOUNDS_SLACK of [0, 1] is
    clamped onto it, and any other miss raises at the first offending q."""
    if not (fam.domain_low <= qs[0] and qs[-1] <= 1.0):  # NaN fails too
        q = next(q for q in qs if not (math.isfinite(q) and fam.domain_low <= q <= 1.0))
        raise DomainError(f"q={q} outside family domain [{fam.domain_low}, 1]")
    ps = fam.p_of_qs(qs)
    if not _in_unit(ps):
        ps = list(map(_clamp, ps))
        if not _in_unit(ps):
            q, p = next((q, p) for q, p in zip(qs, ps) if not 0.0 <= p <= 1.0)
            raise DomainError(f"{fam.label} leaves the unit interval: f({q}) = {p}")
    return ps


def family_p(fam, q):
    """f(q), validated against the family domain and the unit interval."""
    return _family_ps(fam, [float(q)])[0]


@dataclass
class FamilyReport:
    """Admissibility check result; failures are content, not exceptions."""

    passed: bool
    endpoint_value: float            # f(1)
    violations: list = field(default_factory=list)  # (q, reason), capped
    n_violations: int = 0
    notes: list = field(default_factory=list)

    _CAP = 10


def validate_family(fam):
    """Check the two admissibility requirements on a uniform grid:
    f is non-decreasing on [domain_low, 1] and f(1) = 1 (plus 0 <= f <= 1).
    One p_of_qs call evaluates the grid, and C-level passes decide whether
    the per-point passes that collect the (q, reason) violations run at all."""
    lo = fam.domain_low
    step = (1.0 - lo) / (_VALIDATE_GRID - 1)
    qs = [lo + i * step for i in range(_VALIDATE_GRID - 1)] + [1.0]
    ps = fam.p_of_qs(qs)

    found = []
    if abs(ps[-1] - 1.0) > _BOUNDS_SLACK:
        found.append((1.0, f"f(1) = {ps[-1]!r}, expected 1"))
    rising = all(map(operator.le, ps, ps[1:]))  # False next to any NaN
    if not (rising and -_BOUNDS_SLACK <= ps[0] and ps[-1] <= 1.0 + _BOUNDS_SLACK):
        found += [(q, f"f(q) = {p!r} outside [0, 1]") for q, p in zip(qs, ps)
                  if not math.isfinite(p) or p < -_BOUNDS_SLACK or p > 1.0 + _BOUNDS_SLACK]
    if not rising:
        found += [(q, f"f decreases: {a!r} -> {b!r}") for q, a, b in zip(qs[1:], ps, ps[1:])
                  if b < a - _BOUNDS_SLACK]
    notes = (["boundary member: constant map p = 1"]
             if isinstance(fam, PowerFamily) and fam.exponent == 0.0 else [])
    return FamilyReport(passed=not found, endpoint_value=ps[-1], notes=notes,
                        violations=found[:FamilyReport._CAP], n_violations=len(found))


def solve_degeneracy_on_family(fam, cond):
    """The q strictly between domain_low and 1 where the family line crosses
    the degeneracy curve of cond, or None when the family does not admit
    that degeneracy.

    The family must be admissible (validate_family): a non-decreasing line
    p = f(q) then crosses the decreasing curve at most once.  The member
    admits the degeneracy iff it starts below the curve: the curve has a p
    at q = domain_low (solve_p_for_q) and f(domain_low) lies below it.  By
    (q - p) F(q, p) = phi(q) - phi(p), F(q, .) is negative below the
    curve's p and positive above it, so g(q) = F(q, f(q)) then rises
    through zero once on [domain_low, 1] (g(1) = 2 (m2 - m1) > 0), and one
    bisection of g finds the crossing.  A crossing below the smallest
    positive double, where the bracket keeps its lower end 0.0, raises
    DomainError.
    """
    lo = fam.domain_low
    p_curve = solve_p_for_q(cond, lo)
    if p_curve is None or not family_p(fam, lo) < p_curve:
        return None
    a, b = bisect_bracket(lambda q: _residual_raw(cond, q, family_p(fam, q)), lo, 1.0)
    if a == 0.0:
        raise DomainError(f"{fam.label} crosses the {cond} curve below the "
                          f"smallest positive double")
    return 0.5 * (a + b)


def family_energy(fam, n, q):
    """E_n along the family: energy_level at the composed point (q, f(q))."""
    return energy_level(n, DeformationPoint(q, family_p(fam, q)))
