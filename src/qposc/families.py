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
The three built-in maps are admissible by theorem, so validate_family
reports them without evaluating them; a subclass or a CustomFamily gets
the 10 000-point grid.

An in-family degeneracy is the sign change of g(q) = F(q, f(q)) on
[domain_low, 1], found as qposc.degeneracy finds a p-root: floats estimate
it, here a safeguarded Illinois method on the O(1) surrogate
G(q) = (L(f(q)) - L(q)) / (q - f(q)), which has g's sign, and g's exact
sign certifies it, by a walk from the estimate in steps that double from
one ulp and a bisection of the bracket the walk leaves (degeneracy._root).
That takes 2 exact evaluations of g in the median; bisecting g over the
whole bracket took 56.
"""

import math
import operator

from .core import DeformationPoint, energy_level
from .degeneracy import _log_neg_phi, _log_neg_phi_value, _residual_raw, _root, solve_p_for_q
from .errors import DomainError, Record, _shown, to_float

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
    """to_float(value), which must be finite and > 0 (>= 0 with allow_zero)."""
    value = to_float(value, name)
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
        # f misses 0 here if exp(-1/alpha) is subnormal, or if its rounding
        # (up to 2**-54 near 1) times alpha exceeds the slack: alpha > 18 014
        edge = self.p_of_q(self.domain_low)
        if not -_BOUNDS_SLACK < edge < _BOUNDS_SLACK:
            raise DomainError(f"log coefficient {alpha} too {'small' if alpha < 1.0 else 'large'}: "
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
        self.domain_low = domain_low = to_float(domain_low, "domain_low")
        if not (0.0 <= domain_low < 1.0):
            raise DomainError(f"domain_low must lie in [0, 1), got {domain_low}")
        self._func = func
        self.label = str(label)

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


def _real(p):
    """float(p), with a number beyond the float range as +-inf."""
    try:
        return float(p)
    except OverflowError:
        return math.inf if p > 0 else -math.inf


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
        ps = [p if 0.0 <= p <= 1.0 else _clamp(p) for p in ps]
        if not _in_unit(ps):
            q, p = next((q, p) for q, p in zip(qs, ps) if not 0.0 <= p <= 1.0)
            raise DomainError(f"{fam.label} leaves the unit interval: f({q}) = {_shown(p)}")
    return ps


def family_p(fam, q):
    """f(q), validated against the family domain and the unit interval."""
    return _family_ps(fam, [to_float(q, "q")])[0]


class FamilyReport(Record, frozen=False):
    """Admissibility check result; failures are content, not exceptions.

    endpoint_value is f(1), and violations lists the first _CAP (q, reason)
    pairs of n_violations.  Unlike the other records it is mutable, and so
    unhashable; each report gets its own lists.
    """

    __slots__ = ("passed", "endpoint_value", "violations", "n_violations", "notes")
    _CAP = 10

    def __init__(self, passed, endpoint_value, violations=None, n_violations=0, notes=None):
        Record.__init__(self, passed, endpoint_value, [] if violations is None else violations,
                        n_violations, [] if notes is None else notes)


def validate_family(fam):
    """Check the admissibility requirements: f is non-decreasing on
    [domain_low, 1], stays in [0, 1] there, and f(1) = 1, each within
    _BOUNDS_SLACK.

    An exact PowerFamily, LogFamily or ExpFamily passes by theorem, and its
    report is made without evaluating the map:
    - each map is non-decreasing and lies in [0, 1] on its domain;
    - f(1) is exactly 1.0 in floats: 1.0 ** l, exp(0.0) and 1 + a*log(1.0)
      are all 1.0;
    - libm errs by less than 1 ulp, so any computed decrease is a few ulps,
      far below _BOUNDS_SLACK;
    - LogFamily.__init__ checks the one point where rounding matters,
      f(exp(-1/a)), and refuses a member that misses 0 there.
    Any other map, a subclass of a built-in included, is checked on a
    uniform grid of _VALIDATE_GRID points: one p_of_qs call evaluates it,
    and C-level passes decide whether the per-point passes that collect the
    (q, reason) violations run at all.  A value beyond the float range is a
    violation like any other."""
    notes = (["boundary member: constant map p = 1"]
             if isinstance(fam, PowerFamily) and fam.exponent == 0.0 else [])
    if type(fam) in (PowerFamily, LogFamily, ExpFamily):
        return FamilyReport(passed=True, endpoint_value=1.0, notes=notes)
    lo = fam.domain_low
    step = (1.0 - lo) / (_VALIDATE_GRID - 1)
    qs = [lo + i * step for i in range(_VALIDATE_GRID - 1)] + [1.0]
    ps = fam.p_of_qs(qs)

    found = []  # (q, reason, values); only the reported ones are formatted
    if abs(_real(ps[-1]) - 1.0) > _BOUNDS_SLACK:
        found.append((1.0, "f(1) = {}, expected 1", (ps[-1],)))
    rising = all(map(operator.le, ps, ps[1:]))  # False next to any NaN
    if not (rising and -_BOUNDS_SLACK <= ps[0] and ps[-1] <= 1.0 + _BOUNDS_SLACK):
        found += [(q, "f(q) = {} outside [0, 1]", (p,)) for q, p in zip(qs, ps)
                  if not -_BOUNDS_SLACK <= p <= 1.0 + _BOUNDS_SLACK]  # NaN is outside
    if not rising:
        found += [(q, "f decreases: {} -> {}", (a, b))
                  for q, a, b in zip(qs[1:], ps, ps[1:]) if _real(b) < _real(a) - _BOUNDS_SLACK]
    shown = [(q, reason.format(*map(_shown, values)))
             for q, reason, values in found[:FamilyReport._CAP]]
    return FamilyReport(passed=not found, endpoint_value=ps[-1], notes=notes,
                        violations=shown, n_violations=len(found))


def _estimate_q(fam, cond, lo):
    """The float estimate of g's sign change on [lo, 1]: Illinois on the
    surrogate G of the module docstring, -L'(q) where f(q) == q.  The ends
    are not evaluated: g(lo) < 0 by the admission test and g(1) > 0.  A
    step that leaves the bracket, as when an end's value is infinite, or
    that follows three steps that did not halve it, takes the midpoint
    instead: the arithmetic one while b is 1 or at most 16 a, else the
    geometric one, so that a root near 0 takes few steps."""
    def surrogate(q):
        p = family_p(fam, q)
        if p == q:  # F(q, q) = phi'(q) = -L'(q) exp(L(q))
            return -_log_neg_phi(cond, q)[1]
        return (_log_neg_phi_value(cond, p) - _log_neg_phi_value(cond, q)) / (q - p)

    a, b, ga, gb = lo, 1.0, -math.inf, math.inf
    side, slow, width = 0, 0, math.inf  # the end the last step moved; steps since the bracket halved
    for _ in range(200):  # a cap, not a tolerance: g's exact sign finishes
        x = a - ga * (b - a) / (gb - ga)  # regula falsi; NaN or an end if a value is infinite
        if slow > 2 or not a < x < b:
            x = (0.5 * (a + b) if b == 1.0 or b <= 16.0 * a
                 else math.sqrt(max(a, 5e-324)) * math.sqrt(b))
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
    through zero once on [domain_low, 1] (g(1) = 2 (m2 - m1) > 0).  Floats
    estimate the crossing (_estimate_q) and g's exact sign certifies it
    (degeneracy._root), as the module docstring says.  A crossing below
    the smallest positive double, where the bracket keeps its lower end
    0.0, raises DomainError.
    """
    lo = fam.domain_low
    p_curve = solve_p_for_q(cond, lo)
    if p_curve is None or not family_p(fam, lo) < p_curve:
        return None
    a, b = _root(lambda q: _residual_raw(cond, q, family_p(fam, q)),
                 _estimate_q(fam, cond, lo), lo, 1.0)
    if a == 0.0:
        raise DomainError(f"{fam.label} crosses the {cond} curve below the "
                          f"smallest positive double")
    return 0.5 * (a + b)


def family_energy(fam, n, q):
    """E_n along the family: energy_level at the composed point (q, f(q))."""
    return energy_level(n, DeformationPoint(q, family_p(fam, q)))
