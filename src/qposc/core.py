"""Two-parameter deformed oscillator: brackets, energy levels, Fock matrices.

The model is the (q, p)-deformed ladder algebra

    A A+ - q A+ A = p^N,        A A+ - p A+ A = q^N,

realized on the number basis through the deformed integers ("brackets")

    [[x]] = (q^x - p^x) / (q - p).

For an integer k >= 0 this is the polynomial sum_{r<k} q^(k-1-r) p^r,
evaluated by the recurrence [[k+1]] = q [[k]] + p^k, forward-stable since
all its terms are non-negative, and run with q >= p so that integer brackets
are bitwise symmetric in (q, p).  The Hamiltonian
H = (A A+ + A+ A) / 2 then has the spectrum E_n = ([[n+1]] + [[n]]) / 2,
with E_0 = 1/2 for every admissible (q, p) and E_n = n + 1/2 at q = p = 1.

All functions here are pure and their values can be shared between threads.
numpy is imported only by fock_rep and fock_residuals, on their first call,
for FockRep's dim x dim arrays; both read the superdiagonal and the residual
formula from _superdiagonal and _ladder_residuals, which the CLI's fock
calls directly, in O(dim) time and memory and without numpy.
"""

import math
from dataclasses import dataclass
from itertools import islice, pairwise
from numbers import Integral

from .errors import DomainError

# Exported for compatibility (qposc.__all__); no code path reads it.
EPS_EQUAL = 1e-9


@dataclass(frozen=True)
class DeformationPoint:
    """A point (q, p) of the closed unit square, excluding the corner (0, 0)."""

    q: float
    p: float

    def __post_init__(self):
        q, p = float(self.q), float(self.p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        if not (math.isfinite(q) and math.isfinite(p)):
            raise DomainError(f"deformation parameters must be finite, got ({q}, {p})")
        if not (0.0 <= q <= 1.0 and 0.0 <= p <= 1.0):
            raise DomainError(f"({q}, {p}) lies outside the unit square")
        if q == 0.0 and p == 0.0:
            raise DomainError("the corner (0, 0) is excluded from the parameter domain")


def _bracket_iter(q, p):
    """Yield [[0]], [[1]], ... by the recurrence, run with q >= p (p^0 == 1):
    every integer bracket is read from here."""
    if q < p:
        q, p = p, q
    bracket, p_pow = 0.0, 1.0
    while True:
        yield bracket
        bracket, p_pow = q * bracket + p_pow, p_pow * p


def _check_level(n):
    if not isinstance(n, (int, Integral)) or isinstance(n, bool):  # int skips the ABC hook
        raise DomainError(f"level index must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"level index must be non-negative, got {n}")


def qp_bracket_int(k, point):
    """The bracket [[k]] for an integer k >= 0, by [[k+1]] = q [[k]] + p^k;
    no special case at q == p or on the axes, where p^0 == 1 gives [[1]] == 1."""
    _check_level(k)
    return next(islice(_bracket_iter(point.q, point.p), k, None))


def qp_bracket(x, point):
    """The bracket [[x]] for real x.

    Non-negative integer x always goes through the recurrence of
    qp_bracket_int.  Otherwise, with q >= p > 0 (the bracket is symmetric),
    the defining ratio is q^(x-1) (1 - (p/q)^x) / ((q - p)/q), with
    1 - (p/q)^x = -expm1(-x log1p((q - p)/p)): it neither overflows nor
    cancels as q - p -> 0, and q == p gives the limit x q^(x-1).
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"bracket argument must be finite, got {x}")
    if x.is_integer() and x >= 0:
        return next(islice(_bracket_iter(point.q, point.p), int(x), None))
    q, p = max(point.q, point.p), min(point.q, point.p)
    if p == 0.0:
        raise DomainError(f"[[{x}]] is undefined on the axes (power of zero)")
    if q == p:
        return x * q ** (x - 1.0)
    d = q - p
    return q ** (x - 1.0) * -math.expm1(-x * math.log1p(d / p)) / (d / q)


def energy_level(n, point):
    """E_n = ([[n+1]] + [[n]]) / 2 for the deformed oscillator."""
    _check_level(n)
    return next(islice(energy_iter(point), n, None))


def energy_spectrum(n_max, point):
    """[E_0, ..., E_n_max] in O(n_max): the first values of energy_iter."""
    _check_level(n_max)
    return list(islice(energy_iter(point), n_max + 1))


def energy_iter(point):
    """Iterate E_0, E_1, ... in O(1) per step."""
    return (0.5 * (upper + lower)
            for lower, upper in pairwise(_bracket_iter(point.q, point.p)))


@dataclass(frozen=True, eq=False)
class FockRep:
    """Truncated number-basis matrices of the deformed ladder operators.

    a_matrix annihilates (zero but for its superdiagonal sqrt([[1]]), ...),
    a_dagger_matrix is its transpose, n_matrix = diag(0, 1, ..., dim-1).
    Records compare by identity, so they hash; arrays have no single truth value.
    """

    dim: int
    a_matrix: "np.ndarray"
    a_dagger_matrix: "np.ndarray"
    n_matrix: "np.ndarray"


def _superdiagonal(dim, point):
    """[sqrt([[1]]), ..., sqrt([[dim-1]])]: the superdiagonal of A in the
    dim-dimensional truncation, the only non-zero entries of A and A+."""
    if not isinstance(dim, Integral) or dim < 2:
        raise DomainError(f"representation dimension must be an integer >= 2, got {dim!r}")
    return [math.sqrt(bracket) for bracket in islice(_bracket_iter(point.q, point.p), 1, dim)]


def _ladder_residuals(s, q, p):
    """Max residuals of the two ladder relations on the first dim-1 columns,
    from the superdiagonal s of A: both relations are diagonal there, with
    A A+ = diag(s^2) and A+ A = diag(0, s^2 without its last entry)."""
    aad = [x * x for x in s]
    ada = [0.0, *aad[:-1]]
    r1 = max(abs(aa - q * ad - p ** n) for n, (aa, ad) in enumerate(zip(aad, ada)))
    r2 = max(abs(aa - p * ad - q ** n) for n, (aa, ad) in enumerate(zip(aad, ada)))
    return r1, r2


def fock_rep(dim, point):
    """Build the dim-dimensional truncated representation.

    The defining relations hold on the first dim-1 basis columns; the top
    state is necessarily violated by the cutoff.
    """
    s = _superdiagonal(dim, point)
    import numpy as np
    a = np.diag(s, 1)
    return FockRep(dim=dim, a_matrix=a, a_dagger_matrix=a.T.copy(),
                   n_matrix=np.diag(np.arange(dim, dtype=float)))


def fock_residuals(rep, point):
    """Max entrywise residuals of the two ladder relations on the first
    dim-1 columns: (A A+ - q A+ A - p^N, A A+ - p A+ A - q^N).

    Checks FockRep's structure first (DomainError counts the stray entries);
    then both relations are diagonal and take O(dim) from the superdiagonal
    of A, by _ladder_residuals.
    """
    import numpy as np
    a = rep.a_matrix
    s = np.diag(a, 1)
    stray = (np.count_nonzero(a) - np.count_nonzero(s)
             + np.count_nonzero(rep.a_dagger_matrix != a.T))
    if stray:
        raise DomainError(f"{stray} stray entries: A must vanish off its "
                          "superdiagonal and A+ must equal A^T")
    return _ladder_residuals(s.tolist(), point.q, point.p)
