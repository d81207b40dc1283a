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
numpy, an optional dependency (the fock extra), is imported only by fock_rep
and fock_residuals, on their first call, for FockRep's dim x dim arrays;
both read the superdiagonal and the residual formula from _superdiagonal
and _ladder_residuals, which the CLI's fock calls directly, in O(dim) time
and memory and without numpy.
"""

import math
import sys
from itertools import islice, pairwise

from .errors import DomainError, Record, to_float, to_index

# Exported for compatibility (qposc.__all__); no code path reads it.
EPS_EQUAL = 1e-9
# below islice's bound: energy_level and qp_bracket_int pass the index to islice
_LEVEL_RULE = f"level index must be a non-negative integer below sys.maxsize = {sys.maxsize}"
_DIM_RULE = f"representation dimension must be an integer in [2, sys.maxsize = {sys.maxsize})"


class DeformationPoint(Record):
    """A point (q, p) of the closed unit square, excluding the corner (0, 0)."""

    __slots__ = ("q", "p")

    def __init__(self, q, p):
        q, p = to_float(q, "q"), to_float(p, "p")
        if not (math.isfinite(q) and math.isfinite(p)):
            raise DomainError(f"deformation parameters must be finite, got ({q}, {p})")
        if not (0.0 <= q <= 1.0 and 0.0 <= p <= 1.0):
            raise DomainError(f"({q}, {p}) lies outside the unit square")
        if q == 0.0 and p == 0.0:
            raise DomainError("the corner (0, 0) is excluded from the parameter domain")
        Record.__init__(self, q, p)


def _bracket_iter(q, p):
    """Yield [[0]], [[1]], ... by the recurrence, run with q >= p (p^0 == 1):
    qp_bracket_int, energy_iter and _superdiagonal read their brackets from
    here; energy_spectrum runs the same recurrence inline."""
    if q < p:
        q, p = p, q
    bracket, p_pow = 0.0, 1.0
    while True:
        yield bracket
        bracket, p_pow = q * bracket + p_pow, p_pow * p


def qp_bracket_int(k, point):
    """The bracket [[k]] for an integer k >= 0, by [[k+1]] = q [[k]] + p^k;
    no special case at q == p or on the axes, where p^0 == 1 gives [[1]] == 1."""
    k = to_index(k, _LEVEL_RULE)
    return next(islice(_bracket_iter(point.q, point.p), k, None))


def qp_bracket(x, point):
    """The bracket [[x]] for real x.

    Non-negative integer x always goes through the recurrence of
    qp_bracket_int.  Otherwise, with q >= p > 0 (the bracket is symmetric),
    the defining ratio is q^(x-1) (1 - (p/q)^x) / ((q - p)/q), with
    1 - (p/q)^x = -expm1(-x log1p((q - p)/p)): it does not cancel as
    q - p -> 0, and q == p gives the limit x q^(x-1).  Where q^(x-1) alone
    overflows (x < 1, q subnormal), q^x takes its place and the product is
    divided by q last.  A value too large for a float is a DomainError.
    """
    x = to_float(x, "bracket argument")
    if not math.isfinite(x):
        raise DomainError(f"bracket argument must be finite, got {x}")
    if x.is_integer() and x >= 0:
        return qp_bracket_int(int(x), point)
    q, p = max(point.q, point.p), min(point.q, point.p)
    if p == 0.0:
        raise DomainError(f"[[{x}]] is undefined on the axes (power of zero)")
    d = q - p
    try:  # log1p(d / p) = ln(q / p), which is ln q - ln p where d / p overflows
        a = math.log1p(d / p) if d / p < math.inf else math.log(q) - math.log(p)
        value = x * q ** (x - 1.0) if q == p else q ** (x - 1.0) * -math.expm1(-x * a) / (d / q)
    except OverflowError:
        try:
            value = (x * q ** x if q == p else q ** x * -math.expm1(-x * a) / (d / q)) / q
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"[[{x}]] at ({point.q}, {point.p}) overflows a float")
    return value


def energy_level(n, point):
    """E_n = ([[n+1]] + [[n]]) / 2 for the deformed oscillator."""
    n = to_index(n, _LEVEL_RULE)
    return next(islice(energy_iter(point), n, None))


def energy_spectrum(n_max, point):
    """[E_0, ..., E_n_max] in O(n_max): _bracket_iter's recurrence run inline
    in one loop, the same float operations in the same order, so the values
    are bit for bit the first n_max + 1 of energy_iter."""
    n_max = to_index(n_max, _LEVEL_RULE)
    q, p = point.q, point.p
    if q < p:
        q, p = p, q
    energies, lower, p_pow = [], 0.0, 1.0
    for _ in range(n_max + 1):
        upper = q * lower + p_pow
        energies.append(0.5 * (upper + lower))
        lower, p_pow = upper, p_pow * p
    return energies


def energy_iter(point):
    """Iterate E_0, E_1, ... in O(1) per step."""
    return (0.5 * (upper + lower)
            for lower, upper in pairwise(_bracket_iter(point.q, point.p)))


class FockRep(Record):
    """Truncated number-basis matrices of the deformed ladder operators.

    a_matrix annihilates (zero but for its superdiagonal sqrt([[1]]), ...),
    a_dagger_matrix is its transpose, n_matrix = diag(0, 1, ..., dim-1).
    Records compare by identity, so they hash; arrays have no single truth value.
    """

    __slots__ = ("dim", "a_matrix", "a_dagger_matrix", "n_matrix")
    __eq__, __hash__ = object.__eq__, object.__hash__


def _superdiagonal(dim, point):
    """[sqrt([[1]]), ..., sqrt([[dim-1]])]: the superdiagonal of A in the
    dim-dimensional truncation, the only non-zero entries of A and A+."""
    dim = to_index(dim, _DIM_RULE, low=2)
    return [math.sqrt(bracket) for bracket in islice(_bracket_iter(point.q, point.p), 1, dim)]


def _ladder_residuals(s, q, p):
    """Max residuals of the two ladder relations on the first dim-1 columns,
    from the superdiagonal s of A: both relations are diagonal there, with
    A A+ = diag(s^2) and A+ A = diag(0, s^2 without its last entry).
    Running maxima from 0.0 give max's values: every residual is >= 0, and
    a NaN in s, which max would keep as its first item, is a stray entry
    to fock_residuals and never comes from _superdiagonal."""
    r1 = r2 = ad = 0.0
    for n, x in enumerate(s):
        aa = x * x
        e1 = abs(aa - q * ad - p ** n)
        e2 = abs(aa - p * ad - q ** n)
        if e1 > r1:
            r1 = e1
        if e2 > r2:
            r2 = e2
        ad = aa
    return r1, r2


def _numpy():
    """numpy, which only fock_rep and fock_residuals need: the fock extra."""
    try:
        import numpy
    except ImportError as exc:
        raise ImportError("fock_rep and fock_residuals need numpy: "
                          "pip install 'qposc[fock]'", name="numpy") from exc
    return numpy


def fock_rep(dim, point):
    """Build the dim-dimensional truncated representation.

    The defining relations hold on the first dim-1 basis columns; the top
    state is necessarily violated by the cutoff.
    """
    s = _superdiagonal(dim, point)
    np, dim = _numpy(), len(s) + 1  # dim as the int that _superdiagonal checked
    # one block: three separate 2 MB arrays (dim 500) cost 1 400 page faults a call
    a, a_dagger, n = np.zeros((3, dim, dim))
    a.flat[1::dim + 1] = a_dagger.flat[dim::dim + 1] = s  # A+ = A^T
    n.flat[::dim + 1] = np.arange(dim)
    return FockRep(dim, a, a_dagger, n)


def fock_residuals(rep, point):
    """Max entrywise residuals of the two ladder relations on the first
    dim-1 columns: (A A+ - q A+ A - p^N, A A+ - p A+ A - q^N).

    Checks FockRep's structure first: DomainError counts A's entries off its
    superdiagonal s that are != 0.0 (count_nonzero's rule, as a vectorised bool
    count) and those where A+ != A^T.  If A has none and A+ is shaped as A^T, A^T
    is s on its subdiagonal and 0 elsewhere: the second count is then nnz(A+) -
    nnz(sub) + #(sub != s), sub = diag(A+, -1), read in A+'s row order; else the
    strided compare counts an A+ entry that mirrors a stray of A once.  Both
    relations are then diagonal: O(dim) from s, by _ladder_residuals.
    """
    np = _numpy()
    a, ad = rep.a_matrix, np.asarray(rep.a_dagger_matrix)
    s = np.diag(a, 1)
    stray = np.count_nonzero(a != 0.0) - np.count_nonzero(s != 0.0)
    if stray or a.ndim != 2 or ad.shape != a.T.shape:
        stray += np.count_nonzero(ad != a.T)
    else:
        sub = np.diag(ad, -1)
        stray = (np.count_nonzero(ad != 0.0) - np.count_nonzero(sub != 0.0)
                 + np.count_nonzero(sub != s))
    if stray:
        raise DomainError(f"{stray} stray entries: A must vanish off its "
                          "superdiagonal and A+ must equal A^T")
    return _ladder_residuals(s.tolist(), point.q, point.p)
