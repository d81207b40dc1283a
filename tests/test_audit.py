"""Curve slopes and every printed digit of a fixed grid of CLI tables,
against 50-digit mpmath.

The CLI prints 12 significant digits (cli._fmt), so a printed string is
right when it equals the 12-digit rounding of the true value.  Where that
value lies within 1e-15 relative of a rounding boundary, both neighbouring
strings pass.  The grid is fixed in advance, not chosen around a defect.
"""

import mpmath
import pytest

import qposc.degeneracy
from qposc import (DegeneracyCondition, DeformationPoint, energy_spectrum, implicit_derivative,
                   intercept_curve, parse_family, solve_p_for_q, trace_curve)
from qposc.cli import _fmt, main

# the curve part of the audit: interior samples of 100-sample traces
CURVE_PAIRS = [(0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (2, 3), (4, 5), (7, 8), (12, 13),
               (39, 40)]
BOUNDARY_RTOL = 1e-15


def mp_phi(m1, m2, x):
    return (1 + x) * (x ** m2 - x ** m1)


def mp_dphi(m1, m2, x):
    return (m2 + 1) * x ** m2 + m2 * x ** (m2 - 1) - (m1 + 1) * x ** m1 - m1 * x ** max(m1 - 1, 0)


def curve_reference(m1, m2, q, p):
    """The curve's p at q, Newton-polished from the float p on
    phi(p) = phi(q), and its slope phi'(q) / phi'(p), at 50 digits."""
    qm, x = mpmath.mpf(q), mpmath.mpf(p)
    target = mp_phi(m1, m2, qm)
    for _ in range(3):
        x -= (mp_phi(m1, m2, x) - target) / mp_dphi(m1, m2, x)
    return x, mp_dphi(m1, m2, qm) / mp_dphi(m1, m2, x)


def right_strings(value):
    """The 12-digit strings that pass for value: its rounding, and the
    neighbour's too if it lies within BOUNDARY_RTOL of a boundary."""
    return {_fmt(float(mpmath.nstr(value * (1 + k * BOUNDARY_RTOL), 12))) for k in (-1, 0, 1)}


class TestCurveAudit:
    def test_every_printed_p_and_slope_of_the_grid_is_right(self):
        wrong, ties, checked = [], 0, 0
        with mpmath.workdps(50):
            for m1, m2 in CURVE_PAIRS:
                for q, p, dpdq in trace_curve(DegeneracyCondition(m1, m2), 100).samples[1:-1]:
                    for name, got, want in zip(("p", "dpdq"), (p, dpdq),
                                               curve_reference(m1, m2, q, p)):
                        allowed = right_strings(want)
                        ties += len(allowed) > 1
                        checked += 1
                        if _fmt(got) not in allowed:
                            wrong.append(((m1, m2), q, name, _fmt(got), sorted(allowed)))
        assert checked == 2 * 980
        assert not wrong, f"{len(wrong)} wrong strings, first {wrong[:5]}"
        # values the boundary rule lets through with either string
        assert ties == 4, ties


def x_star(m1, m2):
    """The minimum of phi, where the curve crosses the diagonal: phi' < 0
    on (0, x*) and > 0 on (x*, 1], by bisection."""
    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mp_dphi(m1, m2, mid) < 0 else (lo, mid)
    return lo


def slope_error(m1, m2, q, p, slope):
    return float(abs(slope / curve_reference(m1, m2, q, p)[1] - 1))


class TestSlopeAccuracy:
    @pytest.mark.parametrize("m, at_one", [(7, 0), (12, 4), (20, 16), (39, 39)])
    def test_slopes_to_the_corner_within_1e_12(self, m, at_one):
        # towards (0, 1) the slope tends to 0 while p rounds to 1.0, and
        # -F_q/F_p at the float p was off by up to 1.7e-2 on (39, 40)
        samples = trace_curve(DegeneracyCondition(m, m + 1), 100).samples[1:-1]
        assert sum(s.p == 1.0 for s in samples) == at_one
        with mpmath.workdps(50):
            worst = max(slope_error(m, m + 1, *s) for s in samples)
        assert worst < 1e-12, worst

    @pytest.mark.parametrize("pair", [(0, 2), (5, 6), (39, 40)])
    def test_slopes_near_the_diagonal_within_1e_14(self, pair):
        # where phi' vanishes, at x*, the ratio phi'(q) / phi'(p) cancels
        cond = DegeneracyCondition(*pair)
        errors = {}
        with mpmath.workdps(50):
            xs = x_star(*pair)
            for offset in (1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 1e-2, -1e-12, -1e-9, -1e-7, -1e-5,
                           -1e-3, -1e-2):
                q = float(xs + offset)
                p = solve_p_for_q(cond, q)
                slope = implicit_derivative(cond, DeformationPoint(q, p))
                errors[offset] = slope_error(*pair, q, p, slope)
        assert max(errors.values()) < 1e-14, errors

    @pytest.mark.parametrize("pair", [(5, 6), (39, 40), (0, 40)])
    def test_samples_either_side_of_the_band(self, monkeypatch, pair):
        # the last sample inside the band |q - p| < 2 / max(m2 + 1, 32) and the
        # first outside, on each branch: exact partials inside, the float ratio
        # outside, both within 1e-14
        calls = []
        partials = qposc.degeneracy._FixedQ.partials
        monkeypatch.setattr(qposc.degeneracy._FixedQ, "partials",
                            lambda state, p: calls.append(p) or partials(state, p))
        cond, band = DegeneracyCondition(*pair), 2.0 / max(pair[1] + 1, 32)
        samples = trace_curve(cond, 1000).samples[1:-1]
        inside = [abs(s.q - s.p) < band for s in samples]
        edges = [i for i in range(len(samples) - 1) if inside[i] != inside[i + 1]]
        assert len(edges) == 2
        with mpmath.workdps(50):
            for i in edges:
                for s in samples[i:i + 2]:
                    calls.clear()
                    assert qposc.degeneracy._slope(cond, s.q, s.p) == s.dpdq
                    assert len(calls) == (abs(s.q - s.p) < band)
                    assert slope_error(*pair, *s) < 1e-14, (s, slope_error(*pair, *s))


# the spectra part: (member, q, n_max, p), p the member's family_p at q,
# pinned so that no libm value enters; rows every n <= 400, then every 10th
SPECTRA = [("exp:0.5", 0.01, 10, "0x1.3819ad8edc843p-1"),
           ("power:2.5", 0.97, 400, "0x1.da75ac8462007p-1"),
           ("log:0.3", 0.9, 2000, "0x1.efd10e5293726p-1"),
           ("exp:4", 0.999, 20_000, "0x1.fdf4c2599306ap-1"),
           ("power:1", 0.999, 20_000, "0x1.ff7ced916872bp-1")]
# the float recurrence's rounding error grows with n, to 2.5e-14 relative
# on this grid, and these rows print a wrong last digit (CHANGES.md, FOUND)
SPECTRA_WRONG = {("exp:4", n) for n in (10_580, 11_060, 12_180, 15_170, 15_430, 15_580, 16_930)}
SPECTRA_WRONG.add(("power:1", 7_610))


def mp_brackets(q, p, k_max):
    """[[0]] .. [[k_max]] by [[k+1]] = q [[k]] + p^k."""
    brackets, p_pow = [mpmath.mpf(0)], mpmath.mpf(1)
    for _ in range(k_max):
        brackets.append(q * brackets[-1] + p_pow)
        p_pow *= p
    return brackets


def spectrum_reference(q, p, n_max):
    """E_0 .. E_n_max from the same floats by the bracket recurrence,
    E_n = ([[n]] + [[n+1]]) / 2, at 50 digits."""
    b = mp_brackets(mpmath.mpf(q), mpmath.mpf(p), n_max + 1)
    return [(b[n + 1] + b[n]) / 2 for n in range(n_max + 1)]


class TestSpectraAudit:
    def test_every_printed_energy_of_the_grid_is_right_but_the_pinned_rows(self):
        wrong, ties, checked = set(), 0, 0
        with mpmath.workdps(50):
            for label, q, n_max, p in SPECTRA:
                p = float.fromhex(p)
                got = energy_spectrum(n_max, DeformationPoint(q, p))
                for n, want in enumerate(spectrum_reference(q, p, n_max)):
                    if n > 400 and n % 10:
                        continue
                    allowed = right_strings(want)
                    ties += len(allowed) > 1
                    checked += 1
                    if _fmt(got[n]) not in allowed:
                        wrong.add((label, n))
        assert checked == 5_695
        assert wrong == SPECTRA_WRONG, sorted(wrong ^ SPECTRA_WRONG)
        assert ties == 2, ties


def mp_member(label):
    """(domain_low, f) of the exact member: its map in mpmath, with the
    float parameter that parse_family reads as an exact value."""
    kind, value = label.split(":")
    a = mpmath.mpf(float(value))
    if kind == "power":
        return mpmath.mpf(0), lambda q: q ** a
    if kind == "exp":
        return mpmath.mpf(0), lambda q: mpmath.exp(a * (q - 1))
    return mpmath.exp(-1 / a), lambda q: 1 + a * mpmath.log(q)


def crossing_reference(label, m1, m2):
    """(q*, p*, E_m1, E_m2) where the exact member's line crosses the curve,
    or None where it does not: g(q) = F(q, f(q)) rises through 0 at most
    once on [lo, 1], to g(1) = 2 (m2 - m1), and crosses iff g(lo) <= 0
    (g(0) = F(0, 0) = 0 for m1 >= 2, where the curve starts at (0, 1),
    above the line).  Bisection, geometric while hi > 16 lo, to 1e-45."""
    lo, f = mp_member(label)

    def g(q):
        b = mp_brackets(q, f(q), m2 + 1)
        return b[m2 + 1] + b[m2] - b[m1 + 1] - b[m1]

    if g(lo) > 0:
        return None
    hi = mpmath.mpf(1)
    while hi - lo > hi * mpmath.mpf("1e-45"):
        mid = (lo + hi) / 2 if hi <= 16 * lo else mpmath.sqrt(max(lo, mpmath.mpf("1e-400")) * hi)
        lo, hi = (lo, mid) if g(mid) > 0 else (mid, hi)
    q = (lo + hi) / 2
    b = mp_brackets(q, f(q), m2 + 1)
    return q, f(q), (b[m1] + b[m1 + 1]) / 2, (b[m2] + b[m2 + 1]) / 2


# the solve part: the README's three rows, the ground pairs (0,2)..(0,5) of
# two members that admit only (0,5), and members whose p lies within 1e-12
# of 1, where the float 1 - f(q) keeps few digits
SOLVE = [("power:1", 0, 2), ("log:6.05", 0, 2), ("exp:0.5", 3, 4),
         ("log:6.05", 0, 3), ("log:6.05", 0, 4), ("log:6.05", 0, 5),
         ("exp:0.1653", 0, 2), ("exp:0.1653", 0, 3), ("exp:0.1653", 0, 4),
         ("exp:0.1653", 0, 5),
         ("exp:1e-12", 1, 2), ("exp:1e-16", 80, 81), ("power:1e-16", 80, 81),
         ("power:1e-17", 5, 6), ("exp:1e-17", 5, 6), ("power:2.5", 0, 5)]
SOLVE_COLUMNS = ("q_star", "p_star", "E_m1", "E_m2")
# 1 - p keeps few digits where p lies within 1e-12 of 1: these rows print a
# wrong q*, with the energies that follow from it, and exp:1e-17 (5, 6)
# prints none (CHANGES.md, FOUND)
SOLVE_WRONG = {("exp:1e-12", 1, 2, "q_star")}
SOLVE_WRONG.update(("exp:1e-17", 5, 6, name) for name in SOLVE_COLUMNS)
SOLVE_WRONG.update((*row, name) for name in ("q_star", "E_m1", "E_m2")
                   for row in [("exp:1e-16", 80, 81), ("power:1e-16", 80, 81),
                               ("power:1e-17", 5, 6)])


class TestSolveAudit:
    def test_every_printed_string_of_the_grid_is_right_but_the_pinned_rows(self, capsys):
        wrong, ties, nones = set(), 0, 0
        with mpmath.workdps(50):
            for label, m1, m2 in SOLVE:
                assert main(["solve", "--levels", f"{m1},{m2}", "--family", label]) == 0
                row = capsys.readouterr().out.splitlines()[-1]
                want = crossing_reference(label, m1, m2)
                nones += want is None
                got = row.split(",") if row != "none" else ["none"] * 4
                for name, printed, value in zip(SOLVE_COLUMNS, got, want or [None] * 4):
                    allowed = {"none"} if value is None else right_strings(value)
                    ties += len(allowed) > 1
                    if printed not in allowed:
                        wrong.add((label, m1, m2, name))
        assert nones == 6
        assert wrong == SOLVE_WRONG, sorted(wrong ^ SOLVE_WRONG)
        assert ties == 0, ties


# the intercept part: 101-sample grids of members whose p lies within 1e-6
# of 1 on part of the domain, and of log:1000, whose domain starts near 1
INTERCEPT = ["exp:1e-12", "exp:1e-6", "power:1e-9", "log:1000"]
# at q = 0, lambda = p - 1 is about -a, and the rounding of the float p next
# to 1 errs by 2.2e-5 of it at a = 1e-12, 1.6e-11 at a = 1e-6 (CHANGES.md, FOUND)
INTERCEPT_WRONG = {("exp:1e-12", 0), ("exp:1e-6", 0)}


class TestInterceptAudit:
    def test_every_printed_lambda_of_the_grid_is_right_but_the_pinned_rows(self):
        # lambda = q + f(q) - 1 of the exact member at the same float q
        wrong, ties, checked = set(), 0, 0
        with mpmath.workdps(50):
            for label in INTERCEPT:
                f = mp_member(label)[1]
                for i, (q, lam) in enumerate(intercept_curve(parse_family(label), 101).samples):
                    allowed = right_strings(q + f(mpmath.mpf(q)) - 1)
                    ties += len(allowed) > 1
                    checked += 1
                    if _fmt(lam) not in allowed:
                        wrong.add((label, i))
        assert checked == 4 * 101
        assert wrong == INTERCEPT_WRONG, sorted(wrong ^ INTERCEPT_WRONG)
        assert ties == 3, ties
