"""Spectrum shape: peak location, post-peak decay, vanishing tail."""

import math
import random

import mpmath
import numpy as np
import pytest

from qposc import (DomainError, ExpFamily, LogFamily, PowerFamily,
                   family_energy, family_p, peak_level, profile,
                   solve_degeneracy_on_family)
from qposc import DegeneracyCondition as Cond

EXP_HALF = ExpFamily(0.5)


def mp_energy(n, q, p):
    # E_n from the closed-form brackets (q^k - p^k)/(q - p), k q^(k-1) on the diagonal
    def bracket(k):
        if q == p:
            return k * q ** (k - 1) if k else mpmath.mpf(0)
        return (q ** k - p ** k) / (q - p)
    return (bracket(n + 1) + bracket(n)) / 2


def mp_argmax(q, p):
    # independent 50-digit argmax of E_n at (q, p) for a spectrum that rises to
    # one maximum and then falls: the first n with E_{n+1} <= E_n, bracketed by
    # doubling and then bisected, so peaks near 1e7 cost ~50 evaluations
    with mpmath.workdps(50):
        q, p = mpmath.mpf(q), mpmath.mpf(p)

        def falls(n):
            return mp_energy(n + 1, q, p) <= mp_energy(n, q, p)

        lo, hi = -1, 1
        while not falls(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if falls(mid) else (mid, hi)
        return hi


class TestProfile:
    def test_small_q_peaks_at_one(self):
        prof = profile(EXP_HALF, 0.01, n_max=20)
        assert prof.peak_index == 1
        e1 = 0.5 * (1.0 + 0.01 + math.exp(0.5 * (0.01 - 1.0)))
        assert prof.energies[1] == pytest.approx(e1, abs=1e-14)
        assert prof.energies[1] > prof.energies[0] > prof.energies[2]

    def test_starts_at_half(self):
        for fam, q in [(EXP_HALF, 0.4), (PowerFamily(1), 0.7), (LogFamily(1.0), 0.5)]:
            assert profile(fam, q, n_max=10).energies[0] == 0.5

    def test_peak_moves_right_with_q(self):
        assert profile(EXP_HALF, 0.88).peak_index > profile(EXP_HALF, 0.4).peak_index

    def test_tail_vanishes(self):
        for q in (0.1, 0.4, 0.7):
            assert profile(EXP_HALF, q, n_max=200).tail_bound < 1e-6

    def test_clean_decay_past_peak(self):
        for q in (0.01, 0.4, 0.7, 0.88):
            assert profile(EXP_HALF, q, n_max=200).decay_violations == ()

    def test_undeformed_rejected(self):
        with pytest.raises(DomainError):
            profile(PowerFamily(1), 1.0)

    def test_short_range_rejected(self):
        with pytest.raises(DomainError):
            profile(EXP_HALF, 0.5, n_max=1)

    def test_numpy_level_count(self):
        assert profile(EXP_HALF, 0.5, np.int64(20)) == profile(EXP_HALF, 0.5, 20)
        with pytest.raises(DomainError, match="n_max must be an integer"):
            profile(EXP_HALF, 0.5, 20.0)


class TestPeakLevel:
    def test_matches_exhaustive_scan(self):
        fam = PowerFamily(1)
        prof = profile(fam, 0.05, n_max=100)
        assert peak_level(fam, 0.05) == prof.peak_index

    def test_between_neighbors(self):
        lo = peak_level(EXP_HALF, 0.4)
        mid = peak_level(EXP_HALF, 0.7)
        hi = peak_level(EXP_HALF, 0.88)
        assert lo < mid < hi

    def test_near_undeformed_peak_is_far_out(self):
        for fam in (EXP_HALF, PowerFamily(1)):
            assert peak_level(fam, 0.999) > 50

    def test_agrees_with_profile(self):
        for q in (0.2, 0.5, 0.8):
            assert peak_level(EXP_HALF, q) == profile(EXP_HALF, q, n_max=200).peak_index

    def test_undeformed_rejected(self):
        with pytest.raises(DomainError):
            peak_level(PowerFamily(1), 1.0)

    @pytest.mark.parametrize("q, peak", [(0.999999, 1386293), (0.9999999, 13862943)])
    def test_far_peak_near_undeformed(self, q, peak):
        assert peak_level(EXP_HALF, q) == peak == mp_argmax(q, family_p(EXP_HALF, q))

    def test_far_peak_on_the_diagonal(self):
        assert peak_level(PowerFamily(1), 0.9999) == 9999 == mp_argmax(0.9999, 0.9999)

    @pytest.mark.parametrize("exponent", [1.0 - 1e-12, 1.0 + 1e-12])
    def test_near_diagonal_members(self, exponent):
        # p lies 1 to 90 ulp from q, where ln(p/q) would keep a digit or none
        fam = PowerFamily(exponent)
        for q in (0.99, 0.999, 0.9999):
            assert family_p(fam, q) != q
            assert peak_level(fam, q) == mp_argmax(q, family_p(fam, q)), q

    def test_axis_edges_peak_at_one(self):
        log = LogFamily(1.0)
        for fam, q in [(EXP_HALF, 0.0), (log, log.domain_low)]:
            assert peak_level(fam, q) == 1 == mp_argmax(q, family_p(fam, q))

    @pytest.mark.parametrize("fam, q, plateau", [(PowerFamily(0), 0.5, 53),
                                                 (ExpFamily(0.2), 1.0 - 2.0 ** -53, 200)])
    def test_constant_p_has_no_peak(self, fam, q, plateau):
        assert family_p(fam, q) == 1.0
        with pytest.raises(DomainError, match="p = 1"):
            peak_level(fam, q)
        # profile reports where the rise stalls in floats, then the plateau
        prof = profile(fam, q, n_max=200)
        assert prof.peak_index == plateau
        assert prof.decay_violations == tuple(range(plateau + 1, 201))

    def test_matches_profile_and_mpmath_on_random_members(self):
        rng = np.random.default_rng(55)
        n_max, cases = 200, 0
        while cases < 60:
            kind = int(rng.integers(3))
            if kind == 0:
                fam = PowerFamily(float(rng.uniform(0.2, 4.0)))
            elif kind == 1:
                fam = LogFamily(float(rng.uniform(0.3, 6.0)))
            else:
                fam = ExpFamily(float(rng.uniform(0.1, 4.0)))
            # log-uniform in 1 - q, so the peaks spread from 1 to n_max
            q = float(1.0 - (1.0 - fam.domain_low) * 10.0 ** rng.uniform(-2.5, 0.0))
            want = mp_argmax(q, family_p(fam, q))
            if want >= n_max:
                continue
            cases += 1
            assert peak_level(fam, q) == want == profile(fam, q, n_max).peak_index, (fam, q)


def mp_peak(q, p):
    # floor(n*) + 1 with n* = ln((1 - q^2)/(1 - p^2)) / ln(p/q), in 60 digits
    with mpmath.workdps(60):
        q, p = mpmath.mpf(q), mpmath.mpf(p)
        return int(mpmath.floor(mpmath.log((1 - q * q) / (1 - p * p)) / mpmath.log(p / q))) + 1


class TestPeakLevelFarBelowTheDiagonal:
    # where p << q, (p - q)/q rounds to -1.0 and log1p of it is undefined

    @pytest.mark.parametrize("fam, q", [(PowerFamily(2.5), 1e-11), (ExpFamily(50), 0.1),
                                        (PowerFamily(7), 1e-5), (ExpFamily(50), 1e-5)])
    def test_documented_members(self, fam, q):
        p = family_p(fam, q)
        assert (p - q) / q == -1.0
        assert peak_level(fam, q) == mp_peak(q, p) == mp_argmax(q, p)

    def test_seeded_scan_matches_mpmath(self):
        rnd = random.Random(5)
        checked = 0
        for _ in range(3000):
            kind = rnd.choice((PowerFamily, ExpFamily, LogFamily))
            lo_a, hi_a = (0.0014, 100.0) if kind is LogFamily else (0.01, 50.0)
            fam = kind(math.exp(rnd.uniform(math.log(lo_a), math.log(hi_a))))
            q = math.exp(rnd.uniform(math.log(max(1e-12, fam.domain_low)), 0.0))
            p = family_p(fam, q)
            if q < 1.0 and p not in (0.0, 1.0, q):
                checked += 1
                assert peak_level(fam, q) == mp_peak(q, p), (fam, q)
        assert checked > 2900


class TestShapeInvariants:
    def test_monotone_tail_random_members(self):
        rng = np.random.default_rng(31)
        families = [PowerFamily(0.5), PowerFamily(1), PowerFamily(2),
                    ExpFamily(0.5), ExpFamily(1.5), LogFamily(1.0)]
        for _ in range(100):
            fam = families[int(rng.integers(len(families)))]
            q = float(rng.uniform(max(fam.domain_low, 0.05), 0.8))
            prof = profile(fam, q, n_max=200)
            assert prof.decay_violations == ()
            tail = prof.energies[prof.peak_index + 1:]
            assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_degenerate_pair_brackets_the_peak(self):
        for fam, m in [(PowerFamily(1), 1), (ExpFamily(1.0), 2), (PowerFamily(0.5), 3)]:
            q_star = solve_degeneracy_on_family(fam, Cond(m, m + 1))
            assert q_star is not None
            assert peak_level(fam, q_star) in (m, m + 1)
            gap = family_energy(fam, m, q_star) - family_energy(fam, m + 1, q_star)
            assert abs(gap) < 1e-9
