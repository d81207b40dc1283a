"""Bracket, energy-level and Fock-representation checks."""

import math
import random
import sys
import tracemalloc
from collections import Counter
from itertools import islice

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qposc import (DeformationPoint, DomainError, FockRep, energy_iter,
                   energy_level, energy_spectrum, fock_rep, fock_residuals,
                   qp_bracket, qp_bracket_int)
from qposc.core import _ladder_residuals, _superdiagonal

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def brute_bracket(k, q, p):
    # independent summation oracle for the integer bracket
    return math.fsum(q ** (k - 1 - r) * p ** r for r in range(k))


def mp_spectrum(n_max, q, p):
    # independent 50-digit reference: E_n from [[k+1]] = q [[k]] + p^k in mpmath
    with mpmath.workdps(50):
        q, p = mpmath.mpf(q), mpmath.mpf(p)
        brackets, p_pow = [mpmath.mpf(0)], mpmath.mpf(1)
        for _ in range(n_max + 1):
            brackets.append(q * brackets[-1] + p_pow)
            p_pow *= p
        return [(brackets[n + 1] + brackets[n]) / 2 for n in range(n_max + 1)]


unit = st.floats(0.0, 1.0)
square_points = st.one_of(
    st.tuples(unit, unit),
    st.tuples(st.just(0.0), unit), st.tuples(unit, st.just(0.0)),  # the axes
    unit.map(lambda x: (x, x)),  # the diagonal q = p
    st.just((1.0, 1.0)),
).filter(lambda qp: qp != (0.0, 0.0)).map(lambda qp: DeformationPoint(*qp))


def dense_residuals(rep, pt):
    # the O(dim^3) matrix form of both ladder relations on the first dim-1 columns
    a, ad, dim = rep.a_matrix, rep.a_dagger_matrix, rep.dim
    p_n = np.diag(np.array([pt.p ** n for n in range(dim)]))
    q_n = np.diag(np.array([pt.q ** n for n in range(dim)]))
    r1 = np.abs(a @ ad - pt.q * (ad @ a) - p_n)[:, :dim - 1].max()
    r2 = np.abs(a @ ad - pt.p * (ad @ a) - q_n)[:, :dim - 1].max()
    return float(r1), float(r2)


def reference_stray_count(rep):
    # the three-term count that fock_residuals' stray count must equal
    a = rep.a_matrix
    return (np.count_nonzero(a) - np.count_nonzero(np.diag(a, 1))
            + np.count_nonzero(rep.a_dagger_matrix != a.T))


def random_points(rng, n):
    pts = []
    while len(pts) < n:
        q, p = rng.uniform(0.0, 1.0, size=2)
        if (q, p) != (0.0, 0.0):
            pts.append(DeformationPoint(q, p))
    return pts


class TestDeformationPoint:
    def test_unit_square_accepted(self):
        for q, p in [(0.0, 1.0), (1.0, 1.0), (0.3, 0.0), (0.5, 0.5)]:
            pt = DeformationPoint(q, p)
            assert pt.q == q and pt.p == p

    @pytest.mark.parametrize("q,p", [
        (0.0, 0.0), (-0.1, 0.5), (0.5, 1.2), (1.5, 0.5),
        (float("nan"), 0.5), (0.5, float("inf")),
    ])
    def test_inadmissible_rejected(self, q, p):
        with pytest.raises(DomainError):
            DeformationPoint(q, p)


class TestBracket:
    def test_identity_case(self):
        for pt in [DeformationPoint(0.1, 0.9), DeformationPoint(0.0, 0.4),
                   DeformationPoint(1.0, 1.0)]:
            assert qp_bracket(1, pt) == 1.0
            assert qp_bracket_int(1, pt) == 1.0

    def test_two_is_q_plus_p(self):
        pt = DeformationPoint(0.5, 0.3)
        assert qp_bracket(2, pt) == pytest.approx(0.8, abs=1e-15)
        assert qp_bracket(2, pt) == pt.q + pt.p

    def test_equal_parameters_integer(self):
        # analytic limit of the ratio: [[3]] -> 3 q^2
        pt = DeformationPoint(0.5, 0.5)
        assert qp_bracket(3, pt) == pytest.approx(0.75, abs=1e-15)

    def test_non_integer_matches_ratio(self):
        pt = DeformationPoint(0.6, 0.2)
        want = (0.6 ** 2.5 - 0.2 ** 2.5) / (0.6 - 0.2)
        assert qp_bracket(2.5, pt) == pytest.approx(want, rel=1e-14)

    def test_non_integer_limit_form(self):
        pt = DeformationPoint(0.5, 0.5)
        assert qp_bracket(2.5, pt) == pytest.approx(2.5 * 0.5 ** 1.5, rel=1e-14)
        near = DeformationPoint(0.5, 0.5 + 1e-10)
        assert qp_bracket(2.5, near) == pytest.approx(2.5 * 0.5 ** 1.5, rel=1e-9)

    def test_non_integer_near_the_diagonal_against_mpmath(self):
        # (q^x - p^x)/(q - p) at the exact float inputs, in 50-digit mpmath
        cases = [(2.5, 1e-10, 5e-10), (0.5, 3e-10, 1e-10)]
        for q in (0.3, 0.5, 0.9, 0.99):
            for e in range(1, 13):
                for p in (q - 10.0 ** -e, q + 10.0 ** -e):
                    if p <= 1.0:
                        cases += [(x, q, p) for x in (0.5, 2.5, 7.3, 40.7)]
        worst = 0.0
        with mpmath.workdps(50):
            for x, q, p in cases:
                xm, qm, pm = mpmath.mpf(x), mpmath.mpf(q), mpmath.mpf(p)
                want = (qm ** xm - pm ** xm) / (qm - pm)
                got = qp_bracket(x, DeformationPoint(q, p))
                worst = max(worst, float(abs(got - want) / want))
        assert worst <= 1e-14, worst

    def test_tiny_parameters_against_mpmath(self):
        # (q^x - p^x)/(q - p) in 60-digit mpmath at seeded draws with q or p
        # tiny or subnormal: a value that fits a float comes back to 1e-12,
        # any other is a DomainError, never an OverflowError or an infinity
        assert qp_bracket(-0.5, DeformationPoint(1.0, 5e-324)) == pytest.approx(
            float(1.0 - mpmath.mpf(5e-324) ** -0.5), rel=1e-12)  # (q - p)/p overflows
        for pt in (DeformationPoint(0.5, 1e-200), DeformationPoint(1e-200, 1e-200)):
            with pytest.raises(DomainError, match="overflows"):
                qp_bracket(-3.5, pt)
        rng = random.Random(5)

        def draw():
            kind = rng.randrange(3)
            if kind == 0:
                return rng.uniform(0.0, 1.0)
            if kind == 1:
                return 10.0 ** rng.uniform(-307.0, -1.0)
            return rng.uniform(0.0, 1.0) * sys.float_info.min  # subnormal

        seen = Counter()
        for _ in range(4000):
            x, q, p = rng.uniform(-400.0, 400.0), draw(), draw()
            if x.is_integer() or 0.0 in (q, p):
                continue
            with mpmath.workdps(60):
                xm, qm, pm = mpmath.mpf(x), mpmath.mpf(q), mpmath.mpf(p)
                want = xm * qm ** (xm - 1) if q == p else (qm ** xm - pm ** xm) / (qm - pm)
            if abs(want) > sys.float_info.max:
                with pytest.raises(DomainError):
                    qp_bracket(x, DeformationPoint(q, p))
                seen["refused"] += 1
                continue
            got = qp_bracket(x, DeformationPoint(q, p))
            assert abs(got - want) <= 1e-12 * abs(want) + 1e-300, (x, q, p)
            seen["finite"] += 1
        assert seen["refused"] > 1000 and seen["finite"] > 1000, seen

    @pytest.mark.parametrize(("q", "p"), [(5e-324, 5e-324), (1e-323, 5e-324)])
    def test_subnormal_parameters_where_only_q_to_the_x_minus_1_overflows(self, q, p):
        # for 0 < x < 1, q^(x-1) overflows a float here although [[x]] fits
        x = 0.045
        with mpmath.workdps(40):
            xm, qm, pm = mpmath.mpf(x), mpmath.mpf(q), mpmath.mpf(p)
            want = xm * qm ** (xm - 1) if q == p else (qm ** xm - pm ** xm) / (qm - pm)
        assert 1e307 < want < sys.float_info.max
        assert qp_bracket(x, DeformationPoint(q, p)) == pytest.approx(float(want), rel=1e-12)

    def test_rejections(self):
        pt = DeformationPoint(0.5, 0.5)
        with pytest.raises(DomainError):
            qp_bracket(float("nan"), pt)
        with pytest.raises(DomainError):
            qp_bracket(float("inf"), pt)
        axis = DeformationPoint(0.0, 0.7)
        with pytest.raises(DomainError):
            qp_bracket(0.5, axis)
        with pytest.raises(DomainError):
            qp_bracket(-2, axis)  # 0^(negative) undefined

    def test_integer_bracket_examples(self):
        assert qp_bracket_int(0, DeformationPoint(0.9, 0.1)) == 0.0
        assert qp_bracket_int(2, DeformationPoint(0.5, 0.3)) == pytest.approx(0.8, abs=1e-15)
        pt = DeformationPoint(0.2, 0.7)
        assert qp_bracket_int(4, pt) == pytest.approx(brute_bracket(4, 0.2, 0.7), abs=1e-15)
        with pytest.raises(DomainError):
            qp_bracket_int(-1, pt)
        with pytest.raises(DomainError):
            qp_bracket_int(2.0, pt)

    def test_axis_values(self):
        # x^0 counts as 1 on the axes, so [[k]] reduces to a single power
        pt = DeformationPoint(0.0, 0.7)
        for k in range(1, 6):
            assert qp_bracket_int(k, pt) == pytest.approx(0.7 ** (k - 1), abs=1e-15)
        assert qp_bracket_int(3, DeformationPoint(0.7, 0.0)) == pytest.approx(0.49, abs=1e-15)

    def test_symmetry_in_q_and_p(self):
        rng = np.random.default_rng(7)
        for pt in random_points(rng, 1000):
            swapped = DeformationPoint(pt.p, pt.q)
            for k in (2, 5, 11, 20):
                assert abs(qp_bracket_int(k, pt) - qp_bracket_int(k, swapped)) <= 1e-14

    def test_ratio_oracle_equivalence(self):
        rng = np.random.default_rng(11)
        pts = [pt for pt in random_points(rng, 300) if abs(pt.q - pt.p) > 1e-6
               and pt.q > 0 and pt.p > 0]
        for pt in pts[:100]:
            for k in range(21):
                ratio = (pt.q ** k - pt.p ** k) / (pt.q - pt.p)
                assert abs(qp_bracket(k, pt) - ratio) < 1e-11


class TestEnergies:
    def test_ground_state_is_half(self):
        assert energy_level(0, DeformationPoint(0.37, 0.91)) == 0.5
        rng = np.random.default_rng(3)
        for pt in random_points(rng, 200):
            assert energy_level(0, pt) == 0.5

    def test_undeformed_limit(self):
        pt = DeformationPoint(1.0, 1.0)
        assert energy_level(5, pt) == 5.5
        for n in range(51):
            assert energy_level(n, pt) == pytest.approx(n + 0.5, abs=1e-12)

    def test_first_level(self):
        pt = DeformationPoint(0.5, 0.3)
        assert energy_level(1, pt) == pytest.approx(0.9, abs=1e-15)
        assert energy_level(1, pt) == pytest.approx(0.5 * (pt.q + pt.p + 1), abs=1e-15)

    def test_spectrum_matches_levels(self):
        assert energy_spectrum(2, DeformationPoint(1, 1)) == [0.5, 1.5, 2.5]
        assert energy_spectrum(0, DeformationPoint(0.2, 0.9)) == [0.5]
        pt = DeformationPoint(0.5, 0.5)
        assert energy_spectrum(3, pt) == [energy_level(n, pt) for n in range(4)]

    def test_iterator_agrees_with_levels(self):
        for q, p in [(0.4, 0.8), (0.8, 0.4), (0.93, 0.97), (0.5, 0.5), (1.0, 0.3)]:
            pt = DeformationPoint(q, p)
            levels = [energy_level(n, pt) for n in range(400)]
            assert list(islice(energy_iter(pt), 400)) == levels
            assert energy_spectrum(399, pt) == levels

    def test_spectrum_against_mpmath_oracle(self):
        rng = np.random.default_rng(23)
        cases = [(0.7, 0.7), (1.0, 0.6), (0.6, 1.0), (0.0, 0.8), (0.8, 0.0),
                 (0.999999, 0.9999995)]
        cases += [tuple(rng.uniform(0.0, 1.0, size=2)) for _ in range(4)]
        for q, p in cases:
            got = energy_spectrum(2000, DeformationPoint(q, p))
            assert got == energy_spectrum(2000, DeformationPoint(p, q))
            for n, (e, want) in enumerate(zip(got, mp_spectrum(2000, q, p))):
                if abs(want) > 1e-300:
                    err = abs(e - want) / abs(want)
                    assert err <= 1e-13, f"({q}, {p}) n={n}: relative error {float(err):.2e}"

    def test_negative_level_rejected(self):
        with pytest.raises(DomainError):
            energy_level(-1, DeformationPoint(0.5, 0.5))

    def test_numpy_integer_levels_accepted_bool_rejected(self):
        # numpy registers its integer types as numbers.Integral
        pt = DeformationPoint(0.5, 0.25)
        assert energy_spectrum(np.int64(3), pt) == energy_spectrum(3, pt)
        assert energy_level(np.int32(2), pt) == energy_level(2, pt)
        assert fock_rep(np.int64(4), pt).a_matrix.shape == (4, 4)
        for bad in (True, 2.0):
            with pytest.raises(DomainError):
                energy_spectrum(bad, pt)

    def test_indices_past_islice_range_are_domain_errors(self):
        # islice takes indices up to sys.maxsize; past it each of these
        # raised its ValueError, which the CLI reports as a usage error
        pt = DeformationPoint(0.5, 0.25)
        for call, n in ((energy_level, 2 ** 63), (qp_bracket_int, 2 ** 63),
                        (energy_spectrum, 2 ** 63), (qp_bracket, 2.0 ** 63),
                        (energy_spectrum, sys.maxsize)):  # islice(it, n + 1)
            with pytest.raises(DomainError, match="below sys.maxsize"):
                call(n, pt)


def listed_brackets(n, q, p):
    # [[0]] ... [[n]] built as a list by the recurrence, run with q >= p
    q, p = max(q, p), min(q, p)
    brackets, p_pow = [0.0], 1.0
    for _ in range(n):
        brackets.append(q * brackets[-1] + p_pow)
        p_pow *= p
    return brackets


class TestOneValue:
    # one bracket or one level is read off the recurrence without keeping the rest

    CALLS = [
        ("qp_bracket_int", lambda n, pt: qp_bracket_int(n, pt)),
        ("qp_bracket", lambda n, pt: qp_bracket(n, pt)),
        ("energy_level", lambda n, pt: energy_level(n, pt)),
    ]

    @pytest.mark.parametrize("name, call", CALLS, ids=[name for name, _ in CALLS])
    def test_peak_memory_is_constant(self, name, call):
        pt = DeformationPoint(0.999, 0.998)
        tracemalloc.start()
        try:
            call(200_000, pt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"{name}: peak {peak} bytes"

    @pytest.mark.parametrize("q, p", [(0.4, 0.8), (0.8, 0.4), (0.5, 0.5), (1.0, 1.0),
                                      (0.0, 0.7), (0.999, 0.998)])
    def test_values_equal_the_listed_ones(self, q, p):
        pt = DeformationPoint(q, p)
        for n in (0, 1, 2, 10, 1000):
            bracket = listed_brackets(n, q, p)[-1]
            assert qp_bracket_int(n, pt) == bracket
            assert qp_bracket(float(n), pt) == bracket
            assert energy_level(n, pt) == energy_spectrum(n, pt)[n]


class TestFock:
    def test_record_compares_by_identity_and_hashes(self):
        pt = DeformationPoint(0.5, 0.25)
        rep, twin = fock_rep(3, pt), fock_rep(3, pt)
        assert rep == rep and rep != twin
        assert len({rep, twin, rep}) == 2

    def test_undeformed_number_operator(self):
        rep = fock_rep(3, DeformationPoint(1.0, 1.0))
        assert np.allclose(rep.a_dagger_matrix @ rep.a_matrix,
                           np.diag([0.0, 1.0, 2.0]), atol=1e-12)

    def test_annihilator_first_column(self):
        # A|1> = |0> because [[1]] = 1
        rep = fock_rep(5, DeformationPoint(0.3, 0.8))
        e1 = np.zeros(5)
        e1[1] = 1.0
        out = rep.a_matrix @ e1
        want = np.zeros(5)
        want[0] = 1.0
        assert np.array_equal(out, want)

    def test_ground_column_relation(self):
        pt = DeformationPoint(0.5, 0.25)
        rep = fock_rep(4, pt)
        lhs = rep.a_matrix @ rep.a_dagger_matrix - pt.q * rep.a_dagger_matrix @ rep.a_matrix
        e0 = np.zeros(4)
        e0[0] = 1.0
        assert np.max(np.abs(lhs @ e0 - e0)) < 1e-12  # p^0 |0> = |0>

    def test_number_diagonal(self):
        pt = DeformationPoint(0.7, 0.2)
        rep = fock_rep(6, pt)
        want = np.diag([qp_bracket_int(n, pt) for n in range(6)])
        assert np.allclose(rep.a_dagger_matrix @ rep.a_matrix, want, atol=1e-12)

    def test_matrices_are_the_superdiagonal_its_transpose_and_the_levels(self):
        pt = DeformationPoint(0.7, 0.9)
        for dim in (2, 3, 7, 500):
            rep, a = fock_rep(dim, pt), np.diag(_superdiagonal(dim, pt), 1)
            for got, want in ((rep.a_matrix, a), (rep.a_dagger_matrix, a.T),
                              (rep.n_matrix, np.diag(np.arange(dim, dtype=float)))):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_a_dagger_is_a_view_and_only_two_planes_are_allocated(self):
        # A+ is A's transpose view, and A and N are the one (2, dim, dim)
        # block: a third plane, 500**2 * 8 bytes more, fails the bound
        pt, dim = DeformationPoint(0.7, 0.9), 500
        fock_rep(dim, pt)  # numpy imported outside the trace
        tracemalloc.start()
        try:
            rep = fock_rep(dim, pt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(rep.a_dagger_matrix, rep.a_matrix)
        assert np.array_equal(rep.a_dagger_matrix, rep.a_matrix.T)
        assert peak <= 2 * dim ** 2 * 8 + 65_536, f"peak {peak} bytes"

    def test_dimension_rejected(self):
        with pytest.raises(DomainError):
            fock_rep(1, DeformationPoint(0.5, 0.5))
        with pytest.raises(DomainError):
            fock_rep(0, DeformationPoint(0.5, 0.5))

    def test_ladder_relations_hold_below_cutoff(self):
        rng = np.random.default_rng(17)
        for pt in random_points(rng, 20):
            dim = int(rng.integers(2, 17))
            rep = fock_rep(dim, pt)
            r1, r2 = fock_residuals(rep, pt)
            assert r1 < 1e-12 and r2 < 1e-12

    def test_residuals_equal_dense_evaluation(self):
        rng = np.random.default_rng(29)
        pts = random_points(rng, 30) + [DeformationPoint(1.0, 1.0), DeformationPoint(0.0, 0.6)]
        for pt in pts:
            for dim in (2, 3, int(rng.integers(4, 65)), 64):
                rep = fock_rep(dim, pt)
                assert fock_residuals(rep, pt) == dense_residuals(rep, pt)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(2, 600), square_points)
    @example(2, DeformationPoint(0.0, 0.5))
    @example(600, DeformationPoint(0.7, 0.0))
    @example(600, DeformationPoint(0.3, 0.3))
    @example(600, DeformationPoint(1.0, 1.0))
    def test_numpy_free_helpers_equal_the_matrix_path(self, dim, pt):
        # qposc fock reads these two helpers; the library goes through FockRep
        s = _superdiagonal(dim, pt)
        rep = fock_rep(dim, pt)
        assert s == np.diag(rep.a_matrix, 1).tolist()
        assert _ladder_residuals(s, pt.q, pt.p) == fock_residuals(rep, pt)

    def test_stray_entry_rejected(self):
        pt = DeformationPoint(0.6, 0.9)
        rep = fock_rep(6, pt)
        a = rep.a_matrix.copy()
        a[3, 1] = 0.25  # off the superdiagonal; the transpose stays consistent
        with pytest.raises(DomainError, match="^1 stray"):
            fock_residuals(FockRep(6, a, a.T.copy(), rep.n_matrix), pt)
        ad = rep.a_dagger_matrix.copy()
        ad[2, 1] *= 2.0  # A+ no longer the transpose of A
        with pytest.raises(DomainError, match="^1 stray"):
            fock_residuals(FockRep(6, rep.a_matrix, ad, rep.n_matrix), pt)

    def check_stray_outcome(self, a, ad, pt):
        # fock_residuals' outcome is the reference's: a count, its exception, or 0 and the bits
        dim = len(a)
        rep = FockRep(dim, a, ad, fock_rep(dim, pt).n_matrix)
        try:
            want = reference_stray_count(rep)
        except ValueError as exc:  # an A+ that does not broadcast against A^T
            with pytest.raises(type(exc)) as got:
                fock_residuals(rep, pt)
            assert got.type is type(exc)
            return type(exc)
        if want:
            with pytest.raises(DomainError, match=f"^{want} stray"):
                fock_residuals(rep, pt)
        else:
            s = np.diag(a, 1).tolist()
            assert ([x.hex() for x in fock_residuals(rep, pt)]
                    == [x.hex() for x in _ladder_residuals(s, pt.q, pt.p)])
        return want

    @pytest.mark.parametrize("dim", [2, 3, 7, 64, 500])
    def test_stray_count_equals_the_three_term_reference(self, dim):
        rng = random.Random(dim)
        values = (math.nan, math.inf, -math.inf, -0.0, 0.0, 0.25, "twice")
        for _ in range(150):
            pt = DeformationPoint(rng.random(), rng.random())
            rep = fock_rep(dim, pt)
            a, ad = rep.a_matrix.copy(), rep.a_dagger_matrix.copy()
            for _ in range(rng.randint(0, 3)):
                m, other = rng.choice(((a, ad), (ad, a)))
                i, j = rng.randrange(dim), rng.randrange(dim)
                value = rng.choice(values)
                m[i, j] = 2.0 * m[i, j] if value == "twice" else value
                if rng.random() < 0.4:  # mirrored, so A+ stays A^T at this entry
                    other[j, i] = m[i, j]
            shape = rng.choice(("copy", "copy", "copy", "view", "square", "row"))
            ad = {"copy": ad, "view": a.T, "square": ad[:dim - 1, :dim - 1].copy(),
                  "row": ad[:1].copy()}[shape]
            self.check_stray_outcome(a, ad, pt)

    def test_shaped_a_dagger_keeps_its_outcome(self):
        # a (dim-1, dim-1) A+ does not broadcast against A^T (from dim 3); a
        # (1, dim) A+, A^T's zero first row, differs from each other row once;
        # a stray of A that A+ mirrors counts once
        pt = DeformationPoint(0.6, 0.9)
        for dim in (3, 7, 64, 500):
            a = fock_rep(dim, pt).a_matrix.copy()
            assert self.check_stray_outcome(a, a.T[:dim - 1, :dim - 1].copy(), pt) is ValueError
            assert self.check_stray_outcome(a, a.T[:1].copy(), pt) == dim - 1
            assert self.check_stray_outcome(a, a.T.tolist(), pt) == 0  # lists compare as arrays
            a[dim - 1, 0] = 0.25
            assert self.check_stray_outcome(a, a.T.copy(), pt) == 1
            a[0, 0] = math.nan  # a stray of A, and the view's NaN differs from itself
            assert self.check_stray_outcome(a, a.T, pt) == 3
            # a 1-D A, which np.diag turns into a matrix, keeps the strided compare
            assert self.check_stray_outcome(np.ones(dim), np.full(dim, 2.0), pt) == dim

    @pytest.mark.parametrize("matrix, at", [
        ("a", (0, 0)), ("a", (499, 0)), ("a", (499, 499)),
        ("ad", (0, 499)), ("ad", (0, 0)), ("ad", (1, 0)), ("ad", (499, 498)),
    ], ids=["A[0,0]", "A[dim-1,0]", "A[dim-1,dim-1]", "A+[0,dim-1]", "A+[0,0]",
            "A+[1,0]", "A+[dim-1,dim-2]"])
    def test_one_stray_at_each_edge_of_the_counts(self, matrix, at):
        # the corners of A and A+ and both ends of A+'s subdiagonal, at dim 500
        pt = DeformationPoint(0.7, 0.9)
        rep = fock_rep(500, pt)
        a, ad = rep.a_matrix.copy(), rep.a_dagger_matrix.copy()
        if matrix == "a":
            a[at] = 0.25
            ad = a.T.copy()
        else:
            ad[at] = 2.0 * ad[at] if at[0] == at[1] + 1 else 0.25
        with pytest.raises(DomainError, match="^1 stray"):
            fock_residuals(FockRep(500, a, ad, rep.n_matrix), pt)
