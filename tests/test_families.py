"""Reduction families: maps, admissibility, in-family degeneracy roots."""

import math

import mpmath
import numpy as np
import pytest

import qposc.families
from qposc import (CustomFamily, DeformationPoint, DomainError, ExpFamily,
                   FamilyReport, LogFamily, PowerFamily, ReductionFamily, energy_level, family_energy,
                   family_p, intercept_curve, parse_family, profile,
                   solve_degeneracy_on_family, validate_family)
from qposc import DegeneracyCondition as Cond


def power_energy_closed(l, n, q):
    # closed spectrum of the p = q^l class:
    # E_n = (q^(n l) + (1 + q) q^(l (n-1)) sum_s q^(s (1-l))) / 2
    if n == 0:
        return 0.5
    inner = math.fsum(q ** (s * (1.0 - l)) for s in range(n))
    return 0.5 * (q ** (n * l) + (1.0 + q) * q ** (l * (n - 1)) * inner)


def pointwise_report(fam):
    """validate_family's report, point by point with no shortcut."""
    lo = fam.domain_low
    step = (1.0 - lo) / 9999
    qs = [lo + i * step for i in range(9999)] + [1.0]
    ps = [fam.p_of_q(q) for q in qs]
    found = []
    if abs(ps[-1] - 1.0) > 1e-12:
        found.append((1.0, f"f(1) = {ps[-1]!r}, expected 1"))
    found += [(q, f"f(q) = {p!r} outside [0, 1]") for q, p in zip(qs, ps)
              if not math.isfinite(p) or p < -1e-12 or p > 1.0 + 1e-12]
    found += [(q, f"f decreases: {a!r} -> {b!r}") for q, a, b in zip(qs[1:], ps, ps[1:])
              if b < a - 1e-12]
    notes = ["boundary member: constant map p = 1"] if fam == PowerFamily(0) else []
    return FamilyReport(passed=not found, endpoint_value=ps[-1], violations=found[:10],
                        n_violations=len(found), notes=notes)


class TestFamilyMaps:
    def test_power_is_identity_at_exponent_one(self):
        assert family_p(PowerFamily(1), 0.42) == 0.42

    def test_all_maps_fix_one(self):
        for fam in (PowerFamily(2.5), PowerFamily(0), LogFamily(1.3), ExpFamily(0.5)):
            assert family_p(fam, 1.0) == 1.0

    def test_log_vanishes_at_domain_edge(self):
        fam = LogFamily(1.0)
        assert fam.domain_low == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert family_p(fam, fam.domain_low) == pytest.approx(0.0, abs=1e-12)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            family_p(PowerFamily(2), -0.1)
        with pytest.raises(DomainError):
            family_p(LogFamily(1.0), 0.2)  # below exp(-1)
        with pytest.raises(DomainError):
            family_p(ExpFamily(0.5), 1.1)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            PowerFamily(-1.0)
        with pytest.raises(DomainError):
            LogFamily(0.0)
        with pytest.raises(DomainError):
            ExpFamily(-0.3)

    def test_log_domain_edge_underflow_rejected(self):
        # exp(-1/alpha) underflows to 0 below alpha ~ 1.342e-3
        assert LogFamily(1.4e-3).domain_low > 0.0
        with pytest.raises(DomainError, match=r"log coefficient 0\.001 too small: .*underflows"):
            LogFamily(1e-3)

    @pytest.mark.parametrize("alpha", [0.0013433423355, 0.001342671, 0.00137, 0.00138])
    def test_log_domain_edge_that_misses_zero_rejected(self, alpha):
        # exp(-1/alpha) is subnormal here and f(domain_low) computes far from 0
        edge = 1.0 + alpha * math.log(math.exp(-1.0 / alpha))
        assert math.exp(-1.0 / alpha) > 0.0 and abs(edge) > 1e-12
        with pytest.raises(DomainError) as exc:
            LogFamily(alpha)
        assert str(exc.value) == (f"log coefficient {alpha} too small: "
                                  f"f(exp(-1/alpha)) = {edge!r}, not within 1e-12 of 0")

    @pytest.mark.parametrize("alpha", [18026.970007450036, 150_000.0, 1e8, 1e16, 1e300])
    def test_log_domain_edge_that_misses_zero_for_a_large_coefficient(self, alpha):
        # exp(-1/alpha) lies within 1/alpha of 1, where its rounding error
        # times alpha moves f(domain_low) off 0
        edge = 1.0 + alpha * math.log(math.exp(-1.0 / alpha))
        assert abs(edge) > 1e-12
        with pytest.raises(DomainError) as exc:
            LogFamily(alpha)
        assert str(exc.value) == (f"log coefficient {alpha} too large: "
                                  f"f(exp(-1/alpha)) = {edge!r}, not within 1e-12 of 0")

    def test_accepted_log_members_start_at_zero(self):
        rng = np.random.default_rng(13)
        for alpha in np.exp(rng.uniform(math.log(0.001342), math.log(0.0015), size=2000)):
            try:
                fam = LogFamily(float(alpha))
            except DomainError:
                continue
            assert abs(fam.p_of_q(fam.domain_low)) < 1e-12, alpha

    def test_only_the_points_outside_the_unit_interval_are_clamped(self, monkeypatch):
        # log:6.05's f(domain_low) rounds a few ulps below 0, and no other
        # point of its grid leaves [0, 1]
        clamped, real = [], qposc.families._clamp
        monkeypatch.setattr("qposc.families._clamp", lambda p: clamped.append(p) or real(p))
        curve = intercept_curve(LogFamily(6.05), 10_001)
        assert len(clamped) == 1 and -1e-15 < clamped[0] < 0.0, clamped
        q, intercept = curve.samples[0]
        assert intercept == q - 1.0  # q + (p - 1) at the clamped p = 0

    def test_parse_grammar(self):
        fam = parse_family("power:2.5")
        assert isinstance(fam, PowerFamily) and fam.exponent == 2.5
        assert isinstance(parse_family("log:6.05"), LogFamily)
        assert isinstance(parse_family("exp:0.5"), ExpFamily)
        for bad in ("power", "poly:2", "power:x", "", "log:"):
            with pytest.raises(ValueError):
                parse_family(bad)

    def test_members_compare_by_value(self):
        assert PowerFamily(2) == PowerFamily(2.0)
        assert PowerFamily(1) != ExpFamily(1)
        assert len({LogFamily(2), LogFamily(2)}) == 1

    def test_records_holding_a_member_compare_by_value(self):
        assert intercept_curve(ExpFamily(0.5), 5) == intercept_curve(ExpFamily(0.5), 5)
        assert profile(ExpFamily(0.5), 0.88, 50) == profile(ExpFamily(0.5), 0.88, 50)


class TestPinnedMessages:
    # the exact texts of family_p, of CustomFamily's domain check and of the
    # built-in parameter rule

    @pytest.mark.parametrize("q", [-0.1, 1.5, math.nan, math.inf])
    def test_q_outside_the_domain(self, q):
        with pytest.raises(DomainError) as exc:
            family_p(PowerFamily(2), q)
        assert str(exc.value) == f"q={q} outside family domain [0.0, 1]"

    def test_q_below_a_log_members_domain(self):
        with pytest.raises(DomainError) as exc:
            family_p(LogFamily(1.0), 0.2)
        assert str(exc.value) == "q=0.2 outside family domain [0.36787944117144233, 1]"

    @pytest.mark.parametrize("label, func, q, shown", [
        ("nan", lambda q: math.nan, 0.25, "nan"),
        ("inf", lambda q: math.inf, 0.25, "inf"),
        ("-inf", lambda q: -math.inf, 0.25, "-inf"),
        ("2-q", lambda q: 2.0 - q, 0.25, "1.75"),
        ("q-2e-12", lambda q: q - 2e-12, 0.0, "-2e-12"),
    ])
    def test_one_point_custom_map_leaves_the_unit_interval(self, label, func, q, shown):
        with pytest.raises(DomainError) as exc:
            family_p(CustomFamily(func, label), q)
        assert str(exc.value) == f"{label} leaves the unit interval: f({q}) = {shown}"

    @pytest.mark.parametrize("value, shown", [(10 ** 5000, "1e+5000"),
                                              (-3 * 10 ** 400, "-3e+400")],
                             ids=["1e+5000", "-3e+400"])
    def test_a_value_beyond_the_float_range_is_shown_by_its_leading_digits(self, value,
                                                                           shown):
        # str(10**5000) exceeds Python's int-to-str digit limit
        fam = CustomFamily(lambda q: value, "big")
        with pytest.raises(DomainError) as exc:
            family_p(fam, 0.5)
        assert str(exc.value) == f"big leaves the unit interval: f(0.5) = {shown}"
        with pytest.raises(DomainError) as exc:
            solve_degeneracy_on_family(fam, Cond(0, 2))
        assert str(exc.value) == f"big leaves the unit interval: f(0.0) = {shown}"

    def test_a_report_value_beyond_the_float_range_is_shown_in_its_repr(self):
        report = validate_family(CustomFamily(lambda q: 10 ** 5000, "big"))
        assert repr(report).startswith("FamilyReport(passed=False, endpoint_value=1e+5000, "
                                       "violations=[(1.0, 'f(1) = 1e+5000, expected 1'), ")

    @pytest.mark.parametrize("low", [-0.1, 1.0, math.nan])
    def test_custom_domain_low_outside_the_unit_interval(self, low):
        with pytest.raises(DomainError) as exc:
            CustomFamily(lambda q: q, "id", domain_low=low)
        assert str(exc.value) == f"domain_low must lie in [0, 1), got {low}"

    def test_custom_domain_low_is_converted_before_it_is_checked(self):
        fam = CustomFamily(lambda q: q, "id", domain_low="0.5")
        assert fam.domain_low == 0.5 and type(fam.domain_low) is float
        with pytest.raises(DomainError) as exc:
            CustomFamily(lambda q: q, "id", domain_low="1.5")
        assert str(exc.value) == "domain_low must lie in [0, 1), got 1.5"

    @pytest.mark.parametrize("maker, value, text", [
        (PowerFamily, -1, "power exponent must be >= 0, got -1.0"),
        (PowerFamily, math.nan, "power exponent must be >= 0, got nan"),
        (PowerFamily, math.inf, "power exponent must be >= 0, got inf"),
        (PowerFamily, -math.inf, "power exponent must be >= 0, got -inf"),
        (LogFamily, -1, "log coefficient must be > 0, got -1.0"),
        (LogFamily, 0, "log coefficient must be > 0, got 0.0"),
        (LogFamily, -0.0, "log coefficient must be > 0, got -0.0"),
        (LogFamily, 1e-400, "log coefficient must be > 0, got 0.0"),
        (LogFamily, math.nan, "log coefficient must be > 0, got nan"),
        (LogFamily, math.inf, "log coefficient must be > 0, got inf"),
        (ExpFamily, -1, "exp coefficient must be > 0, got -1.0"),
        (ExpFamily, 0, "exp coefficient must be > 0, got 0.0"),
        (ExpFamily, -0.0, "exp coefficient must be > 0, got -0.0"),
        (ExpFamily, 1e-400, "exp coefficient must be > 0, got 0.0"),
        (ExpFamily, math.nan, "exp coefficient must be > 0, got nan"),
        (ExpFamily, -math.inf, "exp coefficient must be > 0, got -inf"),
    ])
    def test_parameter_outside_its_range(self, maker, value, text):
        with pytest.raises(DomainError) as exc:
            maker(value)
        assert str(exc.value) == text

    @pytest.mark.parametrize("maker", [PowerFamily, LogFamily, ExpFamily])
    def test_parameter_that_is_not_a_number(self, maker):
        with pytest.raises(ValueError) as exc:
            maker("x")
        assert type(exc.value) is ValueError
        assert str(exc.value) == "could not convert string to float: 'x'"

    @pytest.mark.parametrize("value, label", [(0, "power:0"), (-0.0, "power:-0"),
                                              (1e-400, "power:0")])
    def test_power_exponent_zero_accepted(self, value, label):
        fam = PowerFamily(value)
        assert (fam.label, fam.domain_low) == (label, 0.0)
        assert validate_family(fam).notes == ["boundary member: constant map p = 1"]

    def test_subclass_without_a_map(self):
        class Bare(ReductionFamily):
            label = "bare"

        with pytest.raises(NotImplementedError):
            Bare().p_of_q(0.5)


class TestValidation:
    def test_rational_custom_map_passes(self):
        fam = CustomFamily(lambda q: 3.0 / (q * q + 1.0 + q ** -2.0),
                           label="rational-bump", domain_low=0.01)
        report = validate_family(fam)
        assert report.passed
        assert report.endpoint_value == pytest.approx(1.0, abs=1e-15)

    def test_decreasing_map_fails_with_locations(self):
        fam = CustomFamily(lambda q: 2.0 - q, label="mirror")
        report = validate_family(fam)
        assert not report.passed
        assert report.n_violations > 0
        assert any("outside" in reason for _, reason in report.violations)

    def test_power_families_pass(self):
        assert validate_family(PowerFamily(2.5)).passed
        assert validate_family(LogFamily(6.05)).passed
        assert validate_family(ExpFamily(0.1653)).passed

    def test_constant_member_flagged(self):
        report = validate_family(PowerFamily(0))
        assert report.passed
        assert any("boundary member" in note for note in report.notes)

    def test_wrong_endpoint_fails(self):
        report = validate_family(CustomFamily(lambda q: 0.9 * q, label="short"))
        assert not report.passed

    def test_value_beyond_the_float_range_is_a_violation(self):
        report = validate_family(CustomFamily(lambda q: 10 ** 400 if q < 0.5 else q, "big"))
        assert not report.passed
        assert report.n_violations == 5001  # 5000 points outside [0, 1], then one fall
        assert report.violations[:2] == [(0.0, "f(q) = 1e+400 outside [0, 1]"),
                                          (1.0 / 9999, "f(q) = 1e+400 outside [0, 1]")]
        report = validate_family(CustomFamily(lambda q: 10 ** 400, "big"))
        assert (report.passed, report.endpoint_value, report.n_violations) \
            == (False, 10 ** 400, 10_001)
        assert report.violations[0] == (1.0, "f(1) = 1e+400, expected 1")

    def test_only_the_reported_violations_are_formatted(self, monkeypatch):
        # every grid point of a constant 2 is a violation, and f(1) one more;
        # the report counts them all and formats the first _CAP
        shown, real = [], qposc.families._shown
        monkeypatch.setattr("qposc.families._shown", lambda v: shown.append(v) or real(v))
        report = validate_family(CustomFamily(lambda q: 2.0, "two"))
        assert (report.n_violations, len(report.violations)) == (10_001, FamilyReport._CAP)
        assert report.violations[:2] == [(1.0, "f(1) = 2.0, expected 1"),
                                          (0.0, "f(q) = 2.0 outside [0, 1]")]
        assert len(shown) == FamilyReport._CAP

    def test_built_in_members_are_reported_without_the_grid(self, monkeypatch):
        members = [PowerFamily(2.5), PowerFamily(0), LogFamily(6.05), LogFamily(0.0014),
                   ExpFamily(0.5)]
        evaluated = []
        for cls in (PowerFamily, LogFamily, ExpFamily):
            def counted(self, qs, p_of_qs=cls.p_of_qs):
                evaluated.append(len(qs))
                return p_of_qs(self, qs)
            monkeypatch.setattr(cls, "p_of_qs", counted)
        assert all(validate_family(fam).passed for fam in members)
        assert evaluated == []

        class Steeper(ExpFamily):
            pass

        assert validate_family(Steeper(0.5)).passed
        assert evaluated == [10_000]

    @pytest.mark.parametrize("fam", [
        CustomFamily(lambda q: 1.0 - q * (1.0 - q), "dip"),
        CustomFamily(lambda q: math.nan if 0.3 < q < 0.30005 else q, "nan"),
        CustomFamily(lambda q: math.nan if q == 0.0 else q, "nan-first"),
        CustomFamily(lambda q: math.inf if q > 0.5 else q, "inf"),
        CustomFamily(lambda q: -math.inf if q < 0.5 else q, "minus-inf"),
        CustomFamily(lambda q: 0.9 * q, "short"),
        CustomFamily(lambda q: q - 5e-13, "slack-below"),
        CustomFamily(lambda q: q + 5e-13, "slack-above"),
        CustomFamily(lambda q: q - 1e-13 * (q > 0.5), "slack-dip"),
        CustomFamily(lambda q: 1.5 * q - 0.5, "below-band", domain_low=0.2),
        CustomFamily(lambda q: (q * 40.0) % 1.0, "saw"),  # more than _CAP decreases
        PowerFamily(0), PowerFamily(2.5), LogFamily(6.05), LogFamily(0.0014),
        ExpFamily(50.0), ExpFamily(0.1653),
    ], ids=repr)
    def test_report_matches_the_pointwise_reference(self, fam):
        assert repr(validate_family(fam)) == repr(pointwise_report(fam))


def mp_log_crossing(alpha, m1, m2):
    """The crossing of log:alpha with the (m1, m2) curve in 60-digit mpmath,
    bisected in t = ln q on [-1/alpha, 0], where p = 1 + alpha t runs over
    [0, 1]; E_m2 - E_m1 changes sign there once."""
    with mpmath.workdps(60):
        alpha = mpmath.mpf(alpha)

        def gap(t):
            q, p = mpmath.exp(t), 1 + alpha * t
            def br(k):
                return mpmath.fsum(q ** (k - 1 - r) * p ** r for r in range(k))
            return br(m2 + 1) + br(m2) - br(m1 + 1) - br(m1)

        lo, hi = -1 / alpha, mpmath.mpf(0)
        for _ in range(250):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if gap(mid) < 0 else (lo, mid)
        return mpmath.exp(lo)


def mp_family_gap(fam, m1, m2, q):
    """E_m2 - E_m1 along a log or exp member at q, in 60-digit mpmath."""
    with mpmath.workdps(60):
        q, a = mpmath.mpf(q), mpmath.mpf(fam.alpha)
        p = 1 + a * mpmath.log(q) if isinstance(fam, LogFamily) else mpmath.exp(a * (q - 1))
        def br(k):
            return mpmath.fsum(q ** (k - 1 - r) * p ** r for r in range(k))
        return (br(m2 + 1) + br(m2) - br(m1 + 1) - br(m1)) / 2


class TestDegeneracySolve:
    @pytest.mark.parametrize("fam, m1, m2", [
        (ExpFamily(20), 40, 41), (ExpFamily(50), 20, 21), (LogFamily(0.003), 5, 6),
        (LogFamily(0.0014), 3, 4), (LogFamily(0.0014), 10, 11)])
    def test_crossing_where_the_computed_edge_residual_underflows(self, fam, m1, m2):
        # g(domain_low) underflows to 0.0 here although its true value is
        # negative: the member starts below the curve and crosses it once
        q_star = solve_degeneracy_on_family(fam, Cond(m1, m2))
        assert q_star is not None
        assert mp_family_gap(fam, m1, m2, q_star * (1 - 1e-12)) < 0
        assert mp_family_gap(fam, m1, m2, q_star * (1 + 1e-12)) > 0

    @pytest.mark.parametrize("m1, m2", [(0, 2), (0, 5), (1, 2)])
    @pytest.mark.parametrize("alpha", [0.0014, 0.002, 0.003])
    def test_small_log_coefficients_against_mpmath(self, alpha, m1, m2):
        # the (0, 2) crossings lie at q ~ 1e-119, 1e-83 and 5e-56, far below
        # 2^-200; one ulp of p = 1 + alpha ln q moves q by ~2^-53 / alpha
        # relative (8e-14 at alpha = 0.0014)
        fam, cond = LogFamily(alpha), Cond(m1, m2)
        q_star = solve_degeneracy_on_family(fam, cond)
        want = mp_log_crossing(alpha, m1, m2)
        assert abs(q_star - want) / want < 1e-12, (q_star, want)
        gap = family_energy(fam, m2, q_star) - family_energy(fam, m1, q_star)
        assert abs(gap) < 1e-12

    @pytest.mark.parametrize("fam, m1, m2", [(PowerFamily(1e-8), 0, 65),
                                             (PowerFamily(5e-324), 1, 2)])
    def test_crossing_below_the_smallest_double_is_a_domain_error(self, fam, m1, m2):
        # power:1e-8 meets the (0, 65) curve near its p-intercept 0.989, at
        # q ~ 0.989^(1e8) ~ exp(-1.07e6): the bisection keeps 0.0 as its lower end
        with pytest.raises(DomainError, match="below the smallest positive double"):
            solve_degeneracy_on_family(fam, Cond(m1, m2))

    def test_diagonal_ground_root(self):
        # p = q turns the E_0 = E_2 residual into 3q^2 + 2q - 1
        q_star = solve_degeneracy_on_family(PowerFamily(1), Cond(0, 2))
        assert q_star == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_diagonal_neighbor_root(self):
        q_star = solve_degeneracy_on_family(PowerFamily(1), Cond(1, 2))
        assert q_star == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 20, 60])
    def test_diagonal_neighbor_roots_are_the_closed_form(self, m):
        # p = q makes g = F(q, q) = phi'(q), where the float surrogate is
        # 0/0; E_m = E_{m+1} there at q = sqrt(m / (m + 2))
        q_star = solve_degeneracy_on_family(PowerFamily(1), Cond(m, m + 1))
        with mpmath.workdps(50):
            want = mpmath.sqrt(mpmath.mpf(m) / (m + 2))
            assert abs(q_star - want) <= math.ulp(float(want)), (q_star, want)

    def test_non_admitting_members(self):
        assert solve_degeneracy_on_family(LogFamily(6.05), Cond(0, 2)) is None
        assert solve_degeneracy_on_family(ExpFamily(0.1653), Cond(0, 2)) is None
        assert solve_degeneracy_on_family(PowerFamily(0), Cond(0, 2)) is None
        assert solve_degeneracy_on_family(PowerFamily(0), Cond(2, 3)) is None

    def test_constant_member_admits_no_pair(self):
        # p = 1 touches every curve only at its (0, 1) corner
        for m2 in range(1, 41):
            for m1 in range(m2):
                assert solve_degeneracy_on_family(PowerFamily(0), Cond(m1, m2)) is None

    def test_lowest_pair_from_the_corner(self):
        # members through (0, 0) start where F's limit is positive for (0, 1)
        # alone: E_1 - E_0 = (q + p) / 2 never vanishes
        for fam in (PowerFamily(0.5), PowerFamily(1), PowerFamily(2.5)):
            assert solve_degeneracy_on_family(fam, Cond(0, 1)) is None

    def test_root_certifies_degeneracy(self):
        for fam, cond in [(PowerFamily(0.5), Cond(0, 3)),
                          (ExpFamily(1.0), Cond(2, 3)),
                          (LogFamily(1.0), Cond(1, 2))]:
            q_star = solve_degeneracy_on_family(fam, cond)
            assert q_star is not None
            gap = family_energy(fam, cond.m2, q_star) - family_energy(fam, cond.m1, q_star)
            assert abs(gap) < 1e-9

    def test_power_duality(self):
        # swapping q and p maps the exponent-l line onto the 1/l line
        for l in (0.25, 0.5, 2.5, 5.7):
            for cond in (Cond(0, 2), Cond(0, 5), Cond(3, 4)):
                q_star = solve_degeneracy_on_family(PowerFamily(l), cond)
                assert q_star is not None
                p_star = q_star ** l
                q_dual = solve_degeneracy_on_family(PowerFamily(1.0 / l), cond)
                assert q_dual == pytest.approx(p_star, abs=1e-10)
                assert q_dual ** (1.0 / l) == pytest.approx(q_star, abs=1e-10)


class TestFamilyEnergy:
    def test_ground_state(self):
        for fam in (PowerFamily(2), ExpFamily(0.5), LogFamily(1.0)):
            assert family_energy(fam, 0, 0.9) == 0.5

    def test_square_family_first_level(self):
        assert family_energy(PowerFamily(2), 1, 0.5) == pytest.approx(0.875, abs=1e-15)

    def test_exp_family_first_level(self):
        want = 0.5 * (0.9 + math.exp(-0.05) + 1.0)
        assert family_energy(ExpFamily(0.5), 1, 0.9) == pytest.approx(want, abs=1e-14)

    def test_power_closed_form(self):
        rng = np.random.default_rng(23)
        for l in (0.5, 1.0, 2.0):
            fam = PowerFamily(l)
            for q in rng.uniform(0.05, 1.0, size=100):
                for n in range(11):
                    want = power_energy_closed(l, n, float(q))
                    assert family_energy(fam, n, float(q)) == pytest.approx(
                        want, abs=1e-12)

    def test_diagonal_family_matches_equal_parameters(self):
        fam = PowerFamily(1)
        for q in (0.1, 0.35, 0.8):
            pt = DeformationPoint(q, q)
            for n in range(11):
                assert family_energy(fam, n, q) == energy_level(n, pt)
