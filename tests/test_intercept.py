"""Asymptotic two-particle correlation intercept over reduction families."""

import math

import numpy as np
import pytest

from qposc import (CustomFamily, DomainError, ExpFamily, LogFamily,
                   PowerFamily, asymptotic_intercept, intercept_curve, parse_family)


def pointwise_curve(fam, n):
    """intercept_curve's samples, or its error text, one family_p call per q."""
    lo, last = fam.domain_low, n - 1
    qs = [lo + (1.0 - lo) * i / last for i in range(last)] + [1.0]
    try:
        return [(q.hex(), asymptotic_intercept(fam, q).hex()) for q in qs]
    except DomainError as exc:
        return str(exc)


def bulk_curve(fam, n):
    try:
        return [(q.hex(), lam.hex()) for q, lam in intercept_curve(fam, n).samples]
    except DomainError as exc:
        return str(exc)


class TestPointValues:
    def test_constant_family_gives_q_itself(self):
        fam = PowerFamily(0)
        for q in (0.0, 0.1, 0.65, 1.0):
            assert asymptotic_intercept(fam, q) == q

    def test_exp_half_formula(self):
        want = -1.0 + 0.9 + math.exp(0.5 * (0.9 - 1.0))
        assert asymptotic_intercept(ExpFamily(0.5), 0.9) == pytest.approx(want, abs=1e-14)

    def test_unity_at_q_one(self):
        for fam in (PowerFamily(3), ExpFamily(2.0), LogFamily(0.8), PowerFamily(0)):
            assert asymptotic_intercept(fam, 1.0) == 1.0

    def test_diagonal_family_value(self):
        assert asymptotic_intercept(PowerFamily(1), 0.4) == pytest.approx(-0.2, abs=1e-15)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            asymptotic_intercept(LogFamily(1.0), 0.1)

    @pytest.mark.parametrize("q", ["0.5", np.float32(0.5), np.float64(0.5)],
                             ids=["str", "float32", "float64"])
    def test_q_is_converted_before_the_arithmetic(self, q):
        # q + (p - 1) used the raw q: a str raised TypeError, and a numpy
        # float gave a numpy float (float32 0.2788008)
        lam = asymptotic_intercept(ExpFamily(0.5), q)
        assert type(lam) is float
        assert lam == asymptotic_intercept(ExpFamily(0.5), 0.5) == 0.2788007830714049


class TestCurve:
    def test_exp_half_endpoints(self):
        curve = intercept_curve(ExpFamily(0.5), 3)
        q0, lam0 = curve.samples[0]
        q1, lam1 = curve.samples[-1]
        assert (q0, q1) == (0.0, 1.0)
        assert lam0 == pytest.approx(-1.0 + math.exp(-0.5), abs=1e-14)
        assert lam1 == 1.0

    def test_constant_family_is_identity_curve(self):
        curve = intercept_curve(PowerFamily(0), 11)
        for q, lam in curve.samples:
            assert lam == q

    def test_log_curve_starts_at_domain_edge(self):
        fam = LogFamily(2.0)
        curve = intercept_curve(fam, 5)
        assert curve.samples[0][0] == fam.domain_low

    def test_monotone_increasing(self):
        for fam in (PowerFamily(0.5), ExpFamily(0.5), LogFamily(1.5),
                    CustomFamily(lambda q: q * q, label="square")):
            lams = [lam for _, lam in intercept_curve(fam, 41).samples]
            assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_bounded_above_by_one(self):
        for fam in (PowerFamily(2), ExpFamily(1.0), LogFamily(1.0)):
            assert all(lam <= 1.0 for _, lam in intercept_curve(fam, 101).samples)

    def test_extrapolation_flag(self):
        assert intercept_curve(ExpFamily(0.5), 3).extrapolated is False
        assert intercept_curve(PowerFamily(0), 3).extrapolated is False
        assert intercept_curve(PowerFamily(1), 3).extrapolated is True
        assert intercept_curve(ExpFamily(0.51), 3).extrapolated is True
        assert intercept_curve(LogFamily(2.0), 3).extrapolated is True

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            intercept_curve(PowerFamily(1), 1)

    def test_numpy_sample_count(self):
        fam = ExpFamily(0.5)
        curve = intercept_curve(fam, np.int64(5))
        assert curve == intercept_curve(fam, 5)
        assert all(type(v) is float for s in curve.samples for v in s)
        with pytest.raises(DomainError, match="at least 2 samples"):
            intercept_curve(fam, True)


class TestBulkEqualsPointwise:
    # log:6.05 starts a few ulps below p = 0, where family_p clamps
    @pytest.mark.parametrize("spec", ["log:6.05", "log:0.0014", "power:0", "exp:50",
                                      "power:1e-17", "exp:1e-17", "log:1", "power:2.5"])
    @pytest.mark.parametrize("n", [2, 3, 101, 10001])
    def test_built_in_members(self, spec, n):
        fam = parse_family(spec)
        assert bulk_curve(fam, n) == pointwise_curve(fam, n)

    @pytest.mark.parametrize("func", [
        lambda q: 1.0 - q * (1.0 - q),                  # dips, but stays in [0, 1]
        lambda q: q - 5e-13,                            # slack band below 0
        lambda q: min(q + 5e-13, 1.0 + 5e-13),          # slack band above 1
        lambda q: q - 2e-12,                            # below the band at q = 0
        lambda q: 2.0 - q,                              # above 1 everywhere
        lambda q: math.nan if 0.3 < q < 0.6 else q,
        lambda q: math.nan if q == 0.0 else q,          # NaN first, where min sees it
        lambda q: math.inf if q > 0.5 else q,
        lambda q: -math.inf if q < 0.5 else q,
        lambda q: 0.9 * q,                              # f(1) = 0.9 is not an error here
    ])
    @pytest.mark.parametrize("n", [2, 101, 10001])
    def test_custom_maps_and_their_errors(self, func, n):
        fam = CustomFamily(func, "custom", domain_low=0.0)
        assert bulk_curve(fam, n) == pointwise_curve(fam, n)

    def test_error_names_the_first_offending_q(self):
        fam = CustomFamily(lambda q: math.nan if q > 0.25 else q, "gap")
        with pytest.raises(DomainError) as exc:
            intercept_curve(fam, 5)
        assert str(exc.value) == "gap leaves the unit interval: f(0.5) = nan"
