"""Tests for plain sections, the AFE and Spira schemes, and the generalized Z(t; alpha)."""

import math

import mpmath
import numpy as np
import pytest

from zsections.errors import DomainError, ResourceLimitError
from zsections.reference_engine import z_euler_maclaurin
from zsections.sections_engine import (
    CoefficientVector,
    afe,
    cosine_terms,
    section,
    spira,
    z_custom,
)
from zsections.special_functions import TWO_PI, theta


def mp_section(t, n, dps=30):
    """Independent high-precision section sum (mpmath)."""
    mpmath.mp.dps = dps
    tt = mpmath.mpf(t)
    th = mpmath.siegeltheta(tt)
    return float(mpmath.fsum(
        mpmath.cos(th - tt * mpmath.log(k)) / mpmath.sqrt(k) for k in range(1, n + 1)))


class TestSection:
    def test_empty_sum(self):
        assert section(3.7, 0) == 0.0
        assert section(0.0, 0) == 0.0

    def test_single_term_is_cos_theta(self):
        for t in (0.5, 14.2, 412.5, 3000.0):
            assert section(t, 1) == math.cos(theta(t)), f"t={t}"

    def test_against_high_precision_oracle(self):
        rng = np.random.default_rng(7311)
        for _ in range(20):
            t = rng.uniform(1.0, 2000.0)
            n = int(rng.integers(1, 50))
            got = section(t, n)
            want = mp_section(t, n)
            assert abs(got - want) <= 1e-10, f"section({t}, {n}): {got} vs {want}"

    def test_domain_and_resource_errors(self):
        with pytest.raises(DomainError):
            section(-1.0, 3)
        with pytest.raises(DomainError):
            section(5.0, -1)
        with pytest.raises(ResourceLimitError):
            cosine_terms(10.0, 10**6 + 1)


class TestAfeAndSpira:
    def test_afe_is_twice_the_sqrt_cutoff_section(self):
        assert afe(412.5) == 2.0 * section(412.5, 8)
        t = TWO_PI * 4.0
        assert afe(t) == 2.0 * section(t, 2)

    def test_afe_rejected_below_two_pi(self):
        with pytest.raises(DomainError):
            afe(6.28)

    def test_spira_values(self):
        assert spira(4.0) == section(4.0, 2)
        assert spira(3000.0) == section(3000.0, 1500)
        with pytest.raises(DomainError):
            spira(1.99)

    def test_afe_error_magnitude_report(self):
        # |afe - Z| at t = 415 should be of order t^(-1/4) ~ 0.22: loose
        # sanity check, not a hard bound on the scheme.
        err = abs(afe(415.0) - z_euler_maclaurin(415.0).z)
        assert err < 10.0 * 415.0**-0.25, f"afe error wildly off: {err}"

    def test_spira_error_trend(self):
        """Median Spira error over [1900, 2000] below that over [190, 200]."""
        lo = [abs(spira(float(t)) - z_euler_maclaurin(float(t)).z)
              for t in np.linspace(190.0, 200.0, 21)]
        hi = [abs(spira(float(t)) - z_euler_maclaurin(float(t)).z)
              for t in np.linspace(1900.0, 2000.0, 21)]
        assert np.median(hi) < np.median(lo), (
            f"no error decay: median {np.median(hi):.4g} at t~2000 "
            f"vs {np.median(lo):.4g} at t~200")


class TestZCustom:
    def test_all_ones_matches_section_bitwise(self):
        for t, n in ((14.2, 5), (412.5, 205), (1000.0, 500)):
            ones = CoefficientVector(alpha=(1.0,) * n)
            assert z_custom(t, ones) == section(t, n)

    def test_zero_vector(self):
        assert z_custom(100.0, np.zeros(17)) == 0.0
        assert z_custom(100.0, np.empty(0)) == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(2026)
        for _ in range(25):
            n = int(rng.integers(1, 200))
            t = rng.uniform(1.0, 3000.0)
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            a, b = rng.normal(), rng.normal()
            lhs = z_custom(t, a * x + b * y)
            rhs = a * z_custom(t, x) + b * z_custom(t, y)
            scale = abs(lhs) + abs(a) * abs(z_custom(t, x)) + abs(b) * abs(z_custom(t, y))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + scale), f"linearity off at t={t}, n={n}"

    def test_validation(self):
        with pytest.raises(DomainError):
            z_custom(10.0, np.array([1.0, float("nan")]))
        with pytest.raises(DomainError):
            z_custom(10.0, np.ones((2, 2)))
        with pytest.raises(DomainError):
            CoefficientVector(alpha=(1.0, float("inf")))
