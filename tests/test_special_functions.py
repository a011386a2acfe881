"""Tests for theta.

Frozen reference values in this file were computed with mpmath at 50
significant digits (mp.siegeltheta); the live-oracle sweep re-derives a
sample of them at run time so a stale freeze cannot hide a regression.
"""

import math

import mpmath
import numpy as np
import pytest

from zsections.errors import DomainError
from zsections.special_functions import theta, theta_grid

# mpmath, 50 digits: siegeltheta at assorted points
THETA_1 = -1.7675479528122903883022164992643870423194838631438
THETA_100 = 87.972165231787219625483129113748690868566519706706
THETA_1E5 = 433752.02722917078143564463081121752752984653167161
THETA_1E6 = 5488816.3530784034448828231543656631841155420033166

# mpmath, 50 digits: smallest positive root of theta
THETA_ROOT = 17.845599540410860816826338412519097035693287433696


class TestTheta:
    def test_zero_at_origin(self):
        assert theta(0.0) == 0.0

    def test_frozen_values(self):
        assert abs(theta(1.0) - THETA_1) <= 1e-12
        assert abs(theta(100.0) - THETA_100) <= 1e-12
        assert abs(theta(1.0e5) - THETA_1E5) <= 1e-10
        # theta(1e6) ~ 5.5e6, where one float64 ulp is ~1e-9; allow a few ulps.
        assert abs(theta(1.0e6) - THETA_1E6) <= 2e-9

    def test_live_oracle_logspaced_sweep(self):
        """Absolute error <= 1e-10 against mpmath on [1, 1e5]."""
        mpmath.mp.dps = 30
        ts = np.logspace(0.0, 5.0, 100)
        worst = 0.0
        for t in ts:
            want = float(mpmath.siegeltheta(mpmath.mpf(t)))
            worst = max(worst, abs(theta(float(t)) - want))
        assert worst <= 1e-10, f"worst theta error {worst:.3e} on log-spaced sweep"

    def test_matches_loggamma_definition(self):
        mpmath.mp.dps = 30
        rng = np.random.default_rng(99)
        for _ in range(30):
            t = rng.uniform(0.5, 5000.0)
            want = float(mpmath.loggamma(mpmath.mpc(0.25, 0.5 * t)).imag
                         - 0.5 * t * mpmath.log(mpmath.pi))
            assert abs(theta(t) - want) <= 1e-9 * (1 + abs(want))

    def test_derivative_against_asymptotic_form(self):
        """Central difference of theta tracks (1/2) ln(t / 2 pi).

        The exact derivative is (1/2) ln(t/2pi) - 1/(48 t^2) + O(t^-4), so the
        comparison only holds to 1e-4 once t is clear of ~14.5; the seeded
        draw below was checked to stay above that.
        """
        rng = np.random.default_rng(424242)
        ts = rng.uniform(10.0, 1.0e4, size=100)
        assert np.all(ts >= 14.5), "seed draws below the asymptotic validity floor"
        h = 1e-3
        for t in ts:
            fd = (theta(t + h) - theta(t - h)) / (2 * h)
            asym = 0.5 * math.log(t / (2 * math.pi))
            assert abs(fd - asym) <= 1e-4, f"theta' off at t={t}: fd={fd}, asym={asym}"

    def test_branch_continuity_second_differences(self):
        """No 2-pi (or pi/4) snaps anywhere: second differences stay tiny."""
        ts = np.arange(20.0, 2000.0, 0.01)
        th = theta_grid(ts)
        d2 = np.diff(th, n=2)
        # |theta''| = 1/(2t) at most 1/40 here, so step^2 * theta'' ~ 2.5e-6.
        assert np.max(np.abs(d2)) <= 1e-5, f"branch jump: max |d2| = {np.max(np.abs(d2)):.3e}"

    def test_grid_matches_scalar_bitwise(self):
        ts = np.array([0.0, 0.5, 3.0, 14.2, 19.9, 20.1, 412.5, 99187.25])
        grid = theta_grid(ts)
        for t, g in zip(ts, grid):
            assert g == theta(float(t)), f"grid/scalar mismatch at t={t}"

    def test_root_location(self):
        lo, hi = 17.0, 19.0
        flo = theta(lo)
        assert flo < 0 < theta(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (theta(mid) < 0) == (flo < 0):
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert abs(root - THETA_ROOT) <= 1e-9, f"theta root at {root}"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theta(-1.0)
        with pytest.raises(DomainError):
            theta(float("inf"))
        with pytest.raises(DomainError):
            theta_grid(np.array([1.0, -2.0]))
