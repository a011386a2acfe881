"""Tests for plain sections, the AFE and Spira schemes, and the generalized Z(t; alpha)."""

import math

import mpmath
import numpy as np
import pytest

from zsections import _tables
from zsections.errors import DomainError, ResourceLimitError
from zsections.reference_engine import z_euler_maclaurin
from zsections.schemes import SchemeEvaluator, SchemeKind, SchemeSpec, evaluate_grid
from zsections.sections_engine import (
    FLOAT_SUM_MIN_ELEMENTS,
    CoefficientVector,
    afe,
    cosine_terms,
    section,
    spira,
    sum_rows,
    z_custom,
)
from zsections.special_functions import TWO_PI, theta
from zsections.zero_scanner import scan_zeros


def mp_section(t, n, dps=30):
    """Independent high-precision section sum (mpmath)."""
    mpmath.mp.dps = dps
    tt = mpmath.mpf(t)
    th = mpmath.siegeltheta(tt)
    return float(mpmath.fsum(
        mpmath.cos(th - tt * mpmath.log(k)) / mpmath.sqrt(k) for k in range(1, n + 1)))


def test_tables_grow_when_first_asked_beyond_them(monkeypatch):
    # Each table grows geometrically on demand, whichever is asked first.
    for name in ("_log_table", "_rsqrt_table"):
        monkeypatch.setattr(_tables, name, getattr(_tables, name)[:4])
    rsqrt = _tables.rsqrt_k(10)
    assert len(_tables._rsqrt_table) == len(_tables._log_table) == 16
    ks = np.arange(1, 11, dtype=np.float64)
    assert np.array_equal(rsqrt, 1.0 / np.sqrt(ks))
    assert np.array_equal(_tables.log_k(10), np.log(ks))
    assert not rsqrt.flags.writeable


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


class TestCertifiedFloatSums:
    """sum_rows(mat, x) keeps a row's float sum only where it is certified beyond x."""

    @staticmethod
    def tiled(*rows):
        """The rows repeated into a matrix of at least FLOAT_SUM_MIN_ELEMENTS entries."""
        mat = np.array(rows, dtype=np.float64)
        return np.tile(mat, (-(-FLOAT_SUM_MIN_ELEMENTS // mat.size), 1))

    @pytest.mark.parametrize("exact_below", [0.0, 0.5])
    def test_fast_sum_of_the_wrong_sign_falls_back_to_fsum(self, exact_below):
        row = [1e16, -1.0, -1.0, -1e16, 1.0]
        mat = self.tiled([1.0, 2.0, 3.0, 4.0, 5.0], row, [-5.0, -4.0, -3.0, -2.0, -1.0])
        assert (np.sum(mat, axis=1)[1::3] == 1.0).all() and math.fsum(row) == -1.0
        got, exact = sum_rows(mat, exact_below)
        assert got.tolist() == [15.0, -1.0, -15.0] * (len(mat) // 3)
        assert exact.tolist() == [False, True, False] * (len(mat) // 3)

    def test_exact_zero_row_is_not_negative(self):
        row = [-1e16, 1.0, 1.0, 1e16, -2.0]
        mat = self.tiled(row)
        assert (np.sum(mat, axis=1) < 0.0).all() and math.fsum(row) == 0.0
        got, exact = sum_rows(mat, 0.0)
        assert not (got < 0.0).any() and (got == 0.0).all() and exact.all()

    def test_rows_within_the_threshold_take_fsum(self):
        # A row keeps its float sum only where the sum lies beyond the
        # threshold plus the rounding bound.
        mat = self.tiled([0.05, 0.01, 0.02], [0.5, 0.1, 0.2], [-0.5, -0.1, -0.2])
        for exact_below, kept in ((0.1, [True, False, False]), (0.9, [True, True, True])):
            got, exact = sum_rows(mat, exact_below)
            assert exact.tolist() == kept * (len(mat) // 3)
            assert got[exact].tolist() == [math.fsum(row) for row in mat[exact].tolist()]
            assert np.all(np.abs(got[~exact]) > exact_below)
        assert sum_rows(mat)[1].all()  # the default threshold is inf: fsum everywhere

    def test_small_matrix_takes_fsum(self):
        row = [1e16, -1.0, -1.0, -1e16, 1.0]
        got, exact = sum_rows(np.array([row]), 0.0)
        assert got.tolist() == [-1.0] and exact.tolist() == [True]

    def test_non_finite_rows_take_fsum(self):
        for row in ([1.0, math.inf], [math.nan, 1.0]):
            got, exact = sum_rows(self.tiled(row), 0.0)
            want = math.fsum(row)
            assert (got == want).all() or (np.isnan(got).all() and math.isnan(want))
            assert exact.all()
        for row, error in (([math.inf, -math.inf], ValueError),
                           ([1e308, 1e308, -1e308], OverflowError)):
            with pytest.raises(error):
                sum_rows(self.tiled(row))
            with pytest.raises(error):
                sum_rows(self.tiled(row), 0.0)

    @pytest.mark.parametrize("spec", [
        SchemeSpec(kind=SchemeKind.SPIRA),
        SchemeSpec(kind=SchemeKind.AFE),
        SchemeSpec(kind=SchemeKind.SPIRA, n=205),
        SchemeSpec(kind=SchemeKind.ACCELERATED_COEFF),
        SchemeSpec(kind=SchemeKind.CUSTOM,
                   alpha=CoefficientVector(alpha=tuple(np.linspace(1.0, 0.25, 300)))),
    ], ids=lambda spec: spec.label)
    def test_signs_equal_exact_signs_near_zeros(self, spec):
        evaluator = SchemeEvaluator(spec)
        offsets = np.arange(-10, 11) * 1e-10
        differs = 0
        for t0 in (412.0, 2000.0, 4000.0):
            records = scan_zeros(spec, t0, t0 + 2.0, 0.05).records
            assert records, f"no zero of {spec.label} on [{t0}, {t0 + 2}]"
            for rec in records:
                pts = np.concatenate([rec.bracket, rec.location + offsets])
                exact, _, _ = evaluate_grid(evaluator, pts)
                signed, _, kept = evaluate_grid(evaluator, pts, exact_below=0.0)
                assert (exact < 0.0).any() and (exact > 0.0).any(), (
                    f"points around {rec.location} do not straddle a zero")
                assert ((signed < 0.0) == (exact < 0.0)).all(), f"sign off near {rec.location}"
                assert (signed[kept] == exact[kept]).all()
                differs += int(np.count_nonzero(signed != exact))
        assert differs > 0, "cheap values all equal the exact ones: none was used"
