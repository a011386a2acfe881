"""Tests for zero scanning, matching, and the conjecture sweep.

The zero table was computed with mpmath at 50 digits (mp.zetazero); the
sweep event counts are engine-derived constants frozen after inspection
(see the assertions' comments for what each event population is).
"""

import math

import numpy as np
import pytest

from zsections.errors import DomainError, ResourceLimitError
from zsections.schemes import SchemeEvaluator, SchemeKind, SchemeSpec
from zsections.zero_scanner import (
    BRACKET_WIDTH,
    MAX_GRID_POINTS,
    compare_zero_sets,
    conjecture_sweep,
    grid_points,
    scan_zeros,
)

# mpmath, 50 digits: ordinates of the first ten zeros of Z
FIRST_TEN_ZEROS = (
    14.134725141734693790457251983562470270784257115699,
    21.022039638771554992628479593896902777334340524903,
    25.010857580145688763213790992562821818659549672558,
    30.424876125859513210311897530584091320181560023715,
    32.935061587739189690662368964074903488812715603517,
    37.586178158825671257217763480705332821405597350831,
    40.918719012147495187398126914633254395726165962777,
    43.327073280914999519496122165406805782645668371837,
    48.005150881167159727942472749427516041686844001144,
    49.773832477672302181916784678563724057723178299677,
)

EM = SchemeSpec(kind=SchemeKind.ORACLE_EM)
RS = SchemeSpec(kind=SchemeKind.REFERENCE_RS)
SPIRA_205 = SchemeSpec(kind=SchemeKind.SPIRA, n=205)
AFE = SchemeSpec(kind=SchemeKind.AFE)


def assert_record_invariants(result):
    evaluator = SchemeEvaluator(result.scheme)
    for rec in result.records:
        lo, hi = rec.bracket
        assert lo < rec.location < hi
        assert hi - lo <= BRACKET_WIDTH
        f_lo, f_hi = evaluator.value(lo), evaluator.value(hi)
        assert (f_lo < 0.0) != (f_hi < 0.0), f"bracket lost its sign change at {rec.location}"
        if not rec.cutoff_jump:
            assert rec.residual <= 1e-6 * (1.0 + rec.scale), (
                f"residual {rec.residual:.3e} vs scale {rec.scale:.3e} at {rec.location}")


class TestScanZeros:
    def test_first_zero_isolated(self):
        result = scan_zeros(EM, 14.0, 14.3, 0.01)
        assert len(result) == 1
        assert abs(result[0].location - 14.1347251417) <= 1e-8
        assert_record_invariants(result)

    def test_constant_sign_interval_is_empty(self):
        result = scan_zeros(EM, 2.0, 5.0, 0.1)
        assert len(result) == 0
        assert len(result.dips) == 0

    def test_reference_engines_agree_on_count(self):
        em = scan_zeros(EM, 412.0, 419.0, 0.005)
        rs = scan_zeros(RS, 412.0, 419.0, 0.005)
        assert len(em) == len(rs)
        # RS1's own truncation error (~1e-3 here) displaces its zeros by
        # error/|Z'|; the engines agree on count and to ~1e-4 in location.
        for a, b in zip(em.locations, rs.locations):
            assert abs(a - b) <= 2e-3

    def test_first_ten_zero_regression(self):
        result = scan_zeros(EM, 0.5, 50.0, 0.01)
        assert len(result) == 10
        for got, want in zip(result.locations, FIRST_TEN_ZEROS):
            assert abs(got - want) <= 1e-8, f"zero at {got} vs table {want}"
        assert_record_invariants(result)

    def test_rerun_is_bit_for_bit(self):
        first = scan_zeros(EM, 0.5, 50.0, 0.01)
        second = scan_zeros(EM, 0.5, 50.0, 0.01)
        assert first.locations == second.locations
        assert [r.bracket for r in first.records] == [r.bracket for r in second.records]

    def test_afe_dip_diagnostic_fires(self):
        # The AFE main sum nearly touches zero around t ~ 415.2 without
        # crossing; the dip diagnostic must notice and the fine re-scan
        # must come back empty-handed.
        result = scan_zeros(AFE, 412.0, 419.0, 0.005)
        assert len(result.dips) >= 1
        assert any(d.zeros_found == 0 and 414.0 < d.t < 416.0 for d in result.dips)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            scan_zeros(EM, -1.0, 5.0, 0.1)
        with pytest.raises(DomainError):
            scan_zeros(EM, 5.0, 5.0, 0.1)
        with pytest.raises(DomainError):
            scan_zeros(EM, 1.0, 2.0, 1.5)  # step exceeds interval
        with pytest.raises(DomainError):
            scan_zeros(EM, 1.0, 2.0, -0.1)

    def test_oversized_grid_refused_before_it_is_built(self):
        with pytest.raises(ResourceLimitError):
            grid_points(0.0, 1.0e6, 1.0e-6)
        with pytest.raises(ResourceLimitError):
            grid_points(0.0, float(MAX_GRID_POINTS), 1.0)
        with pytest.raises(ResourceLimitError):
            grid_points(1.0, 1.0e10, 1.0e-320)  # (b - a)/step is inf
        with pytest.raises(ResourceLimitError):
            scan_zeros(EM, 1.0, 1.0e6, 1.0e-6)
        assert len(grid_points(0.0, 1000.0, 0.005)) == 200001

    def test_grid_includes_endpoint_despite_float_dust(self):
        # (419 - 412)/0.005 is 1399.9999... in floats; the guard must still
        # place 419 on the grid.
        result = scan_zeros(EM, 412.0, 419.0, 0.005)
        assert result.b == 419.0
        # Zeros hug both ends of this window; make sure the top end was seen.
        assert max(result.locations) > 418.0


class TestCompareZeroSets:
    def test_spira_205_clean_and_afe_blind(self):
        comparison = compare_zero_sets(
            (412.0, 419.0), [EM, SPIRA_205, AFE], 0.05, step=0.005)
        spira_match = comparison.for_label("SPIRA@205")
        assert len(spira_match.missed) == 0
        assert len(spira_match.spurious) == 0
        assert len(spira_match.matched) == len(comparison.reference)
        afe_match = comparison.for_label("AFE")
        assert len(afe_match.missed) >= 2

    def test_matched_plus_missed_is_reference_count(self):
        comparison = compare_zero_sets(
            (412.0, 419.0), [EM, SPIRA_205, AFE], 0.05, step=0.005)
        for match in comparison.matches:
            assert len(match.matched) + len(match.missed) == len(comparison.reference)
            locs = [s for _, s in match.matched]
            assert len(set(locs)) == len(locs), "matching must be injective"

    def test_scheme_against_itself_is_clean(self):
        comparison = compare_zero_sets((14.0, 30.0), [EM, EM], 0.05, step=0.05)
        match = comparison.matches[0]
        assert len(match.missed) == 0 and len(match.spurious) == 0
        assert match.max_matched_discrepancy == 0.0

    def test_requires_reference(self):
        with pytest.raises(DomainError):
            compare_zero_sets((412.0, 419.0), [SPIRA_205, AFE], 0.05)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -0.05])
    def test_match_tol_must_be_finite_and_positive(self, tol):
        # Refused before any scan: a nan tolerance would match nothing.
        with pytest.raises(DomainError, match="match_tol"):
            compare_zero_sets((412.0, 419.0), [EM, SPIRA_205], tol)


class TestConjectureSweep:
    def test_degenerate_window_is_well_formed(self):
        summary = conjecture_sweep(30.0, 0.01)
        assert summary.reference_count == 0
        assert summary.scheme_count == 0
        assert summary.clean
        assert summary.events == ()

    def test_ceiling_enforced(self):
        with pytest.raises(DomainError):
            conjecture_sweep(2.0e4, 0.01)
        with pytest.raises(DomainError):
            conjecture_sweep(20.0, 0.01)

    def test_sweep_to_100(self):
        """Engine-derived expectations for the [30, 100] window.

        26 reference zeros live here.  The Spira scheme displaces eight
        low-height zeros (t < 96) by 0.051..0.077, just past the 0.05
        matching tolerance, so each shows up once as missed and once as a
        spurious displaced twin; around the cutoff boundary at t = 48 the
        two adjacent pieces cross once each beside the flagged boundary
        sign flip, adding two more spurious records.
        """
        summary = conjecture_sweep(100.0, 0.01)
        assert summary.reference_count == 26
        assert summary.missed_count == 8
        assert summary.spurious_count == 10
        assert summary.matched_count == 18
        assert summary.max_matched_discrepancy <= summary.match_tol
        assert len(summary.events) == 18
        for event in summary.events:
            assert event["kind"] in ("missed", "spurious")
            # Every event here is a near-miss story: a counterpart exists
            # within 0.1 even when matching at 0.05 failed.
            assert event["nearest_distance"] <= 0.1
        missed = [e["location"] for e in summary.events if e["kind"] == "missed"]
        assert all(loc < 96.0 for loc in missed)
        # The t = 48 boundary pair: spurious piece crossings flanking an
        # even-integer cutoff jump (at 47.933 and 48.037; the flagged sign
        # flip at 48.000 itself greedily matches the true zero 48.005).
        boundary = [e for e in summary.events
                    if e["kind"] == "spurious" and e["boundary_distance"] <= 0.08]
        assert len(boundary) == 2

    def test_sweep_summary_is_reproducible(self):
        a = conjecture_sweep(60.0, 0.01)
        b = conjecture_sweep(60.0, 0.01)
        assert a == b
