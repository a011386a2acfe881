"""Tests for zero scanning, matching, and the conjecture sweep.

The zero table was computed with mpmath at 50 digits (mp.zetazero); the
sweep event counts are engine-derived constants frozen after inspection
(see the assertions' comments for what each event population is).
"""

import math

import numpy as np
import pytest

from zsections import schemes, zero_scanner
from zsections.errors import DomainError, ResourceLimitError
from zsections.schemes import SchemeEvaluator, SchemeKind, SchemeSpec, evaluate_grid
from zsections.zero_scanner import (
    BRACKET_WIDTH,
    DIP_THRESHOLD,
    MAX_BISECT_ITERS,
    MAX_GRID_POINTS,
    SWEEP_CEILING,
    SWEEP_T_MIN,
    _crossings,
    _greedy_match,
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
CUSTOM_300 = SchemeSpec(kind=SchemeKind.CUSTOM, alpha=tuple(np.linspace(1.0, 0.25, 300)))


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

    @pytest.mark.parametrize("bounds", [(math.nan, 10.0, 0.1), (1.0, math.inf, 0.1),
                                        (1.0, 10.0, math.nan)])
    def test_non_finite_range_refused(self, bounds):
        with pytest.raises(DomainError, match="^scan bounds and step must be finite$"):
            scan_zeros(EM, *bounds)

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

    def test_grid_points_are_the_doubles_of_a_plus_i_step(self):
        # The float64 array holds, bit for bit, the doubles a + i * step that
        # a Python loop makes: 200,001 points on [0, 1000], a grid across the
        # cutoff jumps at t = 48 and 50, and the re-scan grid of a dip.
        ts = grid_points(412.0, 419.0, 0.005)
        i = ts.tolist().index(scan_zeros(AFE, 412.0, 419.0, 0.005).dips[0].t)
        for a, b, step, points in ((0.0, 1000.0, 0.005, 200001), (47.9, 52.1, 0.005, 841),
                                   (ts[i - 1].item(), ts[i + 1].item(), 0.0005, 21)):
            grid = grid_points(a, b, step)
            want = np.array([a + k * step for k in range(points)])
            assert grid.dtype == np.float64 and len(grid) == points
            assert np.array_equal(grid.view(np.int64), want.view(np.int64))

    def test_grid_includes_endpoint_despite_float_dust(self):
        # (419 - 412)/0.005 is 1399.9999... in floats; the guard must still
        # place 419 on the grid.
        result = scan_zeros(EM, 412.0, 419.0, 0.005)
        assert result.b == 419.0
        # Zeros hug both ends of this window; make sure the top end was seen.
        assert max(result.locations) > 418.0


def reference_scan(spec, a, b, step):
    """scan_zeros' records and dips by the per-bracket loop on the exact grid.

    Every value goes through evaluator.value.  Sign changes are found by
    products of neighbouring samples, which is the same rule as the
    scanner's on grids without exact zeros or underflow.  Dips are
    (t, value, zeros found) triples.
    """
    evaluator = SchemeEvaluator(spec)

    def refine(lo, hi, f_lo, f_hi):
        scale = max(abs(f_lo), abs(f_hi))
        lo_neg = f_lo < 0.0
        for _ in range(MAX_BISECT_ITERS):
            if hi - lo <= BRACKET_WIDTH:
                break
            mid = 0.5 * (lo + hi)
            if (evaluator.value(mid) < 0.0) == lo_neg:
                lo = mid
            else:
                hi = mid
        location = 0.5 * (lo + hi)
        jump = (spec.kind is not SchemeKind.ORACLE_EM
                and evaluator._key(lo) != evaluator._key(hi))
        return (location, (lo, hi), abs(evaluator.value(location)), scale, jump)

    def brackets(ts):
        vals = [evaluator.value(t) for t in ts]
        return vals, [refine(ts[i], ts[i + 1], vals[i], vals[i + 1])
                      for i in range(len(ts) - 1) if vals[i] * vals[i + 1] < 0.0]

    ts = grid_points(a, b, step)
    vals, records = brackets(ts)
    dips = []
    for i in range(1, len(ts) - 1):
        av = abs(vals[i])
        if (av < DIP_THRESHOLD and av <= abs(vals[i - 1]) and av <= abs(vals[i + 1])
                and vals[i - 1] * vals[i] > 0.0 and vals[i] * vals[i + 1] > 0.0):
            found = brackets(grid_points(ts[i - 1], ts[i + 1], step / 10.0))[1]
            records += found
            dips.append((ts[i], vals[i], len(found)))
    records.sort(key=lambda r: r[0])
    deduped = []
    for rec in records:
        if not deduped or abs(rec[0] - deduped[-1][0]) > 1e-8:
            deduped.append(rec)
    return deduped, dips


def reference_records(spec, a, b, step):
    return reference_scan(spec, a, b, step)[0]


def dip_fields(result):
    return [(d.t, d.value, d.zeros_found) for d in result.dips]


def record_fields(result):
    return [(r.location, r.bracket, r.residual, r.scale, r.cutoff_jump)
            for r in result.records]


# 2 pi (6 + 1/4)^2: the Riemann-Siegel remainder's removable point p = 1/4.
RS_HAZARD_T = 2.0 * math.pi * 6.25 ** 2


class TestLockstepBisection:
    """scan_zeros refines all brackets together; the records equal the per-bracket loop's."""

    @pytest.mark.parametrize("spec, a, b, step", [
        (SchemeSpec(kind=SchemeKind.SPIRA), 412.0, 416.0, 0.01),
        (SchemeSpec(kind=SchemeKind.ACCELERATED_COEFF), 412.0, 416.0, 0.01),
        (EM, 412.0, 416.0, 0.01),
        (AFE, 412.0, 419.0, 0.005),
        (RS, RS_HAZARD_T, RS_HAZARD_T + 4.0, 0.01),
        (SPIRA_205, 412.0, 419.0, 0.005),
        (SchemeSpec(kind=SchemeKind.SPIRA), 44.0, 52.0, 0.01),  # cutoff jump at t = 48
        # refine-like: long sections whose grids and bisection rounds take cheap values
        (SchemeSpec(kind=SchemeKind.SPIRA), 2000.0, 2020.0, 0.1),
        (SchemeSpec(kind=SchemeKind.ACCELERATED_COEFF), 2000.0, 2020.0, 0.1),
        (CUSTOM_300, 2000.0, 2020.0, 0.1),
        (AFE, 2000.0, 2020.0, 0.1),
        # above t = 200 the grids and bisection rounds of the oracle and of
        # Spira's section take the screen's values
        (EM, 2000.0, 2020.0, 0.1),
        (EM, 7000.0, 7010.0, 0.1),  # Lehmer's pair near 7005.08
        (SchemeSpec(kind=SchemeKind.SPIRA), 7000.0, 7010.0, 0.1),
        (EM, 195.0, 215.0, 0.1),  # across RS4_T_MIN
        (SchemeSpec(kind=SchemeKind.SPIRA), 195.0, 215.0, 0.1),
        (EM, 410.0, 420.0, 0.5),  # dips at 415.0
        (SchemeSpec(kind=SchemeKind.SPIRA), 410.0, 420.0, 0.5),
        (EM, 1280.0, 1290.0, 0.5),  # a dip at 1283.0 with |Z| ~ 6e-4
        (SchemeSpec(kind=SchemeKind.SPIRA), 1280.0, 1290.0, 0.5),
    ], ids=["spira", "acc", "em", "afe", "rs", "spira@205", "spira-jump",
            "spira-2000", "acc-2000", "custom-2000", "afe-2000",
            "em-2000", "em-lehmer", "spira-lehmer", "em-200", "spira-200",
            "em-dips-415", "spira-dips-415", "em-dip-1283", "spira-dip-1283"])
    def test_records_equal_per_bracket_loop(self, spec, a, b, step):
        result = scan_zeros(spec, a, b, step)
        assert len(result) > 0
        records, dips = reference_scan(spec, a, b, step)
        assert record_fields(result) == records
        assert dip_fields(result) == dips

    @pytest.mark.parametrize("spec, h", [
        (EM, 0.49363899034266645),
        (SchemeSpec(kind=SchemeKind.SPIRA), 0.49665947329764665),
    ], ids=["em", "spira"])
    def test_dip_beside_a_cheap_value_just_above_the_band(self, spec, h):
        # The grid 2532 - h, 2532, 2532 + h has a dip at 2532 whose left
        # neighbour lies within 1e-7 above DIP_THRESHOLD and keeps a cheap
        # value: the dip is found as on exact values.
        ts = grid_points(2532.0 - h, 2532.0 + h, h)
        evaluator = SchemeEvaluator(spec)
        cheap, _, exact = evaluate_grid(evaluator, ts, exact_below=DIP_THRESHOLD)
        values = evaluate_grid(evaluator, ts)[0]
        assert exact.tolist() == [False, True, False]
        assert DIP_THRESHOLD < abs(values[0]) < DIP_THRESHOLD + 1e-7
        assert DIP_THRESHOLD < abs(cheap[0]) and np.sign(cheap[0]) == np.sign(values[0])
        result = scan_zeros(spec, 2532.0 - h, 2532.0 + h, h)
        records, dips = reference_scan(spec, 2532.0 - h, 2532.0 + h, h)
        assert [d.t for d in result.dips] == [2532.0]
        assert dip_fields(result) == dips and record_fields(result) == records

    def test_rs_hazards_count_the_grid_only(self):
        result = scan_zeros(RS, RS_HAZARD_T, RS_HAZARD_T + 4.0, 0.01)
        _, grid_hazards, _ = evaluate_grid(SchemeEvaluator(RS),
                                           grid_points(RS_HAZARD_T, RS_HAZARD_T + 4.0, 0.01))
        assert result.hazard_count == grid_hazards >= 1

    def test_brackets_of_different_widths(self, monkeypatch):
        # The Lehmer pair near t = 7005.08 hides inside one grid step of 0.2;
        # its dip re-scan brackets (width 0.02) need fewer rounds than the
        # grid bracket near 7004.04 (width 0.2) refined beside them.
        calls = []

        def counting(evaluator, ts, exact_below=math.inf):
            calls.append((len(ts), exact_below))
            return evaluate_grid(evaluator, ts, exact_below=exact_below)

        monkeypatch.setattr(zero_scanner, "evaluate_grid", counting)
        result = scan_zeros(EM, 7004.0, 7006.0, 0.2)
        assert [d.zeros_found for d in result.dips] == [2]
        assert len(result) == 3
        assert record_fields(result) == reference_records(EM, 7004.0, 7006.0, 0.2)
        # the grid and the re-scan at DIP_THRESHOLD (each may take one more
        # exact call for its sign-change ends), the bisection rounds at 0,
        # then one exact residual call
        assert [n for n, exact_below in calls if exact_below == DIP_THRESHOLD] == [11, 21]
        rounds = [n for n, exact_below in calls if exact_below == 0.0]
        assert 0 < len(rounds) <= MAX_BISECT_ITERS
        assert rounds[0] == 3 and rounds[-1] == 1 and calls[-1] == (3, math.inf)

    def test_bisection_stops_at_iteration_cap(self, monkeypatch):
        # Near t = 1e7 one ulp is 1.9e-9 > BRACKET_WIDTH, so no bracket ever
        # gets narrow enough and every one runs all MAX_BISECT_ITERS rounds.
        spec = SchemeSpec(kind=SchemeKind.SPIRA, n=8)
        calls = []

        def counting(evaluator, ts, exact_below=math.inf):
            calls.append(len(ts))
            return evaluate_grid(evaluator, ts, exact_below=exact_below)

        monkeypatch.setattr(zero_scanner, "evaluate_grid", counting)
        result = scan_zeros(spec, 1.0e7, 1.0e7 + 1.0, 0.05)
        assert len(result) >= 1 and not result.dips
        assert all(hi - lo > BRACKET_WIDTH for lo, hi in (r.bracket for r in result.records))
        # the grid lies above RS4_T_MIN: an empty call below it, one above
        assert calls[:2] == [0, 21]
        assert calls[2:] == [len(result)] * (MAX_BISECT_ITERS + 1)
        assert record_fields(result) == reference_records(spec, 1.0e7, 1.0e7 + 1.0, 0.05)


class TestSignRule:
    def test_exact_zero_samples(self):
        changes, zeros = _crossings(np.array([1.0, 0.0, -1.0, -0.0, -2.0]))
        assert changes.tolist() == [] and zeros.tolist() == [1, 3]

    def test_underflowing_pair(self):
        vals = np.array([1e-200, -1e-200, -1e-300, 1e-300])
        assert vals[0] * vals[1] == 0.0  # the product test would skip both
        changes, zeros = _crossings(vals)
        assert changes.tolist() == [0, 2] and zeros.tolist() == []

    def test_mixed_signs(self):
        changes, zeros = _crossings(np.array([2.0, -1.0, -3.0, 4.0, 5.0, math.nan, -1.0, 1.0]))
        assert changes.tolist() == [0, 2, 6] and zeros.tolist() == []

    @staticmethod
    def fake_scheme(monkeypatch, f):
        def fake(evaluator, ts, exact_below=math.inf):
            return f(np.asarray(ts, dtype=np.float64)), 0, np.ones(len(ts), dtype=bool)

        monkeypatch.setattr(zero_scanner, "evaluate_grid", fake)

    def test_exact_zero_on_grid_becomes_a_record(self, monkeypatch):
        self.fake_scheme(monkeypatch, lambda t: t - 2.5)
        result = scan_zeros(SPIRA_205, 1.0, 4.0, 0.5)
        assert record_fields(result) == [(2.5, (2.5, 2.5), 0.0, 0.5, False)]

    def test_underflowing_sign_change_is_bracketed(self, monkeypatch):
        self.fake_scheme(monkeypatch, lambda t: 1e-200 * (t - 2.3))
        result = scan_zeros(SPIRA_205, 1.0, 4.0, 0.5)
        assert len(result) == 1
        assert abs(result[0].location - 2.3) <= BRACKET_WIDTH

    def test_an_exact_zero_is_a_candidate_of_width_zero(self, monkeypatch):
        # Bisection never opens it, and its residual is evaluated and counted
        # like any other: one call for the grid, then one for the residual.
        calls = []

        def f(t):
            calls.append(t.tolist())
            return t - 2.5

        self.fake_scheme(monkeypatch, f)
        result = scan_zeros(SPIRA_205, 1.0, 2.5, 0.5)
        assert [call for call in calls if call] == [[1.0, 1.5, 2.0, 2.5], [2.5]]
        assert record_fields(result) == [(2.5, (2.5, 2.5), 0.0, 0.5, False)]
        assert result.stats.residual == 1 and result.stats.bisect_exact == 0

    def test_exact_zeros_on_a_dip_rescan(self, monkeypatch):
        # Two zeros inside the grid step (2.0, 2.5), both landing exactly
        # on points of the re-scan grid at step 0.05.
        def f(t):
            return np.where(np.isclose(t, 2.05, rtol=0.0, atol=1e-12)
                            | np.isclose(t, 2.15, rtol=0.0, atol=1e-12),
                            0.0, (t - 2.1) ** 2 - 0.0025)

        self.fake_scheme(monkeypatch, f)
        result = scan_zeros(SPIRA_205, 1.0, 4.0, 0.5)
        assert [(d.t, d.zeros_found) for d in result.dips] == [(2.0, 2)]
        assert [r.bracket for r in result.records] == [(r.location, r.location)
                                                       for r in result.records]
        assert [round(r.location, 9) for r in result.records] == [2.05, 2.15]
        assert all(r.residual == 0.0 and not r.cutoff_jump for r in result.records)


    def test_dip_rescans_that_share_their_zeros_give_one_record_each(self, monkeypatch):
        # |f| is 0.0609 at both t = 2.0 and t = 2.5, so both are dips, and both
        # re-scan windows, [1.5, 2.5] and [2.0, 3.0], bracket the zeros 2.21
        # and 2.29: four refined brackets, one record per zero.
        self.fake_scheme(monkeypatch, lambda t: (t - 2.25) ** 2 - 0.0016)
        result = scan_zeros(SPIRA_205, 1.0, 4.0, 0.5)
        assert [(d.t, d.zeros_found) for d in result.dips] == [(2.0, 2), (2.5, 2)]
        assert result.stats.residual == 4
        assert [round(r.location, 8) for r in result.records] == [2.21, 2.29]
        assert all(r.bracket[1] - r.bracket[0] <= BRACKET_WIDTH for r in result.records)


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

    def test_for_label_refuses_an_unknown_label(self):
        comparison = compare_zero_sets((14.0, 14.3), [EM, SPIRA_205], step=0.01)
        assert comparison.for_label("SPIRA@205").scheme == SPIRA_205
        with pytest.raises(KeyError):
            comparison.for_label("AFE")

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

    @staticmethod
    def all_pairs_match(ref_locs, locs, tol):
        """_greedy_match by the loop over every pair of locations."""
        candidates = sorted((abs(r - x), r, x, i, j) for i, r in enumerate(ref_locs)
                            for j, x in enumerate(locs) if abs(r - x) <= tol)
        used_ref, used_loc, pairs = set(), set(), []
        for _, r, x, i, j in candidates:
            if i not in used_ref and j not in used_loc:
                used_ref.add(i)
                used_loc.add(j)
                pairs.append((r, x))
        return (tuple(sorted(pairs)),
                tuple(r for i, r in enumerate(ref_locs) if i not in used_ref),
                tuple(x for j, x in enumerate(locs) if j not in used_loc))

    @pytest.mark.parametrize("seed", range(40))
    def test_windowed_match_equals_all_pairs(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2:  # on a lattice of 1/64: ties, repeats and distances of exactly tol
            ref = np.sort(rng.integers(0, 120, rng.integers(0, 30))) / 64.0
            locs = np.sort(rng.integers(0, 120, rng.integers(0, 30))) / 64.0
            tol = int(rng.integers(1, 6)) / 64.0
        else:
            ref = np.sort(rng.uniform(400.0, 402.0, rng.integers(0, 30)))
            near = ref[: len(ref) // 2] + rng.normal(0.0, 0.03, len(ref) // 2)
            locs = np.sort(np.concatenate([near, rng.uniform(400.0, 402.0, 5)]))
            tol = 0.05
        ref, locs = tuple(ref.tolist()), tuple(locs.tolist())
        assert _greedy_match(ref, locs, tol) == self.all_pairs_match(ref, locs, tol)

    def test_windowed_match_at_exactly_tol_and_ties(self):
        # 0.75 and 1.75 lie exactly tol from a reference zero; 1.25 appears
        # twice, and 1.0 and 1.5 are equally near it.
        ref, locs, tol = (1.0, 1.25, 1.5), (0.75, 1.0, 1.25, 1.25, 1.75), 0.25
        got = _greedy_match(ref, locs, tol)
        assert got == self.all_pairs_match(ref, locs, tol)
        assert got == (((1.0, 1.0), (1.25, 1.25), (1.5, 1.25)), (), (0.75, 1.75))
        assert _greedy_match((1.0,), (0.75, 1.25), tol) == (((1.0, 0.75),), (), (1.25,))

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

    @pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -0.01])
    def test_step_must_be_finite_and_positive(self, step):
        # Refused before the short-window return, which would report a clean
        # sweep of nothing.
        for t_max in (1000.0, 30.0):
            with pytest.raises(DomainError, match="step"):
                conjecture_sweep(t_max, step)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -0.05])
    def test_match_tol_must_be_finite_and_positive(self, tol):
        # Also on a window shorter than a step, where no scan runs.
        for t_max in (1000.0, 30.0):
            with pytest.raises(DomainError, match="match_tol"):
                conjecture_sweep(t_max, 0.01, match_tol=tol)

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

    @pytest.mark.parametrize("t_max", [5000.5, SWEEP_CEILING])
    def test_the_oracle_referees_at_every_height(self, monkeypatch, t_max):
        # The referee is the EM oracle up to the ceiling; the spy stops the
        # sweep before any scan runs.
        seen = []

        def spy(window, specs, match_tol, *, step):
            seen.append((window, [spec.kind for spec in specs]))
            raise RuntimeError("no scan")

        monkeypatch.setattr(zero_scanner, "compare_zero_sets", spy)
        with pytest.raises(RuntimeError, match="no scan"):
            conjecture_sweep(t_max, 0.005)
        assert seen == [((SWEEP_T_MIN, t_max), [SchemeKind.ORACLE_EM, SchemeKind.SPIRA])]

    def test_sweep_summary_is_reproducible(self):
        a = conjecture_sweep(60.0, 0.01)
        b = conjecture_sweep(60.0, 0.01)
        assert a == b


class TestOracleScreen:
    """Above RS4_T_MIN the screens of the EM oracle (RS4) and of Spira's section
    (RS4 minus the Euler-Maclaurin tail) answer bisection midpoints with
    signs, and grid points beyond DIP_THRESHOLD with values, where their
    bounds certify them."""

    @pytest.mark.parametrize("spec, share", [(EM, 0.8), (SchemeSpec(kind=SchemeKind.SPIRA), 0.5)],
                             ids=["em", "spira"])
    @pytest.mark.parametrize("a, b, step", [(2000.0, 2020.0, 0.1), (410.0, 420.0, 0.5)])
    def test_stage_counts(self, monkeypatch, spec, share, a, b, step):
        screened = scan_zeros(spec, a, b, step)
        for module in (schemes, zero_scanner):  # no cheap value anywhere
            monkeypatch.setattr(module, "RS4_T_MIN", math.inf)
        exact = scan_zeros(spec, a, b, step)
        assert screened.records == exact.records and screened.dips == exact.dips
        got, want = screened.stats, exact.stats
        assert want.bisect_screened == want.grid_screened == 0
        assert got.bisect_screened > share * want.bisect_exact
        assert got.bisect_screened + got.bisect_exact == want.bisect_exact
        assert got.grid_screened > 0.5 * (got.grid + got.dip_rescan)
        assert (got.grid, got.dip_rescan, got.residual) == (want.grid, want.dip_rescan,
                                                            want.residual)
        assert got.grid == len(grid_points(a, b, step))
        assert (got.dip_rescan > 0) == (step == 0.5) == bool(screened.dips)
        assert got.residual == sum(1 for r in screened.records if r.bracket[0] < r.bracket[1])

    def test_screened_signs_near_zeros_are_exact_signs(self):
        evaluator = SchemeEvaluator(EM)
        zeros = [loc for a, b in ((200.0, 215.0), (2000.0, 2020.0), (7000.0, 7010.0))
                 for loc in scan_zeros(EM, a, b, 0.1).locations]
        offsets = [sign * 10.0**-e for e in range(6, 12) for sign in (-1.0, 1.0)]
        ts = [z + d for z in zeros for d in offsets]
        signs = evaluate_grid(evaluator, ts, exact_below=0.0)[0]
        exact = evaluate_grid(SchemeEvaluator(EM), ts)[0]
        assert evaluator.screened >= len(ts) // 3
        assert np.array_equal(np.sign(signs), np.sign(exact))

    def test_no_screen_below_rs4_t_min(self):
        evaluator = SchemeEvaluator(EM)
        ts = np.linspace(30.0, schemes.RS4_T_MIN, 50, endpoint=False)
        signs = evaluate_grid(evaluator, ts, exact_below=0.0)[0]
        assert evaluator.screened == 0
        assert np.array_equal(signs, evaluate_grid(SchemeEvaluator(EM), ts)[0])

    def test_refused_points_raise_before_the_screen(self):
        # The oracle's refusal of M > MAX_SECTION_TERMS at t = 6e5 surfaces
        # with the exact path's error, before the screen decides any point.
        evaluator = SchemeEvaluator(EM)
        ts = [2000.0, 2000.5, 6e5]
        with pytest.raises(ResourceLimitError) as exact_error:
            evaluate_grid(SchemeEvaluator(EM), ts)
        with pytest.raises(ResourceLimitError) as sign_error:
            evaluate_grid(evaluator, ts, exact_below=0.0)
        assert str(sign_error.value) == str(exact_error.value)
        assert evaluator.screened == 0
