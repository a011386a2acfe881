"""Tests for the evaluation path of the scheme layer.

evaluate_grid evaluates chunks as arrays (theta once per chunk, one kernel
matrix per run of constant cutoff); every value must still equal the scalar
SchemeEvaluator.evaluate at the same point bit for bit, with the same hazard
count and the same error at the same point.  SchemeEvaluator.evaluate is the
one-point case of the same rows functions, so it is checked in turn against
the public scalar engines, bit for bit.
"""

import math

import numpy as np
import pytest

from zsections.acceleration_engine import accelerated_triangle, accelerated_vertical
from zsections.errors import ConvergenceError, DomainError, ResourceLimitError
from zsections.reference_engine import z_euler_maclaurin, z_riemann_siegel
from zsections.schemes import SchemeEvaluator, SchemeKind, SchemeSpec, evaluate_grid
from zsections.sections_engine import MAX_SECTION_TERMS, CoefficientVector, section, z_custom
from zsections.zero_scanner import grid_points

CUSTOM_ALPHA = CoefficientVector(alpha=tuple(1.0 / (1.0 + 0.1 * k) for k in range(17)))

PER_POINT_SPECS = [
    SchemeSpec(kind=SchemeKind.REFERENCE_RS),
    SchemeSpec(kind=SchemeKind.ORACLE_EM),
    SchemeSpec(kind=SchemeKind.AFE),
    SchemeSpec(kind=SchemeKind.SPIRA),
    SchemeSpec(kind=SchemeKind.ACCELERATED_TRIANGLE),
    SchemeSpec(kind=SchemeKind.ACCELERATED_COEFF),
    SchemeSpec(kind=SchemeKind.CUSTOM, alpha=CUSTOM_ALPHA),
]

FIXED_SPECS = [
    SchemeSpec(kind=SchemeKind.AFE, n=8),
    SchemeSpec(kind=SchemeKind.SPIRA, n=205),
    SchemeSpec(kind=SchemeKind.ACCELERATED_TRIANGLE, n=12),
    SchemeSpec(kind=SchemeKind.ACCELERATED_COEFF, n=40),
]

# [47.9, 52.1] crosses the floor(t/2) jumps at 48, 50, 52 and the oracle's
# M = max(100, 2 ceil(t)) jumps at 50, 51, 52; [56, 57] crosses the square-root
# cutoff jump at 2 pi 3^2 = 56.55.
GRIDS = [
    grid_points(47.9, 52.1, 0.005),
    grid_points(56.0, 57.0, 0.01),
]


def scalar(spec, ts, **kwargs):
    evaluator = SchemeEvaluator(spec, **kwargs)
    points = [evaluator.evaluate(t) for t in ts]
    return [p.value for p in points], sum(p.hazard for p in points)


def assert_bit_identical(spec, ts, chunk=None, **kwargs):
    want, want_hazards = scalar(spec, ts, **kwargs)
    evaluator = SchemeEvaluator(spec, **kwargs)
    if chunk is None:
        got, hazards = evaluate_grid(evaluator, ts)
    else:
        got, hazards = evaluate_grid(evaluator, ts, chunk=chunk)
    assert got.dtype == np.float64 and got.shape == (len(ts),)
    mismatches = [(t, g, w) for t, g, w in zip(ts, got.tolist(), want) if g != w]
    assert not mismatches, f"{spec.label}: {len(mismatches)} values differ, first {mismatches[0]}"
    assert hazards == want_hazards


SECTION_ENGINES = {
    SchemeKind.AFE: lambda t, n: 2.0 * section(t, n),
    SchemeKind.SPIRA: section,
    SchemeKind.ACCELERATED_TRIANGLE: accelerated_triangle,
    SchemeKind.ACCELERATED_COEFF: accelerated_vertical,
}


def engine_point(evaluator, t):
    """(value, hazard) of the public scalar engine behind evaluator's scheme at t."""
    spec = evaluator.spec
    if spec.kind is SchemeKind.REFERENCE_RS:
        ref = z_riemann_siegel(t)
        return ref.z, ref.hazard
    if spec.kind is SchemeKind.ORACLE_EM:
        return z_euler_maclaurin(t, evaluator.oracle_terms, evaluator.correction_order).z, False
    if spec.kind is SchemeKind.CUSTOM:
        return z_custom(t, spec.alpha), False
    if spec.n is not None:
        n = spec.n
    elif spec.kind is SchemeKind.AFE:
        n = math.floor(math.sqrt(t / (2.0 * math.pi)))
    else:
        n = math.floor(t / 2.0)
    return SECTION_ENGINES[spec.kind](t, n), False


def assert_evaluate_equals_engine(spec, ts, **kwargs):
    evaluator = SchemeEvaluator(spec, **kwargs)
    got = [tuple(evaluator.evaluate(t)) for t in ts]
    want = [engine_point(evaluator, t) for t in ts]
    mismatches = [(t, g, w) for t, g, w in zip(ts, got, want) if g != w]
    assert not mismatches, f"{spec.label}: {len(mismatches)} points differ, first {mismatches[0]}"


@pytest.mark.parametrize("spec", PER_POINT_SPECS + FIXED_SPECS, ids=lambda s: s.label)
@pytest.mark.parametrize("grid", range(len(GRIDS)))
def test_grid_equals_scalar_bit_for_bit(spec, grid):
    assert_bit_identical(spec, GRIDS[grid])


@pytest.mark.parametrize("spec", PER_POINT_SPECS + FIXED_SPECS, ids=lambda s: s.label)
@pytest.mark.parametrize("grid", range(len(GRIDS)))
def test_evaluate_equals_public_engine_bit_for_bit(spec, grid):
    assert_evaluate_equals_engine(spec, GRIDS[grid])


@pytest.mark.parametrize("spec", PER_POINT_SPECS, ids=lambda s: s.label)
def test_small_chunks_split_runs(spec):
    # Chunks of 37 points cut most constant-cutoff runs in two.
    assert_bit_identical(spec, GRIDS[0], chunk=37)


def test_long_rows_span_several_row_blocks():
    # At t = 3000 the oracle's rows hold 6000 terms and Spira's 1500, so
    # both runs are reduced in several row blocks.
    ts = grid_points(2999.8, 3000.2, 0.002)
    for kind in (SchemeKind.ORACLE_EM, SchemeKind.SPIRA, SchemeKind.ACCELERATED_COEFF):
        assert_bit_identical(SchemeSpec(kind=kind), ts)


def test_oracle_knobs_and_irregular_points():
    ts = [100.0, 100.0, 35.5, 412.25, 99.999, 1000.0]
    spec = SchemeSpec(kind=SchemeKind.ORACLE_EM)
    assert_bit_identical(spec, ts)
    assert_bit_identical(spec, ts, oracle_terms=2500, correction_order=8)
    assert_evaluate_equals_engine(spec, ts, oracle_terms=2500, correction_order=8)


def test_rs_hazard_counts_match():
    # sqrt(t/2pi) = N + 1/4 and N + 3/4 put the remainder quotient inside its
    # guard window; neighbours just outside it are not flagged.
    hazard_ts = [2.0 * math.pi * (n + f) ** 2 for n in (6, 12) for f in (0.25, 0.75)]
    ts = sorted(hazard_ts + [t + d for t in hazard_ts for d in (-0.01, 1e-3)])
    spec = SchemeSpec(kind=SchemeKind.REFERENCE_RS)
    _, hazards = scalar(spec, ts)
    assert hazards == len(hazard_ts)
    assert_bit_identical(spec, ts)
    assert_evaluate_equals_engine(spec, ts)


@pytest.mark.parametrize("spec, ts", [
    (SchemeSpec(kind=SchemeKind.SPIRA), grid_points(1.0, 3.0, 0.25)),
    (SchemeSpec(kind=SchemeKind.ACCELERATED_COEFF), grid_points(0.5, 3.0, 0.25)),
    (SchemeSpec(kind=SchemeKind.AFE), grid_points(3.0, 8.0, 0.5)),
    (SchemeSpec(kind=SchemeKind.REFERENCE_RS), grid_points(5.0, 8.0, 0.5)),
    (SchemeSpec(kind=SchemeKind.ORACLE_EM), [-1.0, 0.5, 1.0]),
    (SchemeSpec(kind=SchemeKind.SPIRA, n=5), [-2.0, 10.0]),
    (SchemeSpec(kind=SchemeKind.CUSTOM, alpha=CUSTOM_ALPHA), [float("nan"), 10.0]),
], ids=lambda x: x.label if isinstance(x, SchemeSpec) else "")
def test_grid_below_domain_raises_scalar_error(spec, ts):
    evaluator = SchemeEvaluator(spec)
    with pytest.raises(DomainError) as scalar_error:
        for t in ts:
            evaluator.evaluate(t)
    with pytest.raises(DomainError) as grid_error:
        evaluate_grid(evaluator, ts)
    assert str(grid_error.value) == str(scalar_error.value)


def test_error_raised_at_first_failing_point():
    # A grid whose later points are out of range for a pinned oracle length
    # fails with the scalar error of its first bad point, after valid ones.
    spec = SchemeSpec(kind=SchemeKind.ORACLE_EM)
    evaluator = SchemeEvaluator(spec, oracle_terms=400)
    ts = [150.0, 190.0, 401.5, 450.0]
    with pytest.raises(DomainError) as scalar_error:
        for t in ts:
            evaluator.evaluate(t)
    with pytest.raises(DomainError) as grid_error:
        evaluate_grid(evaluator, ts)
    assert "401.5" in str(scalar_error.value)
    assert str(grid_error.value) == str(scalar_error.value)


def test_convergence_error_matches_scalar():
    evaluator = SchemeEvaluator(SchemeSpec(kind=SchemeKind.ORACLE_EM),
                                oracle_terms=60, correction_order=1)
    ts = [40.0, 45.0, 50.0]
    with pytest.raises(ConvergenceError) as scalar_error:
        for t in ts:
            evaluator.evaluate(t)
    with pytest.raises(ConvergenceError) as grid_error:
        evaluate_grid(evaluator, ts)
    assert str(grid_error.value) == str(scalar_error.value)


def test_earlier_convergence_error_wins_over_later_domain_error():
    # t = 61 needs more than 60 oracle terms, but the tail at t = 40 fails
    # to converge first, and grid order decides which error surfaces.
    evaluator = SchemeEvaluator(SchemeSpec(kind=SchemeKind.ORACLE_EM),
                                oracle_terms=60, correction_order=1)
    with pytest.raises(DomainError):
        evaluator.evaluate(61.0)
    with pytest.raises(ConvergenceError, match="at t = 40.0"):
        evaluate_grid(evaluator, [40.0, 45.0, 61.0])


def assert_keys_match_scalar(evaluator, ts):
    """The array rules of _keys give _key's key wherever it accepts t, and refuse t elsewhere."""
    keys, ok = evaluator._keys(np.array(ts, dtype=np.float64))
    for t, key, accepted in zip(ts, keys.tolist(), ok.tolist()):
        try:
            want = evaluator._key(t)
        except (DomainError, ResourceLimitError):
            assert not accepted, f"{evaluator.spec.label}: t = {t!r} accepted, _key refuses it"
            continue
        assert accepted, f"{evaluator.spec.label}: t = {t!r} refused, _key gives {want}"
        assert key == want, f"{evaluator.spec.label}: key {key} at t = {t!r}, _key gives {want}"


def around(points):
    """Each point with its floating-point neighbours on either side."""
    return sorted({x for p in points for x in (math.nextafter(p, -math.inf), p,
                                               math.nextafter(p, math.inf))})


HALF_T_JUMPS = around([2.0 * k for k in range(0, 40)])
SQRT_JUMPS = around([2.0 * math.pi * k * k for k in range(0, 40)])
M_JUMPS = around([float(k) for k in range(0, 120)] + [49.5, 50.5, 999.0, 1000.0, 5000.0])
EDGES = [-math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, math.nan, math.inf, 1e300]


@pytest.mark.parametrize("spec", PER_POINT_SPECS + FIXED_SPECS, ids=lambda s: s.label)
def test_array_keys_equal_scalar_keys_at_jumps(spec):
    # floor(t/2) jumps at t = 2k, floor(sqrt(t/2pi)) at t = 2 pi k^2, and the
    # oracle's M = max(100, 2 ceil(t)) at every integer, leaving 100 at t = 50.
    # Below 2 (spira) and 2 pi (afe, rs) the cutoff is 0 and t is refused.
    evaluator = SchemeEvaluator(spec)
    assert_keys_match_scalar(evaluator, HALF_T_JUMPS + SQRT_JUMPS + M_JUMPS + EDGES)


@pytest.mark.parametrize("terms, order", [(60, 6), (400, 6), (50, 1), (2500, 8),
                                          (49, 6), (MAX_SECTION_TERMS + 1, 6), (100, 11)])
def test_array_keys_with_pinned_oracle_knobs(terms, order):
    # A pinned M is refused above ceil(t) = M, and everywhere when M or the
    # correction order is out of range.
    evaluator = SchemeEvaluator(SchemeSpec(kind=SchemeKind.ORACLE_EM),
                                oracle_terms=terms, correction_order=order)
    ts = around([0.0, 49.0, 50.0, 59.5, 60.0, 399.0, 400.0, 2500.0]) + EDGES
    assert_keys_match_scalar(evaluator, ts)


def test_keys_beyond_the_section_limit_raise_the_engine_error():
    # Cutoffs past MAX_SECTION_TERMS are keys the engines refuse, not domain
    # errors; the grid raises the same error after the valid points.
    spec = SchemeSpec(kind=SchemeKind.SPIRA)
    ts = [100.0, 2.0 * MAX_SECTION_TERMS + 2.0, 1e300]
    assert_keys_match_scalar(SchemeEvaluator(spec), ts)
    with pytest.raises(ResourceLimitError) as scalar_error:
        for t in ts:
            SchemeEvaluator(spec).evaluate(t)
    with pytest.raises(ResourceLimitError) as grid_error:
        evaluate_grid(SchemeEvaluator(spec), ts)
    assert str(grid_error.value) == str(scalar_error.value)


def test_earlier_convergence_error_wins_over_later_resource_limit():
    # At t = 6e5 the default M = 1.2e6 exceeds MAX_SECTION_TERMS; grid order
    # still decides, so the unconverged tail at t = 40 surfaces first.
    evaluator = SchemeEvaluator(SchemeSpec(kind=SchemeKind.ORACLE_EM), correction_order=1)
    with pytest.raises(ResourceLimitError):
        evaluator.evaluate(6e5)
    with pytest.raises(ConvergenceError, match="at t = 40.0"):
        evaluate_grid(evaluator, [40.0, 45.0, 6e5])


def test_empty_grid():
    values, hazards = evaluate_grid(SchemeEvaluator(SchemeSpec(kind=SchemeKind.SPIRA)), [])
    assert values.shape == (0,) and hazards == 0
