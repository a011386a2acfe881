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

from zsections import schemes
from zsections.acceleration_engine import (
    accelerated_coefficients,
    accelerated_triangle,
    accelerated_vertical,
)
from zsections.errors import ConvergenceError, DomainError, ResourceLimitError
from zsections.reference_engine import (
    RS4_T_MIN,
    em_tail_rows,
    euler_maclaurin_error,
    euler_maclaurin_rows,
    riemann_siegel4_rows,
    z_euler_maclaurin,
    z_riemann_siegel,
)
from zsections.schemes import SchemeEvaluator, SchemeKind, SchemeSpec, evaluate_grid
from zsections.sections_engine import (
    MAX_SECTION_TERMS,
    CoefficientVector,
    cosine_rows,
    section,
    section_rows,
    z_custom,
)
from zsections.special_functions import TWO_PI, theta_grid
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


def scalar(spec, ts):
    evaluator = SchemeEvaluator(spec)
    points = [evaluator.evaluate(t) for t in ts]
    return [p.value for p in points], sum(p.hazard for p in points)


def assert_bit_identical(spec, ts):
    want, want_hazards = scalar(spec, ts)
    got, hazards, exact = evaluate_grid(SchemeEvaluator(spec), ts)
    assert got.dtype == np.float64 and got.shape == (len(ts),) and exact.all()
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
        return z_euler_maclaurin(t).z, False
    if spec.kind is SchemeKind.CUSTOM:
        return z_custom(t, spec.alpha), False
    if spec.n is not None:
        n = spec.n
    elif spec.kind is SchemeKind.AFE:
        n = math.floor(math.sqrt(t / (2.0 * math.pi)))
    else:
        n = math.floor(t / 2.0)
    return SECTION_ENGINES[spec.kind](t, n), False


def assert_evaluate_equals_engine(spec, ts):
    evaluator = SchemeEvaluator(spec)
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
def test_small_chunks_split_runs(spec, monkeypatch):
    # Chunks of 37 points cut most constant-cutoff runs in two.
    monkeypatch.setattr(schemes, "GRID_CHUNK", 37)
    assert_bit_identical(spec, GRIDS[0])


def test_long_rows_span_several_row_blocks():
    # At t = 3000 the oracle's rows hold 6000 terms and Spira's 1500, so
    # both runs are reduced in several row blocks.
    ts = grid_points(2999.8, 3000.2, 0.002)
    for kind in (SchemeKind.ORACLE_EM, SchemeKind.SPIRA, SchemeKind.ACCELERATED_COEFF):
        assert_bit_identical(SchemeSpec(kind=kind), ts)


def test_oracle_configuration_and_irregular_points():
    # The oracle runs at M = max(100, 2 ceil(t)), in any point order.
    ts = [100.0, 100.0, 35.5, 412.25, 99.999, 1000.0]
    spec = SchemeSpec(kind=SchemeKind.ORACLE_EM)
    assert_bit_identical(spec, ts)
    assert_evaluate_equals_engine(spec, ts)
    evaluator = SchemeEvaluator(spec)
    for t in ts:
        pinned = euler_maclaurin_rows(np.array([t]), theta_grid(np.array([t])),
                                      max(100, 2 * math.ceil(t)))
        assert evaluator.evaluate(t).value == pinned[0]


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


def test_error_raised_at_first_failing_point(monkeypatch):
    # At t = 6e5 the oracle's M = 1.2e6 exceeds MAX_SECTION_TERMS: the grid
    # is refused with the scalar error of 6e5, not with that of the nan
    # behind it, before any point is evaluated, t = 100 included.
    evaluated = []

    def spy(ts, thetas, m):
        evaluated.extend(ts.tolist())
        return euler_maclaurin_rows(ts, thetas, m)

    evaluator = SchemeEvaluator(SchemeSpec(kind=SchemeKind.ORACLE_EM))
    ts = [100.0, 6e5, math.nan]
    with pytest.raises(ResourceLimitError) as scalar_error:
        for t in ts:
            evaluator.evaluate(t)
    monkeypatch.setattr(schemes, "euler_maclaurin_rows", spy)
    with pytest.raises(ResourceLimitError) as grid_error:
        evaluate_grid(evaluator, ts)
    assert "600000" in str(scalar_error.value)
    assert str(grid_error.value) == str(scalar_error.value)
    assert evaluated == []


def test_convergence_error_matches_scalar():
    # At the short M = 45 the tail does not converge, and the rows raise the
    # one-point error of the first point that fails.
    ts = np.array([40.0, 45.0, 50.0])
    thetas = theta_grid(ts)
    with pytest.raises(ConvergenceError) as scalar_error:
        for i in range(len(ts)):
            euler_maclaurin_rows(ts[i:i + 1], thetas[i:i + 1], 45)
    with pytest.raises(ConvergenceError) as rows_error:
        euler_maclaurin_rows(ts, thetas, 45)
    assert "at t = 40.0" in str(scalar_error.value)
    assert str(rows_error.value) == str(scalar_error.value)


@pytest.fixture
def short_oracle(monkeypatch):
    """The evaluator's oracle run at M = 45, whose tail fails to converge at t = 40."""
    monkeypatch.setattr(schemes, "euler_maclaurin_rows",
                        lambda ts, thetas, m: euler_maclaurin_rows(ts, thetas, 45))
    return SchemeEvaluator(SchemeSpec(kind=SchemeKind.ORACLE_EM))


def test_domain_refusal_comes_before_an_earlier_convergence_error(short_oracle):
    # The tail at t = 40 fails to converge, but nan is outside the oracle's
    # domain, and the grid is refused before any point is evaluated.
    with pytest.raises(ConvergenceError, match="at t = 40.0"):
        evaluate_grid(short_oracle, [40.0, 45.0])
    with pytest.raises(DomainError) as scalar_error:
        short_oracle.evaluate(math.nan)
    with pytest.raises(DomainError) as grid_error:
        evaluate_grid(short_oracle, [40.0, 45.0, math.nan])
    assert str(grid_error.value) == str(scalar_error.value)


def reference_key(evaluator, t):
    """The run key at t, written with math apart from the package's rules; None if t is refused."""
    spec = evaluator.spec
    if not (math.isfinite(t) and t >= 0.0):
        return None
    if spec.kind is SchemeKind.ORACLE_EM:
        n = max(100, 2 * math.ceil(t))
    elif spec.alpha is not None:
        n = len(spec.alpha)
    elif spec.n is not None:
        n = spec.n
    elif spec.kind in (SchemeKind.AFE, SchemeKind.REFERENCE_RS):
        n = math.floor(math.sqrt(t / TWO_PI))
    else:
        n = math.floor(t / 2.0)
    # acc's coefficients are correctly rounded up to order 20,000; every other
    # kind counts what its engine sums at cutoff n against MAX_SECTION_TERMS,
    # the triangle of order n its (n+1)(n+2)/2 cells.
    if spec.kind is SchemeKind.ACCELERATED_COEFF:
        accepted = n <= 20000
    elif spec.kind is SchemeKind.ACCELERATED_TRIANGLE:
        accepted = (n + 1) * (n + 2) // 2 <= MAX_SECTION_TERMS
    else:
        accepted = n <= MAX_SECTION_TERMS
    return n if 1 <= n and accepted else None


def assert_keys_match_reference(evaluator, ts):
    """_keys gives reference_key's key where it accepts t, and refuses t elsewhere.

    The scalar _key, the one-point case, gives the same key or raises.
    """
    keys, ok = evaluator._keys(np.array(ts, dtype=np.float64))
    label = evaluator.spec.label
    for t, key, accepted in zip(ts, keys.tolist(), ok.tolist()):
        want = reference_key(evaluator, t)
        if want is None:
            assert not accepted, f"{label}: t = {t!r} accepted as {key}, the reference refuses it"
            with pytest.raises((DomainError, ResourceLimitError)):
                evaluator._key(t)
            continue
        assert accepted, f"{label}: t = {t!r} refused, the reference gives {want}"
        assert key == want, f"{label}: key {key} at t = {t!r}, the reference gives {want}"
        assert evaluator._key(t) == want


def around(points):
    """Each point with its floating-point neighbours on either side."""
    return sorted({x for p in points for x in (math.nextafter(p, -math.inf), p,
                                               math.nextafter(p, math.inf))})


HALF_T_JUMPS = around([2.0 * k for k in range(0, 40)])
SQRT_JUMPS = around([2.0 * math.pi * k * k for k in range(0, 40)])
M_JUMPS = around([float(k) for k in range(0, 120)]
                 + [49.5, 50.5, 999.0, 1000.0, 5000.0, MAX_SECTION_TERMS / 2.0])
EDGES = [-math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, math.nan, math.inf, 1e300]


@pytest.mark.parametrize("spec", PER_POINT_SPECS + FIXED_SPECS, ids=lambda s: s.label)
def test_array_keys_equal_scalar_keys_at_jumps(spec):
    # floor(t/2) jumps at t = 2k, floor(sqrt(t/2pi)) at t = 2 pi k^2, and the
    # oracle's M = max(100, 2 ceil(t)) at every integer, leaving 100 at t = 50
    # and passing MAX_SECTION_TERMS, where it is refused, just above 5e5.
    # Below 2 (spira) and 2 pi (afe, rs) the cutoff is 0 and t is refused.
    evaluator = SchemeEvaluator(spec)
    assert_keys_match_reference(evaluator, HALF_T_JUMPS + SQRT_JUMPS + M_JUMPS + EDGES)


def test_keys_beyond_the_section_limit_raise_the_engine_error(monkeypatch):
    # Cutoffs whose points would sum more than MAX_SECTION_TERMS terms are
    # refused by the keys, as the oracle's M is: the grid raises _key's
    # ResourceLimitError before any point, t = 100 included, is evaluated.
    t_limit = 2.0 * MAX_SECTION_TERMS  # floor(t/2) reaches the limit here
    for kind in (SchemeKind.SPIRA, SchemeKind.ACCELERATED_COEFF):
        assert_keys_match_reference(SchemeEvaluator(SchemeSpec(kind=kind)),
                                    around([t_limit - 2.0, t_limit, t_limit + 2.0]) + [1e300])
    evaluated = []

    def spy(ts, *args, **kwargs):
        evaluated.extend(ts.tolist())
        return section_rows(ts, *args, **kwargs)

    spec = SchemeSpec(kind=SchemeKind.SPIRA)
    ts = [100.0, t_limit + 2.0, 1e300]
    with pytest.raises(ResourceLimitError) as scalar_error:
        SchemeEvaluator(spec)._key(ts[1])
    monkeypatch.setattr(schemes, "section_rows", spy)
    with pytest.raises(ResourceLimitError) as grid_error:
        evaluate_grid(SchemeEvaluator(spec), ts)
    assert str(scalar_error.value) == (
        "cutoff 1000001 at t = 2000002.0 exceeds 1000000, the largest SPIRA cutoff "
        "within MAX_SECTION_TERMS = 1000000")
    assert str(grid_error.value) == str(scalar_error.value)
    assert evaluated == []


def test_triangle_keys_stop_at_its_largest_order():
    # floor(t/2) passes MAX_TRIANGLE_ORDER = 1412 at t = 2826, where the
    # triangle would sum 1,000,405 cells.
    evaluator = SchemeEvaluator(SchemeSpec(kind=SchemeKind.ACCELERATED_TRIANGLE))
    assert_keys_match_reference(evaluator, around([2824.0, 2826.0, 2828.0]))
    with pytest.raises(ResourceLimitError) as error:
        evaluator._key(2826.0)
    assert str(error.value) == (
        "cutoff 1413 at t = 2826.0 exceeds 1412, the largest ACCELERATED_TRIANGLE cutoff "
        "within MAX_SECTION_TERMS = 1000000")


def test_acc_keys_stop_at_its_largest_order():
    # floor(t/2) passes order 20,000, the last with correctly rounded
    # coefficients, at t = 40002.
    evaluator = SchemeEvaluator(SchemeSpec(kind=SchemeKind.ACCELERATED_COEFF))
    assert_keys_match_reference(evaluator, around([40000.0, 40002.0, 40004.0]))
    with pytest.raises(ResourceLimitError) as error:
        evaluator._key(40002.0)
    assert str(error.value) == (
        "cutoff 20001 at t = 40002.0 exceeds 20000, the last ACCELERATED_COEFF order "
        "with correctly rounded coefficients")


def test_resource_refusal_comes_before_an_earlier_convergence_error(short_oracle):
    # At t = 6e5 the oracle's M = 1.2e6 exceeds MAX_SECTION_TERMS; the grid
    # is refused before the unconverged tail at t = 40 is evaluated.
    with pytest.raises(ResourceLimitError) as scalar_error:
        short_oracle.evaluate(6e5)
    with pytest.raises(ResourceLimitError) as grid_error:
        evaluate_grid(short_oracle, [40.0, 45.0, 6e5])
    assert str(grid_error.value) == str(scalar_error.value)


def test_empty_grid():
    values, hazards, exact = evaluate_grid(SchemeEvaluator(SchemeSpec(kind=SchemeKind.SPIRA)), [])
    assert values.shape == exact.shape == (0,) and hazards == 0


def test_cutoff_named_values():
    def cutoff(t, **spec):
        return SchemeEvaluator(SchemeSpec(**spec))._key(t)

    assert cutoff(412.0, kind=SchemeKind.AFE) == 8
    assert cutoff(412.0, kind=SchemeKind.REFERENCE_RS) == 8
    assert cutoff(3000.0, kind=SchemeKind.SPIRA) == 1500
    assert cutoff(3000.0, kind=SchemeKind.ACCELERATED_COEFF) == 1500
    assert cutoff(2000.0, kind=SchemeKind.ACCELERATED_TRIANGLE) == 1000
    assert cutoff(991.7, kind=SchemeKind.SPIRA, n=205) == 205
    assert cutoff(991.7, kind=SchemeKind.CUSTOM, alpha=CUSTOM_ALPHA) == 17
    # The oracle has no cutoff; its key is the partial-sum length M.
    assert cutoff(991.7, kind=SchemeKind.ORACLE_EM) == 1984


def test_cutoff_monotone_and_ordered():
    """AFE cutoff <= Spira cutoff, both non-decreasing, Spira exact."""
    afe_cutoff = SchemeEvaluator(SchemeSpec(kind=SchemeKind.AFE))._key
    spira_cutoff = SchemeEvaluator(SchemeSpec(kind=SchemeKind.SPIRA))._key
    prev_a = prev_s = -1
    for t in np.linspace(10.0, 1.0e4, 2001).tolist():
        na, ns = afe_cutoff(t), spira_cutoff(t)
        assert na <= ns
        assert na >= prev_a and ns >= prev_s
        assert ns == math.floor(t / 2.0)
        prev_a, prev_s = na, ns


def test_cutoff_refusal_messages():
    spira = SchemeEvaluator(SchemeSpec(kind=SchemeKind.SPIRA))
    for t in (-1.0, math.nan, math.inf):
        outside = f"^cutoff resolution requires finite t >= 0, got {t}$"
        with pytest.raises(DomainError, match=outside):
            spira._key(t)
    low = "^cutoff resolves to 0 at t = 1.5; scheme undefined this low$"
    with pytest.raises(DomainError, match=low):
        spira._key(1.5)
    with pytest.raises(DomainError, match=low):
        evaluate_grid(spira, [100.0, 1.5])


def test_scheme_spec_refusals():
    refused = [
        dict(kind=SchemeKind.SPIRA, n=0),
        dict(kind=SchemeKind.AFE, n=-3),
        dict(kind=SchemeKind.ORACLE_EM, n=5),
        dict(kind=SchemeKind.REFERENCE_RS, n=5),
        dict(kind=SchemeKind.CUSTOM),
        dict(kind=SchemeKind.CUSTOM, alpha=()),
        dict(kind=SchemeKind.CUSTOM, alpha=CUSTOM_ALPHA, n=17),
        dict(kind=SchemeKind.SPIRA, alpha=CUSTOM_ALPHA),
        dict(kind=SchemeKind.ORACLE_EM, alpha=CUSTOM_ALPHA),
    ]
    for kwargs in refused:
        with pytest.raises(DomainError):
            SchemeSpec(**kwargs)
            pytest.fail(f"SchemeSpec accepted {kwargs}")
    with pytest.raises(ValueError):
        SchemeSpec(kind="nope")
    SchemeSpec(kind=SchemeKind.SPIRA, n=1)
    SchemeSpec(kind=SchemeKind.CUSTOM, alpha=CUSTOM_ALPHA)


def cheap_and_bound(spec, ts):
    """Each point's cheap value and the bound on its distance from the exact one, from the engines.

    The oracle: RS4, within RS4's bound plus euler_maclaurin_error.  Spira's
    section: RS4 minus the rotated tail, within RS4's bound plus
    em_tail_rows'.  AFE: the row's float sum, within 2 n u times the sum of
    its magnitudes (sections_engine.sum_rows).  The accelerated section: the
    float sum of the row's first head terms, within that bound on them plus
    the coefficients' tail, the most the rest of the row can add.
    """
    evaluator = SchemeEvaluator(spec)
    thetas, keys = theta_grid(ts), evaluator.grid_keys(ts)
    if spec.kind in (SchemeKind.ORACLE_EM, SchemeKind.SPIRA):
        z, err = riemann_siegel4_rows(ts, thetas)
        if spec.kind is SchemeKind.ORACLE_EM:
            return z, err + euler_maclaurin_error(ts, keys, np.abs(z) + err)
        tail, tail_err = em_tail_rows(ts, thetas, keys, np.abs(z) + err)
        return z - tail, err + tail_err
    cheap, bound = [], []
    for t, theta_t, n in zip(ts, thetas, keys.astype(int).tolist()):
        if spec.kind is SchemeKind.AFE:
            row, tail = 2.0 * cosine_rows(np.array([t]), np.array([theta_t]), n)[0], 0.0
        else:
            coeffs = accelerated_coefficients(n)
            row = (cosine_rows(np.array([t]), np.array([theta_t]), coeffs.head)[0]
                   * coeffs.weights[:coeffs.head])
            tail = coeffs.tail
        cheap.append(row.sum())
        bound.append(2.0 * len(row) * 2.0**-53 * np.abs(row).sum() + tail)
    return np.array(cheap), np.array(bound)


CHEAP_SPECS = [
    SchemeSpec(kind=SchemeKind.SPIRA),
    SchemeSpec(kind=SchemeKind.SPIRA, n=205),
    SchemeSpec(kind=SchemeKind.ACCELERATED_COEFF),
    SchemeSpec(kind=SchemeKind.AFE),
    SchemeSpec(kind=SchemeKind.ORACLE_EM),
]


class TestCertifiedValues:
    """Cheap values lie within their bounds; evaluate_grid keeps them only beyond exact_below."""

    @pytest.mark.parametrize("spec", CHEAP_SPECS, ids=lambda spec: spec.label)
    def test_cheap_values_lie_within_their_bounds(self, spec):
        rng = np.random.default_rng(205)
        a, b = (412.0, 419.0) if spec.n else (RS4_T_MIN, 3000.0)
        ts = np.sort(rng.uniform(a, b, 300))
        exact = evaluate_grid(SchemeEvaluator(spec), ts)[0]
        cheap, bound = cheap_and_bound(spec, ts)
        finite = np.isfinite(bound)
        assert finite.mean() > 0.95
        assert np.all(np.abs(exact - cheap)[finite] <= bound[finite])

    @pytest.mark.parametrize("spec", CHEAP_SPECS + [
        SchemeSpec(kind=SchemeKind.CUSTOM, alpha=CUSTOM_ALPHA),
        SchemeSpec(kind=SchemeKind.REFERENCE_RS),
        SchemeSpec(kind=SchemeKind.ACCELERATED_TRIANGLE, n=12),
    ], ids=lambda spec: spec.label)
    @pytest.mark.parametrize("exact_below", [0.0, 0.1])
    def test_values_beyond_the_threshold(self, spec, exact_below):
        ts = np.concatenate([grid_points(190.0, 215.0, 0.02), grid_points(2000.0, 2010.0, 0.05)])
        want = evaluate_grid(SchemeEvaluator(spec), ts)[0]
        got, _, exact = evaluate_grid(SchemeEvaluator(spec), ts, exact_below=exact_below)
        assert np.array_equal(got[exact], want[exact])
        cheap = ~exact
        assert np.array_equal(np.sign(got[cheap]), np.sign(want[cheap]))
        assert np.all(np.abs(want[cheap]) > exact_below)
        assert np.all(np.abs(got[cheap]) > exact_below)
        always_exact = spec.kind in (SchemeKind.REFERENCE_RS, SchemeKind.ACCELERATED_TRIANGLE)
        assert cheap[ts >= RS4_T_MIN].any() != always_exact

    @pytest.mark.parametrize("exact_below", [0.0, 0.1])
    def test_truncated_accelerated_sums_at_the_largest_benchmark_orders(self, exact_below):
        # Orders 2490..2500, where the float sums read 58% of each row.
        spec = SchemeSpec(kind=SchemeKind.ACCELERATED_COEFF)
        ts = grid_points(4980.0, 5000.0, 0.1)
        want = evaluate_grid(SchemeEvaluator(spec), ts)[0]
        got, _, exact = evaluate_grid(SchemeEvaluator(spec), ts, exact_below=exact_below)
        cheap, bound = cheap_and_bound(spec, ts)
        assert np.all(np.abs(want - cheap) <= bound)
        assert np.array_equal(got[exact], want[exact])
        assert np.array_equal(got[~exact], cheap[~exact])
        assert (~exact).mean() > 0.5
