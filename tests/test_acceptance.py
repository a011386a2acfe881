"""Acceptance gate: one test per numbered criterion, pinned tolerances.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Wall-clock budgets are asserted where a criterion carries one.

Criterion 6 (the desk-scale sweep of the real-zeros conjecture for
half-cutoff sections) asserts the clean outcome it targets; on this code
base the sweep reproducibly reports a handful of low-height displacement
events and cutoff-boundary duplicates, so the test prints the full event
table before failing.  That failure is a finding about the conjecture's
tolerance at low height, not a numerical defect; all other criteria are
independent of it.
"""

import json
import math
import time

import numpy as np

from zsections.acceleration_engine import (
    accelerated_coefficients,
    accelerated_triangle,
    accelerated_vertical,
    coefficient_direct_sum,
    coefficient_l2_distance,
)
from zsections.cli import error_decay_report, main
from zsections.reference_engine import z_euler_maclaurin, z_riemann_siegel
from zsections.schemes import SchemeEvaluator, SchemeKind, SchemeSpec
from zsections.zero_scanner import (
    compare_zero_sets,
    conjecture_sweep,
    grid_points,
    scan_zeros,
)


def test_criterion_01_summation_order_identity():
    """Row-first and column-first accelerated sums agree to 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    for _ in range(50):
        t = float(rng.uniform(10.0, 2000.0))
        order = int(rng.integers(1, 1001))
        tri = accelerated_triangle(t, order)
        vert = accelerated_vertical(t, order)
        assert abs(tri - vert) <= 1e-12 * (1.0 + abs(tri)), \
            f"identity broken at t={t}, N={order}: {tri} vs {vert}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_02_coefficient_closed_forms():
    """alpha_1 closed form, direct-sum identity, and the exact 11/16 cell."""
    for order in range(1, 1001):
        alpha_1 = accelerated_coefficients(order).alpha[0]
        assert abs(alpha_1 - (1.0 - math.ldexp(1.0, -(order + 1)))) <= 1e-15
    # direct summation of the closing-tail form, compensated, all N <= 60
    for order in range(1, 61):
        alpha = accelerated_coefficients(order).alpha
        for k in range(1, order + 1):
            direct = coefficient_direct_sum(order, k)
            assert abs(direct - alpha[k - 1]) <= 1e-12, (order, k)
    # log-space spot checks up to N = 1000
    for order, k in [(100, 7), (500, 250), (617, 300),
                     (1000, 3), (1000, 500), (1000, 997)]:
        direct = coefficient_direct_sum(order, k)
        assert abs(direct - accelerated_coefficients(order).alpha[k - 1]) <= 1e-12
    # N = 3, k = 2: exactly 11/16
    assert abs(accelerated_coefficients(3).alpha[1] - 11.0 / 16.0) <= 1e-15


def test_criterion_03_reference_cross_validation():
    """|RS1 - EM| <= 10 t^(-3/4) at 200 random heights; EM stays real."""
    start = time.perf_counter()
    rng = np.random.default_rng(55091)
    for _ in range(200):
        t = float(rng.uniform(50.0, 5000.0))
        rs = z_riemann_siegel(t)
        em = z_euler_maclaurin(t)
        assert abs(rs.z - em.z) <= 10.0 * t ** -0.75, \
            f"cross-validation failed at t={t}: |{rs.z} - {em.z}|"
        assert em.im_residual <= 1e-8, f"rotation left imaginary dust at t={t}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_04_zero_regression():
    """First zero at 14.1347251 within 1e-6; first ten bit-stable on reruns."""
    spec = SchemeSpec(kind=SchemeKind.ORACLE_EM)
    first = scan_zeros(spec, 0.01, 50.0, 0.01)
    second = scan_zeros(spec, 0.01, 50.0, 0.01)
    assert len(first) == 10
    assert abs(first.locations[0] - 14.1347251) <= 1e-6
    assert first.locations == second.locations, "rerun drifted bit-for-bit"


def test_criterion_05_half_cutoff_zero_capture():
    """On (412, 419): half-cutoff section clean at tol 0.05, plain AFE not."""
    start = time.perf_counter()
    comparison = compare_zero_sets(
        (412.0, 419.0),
        [SchemeSpec(kind=SchemeKind.ORACLE_EM),
         SchemeSpec(kind=SchemeKind.SPIRA, n=205),
         SchemeSpec(kind=SchemeKind.AFE)],
        0.05, step=0.01)
    spira = comparison.for_label("SPIRA@205")
    assert len(spira.missed) == 0, f"missed: {spira.missed}"
    assert len(spira.spurious) == 0, f"spurious: {spira.spurious}"
    afe = comparison.for_label("AFE")
    assert len(afe.missed) >= 2, f"AFE missed only {len(afe.missed)}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_06_conjecture_sweep_desk_scale():
    """[30, 1000] at step 0.005: half-cutoff zeros vs reference, 0/0 target."""
    start = time.perf_counter()
    sweep = conjecture_sweep(1000.0, 0.005, match_tol=0.05)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"
    assert sweep.hazard_count == 0

    if not sweep.clean:
        # reportable finding: print the full event table, then fail
        print(f"\nsweep findings: {sweep.missed_count} missed / "
              f"{sweep.spurious_count} spurious out of "
              f"{sweep.reference_count} reference zeros "
              f"(matched {sweep.matched_count}, "
              f"max matched discrepancy {sweep.max_matched_discrepancy:.4f})")
        low = [e for e in sweep.events if e["location"] < 100.0]
        near_boundary = [e for e in sweep.events
                        if e["kind"] == "spurious" and e["boundary_distance"] <= 0.1]
        print(f"events below t=100: {len(low)}; "
              f"spurious within 0.1 of an even-integer cutoff boundary: "
              f"{len(near_boundary)}")
        print(json.dumps(list(sweep.events), indent=2, sort_keys=True))
    assert sweep.missed_count == 0 and sweep.spurious_count == 0, (
        f"{sweep.missed_count} missed / {sweep.spurious_count} spurious "
        f"(see printed event table)")


def test_criterion_07_error_decay_fits():
    """Half-cutoff ln-ln slope in [-0.45, -0.05]; accelerated report emitted."""
    t_list = [100.0, 200.0, 400.0, 800.0, 1600.0]
    report = error_decay_report(
        t_list,
        [SchemeSpec(kind=SchemeKind.SPIRA),
         SchemeSpec(kind=SchemeKind.ACCELERATED_COEFF)])
    spira = report.summary["SPIRA"]
    assert spira["model"] == "algebraic"
    assert -0.45 <= spira["slope"] <= -0.05, f"slope {spira['slope']}"
    acc = report.summary["ACCELERATED_COEFF"]
    assert acc["model"] == "exponential"
    assert math.isfinite(acc["slope"]) and math.isfinite(acc["rms_residual"])
    assert all(e >= 0.0 for e in report.errors["ACCELERATED_COEFF"])


def test_criterion_08_accelerated_magnitude_agreement():
    """On (412, 419), N = 205: ln-magnitudes agree to 0.05 off the dips."""
    ref_eval = SchemeEvaluator(SchemeSpec(kind=SchemeKind.ORACLE_EM))
    acc_eval = SchemeEvaluator(SchemeSpec(kind=SchemeKind.ACCELERATED_COEFF, n=205))
    worst = 0.0
    discrepancies = []
    for t in grid_points(412.0, 419.0, 0.01):
        ref = ref_eval.value(t)
        if abs(ref) <= 0.1:
            continue
        gap = abs(math.log(abs(acc_eval.value(t))) - math.log(abs(ref)))
        worst = max(worst, gap)
        if gap > 0.05:
            discrepancies.append({"t": t, "ref": ref,
                                  "accelerated": acc_eval.value(t),
                                  "ln_gap": gap})
    if discrepancies:
        print("\nstructured discrepancy report:")
        print(json.dumps(discrepancies, indent=2, sort_keys=True))
    assert not discrepancies, f"{len(discrepancies)} points exceed 0.05 in ln-gap"
    assert worst <= 0.05


def test_criterion_09_coefficient_l2_sweep_and_pointwise_limit(tmp_path):
    """l2 distances emitted for five orders; early coefficients approach 1."""
    out = tmp_path / "l2.csv"
    rc = main(["coeffs", "--sweep", "50,100,200,400,800", "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,l2_distance"
    assert len(lines) == 6
    for line, order in zip(lines[1:], (50, 100, 200, 400, 800)):
        n_text, d_text = line.split(",")
        assert int(n_text) == order
        assert float(d_text) == coefficient_l2_distance(order) > 0.0
    alpha = accelerated_coefficients(200).alpha
    for k in (1, 2, 5, 10):
        assert abs(alpha[k - 1] - 1.0) <= 1e-10, f"alpha_{k}(200) = {alpha[k - 1]}"


def test_criterion_10_figure_reproduction(tmp_path):
    """All four figure commands emit well-formed CSV at their fixed parameters."""
    shapes = {}
    for fig in ("fig1", "fig2", "fig3", "fig4"):
        out = tmp_path / f"{fig}.csv"
        assert main(["figure", fig, "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        shapes[fig] = (lines[0], len(lines) - 1, lines[1], lines[-1])
    header, count, first, last = shapes["fig1"]
    assert header == "n,z_section,z_reference,z_reference_half"
    assert count == 1500
    assert first.startswith("1,") and last.startswith("1500,")
    header, count, first, last = shapes["fig2"]
    assert header == "t,ln_abs_reference,ln_abs_spira_205,ln_abs_afe_8"
    assert count == 701
    assert first.startswith("412,") and last.startswith("419,")
    header, count, first, last = shapes["fig3"]
    assert header == "t,ln_abs_reference,ln_abs_accelerated_205"
    assert count == 701
    header, count, first, last = shapes["fig4"]
    assert header == "k,alpha_accelerated,alpha_step,comment"
    assert count == 400
    assert first == "1,1,1,"
    assert last == "400,0,0,beyond-cutoff"
