"""Tests of the benchmark's own code: the tracer, the output checks, the inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracer, "perf_counter", lambda: clock[0])
    spans = tracer.Tracer()

    def inner():
        clock[0] += 2.0

    traced_inner = spans.wrap("inner", inner)

    def outer():
        clock[0] += 1.0
        traced_inner()
        traced_inner()
        clock[0] += 3.0

    spans.wrap("outer", outer)()
    assert spans.calls == {"outer": 1, "inner": 2}
    assert spans.self_s["inner"] == 4.0
    assert spans.self_s["outer"] == 4.0  # 8 s long, 4 s of it in children
    assert spans.stack() == []


def test_patching_reaches_consumer_modules():
    import zsections
    from zsections import schemes, sections_engine, special_functions

    original = special_functions.theta
    with tracer.Tracer() as spans:
        assert sections_engine.theta is not original
        zsections.spira(100.0)
    assert spans.calls["special_functions.theta"] == 1
    assert spans.calls["sections_engine.section"] == 1
    assert spans.counts["sections_engine.cosine_terms.terms"] == 50
    assert sections_engine.theta is original
    assert schemes.section is sections_engine.section


def test_grid_and_refine_evaluations_are_told_apart():
    from zsections import SchemeKind, SchemeSpec, zero_scanner

    with tracer.Tracer() as spans:
        spec = SchemeSpec(kind=SchemeKind.SPIRA, n=205)
        scan = zero_scanner.scan_zeros(spec, 412.0, 419.0, 0.1)
    layers = tracer.layer_metrics([spans.totals()], 1, [1.0])
    assert layers["zero_scanner.grid_evals"]["value"] == 71
    assert layers["zero_scanner.brackets"]["value"] == len(scan)
    refine = spans.calls["schemes.evaluate"] - 71
    assert layers["zero_scanner.refine_evals"]["value"] == refine > 0
    assert layers["zero_scanner.evals_per_zero"]["value"] == (71 + refine) / len(scan)


def _fake_output(directory: Path, zero_count: int) -> Path:
    csv = directory / "out.csv"
    csv.write_text("scheme,location\nORACLE_EM,414.5\n", encoding="utf-8")
    summary = {"reference": "ORACLE_EM", "schemes": {"ORACLE_EM": {"zero_count": zero_count}}}
    csv.with_suffix(".json").write_text(json.dumps({"summary": summary, "provenance": "x"}),
                                        encoding="utf-8")
    return csv


ZEROS_412 = ["zeros", "--range", "412:419:0.01", "--scheme", "em", "--threads", "1"]


def test_checker_accepts_recorded_output(tmp_path):
    output = checks.read_output(_fake_output(tmp_path, zero_count=4))
    checker = checks.Checker({workloads.command_key(ZEROS_412): output})
    assert checker.problems(ZEROS_412, 0, output) == []


def test_checker_rejects_tampered_csv(tmp_path):
    csv = _fake_output(tmp_path, zero_count=4)
    checker = checks.Checker({workloads.command_key(ZEROS_412): checks.read_output(csv)})
    csv.write_text("scheme,location\nORACLE_EM,414.6\n", encoding="utf-8")
    assert checker.problems(ZEROS_412, 0, checks.read_output(csv)) == [
        "CSV digest differs from the recorded one"]


def test_checker_rejects_wrong_zero_count(tmp_path):
    output = checks.read_output(_fake_output(tmp_path, zero_count=5))
    checker = checks.Checker({workloads.command_key(ZEROS_412): output})
    (problem,) = checker.problems(ZEROS_412, 0, output)
    assert "mpmath.nzeros gives 4" in problem


def test_checker_rejects_bad_exit_code():
    assert checks.Checker({}).problems(ZEROS_412, 3, None) == ["exit code 3"]


def test_every_command_has_a_recorded_output():
    expected = json.loads(checks.EXPECTED_PATH.read_text(encoding="utf-8"))
    keys = {workloads.command_key(argv) for argv in workloads.all_commands()}
    assert keys == set(expected)
    for entry in expected.values():
        assert len(entry["csv_sha256"]) == len(hashlib.sha256().hexdigest())


def test_metric_names_match_benchmark_json():
    import run

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    layers = tracer.layer_metrics([tracer.Tracer().totals()], 1, [1.0])
    assert [m["name"] for m in bench["per_layer"]] == list(layers)
    assert [m["unit"] for m in bench["per_layer"]] == [v["unit"] for v in layers.values()]
    result = {"norm_walls": [2.0], "zeros": [10], "norm_cpus": [1.0], "peak_rss_mb": 50.0}
    end_to_end = run.end_to_end(result, [0.5])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: v["unit"] for name, v in end_to_end.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    def first(seed):
        stream = workloads.passes(workload, seed)
        return [next(stream) for _ in range(5)]

    assert first(7) == first(7)
    commands = [argv for batch in first(7) for argv in batch]
    assert all(argv[-2:] == ["--threads", "1"] for argv in commands)
    if workload != "sweep":
        assert first(7) != first(8)


def test_normalization_takes_away_kernel_time_and_scales_by_its_mean():
    import run

    ref = calibrate.REFERENCE_S
    # A pass of 3.0 s holding two kernel runs of 2 * ref s each: the CPU ran
    # at half the reference speed, and 4 * ref s of the pass were kernel.
    kernels = [[[2 * ref, 2 * ref], [2 * ref, 2 * ref]]]
    assert run.normalized([3.0], kernels, 0) == pytest.approx([(3.0 - 4 * ref) / 2])
    with pytest.raises(RuntimeError):
        run.normalized([3.0], [[]], 0)


def test_sampler_times_kernel_runs_inside_measured_code():
    import time

    with calibrate.Sampler(period=0.05) as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert all(wall > 0 and cpu > 0 for _, wall, cpu in sampler.samples)
