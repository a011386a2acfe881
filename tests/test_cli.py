"""End-to-end tests of the command-line harness.

Each test drives main() with argv lists and inspects the emitted CSV/JSON
artifacts, so the whole plumbing (parsing, validation, evaluation, output
formatting, exit codes) is exercised the way a shell user sees it.
"""

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zsections import acceleration_engine, schemes
from zsections.acceleration_engine import (
    MAX_COEFF_ORDER,
    accelerated_coefficients,
    accelerated_vertical,
    coefficient_l2_distance,
)
from zsections.cli import (
    MAX_THREADS,
    RunConfig,
    build_parser,
    config_from_args,
    error_decay_report,
    main,
    parse_scheme_args,
    provenance,
)
from zsections.errors import ConfigError, DomainError, ResourceLimitError
from zsections.reference_engine import euler_maclaurin_rows
from zsections.schemes import SchemeKind, SchemeSpec
from zsections.sections_engine import MAX_SECTION_TERMS, section
from zsections.special_functions import theta


def run_cli(tmp_path, name, argv):
    """Run main() writing to tmp_path/name; return (rc, rows, summary_doc)."""
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    rows = None
    doc = None
    if out.exists():
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        sidecar = out.with_suffix(".json")
        if sidecar.exists():
            doc = json.loads(sidecar.read_text(encoding="utf-8"))
    return rc, rows, doc


# ---------------------------------------------------------------------------
# eval


def test_eval_single_point_spira(tmp_path):
    rc, rows, doc = run_cli(tmp_path, "e.csv",
                            ["eval", "--t", "100", "--scheme", "spira"])
    assert rc == 0
    assert len(rows) == 1
    row = rows[0]
    assert row["scheme"] == "SPIRA"
    assert float(row["t"]) == 100.0
    # crude magnitude check against the oracle column
    assert float(row["abs_err"]) <= 5.0 * 100.0 ** -0.25
    assert float(row["abs_err"]) == abs(float(row["value"]) - float(row["reference"]))
    assert doc["command"] == "eval"


def test_eval_grid_row_order(tmp_path):
    rc, rows, doc = run_cli(
        tmp_path, "grid.csv",
        ["eval", "--range", "412:419:0.01", "--scheme", "afe,spira,acc"])
    assert rc == 0
    assert len(rows) == 701 * 3
    # t-major, scheme-minor in input order
    assert [r["scheme"] for r in rows[:4]] == ["AFE", "SPIRA", "ACCELERATED_COEFF", "AFE"]
    assert float(rows[0]["t"]) == 412.0
    assert float(rows[3]["t"]) == 412.01
    assert doc["summary"]["points"] == 701


def test_eval_summary_recomputable_from_csv(tmp_path):
    rc, rows, doc = run_cli(
        tmp_path, "rt.csv",
        ["eval", "--range", "100:102:0.25", "--scheme", "spira,afe"])
    assert rc == 0
    for label in ("SPIRA", "AFE"):
        errs = sorted(float(r["abs_err"]) for r in rows if r["scheme"] == label)
        stats = doc["summary"]["schemes"][label]
        assert max(errs) == stats["max_abs_err"]
        mid = len(errs) // 2
        median = errs[mid] if len(errs) % 2 else 0.5 * (errs[mid - 1] + errs[mid])
        assert median == stats["median_abs_err"]


def test_eval_csv_identical_across_thread_counts(tmp_path):
    argv = ["eval", "--range", "100:103:0.25", "--scheme", "spira,acc"]
    rc1 = main(argv + ["--threads", "1", "--out", str(tmp_path / "t1.csv")])
    rc4 = main(argv + ["--threads", "4", "--out", str(tmp_path / "t4.csv")])
    assert rc1 == rc4 == 0
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t4.csv").read_bytes()


def test_eval_custom_coefficient_file(tmp_path):
    path = tmp_path / "alpha.txt"
    path.write_text("# all-ones vector of length 3\n1.0\n1.0, 1.0\n", encoding="utf-8")
    rc, rows, _ = run_cli(tmp_path, "c.csv",
                          ["eval", "--t", "100", "--scheme", f"custom:{path}"])
    assert rc == 0
    assert rows[0]["scheme"] == "CUSTOM@3:cc143326"
    assert float(rows[0]["value"]) == section(100.0, 3)


def test_undecodable_custom_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"1.0\n\xff\n")
    assert main(["eval", "--t", "100", "--scheme", f"custom:{path}"]) == 2
    assert capsys.readouterr().err.startswith(
        f"zsections: error: cannot read coefficient file {str(path)!r}: 'utf-8' codec")


def test_custom_vectors_of_one_length_have_their_own_labels(tmp_path, capsys):
    # The label carries the first 8 hex digits of the SHA-256 of the float64
    # values, so two vectors of one length run together; one file listed
    # twice is still one label listed twice.
    ones, halves = tmp_path / "ones.txt", tmp_path / "halves.txt"
    ones.write_text("1\n1\n1\n", encoding="utf-8")
    halves.write_text("1, 0.5, 0.25\n", encoding="utf-8")
    rc, rows, _ = run_cli(tmp_path, "two.csv",
                          ["eval", "--t", "100", "--scheme", f"custom:{ones},custom:{halves}"])
    assert rc == 0
    assert [r["scheme"] for r in rows] == ["CUSTOM@3:cc143326", "CUSTOM@3:e8a16ff6"]
    assert float(rows[0]["value"]) == section(100.0, 3)
    assert float(rows[0]["value"]) != float(rows[1]["value"])
    capsys.readouterr()
    assert main(["eval", "--t", "100", "--scheme", f"custom:{ones},custom:{ones}"]) == 2
    assert capsys.readouterr().err == (
        "zsections: error: --scheme lists CUSTOM@3:cc143326 twice\n")


def test_documented_scheme_names_parse_and_removed_aliases_exit_2(tmp_path):
    # oracle names the label of em, so it runs alone (a repeated label is refused).
    names = ["rs", "em", "afe", "spira", "acc", "acc-triangle"]
    rc, rows, _ = run_cli(tmp_path, "names.csv",
                          ["eval", "--t", "100", "--scheme", ",".join(names)])
    assert rc == 0
    assert [r["scheme"] for r in rows] == [
        "REFERENCE_RS", "ORACLE_EM", "AFE", "SPIRA",
        "ACCELERATED_COEFF", "ACCELERATED_TRIANGLE"]
    rc, rows, _ = run_cli(tmp_path, "oracle.csv", ["eval", "--t", "100", "--scheme", "oracle"])
    assert rc == 0 and [r["scheme"] for r in rows] == ["ORACLE_EM"]
    for alias in ("accelerated_coeff", "oracle-em", "acc_triangle"):
        assert main(["eval", "--t", "100", "--scheme", alias]) == 2


def test_eval_config_errors_exit_2(tmp_path):
    assert main(["eval", "--t", "100"]) == 2  # no scheme
    assert main(["eval", "--scheme", "spira"]) == 2  # neither --t nor --range
    assert main(["eval", "--t", "1", "--range", "1:2:0.1", "--scheme", "spira"]) == 2
    assert main(["eval", "--t", "100", "--scheme", "no-such-scheme"]) == 2
    assert main(["eval", "--range", "5:4:0.1", "--scheme", "spira"]) == 2
    assert main(["eval", "--range", "1:2", "--scheme", "spira"]) == 2
    assert main(["eval", "--t", "100", "--scheme", "spira", "--threads", "0"]) == 2
    assert main(["eval", "--t", "100", "--scheme",
                 f"custom:{tmp_path / 'missing.txt'}"]) == 2


def test_oversized_grid_and_thread_count_exit_2():
    # Both are refused by validation: the 10^12-point grid list is never
    # built and no thread is started.
    assert main(["eval", "--range", "0:1e6:1e-6", "--scheme", "spira"]) == 2
    assert main(["zeros", "--range", "1:1e6:1e-6", "--scheme", "em,spira"]) == 2
    assert main(["conjecture", "--t-max", "1000", "--step", "1e-300"]) == 2
    assert main(["eval", "--t", "100", "--scheme", "spira",
                 "--threads", str(MAX_THREADS + 1)]) == 2
    assert main(["eval", "--t", "100", "--scheme", "spira", "--threads", "1000000"]) == 2


def test_oracle_length_bounded_by_max_section_terms():
    # Refused by the oracle's own check before the referee builds its
    # tables: M = 2 ceil(t) is 2e9 at t = 1e9, and just past
    # MAX_SECTION_TERMS above t = MAX_SECTION_TERMS / 2.
    assert main(["eval", "--t", "1e9", "--scheme", "afe"]) == 2
    assert main(["eval", "--t", repr(MAX_SECTION_TERMS / 2.0 + 0.5), "--scheme", "afe"]) == 2


def parse_config(argv):
    return config_from_args(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv, n, limit", [
    (["eval", "--range", "1000:1100:0.01", "--scheme", "spira"], 2 * MAX_SECTION_TERMS,
     MAX_SECTION_TERMS),
    (["eval", "--t", "100", "--scheme", "afe"], MAX_SECTION_TERMS + 1, MAX_SECTION_TERMS),
    (["eval", "--t", "100", "--scheme", "acc"], MAX_COEFF_ORDER + 1, MAX_COEFF_ORDER),
    (["zeros", "--range", "412:419:0.01", "--scheme", "em,acc-triangle"], 1413, 1412),
], ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
def test_oversized_pinned_cutoff_refused_while_parsing(argv, n, limit):
    # Refused when the scheme is built, before the referee's grid runs, with
    # the n the user typed: acc stops at order 20,000, acc-triangle at
    # (n+1)(n+2)/2 cells.
    with pytest.raises(ResourceLimitError, match=f"^fixed cutoff n = {n} exceeds {limit},"):
        parse_config(argv + ["--n", str(n)])
    parse_config(argv + ["--n", str(limit)])


def test_oversized_custom_file_refused_while_parsing(tmp_path):
    # A custom vector's length is its cutoff, under the same limit as a pinned n.
    path = tmp_path / "ones.txt"
    argv = ["eval", "--range", "1000:1100:0.01", "--scheme", f"custom:{path}"]
    # Reading stops one value past the limit: the bad token after it is never parsed.
    path.write_text("1\n" * (MAX_SECTION_TERMS + 1) + "x\n", encoding="utf-8")
    with pytest.raises(ResourceLimitError, match=f"^fixed cutoff n = {MAX_SECTION_TERMS + 1} "
                                                 f"exceeds {MAX_SECTION_TERMS}, the largest CUSTOM"):
        parse_config(argv)
    path.write_text("1\n" * MAX_SECTION_TERMS, encoding="utf-8")
    parse_config(argv)


def test_grid_past_the_oracle_limit_refused_before_any_evaluation(monkeypatch):
    # M = max(100, 2 ceil(t)) passes MAX_SECTION_TERMS above t = 5e5: the
    # referee's grid is refused before any of its points is evaluated.
    evaluated = []

    def spy(ts, thetas, m):
        evaluated.extend(ts.tolist())
        return euler_maclaurin_rows(ts, thetas, m)

    monkeypatch.setattr(schemes, "euler_maclaurin_rows", spy)
    assert main(["eval", "--range", "499980:500010:1", "--scheme", "spira"]) == 2
    assert evaluated == []


def test_every_scheme_is_keyed_before_the_referee_runs(monkeypatch, capsys):
    # AFE's cutoff resolves to 0 below 2 pi, so the run is refused before
    # the EM referee, which accepts every height here, evaluates its grid.
    evaluated = []

    def spy(ts, thetas, m):
        evaluated.extend(ts.tolist())
        return euler_maclaurin_rows(ts, thetas, m)

    monkeypatch.setattr(schemes, "euler_maclaurin_rows", spy)
    assert main(["eval", "--range", "1:300:0.01", "--scheme", "afe"]) == 2
    assert evaluated == []
    assert capsys.readouterr().err == (
        "zsections: error: cutoff resolves to 0 at t = 1.0; scheme undefined this low\n")


def spy_on_engines(monkeypatch, names=("riemann_siegel_rows", "section_rows",
                                        "euler_maclaurin_rows")):
    """Wrap the named engines of schemes; returns the list of (name, points) calls."""
    calls = []

    def spy(name, rows):
        def wrapped(ts, *args, **kwargs):
            calls.append((name, len(ts)))
            return rows(ts, *args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(schemes, name, spy(name, getattr(schemes, name)))
    return calls


@pytest.mark.parametrize("argv", [
    ["eval", "--range", "1999980:2000004:1", "--scheme", "spira", "--ref", "rs"],
    ["zeros", "--range", "1999980:2000004:1", "--scheme", "rs,spira"],
], ids=lambda argv: argv[0])
def test_cutoff_past_the_term_limit_refused_before_any_evaluation(monkeypatch, capsys, argv):
    # floor(t/2) passes MAX_SECTION_TERMS at t = 2000002: the keys refuse the
    # Spira grid before the RS referee, or RS's whole scan, evaluates a point.
    calls = spy_on_engines(monkeypatch)
    assert main(argv) == 2
    assert calls == []
    assert capsys.readouterr().err == (
        "zsections: error: cutoff 1000001 at t = 2000002.0 exceeds 1000000, the largest "
        "SPIRA cutoff within MAX_SECTION_TERMS = 1000000\n")


def test_triangle_past_its_largest_order_refused_before_any_evaluation(
        monkeypatch, capsys, tmp_path):
    # Order 1413 would sum 1,000,405 cells: t = 2826 is refused by the keys
    # before the referee or the triangle evaluates; t = 2825.5 (order 1412) runs.
    calls = spy_on_engines(monkeypatch, ("euler_maclaurin_rows", "accelerated_triangle_rows"))
    assert main(["eval", "--t", "2826", "--scheme", "acc-triangle"]) == 2
    assert calls == []
    assert capsys.readouterr().err == (
        "zsections: error: cutoff 1413 at t = 2826.0 exceeds 1412, the largest "
        "ACCELERATED_TRIANGLE cutoff within MAX_SECTION_TERMS = 1000000\n")
    rc, rows, _ = run_cli(tmp_path, "tri.csv", ["eval", "--t", "2825.5", "--scheme",
                                                "acc-triangle"])
    assert rc == 0 and ("accelerated_triangle_rows", 1) in calls
    want = accelerated_vertical(2825.5, 1412)
    assert abs(float(rows[0]["value"]) - want) <= 1e-12 * (1.0 + abs(want))


def test_acc_past_its_largest_order_refused_before_any_evaluation(
        monkeypatch, capsys, tmp_path):
    # floor(t/2) passes order 20,000, the last with correctly rounded
    # coefficients, at t = 40002: the keys refuse it before the referee or the
    # accelerated section evaluates; t = 40001.5 (order 20,000) runs.
    calls = spy_on_engines(monkeypatch, ("euler_maclaurin_rows", "section_rows",
                                         "accelerated_vertical_rows"))
    assert main(["eval", "--t", "40002", "--scheme", "acc"]) == 2
    assert calls == []
    assert capsys.readouterr().err == (
        "zsections: error: cutoff 20001 at t = 40002.0 exceeds 20000, the last "
        "ACCELERATED_COEFF order with correctly rounded coefficients\n")
    rc, rows, _ = run_cli(tmp_path, "acc.csv", ["eval", "--t", "40001.5", "--scheme", "acc"])
    assert rc == 0 and ("accelerated_vertical_rows", 1) in calls
    assert float(rows[0]["value"]) == accelerated_vertical(40001.5, MAX_COEFF_ORDER)


def test_a_listed_referee_is_evaluated_once(monkeypatch, tmp_path):
    # The oracle runs on the 101 points of the grid once, as referee and as
    # the listed em, and every row's error is 0.
    calls = spy_on_engines(monkeypatch, ("euler_maclaurin_rows",))
    rc, rows, _ = run_cli(tmp_path, "em.csv",
                          ["eval", "--range", "412:413:0.01", "--scheme", "em"])
    assert rc == 0 and len(rows) == 101
    assert sum(points for _, points in calls) == 101
    assert all(float(r["abs_err"]) == 0.0 for r in rows)
    # A flagged RS point is counted once when rs is also the referee.
    t = 2.0 * math.pi * 3.25 ** 2
    rc, _, doc = run_cli(tmp_path, "rs.csv", ["eval", "--t", repr(t), "--scheme", "rs",
                                              "--ref", "rs"])
    assert rc == 3 and doc["summary"]["hazard_count"] == 1


@pytest.mark.parametrize("names", ["em,spira,afe", "spira,afe"], ids=["compare", "scan-only"])
def test_zeros_keys_every_scheme_before_the_first_scan(monkeypatch, capsys, names):
    # AFE's cutoff resolves to 0 at t = 2, below 2 pi: the EM and Spira scans
    # that come first in the list are refused before they evaluate a point,
    # with the message of --scheme afe alone.
    argv = ["zeros", "--range", "2:600:0.01", "--scheme"]
    assert main(argv + ["afe"]) == 2
    alone = capsys.readouterr().err
    assert alone == (
        "zsections: error: cutoff resolves to 0 at t = 2.0; scheme undefined this low\n")
    evaluated = []

    def spy(name, rows):
        def wrapped(*args, **kwargs):
            evaluated.append(name)
            return rows(*args, **kwargs)
        return wrapped

    for name in ("euler_maclaurin_rows", "section_rows"):
        monkeypatch.setattr(schemes, name, spy(name, getattr(schemes, name)))
    assert main(argv + [names]) == 2
    assert evaluated == []
    assert capsys.readouterr().err == alone
    # The spies do see the engines of an accepted scan.
    assert main(["zeros", "--range", "14:14.3:0.01", "--scheme", "em,spira"]) == 0
    assert set(evaluated) == {"euler_maclaurin_rows", "section_rows"}


@pytest.mark.parametrize("argv, label", [
    (["zeros", "--range", "412:419:0.01", "--scheme", "em,spira,spira", "--n", "205"],
     "SPIRA@205"),
    (["zeros", "--range", "412:419:0.01", "--scheme", "em,oracle"], "ORACLE_EM"),
    (["zeros", "--range", "412:419:0.01", "--scheme", "spira", "--scheme", "spira"], "SPIRA"),
    (["eval", "--t", "100", "--scheme", "afe,spira,afe"], "AFE"),
    (["error-decay", "--t-list", "100,200,400", "--scheme", "acc,spira,acc"],
     "ACCELERATED_COEFF"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_repeated_scheme_label_exits_2(capsys, argv, label):
    # Rows, summaries and stats are keyed by label, so a second entry of
    # one label would write duplicate rows under a single summary entry.
    assert main(argv) == 2
    assert capsys.readouterr().err == f"zsections: error: --scheme lists {label} twice\n"


def test_referee_is_not_in_the_scheme_list(tmp_path):
    rc, rows, doc = run_cli(tmp_path, "em.csv", ["eval", "--t", "100", "--scheme", "em"])
    assert rc == 0 and [r["scheme"] for r in rows] == ["ORACLE_EM"]
    assert float(rows[0]["abs_err"]) == 0.0


def test_out_directory_must_exist(tmp_path):
    # Refused by validation, before any evaluation; a file is no directory.
    (tmp_path / "file").write_text("", encoding="utf-8")
    argv = ["eval", "--t", "100", "--scheme", "spira", "--out"]
    for out in (tmp_path / "missing" / "x.csv", tmp_path / "file" / "x.csv"):
        with pytest.raises(ConfigError, match="^--out .*: its directory does not exist$"):
            parse_config(argv + [str(out)])
        assert main(argv + [str(out)]) == 2
    assert not (tmp_path / "missing").exists()
    parse_config(argv + [str(tmp_path / "x.csv")])


def test_out_naming_a_directory_refused_before_any_evaluation(monkeypatch, capsys, tmp_path):
    calls = spy_on_engines(monkeypatch)
    assert main(["eval", "--t", "100", "--scheme", "spira", "--out", str(tmp_path)]) == 2
    assert calls == []
    assert capsys.readouterr().err == (
        f"zsections: error: --out {str(tmp_path)!r} names a directory, not a file\n")


def test_unwritable_output_exits_2(capsys, tmp_path):
    # The JSON sidecar's path is a directory: writing it fails after the CSV.
    (tmp_path / "x.json").mkdir()
    out = str(tmp_path / "x.csv")
    assert main(["eval", "--t", "100", "--scheme", "spira", "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"zsections: error: cannot write --out {out!r}: ")


@pytest.mark.parametrize("argv", [
    ["eval", "--t", "100", "--scheme", "spira"],
    ["zeros", "--range", "412:419:0.01", "--scheme", "em,spira"],
    ["conjecture", "--t-max", "100"],
    ["error-decay", "--t-list", "100,200,400", "--scheme", "spira"],
    *(["figure", f"fig{i}"] for i in range(1, 5)),
], ids=lambda argv: argv[1] if argv[0] == "figure" else argv[0])
def test_oracle_terms_flag_is_refused(argv):
    # The oracle has one configuration; no subcommand takes --oracle-terms
    # (coeffs: test_coeffs_refuses_flags_it_never_reads).
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--oracle-terms", "60"])
    assert exc.value.code == 2


def test_thread_bound_is_inclusive():
    spec = SchemeSpec(kind=SchemeKind.SPIRA)
    RunConfig(command="eval", t=100.0, schemes=(spec,), threads=MAX_THREADS).validate()


def test_hazard_exit_3(tmp_path):
    # sqrt(t/2pi) = 3.25 exactly, so the remainder's cosine denominator sits
    # in the flagged window; output is still written.
    t = 2.0 * math.pi * 3.25 ** 2
    out = tmp_path / "h.csv"
    rc = main(["eval", "--t", repr(t), "--scheme", "rs", "--out", str(out)])
    assert rc == 3
    assert out.exists()


# ---------------------------------------------------------------------------
# figure


def test_fig1_shape_and_anchor_row(tmp_path):
    rc, rows, doc = run_cli(tmp_path, "fig1.csv", ["figure", "fig1"])
    assert rc == 0
    assert len(rows) == 1500
    first = rows[0]
    assert int(first["n"]) == 1
    assert float(first["z_section"]) == math.cos(theta(3000.0))
    assert float(first["z_reference_half"]) == 0.5 * float(first["z_reference"])
    assert doc["summary"]["t"] == 3000.0
    # every row is the section itself, bit for bit
    for row in rows:
        assert float(row["z_section"]) == section(3000.0, int(row["n"]))


def test_fig2_fig3_shapes(tmp_path):
    rc2, rows2, _ = run_cli(tmp_path, "fig2.csv", ["figure", "fig2"])
    rc3, rows3, _ = run_cli(tmp_path, "fig3.csv", ["figure", "fig3"])
    assert rc2 == rc3 == 0
    assert len(rows2) == len(rows3) == 701
    assert set(rows2[0]) == {"t", "ln_abs_reference", "ln_abs_spira_205", "ln_abs_afe_8"}
    assert set(rows3[0]) == {"t", "ln_abs_reference", "ln_abs_accelerated_205"}
    # the two files share the same reference column
    assert [r["ln_abs_reference"] for r in rows2] == \
           [r["ln_abs_reference"] for r in rows3]


def test_fig4_coefficient_table(tmp_path):
    rc, rows, _ = run_cli(tmp_path, "fig4.csv", ["figure", "fig4"])
    assert rc == 0
    assert len(rows) == 400
    k1 = rows[0]
    assert abs(float(k1["alpha_accelerated"]) - 1.0) <= 1e-15
    assert float(k1["alpha_step"]) == 1.0
    assert k1["comment"] == ""
    for row in rows[200:]:
        assert float(row["alpha_accelerated"]) == 0.0
        assert float(row["alpha_step"]) == 0.0
        assert row["comment"] == "beyond-cutoff"
    alpha = accelerated_coefficients(200)
    assert float(rows[149]["alpha_accelerated"]) == float(alpha.alpha[149])


def test_figure_rejects_unknown_id():
    with pytest.raises(SystemExit) as exc:
        main(["figure", "fig9"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# zeros


def test_zeros_comparison_mode(tmp_path):
    rc, rows, doc = run_cli(
        tmp_path, "z.csv",
        ["zeros", "--range", "412:419:0.01", "--scheme", "em,spira", "--n", "205"])
    assert rc == 0
    stats = doc["summary"]["schemes"]["SPIRA@205"]
    assert stats["matched"] == 4
    assert stats["missed"] == 0
    assert stats["spurious"] == 0
    assert stats["max_matched_discrepancy"] <= 0.05
    assert doc["summary"]["reference"] == "ORACLE_EM"
    ref_rows = [r for r in rows if r["scheme"] == "ORACLE_EM"]
    spira_rows = [r for r in rows if r["scheme"] == "SPIRA@205"]
    assert len(ref_rows) == len(spira_rows) == 4
    for r in rows:
        lo, hi = float(r["bracket_lo"]), float(r["bracket_hi"])
        assert lo < float(r["location"]) < hi
        assert hi - lo <= 1e-9 * 1.01


def test_zeros_single_scheme_mode(tmp_path):
    rc, rows, doc = run_cli(tmp_path, "s.csv",
                            ["zeros", "--range", "14:14.3:0.01", "--scheme", "em"])
    assert rc == 0
    assert len(rows) == 1
    assert abs(float(rows[0]["location"]) - 14.134725141734694) <= 1e-6
    assert doc["summary"]["schemes"]["ORACLE_EM"]["zero_count"] == 1


def test_zeros_requires_range_and_scheme():
    with pytest.raises(SystemExit):  # argparse: --range is required
        main(["zeros", "--scheme", "em"])
    assert main(["zeros", "--range", "14:15:0.01"]) == 2


@pytest.mark.parametrize("config, message", [
    (RunConfig(command="nope"), "unknown command 'nope'"),
    (RunConfig(command="figure", figure="fig9"), "figure id must be one of"),
    (RunConfig(command="zeros", schemes=(SchemeSpec(kind=SchemeKind.ORACLE_EM),)),
     "zeros needs --range a:b:step"),
], ids=["command", "figure", "zeros"])
def test_run_config_refuses_what_argparse_stops(config, message):
    # argparse stops these on the command line; RunConfig refuses them itself.
    with pytest.raises(ConfigError, match=f"^{message}"):
        config.validate()


# ---------------------------------------------------------------------------
# conjecture


def test_conjecture_short_window(tmp_path):
    rc, rows, doc = run_cli(tmp_path, "conj.csv",
                            ["conjecture", "--t-max", "31", "--step", "0.01"])
    assert rc == 0
    s = doc["summary"]
    # the first zero above 30 sits at 30.425; the half-cutoff scheme puts its
    # partner 0.054 away, just outside the matching tolerance, so this tiny
    # window reports one missed and one spurious zero
    assert s["reference_count"] == 1
    assert s["missed"] == 1
    assert s["spurious"] == 1
    assert s["clean"] is False
    assert len(rows) == 2
    kinds = sorted(r["kind"] for r in rows)
    assert kinds == ["missed", "spurious"]
    for r in rows:
        assert float(r["nearest_distance"]) < 0.1
        assert r["nearest_cutoff_boundary"] == "30"
    missed = [r for r in rows if r["kind"] == "missed"][0]
    assert missed["bracket_lo"] == ""  # no record context for missed zeros
    spurious = [r for r in rows if r["kind"] == "spurious"][0]
    assert float(spurious["bracket_hi"]) > float(spurious["bracket_lo"])


def test_conjecture_validation():
    assert main(["conjecture", "--t-max", "20"]) == 2  # below the window start
    assert main(["conjecture", "--t-max", "20000"]) == 2  # above the ceiling
    assert main(["conjecture", "--t-max", "100", "--step", "-1"]) == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.05"])
def test_match_tol_must_be_finite_and_positive(tol):
    # Refused by validation, before any scan: a nan tolerance would match
    # nothing and write NaN, which is not JSON, into the summary.
    assert main(["zeros", "--range", "412:414:0.05", "--scheme", "em,spira",
                 "--match-tol", tol]) == 2
    assert main(["conjecture", "--t-max", "100", "--match-tol", tol]) == 2


# ---------------------------------------------------------------------------
# error-decay


def test_error_decay_cli_and_report(tmp_path):
    rc, rows, doc = run_cli(
        tmp_path, "d.csv",
        ["error-decay", "--t-list", "100,200,400,800,1600",
         "--scheme", "spira,acc"])
    assert rc == 0
    assert len(rows) == 5 * 2
    fits = doc["summary"]["fits"]
    assert fits["SPIRA"]["model"] == "algebraic"
    assert fits["SPIRA"]["slope"] < 0.0
    assert fits["ACCELERATED_COEFF"]["model"] == "exponential"
    assert math.isfinite(fits["ACCELERATED_COEFF"]["slope"])
    # summary recomputable from rows
    errs = [float(r["abs_err"]) for r in rows if r["scheme"] == "SPIRA"]
    assert max(errs) == fits["SPIRA"]["max_abs_err"]


def test_error_decay_report_object():
    specs = [SchemeSpec(kind=SchemeKind.SPIRA)]
    report = error_decay_report([100.0, 200.0, 400.0], specs)
    assert report.labels == ("SPIRA",)
    errs = report.errors["SPIRA"]
    assert len(errs) == 3 and all(e >= 0.0 for e in errs)
    # recompute the fitted slope from the rows
    xs = [math.log(t) for t in report.ts]
    ys = [math.log(e) for e in errs]
    n = len(xs)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) \
        / sum((x - xbar) ** 2 for x in xs)
    assert abs(slope - report.summary["SPIRA"]["slope"]) <= 1e-12


def test_error_decay_report_refuses_a_repeated_label():
    # Errors and fits are keyed by label, so a second SPIRA would drop an entry.
    spira = SchemeSpec(kind=SchemeKind.SPIRA)
    with pytest.raises(DomainError, match="^error_decay_report lists SPIRA twice$"):
        error_decay_report([100.0, 200.0, 400.0], [spira, spira])


def test_error_decay_validation():
    assert main(["error-decay", "--t-list", "100,200", "--scheme", "spira"]) == 2
    assert main(["error-decay", "--t-list", "40,100,200", "--scheme", "spira"]) == 2
    assert main(["error-decay", "--t-list", "100,200,150", "--scheme", "spira"]) == 2
    assert main(["error-decay", "--t-list", "100,200,400", "--scheme", "em"]) == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--t", "nan", "--scheme", "spira"],
    ["eval", "--t", "inf", "--scheme", "spira"],
    ["eval", "--range", "100:101:nan", "--scheme", "spira"],
    ["eval", "--range", "100:101:inf", "--scheme", "spira"],
    ["zeros", "--range", "412:419:nan", "--scheme", "em,spira"],
    ["error-decay", "--t-list", "100,nan,200,300", "--scheme", "spira"],
    ["error-decay", "--t-list", "100,200,300,inf", "--scheme", "spira"],
    ["conjecture", "--t-max", "100", "--step", "nan"],
    ["conjecture", "--t-max", "100", "--step", "inf"],
    ["conjecture", "--t-max", "nan"],
    ["conjecture", "--t-max", "inf"],
], ids=" ".join)
def test_non_finite_numbers_refused_by_validation(argv):
    # Refused by RunConfig.validate, before any grid is built or any point
    # evaluated; main maps the ConfigError to exit code 2.
    with pytest.raises(ConfigError, match="finite"):
        config_from_args(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv, message", [
    (["error-decay", "--t-list", "100,200,400"], "error-decay needs at least one --scheme"),
    (["coeffs", "--sweep", "0,5"], "order must be >= 1, got 0"),
    (["eval", "--t", "100", "--scheme", "foo"], "unknown scheme 'foo'; choose from ['acc', "
     "'acc-triangle', 'afe', 'em', 'oracle', 'rs', 'spira'] or custom:<coeff-file>"),
    (["eval", "--range", "1:x:0.1", "--scheme", "spira"],
     "--range must hold numbers, got '1:x:0.1'"),
    (["error-decay", "--t-list", "100,x,400", "--scheme", "spira"],
     "bad numeric list '100,x,400'"),
    (["coeffs", "--sweep", "5,x"], "bad integer list '5,x'"),
    (["eval", "--t", "100", "--scheme", "custom:{bad}"], "bad coefficient 'x' in '{bad}'"),
    (["eval", "--t", "100", "--scheme", "custom:{empty}"],
     "coefficient file '{empty}' holds no values"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
def test_refusals_exit_2_with_their_message(tmp_path, capsys, argv, message):
    files = {"bad": tmp_path / "bad.txt", "empty": tmp_path / "empty.txt"}
    files["bad"].write_text("1.0\n0.5, x\n", encoding="utf-8")
    files["empty"].write_text("# no values\n  # only comments\n", encoding="utf-8")
    assert main([arg.format(**files) for arg in argv]) == 2
    assert capsys.readouterr().err == f"zsections: error: {message.format(**files)}\n"


# ---------------------------------------------------------------------------
# coeffs


def test_coeffs_table_matches_engine(tmp_path):
    rc, rows, _ = run_cli(tmp_path, "k.csv", ["coeffs", "--n", "5"])
    assert rc == 0
    alpha = accelerated_coefficients(5)
    assert len(rows) == 5
    for k, row in enumerate(rows, start=1):
        assert float(row["alpha_accelerated"]) == float(alpha.alpha[k - 1])
        assert float(row["alpha_step"]) == 1.0


def test_coeffs_sweep_matches_engine(tmp_path):
    rc, rows, doc = run_cli(tmp_path, "sw.csv",
                            ["coeffs", "--sweep", "50,100,200"])
    assert rc == 0
    for row in rows:
        n = int(row["n"])
        assert float(row["l2_distance"]) == coefficient_l2_distance(n)
    assert doc["summary"]["orders"] == [50, 100, 200]


def test_coeffs_validation():
    assert main(["coeffs"]) == 2  # neither --n nor --sweep
    assert main(["coeffs", "--n", "5", "--sweep", "10,20"]) == 2
    assert main(["coeffs", "--n", "0"]) == 2
    assert main(["coeffs", "--sweep", ","]) == 2  # an empty order list, like --n 0
    with pytest.raises(ConfigError, match="--sweep needs at least one order"):
        parse_config(["coeffs", "--sweep", ","])
    assert main(["coeffs", "--n", "5", "--k-max", "0"]) == 2
    # Refused by validation, so the 10^9 rows are never built.
    assert main(["coeffs", "--n", "5", "--k-max", "1000000000"]) == 2
    assert main(["coeffs", "--n", "5", "--k-max", str(MAX_SECTION_TERMS + 1)]) == 2
    RunConfig(command="coeffs", n=5, k_max=MAX_SECTION_TERMS).validate()
    # --k-max is the last row of the --n table; a sweep tabulates distances only.
    assert main(["coeffs", "--sweep", "50,100", "--k-max", "5"]) == 2
    with pytest.raises(ConfigError, match="--k-max"):
        RunConfig(command="coeffs", sweep=(50, 100), k_max=5).validate()


@pytest.mark.parametrize("argv", [["--n", "20001"], ["--sweep", "20000,1000001"],
                                  ["--sweep", "20001,5"]], ids=" ".join)
def test_coeffs_refuses_orders_past_the_cap_before_building_any(monkeypatch, capsys, argv):
    # Order 20,000 is the last with correctly rounded coefficients; a sweep
    # that lists a larger order is refused before its first order is built.
    built = []
    monkeypatch.setattr(acceleration_engine, "_cached_coefficients",
                        lambda order: built.append(order))
    assert main(["coeffs"] + argv) == 2
    assert built == []
    assert capsys.readouterr().err.endswith(
        f"exceeds {MAX_COEFF_ORDER}, the last order with correctly rounded coefficients\n")


@pytest.mark.parametrize("flag", [["--scheme", "custom:/nonexistent"], ["--oracle-terms", "10"]])
def test_coeffs_refuses_flags_it_never_reads(flag):
    # coeffs evaluates no scheme; its --n, the coefficient order, is still
    # echoed in the JSON config (test_json_sidecar_structure).
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--n", "3"] + flag)
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# output plumbing


def test_scheme_list_skips_empty_names():
    assert parse_scheme_args(["spira,", ",acc"], None) == (
        SchemeSpec(kind=SchemeKind.SPIRA), SchemeSpec(kind=SchemeKind.ACCELERATED_COEFF))


def test_provenance_falls_back_to_the_package_version(monkeypatch):
    def no_git(*args, **kwargs):
        raise OSError("no git")

    monkeypatch.setattr(subprocess, "run", no_git)
    provenance.cache_clear()
    try:
        assert provenance() == "zsections-0.1.0"
    finally:
        provenance.cache_clear()


def test_module_runs_as_a_script():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "zsections.cli", "coeffs", "--n", "3"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("k,alpha_accelerated,alpha_step,comment\n")


def test_stdout_stderr_split(capsys):
    rc = main(["coeffs", "--n", "3"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("k,alpha_accelerated,alpha_step,comment\n")
    doc = json.loads(captured.err)
    assert doc["command"] == "coeffs"


def test_json_sidecar_structure(tmp_path):
    rc, _, doc = run_cli(tmp_path, "meta.csv", ["coeffs", "--n", "3"])
    assert rc == 0
    assert set(doc) == {"command", "config", "summary", "stats", "provenance"}
    assert doc["config"]["n"] == 3
    assert isinstance(doc["provenance"], str) and doc["provenance"]


def test_json_out_gets_its_sidecar_beside_it(tmp_path):
    # with_suffix(".json") would name the CSV itself, so the sidecar appends .json.
    out = tmp_path / "x.json"
    assert main(["coeffs", "--n", "3", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("k,alpha_accelerated,")
    doc = json.loads((tmp_path / "x.json.json").read_text(encoding="utf-8"))
    assert doc["command"] == "coeffs"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["x.json", "x.json.json"]


STAT_KEYS = {"grid", "dip_rescan", "grid_screened", "bisect_screened", "bisect_exact", "residual",
             "grid_s", "dips_s", "bisect_s", "residual_s"}


@pytest.mark.parametrize("argv, echo", [
    ("eval --t 100 --scheme spira,afe,acc,em,rs",
     {"command": "eval", "reference": "ORACLE_EM", "t": 100.0, "threads": 1,
      "schemes": ["SPIRA", "AFE", "ACCELERATED_COEFF", "ORACLE_EM", "REFERENCE_RS"]}),
    ("eval --range 100:101:0.25 --scheme afe,spira --ref rs --threads 2",
     {"command": "eval", "range": [100.0, 101.0, 0.25], "reference": "REFERENCE_RS",
      "schemes": ["AFE", "SPIRA"], "threads": 2}),
    ("eval --t 100 --scheme spira --n 12",
     {"command": "eval", "reference": "ORACLE_EM", "schemes": ["SPIRA@12"], "t": 100.0,
      "threads": 1}),
    ("figure fig2", {"command": "figure", "figure": "fig2", "threads": 1}),
    ("zeros --range 412:419:0.05 --scheme em,spira --n 205 --match-tol 0.1",
     {"command": "zeros", "match_tol": 0.1, "range": [412.0, 419.0, 0.05],
      "schemes": ["ORACLE_EM", "SPIRA@205"], "threads": 1}),
    ("conjecture --t-max 60 --step 0.01",
     {"command": "conjecture", "match_tol": 0.05, "step": 0.01, "t_max": 60.0, "threads": 1}),
    ("error-decay --t-list 100,200,400 --scheme spira,acc,afe",
     {"command": "error-decay", "reference": "ORACLE_EM",
      "schemes": ["SPIRA", "ACCELERATED_COEFF", "AFE"], "t_list": [100.0, 200.0, 400.0],
      "threads": 1}),
    ("coeffs --n 10 --k-max 14", {"command": "coeffs", "k_max": 14, "n": 10, "threads": 1}),
    ("coeffs --sweep 5,10,20", {"command": "coeffs", "sweep": [5, 10, 20], "threads": 1}),
], ids=lambda x: x if isinstance(x, str) else "")
def test_config_echo_is_pinned(argv, echo):
    # The JSON "config" key, which emit writes with sorted keys: its values,
    # the field names and which fields each command echoes.
    assert parse_config(argv.split()).as_dict() == echo
    out = parse_config(argv.split() + ["--out", "x.csv"]).as_dict()
    assert out == {**echo, "out": "x.csv"}


def test_zeros_writes_stage_counts_beside_the_summary(tmp_path):
    rc, rows, doc = run_cli(tmp_path, "z.csv", ["zeros", "--range", "412:419:0.1",
                                                "--scheme", "em,spira"])
    assert rc == 0
    assert set(doc["stats"]) == {"ORACLE_EM", "SPIRA"}
    assert "stats" not in doc["summary"]
    for label, stats in doc["stats"].items():
        assert set(stats) == STAT_KEYS
        assert stats["grid"] == 71
        assert stats["residual"] == doc["summary"]["schemes"][label]["zero_count"]
    for stats in doc["stats"].values():  # both screens answer above RS4_T_MIN
        assert stats["bisect_screened"] > 0
        assert 0 < stats["grid_screened"] < stats["grid"]
        assert all(stats[key] >= 0.0 for key in ("grid_s", "dips_s", "bisect_s", "residual_s"))


def test_conjecture_writes_stage_counts_of_both_scans(tmp_path):
    rc, _, doc = run_cli(tmp_path, "c.csv", ["conjecture", "--t-max", "60", "--step", "0.01"])
    assert rc == 0
    assert set(doc["stats"]) == {doc["summary"]["reference"], doc["summary"]["scheme"]}
    for stats in doc["stats"].values():
        assert set(stats) == STAT_KEYS
        assert stats["bisect_screened"] == 0  # below RS4_T_MIN the oracle runs everywhere
        assert stats["grid_screened"] == 0  # and grids keep exact values


def test_csv_uses_lf_line_endings(tmp_path):
    out = tmp_path / "lf.csv"
    assert main(["coeffs", "--n", "3", "--out", str(out)]) == 0
    blob = out.read_bytes()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")


def test_benchmark_warm_up_command_runs(tmp_path):
    # perfbench/worker.py runs WARMUP once before any workload, and a run whose
    # warm-up fails measures nothing; the command is read from the worker as is.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    rc, _, doc = run_cli(tmp_path, "warmup.csv", list(worker.WARMUP))
    assert rc == 0 and (tmp_path / "warmup.csv").read_text(encoding="utf-8").startswith("scheme,")
    assert doc["summary"]["hazard_count"] == 0 and len(doc["summary"]["schemes"]) == 3
