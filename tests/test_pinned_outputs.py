"""Recorded CLI outputs, byte for byte.

perfbench/expected.json records the CSV SHA-256 and the JSON summary of
every command the benchmark issues.  A few of them are rerun here through
cli.main: three zero scans of the refine windows (EM, Spira and the
accelerated section at step 0.1), every fixed command of the harness
workload: the four figures, the error-decay fits, the coefficient l2 sweep
and the (412, 419) scan of EM against Spira at n = 205, the sweep workload's
conjecture sweep to t = 100, the full criterion-6 sweep to t = 1000, and one
Riemann-Siegel-refereed eval near t = 1000.  The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from zsections.cli import main

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"

COMMANDS = [
    "zeros --range 2300:2320:0.1 --scheme em,spira,acc --threads 1",
    "zeros --range 3700:3720:0.1 --scheme em,spira,acc --threads 1",
    "zeros --range 4400:4420:0.1 --scheme em,spira,acc --threads 1",
    "figure fig1 --threads 1",
    "figure fig2 --threads 1",
    "figure fig3 --threads 1",
    "figure fig4 --threads 1",
    "error-decay --t-list 100,200,400,800,1600 --scheme spira,acc --threads 1",
    "coeffs --sweep 50,100,200,400,800 --threads 1",
    "zeros --range 412:419:0.01 --scheme em,spira --n 205 --threads 1",
    "conjecture --t-max 100 --step 0.005 --threads 1",
    "conjecture --t-max 1000 --step 0.005 --threads 1",
    "eval --range 975:1025:0.01 --scheme afe,spira --ref rs --threads 1",
]


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_the_recorded_one(tmp_path, expected, command):
    want = expected[command]
    out = tmp_path / "out.csv"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want["csv_sha256"]
    doc = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert doc["summary"] == want["summary"]
