"""Untimed output checks for the benchmark's CLI commands.

Every command's CSV must hash to the SHA-256 recorded in ``expected.json``
and its JSON ``summary`` object must equal the recorded one.  The summary is
compared rather than the JSON bytes, because the sidecar also embeds the
``--out`` path and the git provenance.  Each zero scan is checked
independently as well: the reference zero count on (a, b] must equal
``mpmath.nzeros(b) - mpmath.nzeros(a)`` (Riemann-von Mangoldt counting via
Gram points), and the full criterion-6 sweep must show 646 reference zeros
with 638 matched, 8 missed and 16 spurious.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import FULL_SWEEP_T_MAX, command_key, zero_interval

EXPECTED_PATH = Path(__file__).with_name("expected.json")

FULL_SWEEP_COUNTS = {"reference_count": 646, "matched": 638, "missed": 8, "spurious": 16}


def read_output(csv_path: Path) -> dict:
    """SHA-256 of a command's CSV and the summary object of its JSON sidecar."""
    csv_path = Path(csv_path)
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    doc = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))
    return {"csv_sha256": digest, "summary": doc["summary"]}


def reference_zero_count(argv: list, summary: dict) -> int:
    if argv[0] == "conjecture":
        return summary["reference_count"]
    return summary["schemes"][summary["reference"]]["zero_count"]


def zero_records(argv: list, summary: dict) -> int:
    """Zero records of every scheme in one command's output."""
    if argv[0] == "conjecture":
        return summary["reference_count"] + summary["scheme_count"]
    if argv[0] == "zeros":
        return sum(entry["zero_count"] for entry in summary["schemes"].values())
    return 0


class Checker:
    """Compares command outputs against the recorded ones and mpmath's zero counts."""

    def __init__(self, expected: dict):
        self.expected = expected
        self._nzeros = {}

    @classmethod
    def from_file(cls, path: Path = EXPECTED_PATH) -> "Checker":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def nzeros(self, t: float) -> int:
        if t not in self._nzeros:
            import mpmath
            self._nzeros[t] = int(mpmath.nzeros(t))
        return self._nzeros[t]

    def problems(self, argv: list, exit_code: int, output: dict) -> list:
        """Every way one command's exit code and output differ from what is expected."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        found = []
        want = self.expected.get(command_key(argv))
        if want is None:
            found.append("no recorded output for this command")
        else:
            if output["csv_sha256"] != want["csv_sha256"]:
                found.append("CSV digest differs from the recorded one")
            if output["summary"] != want["summary"]:
                found.append("summary differs from the recorded one")
        interval = zero_interval(argv)
        if interval is not None:
            a, b = interval
            count = reference_zero_count(argv, output["summary"])
            truth = self.nzeros(b) - self.nzeros(a)
            if count != truth:
                found.append(f"reference zero count {count} on ({a}, {b}] "
                             f"but mpmath.nzeros gives {truth}")
            if argv[0] == "conjecture" and b == FULL_SWEEP_T_MAX:
                got = {key: output["summary"][key] for key in FULL_SWEEP_COUNTS}
                if got != FULL_SWEEP_COUNTS:
                    found.append(f"full sweep counts {got}, expected {FULL_SWEEP_COUNTS}")
        return found
