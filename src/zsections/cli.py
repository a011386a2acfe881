"""Command-line harness: evaluation, figures, zero scans, sweeps, decay fits.

Every subcommand emits a CSV table (UTF-8, LF line endings, header row,
floats at 17 significant digits so values round-trip exactly) plus a JSON
summary document {command, config, summary, stats, provenance}.  With --out
the CSV goes to that path and the JSON to the same path with a .json suffix;
without it the CSV goes to stdout and the JSON to stderr, keeping stdout
pipe-clean.

Exit codes: 0 on success, 2 on configuration errors, 3 when a numerical
hazard was flagged (a Riemann-Siegel remainder evaluated inside the
cosine-denominator hazard window).  The EM oracle has one configuration,
set in reference_engine, where its tail always converges, so main maps no
ConvergenceError: RS1 hazard flags are the only source of exit code 3.
Bad input is refused before any numerical work.  While parsing: a --range,
--t-list or --sweep that does not parse, a custom: file that cannot be read
or holds a bad token or no value, a pinned --n or custom: file past the term
limit of MAX_SECTION_TERMS (SchemeSpec), a --scheme label listed twice.  By
RunConfig.validate: the checks every command shares (--threads, --match-tol,
a non-finite --t or --range, an --out whose directory does not exist), then
the subcommand's own.  Before any scheme's grid is evaluated: a height
outside a scheme's domain or past its term limit, such as the oracle's past
t = 5e5 or Spira's past t = 2e6, as eval, figure, error-decay, zeros and
conjecture have every scheme key the whole grid first (schemes.check_grid).
eval evaluates its referee once, also where it is listed.  Each subcommand
is declared once, as its check and its runner in _COMMANDS.
coeffs evaluates no scheme, so its subparser has no --scheme; its orders,
--n or --sweep, stop at MAX_COEFF_ORDER, and --k-max, the last row of the
--n table, is refused with --sweep, which tabulates distances only.

Grid work runs on the batched, single-threaded evaluate_grid.  --threads is
accepted only for compatibility: it is validated (1 to MAX_THREADS) and
echoed in the JSON config, and no library call receives it, so CSV bodies
are byte-identical at any value.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import subprocess
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .acceleration_engine import (
    MAX_COEFF_ORDER,
    accelerated_coefficients,
    coefficient_l2_distance,
    step_coefficients,
)
from .errors import ConfigError, DomainError, ResourceLimitError
from .reference_engine import z_euler_maclaurin
from .schemes import (
    ACCELERATED_KINDS,
    REFERENCE_KINDS,
    SchemeEvaluator,
    SchemeKind,
    SchemeSpec,
    check_grid,
    evaluate_grid,
    parse_scheme_kind,
)
from .sections_engine import MAX_SECTION_TERMS, CoefficientVector, cosine_terms
from .zero_scanner import (
    DEFAULT_MATCH_TOL,
    compare_zero_sets,
    conjecture_sweep,
    grid_points,
    scan_schemes,
)

# Floor for |value| inside logarithms; an emitted ln of this floor marks an
# exact-zero sample rather than a real magnitude.
_LN_FLOOR = 1e-300

_FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4")

# Largest accepted --threads. The flag is kept for compatibility and changes
# nothing; the bound only refuses values no machine could use.
MAX_THREADS = 64


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated bag of everything a subcommand needs.

    Built from parsed argparse values; validate() raises ConfigError before
    any numerical work starts so bad invocations exit early with code 2.
    """

    command: str
    t: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    step: Optional[float] = None
    t_list: Optional[tuple] = None
    schemes: tuple = ()
    ref_kind: SchemeKind = SchemeKind.ORACLE_EM
    figure: Optional[str] = None
    n: Optional[int] = None
    k_max: Optional[int] = None
    sweep: Optional[tuple] = None
    t_max: Optional[float] = None
    match_tol: float = DEFAULT_MATCH_TOL
    threads: int = 1
    out: Optional[str] = None

    def validate(self) -> None:
        """The checks every command shares, then the command's own (_COMMANDS)."""
        if not 1 <= self.threads <= MAX_THREADS:
            raise ConfigError(
                f"--threads must lie in [1, {MAX_THREADS}], got {self.threads}")
        if not (math.isfinite(self.match_tol) and self.match_tol > 0.0):
            raise ConfigError(f"--match-tol must be finite and positive, got {self.match_tol}")
        if self.t is not None and not math.isfinite(self.t):
            raise ConfigError("--t must be finite")
        if self.out is not None and not Path(self.out).parent.is_dir():
            raise ConfigError(f"--out {self.out!r}: its directory does not exist")
        if self.a is not None:
            if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
                raise ConfigError(f"--range needs a < b, got {self.a}:{self.b}")
            if self.step is None or not 0.0 < self.step < math.inf:
                raise ConfigError(f"--range needs a finite positive step, got {self.step}")
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        _COMMANDS[self.command][0](self)

    def as_dict(self) -> dict:
        """JSON-friendly echo of the settings that shaped this run.

        Every field that is set, except that the range is one entry
        [a, b, step], schemes are echoed by label, the referee (reference)
        only where it judges the schemes, and match_tol only where zero sets
        are matched.
        """
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        del doc["ref_kind"]
        doc["schemes"] = [s.label for s in self.schemes] or None
        if self.a is not None:
            doc["range"] = [doc.pop("a"), doc.pop("b"), doc.pop("step")]
        if self.command in ("eval", "error-decay"):
            doc["reference"] = SchemeSpec(kind=self.ref_kind).label
        if self.command not in ("zeros", "conjecture"):
            del doc["match_tol"]
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in doc.items() if value is not None}


def _check_eval(config: RunConfig) -> None:
    if not config.schemes:
        raise ConfigError("eval needs at least one --scheme")
    if (config.t is None) == (config.a is None):
        raise ConfigError("eval needs exactly one of --t or --range")


def _check_figure(config: RunConfig) -> None:
    if config.figure not in _FIGURE_IDS:
        raise ConfigError(f"figure id must be one of {_FIGURE_IDS}")


def _check_zeros(config: RunConfig) -> None:
    if config.a is None:
        raise ConfigError("zeros needs --range a:b:step")
    if not config.schemes:
        raise ConfigError("zeros needs at least one --scheme")


def _check_conjecture(config: RunConfig) -> None:
    if config.t_max is None or not math.isfinite(config.t_max):
        raise ConfigError(f"conjecture needs a finite --t-max, got {config.t_max}")
    if config.step is None or not 0.0 < config.step < math.inf:
        raise ConfigError(f"conjecture needs a finite positive --step, got {config.step}")


def _check_error_decay(config: RunConfig) -> None:
    if not config.schemes:
        raise ConfigError("error-decay needs at least one --scheme")
    for spec in config.schemes:
        if spec.is_reference:
            raise ConfigError(
                f"error-decay judges schemes against the oracle; "
                f"{spec.label} is itself a reference")
    t_list = config.t_list
    if t_list is None or len(t_list) < 3:
        raise ConfigError("error-decay needs --t-list with at least 3 points")
    if not all(math.isfinite(t) for t in t_list):
        raise ConfigError(f"--t-list entries must be finite, got {list(t_list)}")
    if any(t < 50.0 for t in t_list):
        raise ConfigError("error-decay points must all be >= 50")
    if any(u >= v for u, v in zip(t_list, t_list[1:])):
        raise ConfigError("--t-list must be strictly ascending")


def _check_coeffs(config: RunConfig) -> None:
    if (config.n is None) == (config.sweep is None):
        raise ConfigError("coeffs needs exactly one of --n or --sweep")
    if config.n is not None and config.n < 1:
        raise ConfigError(f"--n must be >= 1, got {config.n}")
    if config.k_max is not None and config.n is None:
        raise ConfigError("--k-max applies to the table of --n, not to --sweep")
    if config.k_max is not None and not 1 <= config.k_max <= MAX_SECTION_TERMS:
        raise ConfigError(f"--k-max must lie in [1, {MAX_SECTION_TERMS}], got {config.k_max}")
    if config.sweep is not None and not config.sweep:
        raise ConfigError("--sweep needs at least one order")
    if config.sweep is not None and any(m < 1 for m in config.sweep):
        raise ConfigError("--sweep orders must all be >= 1")
    order = max(config.sweep or (config.n,))
    if order > MAX_COEFF_ORDER:
        raise ConfigError(f"coefficient order {order} exceeds {MAX_COEFF_ORDER}, "
                          "the last order with correctly rounded coefficients")


@dataclass(frozen=True)
class ErrorReport:
    """Per-scheme absolute errors against the oracle, with fitted decay laws.

    Fit model is chosen by scheme family: plain-section schemes decay
    algebraically so ln(err) is regressed on ln(t); the accelerated schemes
    decay exponentially so ln(err) is regressed on t itself.  Summary
    entries are recomputable from the emitted rows.
    """

    ts: tuple
    labels: tuple
    errors: dict  # label -> tuple of abs errors, aligned with ts
    summary: dict  # label -> {model, slope, intercept, rms_residual, max, median}


@dataclass
class CommandResult:
    """A command's table and summary, plus stats: the points each zero scan
    evaluated, by stage (ScanStats per scheme label; empty for commands that
    scan nothing).  stats sits beside summary in the JSON, not inside it."""

    header: tuple
    rows: list
    summary: dict
    hazard_count: int = 0
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# scheme argument handling


def load_coefficient_file(path: str) -> CoefficientVector:
    """Read one coefficient per line (or comma-separated); '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read coefficient file {path!r}: {exc}") from exc
    values = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        for token in body.replace(",", " ").split():
            try:
                values.append(float(token))
            except ValueError as exc:
                raise ConfigError(
                    f"bad coefficient {token!r} in {path!r}") from exc
    if not values:
        raise ConfigError(f"coefficient file {path!r} holds no values")
    return CoefficientVector(alpha=tuple(values))


def parse_scheme_args(raw: Optional[list], n: Optional[int]) -> tuple:
    """Expand repeated/comma-joined --scheme values into SchemeSpec objects.

    --n pins the cutoff of every scheme that takes one; references and
    custom vectors have no cutoff knob, so --n passes them by (a mixed
    list like "em,spira --n 205" pins only the section scheme).  Rows,
    summaries and stats are keyed by label, so a label listed twice
    (em,oracle, or spira,spira --n 205) is refused.
    """
    specs = []
    for chunk in raw or []:
        for name in (s.strip() for s in chunk.split(",")):
            if not name:
                continue
            if name.startswith("custom:"):
                vec = load_coefficient_file(name[len("custom:"):])
                specs.append(SchemeSpec(kind=SchemeKind.CUSTOM, alpha=vec))
                continue
            try:
                kind = parse_scheme_kind(name)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"unknown scheme {name!r}") from exc
            specs.append(SchemeSpec(kind=kind, n=None if kind in REFERENCE_KINDS else n))
    _refuse_repeated_label(specs, ConfigError, "--scheme")
    return tuple(specs)


def _refuse_repeated_label(specs, error: type, where: str) -> None:
    """Raise error("<where> lists <label> twice") at the first label specs list twice."""
    labels = [spec.label for spec in specs]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise error(f"{where} lists {label} twice")


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def render_csv(header: tuple, rows: list) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


@functools.cache
def provenance() -> str:
    """git describe of the source tree, else the package version string; once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10, check=True)
        tag = out.stdout.strip()
        if tag:
            return tag
    except (OSError, subprocess.SubprocessError):
        pass
    return f"zsections-{__version__}"


def emit(result: CommandResult, config: RunConfig) -> None:
    csv_text = render_csv(result.header, result.rows)
    doc = {
        "command": config.command,
        "config": config.as_dict(),
        "summary": result.summary,
        "stats": result.stats,
        "provenance": provenance(),
    }
    json_text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if config.out:
        out_path = Path(config.out)
        out_path.write_text(csv_text, encoding="utf-8", newline="\n")
        sidecar = out_path.with_suffix(".json")
        if sidecar == out_path:
            sidecar = out_path.with_name(out_path.name + ".json")
        sidecar.write_text(json_text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(csv_text)
        sys.stderr.write(json_text)


def _ln_abs(value: float) -> float:
    return math.log(max(abs(value), _LN_FLOOR))


def _evaluate_schemes(specs, ts) -> tuple:
    """Each scheme on the grid ts, in order: ({label: values}, hazard count).

    Every scheme keys the grid, and may refuse it, before any evaluates it; a
    label listed twice, such as a referee also listed as a scheme, runs once."""
    specs = list({spec.label: spec for spec in specs}.values())
    grid = np.asarray(ts, dtype=np.float64)
    check_grid(specs, grid)
    runs = [evaluate_grid(SchemeEvaluator(spec), grid) for spec in specs]
    return {spec.label: run[0] for spec, run in zip(specs, runs)}, sum(run[1] for run in runs)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(config: RunConfig) -> CommandResult:
    """Rows (t, scheme, value, reference, abs_err), t-major scheme-minor."""
    if config.t is not None:
        ts = [float(config.t)]
    else:
        ts = grid_points(config.a, config.b, config.step).tolist()

    ref = SchemeSpec(kind=config.ref_kind)
    columns, hazards = _evaluate_schemes((ref, *config.schemes), ts)
    ref_vals = columns[ref.label]

    values = [(spec.label, columns[spec.label].tolist()) for spec in config.schemes]
    rows = [(t, label, column[i], r, abs(column[i] - r))
            for i, (t, r) in enumerate(zip(ts, ref_vals.tolist())) for label, column in values]

    summary: dict = {
        "points": len(ts),
        "reference": ref.label,
        "hazard_count": hazards,
        "schemes": {},
    }
    for spec in config.schemes:
        errs = np.abs(columns[spec.label] - ref_vals)
        summary["schemes"][spec.label] = {
            "max_abs_err": float(np.max(errs)),
            "median_abs_err": float(np.median(errs)),
        }
    return CommandResult(("t", "scheme", "value", "reference", "abs_err"),
                         rows, summary, hazards)


def cmd_figure(config: RunConfig) -> CommandResult:
    fig = config.figure
    if fig == "fig1":
        # Sections at fixed t = 3000 for every cutoff up to 1500, against the
        # oracle value and its half; the half line is where the section sits
        # once the cutoff passes sqrt(t/2pi).
        t = 3000.0
        ref = z_euler_maclaurin(t)
        # section(t, n) for every n is the fsum of a prefix of one kernel row.
        terms = cosine_terms(t, 1500).tolist()
        rows = [(n, math.fsum(terms[:n]), ref.z, 0.5 * ref.z) for n in range(1, 1501)]
        summary = {"figure": fig, "t": t, "n_max": 1500, "rows": len(rows),
                   "reference": ref.z}
        return CommandResult(("n", "z_section", "z_reference", "z_reference_half"),
                             rows, summary, 0)

    if fig in ("fig2", "fig3"):
        a, b, step = 412.0, 419.0, 0.01
        if fig == "fig2":
            specs = [SchemeSpec(kind=SchemeKind.ORACLE_EM),
                     SchemeSpec(kind=SchemeKind.SPIRA, n=205),
                     SchemeSpec(kind=SchemeKind.AFE, n=8)]
            header = ("t", "ln_abs_reference", "ln_abs_spira_205", "ln_abs_afe_8")
        else:
            specs = [SchemeSpec(kind=SchemeKind.ORACLE_EM),
                     SchemeSpec(kind=SchemeKind.ACCELERATED_COEFF, n=205)]
            header = ("t", "ln_abs_reference", "ln_abs_accelerated_205")
        ts = grid_points(a, b, step).tolist()
        columns, hazards = _evaluate_schemes(specs, ts)
        cols = list(columns.values())
        rows = [tuple([t] + [_ln_abs(float(c[i])) for c in cols])
                for i, t in enumerate(ts)]
        summary = {"figure": fig, "range": [a, b, step], "rows": len(rows),
                   "schemes": [s.label for s in specs], "hazard_count": hazards}
        return CommandResult(header, rows, summary, hazards)

    # fig4: coefficient profiles at the cutoff for t = 400, i.e. order 200,
    # plotted out to k = 400 (the rows of coeffs --n 200 --k-max 400).
    rows = _coefficient_rows(200, 400)
    summary = {"figure": fig, "order": 200, "k_max": 400, "rows": len(rows)}
    return CommandResult(_COEFFICIENT_HEADER, rows, summary, 0)


def cmd_zeros(config: RunConfig) -> CommandResult:
    """Scan zeros per scheme; with a reference present, also match sets."""
    header = ("scheme", "location", "bracket_lo", "bracket_hi",
              "residual", "scale", "cutoff_jump")
    rows = []
    summary: dict = {"interval": [config.a, config.b], "step": config.step,
                     "schemes": {}}
    stats = {}
    hazards = 0

    if any(s.is_reference for s in config.schemes) and len(config.schemes) >= 2:
        comparison = compare_zero_sets(
            (config.a, config.b), list(config.schemes), config.match_tol, step=config.step)
        summary["match_tol"] = config.match_tol
        summary["reference"] = comparison.reference.scheme.label
        scans = [(comparison.reference, None)]
        scans += [(match.scan, match) for match in comparison.matches]
    else:
        scans = [(scan, None) for scan in scan_schemes(config.schemes, config.a, config.b,
                                                         config.step)]

    for scan, match in scans:
        label = scan.scheme.label
        hazards += scan.hazard_count
        stats[label] = asdict(scan.stats)
        rows.extend((label, rec.location, rec.bracket[0], rec.bracket[1],
                     rec.residual, rec.scale, rec.cutoff_jump) for rec in scan.records)
        entry = {"zero_count": len(scan), "dip_count": len(scan.dips)}
        if match is not None:
            entry.update(matched=len(match.matched), missed=len(match.missed),
                         spurious=len(match.spurious),
                         missed_locations=list(match.missed),
                         spurious_locations=list(match.spurious),
                         max_matched_discrepancy=match.max_matched_discrepancy)
        summary["schemes"][label] = entry

    summary["hazard_count"] = hazards
    return CommandResult(header, rows, summary, hazards, stats)


def cmd_conjecture(config: RunConfig) -> CommandResult:
    """Run the Spira-vs-reference sweep; rows are the anomaly events."""
    sweep = conjecture_sweep(config.t_max, config.step, match_tol=config.match_tol)
    header = ("kind", "location", "nearest_counterpart", "nearest_distance",
              "nearest_cutoff_boundary", "boundary_distance",
              "bracket_lo", "bracket_hi", "residual", "scale", "cutoff_jump")
    rows = []
    for ev in sweep.events:  # the last five are set only where a record exists
        lo, hi = ev.get("bracket", (None, None))
        rows.append((ev["kind"], ev["location"], ev["nearest_counterpart"],
                     ev["nearest_distance"], ev["nearest_cutoff_boundary"],
                     ev["boundary_distance"], lo, hi, ev.get("residual"), ev.get("scale"),
                     ev.get("cutoff_jump")))
    summary = {
        "t_min": sweep.t_min, "t_max": sweep.t_max, "step": sweep.step,
        "match_tol": sweep.match_tol,
        "reference": sweep.reference_label, "scheme": sweep.scheme_label,
        "reference_count": sweep.reference_count,
        "scheme_count": sweep.scheme_count,
        "matched": sweep.matched_count,
        "missed": sweep.missed_count,
        "spurious": sweep.spurious_count,
        "max_matched_discrepancy": sweep.max_matched_discrepancy,
        "reference_dips": sweep.reference_dips,
        "scheme_dips": sweep.scheme_dips,
        "hazard_count": sweep.hazard_count,
        "clean": sweep.clean,
    }
    return CommandResult(header, rows, summary, sweep.hazard_count,
                         {label: asdict(stats) for label, stats in sweep.stats})


def error_decay_report(t_list, specs) -> ErrorReport:
    """Absolute errors vs the EM oracle with least-squares decay fits, keyed by label."""
    _refuse_repeated_label(specs, DomainError, "error_decay_report")
    ts = [float(t) for t in t_list]
    ref = SchemeSpec(kind=SchemeKind.ORACLE_EM)
    columns, _ = _evaluate_schemes((ref, *specs), ts)

    errors = {}
    summary = {}
    for spec in specs:
        errs = tuple(abs(float(v) - float(r))
                     for v, r in zip(columns[spec.label], columns[ref.label]))
        errors[spec.label] = errs
        ln_err = np.array([_ln_abs(e) for e in errs])
        model, x = (("exponential", np.array(ts)) if spec.kind in ACCELERATED_KINDS
                    else ("algebraic", np.log(ts)))
        slope, intercept = np.polyfit(x, ln_err, 1)
        fitted = slope * x + intercept
        rms = float(math.sqrt(np.mean((ln_err - fitted) ** 2)))
        summary[spec.label] = {
            "model": model,
            "slope": float(slope),
            "intercept": float(intercept),
            "rms_residual": rms,
            "max_abs_err": max(errs),
            "median_abs_err": float(np.median(errs)),
        }
    return ErrorReport(ts=tuple(ts), labels=tuple(s.label for s in specs),
                       errors=errors, summary=summary)


def cmd_error_decay(config: RunConfig) -> CommandResult:
    report = error_decay_report(config.t_list, config.schemes)
    rows = [(t, label, report.errors[label][i])
            for i, t in enumerate(report.ts) for label in report.labels]
    return CommandResult(("t", "scheme", "abs_err"), rows,
                         {"points": len(report.ts), "fits": report.summary}, 0)


_COEFFICIENT_HEADER = ("k", "alpha_accelerated", "alpha_step", "comment")


def _coefficient_rows(order: int, k_max: int) -> list:
    """Accelerated and step coefficients of one order for k = 1..k_max.

    Beyond the cutoff the step vector is zero by definition and the
    accelerated vector is not defined, so both emit 0 with the comment
    column flagging the region.
    """
    alpha = accelerated_coefficients(order).alpha
    step_vec = step_coefficients(order).alpha
    return [(k, float(alpha[k - 1]), float(step_vec[k - 1]), "") if k <= order
            else (k, 0.0, 0.0, "beyond-cutoff") for k in range(1, k_max + 1)]


def cmd_coeffs(config: RunConfig) -> CommandResult:
    if config.n is not None:
        order = config.n
        k_max = config.k_max if config.k_max is not None else order
        rows = _coefficient_rows(order, k_max)
        alpha = accelerated_coefficients(order)
        summary = {"order": order, "k_max": k_max,
                   "alpha_first": float(alpha.alpha[0]),
                   "alpha_last": float(alpha.alpha[order - 1])}
        return CommandResult(_COEFFICIENT_HEADER, rows, summary, 0)

    rows = [(order, coefficient_l2_distance(order)) for order in config.sweep]
    return CommandResult(("n", "l2_distance"), rows, {
        "orders": list(config.sweep), "l2_distances": {str(m): d for m, d in rows}}, 0)


# Each subcommand's check (run by RunConfig.validate) and runner.
_COMMANDS = {
    "eval": (_check_eval, cmd_eval),
    "figure": (_check_figure, cmd_figure),
    "zeros": (_check_zeros, cmd_zeros),
    "conjecture": (_check_conjecture, cmd_conjecture),
    "error-decay": (_check_error_decay, cmd_error_decay),
    "coeffs": (_check_coeffs, cmd_coeffs),
}


# ---------------------------------------------------------------------------
# argument parsing


def _parse_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--range must look like a:b:step, got {text!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--range must hold numbers, got {text!r}") from exc
    return a, b, step


def _parse_list(text: str, kind: type, noun: str) -> tuple:
    try:
        return tuple(kind(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad {noun} list {text!r}") from exc


def _add_common(sub: argparse.ArgumentParser, *, schemes: bool = True) -> None:
    if schemes:
        sub.add_argument("--scheme", action="append", metavar="NAME",
                         help="scheme name (repeatable or comma-joined): rs, em, "
                              "afe, spira, acc, acc-triangle, custom:<file>")
        sub.add_argument("--n", type=int, default=None,
                         help="fixed cutoff for schemes that take one")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="CSV output path (JSON summary lands beside it); "
                          "default stdout/stderr")
    sub.add_argument("--threads", type=int, default=1,
                     help=f"accepted for compatibility, 1 to {MAX_THREADS}; "
                          "evaluation runs on one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsections",
        description="Numerical experiments with sections of the Hardy Z function.")
    parser.add_argument("--version", action="version",
                        version=f"zsections {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate schemes against a reference")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--range", default=None, metavar="A:B:STEP")
    p.add_argument("--ref", choices=("em", "rs"), default="em",
                   help="referee: Euler-Maclaurin oracle or Riemann-Siegel")
    _add_common(p)

    p = subs.add_parser("figure", help="emit data behind one of the four figures")
    p.add_argument("figure", choices=_FIGURE_IDS)
    _add_common(p, schemes=False)

    p = subs.add_parser("zeros", help="scan and match zero sets on an interval")
    p.add_argument("--range", required=True, metavar="A:B:STEP")
    p.add_argument("--match-tol", type=float, default=DEFAULT_MATCH_TOL,
                   dest="match_tol")
    _add_common(p)

    p = subs.add_parser("conjecture", help="Spira-vs-reference zero sweep from t=30")
    p.add_argument("--t-max", type=float, required=True, dest="t_max")
    p.add_argument("--step", type=float, default=0.005)
    p.add_argument("--match-tol", type=float, default=DEFAULT_MATCH_TOL,
                   dest="match_tol")
    _add_common(p, schemes=False)

    p = subs.add_parser("error-decay", help="fit error-decay laws over a t list")
    p.add_argument("--t-list", required=True, dest="t_list", metavar="T1,T2,...")
    _add_common(p)

    p = subs.add_parser("coeffs", help="coefficient profiles and l2 distances")
    p.add_argument("--n", type=int, default=None,
                   help="emit the accelerated and step coefficients of this order")
    p.add_argument("--sweep", default=None, metavar="N1,N2,...",
                   help="emit l2 distance to the step vector for these orders")
    p.add_argument("--k-max", type=int, default=None, dest="k_max")
    _add_common(p, schemes=False)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    opts = vars(args)
    # Flags that are config fields as they are; each subparser defines some.
    kwargs = {key: opts[key] for key in ("command", "t", "step", "figure", "k_max", "t_max",
                                         "match_tol", "threads", "out") if key in opts}
    if opts.get("range") is not None:
        kwargs["a"], kwargs["b"], kwargs["step"] = _parse_range(opts["range"])
    if opts.get("t_list") is not None:
        kwargs["t_list"] = _parse_list(opts["t_list"], float, "numeric")
    if opts.get("sweep") is not None:
        kwargs["sweep"] = _parse_list(opts["sweep"], int, "integer")
    if opts.get("ref") == "rs":
        kwargs["ref_kind"] = SchemeKind.REFERENCE_RS
    if "scheme" in opts:  # --n pins the schemes' cutoffs
        kwargs["schemes"] = parse_scheme_args(opts["scheme"], opts["n"])
    else:  # coeffs' --n is its coefficient order
        kwargs["n"] = opts.get("n")
    config = RunConfig(**kwargs)
    config.validate()
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        result = _COMMANDS[config.command][1](config)
    except (ConfigError, DomainError, ResourceLimitError) as exc:
        print(f"zsections: error: {exc}", file=sys.stderr)
        return 2
    emit(result, config)
    if result.hazard_count > 0:
        print(f"zsections: numerical hazard: {result.hazard_count} flagged "
              f"evaluation(s)", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
