"""Zero location and zero-set comparison for Z approximation schemes.

The scanner walks a uniform grid over [a, b], brackets every sign change,
and bisects each bracket down to width 1e-9.  Signs of neighbouring samples
are compared, not multiplied, so an underflowing product still brackets its
zero; a sample that is exactly 0 is a bracket of width 0 of its own, which
bisection never opens and whose residual is its value, 0.  Two diagnostics:

  * dip events: |f| dropping below 0.1 at a local minimum without a sign
    change suggests a curvature-driven near-double root the grid cannot
    split, so the neighborhood is re-scanned at step/10 and any zeros found
    there are merged into the record list;
  * cutoff jumps: schemes whose cutoff re-resolves per point (N = floor(t/2)
    and friends) are genuinely piecewise in t, and a refined bracket that
    still straddles a cutoff boundary is flagged - the "sign change" may be
    a step discontinuity of the piecewise family rather than a vanishing.
    Flagged records keep their bracket but their residual reports the jump
    half-height instead of ~0, so the residual invariant applies only to
    unflagged records.

Comparisons match scheme zeros to reference zeros greedily by distance
(injectively, within match_tol) and report matched / missed / spurious.
scan_schemes, which comparisons and the CLI use, checks the range and has
every scheme key the grid before the first scan, so a refusal costs no scan.
The conjecture sweep runs the Spira scheme with its exact per-point cutoff
against the EM oracle, the referee at every t_max up to SWEEP_CEILING, over
[30, t_max] and dumps every mismatch with
enough context to inspect what happened; it completes whether or not the
sweep is clean.

Every value comes from the batched evaluate_grid.  One helper, _scan_grid,
serves the grid and each dip re-scan: it finds the crossings once and
returns its candidates, exact zeros and then sign changes, as arrays (lo,
hi, lo_neg, scale), which stay arrays up to the records.  The candidates of
a scan, the grid's and then each re-scan's, are bisected in place in
lockstep, one evaluate_grid call per round, and the residuals take one
more; Python floats are made, by .tolist(), only for records and dips.  A
grid value reaches a record only through its sign, its size inside the dip
band |v| < DIP_THRESHOLD and the scale read beside a crossing, so grids ask
evaluate_grid for values exact below DIP_THRESHOLD (see schemes), then for
those the scale reads.  A certified cheap value has the exact value's sign
and lies above the band, so every crossing and dip is found as on exact
values.  Bisection asks for exact_below = 0, so every bracket follows its
path on exact values.  Each ScanResult counts its points by stage and
times each stage (ScanStats).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError
from .reference_engine import RS4_T_MIN
from .schemes import SchemeEvaluator, SchemeKind, SchemeSpec, check_grid, evaluate_grid

BRACKET_WIDTH = 1e-9
MAX_BISECT_ITERS = 60
DIP_THRESHOLD = 0.1
DEFAULT_MATCH_TOL = 0.05

SWEEP_T_MIN = 30.0
SWEEP_CEILING = 1.0e4

# Refuse grids of more points than this before building them: twice the
# 1.99e6 points of a sweep to SWEEP_CEILING at the default step 0.005.
MAX_GRID_POINTS = 4 * 10**6


@dataclass(frozen=True)
class ZeroRecord:
    """One bracketed zero (or flagged piecewise sign flip) of a scheme."""

    scheme: SchemeSpec
    location: float
    bracket: tuple
    residual: float
    scale: float
    cutoff_jump: bool = False


@dataclass(frozen=True)
class DipEvent:
    """|f| dipped below DIP_THRESHOLD at a grid local minimum without a sign change."""

    scheme: SchemeSpec
    t: float
    value: float
    zeros_found: int


@dataclass(frozen=True)
class ScanStats:
    """Points a scan evaluated by stage, and each stage's wall seconds (not compared).

    grid_screened counts grid and re-scan points that kept a certified cheap
    value; bisect_screened the midpoints whose sign the screen of the oracle,
    of Spira's section or of the accelerated section (acc) answered,
    bisect_exact the rest."""

    grid: int
    dip_rescan: int
    grid_screened: int
    bisect_screened: int
    bisect_exact: int
    residual: int
    grid_s: float = field(default=0.0, compare=False)
    dips_s: float = field(default=0.0, compare=False)
    bisect_s: float = field(default=0.0, compare=False)
    residual_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class ScanResult(Sequence):
    """Sorted zero records plus scan diagnostics; behaves as a sequence of records."""

    scheme: SchemeSpec
    records: tuple
    dips: tuple
    hazard_count: int
    stats: ScanStats

    def __len__(self):
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def locations(self) -> tuple:
        return tuple(r.location for r in self.records)


@dataclass(frozen=True)
class SchemeMatch:
    """Greedy injective matching of one scheme's zeros against the reference's."""

    scheme: SchemeSpec
    scan: ScanResult
    matched: tuple  # pairs (reference location, scheme location)
    missed: tuple  # reference locations with no partner
    spurious: tuple  # scheme locations with no partner

    @property
    def max_matched_discrepancy(self) -> float:
        return max((abs(r - s) for r, s in self.matched), default=0.0)


@dataclass(frozen=True)
class ZeroComparison:
    reference: ScanResult
    matches: tuple  # one SchemeMatch per non-reference entry, input order

    def for_label(self, label: str) -> SchemeMatch:
        for m in self.matches:
            if m.scheme.label == label:
                return m
        raise KeyError(label)


def grid_points(a: float, b: float, step: float) -> np.ndarray:
    """a, a + step, ..., b as a float64 array, point i the double a + i * step;
    ResourceLimitError beyond MAX_GRID_POINTS points."""
    # floor with a relative guard so that b lands on the grid whenever
    # (b - a)/step is an integer up to float dust.
    q = (b - a) / step
    if not q < MAX_GRID_POINTS:  # written so that nan and inf are refused too
        raise ResourceLimitError(
            f"grid {a}:{b}:{step} would hold {q + 1:.3g} points, "
            f"more than MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    n = int(math.floor(q * (1.0 + 1e-12) + 1e-12))
    return a + step * np.arange(n + 1, dtype=np.float64)


def _crossings(vals: np.ndarray):
    """Where sampled values vanish: (i whose step to i + 1 changes sign, i with vals[i] == 0).

    Signs are compared rather than multiplied, so a pair whose product
    underflows to 0 still brackets its zero, and a sample that is exactly 0
    is a zero of its own instead of two pairs that both miss it.  NaN has no
    sign and brackets nothing.
    """
    signs = np.sign(vals)
    return np.flatnonzero(signs[:-1] * signs[1:] < 0.0), np.flatnonzero(vals == 0.0)


def _dips(vals: np.ndarray) -> np.ndarray:
    """Interior i where |f| has a local minimum below DIP_THRESHOLD on one sign."""
    mag, signs = np.abs(vals), np.sign(vals)
    low = mag[1:-1]
    return 1 + np.flatnonzero(
        (low < DIP_THRESHOLD) & (low <= mag[:-2]) & (low <= mag[2:])
        & (signs[:-2] * signs[1:-1] > 0.0) & (signs[1:-1] * signs[2:] > 0.0))


def _scan_grid(evaluator: SchemeEvaluator, grid: np.ndarray):
    """(values, hazards, cheap values kept, candidates) of an ascending grid, keyed first.
    Values are exact in the dip band, beside each crossing and below RS4_T_MIN; the
    candidates are arrays (lo, hi, lo_neg, scale) of the exact zeros, lo = hi, then the
    sign changes, scale the larger |value| beside a zero or at a change's ends."""
    evaluator.grid_keys(grid)
    vals = np.empty(len(grid), dtype=np.float64)
    exact = np.empty(len(grid), dtype=bool)
    low = int(np.searchsorted(grid, RS4_T_MIN))
    vals[:low], hazards, exact[:low] = evaluate_grid(evaluator, grid[:low])
    vals[low:], upper, exact[low:] = evaluate_grid(evaluator, grid[low:],
                                                   exact_below=DIP_THRESHOLD)
    hazards += upper
    changes, zeros = _crossings(vals)
    last = len(vals) - 1
    lo_at, hi_at = np.concatenate([zeros, changes]), np.concatenate([zeros, changes + 1])
    sides = (np.concatenate([np.maximum(zeros - 1, 0), changes]),
             np.concatenate([np.minimum(zeros + 1, last), changes + 1]))
    near = np.concatenate(sides)
    fill = sorted(set(near[~exact[near]].tolist()))  # np.unique would import numpy.ma
    if fill:
        vals[fill] = evaluate_grid(evaluator, grid[fill])[0]
        exact[fill] = True
    scale = np.maximum(np.abs(vals[sides[0]]), np.abs(vals[sides[1]]))
    return (vals, hazards, last + 1 - int(np.count_nonzero(exact)),
            (grid[lo_at], grid[hi_at], vals[lo_at] < 0.0, scale))


def _bisect(evaluator: SchemeEvaluator, lo: np.ndarray, hi: np.ndarray, lo_neg: np.ndarray):
    """Refine brackets [lo, hi], with f(lo) < 0 where lo_neg, in place; count the midpoints.

    Each round evaluates the midpoints of the brackets still wider than
    BRACKET_WIDTH, so never those of width 0 (exact zeros), with one
    evaluate_grid call at exact_below = 0, for at most
    MAX_BISECT_ITERS rounds.  Every bracket takes the path it would take
    alone on exact values, since each midpoint's value has the exact
    value's sign.  The hazards of refinement points are not counted.
    """
    points = 0
    for _ in range(MAX_BISECT_ITERS):
        open_ = np.flatnonzero(hi - lo > BRACKET_WIDTH)
        if open_.size == 0:
            break
        mid = 0.5 * (lo[open_] + hi[open_])
        vals = evaluate_grid(evaluator, mid, exact_below=0.0)[0]
        points += mid.size
        to_lo = (vals < 0.0) == lo_neg[open_]
        lo[open_[to_lo]] = mid[to_lo]
        hi[open_[~to_lo]] = mid[~to_lo]
    return points


def _check_range(a: float, b: float, step: float) -> tuple:
    """(a, b, step) as floats, or the DomainError of a range no scan accepts."""
    a, b, step = float(a), float(b), float(step)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(step)):
        raise DomainError("scan bounds and step must be finite")
    if not 0.0 < a < b:
        raise DomainError(f"scan requires 0 < a < b, got ({a}, {b})")
    if step <= 0.0:
        raise DomainError(f"scan step must be positive, got {step}")
    if step > (b - a) * (1.0 + 1e-12):
        raise DomainError(f"step {step} exceeds interval length {b - a}")
    return a, b, step


def scan_zeros(scheme: SchemeSpec, a: float, b: float, step: float) -> ScanResult:
    """All bracketed sign changes and exact zeros of a scheme on the grid a, a+step, ..., b."""
    a, b, step = _check_range(a, b, step)
    evaluator = SchemeEvaluator(scheme)
    ts = grid_points(a, b, step)
    clock = [time.perf_counter()]
    vals, hazards, grid_screened, candidates = _scan_grid(evaluator, ts)
    clock.append(time.perf_counter())

    # Dip diagnostic: near-touch local minima without a sign change trigger
    # a tenfold-finer local re-scan.
    parts, dips, dip_points = [candidates], [], 0
    for i in _dips(vals).tolist():
        lo, t, hi = ts[i - 1:i + 2].tolist()
        fine = grid_points(lo, hi, step / 10.0)
        dip_points += len(fine)
        _, _, screened, fine_candidates = _scan_grid(evaluator, fine)
        grid_screened += screened
        parts.append(fine_candidates)
        dips.append(DipEvent(scheme=scheme, t=t, value=float(vals[i]),
                             zeros_found=fine_candidates[0].size))
    clock.append(time.perf_counter())

    # Every candidate of the scan is refined together, and the residuals take
    # one more batched call; only the hazards of the grid are counted.
    lo, hi, lo_neg, scales = (np.concatenate(part) for part in zip(*parts))
    evaluator.screened = 0  # from here on, the screens of bisection
    midpoints = _bisect(evaluator, lo, hi, lo_neg)
    clock.append(time.perf_counter())
    locations = 0.5 * (lo + hi)
    residuals = evaluate_grid(evaluator, locations)[0]
    clock.append(time.perf_counter())
    # The oracle's M is no cutoff, so its records never flag a jump.
    jumps = ((evaluator._keys(lo)[0] != evaluator._keys(hi)[0])
             & (scheme.kind is not SchemeKind.ORACLE_EM))

    # The sort is stable, so of records at one location the dedup keeps the
    # grid's before a re-scan's, and within a grid an exact zero's.
    records = sorted((ZeroRecord(scheme=scheme, location=location, bracket=bracket,
                                 residual=residual, scale=scale, cutoff_jump=jump)
                      for location, bracket, residual, scale, jump in zip(
                          locations.tolist(), zip(lo.tolist(), hi.tolist()),
                          np.abs(residuals).tolist(), scales.tolist(), jumps.tolist())),
                     key=lambda r: r.location)
    deduped = []
    for rec in records:
        if not (deduped and abs(rec.location - deduped[-1].location) <= 1e-8):
            deduped.append(rec)
    grid_s, dips_s, bisect_s, residual_s = np.diff(clock).tolist()
    stats = ScanStats(grid=len(ts), dip_rescan=dip_points, grid_screened=grid_screened,
                      bisect_screened=evaluator.screened,
                      bisect_exact=midpoints - evaluator.screened, residual=len(locations),
                      grid_s=grid_s, dips_s=dips_s, bisect_s=bisect_s, residual_s=residual_s)
    return ScanResult(scheme=scheme, records=tuple(deduped), dips=tuple(dips),
                      hazard_count=hazards, stats=stats)


def scan_schemes(specs, a: float, b: float, step: float) -> list:
    """scan_zeros of each scheme, in order, once the range is checked and every scheme
    has keyed the grid (check_grid): a refused scheme or point raises before any scan."""
    a, b, step = _check_range(a, b, step)
    check_grid(specs, grid_points(a, b, step))
    return [scan_zeros(spec, a, b, step) for spec in specs]


def _greedy_match(ref_locs: tuple, locs: tuple, tol: float):
    """Injective nearest-first matching within tol; deterministic tie-breaks.

    Both lists are sorted, so bisection finds each reference zero's
    candidates among the locations within 2 tol of it, whatever the rounding.
    """
    starts = np.searchsorted(locs, np.subtract(ref_locs, 2.0 * tol)).tolist()
    stops = np.searchsorted(locs, np.add(ref_locs, 2.0 * tol), side="right").tolist()
    candidates = [(abs(r - locs[j]), r, locs[j], i, j)
                  for i, (r, start, stop) in enumerate(zip(ref_locs, starts, stops))
                  for j in range(start, stop) if abs(r - locs[j]) <= tol]
    candidates.sort()
    used_ref, used_loc = set(), set()
    pairs = []
    for d, r, x, i, j in candidates:
        if i in used_ref or j in used_loc:
            continue
        used_ref.add(i)
        used_loc.add(j)
        pairs.append((r, x))
    pairs.sort()
    missed = tuple(r for i, r in enumerate(ref_locs) if i not in used_ref)
    spurious = tuple(x for j, x in enumerate(locs) if j not in used_loc)
    return tuple(pairs), missed, spurious


def _check_match_tol(match_tol: float) -> None:
    if not (math.isfinite(match_tol) and match_tol > 0.0):
        raise DomainError(f"match_tol must be finite and positive, got {match_tol}")


def compare_zero_sets(interval: tuple, schemes: list, match_tol: float = DEFAULT_MATCH_TOL, *,
                      step: float = 0.005) -> ZeroComparison:
    """Scan every scheme on the interval (scan_schemes) and match each against the reference.

    The first reference-kind entry (ORACLE_EM or REFERENCE_RS) is the
    referee; every other entry is matched against it greedily within
    match_tol.  Matching is injective, so matched + missed always equals the
    reference count.
    """
    a, b = float(interval[0]), float(interval[1])
    _check_match_tol(match_tol)
    specs = list(schemes)
    ref_index = next((i for i, s in enumerate(specs) if s.is_reference), None)
    if ref_index is None:
        raise DomainError("compare_zero_sets needs a reference scheme in the list")

    scans = scan_schemes(specs, a, b, step)
    ref_scan = scans.pop(ref_index)
    matches = []
    for scan in scans:
        pairs, missed, spurious = _greedy_match(
            ref_scan.locations, scan.locations, match_tol)
        matches.append(SchemeMatch(scheme=scan.scheme, scan=scan, matched=pairs,
                                   missed=missed, spurious=spurious))
    return ZeroComparison(reference=ref_scan, matches=tuple(matches))


@dataclass(frozen=True)
class ConjectureSummary:
    """Outcome of one Spira-vs-reference sweep; clean means 0 missed, 0 spurious."""

    t_min: float
    t_max: float
    step: float
    match_tol: float
    reference_label: str
    scheme_label: str
    reference_count: int
    scheme_count: int
    matched_count: int
    missed_count: int
    spurious_count: int
    max_matched_discrepancy: float
    events: tuple  # one dict per missed/spurious zero, with local context
    reference_dips: int
    scheme_dips: int
    hazard_count: int
    stats: tuple = ()  # (label, ScanStats) of the reference scan, then the scheme's

    @property
    def clean(self) -> bool:
        return self.missed_count == 0 and self.spurious_count == 0


def _event(kind: str, location: float, other_locs: tuple, record: Optional[ZeroRecord]):
    nearest = min(other_locs, key=lambda y: abs(y - location), default=None)
    boundary = 2.0 * round(location / 2.0)  # nearest cutoff jump of floor(t/2)
    ev = {
        "kind": kind,
        "location": location,
        "nearest_counterpart": nearest,
        "nearest_distance": None if nearest is None else abs(nearest - location),
        "nearest_cutoff_boundary": boundary,
        "boundary_distance": abs(location - boundary),
    }
    if record is not None:
        ev["bracket"] = list(record.bracket)
        ev["residual"] = record.residual
        ev["scale"] = record.scale
        ev["cutoff_jump"] = record.cutoff_jump
    return ev


def conjecture_sweep(t_max: float, step: float, *,
                     match_tol: float = DEFAULT_MATCH_TOL) -> ConjectureSummary:
    """Spira-scheme zeros (exact floor(t/2) cutoff) vs the EM oracle over [30, t_max].

    Every missed or spurious zero is reported as an event carrying its
    surroundings (nearest counterpart, distance to the nearest cutoff
    boundary, bracket and flags when a record exists).  The sweep always
    completes and returns the summary; a clean run corroborates the
    real-zeros conjecture at desk scale, a dirty one is a finding to read.
    A step or match_tol that is not finite and positive is refused first,
    also on a window shorter than one step, where nothing is scanned.
    """
    t_max = float(t_max)
    if not SWEEP_T_MIN <= t_max <= SWEEP_CEILING:
        raise DomainError(f"t_max must lie in [{SWEEP_T_MIN}, {SWEEP_CEILING}], got {t_max}")
    if not 0.0 < step < math.inf:
        raise DomainError(f"step must be finite and positive, got {step}")
    _check_match_tol(match_tol)

    ref_spec = SchemeSpec(kind=SchemeKind.ORACLE_EM)
    spira_spec = SchemeSpec(kind=SchemeKind.SPIRA)

    if t_max - SWEEP_T_MIN < step:
        return ConjectureSummary(
            t_min=SWEEP_T_MIN, t_max=t_max, step=step, match_tol=match_tol,
            reference_label=ref_spec.label, scheme_label=spira_spec.label,
            reference_count=0, scheme_count=0, matched_count=0,
            missed_count=0, spurious_count=0, max_matched_discrepancy=0.0,
            events=(), reference_dips=0, scheme_dips=0, hazard_count=0)

    comparison = compare_zero_sets((SWEEP_T_MIN, t_max), [ref_spec, spira_spec], match_tol,
                                   step=step)
    match = comparison.matches[0]
    scan = match.scan
    by_location = {r.location: r for r in scan.records}

    events = [_event("missed", loc, scan.locations, None) for loc in match.missed]
    events += [_event("spurious", loc, comparison.reference.locations, by_location.get(loc))
               for loc in match.spurious]
    events.sort(key=lambda e: e["location"])

    return ConjectureSummary(
        t_min=SWEEP_T_MIN, t_max=t_max, step=step, match_tol=match_tol,
        reference_label=ref_spec.label, scheme_label=spira_spec.label,
        reference_count=len(comparison.reference), scheme_count=len(scan),
        matched_count=len(match.matched), missed_count=len(match.missed),
        spurious_count=len(match.spurious),
        max_matched_discrepancy=match.max_matched_discrepancy,
        events=tuple(events),
        reference_dips=len(comparison.reference.dips), scheme_dips=len(scan.dips),
        hazard_count=comparison.reference.hazard_count + scan.hazard_count,
        stats=((ref_spec.label, comparison.reference.stats), (spira_spec.label, scan.stats)))
