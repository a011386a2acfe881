"""Named evaluation schemes: one uniform handle over every Z approximation.

A SchemeSpec names which approximation to run (the two reference engines,
the AFE main sum, Spira's section, the accelerated section in either
summation order, or a custom coefficient vector) plus an optional fixed
cutoff override n.  Without an override, cutoffs resolve per evaluation
point: Ntilde(t) = floor(sqrt(t/2pi)) for the AFE and N(t) = floor(t/2) for
the Spira and accelerated schemes.  Fixed overrides exist because several of
the plots hold N constant across a t window.

SchemeEvaluator turns a spec into a callable object.  Evaluation is pure
(no shared mutable state); per-point numerical-hazard flags are returned
alongside values rather than counted in hidden state.  The one counter an
evaluator keeps, screened, tallies the points its screen answered, for the
statistics of the scan that owns it.

There is one evaluation path.  Each point has a run key (the cutoff, the
oracle's partial-sum length M, or the custom vector's length).
evaluate_grid keys the whole grid with SchemeEvaluator._keys, the one
place that maps a kind to its rule (sections_engine's sqrt_cutoff or
half_cutoff, a fixed n, or the oracle's euler_maclaurin_terms), and refuses
a grid with a point outside the domain before evaluating any point: the
scalar _key, the one-point case, raises that point's error.  It then takes
fixed-size chunks of points and computes theta once per chunk with
theta_grid.  check_grid keys one grid for a list of schemes, so that a
command that runs several refuses before any of them evaluates.
Points that share a key are evaluated together by the engines'
*_rows functions in SchemeEvaluator._evaluate_run, the only place that
picks an exact engine by kind.  The zero scanner's grids, bisection rounds
and residuals all go through evaluate_grid, and SchemeEvaluator.evaluate is
the one-point chunk, the API for one height.  The rows functions share
their kernel, reductions and per-point tails with the public scalar
engines, so every exact value equals the scalar engine's bit for bit.

A caller that needs a value only within x of zero, and elsewhere only its
sign, asks evaluate_grid(..., exact_below=x), which also returns a mask of
the exact points; every other point carries a cheap value c, kept only
where its error bound b certifies |c| > x + b, so the exact value has c's
sign and lies beyond x too.  SchemeEvaluator._screen picks the cheap
engines, at t >= RS4_T_MIN only: the fourth-order Riemann-Siegel value RS4
for the oracle, and RS4 minus the rotated Euler-Maclaurin tail
(reference_engine.em_tail_rows) for Spira's section.  The other section
kinds, and the points the screen leaves open, keep a row's float sum where
sum_rows certifies it beyond x (AFE, twice a section, beyond x/2).
REFERENCE_RS and ACCELERATED_TRIANGLE are always exact.

The oracle has one configuration, that of the paper's experiments, and
reference_engine alone states it: M = euler_maclaurin_terms(t) terms and
J = 6 Bernoulli corrections.  Its tail then converges at every accepted t,
so a screened point never hides an error.  _keys refuses every kind's
term limit (_key_limit) before any point is evaluated: a key that would sum
more than MAX_SECTION_TERMS terms or cells, or an accelerated order past
MAX_COEFF_ORDER, the last with correctly rounded coefficients.  A pinned
cutoff or a custom vector past it is refused when the SchemeSpec is built.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .acceleration_engine import (
    MAX_COEFF_ORDER,
    MAX_TRIANGLE_ORDER,
    accelerated_triangle_rows,
    accelerated_vertical_rows,
)
from .errors import DomainError, ResourceLimitError
from .reference_engine import (
    RS4_T_MIN,
    em_tail_rows,
    euler_maclaurin_error,
    euler_maclaurin_rows,
    euler_maclaurin_terms,
    riemann_siegel4_rows,
    riemann_siegel_rows,
    validated_terms,
)
from .sections_engine import (
    MAX_SECTION_TERMS,
    CoefficientVector,
    half_cutoff,
    section_rows,
    sqrt_cutoff,
)
from .special_functions import theta_grid

# Points per chunk of a grid evaluation; bounds the longdouble theta temporaries.
GRID_CHUNK = 4096


class SchemeKind(str, enum.Enum):
    REFERENCE_RS = "REFERENCE_RS"
    ORACLE_EM = "ORACLE_EM"
    AFE = "AFE"
    SPIRA = "SPIRA"
    ACCELERATED_TRIANGLE = "ACCELERATED_TRIANGLE"
    ACCELERATED_COEFF = "ACCELERATED_COEFF"
    CUSTOM = "CUSTOM"


REFERENCE_KINDS = (SchemeKind.REFERENCE_RS, SchemeKind.ORACLE_EM)

# The accelerated section in its two summation orders.
ACCELERATED_KINDS = (SchemeKind.ACCELERATED_TRIANGLE, SchemeKind.ACCELERATED_COEFF)


def _key_limit(kind: SchemeKind) -> int:
    """A kind's largest run key: MAX_COEFF_ORDER = 20000 for ACCELERATED_COEFF, the last
    order with correctly rounded coefficients (t < 40002), MAX_TRIANGLE_ORDER = 1412 for
    the triangle, the last order of at most MAX_SECTION_TERMS cells (t < 2826), and
    MAX_SECTION_TERMS terms for every other kind."""
    return {SchemeKind.ACCELERATED_COEFF: MAX_COEFF_ORDER,
            SchemeKind.ACCELERATED_TRIANGLE: MAX_TRIANGLE_ORDER}.get(kind, MAX_SECTION_TERMS)


def _limit_error(kind: SchemeKind, key: str) -> ResourceLimitError:
    if kind is SchemeKind.ACCELERATED_COEFF:
        why = f"the last {kind.value} order with correctly rounded coefficients"
    else:
        why = f"the largest {kind.value} cutoff within MAX_SECTION_TERMS = {MAX_SECTION_TERMS}"
    return ResourceLimitError(f"{key} exceeds {_key_limit(kind)}, {why}")


@dataclass(frozen=True)
class SchemeSpec:
    """A named approximation scheme, optionally pinned to a fixed cutoff n."""

    kind: SchemeKind
    n: Optional[int] = None
    alpha: Optional[CoefficientVector] = None

    def __post_init__(self):
        kind = SchemeKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is SchemeKind.CUSTOM:
            if self.alpha is None or len(self.alpha) == 0:
                raise DomainError("CUSTOM scheme requires a non-empty coefficient vector")
            if self.n is not None:
                raise DomainError("CUSTOM scheme takes its length from alpha, not n")
            if not isinstance(self.alpha, CoefficientVector):
                object.__setattr__(self, "alpha", CoefficientVector(alpha=tuple(self.alpha)))
        else:
            if self.alpha is not None:
                raise DomainError(f"{kind.value} does not accept a coefficient vector")
            if kind in REFERENCE_KINDS and self.n is not None:
                raise DomainError(f"{kind.value} does not accept a fixed cutoff")
            if self.n is not None and int(self.n) < 1:
                raise DomainError(f"fixed cutoff must be >= 1, got {self.n}")
        # A custom vector's length is its fixed cutoff, under the term limit of _keys.
        n = len(self.alpha) if kind is SchemeKind.CUSTOM else self.n
        if n is not None and int(n) > _key_limit(kind):
            raise _limit_error(kind, f"fixed cutoff n = {n}")

    @functools.cached_property
    def label(self) -> str:
        """KIND, KIND@n when pinned, or CUSTOM@n:<8 hex digits of SHA-256 of its float64s>."""
        if self.kind is SchemeKind.CUSTOM:
            # Imported here: hashlib adds about 4 MB to every run's RSS, and
            # only custom labels need it.
            import hashlib

            digest = hashlib.sha256(self.alpha.as_array().tobytes()).hexdigest()
            return f"CUSTOM@{len(self.alpha)}:{digest[:8]}"
        if self.n is not None:
            return f"{self.kind.value}@{self.n}"
        return self.kind.value

    @property
    def is_reference(self) -> bool:
        return self.kind in REFERENCE_KINDS


class EvalPoint(NamedTuple):
    value: float
    hazard: bool


def _key_runs(keys: np.ndarray):
    """Consecutive slices of keys over which the key stays the same."""
    bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
    for start, stop in zip(bounds, bounds[1:]):
        if start < stop:
            yield slice(start, stop)


class SchemeEvaluator:
    """Callable evaluation of one scheme, with per-point hazard flags."""

    def __init__(self, spec: SchemeSpec):
        self.spec = spec
        self._fixed = len(spec.alpha) if spec.alpha is not None else spec.n
        self._alpha = spec.alpha.as_array() if spec.alpha is not None else None
        # The points the screen answered (_screen), for the caller's statistics.
        self.screened = 0

    def _key(self, t: float) -> int:
        """The run key at t, the one-point case of _keys.

        Where _keys refuses t, raises the scheme's error: the oracle's is that
        of z_euler_maclaurin (validated_terms), a section's comes from its
        domain, from a cutoff below 1 (for REFERENCE_RS the square-root
        cutoff reaches 1 exactly at t = 2 pi) or from the term limit.
        """
        if self.spec.kind is SchemeKind.ORACLE_EM:
            return validated_terms(t)
        keys, ok = self._keys(np.array([t]))
        if ok[0]:
            return int(keys[0])
        if not (math.isfinite(t) and t >= 0.0):
            raise DomainError(f"cutoff resolution requires finite t >= 0, got {t}")
        if keys[0] >= 1.0:
            raise _limit_error(self.spec.kind, f"cutoff {keys[0]:.15g} at t = {t}")
        raise DomainError(
            f"cutoff resolves to {int(keys[0])} at t = {t}; scheme undefined this low")

    def _keys(self, ts: np.ndarray):
        """Run keys of an array of points: (float64 keys, mask of the accepted points).

        The one place that maps a kind to its rule: the square-root cutoff
        for AFE and REFERENCE_RS, the half cutoff for SPIRA and both
        accelerated kinds, a pinned n or the custom vector's length, and
        euler_maclaurin_terms for the oracle.  Points outside finite t >= 0,
        keys below 1 and keys past the kind's term limit (_key_limit) are
        refused.
        """
        ok = np.isfinite(ts) & (ts >= 0.0)
        safe = np.where(ok, ts, 0.0)
        if self.spec.kind is SchemeKind.ORACLE_EM:
            keys = euler_maclaurin_terms(safe)
        elif self._fixed is not None:
            keys = np.full(len(ts), float(int(self._fixed)))
        elif self.spec.kind in (SchemeKind.AFE, SchemeKind.REFERENCE_RS):
            keys = sqrt_cutoff(safe)
        else:
            keys = half_cutoff(safe)
        return keys, ok & (keys >= 1.0) & (keys <= _key_limit(self.spec.kind))

    def grid_keys(self, ts: np.ndarray) -> np.ndarray:
        """Run keys of a float64 array, or the error _key raises at its first refused point."""
        keys, ok = self._keys(ts)
        if not ok.all():
            self._key(float(ts[np.argmin(ok)]))  # raises: _keys refused this point
        return keys

    def evaluate(self, t: float) -> EvalPoint:
        """The scheme at one point: the one-point grid of evaluate_grid."""
        values, hazards, _ = evaluate_grid(self, [float(t)])
        return EvalPoint(float(values[0]), hazards > 0)

    def value(self, t: float) -> float:
        return self.evaluate(t).value

    def _evaluate_run(self, ts: np.ndarray, thetas: np.ndarray, key: int, exact_below: float):
        """Values, exact mask (True for an exact engine) and hazard count of points
        that share one run key; AFE, twice a section, certifies at exact_below / 2."""
        kind = self.spec.kind
        if kind is SchemeKind.REFERENCE_RS:
            values, hazards = riemann_siegel_rows(ts, thetas, key)
            return values, True, hazards
        if kind is SchemeKind.ORACLE_EM:
            return euler_maclaurin_rows(ts, thetas, key), True, 0
        if kind is SchemeKind.ACCELERATED_TRIANGLE:
            return accelerated_triangle_rows(ts, thetas, key), True, 0
        if kind is SchemeKind.AFE:
            values, exact = section_rows(ts, thetas, key, exact_below=0.5 * exact_below)
            return 2.0 * values, exact, 0
        if kind is SchemeKind.ACCELERATED_COEFF:
            return (*accelerated_vertical_rows(ts, thetas, key, exact_below), 0)
        return (*section_rows(ts, thetas, key, self._alpha, exact_below), 0)

    def _screen(self, ts: np.ndarray, thetas: np.ndarray, keys: np.ndarray,
                exact_below: float, out: np.ndarray, exact: np.ndarray) -> int:
        """Write cheap values certified beyond exact_below, clear exact there, return their count.

        At t >= RS4_T_MIN the oracle's is RS4, within RS4's bound plus
        euler_maclaurin_error at M = keys; Spira's section at n = keys is RS4
        minus em_tail_rows' tail, within both bounds, where the tail converges
        fast: (|s| + 2J)/(2 pi n) <= 1/2 at the oracle's J = 6.
        """
        at = np.flatnonzero(ts >= RS4_T_MIN)
        if self.spec.kind is SchemeKind.SPIRA:
            at = at[np.hypot(0.5, ts[at]) + 12.0 <= math.pi * keys[at]]
        if at.size == 0:
            return 0
        z, err = riemann_siegel4_rows(ts[at], thetas[at])
        if self.spec.kind is SchemeKind.ORACLE_EM:
            err = err + euler_maclaurin_error(ts[at], keys[at], np.abs(z) + err)
        else:
            tail, tail_err = em_tail_rows(ts[at], thetas[at], keys[at], np.abs(z) + err)
            z, err = z - tail, err + tail_err
        certified = np.abs(z) > exact_below + err
        sure = at[certified]
        out[sure] = z[certified]
        exact[sure] = False
        self.screened += sure.size
        return sure.size

    def _evaluate_chunk(self, ts: np.ndarray, keys: np.ndarray, out: np.ndarray,
                        exact: np.ndarray, exact_below: float) -> int:
        """Fill out and exact at ts, whose run keys are accepted; returns the hazard count.

        After the screen, points go on in runs of equal key, in grid order, so
        an error raised by an engine is that of the earliest point."""
        thetas = theta_grid(ts)
        exact[:] = True
        answered = 0
        if exact_below < math.inf and self.spec.kind in (SchemeKind.ORACLE_EM, SchemeKind.SPIRA):
            answered = self._screen(ts, thetas, keys, exact_below, out, exact)
        hazards = 0
        for run in _key_runs(keys):
            if answered:  # the points of the run the screen left open
                run = run.start + exact[run].nonzero()[0]
                if run.size == 0:
                    continue
            out[run], exact[run], h = self._evaluate_run(ts[run], thetas[run], int(keys[run][0]),
                                                         exact_below)
            hazards += h
        return hazards


def evaluate_grid(evaluator: SchemeEvaluator, ts, *, exact_below: float = math.inf):
    """Evaluate a scheme over a grid of points: (values, hazard count, exact).

    The whole grid is keyed first (SchemeEvaluator.grid_keys), and a grid
    with a point outside the scheme's domain is refused before any point is
    evaluated.  Points are then processed in chunks of GRID_CHUNK, each as
    arrays (see SchemeEvaluator._evaluate_chunk).  exact marks the values
    bit for bit those of evaluator.evaluate, all of them at the default
    exact_below = inf; any other value has the exact value's sign, and both
    exceed exact_below in magnitude.
    """
    ts = np.asarray(ts, dtype=np.float64)
    keys = evaluator.grid_keys(ts)
    values = np.empty(len(ts), dtype=np.float64)
    exact = np.empty(len(ts), dtype=bool)
    hazards = 0
    for start in range(0, len(ts), GRID_CHUNK):
        at = slice(start, start + GRID_CHUNK)
        hazards += evaluator._evaluate_chunk(ts[at], keys[at], values[at], exact[at],
                                             exact_below)
    return values, hazards, exact


def check_grid(specs, ts: np.ndarray) -> None:
    """Key the float64 grid ts for every spec in turn (grid_keys), so that the first
    point any scheme refuses raises before any scheme evaluates the grid."""
    for spec in specs:
        SchemeEvaluator(spec).grid_keys(ts)


_SCHEME_NAMES = {
    "rs": SchemeKind.REFERENCE_RS,
    "em": SchemeKind.ORACLE_EM,
    "oracle": SchemeKind.ORACLE_EM,
    "afe": SchemeKind.AFE,
    "spira": SchemeKind.SPIRA,
    "acc": SchemeKind.ACCELERATED_COEFF,
    "acc-triangle": SchemeKind.ACCELERATED_TRIANGLE,
}


def parse_scheme_kind(name: str) -> SchemeKind:
    """Map a command-line scheme name to its kind (CUSTOM is handled by the CLI)."""
    key = name.strip().lower()
    try:
        return _SCHEME_NAMES[key]
    except KeyError:
        raise DomainError(
            f"unknown scheme {name!r}; choose from "
            f"{sorted(_SCHEME_NAMES)} or custom:<coeff-file>") from None
