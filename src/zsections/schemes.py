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
evaluator keeps, screened, tallies the points its oracle screen decided,
for the statistics of the scan that owns it.

There is one evaluation path.  Each point has a run key (the cutoff, the
oracle's partial-sum length M, or the custom vector's length).
evaluate_grid takes fixed-size chunks of points, computes theta once per
chunk with theta_grid and keys the whole chunk with SchemeEvaluator._keys,
the one place that maps a kind to its rule (sections_engine's sqrt_cutoff
or half_cutoff, a fixed n, or the oracle's euler_maclaurin_terms); the
scalar _key is its one-point case, and raises the error of a point outside
the domain.
Points that share a key are evaluated together by the engines'
*_rows functions in SchemeEvaluator._evaluate_run, the only place that
picks an engine by kind.  The zero scanner's grids, bisection rounds and
residuals all go through evaluate_grid, and SchemeEvaluator.evaluate is
the one-point chunk, the API for one height.  The rows functions share
their kernel, reductions and per-point tails with the public scalar
engines, so every value equals the scalar engine's bit for bit.

The one exception is asked for by name: evaluate_grid(..., sign_only=True),
which the zero scanner's bisection uses because it reads only signs.  The
section kinds (AFE, SPIRA, ACCELERATED_COEFF, CUSTOM) then keep a row's
plain float sum wherever an error bound certifies its sign, and fall back
to fsum elsewhere (sections_engine.sum_rows).  The EM oracle screens each
chunk first: at t >= RS4_T_MIN a point takes the fourth-order
Riemann-Siegel value where |RS4| exceeds RS4's error bound plus that of the
oracle's computed value, and only the other points run the oracle
(SchemeEvaluator._screen).  Either way every value has the sign of the
exact one.  REFERENCE_RS and ACCELERATED_TRIANGLE ignore the flag.

The oracle has one configuration, that of the paper's experiments, and
reference_engine alone states it: M = euler_maclaurin_terms(t) terms and
J = 6 Bernoulli corrections.  Its tail then converges at every accepted t,
so a screened point never hides an error; M above MAX_SECTION_TERMS is
refused before evaluation.  A pinned cutoff whose scheme would sum more
than MAX_SECTION_TERMS terms is refused when the SchemeSpec is built.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .acceleration_engine import accelerated_triangle_rows, accelerated_vertical_rows
from .errors import DomainError, ResourceLimitError
from .reference_engine import (
    RS4_T_MIN,
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


_REFERENCE_KINDS = (SchemeKind.REFERENCE_RS, SchemeKind.ORACLE_EM)

# Kinds that sum n + 1 terms at cutoff n: the closing coefficient 2^-(n+1) adds one.
_ACCELERATED_KINDS = (SchemeKind.ACCELERATED_TRIANGLE, SchemeKind.ACCELERATED_COEFF)


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
            if kind in _REFERENCE_KINDS and self.n is not None:
                raise DomainError(f"{kind.value} does not accept a fixed cutoff")
            if self.n is not None and int(self.n) < 1:
                raise DomainError(f"fixed cutoff must be >= 1, got {self.n}")
            limit = MAX_SECTION_TERMS - (kind in _ACCELERATED_KINDS)
            if self.n is not None and int(self.n) > limit:
                raise ResourceLimitError(
                    f"fixed cutoff n = {self.n} exceeds {limit}, the largest {kind.value} "
                    f"cutoff within MAX_SECTION_TERMS = {MAX_SECTION_TERMS}")

    @property
    def label(self) -> str:
        if self.kind is SchemeKind.CUSTOM:
            return f"CUSTOM@{len(self.alpha)}"
        if self.n is not None:
            return f"{self.kind.value}@{self.n}"
        return self.kind.value

    @property
    def is_reference(self) -> bool:
        return self.kind in _REFERENCE_KINDS


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
        # The points the oracle's sign screen decided, for the caller's statistics.
        self.screened = 0

    def _key(self, t: float) -> int:
        """The run key at t, the one-point case of _keys.

        Where _keys refuses t, raises the scheme's error: the oracle's is that
        of z_euler_maclaurin (validated_terms), a section's comes from its
        domain or from a cutoff below 1 (for REFERENCE_RS the square-root
        cutoff reaches 1 exactly at t = 2 pi).
        """
        if self.spec.kind is SchemeKind.ORACLE_EM:
            return validated_terms(t)
        keys, ok = self._keys(np.array([t]))
        if ok[0]:
            return int(keys[0])
        if not (math.isfinite(t) and t >= 0.0):
            raise DomainError(f"cutoff resolution requires finite t >= 0, got {t}")
        raise DomainError(
            f"cutoff resolves to {int(keys[0])} at t = {t}; scheme undefined this low")

    def _keys(self, ts: np.ndarray):
        """Run keys of an array of points: (float64 keys, mask of the accepted points).

        The one place that maps a kind to its rule: the square-root cutoff
        for AFE and REFERENCE_RS, the half cutoff for SPIRA and both
        accelerated kinds, a pinned n or the custom vector's length, and
        euler_maclaurin_terms for the oracle.  Section keys below 1, oracle
        keys above MAX_SECTION_TERMS and points outside finite t >= 0 are
        refused.
        """
        ok = np.isfinite(ts) & (ts >= 0.0)
        safe = np.where(ok, ts, 0.0)
        if self.spec.kind is SchemeKind.ORACLE_EM:
            keys = euler_maclaurin_terms(safe)
            return keys, ok & (keys <= MAX_SECTION_TERMS)
        if self._fixed is not None:
            keys = np.full(len(ts), float(int(self._fixed)))
        elif self.spec.kind in (SchemeKind.AFE, SchemeKind.REFERENCE_RS):
            keys = sqrt_cutoff(safe)
        else:
            keys = half_cutoff(safe)
        return keys, ok & (keys >= 1.0)

    def evaluate(self, t: float) -> EvalPoint:
        """The scheme at one point: the one-point case of _evaluate_chunk."""
        value = np.empty(1, dtype=np.float64)
        hazards = self._evaluate_chunk(np.array([float(t)]), value)
        return EvalPoint(float(value[0]), hazards > 0)

    def value(self, t: float) -> float:
        return self.evaluate(t).value

    def _evaluate_run(self, ts: np.ndarray, thetas: np.ndarray, key: int,
                      sign_only: bool = False):
        """Values and hazard count of points that share one run key.

        With sign_only, the section kinds return values that only carry the
        sign of the exact ones (sections_engine.sum_rows); the reference
        engines and the triangle sum ignore it and return exact values (the
        oracle's screen runs before, in _evaluate_chunk).
        """
        kind = self.spec.kind
        if kind is SchemeKind.REFERENCE_RS:
            return riemann_siegel_rows(ts, thetas, key)
        if kind is SchemeKind.ORACLE_EM:
            return euler_maclaurin_rows(ts, thetas, key), 0
        if kind is SchemeKind.AFE:
            return 2.0 * section_rows(ts, thetas, key, sign_only=sign_only), 0
        if kind is SchemeKind.SPIRA:
            return section_rows(ts, thetas, key, sign_only=sign_only), 0
        if kind is SchemeKind.ACCELERATED_TRIANGLE:
            return accelerated_triangle_rows(ts, thetas, key), 0
        if kind is SchemeKind.ACCELERATED_COEFF:
            return accelerated_vertical_rows(ts, thetas, key, sign_only), 0
        return section_rows(ts, thetas, key, self._alpha, sign_only), 0

    def _screen(self, ts: np.ndarray, thetas: np.ndarray, keys: np.ndarray,
                out: np.ndarray) -> np.ndarray:
        """Write the oracle's sign where RS4 certifies it; returns the points still open.

        At t >= RS4_T_MIN a point is decided where |RS4| exceeds RS4's own
        error bound plus that of the oracle's computed value at M = keys:
        RS4, Z and the oracle then share one sign, and out takes RS4.
        """
        high = np.flatnonzero(ts >= RS4_T_MIN)
        if high.size == 0:
            return np.arange(len(ts))
        z, err = riemann_siegel4_rows(ts[high], thetas[high])
        tau = err + euler_maclaurin_error(ts[high], keys[high], np.abs(z) + err)
        sure = np.abs(z) > tau
        out[high[sure]] = z[sure]
        self.screened += int(np.count_nonzero(sure))
        open_ = np.ones(len(ts), dtype=bool)
        open_[high[sure]] = False
        return np.flatnonzero(open_)

    def _evaluate_chunk(self, ts: np.ndarray, out: np.ndarray, sign_only: bool = False) -> int:
        """Fill out with the values at ts; returns the hazard count.

        Points are keyed with the array rules of _keys.  The valid prefix,
        up to the first point outside the scheme's domain, is evaluated
        first, a run of equal key at a time, so an error at an earlier point
        surfaces first; then _key raises the error of the refused point.
        Under sign_only the oracle's screen first decides what it can of the
        prefix, at once, since bisection midpoints seldom share M; the
        points it leaves open go on in order.
        """
        keys, ok = self._keys(ts)
        stop = len(ts) if ok.all() else int(np.argmin(ok))
        thetas = theta_grid(ts[:stop])
        at = slice(0, stop)
        if sign_only and self.spec.kind is SchemeKind.ORACLE_EM:
            at = self._screen(ts[:stop], thetas, keys[:stop], out)
        ts_at, thetas_at, keys_at = ts[at], thetas[at], keys[at]
        vals = np.empty(len(ts_at), dtype=np.float64)
        hazards = 0
        for run in _key_runs(keys_at):
            vals[run], h = self._evaluate_run(ts_at[run], thetas_at[run],
                                              int(keys_at[run.start]), sign_only)
            hazards += h
        out[at] = vals
        if stop < len(ts):
            self._key(float(ts[stop]))  # raises: _keys refused this point
        return hazards


def evaluate_grid(evaluator: SchemeEvaluator, ts, *, sign_only: bool = False):
    """Evaluate a scheme over a grid of points: (values array, hazard count).

    Points are processed in chunks of GRID_CHUNK, each as arrays (see
    SchemeEvaluator._evaluate_chunk); values are bit-for-bit those of
    evaluator.evaluate at each point.  With sign_only, each value is only
    guaranteed to have the sign of that one (and to be 0 where it is 0).
    """
    ts = np.asarray(ts, dtype=np.float64)
    values = np.empty(len(ts), dtype=np.float64)
    hazards = 0
    for start in range(0, len(ts), GRID_CHUNK):
        stop = start + GRID_CHUNK
        hazards += evaluator._evaluate_chunk(ts[start:stop], values[start:stop], sign_only)
    return values, hazards


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
