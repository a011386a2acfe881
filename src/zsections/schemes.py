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
alongside values rather than counted in hidden state.

evaluate_grid is the batched path for whole grids.  It takes fixed-size
chunks of points, computes theta once per chunk with theta_grid, splits the
chunk into runs of constant cutoff (or constant oracle length M), and
evaluates each run as a kernel matrix with the engines' *_rows functions.
Those share their kernel, reductions and per-point tails with the scalar
functions, so every grid value equals SchemeEvaluator.evaluate at that point
bit for bit.  Bisection and residuals keep calling evaluate point by point.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .acceleration_engine import (
    accelerated_triangle,
    accelerated_vertical,
    accelerated_vertical_rows,
)
from .errors import DomainError
from .reference_engine import (
    euler_maclaurin_rows,
    euler_maclaurin_terms,
    riemann_siegel_rows,
    z_euler_maclaurin,
    z_riemann_siegel,
)
from .sections_engine import CoefficientVector, CutoffPolicy, section, section_rows, z_custom
from .special_functions import TWO_PI, theta_grid

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


# Kinds whose sums are cut off at floor(t/2) when no override is given.
_HALF_T_KINDS = (SchemeKind.SPIRA, SchemeKind.ACCELERATED_TRIANGLE,
                 SchemeKind.ACCELERATED_COEFF)

_REFERENCE_KINDS = (SchemeKind.REFERENCE_RS, SchemeKind.ORACLE_EM)


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


class SchemeEvaluator:
    """Callable evaluation of one scheme, with per-point hazard flags."""

    def __init__(self, spec: SchemeSpec, *, oracle_terms: Optional[int] = None,
                 correction_order: int = 6):
        self.spec = spec
        self.oracle_terms = oracle_terms
        self.correction_order = correction_order
        if spec.kind in (SchemeKind.AFE, SchemeKind.REFERENCE_RS):
            self._policy = CutoffPolicy.afe()
        else:
            self._policy = CutoffPolicy.spira()
        self._alpha = spec.alpha.as_array() if spec.alpha is not None else None

    @property
    def label(self) -> str:
        return self.spec.label

    @property
    def is_reference(self) -> bool:
        return self.spec.is_reference

    def cutoff(self, t: float) -> Optional[int]:
        """The term count used at height t (None when no cutoff notion applies)."""
        spec = self.spec
        if spec.kind is SchemeKind.CUSTOM:
            return len(spec.alpha)
        if spec.kind is SchemeKind.ORACLE_EM:
            return None
        if spec.n is not None:
            return int(spec.n)
        return self._policy.resolve(t)

    def _section_order(self, t: float) -> int:
        """Cutoff of a section kind at t; DomainError where it resolves below 1."""
        if self.spec.n is not None:
            return int(self.spec.n)
        n = self._policy.resolve(t)
        if n < 1:
            raise DomainError(
                f"cutoff resolves to {n} at t = {t}; scheme undefined this low")
        return n

    def evaluate(self, t: float) -> EvalPoint:
        kind = self.spec.kind
        if kind is SchemeKind.REFERENCE_RS:
            ref = z_riemann_siegel(t)
            return EvalPoint(ref.z, ref.hazard)
        if kind is SchemeKind.ORACLE_EM:
            ref = z_euler_maclaurin(t, terms=self.oracle_terms,
                                    correction_order=self.correction_order)
            return EvalPoint(ref.z, False)
        if kind is SchemeKind.CUSTOM:
            return EvalPoint(z_custom(t, self.spec.alpha), False)
        n = self._section_order(t)
        if kind is SchemeKind.AFE:
            return EvalPoint(2.0 * section(t, n), False)
        if kind is SchemeKind.SPIRA:
            return EvalPoint(section(t, n), False)
        if kind is SchemeKind.ACCELERATED_TRIANGLE:
            return EvalPoint(accelerated_triangle(t, n), False)
        return EvalPoint(accelerated_vertical(t, n), False)

    def value(self, t: float) -> float:
        return self.evaluate(t).value

    def _run_key(self, t: float) -> Optional[int]:
        """The batched path's per-run constant at t: the cutoff, or M for the oracle.

        None sends the point down the scalar path instead: points outside the
        scheme's domain (where evaluate raises its own error) and the
        row-first accelerated kind, which has no batched form.
        """
        kind = self.spec.kind
        if not (math.isfinite(t) and t >= 0.0) or kind is SchemeKind.ACCELERATED_TRIANGLE:
            return None
        try:
            if kind is SchemeKind.ORACLE_EM:
                return euler_maclaurin_terms(t, self.oracle_terms, self.correction_order)
            if kind is SchemeKind.REFERENCE_RS:
                return self._policy.resolve(t) if t >= TWO_PI else None
            if kind is SchemeKind.CUSTOM:
                return len(self._alpha)
            return self._section_order(t)
        except DomainError:
            return None

    def _evaluate_run(self, ts: np.ndarray, thetas: np.ndarray, key: int):
        """Values and hazard count of points that share one run key."""
        kind = self.spec.kind
        if kind is SchemeKind.REFERENCE_RS:
            return riemann_siegel_rows(ts, thetas, key)
        if kind is SchemeKind.ORACLE_EM:
            return euler_maclaurin_rows(ts, thetas, key, self.correction_order), 0
        if kind is SchemeKind.AFE:
            return 2.0 * section_rows(ts, thetas, key), 0
        if kind is SchemeKind.SPIRA:
            return section_rows(ts, thetas, key), 0
        if kind is SchemeKind.ACCELERATED_COEFF:
            return accelerated_vertical_rows(ts, thetas, key), 0
        return section_rows(ts, thetas, key, self._alpha), 0

    def _evaluate_chunk(self, ts: np.ndarray, out: np.ndarray) -> int:
        """Fill out with the values at ts; returns the hazard count.

        theta comes from one theta_grid call over the chunk's batched points.
        Runs of equal key are evaluated as matrices, the other points one by
        one, all in grid order, so an error surfaces at the same point as on
        the scalar path.
        """
        keys = [self._run_key(t) for t in ts.tolist()]
        batched = np.flatnonzero([k is not None for k in keys])
        thetas = np.zeros(len(ts), dtype=np.float64)
        thetas[batched] = theta_grid(ts[batched])
        hazards = 0
        start = 0
        for key, run in itertools.groupby(keys):
            stop = start + sum(1 for _ in run)
            if key is None:
                for i in range(start, stop):
                    point = self.evaluate(float(ts[i]))
                    out[i] = point.value
                    hazards += point.hazard
            else:
                out[start:stop], h = self._evaluate_run(ts[start:stop], thetas[start:stop], key)
                hazards += h
            start = stop
        return hazards


def evaluate_grid(evaluator: SchemeEvaluator, ts, threads: int = 1, chunk: int = GRID_CHUNK):
    """Evaluate a scheme over a grid of points: (values array, hazard count).

    Points are processed in fixed-size chunks, each as arrays (see
    SchemeEvaluator._evaluate_chunk); values are bit-for-bit those of
    evaluator.evaluate at each point.  threads is accepted for interface
    compatibility and does not change the result.
    """
    ts = np.asarray(ts, dtype=np.float64)
    values = np.empty(len(ts), dtype=np.float64)
    hazards = 0
    for start in range(0, len(ts), chunk):
        hazards += evaluator._evaluate_chunk(ts[start:start + chunk],
                                             values[start:start + chunk])
    return values, hazards


_SCHEME_NAMES = {
    "rs": SchemeKind.REFERENCE_RS,
    "reference_rs": SchemeKind.REFERENCE_RS,
    "reference-rs": SchemeKind.REFERENCE_RS,
    "em": SchemeKind.ORACLE_EM,
    "oracle": SchemeKind.ORACLE_EM,
    "oracle_em": SchemeKind.ORACLE_EM,
    "oracle-em": SchemeKind.ORACLE_EM,
    "afe": SchemeKind.AFE,
    "spira": SchemeKind.SPIRA,
    "acc-triangle": SchemeKind.ACCELERATED_TRIANGLE,
    "acc_triangle": SchemeKind.ACCELERATED_TRIANGLE,
    "accelerated_triangle": SchemeKind.ACCELERATED_TRIANGLE,
    "accelerated-triangle": SchemeKind.ACCELERATED_TRIANGLE,
    "acc": SchemeKind.ACCELERATED_COEFF,
    "acc-coeff": SchemeKind.ACCELERATED_COEFF,
    "acc_coeff": SchemeKind.ACCELERATED_COEFF,
    "accelerated": SchemeKind.ACCELERATED_COEFF,
    "accelerated_coeff": SchemeKind.ACCELERATED_COEFF,
    "accelerated-coeff": SchemeKind.ACCELERATED_COEFF,
}


def parse_scheme_kind(name: str) -> SchemeKind:
    """Map a command-line scheme name to its kind (CUSTOM is handled by the CLI)."""
    key = name.strip().lower()
    try:
        return _SCHEME_NAMES[key]
    except KeyError:
        raise DomainError(
            f"unknown scheme {name!r}; choose from "
            f"{sorted(set(_SCHEME_NAMES))} or custom:<coeff-file>") from None
