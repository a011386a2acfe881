"""Section approximations of Hardy's Z function.

The basic object is the N-th section

    Z_N(t) = sum_{k=1..N} cos(theta(t) - t ln k) / sqrt(k),

the truncated cosine expansion of Z on the critical line.  Three named
schemes are built from it:

  * the approximate-functional-equation main sum 2 Z_Ntilde(t) with the
    square-root cutoff Ntilde(t) = floor(sqrt(t / 2 pi)),
  * Spira's high-cutoff section Z_N(t) with N(t) = floor(t / 2),
  * the generalized family Z(t; alpha) = sum alpha_k cos(theta - t ln k)/sqrt(k)
    over finite coefficient vectors, which specializes to both of the above
    and to the accelerated section.

All sums share one cosine-kernel routine and one accumulation discipline:
terms are produced in ascending k and added with math.fsum (error-free
transformation summation), so term-wise rounding is identical across schemes
and cancels exactly in cross-scheme identity tests.

The kernel is computed as a matrix with one row per evaluation point
(cosine_rows); the scalar cosine_terms is its one-row case, and section_rows
reduces each row of a batch with the same fsum, so a batched grid gives the
scalar values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _tables
from .errors import DomainError, ResourceLimitError
from .special_functions import TWO_PI, theta

# Refuse section cutoffs beyond this many terms (t ~ 2e6 under the Spira rule).
MAX_SECTION_TERMS = 10**6

# Element cap of one block of the batched kernel matrix (rows x terms, 512 kB).
ROW_BLOCK_ELEMENTS = 1 << 16


def _check_terms(n: int) -> int:
    n = int(n)
    if n < 0:
        raise DomainError(f"cosine terms require n >= 0, got {n}")
    if n > MAX_SECTION_TERMS:
        raise ResourceLimitError(f"n = {n} exceeds MAX_SECTION_TERMS = {MAX_SECTION_TERMS}")
    return n


def cosine_rows(ts: np.ndarray, thetas: np.ndarray, n: int) -> np.ndarray:
    """Kernel matrix cos(theta_i - t_i ln k)/sqrt(k), one row per point, k = 1..n.

    ts and thetas are float64 arrays of equal length with thetas[i] =
    theta(ts[i]); the caller has validated both and n.
    """
    return (np.cos(thetas[:, None] - ts[:, None] * _tables.log_k(n))
            * _tables.rsqrt_k(n))


def row_blocks(rows: int, width: int):
    """Consecutive slices of range(rows) holding at most ROW_BLOCK_ELEMENTS // width rows."""
    step = max(1, ROW_BLOCK_ELEMENTS // max(1, width))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def section_rows(ts: np.ndarray, thetas: np.ndarray, n: int, weights=None) -> np.ndarray:
    """section(t_i, n) for every point, or z_custom(t_i, weights) with a weight vector.

    Bit-identical to the scalar functions: the same kernel entries, weighted
    by the same products, each row added with math.fsum.
    """
    n = _check_terms(n)
    out = np.empty(len(ts), dtype=np.float64)
    for block in row_blocks(len(ts), n):
        mat = cosine_rows(ts[block], thetas[block], n)
        if weights is not None:
            mat *= weights
        out[block] = [math.fsum(row.tolist()) for row in mat]
    return out


def cosine_terms(t: float, n: int) -> np.ndarray:
    """The kernel array cos(theta(t) - t ln k)/sqrt(k) for k = 1..n.

    theta is evaluated once; every summation engine in the package consumes
    this routine so that identical terms round identically everywhere.
    """
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"cosine terms require finite t >= 0, got {t}")
    n = _check_terms(n)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    return cosine_rows(np.array([t]), np.array([theta(t)]), n)[0]


@dataclass(frozen=True)
class CutoffPolicy:
    """Rule mapping a height t to a section cutoff N.

    kind is one of "afe" (Ntilde(t) = floor(sqrt(t/2pi))), "spira"
    (N(t) = floor(t/2)), or "fixed" (constant n, used to reproduce plots that
    hold N constant over a t window).
    """

    kind: str
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("afe", "spira", "fixed"):
            raise DomainError(f"unknown cutoff policy kind {self.kind!r}")
        if self.kind == "fixed":
            if self.n is None or int(self.n) < 0:
                raise DomainError("fixed cutoff policy requires n >= 0")
        elif self.n is not None:
            raise DomainError(f"cutoff policy {self.kind!r} takes no n")

    @classmethod
    def afe(cls) -> "CutoffPolicy":
        return cls(kind="afe")

    @classmethod
    def spira(cls) -> "CutoffPolicy":
        return cls(kind="spira")

    @classmethod
    def fixed(cls, n: int) -> "CutoffPolicy":
        return cls(kind="fixed", n=int(n))

    def resolve(self, t: float) -> int:
        """Cutoff at height t; non-negative and non-decreasing in t."""
        t = float(t)
        if not math.isfinite(t) or t < 0.0:
            raise DomainError(f"cutoff resolution requires finite t >= 0, got {t}")
        if self.kind == "afe":
            return int(math.floor(math.sqrt(t / TWO_PI)))
        if self.kind == "spira":
            return int(math.floor(t / 2.0))
        return int(self.n)


@dataclass(frozen=True)
class CoefficientVector:
    """Finite real coefficient sequence alpha_1..alpha_N for Z(t; alpha)."""

    alpha: tuple

    def __post_init__(self):
        vals = tuple(float(a) for a in self.alpha)
        if any(not math.isfinite(a) for a in vals):
            raise DomainError("coefficient vector entries must be finite")
        object.__setattr__(self, "alpha", vals)

    def __len__(self) -> int:
        return len(self.alpha)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.alpha, dtype=np.float64)


def section(t: float, n: int) -> float:
    """Z_n(t) = sum_{k=1..n} cos(theta(t) - t ln k)/sqrt(k); n = 0 gives 0."""
    terms = cosine_terms(t, n)
    if terms.size == 0:
        return 0.0
    return math.fsum(terms)


def afe(t: float) -> float:
    """Approximate-functional-equation main sum 2 Z_Ntilde(t), t >= 2 pi.

    Below 2 pi the cutoff would be 0 and the "approximation" an empty sum;
    that is rejected rather than silently returned as 0.
    """
    t = float(t)
    if not math.isfinite(t) or t < TWO_PI:
        raise DomainError(f"afe requires t >= 2 pi, got {t}")
    return 2.0 * section(t, CutoffPolicy.afe().resolve(t))


def spira(t: float) -> float:
    """Spira's approximation Z_{floor(t/2)}(t), t >= 2."""
    t = float(t)
    if not math.isfinite(t) or t < 2.0:
        raise DomainError(f"spira requires t >= 2, got {t}")
    return section(t, CutoffPolicy.spira().resolve(t))


def z_custom(t: float, alpha) -> float:
    """Generalized section sum_{k=1..N} alpha_k cos(theta(t) - t ln k)/sqrt(k).

    alpha may be a CoefficientVector or any finite 1-d sequence.  The all-ones
    vector reproduces section(t, N) exactly (term-for-term identical floats).
    """
    if isinstance(alpha, CoefficientVector):
        arr = alpha.as_array()
    else:
        arr = np.asarray(alpha, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError("alpha must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise DomainError("alpha entries must be finite")
    if arr.size == 0:
        return 0.0
    return math.fsum(arr * cosine_terms(t, arr.size))
