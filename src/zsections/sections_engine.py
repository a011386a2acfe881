"""Section approximations of Hardy's Z function.

The basic object is the N-th section

    Z_N(t) = sum_{k=1..N} cos(theta(t) - t ln k) / sqrt(k),

the truncated cosine expansion of Z on the critical line.  Three named
schemes are built from it:

  * the approximate-functional-equation main sum 2 Z_Ntilde(t) with the
    square-root cutoff Ntilde(t) = floor(sqrt(t / 2 pi)) (sqrt_cutoff),
  * Spira's high-cutoff section Z_N(t) with N(t) = floor(t / 2) (half_cutoff),
  * the generalized family Z(t; alpha) = sum alpha_k cos(theta - t ln k)/sqrt(k)
    over finite coefficient vectors, which specializes to both of the above
    and to the accelerated section.

All sums share one cosine-kernel routine and one accumulation discipline:
terms are produced in ascending k and every value is added with math.fsum
(error-free transformation summation, correctly rounded), so term-wise
rounding is identical across schemes and cancels exactly in cross-scheme
identity tests.

The kernel is computed as a matrix with one row per evaluation point
(cosine_rows); the scalar cosine_terms is its one-row case, and section_rows
reduces each row of a batch with sum_rows, the same fsum, so a batched grid
gives the scalar values bit for bit.  Given weights, section_rows gives
z_custom's values, and the accelerated section's vertical form is such a
weighted section of N + 1 terms.  A caller that needs a value only
within x of zero, and elsewhere only its sign, passes exact_below = x: a
row whose float sum the classical error bound certifies beyond x keeps that
sum, and every other row takes fsum.  Likewise each cutoff rule is written
once, as a numpy expression that takes a float or an array: afe and spira
apply it to one height, and the scheme layer to a whole chunk of heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _tables
from .errors import DomainError, ResourceLimitError
from .special_functions import TWO_PI, theta

# Refuse section cutoffs beyond this many terms (t ~ 2e6 under the Spira rule).
MAX_SECTION_TERMS = 10**6

# Element cap of one block of the batched kernel matrix (rows x terms, 512 kB).
ROW_BLOCK_ELEMENTS = 1 << 16

# sum_rows certifies float sums only in matrices of at least this many elements;
# below about 300 the fixed cost of the certificate exceeds that of fsum
# (measured on a 2-core Intel Xeon VM, numpy 2.4).
FLOAT_SUM_MIN_ELEMENTS = 256


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


def row_blocks(rows: int, width: int, elements: int = ROW_BLOCK_ELEMENTS):
    """Consecutive slices of range(rows) holding at most elements // width rows."""
    step = max(1, elements // max(1, width))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def sum_rows(mat: np.ndarray, exact_below=math.inf):
    """math.fsum of every row, or a float sum certified beyond exact_below: (values, exact).

    exact_below is a threshold x >= 0, and exact marks the rows that took
    fsum.  In any order, a row's float sum s differs from the exact one by
    at most gamma_{n-1} sum|x_i| (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 4.2), so where |s| exceeds x plus twice n 2^-53 times
    the float sum of |x_i| (the factor two absorbs the rounding of that sum
    and of the product), the exact sum, and so fsum, has the sign of s and a
    magnitude above x; the row returns s.  Every other row, an exact zero
    and a nan or inf included, returns fsum, and so does every row of a
    matrix smaller than FLOAT_SUM_MIN_ELEMENTS or at x = inf (the default).
    """
    if mat.size < FLOAT_SUM_MIN_ELEMENTS or exact_below == math.inf:
        return (np.array([math.fsum(row.tolist()) for row in mat], dtype=np.float64),
                np.ones(len(mat), dtype=bool))
    with np.errstate(over="ignore", invalid="ignore"):  # such rows take fsum below
        fast = mat.sum(axis=1)
        bound = np.abs(mat).sum(axis=1)
    bound *= 2.0 * mat.shape[1] * 2.0**-53
    exact = ~(np.abs(fast) > exact_below + bound)
    if exact.any():
        fast[exact] = [math.fsum(row.tolist()) for row in mat[exact]]  # a row's floats at a time
    return fast, exact


def section_rows(ts: np.ndarray, thetas: np.ndarray, n: int, weights=None,
                 exact_below=math.inf):
    """section(t_i, n) for every point, or z_custom(t_i, weights): (values, exact).

    Bit-identical to the scalar functions where exact: the same kernel
    entries, weighted by the same products, each row added with math.fsum;
    see sum_rows for exact_below.
    """
    n = _check_terms(n)
    out = np.empty(len(ts), dtype=np.float64)
    exact = np.empty(len(ts), dtype=bool)
    for block in row_blocks(len(ts), n):
        mat = cosine_rows(ts[block], thetas[block], n)
        if weights is not None:
            mat *= weights
        out[block], exact[block] = sum_rows(mat, exact_below)
    return out, exact


def cosine_terms(t: float, n: int) -> np.ndarray:
    """The kernel array cos(theta(t) - t ln k)/sqrt(k) for k = 1..n.

    theta is evaluated once.  The scalar engines (section, z_custom, both
    accelerated forms) consume this routine; it is the one-row case of
    cosine_rows, which the *_rows engines call directly, so identical terms
    round identically everywhere.
    """
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"cosine terms require finite t >= 0, got {t}")
    n = _check_terms(n)
    if n == 0:
        return np.empty(0, dtype=np.float64)
    return cosine_rows(np.array([t]), np.array([theta(t)]), n)[0]


def sqrt_cutoff(t):
    """The AFE cutoff Ntilde(t) = floor(sqrt(t/2pi)), of a float or elementwise of an array.

    Division, sqrt and floor are correctly rounded, so the value is that of
    the same expression written with math, bit for bit; t is taken as
    validated (finite, >= 0).
    """
    return np.floor(np.sqrt(t / TWO_PI))


def half_cutoff(t):
    """Spira's cutoff N(t) = floor(t/2), of a float or elementwise of an array."""
    return np.floor(t / 2.0)


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
    return 2.0 * section(t, int(sqrt_cutoff(t)))


def spira(t: float) -> float:
    """Spira's approximation Z_{floor(t/2)}(t), t >= 2."""
    t = float(t)
    if not math.isfinite(t) or t < 2.0:
        raise DomainError(f"spira requires t >= 2, got {t}")
    return section(t, int(half_cutoff(t)))


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
