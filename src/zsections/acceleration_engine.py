"""The binomially accelerated section, in both summation orders.

The accelerated section of order N is the double sum over the triangle
0 <= k <= n <= N of

    beta0[n, k] * cos(theta(t) - t ln(k+1)) / sqrt(k+1),
    beta0[n, k] = 2^-(n+1) C(n, k),

summed row-first (the "triangle" or horizontal form).  Swapping the order
and summing over k first collapses each column to a single coefficient

    alphatilde_k = sum_{n=k-1..N} 2^-(n+1) C(n, k-1) = P[Binomial(N+1, 1/2) >= k],

turning the double sum into an ordinary generalized section with sigmoid
coefficients (the "vertical" form).  The column at k-1 = N consists of the
single apex cell (N, N), so the vertical form runs k = 1..N+1 with closing
coefficient exactly 2^-(N+1); with that cell included the two orders cover
the identical index set and their equality is an exact finite identity, which
the tests verify to 1e-12 rather than assume.  The exposed coefficient vector
keeps the conventional length N (the closing coefficient is below double
rounding for every N where it matters numerically, N > ~40, and the vertical
evaluator adds it explicitly).

Numerical discipline:

  * Each form's order limit counts what it sums against MAX_SECTION_TERMS:
    N coefficients, N + 1 terms of the vertical form, and (N+1)(N+2)/2
    cells of the triangle, whose largest order is MAX_TRIANGLE_ORDER = 1412.
    Triangle rows are generated in extended precision (numpy longdouble) by
    cumulative products from the exact row seed 2^-(n+1), a normal
    longdouble at every accepted order.
  * Coefficients come from exact big-integer suffix sums of binomial rows
    (each entry is then a correctly rounded double) up to N = 20000, and from
    the regularized incomplete beta function beyond; never from naive
    alternating accumulation of huge binomials.
  * The vertical form reuses the same cosine kernel as every other section
    sum and accumulates with math.fsum (or, beyond a caller's exact_below
    threshold, with sections_engine.sum_rows' certified float sum).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .sections_engine import (
    MAX_SECTION_TERMS,
    CoefficientVector,
    cosine_rows,
    cosine_terms,
    row_blocks,
    section_rows,
)

# Largest triangle order n whose (n+1)(n+2)/2 cells number at most MAX_SECTION_TERMS.
MAX_TRIANGLE_ORDER = (math.isqrt(8 * MAX_SECTION_TERMS + 1) - 3) // 2

# Coefficient vectors kept for reuse, least recently used out first: a zero
# scan of a 20-wide window under the half cutoff uses about 11 orders.
COEFF_CACHE_ORDERS = 64

# Largest N handled by exact big-integer coefficient arithmetic.
_EXACT_COEFF_MAX = 20000

_LD = np.longdouble


def _validate_order(n: int, minimum: int, maximum: int = MAX_SECTION_TERMS) -> int:
    n = int(n)
    if n < minimum:
        raise DomainError(f"order must be >= {minimum}, got {n}")
    if n > maximum:
        raise ResourceLimitError(f"order {n} exceeds {maximum}, the largest order of at most "
                                 f"MAX_SECTION_TERMS = {MAX_SECTION_TERMS} coefficients or cells")
    return n


def _row_longdouble(n: int) -> np.ndarray:
    """Row n of the beta triangle, 2^-(n+1) C(n, k) for k = 0..n, in longdouble."""
    out = np.empty(n + 1, dtype=np.longdouble)
    out[0] = np.ldexp(_LD(1.0), -(n + 1))
    ks = np.arange(1, n + 1, dtype=np.longdouble)
    # C(n,k) = C(n,k-1) (n-k+1)/k
    out[1:] = out[0] * np.cumprod((_LD(n) + 1 - ks) / ks)
    return out


@dataclass(frozen=True)
class AcceleratedCoefficients:
    """Sigmoid coefficient vector alphatilde_k = P[Binomial(N+1, 1/2) >= k], k = 1..N."""

    order: int
    alpha: np.ndarray


def _binomial_tails_exact(order: int) -> np.ndarray:
    """alphatilde_k for k = 1..order by big-integer suffix sums (correctly rounded)."""
    m = order + 1  # number of fair coin flips
    total = 1 << m
    out = np.empty(order, dtype=np.float64)
    # Walk the binomial row from the top index down with the exact integer
    # recurrence C(m, j) = C(m, j+1) (j+1)/(m-j), keeping the running suffix
    # sum; each emitted entry is a correctly rounded int/int quotient.
    c = 1  # C(m, m)
    suffix = 1
    for j in range(m - 1, 0, -1):
        c = c * (j + 1) // (m - j)
        suffix += c
        if j <= order:
            out[j - 1] = suffix / total
    return out


@functools.lru_cache(maxsize=COEFF_CACHE_ORDERS)
def _coefficient_vector(order: int) -> np.ndarray:
    """Read-only alphatilde_1..alphatilde_N of a validated order."""
    if order <= _EXACT_COEFF_MAX:
        alpha = _binomial_tails_exact(order)
    else:
        # Imported here: scipy.special costs every run about 0.3 s and 25 MB,
        # and only orders above _EXACT_COEFF_MAX need it.
        from scipy.special import betainc

        ks = np.arange(1, order + 1, dtype=np.float64)
        alpha = betainc(ks, order - ks + 2.0, 0.5)
    alpha.setflags(write=False)
    return alpha


def accelerated_coefficients(order: int) -> AcceleratedCoefficients:
    """Coefficient vector of the order-N accelerated section.

    Entries are the fair binomial tails P[Binomial(N+1, 1/2) >= k]: exact
    big-integer arithmetic up to N = 20000, the regularized incomplete beta
    function betainc(k, N-k+2, 1/2) beyond.  The COEFF_CACHE_ORDERS orders
    used last are kept.
    """
    order = _validate_order(order, minimum=1)
    return AcceleratedCoefficients(order=order, alpha=_coefficient_vector(order))


def closing_coefficient(order: int) -> float:
    """The k = N+1 column weight 2^-(N+1) (the triangle's apex cell)."""
    order = _validate_order(order, minimum=1)
    return math.ldexp(1.0, -(order + 1))


def _triangle_sums(kernel: np.ndarray, order: int) -> np.ndarray:
    """Row-first triangle sums of a kernel matrix with order + 1 columns, per row."""
    kernel = kernel.astype(np.longdouble)
    total = np.zeros(len(kernel), dtype=np.longdouble)
    for n in range(order + 1):
        total += np.sum(_row_longdouble(n) * kernel[:, :n + 1], axis=1)
    return total.astype(np.float64)


def accelerated_triangle(t: float, order: int) -> float:
    """Row-first (horizontal) evaluation of the accelerated section."""
    order = _validate_order(order, minimum=0, maximum=MAX_TRIANGLE_ORDER)
    return float(_triangle_sums(cosine_terms(t, order + 1)[None, :], order)[0])


def accelerated_triangle_rows(ts: np.ndarray, thetas: np.ndarray, order: int) -> np.ndarray:
    """accelerated_triangle(t_i, order) for every point, bit for bit."""
    order = _validate_order(order, minimum=0, maximum=MAX_TRIANGLE_ORDER)
    out = np.empty(len(ts), dtype=np.float64)
    for block in row_blocks(len(ts), order + 1):
        out[block] = _triangle_sums(cosine_rows(ts[block], thetas[block], order + 1), order)
    return out


def _vertical_weights(order: int) -> np.ndarray:
    """alphatilde_1..alphatilde_N followed by the closing coefficient 2^-(N+1)."""
    return np.append(accelerated_coefficients(order).alpha, closing_coefficient(order))


def accelerated_vertical(t: float, order: int) -> float:
    """Column-first (coefficient) evaluation of the accelerated section.

    Sums alphatilde_k cos(theta - t ln k)/sqrt(k) over k = 1..N+1, the closing
    coefficient being exactly 2^-(N+1); equals accelerated_triangle(t, N) to
    better than 1e-12 relative (tested, not assumed).
    """
    order = _validate_order(order, minimum=1, maximum=MAX_SECTION_TERMS - 1)
    kernel = cosine_terms(t, order + 1)
    return math.fsum(kernel * _vertical_weights(order))


def accelerated_vertical_rows(ts: np.ndarray, thetas: np.ndarray, order: int,
                              exact_below=math.inf):
    """accelerated_vertical(t_i, order) for every point: (values, exact), as section_rows."""
    order = _validate_order(order, minimum=1, maximum=MAX_SECTION_TERMS - 1)
    return section_rows(ts, thetas, order + 1, _vertical_weights(order), exact_below)


def step_coefficients(order: int) -> CoefficientVector:
    """The all-ones coefficient vector of length N (a plain section in Z(t; alpha) form)."""
    order = _validate_order(order, minimum=1)
    return CoefficientVector(alpha=(1.0,) * order)


def coefficient_direct_sum(order: int, k: int) -> float:
    """alphatilde_k by literal accumulation of 2^-(n+1) C(n, k-1), n = k-1..N.

    Reference-only path for validating the binomial-tail identity: compensated
    floating summation for N <= 60, log-space term recurrence beyond (the
    terms themselves under/overflow double precision in naive form).
    """
    order = _validate_order(order, minimum=1)
    k = int(k)
    if not 1 <= k <= order:
        raise DomainError(f"k = {k} outside 1..{order}")
    j = k - 1
    if order <= 60:
        return math.fsum(math.comb(n, j) * math.ldexp(1.0, -(n + 1))
                         for n in range(j, order + 1))
    terms = []
    log_term = -k * math.log(2.0)  # n = k-1 term is exactly 2^-k
    for n in range(j, order + 1):
        if log_term > -745.0:  # below ~1e-323 a term cannot move the sum
            terms.append(math.exp(log_term))
        log_term += math.log((n + 1) / (2.0 * (n + 1 - j)))
    return math.fsum(terms)


def coefficient_l2_distance(order: int) -> float:
    """l2 gap between the accelerated and step coefficient vectors at length N.

    sqrt(sum_{k=1..N} (alphatilde_k - 1)^2).  The gaps 1 - alphatilde_k are
    the lower binomial tails P[Binomial(N+1,1/2) <= k-1], which by symmetry
    are the upper tails P[... >= N+2-k]: the closing coefficient 2^-(N+1),
    then alphatilde_N down to alphatilde_2, each as exact as the coefficients.
    """
    order = _validate_order(order, minimum=1)
    gaps = _vertical_weights(order)[:0:-1]
    return math.sqrt(math.fsum(gaps * gaps))
