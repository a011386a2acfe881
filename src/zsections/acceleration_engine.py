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
keeps the conventional length N, and the vertical form's weights append 2^-(N+1).

Numerical discipline:

  * Orders stop at MAX_COEFF_ORDER = 20000, and the triangle, whose
    (N+1)(N+2)/2 cells count against MAX_SECTION_TERMS, at
    MAX_TRIANGLE_ORDER = 1412.
    Triangle rows are generated in extended precision (numpy longdouble) by
    cumulative products from the exact row seed 2^-(n+1), a normal
    longdouble at every accepted order.
  * Coefficients are correctly rounded from exact big-integer suffix sums of
    the binomial row, never from naive alternating accumulation of huge
    binomials.  The sums of the order built last (to N = 10000) are kept,
    so the order above takes one add per entry.
  * The vertical form is a weighted section of N + 1 terms, summed by
    sections_engine.section_rows like a custom coefficient vector: the same
    cosine kernel, math.fsum and certified float sums as every other section.
  * Each order also keeps the sigmoid's transition window (_transition):
    below lo every weight is 1 within a 2^-60 total, and above head every
    weight is 0 within another, so the vertical form is the section of head
    terms minus the window sum_{lo<k<=head} (1 - alphatilde_k) cos(...)/sqrt(k),
    which transition_rows evaluates for the schemes' screen.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._tables import log_k, rsqrt_k
from .errors import DomainError, ResourceLimitError
from .reference_engine import SCREEN_BLOCK_ELEMENTS
from .sections_engine import (
    MAX_SECTION_TERMS,
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

# Largest coefficient order; every order up to it is correctly rounded from exact sums.
MAX_COEFF_ORDER = 20000

# The most either end of the sigmoid outside its transition window adds up to (_transition).
TAIL_LIMIT = 2.0**-60

_LD = np.longdouble

# Unit roundoff of float64.
_U = 2.0**-53


def _validate_order(n: int, minimum: int, maximum: int = MAX_COEFF_ORDER) -> int:
    n = int(n)
    if n < minimum:
        raise DomainError(f"order must be >= {minimum}, got {n}")
    if n > maximum:
        why = ("the last order with correctly rounded coefficients" if maximum == MAX_COEFF_ORDER
               else f"the largest order of at most MAX_SECTION_TERMS = {MAX_SECTION_TERMS} cells")
        raise ResourceLimitError(f"order {n} exceeds {maximum}, {why}")
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
    """alphatilde_k = P[Binomial(N+1, 1/2) >= k], k = 1..N, a read-only view of the vertical
    form's weights (closing coefficient last), with the screen's transition window: head,
    tail, lo, low and window (_transition)."""

    order: int
    alpha: np.ndarray
    weights: np.ndarray
    head: int
    tail: float
    lo: int
    low: float
    window: np.ndarray


def _upper_sums(m: int) -> list:
    """S_j = sum_{i >= j} C(m, i) for j = m//2 + 1..m, exact, from the top down by
    C(m, j) = C(m, j+1) (j+1)/(m-j).  The lower half mirrors them: S_j = 2^m - S_{m+1-j}."""
    sums, c = [1], 1  # S_m = C(m, m)
    for j in range(m - 1, m // 2, -1):
        c = c * (j + 1) // (m - j)
        sums.append(sums[-1] + c)
    return sums[::-1]


def _quotient(s: int, m: int) -> float:
    """s / 2^m for 0 < s <= 2^m, correctly rounded: from the top 64 bits of a longer s (a
    sticky bit breaks a tie among them) scaled by ldexp, by int / int below 2^-1022."""
    bits = s.bit_length()
    if bits <= 64 or bits <= m - 1022:
        return s / (1 << m)
    shift = bits - 64
    top = s >> shift
    if top & 0x7FF == 0x400 and top << shift != s:
        top |= 1
    return math.ldexp(float(top), shift - m)


def _exact_weights(m: int, upper: list) -> np.ndarray:
    """S_j / 2^m for j = 1..m, correctly rounded, from _upper_sums(m): converts only the
    entries that round to neither 1.0 (2^m - S_j <= 2^(m-54)) nor 0 (S_j <= 2^(m-1075))."""
    h = m // 2 + 1
    mirror = upper[m % 2:][::-1]  # 2^m - S_j for j = 1..h-1, ascending
    ones = bisect.bisect_right(mirror, 1 << (m - 54)) if m >= 54 else 0
    zero = 1 << (m - 1075) if m >= 1075 else 0
    nonzero = bisect.bisect_left(upper, -zero, key=operator.neg)
    out, total = np.zeros(m, dtype=np.float64), 1 << m
    out[:ones] = 1.0
    out[ones:h - 1] = [_quotient(total - s, m) for s in mirror[ones:]]
    out[h - 1:h - 1 + nonzero] = [_quotient(s, m) for s in upper[:nonzero]]
    return out


# (m, _upper_sums(m)) of the last order built by big integers, kept up to order
# _KEEP_SUMS_MAX: the sums take about 0.36 m^2 bits, 4.5 MB at N = 10000.
_KEEP_SUMS_MAX = 10000
_last_sums = (0, [])


def _transition(weights: np.ndarray) -> tuple:
    """(head, tail, lo, low, window): the sigmoid's transition window and its two ends.

    head is the fewest leading terms of the vertical form whose rest, the float products
    weights_k / sqrt(k) over k > head (each bounds its term's magnitude), sums to at most
    TAIL_LIMIT, and tail is that sum rounded up.  lo is the most leading terms whose gaps,
    the float products (1 - weights_k)/sqrt(k) (each bounds 1 - weights_k times its term's
    magnitude), sum to at most TAIL_LIMIT, and low is that sum rounded up.  window holds the
    gaps over lo < k <= head, read-only.  1 - weights_k is exact where weights_k >= 1/2
    (Sterbenz), and lo <= head, since a term and its gap add up to 1/sqrt(k) > 2 TAIL_LIMIT.
    """
    bounds = rsqrt_k(len(weights)) * weights
    head = int(np.count_nonzero(np.cumsum(bounds[::-1])[::-1] > TAIL_LIMIT))
    gaps = (1.0 - weights[:head]) * rsqrt_k(head)
    lo = int(np.count_nonzero(np.cumsum(gaps) <= TAIL_LIMIT))
    window = gaps[lo:]
    window.setflags(write=False)
    return (head, math.nextafter(math.fsum(bounds[head:].tolist()), math.inf),
            lo, math.nextafter(math.fsum(gaps[:lo].tolist()), math.inf), window)


@functools.lru_cache(maxsize=COEFF_CACHE_ORDERS)
def _cached_coefficients(order: int) -> AcceleratedCoefficients:
    global _last_sums
    m = order + 1
    last, sums = _last_sums
    if last == order:  # a Pascal step from m - 1 flips, S_j + S_{j-1}: one add per entry
        window = sums + [0]  # S_j of m - 1 flips for j > last // 2, then S_m = 0
        if last % 2 == 0:  # and S_{last/2}, the mirror of sums[0]
            window.insert(0, (1 << last) - sums[0])
        sums = [a + b for a, b in zip(window, window[1:])]
    else:
        sums = _upper_sums(m)
    _last_sums = (m, sums) if order <= _KEEP_SUMS_MAX else (0, [])
    weights = _exact_weights(m, sums)
    weights.setflags(write=False)
    return AcceleratedCoefficients(order, weights[:order], weights, *_transition(weights))


def accelerated_coefficients(order: int) -> AcceleratedCoefficients:
    """Coefficients of the order-N accelerated section, the fair binomial tails correctly
    rounded, for N up to MAX_COEFF_ORDER; the COEFF_CACHE_ORDERS orders used last are kept."""
    return _cached_coefficients(_validate_order(order, minimum=1))


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


def accelerated_vertical(t: float, order: int) -> float:
    """Column-first (coefficient) evaluation of the accelerated section.

    Sums alphatilde_k cos(theta - t ln k)/sqrt(k) over k = 1..N+1, the closing
    coefficient being exactly 2^-(N+1); equals accelerated_triangle(t, N) to
    better than 1e-12 relative (tested, not assumed).
    """
    c = accelerated_coefficients(order)
    return math.fsum(cosine_terms(t, c.order + 1) * c.weights)


def accelerated_vertical_rows(ts: np.ndarray, thetas: np.ndarray, order: int,
                              exact_below=math.inf):
    """accelerated_vertical(t_i, order) for every point: (values, exact), as section_rows."""
    c = accelerated_coefficients(order)
    return section_rows(ts, thetas, c.order + 1, c.weights, exact_below)


def transition_rows(ts: np.ndarray, thetas: np.ndarray, runs: list):
    """The transition window of each point's order and a bound: (window, err).

    runs lists (slice, AcceleratedCoefficients) pairs that cover the points
    in order.  window_i = sum_{lo<k<=head} (1 - alphatilde_k) cos(theta_i -
    t_i ln k)/sqrt(k), so that, in exact arithmetic on the float weights,
    the vertical form at t_i lies within low + tail of Z_head(t_i) -
    window_i.  err_i adds to low + tail the window's rounding, by the model
    of reference_engine.riemann_siegel4_rows: a term is off by at most
    u (5 (|theta| + t ln head) + 8) times its gap (the gap, 1/sqrt(k),
    the cosine and the product included), and a float sum of m terms by
    m u times their sum.  The points go in blocks of SCREEN_BLOCK_ELEMENTS:
    the gaps and logarithms of a block's orders are laid out once, zero-padded
    to the widest window, and every point's row is gathered from them.
    """
    width = max(c.head - c.lo for _, c in runs)
    ln_k = log_k(max(c.head for _, c in runs))
    rows = np.empty(len(ts), dtype=np.intp)
    heads, ends = np.empty(len(ts)), np.empty(len(ts))
    for r, (run, c) in enumerate(runs):
        rows[run], heads[run], ends[run] = r, c.head, c.low + c.tail
    window, size = np.empty(len(ts)), np.empty(len(ts))
    for block in row_blocks(len(ts), width, SCREEN_BLOCK_ELEMENTS):
        first = rows[block.start]
        part = runs[first:rows[block.stop - 1] + 1]
        gaps, logs = np.zeros((len(part), width)), np.zeros((len(part), width))
        for r, (_, c) in enumerate(part):
            gaps[r, :c.head - c.lo] = c.window
            logs[r, :c.head - c.lo] = ln_k[c.lo:c.head]
        at = rows[block] - first
        gap, phases = gaps[at], thetas[block, None] - ts[block, None] * logs[at]
        window[block], size[block] = (np.cos(phases) * gap).sum(axis=1), gap.sum(axis=1)
    rounding = _U * size * (5.0 * (np.abs(thetas) + ts * np.log(heads)) + 8.0 + width)
    return window, 1.001 * rounding + ends


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
    gaps = accelerated_coefficients(order).weights[:0:-1]
    return math.sqrt(math.fsum(gaps * gaps))
