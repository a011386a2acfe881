"""Trusted reference evaluations of Hardy's Z function.

Two independent engines are provided so every approximation scheme in the
package can be scored against values whose own error is understood:

  * z_riemann_siegel: the fast path.  Main sum 2 sum_{k<=Ntilde} cos(theta -
    t ln k)/sqrt(k) with Ntilde = floor(sqrt(t/2pi)), plus the first-order
    remainder

        (-1)^(Ntilde-1) (t/2pi)^(-1/4) cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p),

    p = sqrt(t/2pi) - Ntilde.  The quoted error bound is O(t^(-3/4)); we carry
    the conservative constant 10 (on 20,001-point grids the largest
    |RS1 - EM| t^(3/4) is 0.123 over [50, 200], 0.122 over [200, 1000] and
    0.122 over [1000, 5000]; Gabcke's constant is 0.127 for t >= 200).

  * z_euler_maclaurin: the slow oracle.  zeta(1/2 + it) by Euler-Maclaurin
    summation (partial sum, midpoint term, integral tail, Bernoulli
    corrections), rotated by exp(i theta(t)).  The rotation must land on the
    real axis, so |Im| of the rotated value is returned as a self-consistency
    diagnostic; it sits at the 1e-12 level for t <= 5000.

The remainder quotient is a removable 0/0 at p = 1/4 and p = 3/4 (the
denominator cos(2 pi p) vanishes only there on [0, 1), and the numerator
vanishes with it).  Inside a narrow guard window the quotient is replaced by
a 4th-order Taylor expansion about the removable point; coefficients were
computed symbolically (sympy series), and the p = 3/4 side uses the exact
symmetry psi(p) = psi(1 - p).

A third, array-only engine serves the zero scanner's bisection, which reads
only signs of the oracle: riemann_siegel4_rows, the Riemann-Siegel formula
with the corrections C0..C4, summed from their Taylor series in p - 1/2
(_tables.RS_CORRECTION_SERIES; the series are entire, so there is no hazard
window), together with a bound on its error: Gabcke's truncation bound
0.017 t^(-11/4) for t >= 200 plus its own rounding.  euler_maclaurin_error
bounds the distance of the oracle's computed value from Z.  Where |RS4|
exceeds the sum of the two, RS4, Z and the computed oracle share one sign.
em_tail_rows gives the sections the same service: the rotated
Euler-Maclaurin tail at any M, with J = 20 Bernoulli terms (B_2..B_40, of
which the oracle keeps the first six) and a bound of its own, so that RS4
minus the tail is a certified value of the section of M terms wherever the
tail's terms decrease (tail_converges).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _tables
from .errors import ConvergenceError, DomainError, ResourceLimitError
from .sections_engine import (
    MAX_SECTION_TERMS,
    cosine_rows,
    row_blocks,
    section,
    section_rows,
)
from .special_functions import TWO_PI, theta

# Error-bound constant for the first-order remainder path: |Z - RS1| <= RS_ERR_CONST * t^(-3/4).
RS_ERR_CONST = 10.0

# Gabcke (1979): for t >= RS4_T_MIN, |Z(t) - RS4(t)| <= RS4_ERR_CONST t^(-11/4).
RS4_T_MIN = 200.0
RS4_ERR_CONST = 0.017

# Unit roundoff of float64.
_U = 2.0**-53

# Guard window for the removable singularities of the remainder quotient.
HAZARD_COS_EPS = 1e-8

# Taylor expansion of psi(p) = cos(2pi(p^2 - p - 1/16))/cos(2pi p) about p = 1/4:
# psi(1/4 + d) = 1/2 - d + (pi^2/4) d^2 - (pi^2/6) d^3 + (5 pi^4/48 - pi^2) d^4 + O(d^5).
_PSI_TAYLOR = (
    0.5,
    -1.0,
    math.pi**2 / 4.0,
    -math.pi**2 / 6.0,
    5.0 * math.pi**4 / 48.0 - math.pi**2,
)

# Bernoulli numbers B_2, B_4, ..., B_40 as (numerator, denominator): the J = 20
# corrections of em_tail_rows, of which the oracle keeps the first _ORACLE_J.
_BERNOULLI_FRACTIONS = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6),
    (-23749461029, 870), (8615841276005, 14322), (-7709321041217, 510),
    (2577687858367, 6), (-26315271553053477373, 1919190), (2929993913841559, 6),
    (-261082718496449122051, 13530),
)
_ORACLE_J = 6
_BERNOULLI_2J = tuple(num / den for num, den in _BERNOULLI_FRACTIONS[:_ORACLE_J])

# For j = 1..J-1: 4j^2 - 1/4 and 4j, as (s + 2j - 1)(s + 2j) = 4j^2 - 1/4 - t^2 + 4j t i,
# and the ratio (B_2j+2/(2j+2)!)/(B_2j/(2j)!) correctly rounded from integers, as columns.
_RATIO_ROWS = np.array([
    [4.0 * j * j - 0.25, 4.0 * j, (num * den_j) / (den * num_j * (2 * j + 1) * (2 * j + 2))]
    for j, ((num_j, den_j), (num, den)) in enumerate(
        zip(_BERNOULLI_FRACTIONS, _BERNOULLI_FRACTIONS[1:]), start=1)]).T[:, :, None]

# Elements of one block of the screen's matrices (em_tail_rows, transition_rows):
# small blocks keep their temporaries below the allocator's mmap threshold.
SCREEN_BLOCK_ELEMENTS = 4096


@dataclass(frozen=True)
class ReferenceValue:
    """One trusted evaluation of Z(t).

    method is "RS1" or "EM_ORACLE".  err_estimate is the engine's own error
    bound (RS1: 10 t^(-3/4); EM: magnitude of the last Bernoulli correction).
    hazard marks an RS1 evaluation whose remainder quotient fell inside the
    removable-singularity guard window.  im_residual is the EM path's
    |Im(e^{i theta} zeta)| self-consistency diagnostic (0 for RS1).
    """

    t: float
    z: float
    method: str
    err_estimate: float
    hazard: bool = False
    im_residual: float = 0.0


def _psi(p: float) -> tuple[float, bool]:
    """Remainder quotient cos(2pi(p^2-p-1/16))/cos(2pi p) with removable-point guard."""
    den = math.cos(TWO_PI * p)
    if abs(den) < HAZARD_COS_EPS:
        # |den| < 1e-8 puts p within ~1.6e-9 of 1/4 or 3/4; the Taylor error
        # there is O(d^5) ~ 1e-44, far below double rounding.
        d = (p - 0.25) if p < 0.5 else (0.75 - p)
        c0, c1, c2, c3, c4 = _PSI_TAYLOR
        return c0 + d * (c1 + d * (c2 + d * (c3 + d * c4))), True
    num = math.cos(TWO_PI * (p * p - p - 0.0625))
    return num / den, False


def _rs_remainder(t: float) -> tuple[int, float, bool]:
    """Main-sum cutoff, first-order remainder and hazard flag at t >= 2 pi."""
    a = math.sqrt(t / TWO_PI)
    cutoff = int(a)
    psi, hazard = _psi(a - cutoff)
    corr = (t / TWO_PI) ** -0.25 * psi
    if cutoff % 2 == 0:
        corr = -corr
    return cutoff, corr, hazard


def z_riemann_siegel(t: float) -> ReferenceValue:
    """First-order Riemann-Siegel evaluation of Z(t), valid for t >= 2 pi."""
    t = float(t)
    if not math.isfinite(t) or t < TWO_PI:
        raise DomainError(f"z_riemann_siegel requires t >= 2 pi, got {t}")
    cutoff, corr, hazard = _rs_remainder(t)
    z = 2.0 * section(t, cutoff) + corr
    return ReferenceValue(
        t=t,
        z=z,
        method="RS1",
        err_estimate=RS_ERR_CONST * t**-0.75,
        hazard=hazard,
    )


def riemann_siegel_rows(ts: np.ndarray, thetas: np.ndarray, cutoff: int):
    """z_riemann_siegel(t_i).z for points t_i >= 2 pi sharing the main-sum cutoff.

    Returns (values, hazard count), bit-identical to the scalar path.
    """
    main, _ = section_rows(ts, thetas, cutoff)
    out = np.empty(len(ts), dtype=np.float64)
    hazards = 0
    for i, t in enumerate(ts.tolist()):
        _, corr, hazard = _rs_remainder(t)
        out[i] = 2.0 * main[i] + corr
        hazards += hazard
    return out, hazards


def _series_matrix():
    """RS_CORRECTION_SERIES as a (degree + 1) x 5 matrix in powers of y = x^2, and its
    evaluation constants on |x| <= 1/2: (matrix, absolute, Lipschitz).

    Column k holds the c_kj of C_k, zero-padded to the longest series, of
    degree D.  With y^j formed by repeated multiplication (relative error
    at most 2 j u) and the column sums taken in any order, a computed C_k is
    within (3D + 5) u S_k of C_k at the computed p, where S_k = sum_j
    |c_kj| 4^-j bounds |C_k|; the series cut adds under 2e-21.  |C_k'| is
    at most L_k = sum_j (2j + k mod 2) |c_kj| 2^-(2j + k mod 2 - 1).  The
    combination a^(-1/2) sum_k C_k a^-k adds at most 25 u sum_k S_k, so for
    a >= 1 the correction's rounding is at most absolute / sqrt(a) +
    Lipschitz sqrt(a), Lipschitz carrying the error 4 u a of the computed p.
    """
    series = _tables.RS_CORRECTION_SERIES
    degree = max(len(c) for c in series) - 1
    matrix = np.zeros((degree + 1, len(series)))
    absolute, lipschitz = 0.0, 0.0
    for k, coeffs in enumerate(series):
        matrix[:len(coeffs), k] = coeffs
        odd = k % 2
        size = math.fsum(abs(c) * 4.0**-j for j, c in enumerate(coeffs))
        absolute += ((3 * degree + 5) + 25) * _U * size + 2e-21
        lipschitz += math.fsum((2 * j + odd) * abs(c) * 2.0 ** (1 - 2 * j - odd)
                               for j, c in enumerate(coeffs))
    return matrix, absolute, 4.0 * _U * lipschitz


_RS4_SERIES, _RS4_CORR_ABS, _RS4_CORR_LIP = _series_matrix()


def riemann_siegel4_rows(ts: np.ndarray, thetas: np.ndarray):
    """Fourth-order Riemann-Siegel values at points t_i >= RS4_T_MIN, with bounds on their error.

    z_i = 2 sum_{k<=N} cos(theta_i - t_i ln k)/sqrt(k)
          + (-1)^(N-1) a^(-1/2) sum_{j=0..4} C_j(p) a^(-j),

    a = sqrt(t_i/2pi), N = floor(a), p = a - N, thetas[i] = theta(ts[i]).
    Returns (z, err) with |Z(t_i) - z_i| <= err_i.  err_i is Gabcke's
    truncation bound RS4_ERR_CONST t^(-11/4) plus the rounding of every
    step, under this floating-point model: theta within 2 ulps, ln k
    within 1 ulp, cos and sin within 2u of the exact value at their
    argument (tests/test_reference_engine.py checks all three),
    every other operation within the unit roundoff u, and a sum of n terms,
    in any order, within (n - 1) u sum|x| (Higham, Accuracy and Stability
    of Numerical Algorithms, sec. 4.2).  A phase theta - t ln k is then off
    by at most 5 u (|theta| + t ln N), and so is its term, over sqrt(k).
    Where the computed p lies within 8 u a of 0 or 1, the exact p may lie
    across an integer from it, and err is inf.
    """
    a = np.sqrt(ts / TWO_PI)
    n = np.floor(a)
    p = a - n
    width = int(n.max()) if len(ts) else 0
    main = np.empty(len(ts), dtype=np.float64)
    for block in row_blocks(len(ts), width):
        mat = cosine_rows(ts[block], thetas[block], width)
        mat[np.arange(1, width + 1) > n[block, None]] = 0.0  # exact zeros add no rounding
        main[block] = mat.sum(axis=1)
    x = p - 0.5
    powers = np.cumprod(np.broadcast_to((x * x)[:, None], (len(ts), len(_RS4_SERIES) - 1)),
                        axis=1)
    coeffs = _RS4_SERIES[0] + powers @ _RS4_SERIES[1:]
    coeffs[:, 1::2] *= x[:, None]
    inv_a = 1.0 / a
    corr = coeffs[:, -1]
    for k in range(coeffs.shape[1] - 2, -1, -1):
        corr = corr * inv_a + coeffs[:, k]
    corr *= np.sqrt(inv_a)
    corr[n % 2.0 == 0.0] *= -1.0  # (-1)^(N-1)
    z = 2.0 * main + corr

    main_err = 4.0 * np.sqrt(n) * _U * (5.0 * (np.abs(thetas) + ts * np.log(n))
                                        + 1.1 * width + 7.0)
    corr_err = _RS4_CORR_ABS * np.sqrt(inv_a) + _RS4_CORR_LIP * np.sqrt(a)
    err = RS4_ERR_CONST * ts**-2.75 + main_err + corr_err + 2.0 * _U * np.abs(z)
    edge = 8.0 * _U * a
    err[(p < edge) | (p > 1.0 - edge)] = np.inf
    return z, err


def euler_maclaurin_terms(t):
    """The oracle's partial-sum length M = max(100, 2 ceil(t)), of a float or of an array.

    t is taken as validated (finite, >= 0); see validated_terms.
    """
    return np.maximum(100.0, 2.0 * np.ceil(t))


def validated_terms(t: float) -> int:
    """M at one height t, after refusing t outside finite t >= 0 or M above MAX_SECTION_TERMS."""
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"z_euler_maclaurin requires finite t >= 0, got {t}")
    terms = int(euler_maclaurin_terms(t))
    if terms > MAX_SECTION_TERMS:
        raise ResourceLimitError(
            f"terms = {terms} at t = {t} exceeds MAX_SECTION_TERMS = {MAX_SECTION_TERMS}")
    return terms


def _em_partial_sums(ts: np.ndarray, m: int):
    """Real and imaginary parts of sum_{n<=m} n^(-1/2 - i t_i), one per point.

    n^(-s) = (cos(t ln n) - i sin(t ln n))/sqrt(n); numpy's pairwise reduction
    along each row keeps the roundoff of these O(m)-term sums benign, and
    gives the same bits for a row whether it is reduced alone or in a block.
    """
    phase = ts[:, None] * _tables.log_k(m)
    rsqrt = _tables.rsqrt_k(m)
    terms = np.cos(phase)
    terms *= rsqrt
    re = np.sum(terms, axis=1)
    np.sin(phase, out=terms)
    terms *= rsqrt
    return re, -np.sum(terms, axis=1)


def _em_value(t: float, m: int, acc: complex, theta_t: float) -> ReferenceValue:
    """Finish the oracle at t from its partial sum acc: tail, check, rotation."""
    s = complex(0.5, t)
    m_pow = cmath.exp(-s * math.log(m))  # M^(-s)
    acc -= 0.5 * m_pow
    acc += m_pow * m / (s - 1.0)  # integral tail M^(1-s)/(s-1)

    # Bernoulli corrections: B_2j/(2j)! (s)_(2j-1) M^(-s-2j+1), built up
    # incrementally in j.
    rising = s  # (s)_1
    factorial = 2.0  # (2j)! at j = 1
    power = m_pow / m  # M^(-s-1) at j = 1
    last = 0.0
    for j, b2j in enumerate(_BERNOULLI_2J, start=1):
        term = (b2j / factorial) * rising * power
        acc += term
        last = abs(term)
        rising *= (s + (2 * j - 1)) * (s + 2 * j)
        factorial *= (2 * j + 1) * (2 * j + 2)
        power /= m * m
    if last > 1e-12 * max(1.0, abs(acc)):
        raise ConvergenceError(
            f"Euler-Maclaurin tail not converged at t = {t}: last correction "
            f"{last:.3e} vs value {abs(acc):.3e}; M = {m} is too short")

    rotated = cmath.exp(1j * theta_t) * acc
    return ReferenceValue(
        t=t,
        z=rotated.real,
        method="EM_ORACLE",
        err_estimate=max(last, 1e-16),
        im_residual=abs(rotated.imag),
    )


def z_euler_maclaurin(t: float) -> ReferenceValue:
    """Euler-Maclaurin oracle for Z(t), t >= 0.

    zeta(1/2 + it) = sum_{n=1..M} n^(-s) - M^(-s)/2 + M^(1-s)/(s-1)
                     + sum_{j=1..J} B_2j/(2j)! (s)_(2j-1) M^(-s-2j+1),

    with s = 1/2 + it, M = euler_maclaurin_terms(t) = max(100, 2 ceil(t))
    and J = 6, then rotated by exp(i theta(t)).  The last correction (and
    the roundoff floor) then stays below 1e-10 for t <= 1e4.  Raises
    ConvergenceError when the last Bernoulli correction exceeds 1e-12 of
    the running value (scaled by max(1, |zeta|) so genuine zeros of Z
    cannot false-alarm the guard); at this M that never happens.
    """
    t = float(t)
    m = validated_terms(t)
    re, im = _em_partial_sums(np.array([t]), m)
    return _em_value(t, m, complex(re[0], im[0]), theta(t))


def euler_maclaurin_rows(ts: np.ndarray, thetas: np.ndarray, m: int) -> np.ndarray:
    """The oracle at validated points t_i sharing the partial-sum length M = m.

    At m = euler_maclaurin_terms(t_i) these are z_euler_maclaurin(t_i).z,
    bit for bit.  The partial sums are reduced a row block at a time; the
    tail, the convergence check and the rotation run per point, in order,
    so a short m raises the ConvergenceError of the first point that fails.
    """
    out = np.empty(len(ts), dtype=np.float64)
    for block in row_blocks(len(ts), 2 * m):
        re, im = _em_partial_sums(ts[block], m)
        for i, t, acc_re, acc_im, theta_t in zip(
                range(block.start, block.stop), ts[block].tolist(), re.tolist(),
                im.tolist(), thetas[block].tolist()):
            out[i] = _em_value(t, m, complex(acc_re, acc_im), theta_t).z
    return out


# For j = 1..J: 2j - 2, 2j - 1 and 4/(2 pi)^(2j), as columns (_em_bounds).
_BOUND_ROWS = np.array([[2.0 * j - 2.0, 2.0 * j - 1.0, 4.0 / TWO_PI ** (2 * j)]
                        for j in range(1, len(_BERNOULLI_FRACTIONS) + 1)]).T[:, :, None]


def _em_bounds(size, s_abs, ms, root_m, order: int):
    """size plus bounds on the first order Bernoulli terms, and the remainder after them.

    Returns (size + sum_j |term_j|, cut) over j = 1..order: a term
    B_2j/(2j)! (s)_(2j-1) M^(-s-2j+1) is at most
    (4/(2 pi)^(2j)) ((|s| + 2j - 2)/M)^(2j-1) M^(-1/2), since
    |B_2j|/(2j)! = 2 zeta(2j)/(2 pi)^(2j), and the remainder, at any M, at
    most |s + 2J + 1|/(2J + 3/2) times the first omitted term (Edwards,
    Riemann's Zeta Function, sec. 6.4).  The terms are added in order of j.
    """
    shift, power, scale = _BOUND_ROWS[:, :order]
    terms = np.empty((order + 1, len(size)))
    terms[0] = size
    np.power((s_abs + shift) / ms, power, out=terms[1:])
    terms[1:] *= scale
    terms[1:] /= root_m
    cut = ((s_abs + (2 * order + 1)) / (2 * order + 1.5) * 4.0 / TWO_PI ** (2 * order + 2)
           * ((s_abs + 2 * order) / ms) ** (2 * order + 1) / root_m)
    return np.add.reduce(terms, axis=0), cut  # a reduction along axis 0 adds row by row


def euler_maclaurin_error(ts: np.ndarray, ms: np.ndarray, z_max: np.ndarray) -> np.ndarray:
    """A bound on |EM(t_i) - Z(t_i)| wherever |Z(t_i)| <= z_max_i.

    EM(t_i) is euler_maclaurin_rows at t_i and M = m_i.  For t_i > 0,
    with the floating-point model of riemann_siegel4_rows:

      * partial sums: a phase t ln n is off by at most 3.01 u t ln n, and
        moves n^(-s) by as much; cos, sin, 1/sqrt(n), the product and the
        sum of M terms add at most (M + 6) u per unit of sum n^(-1/2) to
        either part.  With S_H = 2 sqrt(M) >= sum n^(-1/2) and
        S_L = 2 sqrt(M) (ln M - 2) + 4.75 >= sum n^(-1/2) ln n (the
        integral plus the peak 2/e of the unimodal summand), the complex
        sum is off by at most 3.01 u t S_L + sqrt(2) (M + 6) u S_H;
      * tail: the midpoint, integral and Bernoulli terms, of total size at
        most T = M^(-1/2)/2 + M^(1/2)/t + sum_j |term_j| (_em_bounds),
        each with the phase error of M^(-s) and at most 150 further
        roundings;
      * truncation: the cut of _em_bounds after J = 6 terms;
      * the additions into the running sum and the rotation by
        exp(i theta): at most 30 u (|Z| + T).  An error d in theta moves
        the real part by Z (1 - cos d) only.

    The factor 1.001 covers the second-order terms of the first three.
    """
    root_m = np.sqrt(ms)
    s_abs = np.hypot(0.5, ts)
    tail, cut = _em_bounds(0.5 / root_m + root_m / ts, s_abs, ms, root_m, _ORACLE_J)
    ln_m = np.log(ms)
    sums = _U * (3.01 * ts * (2.0 * root_m * (ln_m - 2.0) + 4.75)
                 + math.sqrt(2.0) * (ms + 6.0) * 2.0 * root_m)
    rounding = tail * _U * (3.1 * ts * ln_m + 150.0)
    return 1.001 * (sums + rounding + cut) + 30.0 * _U * (z_max + tail)


def tail_converges(ts: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """Where em_tail_rows' terms decrease: (|s| + 2J)/(2 pi M) < 1, J = 20."""
    return np.hypot(0.5, ts) + 2 * len(_BERNOULLI_FRACTIONS) < TWO_PI * ms


def section_rounding(ts: np.ndarray, thetas: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """2 sqrt(n) u (5 (|theta| + t ln n) + 6): by the model of riemann_siegel4_rows, a bound
    on the rounding of section(t_i, n_i), and of any fsum of its terms weighted by at most 1."""
    return 2.0 * np.sqrt(ns) * _U * (5.0 * (np.abs(thetas) + ts * np.log(ns)) + 6.0)


def em_tail_rows(ts: np.ndarray, thetas: np.ndarray, ms: np.ndarray):
    """Re(e^(i theta_i) T_i), T_i the Euler-Maclaurin tail at M = m_i, and a bound: (tail, err).

    T = -M^(-s)/2 + M^(1-s)/(s-1) + sum_{j=1..J} B_2j/(2j)! (s)_(2j-1) M^(-s-2j+1)
    with J = 20, the tail _em_value adds run 14 terms further: one cumulative
    product of the terms' ratios over a (J x points) array, in blocks of
    SCREEN_BLOCK_ELEMENTS, so no term overflows where tail_converges.  Then
    sum_{k<=M} cos(theta_i - t_i ln k)/sqrt(k) = Z(t_i) - tail_i - R_i, and
    err_i bounds R_i and the tail's rounding, by the model of
    riemann_siegel4_rows:

      * the cut of _em_bounds after J terms;
      * the terms, of total size T = M^(-1/2)/2 + M^(1/2)/t + sum_j |term_j|
        (_em_bounds), each with the phase error 3.01 u t ln M of M^(-s)
        and at most 15 J + 150 further roundings;
      * the rotation, with theta off by up to 4 u |theta|: 8 u (|theta| + 1) T.

    The factor 1.001 covers the second-order terms.  The rounding of the
    section itself is not included (section_rounding).  Where the tail's
    terms may not decrease (tail_converges), err_i is inf.
    """
    s = 0.5 + 1j * ts
    m_pow = np.exp(-s * np.log(ms))  # M^(-s)
    tail = m_pow * (ms / (s - 1.0) - 0.5)
    order = len(_BERNOULLI_FRACTIONS)
    first = s * m_pow / (12.0 * ms)  # B_2/2! s M^(-s-1)
    for block in row_blocks(len(ts), order, SCREEN_BLOCK_ELEMENTS):
        terms = np.empty((order, block.stop - block.start), dtype=np.complex128)
        terms[0] = first[block]
        scale = _RATIO_ROWS[2] / ms[block] ** 2
        np.multiply(_RATIO_ROWS[0] - ts[block] ** 2, scale, out=terms.real[1:])
        np.multiply(_RATIO_ROWS[1] * ts[block], scale, out=terms.imag[1:])
        tail[block] += np.cumprod(terms, axis=0).sum(axis=0)
    root_m = np.sqrt(ms)
    size, cut = _em_bounds(0.5 / root_m + root_m / ts, np.hypot(0.5, ts), ms, root_m, order)
    err = (1.001 * (size * _U * (3.1 * ts * np.log(ms) + 15.0 * order + 150.0) + cut)
           + 8.0 * _U * (np.abs(thetas) + 1.0) * size)
    err[~tail_converges(ts, ms)] = np.inf
    return np.cos(thetas) * tail.real - np.sin(thetas) * tail.imag, err
