"""The Riemann-Siegel theta function in extended precision.

theta(t) = Im log Gamma(1/4 + i t/2) - (t/2) ln(pi)

is the rotation angle that makes Z(t) = exp(i theta(t)) zeta(1/2 + i t) real
for real t.  Everything downstream of this module (reference values, section
sums, zero scans) consumes theta through a single code path, so its accuracy
budget is the tightest in the package: we target absolute error below 1e-10
up to t = 1e5, where theta itself is ~4.3e5.  That target sits at a couple of
ulps of float64, which is why the internals run in numpy's longdouble (80-bit
extended on x86-64, eps ~ 1.1e-19) and round to float64 only on return.

The evaluation is the imaginary part of the classical recurrence-plus-Stirling
scheme for log Gamma at z = 1/4 + i t/2: shift z by integers until |z| >= 10
(only t below ~20 needs a shift), apply the asymptotic series

    log Gamma(z) ~ (z - 1/2) log z - z + ln(2 pi)/2 + sum_n c_n z^(1-2n),

with c_n = B_2n / (2n (2n-1)) for n = 1..10, then subtract the accumulated
arg(z + k) terms.  With the shift radius at 10 the first omitted term is
below 1e-30, far beyond longdouble resolution.  The imaginary part produced
this way is a continuous lift of arg Gamma (no branch snapping), which is
exactly what theta requires.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_LD = np.longdouble

PI_LD = np.arccos(_LD(-1))
LOG_PI_LD = np.log(PI_LD)

TWO_PI = 2.0 * math.pi

# c_n = B_2n / (2n (2n-1)), exact rationals evaluated in longdouble.
_STIRLING_NUM = (1, -1, 1, -1, 1, -691, 1, -3617, 43867, -174611)
_STIRLING_DEN = (12, 360, 1260, 1680, 1188, 360360, 156, 122400, 244188, 125400)
_STIRLING_C = tuple(_LD(a) / _LD(b) for a, b in zip(_STIRLING_NUM, _STIRLING_DEN))

# Shift until |z|^2 >= 100 before applying the asymptotic series.
_SHIFT_R2 = _LD(100)


def _theta_longdouble(ts: np.ndarray) -> np.ndarray:
    """Vectorized theta over a float64 array, computed in longdouble."""
    t_ld = ts.astype(np.longdouble)
    re = np.full(t_ld.shape, _LD(0.25))
    im = _LD(0.5) * t_ld
    arg_acc = np.zeros(t_ld.shape, dtype=np.longdouble)

    # Only z = 1/4 + i t/2 with t < ~20 falls inside the shift radius, so the
    # scalar recurrence loop below touches a handful of grid points at most.
    small = np.nonzero(re * re + im * im < _SHIFT_R2)[0]
    for i in small:
        zre = re[i]
        zim = im[i]
        acc = _LD(0)
        while zre * zre + zim * zim < _SHIFT_R2:
            acc += np.arctan2(zim, zre)
            zre += 1
        re[i] = zre
        arg_acc[i] = acc

    r2 = re * re + im * im
    lnr = _LD(0.5) * np.log(r2)
    ang = np.arctan2(im, re)
    out = im * lnr + (re - _LD(0.5)) * ang - im
    pre = re / r2
    pim = -im / r2
    wre = pre * pre - pim * pim
    wim = _LD(2) * pre * pim
    for c in _STIRLING_C:
        out = out + c * pim
        pre, pim = pre * wre - pim * wim, pre * wim + pim * wre
    # im is still t/2 (the recurrence shifts only the real part).
    return out - arg_acc - im * LOG_PI_LD


def theta(t: float) -> float:
    """Riemann-Siegel theta(t) = Im log Gamma(1/4 + it/2) - (t/2) ln pi, t >= 0."""
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"theta requires finite t >= 0, got {t}")
    return float(_theta_longdouble(np.array([t], dtype=np.float64))[0])


def theta_grid(ts) -> np.ndarray:
    """theta evaluated over an array of points, bit-identical to theta per entry."""
    arr = np.asarray(ts, dtype=np.float64)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0.0)):
        raise DomainError("theta_grid requires finite entries >= 0")
    out = _theta_longdouble(arr.ravel()).astype(np.float64)
    return out.reshape(arr.shape)
