"""Shared read-only lookup tables for term-wise sums.

Every summation engine in the package walks the same families of per-term
constants: ln(k) and 1/sqrt(k) for k = 1, 2, 3, ...  Rebuilding them per call
would dominate the cost of short sums, so this module keeps two module-level
arrays that grow geometrically on demand and are handed out as read-only
views.  Callers must never mutate the returned slices.

It also holds the Taylor series of the Riemann-Siegel correction
coefficients C0..C4 (RS_CORRECTION_SERIES), fixed constants derived once
with mpmath.
"""

from __future__ import annotations

import numpy as np

_log_table = np.log(np.arange(1, 1025, dtype=np.float64))
_rsqrt_table = 1.0 / np.sqrt(np.arange(1, 1025, dtype=np.float64))
_log_table.setflags(write=False)
_rsqrt_table.setflags(write=False)


def _grow(n: int) -> None:
    global _log_table, _rsqrt_table
    size = len(_log_table)
    while size < n:
        size *= 2
    ks = np.arange(1, size + 1, dtype=np.float64)
    _log_table = np.log(ks)
    _rsqrt_table = 1.0 / np.sqrt(ks)
    _log_table.setflags(write=False)
    _rsqrt_table.setflags(write=False)


def log_k(n: int) -> np.ndarray:
    """Read-only array of ln(k) for k = 1..n."""
    if n > len(_log_table):
        _grow(n)
    return _log_table[:n]


def rsqrt_k(n: int) -> np.ndarray:
    """Read-only array of k**-0.5 for k = 1..n."""
    if n > len(_rsqrt_table):
        _grow(n)
    return _rsqrt_table[:n]


# Riemann-Siegel correction coefficients C0..C4 (Gabcke 1979; Edwards,
# Riemann's Zeta Function, sec. 7.4) as Taylor series in x = p - 1/2.  Each
# C_k is a combination of derivatives of the entire function
# psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p), even in x for even k
# and odd for odd k, so entry k lists c_kj with
#
#     C_k(1/2 + x) = x^(k mod 2) * sum_j c_kj * x^(2j).
#
# Derived with mpmath at 150 digits by dividing the series of
# -cos(2 pi x^2 - 5 pi/8) by that of cos(2 pi x) and combining the
# derivatives; each series is cut where the terms left out sum to under
# 2e-21 on |x| <= 1/2 (tests/test_reference_engine.py re-derives them).
RS_CORRECTION_SERIES = (
    (  # C0
        0.3826834323650898, 1.7489618723100817, 2.118025207685496,
        -0.8707216670511481, -3.4733112243465167, -1.6626947308999325,
        1.216731288919232, 1.3014304161007977, 0.03051102182736167,
        -0.3755803051545095, -0.1085784416564066, 0.051832902999549624,
        0.029999480619902277, -0.0022759396706125644, -0.004382647416580339,
        -0.0004064230183729847, 0.0004006097785422114, 8.971057991388841e-05,
        -2.3025650027239108e-05, -9.380006601906792e-06, 6.323514947609108e-07,
        6.551022819231502e-07,
    ),
    (  # C1
        -0.053650205256750697, 0.11027818741081483, 1.2317200154315227,
        1.2634964862799458, -1.695108997559503, -2.9998711967650102,
        -0.10819944959899208, 1.9407662946212714, 0.7838423561500687,
        -0.5054829667900366, -0.38450723496057976, 0.03747264646531532,
        0.09092026610973176, 0.01044923755006451, -0.012582979651583417,
        -0.003399503721151274, 0.0010410950537714891, 0.0005010949051118486,
        -3.956359669003182e-05, -4.7624592453571896e-05, -1.8539355338085133e-06,
        3.1936918080068973e-06, 4.0907807608506065e-07,
    ),
    (  # C2
        0.005188542830293168, 0.0012378633552253898, -0.18137505725166997,
        0.14291492748532125, 1.3303391766687565, 0.3522472353403734,
        -2.421001595891951, -1.6760787022538108, 1.3689416723328371,
        1.5539019430222982, -0.1722164273472998, -0.6359068055045431,
        -0.09911649873041208, 0.14033480067387008, 0.04782352019827292,
        -0.017356040641479782, -0.010225012534028593, 0.0009274149159794888,
        0.0013572194372373386, 6.41369012029388e-05, -0.0001230080569819663,
        -1.83135074047892e-05, 7.821628604322627e-06, 2.0087542484759946e-06,
    ),
    (  # C3
        -0.0026794321814389136, 0.02995372109103515, -0.042570172541828696,
        -0.28997965779803886, 0.4888831999235446, 1.230855876395746,
        -0.8297560708527408, -2.249763536666567, 0.07845139961005472,
        1.7467492800868893, 0.45968080979749937, -0.6619353471039775,
        -0.31590441036173633, 0.12844792545207495, 0.10073382716626152,
        -0.009530183848825268, -0.019264421687514088, -0.001246463715876929,
        0.0024243969641103086, 0.000437647697741857, -0.00020714032687001792,
        -6.274344504186516e-05, 1.157534381459567e-05, 5.88385492454038e-06,
    ),
    (  # C4
        0.00046483389361763383, -0.004022642946136188, 0.003847177051796127,
        0.06581175135809486, -0.19604124343694448, -0.20854053686358853,
        0.9507754185141751, 0.5341535312914873, -1.67634944117634,
        -1.076747157875129, 1.235339301656597, 1.0257825340057276,
        -0.40124095793988546, -0.5036663995108304, 0.03573487795502745,
        0.14431763086785418, 0.01509152741790347, -0.026098874779194363,
        -0.006126628379519262, 0.003077503129870841, 0.0011562478934088753,
        -0.00022775966758472127, -0.00014189637118181445, 7.4648603079559195e-06,
        1.2479701645409117e-05,
    ),
)
