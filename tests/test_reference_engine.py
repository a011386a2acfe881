"""Tests for the Riemann-Siegel and Euler-Maclaurin reference engines.

Frozen values were computed with mpmath at 50 significant digits
(mp.siegelz / mp.zeta); live-oracle spot checks re-derive a few at run time.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from zsections import _tables, reference_engine
from zsections.errors import ConvergenceError, DomainError, ResourceLimitError
from zsections.reference_engine import (
    HAZARD_COS_EPS,
    RS4_ERR_CONST,
    RS4_T_MIN,
    RS_ERR_CONST,
    _psi,
    em_tail_rows,
    euler_maclaurin_error,
    euler_maclaurin_rows,
    euler_maclaurin_terms,
    riemann_siegel4_rows,
    section_rounding,
    tail_converges,
    validated_terms,
    z_euler_maclaurin,
    z_riemann_siegel,
)
from zsections.sections_engine import MAX_SECTION_TERMS, section
from zsections.special_functions import TWO_PI, theta_grid

# mpmath, 50 digits
ZETA_HALF = -1.4603545088095868128894991525152980124672293310126
Z_100 = 2.6926970566644634749953798286850324206190216376727
Z_412_5 = -1.1982415653385019964726015904350613455779200028923
Z_1000 = 0.99779463752158661398600268518815709241023297073357
Z_3000 = 3.5596854630161092963170767845329033242290271795365


class TestEulerMaclaurin:
    def test_value_at_origin_is_zeta_half(self):
        ref = z_euler_maclaurin(0.0)
        assert abs(ref.z - ZETA_HALF) <= 1e-12
        assert ref.method == "EM_ORACLE"

    def test_frozen_values(self):
        assert abs(z_euler_maclaurin(100.0).z - Z_100) <= 1e-11
        assert abs(z_euler_maclaurin(412.5).z - Z_412_5) <= 1e-10
        assert abs(z_euler_maclaurin(1000.0).z - Z_1000) <= 1e-10
        assert abs(z_euler_maclaurin(3000.0).z - Z_3000) <= 1e-9

    def test_live_oracle_spot_checks(self):
        mpmath.mp.dps = 30
        rng = np.random.default_rng(314159)
        for _ in range(10):
            t = rng.uniform(1.0, 2000.0)
            want = float(mpmath.siegelz(t))
            got = z_euler_maclaurin(t).z
            assert abs(got - want) <= 1e-9, f"EM off at t={t}: {got} vs {want}"

    def test_imaginary_residual_diagnostic(self):
        """The e^{i theta} rotation must land on the real axis."""
        rng = np.random.default_rng(11)
        worst = 0.0
        for t in rng.uniform(1.0, 2000.0, size=100):
            worst = max(worst, z_euler_maclaurin(float(t)).im_residual)
        assert worst <= 1e-8, f"worst imaginary residual {worst:.3e}"

    def test_convergence_guard(self):
        # A partial sum shorter than t leaves the sixth correction far above
        # 1e-12 of the value at M = 45, t = 40: the guard must fire.
        ts = np.array([40.0])
        with pytest.raises(ConvergenceError, match="at t = 40.0"):
            euler_maclaurin_rows(ts, theta_grid(ts), 45)

    def test_defaults_converge_up_to_5000(self):
        for t in (0.0, 14.13, 500.0, 2718.28, 5000.0):
            ref = z_euler_maclaurin(t)
            assert math.isfinite(ref.z)
            assert ref.err_estimate <= 1e-11, f"loose tail at t={t}: {ref.err_estimate}"

    def test_default_tail_never_diverges(self):
        # At M = max(100, 2 ceil(t)) and J = 6 the last correction peaks near
        # 2.8e-14 at t = 50, far below the guard's 1e-12: the schemes' oracle
        # can never raise ConvergenceError.
        ts = np.linspace(0.0, 120.0, 241).tolist() + [1e3, 1e4, 1e5, 5e5]
        worst = max(z_euler_maclaurin(t).err_estimate for t in ts)
        assert 1e-14 < worst <= 3e-14

    def test_domain_errors(self):
        for t in (-3.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="requires finite t >= 0"):
                z_euler_maclaurin(t)

    def test_partial_sum_length_is_bounded(self):
        # Refused while validating, before any table is built: M = 2e9
        # would ask for ln k and 1/sqrt(k) tables of 16 GB each.
        with pytest.raises(ResourceLimitError):
            validated_terms(1e9)
        with pytest.raises(ResourceLimitError):
            z_euler_maclaurin(1e9)
        assert validated_terms(MAX_SECTION_TERMS / 2) == MAX_SECTION_TERMS
        assert euler_maclaurin_terms(MAX_SECTION_TERMS / 2) == MAX_SECTION_TERMS


class TestRiemannSiegel:
    def test_correction_term_at_exact_square_height(self):
        # t = 2 pi 4: p = 0, cutoff 2, correction -(1/sqrt(2)) cos(pi/8).
        t = TWO_PI * 4.0
        ref = z_riemann_siegel(t)
        corr = ref.z - 2.0 * section(t, 2)
        want = -math.cos(math.pi / 8.0) / math.sqrt(2.0)
        assert abs(corr - want) <= 1e-12, f"correction {corr} vs {want}"
        assert not ref.hazard
        assert ref.err_estimate == RS_ERR_CONST * t**-0.75

    def test_frozen_values(self):
        # Measured RS1 agreement is ~0.01 t^(-3/4); assert a 0.5 t^(-3/4)
        # envelope, well inside the documented 10 t^(-3/4) bound.
        assert abs(z_riemann_siegel(100.0).z - Z_100) <= 0.5 * 100.0**-0.75
        assert abs(z_riemann_siegel(1000.0).z - Z_1000) <= 0.5 * 1000.0**-0.75
        assert abs(z_riemann_siegel(3000.0).z - Z_3000) <= 0.5 * 3000.0**-0.75

    def test_cross_method_agreement(self):
        rng = np.random.default_rng(55)
        for t in rng.uniform(50.0, 5000.0, size=40):
            rs = z_riemann_siegel(float(t))
            em = z_euler_maclaurin(float(t))
            bound = RS_ERR_CONST * float(t)**-0.75
            assert abs(rs.z - em.z) <= bound, f"cross-method gap at t={t}"

    def test_correction_sign_flips_with_cutoff_parity(self):
        # Same fractional part p = 0.3 at successive cutoffs: the remainder
        # sign must alternate exactly.
        signs = []
        for n in range(2, 10):
            t = TWO_PI * (n + 0.3) ** 2
            corr = z_riemann_siegel(t).z - 2.0 * section(t, n)
            signs.append(math.copysign(1.0, corr))
        for a, b in zip(signs, signs[1:]):
            assert a == -b, f"parity flip violated: {signs}"

    def test_hazard_flag_near_removable_points(self):
        for base in (0.25, 0.75):
            a = 3.0 + base + 1e-10
            t = TWO_PI * a * a
            ref = z_riemann_siegel(t)
            assert ref.hazard, f"guard did not trigger at p near {base}"
            em = z_euler_maclaurin(t)
            assert abs(ref.z - em.z) <= ref.err_estimate

        assert not z_riemann_siegel(412.5).hazard

    def test_taylor_patch_is_continuous(self):
        # Just outside the guard window the direct quotient must agree with
        # the expansion used inside it.
        for base, orient in ((0.25, +1.0), (0.25, -1.0), (0.75, +1.0), (0.75, -1.0)):
            p = base + orient * 1e-7
            direct, hazard = _psi(p)
            assert not hazard
            d = (p - 0.25) if p < 0.5 else (0.75 - p)
            c0, c1, c2, c3, c4 = 0.5, -1.0, math.pi**2 / 4, -math.pi**2 / 6, \
                5 * math.pi**4 / 48 - math.pi**2
            taylor = c0 + d * (c1 + d * (c2 + d * (c3 + d * c4)))
            assert abs(direct - taylor) <= 1e-8, f"patch seam at p={p}"

    def test_hazard_window_width(self):
        assert _psi(0.25 + 1e-7)[1] is False
        assert _psi(0.25 + 1e-10)[1] is True
        assert HAZARD_COS_EPS == 1e-8

    def test_domain_error_below_two_pi(self):
        with pytest.raises(DomainError):
            z_riemann_siegel(6.0)


def rs_correction_series(degree=64):
    """C0..C4 of the Riemann-Siegel formula as Taylor coefficients in x = p - 1/2.

    psi(1/2 + x) = -cos(2 pi x^2 - 5 pi/8) / cos(2 pi x); its series is the
    quotient of the two cosine series, and each C_k is Gabcke's combination
    of derivatives of psi (Edwards, sec. 7.4).  Exact up to x^(degree - 12).
    """
    with mpmath.workdps(80):
        pi = mpmath.pi
        num = [mpmath.mpf(0)] * (degree + 1)
        den = [mpmath.mpf(0)] * (degree + 1)
        for m in range(degree // 2 + 1):
            phase = mpmath.cos(5 * pi / 8) if m % 2 == 0 else mpmath.sin(5 * pi / 8)
            num[2 * m] = -(-1) ** (m // 2) * (2 * pi) ** m / mpmath.factorial(m) * phase
            den[2 * m] = (-1) ** m * (2 * pi) ** (2 * m) / mpmath.factorial(2 * m)
        psi = []
        for n in range(degree + 1):
            psi.append(num[n] - mpmath.fsum(psi[k] * den[n - k] for k in range(n)))

        def derivative(m):
            return [psi[j + m] * mpmath.factorial(j + m) / mpmath.factorial(j)
                    for j in range(degree + 1 - m)]

        def combine(*terms):
            size = degree + 1 - max(m for m, _ in terms)
            return [mpmath.fsum(c * derivative(m)[j] for m, c in terms) for j in range(size)]

        return [
            combine((0, 1)),
            combine((3, -1 / (96 * pi**2))),
            combine((2, 1 / (64 * pi**2)), (6, 1 / (18432 * pi**4))),
            combine((1, -1 / (64 * pi**2)), (5, -1 / (3840 * pi**4)),
                    (9, -1 / (5308416 * pi**6))),
            combine((0, 1 / (128 * pi**2)), (4, mpmath.mpf(19) / (24576 * pi**4)),
                    (8, mpmath.mpf(11) / (5898240 * pi**6)),
                    (12, 1 / (2038431744 * pi**8))),
        ]


@pytest.fixture(scope="module")
def siegelz_heights():
    """Heights in [RS4_T_MIN, 1e4] with mpmath's Z: random, next to t = 200, and at
    p = sqrt(t/2pi) - N near 0, 1/4, 3/4 and 1."""
    rng = np.random.default_rng(2718)
    squares = [TWO_PI * (k + f) ** 2
               for k in range(6, 39, 3) for f in (1e-9, 0.25, 0.75, 1 - 1e-9)]
    ts = np.sort(np.concatenate([rng.uniform(RS4_T_MIN, 1e4, 60),
                                 RS4_T_MIN + rng.uniform(0, 5, 15), [RS4_T_MIN, 1e4], squares]))
    with mpmath.workdps(20):
        return ts, np.array([float(mpmath.siegelz(t)) for t in ts.tolist()])


class TestRiemannSiegel4:
    def test_correction_tables_rederive(self):
        derived = rs_correction_series()
        assert len(derived) == len(_tables.RS_CORRECTION_SERIES)
        for k, (table, series) in enumerate(zip(_tables.RS_CORRECTION_SERIES, derived)):
            odd = k % 2
            assert all(abs(c) <= 1e-60 for c in series[1 - odd::2]), f"C{k} parity"
            kept = series[odd::2]
            for j, c in enumerate(table):
                assert abs(c - float(kept[j])) <= 2.0**-52 * abs(c), f"C{k} term {j}"
            left_out = mpmath.fsum(abs(c) * mpmath.mpf(2) ** -(2 * j + odd)
                                   for j, c in enumerate(kept) if j >= len(table))
            assert left_out <= 2e-21, f"C{k} cut leaves {left_out}"

    def test_floating_point_model(self, siegelz_heights):
        """The bounds' model: theta within 2 ulps, ln k within 1 ulp, cos and sin within 2u."""
        u = 2.0**-53
        # up to t = 5e5, where the default M reaches MAX_SECTION_TERMS
        ts = np.concatenate([siegelz_heights[0], np.linspace(RS4_T_MIN, 5e5, 500)])
        thetas = theta_grid(ts)
        with mpmath.workdps(40):
            worst = max(abs(mpmath.mpf(th) - mpmath.siegeltheta(t)) / abs(th)
                        for t, th in zip(ts.tolist(), thetas.tolist()))
        assert worst <= 4.0 * u
        logs = _tables.log_k(MAX_SECTION_TERMS).astype(np.longdouble)
        exact = np.log(np.arange(1, len(logs) + 1, dtype=np.longdouble))
        assert np.all(np.abs(logs - exact) <= 2.0 * u * exact)
        phases = np.random.default_rng(3).uniform(-2e5, 2e5, 10**5)
        wide = phases.astype(np.longdouble)
        assert np.all(np.abs(np.cos(phases) - np.cos(wide)) <= 2.0 * u)
        assert np.all(np.abs(np.sin(phases) - np.sin(wide)) <= 2.0 * u)

    def test_cross_validation_against_siegelz(self, siegelz_heights):
        """|RS4 - Z| stays under the returned bound, next to criterion 3's RS1 test."""
        ts, exact = siegelz_heights
        z, err = riemann_siegel4_rows(ts, theta_grid(ts))
        assert np.all(np.abs(z - exact) <= err)
        # The bound is Gabcke's plus rounding, not a blanket tolerance.
        assert np.all(err <= 1.5 * RS4_ERR_CONST * ts ** -2.75 + 1e-9)
        # At sqrt(t/2pi) next to an integer N may be off by one: no bound.
        edges = TWO_PI * np.arange(6.0, 40.0) ** 2
        edges = np.concatenate([edges, np.nextafter(edges, np.inf)])
        assert np.all(np.isinf(riemann_siegel4_rows(edges, theta_grid(edges))[1]))

    def test_oracle_error_bound(self, siegelz_heights):
        """The computed oracle lies within euler_maclaurin_error of Z."""
        ts, exact = (a[::3] for a in siegelz_heights)
        ms = np.maximum(100.0, 2.0 * np.ceil(ts))
        thetas = theta_grid(ts)
        bounds = euler_maclaurin_error(ts, ms, np.abs(exact))
        for t, m, theta_t, want, bound in zip(ts, ms, thetas, exact, bounds):
            got = euler_maclaurin_rows(np.array([t]), np.array([theta_t]), int(m))[0]
            assert abs(got - want) <= bound, f"oracle off by {abs(got - want):.3e} at t={t}"
        assert np.all(bounds <= 1e-8)

    def test_rs4_agrees_with_the_oracle_on_a_dense_grid(self):
        """|RS4 - EM| within both bounds on 4,001 heights of [200, 1e4]."""
        ts = np.linspace(RS4_T_MIN, 1e4, 4001)
        thetas = theta_grid(ts)
        z, err = riemann_siegel4_rows(ts, thetas)
        ms = np.maximum(100.0, 2.0 * np.ceil(ts))
        em = np.concatenate([euler_maclaurin_rows(ts[i:i + 1], thetas[i:i + 1], int(ms[i]))
                             for i in range(len(ts))])
        bound = err + euler_maclaurin_error(ts, ms, np.abs(z) + err)
        finite = np.isfinite(err)
        assert np.all(np.abs(z - em)[finite] <= bound[finite])


def mp_rotated_tail(t, n, order=20):
    """Re(e^(i theta) T_n(t)) in mpmath: the Euler-Maclaurin tail at M = n, J = order."""
    s = mpmath.mpc(0.5, t)
    tail = -mpmath.power(n, -s) / 2 + mpmath.power(n, 1 - s) / (s - 1)
    for j in range(1, order + 1):
        tail += (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * mpmath.rf(s, 2 * j - 1)
                 * mpmath.power(n, -s - 2 * j + 1))
    return mpmath.re(mpmath.expj(mpmath.siegeltheta(t)) * tail)


def bernoulli_fractions(count):
    """B_2, B_4, ..., B_2count as Fractions, from sum_{k<=m} C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b[2::2]


def old_euler_maclaurin_error(ts, ms, z_max):
    """euler_maclaurin_error as it read with its own J = 6 loop, for a bit-for-bit check."""
    u = 2.0**-53
    root_m = np.sqrt(ms)
    s_abs = np.hypot(0.5, ts)
    tail = 0.5 / root_m + root_m / ts
    for j in range(1, 7):
        tail += 4.0 / TWO_PI ** (2 * j) * ((s_abs + (2 * j - 2)) / ms) ** (2 * j - 1) / root_m
    cut = ((s_abs + 13) / 13.5 * 4.0 / TWO_PI ** 14 * ((s_abs + 12) / ms) ** 13 / root_m)
    ln_m = np.log(ms)
    sums = u * (3.01 * ts * (2.0 * root_m * (ln_m - 2.0) + 4.75)
                + math.sqrt(2.0) * (ms + 6.0) * 2.0 * root_m)
    rounding = tail * u * (3.1 * ts * ln_m + 150.0)
    return 1.001 * (sums + rounding + cut) + 30.0 * u * (z_max + tail)


class TestEulerMaclaurinTail:
    """Spira's section is Z minus the rotated Euler-Maclaurin tail at M = floor(t/2)."""

    @pytest.fixture(scope="class")
    def heights(self):
        rng = np.random.default_rng(1161)
        ts = np.sort(np.concatenate([rng.uniform(30.0, 5000.0, 37), [30.0, 200.0, 5000.0]]))
        ns = np.floor(ts / 2.0)
        with mpmath.workdps(30):
            zs = [float(mpmath.siegelz(t)) for t in ts.tolist()]
            tails = [float(mp_rotated_tail(t, int(n))) for t, n in zip(ts.tolist(), ns)]
        return ts, ns, np.array(zs), np.array(tails)

    def test_bernoulli_numbers_rederive(self):
        want = bernoulli_fractions(20)
        assert [Fraction(num, den) for num, den in reference_engine._BERNOULLI_FRACTIONS] == want
        assert reference_engine._BERNOULLI_2J == tuple(float(b) for b in want[:6])
        ratios = [want[j] / want[j - 1] / ((2 * j + 1) * (2 * j + 2)) for j in range(1, 20)]
        assert reference_engine._RATIO_ROWS[2, :, 0].tolist() == [float(r) for r in ratios]

    def test_tail_against_mpmath(self, heights):
        ts, ns, _, mp_tails = heights
        tail, err = em_tail_rows(ts, theta_grid(ts), ns)
        assert np.all(np.abs(tail - mp_tails) <= 1e-12)
        assert np.all(np.abs(tail - mp_tails) <= err)

    def test_section_is_z_minus_the_tail(self, heights):
        """|section - (Z - tail)| <= err, while the tail itself is far larger."""
        ts, ns, zs, _ = heights
        thetas = theta_grid(ts)
        tail, err = em_tail_rows(ts, thetas, ns)
        err = err + section_rounding(ts, thetas, ns)
        sections = np.array([section(t, int(n)) for t, n in zip(ts.tolist(), ns)])
        assert np.all(np.abs(sections - (zs - tail)) <= err)
        assert np.all(err <= 5e-6) and np.all(err[ts >= RS4_T_MIN] <= 5e-9)
        assert np.median(np.abs(sections - zs)) > 1e5 * np.median(err)

    def test_the_cut_bounds_the_remainder_near_the_gate(self):
        """At n = 205 the tail's terms decrease up to t = 1248, slowly near it: there the
        cut dominates the bound and still holds."""
        ts = np.array([900.0, 1000.0, 1100.0, 1200.0, 1240.0])
        ns = np.full(len(ts), 205.0)
        thetas = theta_grid(ts)
        tail, err = em_tail_rows(ts, thetas, ns)
        with mpmath.workdps(30):
            zs = np.array([float(mpmath.siegelz(t)) for t in ts.tolist()])
        sections = np.array([section(t, 205) for t in ts.tolist()])
        gap = np.abs(sections - (zs - tail))
        assert np.all(gap <= err + section_rounding(ts, thetas, ns))
        assert np.all(gap > 1e-12) and np.all(err[1:] > 1e-6)

    def test_no_bound_where_the_tail_may_not_converge(self):
        # (|s| + 2J)/(2 pi n) < 1 at J = 20 holds at n = 205 for t < 1248.05.
        ts = np.array([1240.0, 1248.0, 1248.1, 1300.0])
        ns = np.full(4, 205.0)
        _, err = em_tail_rows(ts, theta_grid(ts), ns)
        assert np.array_equal(tail_converges(ts, ns), [True, True, False, False])
        assert np.all(np.isfinite(err[:2])) and np.all(err[2:] == np.inf)

    def test_bound_terms(self, heights):
        """err is the documented sum: the cut, the terms' rounding and the rotation's."""
        ts, ns, _, _ = heights
        thetas = theta_grid(ts)
        u = 2.0**-53
        root_n = np.sqrt(ns)
        s_abs = np.hypot(0.5, ts)
        size = 0.5 / root_n + root_n / ts
        for j in range(1, 21):
            ratio = (s_abs + 2 * j - 2) / ns
            size = size + 4.0 / TWO_PI ** (2 * j) * ratio ** (2 * j - 1) / root_n
        cut = (s_abs + 41) / 41.5 * 4.0 / TWO_PI ** 42 * ((s_abs + 40) / ns) ** 41 / root_n
        want = (1.001 * (size * u * (3.1 * ts * np.log(ns) + 450.0) + cut)
                + 8.0 * u * (np.abs(thetas) + 1.0) * size)
        np.testing.assert_allclose(em_tail_rows(ts, thetas, ns)[1], want, rtol=1e-12)
        phases = np.abs(thetas) + ts * np.log(ns)
        np.testing.assert_allclose(section_rounding(ts, thetas, ns),
                                   2.0 * root_n * u * (5.0 * phases + 6.0), rtol=1e-12)

    def test_oracle_bound_keeps_its_bits(self):
        rng = np.random.default_rng(25)
        ts = np.sort(np.concatenate([rng.uniform(0.5, 9e4, 2000),
                                     np.linspace(30.0, 5000.0, 2001)]))
        z_max = 3.0 * np.abs(rng.normal(size=len(ts)))
        for ms in (euler_maclaurin_terms(ts), np.maximum(1.0, np.floor(ts / 2.0))):
            assert np.array_equal(euler_maclaurin_error(ts, ms, z_max),
                                  old_euler_maclaurin_error(ts, ms, z_max))
