"""Tests for the accelerated section: triangle rows, coefficients, both summation orders."""

import itertools
import math
import random

import mpmath
import numpy as np
import pytest

from zsections import acceleration_engine
from zsections._tables import rsqrt_k
from zsections.acceleration_engine import (
    COEFF_CACHE_ORDERS,
    MAX_COEFF_ORDER,
    MAX_TRIANGLE_ORDER,
    TAIL_LIMIT,
    accelerated_coefficients,
    accelerated_triangle,
    accelerated_triangle_rows,
    accelerated_vertical,
    accelerated_vertical_rows,
    coefficient_direct_sum,
    coefficient_l2_distance,
    transition_rows,
)
from zsections.errors import DomainError, ResourceLimitError
from zsections.reference_engine import RS4_T_MIN, em_tail_rows, section_rounding
from zsections.sections_engine import (
    MAX_SECTION_TERMS,
    CoefficientVector,
    cosine_rows,
    cosine_terms,
    section,
    section_rows,
    z_custom,
)
from zsections.special_functions import theta, theta_grid
from zsections.zero_scanner import grid_points


def enumerate_tail(flips: int, k: int) -> float:
    """P[#heads >= k] over all 2^flips equally likely outcomes, by brute force."""
    hits = sum(1 for outcome in itertools.product((0, 1), repeat=flips)
               if sum(outcome) >= k)
    return hits / 2.0**flips


def exact_weights(order: int) -> np.ndarray:
    """P[Binomial(N+1, 1/2) >= k] for k = 1..N+1 by exact suffix sums of the binomial
    row, each an int / int quotient: the coefficients, then the closing coefficient.

    The row is walked up from C(m, 0) = 1 (math.comb(20001, k) takes about 4 ms
    per call), and its middle entry is checked against math.comb.
    """
    m = order + 1
    row = [1]
    for j in range(m):
        row.append(row[-1] * (m - j) // (j + 1))
    assert row[m // 2] == math.comb(m, m // 2)
    total, suffix, out = 1 << m, 0, []
    for c in row[:0:-1]:
        suffix += c
        out.append(suffix / total)
    return np.array(out[::-1])


# Small orders, the orders where entries turn subnormal (from N = 1022) and then
# round to 0 (from N = 1074), the largest orders a benchmark window builds, and
# the last exact order.
REFERENCE_ORDERS = [*range(1, 121), *range(1015, 1086), *range(2490, 2503), 20000]


class TestTriangleRows:
    """_row_longdouble(n), the rows 2^-(n+1) C(n, k) that the triangle sum reads."""

    def test_row_sums_are_half(self):
        for n in (0, 1, 2, 17, 100, 499, 500):
            row_sum = float(np.sum(acceleration_engine._row_longdouble(n)))
            assert abs(row_sum - 0.5) <= 1e-14, f"row {n}"

    def test_entries(self):
        def row(n):
            return acceleration_engine._row_longdouble(n).astype(np.float64)

        assert row(0)[0] == 0.5
        assert row(3)[1] == 3.0 / 16.0
        row7 = row(7)
        assert row7.shape == (8,)
        assert np.all(row7 > 0.0) and np.all(row7 <= 1.0)
        assert row7[2] == row7[5]  # symmetry of C(7, k)


class TestCoefficients:
    def test_first_coefficient_closed_form(self):
        for order in range(1, 1001):
            a1 = accelerated_coefficients(order).alpha[0]
            want = 1.0 - math.ldexp(1.0, -(order + 1))
            assert abs(a1 - want) <= 1e-15, f"alpha_1 off at N={order}"

    def test_case_three_two_against_enumeration(self):
        # N = 3, k = 2: 1/4 + 2/8 + 3/16 = 11/16, cross-checked by brute
        # force over all 16 outcomes of 4 fair flips.
        want = enumerate_tail(4, 2)
        assert want == 11.0 / 16.0
        got = accelerated_coefficients(3).alpha[1]
        assert abs(got - want) <= 1e-15

    def test_direct_sum_identity_compensated_range(self):
        for order in range(1, 61):
            alpha = accelerated_coefficients(order).alpha
            for k in {1, (order + 1) // 2, order}:
                direct = coefficient_direct_sum(order, k)
                assert abs(direct - alpha[k - 1]) <= 1e-12, f"N={order}, k={k}"

    def test_direct_sum_identity_log_space_spots(self):
        for order, k in ((100, 7), (500, 250), (617, 300), (1000, 3),
                         (1000, 500), (1000, 997)):
            direct = coefficient_direct_sum(order, k)
            tail = accelerated_coefficients(order).alpha[k - 1]
            assert abs(direct - tail) <= 1e-12, f"N={order}, k={k}"

    def test_direct_sum_refuses_k_outside_its_order(self):
        for k in (0, 11):
            with pytest.raises(DomainError, match=f"^k = {k} outside 1..10$"):
                coefficient_direct_sum(10, k)

    def test_symmetry_of_fair_tails(self):
        # alphatilde_k + alphatilde_{N+2-k} = 1 exactly in exact arithmetic.
        for order in (3, 10, 57, 200, 1001):
            alpha = accelerated_coefficients(order).alpha
            for k in range(2, order + 1):
                pair = alpha[k - 1] + alpha[order + 1 - k]
                assert abs(pair - 1.0) <= 1e-12, f"N={order}, k={k}"

    def test_monotone_decreasing(self):
        for order in range(1, 51):
            alpha = accelerated_coefficients(order).alpha
            assert np.all(np.diff(alpha) < 0.0), f"not strict at N={order}"
            assert np.all((alpha > 0.0) & (alpha < 1.0))
        # At larger N the leading entries round to exactly 1.0, so only
        # non-strict monotonicity is representable; the transition band
        # around (N+1)/2 stays strict.
        for order in (200, 1000, MAX_COEFF_ORDER):
            alpha = accelerated_coefficients(order).alpha
            assert np.all(np.diff(alpha) <= 0.0)
            assert np.all((alpha >= 0.0) & (alpha <= 1.0))
            half = (order + 1) // 2
            band = alpha[half - 10: half + 10]
            assert np.all(np.diff(band) < 0.0)

    def test_pointwise_limit_at_fixed_k(self):
        for order in (100, 200, 500):
            alpha = accelerated_coefficients(order).alpha
            assert alpha[4] >= 1.0 - 1e-10, f"alpha_5 at N={order}"

    def test_sigmoid_shape_at_order_200(self):
        alpha = accelerated_coefficients(200).alpha
        assert np.all(alpha[:80] >= 0.99)
        assert np.all(alpha[120:] <= 0.01)

    def test_cache_is_write_once(self):
        a = accelerated_coefficients(77).alpha
        b = accelerated_coefficients(77).alpha
        assert a is b
        with pytest.raises(ValueError):
            a[0] = 0.0

    def test_cache_stays_bounded(self):
        """Scanning more orders than the cache holds keeps COEFF_CACHE_ORDERS of them."""
        cache = acceleration_engine._cached_coefficients
        orders = range(1000, 1000 + 2 * COEFF_CACHE_ORDERS)
        for order in orders:
            assert accelerated_coefficients(order).alpha.shape == (order,)
        assert cache.cache_info().currsize == COEFF_CACHE_ORDERS
        hits = cache.cache_info().hits
        accelerated_coefficients(orders[-1])
        assert cache.cache_info().hits == hits + 1
        first = accelerated_coefficients(orders[0])  # evicted, rebuilt equal
        assert np.array_equal(first.weights, exact_weights(orders[0]))

    def test_ascending_orders_step_from_their_neighbours(self, monkeypatch):
        # Each run of consecutive orders builds its first order cold and every
        # later one by a Pascal step from the order before.
        acceleration_engine._cached_coefficients.cache_clear()
        cold = []
        upper_sums = acceleration_engine._upper_sums
        monkeypatch.setattr(acceleration_engine, "_upper_sums",
                            lambda m: cold.append(m - 1) or upper_sums(m))
        for order in REFERENCE_ORDERS:
            coeffs = accelerated_coefficients(order)
            assert np.array_equal(coeffs.weights, exact_weights(order)), f"N={order}"
            assert coeffs.alpha.base is coeffs.weights and coeffs.alpha.shape == (order,)
        assert cold == [1, 1015, 2490, 20000]

    def test_cold_orders_in_shuffled_order(self, monkeypatch):
        orders = list(REFERENCE_ORDERS)
        random.Random(2025).shuffle(orders)
        for order in orders:
            acceleration_engine._cached_coefficients.cache_clear()
            monkeypatch.setattr(acceleration_engine, "_last_sums", (0, []))
            weights = accelerated_coefficients(order).weights
            assert np.array_equal(weights, exact_weights(order)), f"N={order}"

    def test_validation(self):
        with pytest.raises(DomainError):
            accelerated_coefficients(0)
        with pytest.raises(ResourceLimitError):
            accelerated_coefficients(10**6 + 1)


class TestVerticalRows:
    """The vertical form's rows are a weighted section of N + 1 terms, like a custom vector."""

    def test_certified_rows_keep_the_full_row_float_sum(self):
        order = 2000
        coeffs = accelerated_coefficients(order)
        ts = grid_points(4000.0, 4002.0, 0.01)
        thetas = theta_grid(ts)
        got, exact = accelerated_vertical_rows(ts, thetas, order, exact_below=0.1)
        want = accelerated_vertical_rows(ts, thetas, order)[0]
        assert exact.any() and not exact.all()
        assert np.array_equal(got[exact], want[exact])
        rows = cosine_rows(ts[~exact], thetas[~exact], order + 1) * coeffs.weights
        assert np.array_equal(got[~exact], rows.sum(axis=1))
        assert np.array_equal(got, section_rows(ts, thetas, order + 1, coeffs.weights, 0.1)[0])


class TestTriangleEvaluation:
    def test_order_zero(self):
        for t in (0.0, 14.2, 412.5):
            want = 0.5 * math.cos(theta(t))
            assert abs(accelerated_triangle(t, 0) - want) <= 1e-16

    def test_order_one_closed_form(self):
        t = 412.5
        want = 0.75 * math.cos(theta(t)) \
            + (math.sqrt(2.0) / 8.0) * math.cos(theta(t) - t * math.log(2.0))
        assert abs(accelerated_triangle(t, 1) - want) <= 1e-15

    def test_resource_ceiling(self):
        with pytest.raises(ResourceLimitError):
            accelerated_triangle(10.0, 10**6 + 1)

    def test_order_limit_counts_the_cells(self, monkeypatch):
        # Order n sums (n+1)(n+2)/2 cells: 998,991 at 1412, 1,000,405 at 1413.
        assert MAX_TRIANGLE_ORDER == 1412
        assert (1412 + 1) * (1412 + 2) // 2 <= MAX_SECTION_TERMS < (1413 + 1) * (1413 + 2) // 2
        rows = []
        monkeypatch.setattr(acceleration_engine, "_row_longdouble",
                            lambda n: rows.append(n) or np.zeros(n + 1, dtype=np.longdouble))
        with pytest.raises(ResourceLimitError, match="^order 1413 exceeds 1412, "):
            accelerated_triangle(100.0, 1413)
        ts = np.array([100.0, 200.0])
        with pytest.raises(ResourceLimitError, match="^order 1413 exceeds 1412, "):
            accelerated_triangle_rows(ts, theta_grid(ts), 1413)
        assert rows == []

    def test_coefficient_orders_stop_at_the_cap(self, monkeypatch):
        # Order 20,000 is the last whose coefficients are built exactly; every
        # coefficient form refuses the next order before any vector is built.
        assert MAX_COEFF_ORDER == 20000
        built = []
        monkeypatch.setattr(acceleration_engine, "_cached_coefficients",
                            lambda order: built.append(order))
        ts = np.array([100.0])
        n = MAX_COEFF_ORDER + 1
        for call in (lambda: accelerated_coefficients(n),
                     lambda: accelerated_vertical(100.0, n),
                     lambda: accelerated_vertical_rows(ts, theta_grid(ts), n),
                     lambda: coefficient_l2_distance(n)):
            with pytest.raises(ResourceLimitError, match="^order 20001 exceeds 20000, the last "
                                                         "order with correctly rounded "
                                                         "coefficients$"):
                call()
        assert built == []


class TestSummationOrderIdentity:
    def test_small_orders_exactly(self):
        # The N = 1 vertical sum carries the closing 2^-2 cos(theta - t ln 2)/sqrt(2)
        # column, so the two orders agree exactly from the smallest case up.
        rng = np.random.default_rng(97)
        for _ in range(10):
            t = rng.uniform(5.0, 500.0)
            for order in (1, 2, 3, 5, 8):
                tri = accelerated_triangle(t, order)
                ver = accelerated_vertical(t, order)
                assert abs(tri - ver) <= 1e-13 * (1.0 + abs(tri)), f"t={t}, N={order}"

    def test_random_draws(self):
        rng = np.random.default_rng(12021)
        for _ in range(20):
            t = rng.uniform(10.0, 2000.0)
            order = int(rng.integers(1, 1001))
            tri = accelerated_triangle(t, order)
            ver = accelerated_vertical(t, order)
            assert abs(tri - ver) <= 1e-12 * (1.0 + abs(tri)), f"t={t}, N={order}"

    def test_normative_example(self):
        tri = accelerated_triangle(400.0, 200)
        ver = accelerated_vertical(400.0, 200)
        assert abs(tri - ver) <= 1e-12 * (1.0 + abs(tri))

    def test_vertical_matches_z_custom_at_large_order(self):
        # Dropping the closing coefficient (below double rounding here) the
        # vertical form is just z_custom with the cached coefficients.
        t, order = 415.0, 205
        via_custom = z_custom(t, accelerated_coefficients(order).alpha)
        assert abs(accelerated_vertical(t, order) - via_custom) <= 1e-12


class TestStepCoefficientsAndDistance:
    def test_step_vector(self):
        # The step vector of order N is N ones: z_custom of it is the plain section.
        vec = CoefficientVector(alpha=(1.0,) * 3)
        t = 98.7
        assert z_custom(t, vec) == section(t, 3)

    def test_distance_order_one(self):
        # alpha = (3/4), step = (1): gap exactly 1/4.
        assert coefficient_l2_distance(1) == 0.25

    def test_distance_order_four_against_enumeration(self):
        # Tails of 5 flips: 31/32, 26/32, 16/32, 6/32; gaps give
        # sqrt(1 + 36 + 256 + 676)/32 = sqrt(969)/32.
        tails = [enumerate_tail(5, k) for k in range(1, 5)]
        want = math.sqrt(math.fsum((x - 1.0) ** 2 for x in tails))
        assert abs(want - math.sqrt(969.0) / 32.0) <= 1e-16
        assert abs(coefficient_l2_distance(4) - want) <= 1e-15

    def test_distance_sweep_grows(self):
        values = [coefficient_l2_distance(n) for n in (50, 100, 200, 400, 800)]
        assert all(math.isfinite(v) for v in values)
        assert all(b > a for a, b in zip(values, values[1:])), values

    @pytest.mark.parametrize("order", [*range(1, 80), 399, 800, 2500, MAX_COEFF_ORDER])
    def test_distance_equals_lower_tail_walk(self, order):
        # The lower tails P[X <= k-1] by their own exact prefix walk: the same
        # doubles as the reversed upper tails that coefficient_l2_distance
        # reads from the cached vector.
        m = order + 1
        total, c, prefix = 1 << m, 1, 1
        gaps = [prefix / total]
        for j in range(1, order):
            c = c * (m - j + 1) // j
            prefix += c
            gaps.append(prefix / total)
        gaps = np.array(gaps)
        assert coefficient_l2_distance(order) == math.sqrt(math.fsum(gaps * gaps))

    def test_closing_coefficient(self):
        # The vertical form's last weight is the apex cell 2^-(N+1), exactly.
        for order in (1, 10, 205, MAX_COEFF_ORDER):
            assert accelerated_coefficients(order).weights[-1] == 2.0**-(order + 1)


def mp_rotated_tail(t, m):
    """Re(e^(i theta) T_m(t)) in mpmath: the Euler-Maclaurin tail at M = m, J = 20."""
    s = mpmath.mpc(0.5, t)
    tail = -mpmath.power(m, -s) / 2 + mpmath.power(m, 1 - s) / (s - 1)
    for j in range(1, 21):
        tail += (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * mpmath.rf(s, 2 * j - 1)
                 * mpmath.power(m, -s - 2 * j + 1))
    return mpmath.re(mpmath.expj(mpmath.siegeltheta(t)) * tail)


class TestTransitionWindow:
    """The accelerated section is Z_K minus its transition window at K = head, within the
    sigmoid's two 2^-60 ends."""

    @pytest.mark.parametrize("order", [1, 100, 1000, 2500, MAX_COEFF_ORDER])
    def test_head_is_the_fewest_terms_whose_rest_is_within_the_limit(self, order):
        coeffs = accelerated_coefficients(order)
        bounds = coeffs.weights * (1.0 / np.sqrt(np.arange(1.0, order + 2.0)))
        assert math.fsum(bounds[coeffs.head:]) <= coeffs.tail <= TAIL_LIMIT * (1.0 + 2.0**-40)
        assert math.fsum(bounds[coeffs.head - 1:]) > TAIL_LIMIT
        if order >= 1000:
            assert coeffs.head < 0.65 * (order + 1)

    def test_window_bounds(self):
        for order in (1, 2, 100, 1000, 2500):
            c = accelerated_coefficients(order)
            gaps = (1.0 - c.weights[:c.head]) * rsqrt_k(c.head)
            assert 0 <= c.lo <= c.head <= order + 1
            assert np.array_equal(c.window, gaps[c.lo:]) and not c.window.flags.writeable
            assert math.fsum(gaps[:c.lo]) <= c.low <= TAIL_LIMIT
            assert c.lo == len(gaps) or math.fsum(gaps[:c.lo + 1]) > TAIL_LIMIT
        assert [accelerated_coefficients(n).head - accelerated_coefficients(n).lo
                for n in (100, 1000, 2500)] == [80, 264, 418]

    def test_window_and_its_bound(self):
        """Each point's window summed alone, and err the documented sum: the window's
        rounding and the sigmoid's two ends."""
        u = 2.0**-53
        ts = np.sort(np.random.default_rng(60).uniform(2000.0, 2100.0, 40))
        thetas, orders = theta_grid(ts), np.floor(ts / 2.0).astype(int)
        runs = [(slice(i, i + 1), accelerated_coefficients(n)) for i, n in enumerate(orders)]
        window, err = transition_rows(ts, thetas, runs)
        width = max(c.head - c.lo for _, c in runs)
        for i, (t, theta_t, (_, c)) in enumerate(zip(ts, thetas, runs)):
            ks = np.arange(c.lo + 1, c.head + 1)
            terms = np.cos(theta_t - t * np.log(ks)) * c.window
            assert abs(window[i] - terms.sum()) <= 1e-12
            rounding = u * c.window.sum() * (5.0 * (abs(theta_t) + t * math.log(c.head)) + 8.0
                                             + width)
            want = 1.001 * rounding + c.low + c.tail
            assert abs(err[i] - want) <= 1e-12 * want

    def test_identity_against_mpmath(self):
        """accelerated_vertical = Z - tail_K - window within the bounds of the tail, the
        window and the rounding of N + 1 terms, at heights in [200, 40000]."""
        rng = np.random.default_rng(2405)
        ts = np.sort(np.concatenate([rng.uniform(RS4_T_MIN, 4e4, 5), [RS4_T_MIN, 39990.0]]))
        thetas = theta_grid(ts)
        coeffs = [accelerated_coefficients(int(t // 2)) for t in ts]
        heads = np.array([c.head for c in coeffs], dtype=float)
        window, window_err = transition_rows(ts, thetas, [(slice(i, i + 1), c)
                                                          for i, c in enumerate(coeffs)])
        tail_err = em_tail_rows(ts, thetas, heads)[1]
        bound = (tail_err + window_err
                 + section_rounding(ts, thetas, np.floor(ts / 2.0) + 1.0))
        with mpmath.workdps(30):
            zs = np.array([float(mpmath.siegelz(t)) for t in ts.tolist()])
            tails = np.array([float(mp_rotated_tail(t, int(k))) for t, k in zip(ts, heads)])
        values = np.array([accelerated_vertical(t, c.order) for t, c in zip(ts, coeffs)])
        gap = np.abs(values - (zs - tails - window))
        assert np.all(gap <= bound)
        assert np.all(bound <= 2e-7)
        assert np.all(np.abs(window) > 1e3 * bound)
