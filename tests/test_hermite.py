"""Basis functions, product/projection sequences, and their oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from logkdv.hermite import (
    MAX_INDEX,
    RealGrid,
    _line_fit,
    _start_scaled,
    basis_rows,
    fit_loglog_slope,
    ground_state_antiderivative,
    hermite_derivative,
    hermite_function,
    product_sequence,
    projection_sequence,
)
from logkdv.jacobi import _shoot_products, shoot


def direct_formula(n, x):
    """Oracle: u_n from the explicit Hermite-polynomial formula (small n only)."""
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    hn = np.polynomial.hermite.hermval(x / math.sqrt(2.0), coeffs)
    norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(2.0 * math.pi))
    return hn * np.exp(-0.25 * x * x) / norm


class TestHermiteFunction:
    def test_ground_state_at_origin(self):
        assert hermite_function(0, 0.0) == pytest.approx((2 * np.pi) ** -0.25, abs=1e-14)

    def test_mode_one_vanishes_at_origin(self):
        assert hermite_function(1, 0.0) == 0.0

    def test_mode_two_at_origin_against_factorial_oracle(self):
        # frozen from the direct formula: -2 / sqrt(8 sqrt(2 pi))
        expected = -2.0 / math.sqrt(8.0 * math.sqrt(2.0 * math.pi))
        assert direct_formula(2, 0.0) == pytest.approx(expected, rel=1e-14)
        assert hermite_function(2, 0.0) == pytest.approx(expected, rel=1e-12)
        assert hermite_function(2, 0.0) == pytest.approx(-0.44662, abs=5e-6)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 10, 25])
    def test_matches_direct_formula(self, n):
        x = np.linspace(-6.0, 6.0, 41)
        assert hermite_function(n, x) == pytest.approx(direct_formula(n, x), abs=1e-12)

    def test_uniform_bound(self):
        x = np.linspace(-80.0, 80.0, 801)
        for n in (0, 1, 5, 50, 500, 5000, 10000):
            assert np.max(np.abs(hermite_function(n, x))) <= 1.0

    def test_large_argument_does_not_flush_to_zero(self):
        # x = 60 is far beyond where exp(-x^2/4) underflows, but n = 4000
        # puts it inside the oscillatory region, so the value is order one
        val = hermite_function(4000, 60.0)
        assert np.isfinite(val) and abs(val) > 1e-3

    def test_index_range_errors(self):
        with pytest.raises(ValueError):
            hermite_function(MAX_INDEX + 1, 0.0)
        with pytest.raises(ValueError):
            hermite_function(-1, 0.0)

    def test_scalar_and_array_agree(self):
        x = np.array([0.3, -1.7])
        arr = hermite_function(7, x)
        assert arr[0] == hermite_function(7, 0.3)
        assert arr[1] == hermite_function(7, -1.7)


class TestHermiteDerivative:
    def test_zero_mode_at_origin(self):
        assert hermite_derivative(0, 0.0) == 0.0

    def test_zero_mode_ladder_identity(self):
        x = 1.0
        assert hermite_derivative(0, x) == pytest.approx(
            -0.5 * hermite_function(1, x), abs=1e-15
        )

    @pytest.mark.parametrize("n,x", [(3, 0.7), (0, 0.3), (8, -2.1), (40, 1.4)])
    def test_matches_centered_difference(self, n, x):
        h = 1e-5
        fd = (hermite_function(n, x + h) - hermite_function(n, x - h)) / (2 * h)
        assert hermite_derivative(n, x) == pytest.approx(fd, abs=1e-6)

    def test_defined_at_the_maximum_index(self):
        assert np.isfinite(hermite_derivative(MAX_INDEX, 1.0))


class TestBasisIntegrity:
    def test_orthonormality(self):
        grid = RealGrid.uniform()
        rows = np.array([row for _, row in basis_rows(grid.nodes, 20)])
        gram = (rows * grid.weights) @ rows.T
        assert np.abs(gram - np.eye(21)).max() < 1e-8

    def test_eigenrelation_by_finite_differences(self):
        # -u'' + (x^2 - 6)/4 u = (n - 1) u on |x| <= 8, five-point second derivative
        x = np.arange(-8.0, 8.0 + 1e-12, 0.01)
        h = 0.01
        for n in range(11):
            u = hermite_function(n, x)
            upp = (-u[4:] + 16 * u[3:-1] - 30 * u[2:-2] + 16 * u[1:-3] - u[:-4]) / (
                12 * h * h
            )
            resid = -upp + 0.25 * (x[2:-2] ** 2 - 6.0) * u[2:-2] - (n - 1) * u[2:-2]
            assert np.abs(resid).max() < 1e-6


def ldexp_rows(x, n_max):
    """Reference: the recurrence with ``np.ldexp`` applied to every row."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u_prev = np.zeros_like(x)
    u_cur, expo = _start_scaled(x)
    for n in range(n_max + 1):
        yield n, np.ldexp(u_cur, expo)
        u_next = x * u_cur / np.sqrt(n + 1.0) - np.sqrt(n / (n + 1.0)) * u_prev
        u_prev, u_cur = u_cur, u_next
        if (n + 1) % 64 == 0:
            m, e = np.frexp(u_cur)
            u_cur = m
            expo = expo + e
            u_prev = np.ldexp(u_prev, -e)


def rows_differing_from_ldexp(x, n_max):
    """Indices n whose ``basis_rows`` row differs in any byte from the reference."""
    return [
        n
        for (n, row), (_, ref) in zip(basis_rows(x, n_max), ldexp_rows(x, n_max), strict=True)
        if row.tobytes() != ref.tobytes()
    ]


class TestBasisRowsBits:
    @pytest.mark.parametrize(
        "nodes",
        [
            RealGrid.uniform().nodes,
            RealGrid.uniform(12.0, 2401).nodes,
            # the reconstruct --x-max 100 extent: points beyond |x| ~ 54.6
            # start with a binary exponent below -1074
            np.linspace(-100.0, 100.0, 2001),
        ],
        ids=["uniform", "uniform-12", "x-max-100"],
    )
    def test_every_row_matches_the_ldexp_recurrence(self, nodes):
        assert rows_differing_from_ldexp(nodes, MAX_INDEX) == []

    def test_edge_points_match_the_ldexp_recurrence(self):
        x = np.array([0.0, -0.0, 5e-324, 54.5, 54.7, 60.0, 1e3, -1e5])
        assert rows_differing_from_ldexp(x, MAX_INDEX) == []

    @settings(max_examples=40, deadline=None)
    @given(
        x=arrays(float, st.integers(1, 20), elements=st.floats(-1e3, 1e3)),
        n_max=st.integers(0, 300),
    )
    def test_any_finite_points_match_the_ldexp_recurrence(self, x, n_max):
        assert rows_differing_from_ldexp(x, n_max) == []


class TestProductSequence:
    def test_single_factor(self):
        assert product_sequence(1.0, 0.0, 1)[1] == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-14
        )

    def test_all_factors_one(self):
        assert product_sequence(0.0, 0.0, 50) == pytest.approx(np.ones(51))

    def test_two_factor_oracle(self):
        # direct product: sqrt(1)/sqrt(4) * sqrt(3)/sqrt(6)
        expected = (math.sqrt(1) / math.sqrt(4)) * (math.sqrt(3) / math.sqrt(6))
        assert product_sequence(1.0, 2.0, 2)[2] == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.35355, abs=5e-6)

    def test_log_space_matches_naive_product(self):
        k = np.arange(1, 100_001, dtype=float)
        naive = np.cumprod(np.sqrt(2 * k - 1.0) / np.sqrt(2 * k + 2.0))
        log_form = product_sequence(1.0, 2.0, 100_000)[1:]
        assert np.abs(log_form / naive - 1.0).max() < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            product_sequence(2.0, 0.0, 5)
        with pytest.raises(ValueError):
            product_sequence(-0.5, 0.0, 5)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(min_value=0.0, max_value=1.9),
        b=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_positive_decreasing_with_fitted_slope(self, a, b):
        values = product_sequence(a, b, 4000)
        assert np.all(values > 0)
        if a + b > 1e-9:
            assert np.all(np.diff(values) <= 0)
        if a + b > 0.1:  # slope fit is meaningless for a near-constant sequence
            slope = fit_loglog_slope(values[1:], tail_fraction=0.5)
            assert slope == pytest.approx(-(a + b) / 4.0, abs=0.05)


class TestProjectionSequence:
    def test_known_heads(self):
        f = projection_sequence(4)
        assert f[0] == pytest.approx(math.sqrt(2 * math.pi), abs=1e-12)
        assert f[1] == pytest.approx(2.0, abs=1e-12)

    def test_second_entry_against_quadrature_oracle(self):
        grid = RealGrid.uniform(x_max=20.0, num=4001)
        antider = ground_state_antiderivative(grid)
        u2 = hermite_function(2, grid.nodes)
        f2 = grid.inner(antider, u2)
        assert f2 == pytest.approx(math.sqrt(math.pi), abs=1e-9)
        assert projection_sequence(2)[2] == pytest.approx(f2, abs=1e-9)

    def test_quadrature_oracle_all_low_modes(self):
        grid = RealGrid.uniform(x_max=20.0, num=4001)
        antider = ground_state_antiderivative(grid)
        f = projection_sequence(20)
        for n, row in basis_rows(grid.nodes, 20):
            assert grid.inner(antider, row) == pytest.approx(f[n], abs=1e-8)

    def test_recurrence_is_exact(self):
        f = projection_sequence(500)
        n = np.arange(1, 500, dtype=float)
        lhs = f[2:] * np.sqrt(n + 1.0)
        rhs = f[:-2] * np.sqrt(n)
        assert np.abs(lhs - rhs).max() < 1e-13 * np.abs(rhs).max()
        # bit for bit the step-by-step recurrence, at both parities of n_max
        for n_max in (1, 2, 1000, 1001):
            ref = np.empty(n_max + 1)
            ref[0] = np.sqrt(2.0 * np.pi)
            ref[1] = 2.0
            for k in range(1, n_max):
                ref[k + 1] = np.sqrt(k / (k + 1.0)) * ref[k - 1]
            assert np.array_equal(projection_sequence(n_max), ref)

    def test_positive_with_quarter_power_decay(self):
        f = projection_sequence(2000)
        assert np.all(f > 0)
        slope = fit_loglog_slope(
            f[100:], positions=np.arange(100, 2001), tail_fraction=1.0
        )
        assert slope == pytest.approx(-0.25, abs=0.05)

    def test_split_into_product_sequences(self):
        f = projection_sequence(41)
        even = f[0] * product_sequence(1.0, 0.0, 20)
        odd = f[1] * product_sequence(0.0, 1.0, 20)
        assert f[0::2] == pytest.approx(even, rel=1e-13)
        assert f[1::2] == pytest.approx(odd, rel=1e-13)


class TestRealGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            RealGrid(np.array([0.0, 0.0, 1.0]))

    def test_gaussian_integral(self):
        grid = RealGrid.uniform()
        u0 = hermite_function(0, grid.nodes)
        assert grid.integrate(u0 * u0) == pytest.approx(1.0, abs=1e-12)


def line_fit_input(name):
    """(x, y) of a line fit the package makes, on real data."""
    if name == "projection tail":  # projections --n-max 1000000, tail_slope
        f = projection_sequence(10**6)
        return np.log(np.arange(100.0, f.size)), np.log(f[100:])
    if name == "shooting B tail":  # the decay exponent of B at z1
        b = np.abs(shoot(2.7054, 10_000).B[1:])
        m = np.arange(1.0, b.size + 1)[b.size // 2 :]
        b = b[b.size // 2 :]
        return np.log(m[b > 0]), np.log(b[b > 0])
    # the zeta tail of the default scan row at z = 2.7: 500 products, last quarter
    p = np.arange(376.0, 501.0)
    return 1.0 / p, _shoot_products(np.array([2.7]), 500)[0, 375:] * p**1.5


class TestLineFit:
    def test_recovers_an_exact_line(self):
        x = np.linspace(-3.0, 7.0, 101)
        y = np.stack([0.25 - 1.5 * x, 4.0 + 0.5 * x])
        intercept, slope = _line_fit(x, y)
        np.testing.assert_allclose(intercept, [0.25, 4.0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(slope, [-1.5, 0.5], rtol=1e-14, atol=0)
        assert _line_fit(x, y[0]) == (intercept[0], slope[0])

    # measured: at most 1.6e-15 relative on both log-log tails; on the scan
    # row the slope (the 1/p coefficient) moves by 1.0e-13, which is polyfit's
    # own error there against an extended-precision fit (the closed form's is 3e-16)
    @pytest.mark.parametrize(
        "name, rtol",
        [("projection tail", 1e-14), ("shooting B tail", 1e-14), ("scan row tail", 1e-12)],
    )
    def test_agrees_with_polyfit(self, name, rtol):
        x, y = line_fit_input(name)
        slope, intercept = np.polyfit(x, y, 1)
        assert _line_fit(x, y) == pytest.approx((intercept, slope), rel=rtol, abs=0)
