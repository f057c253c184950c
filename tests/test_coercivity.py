"""Quadratic forms, the C0 constant, and the constrained minimum."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logkdv import cli
from logkdv import coercivity as coerc
from logkdv.coercivity import (
    _brentq,
    _tail_model,
    c0_constant,
    c0_tail_estimate,
    coercivity_constant,
    coercivity_constant_dense,
    compat_norm_form,
    energy_form,
    random_constrained_coefficients,
)
from logkdv.errors import NumericalError
from logkdv.hermite import RealGrid, ground_state_antiderivative, hermite_function
from logkdv.hermite import projection_sequence

C0_LIMIT = 4.0 + 2.0 * math.pi  # closed form of the full series


def unit(n, size=6):
    e = np.zeros(size)
    e[n] = 1.0
    return e


class TestForms:
    def test_energy_on_unit_vectors(self):
        assert energy_form(unit(1)) == 0.0
        assert energy_form(unit(0)) == -1.0
        assert energy_form(unit(2)) == 1.0

    def test_compat_on_unit_vectors(self):
        assert compat_norm_form(unit(0)) == 1.0
        assert compat_norm_form(unit(2)) == 3.0

    def test_compat_identity(self):
        rng = np.random.default_rng(7)
        c = rng.standard_normal(50)
        lhs = compat_norm_form(c)
        rhs = energy_form(c) + 2.0 * np.dot(c, c)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestC0Constant:
    def test_first_partial_sum_is_pi(self):
        # f_2 = sqrt(pi) from the quadrature oracle, so the n = 2 term is pi
        grid = RealGrid.uniform(x_max=20.0, num=4001)
        f2 = grid.inner(ground_state_antiderivative(grid), hermite_function(2, grid.nodes))
        assert f2**2 / 1.0 == pytest.approx(math.pi, abs=1e-8)
        assert c0_constant(2) == pytest.approx(math.pi, abs=1e-12)

    def test_partial_sums_increase(self):
        values = [c0_constant(n) for n in (3, 10, 100, 1000)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_converged_value_with_tail(self):
        # the remainder past n = 1e5 is still ~3e-2 (terms ~ 2 sqrt(2 pi) n^(-3/2)),
        # so the tail estimate is essential; partial + tail hits the closed form
        partial = c0_constant(100_000)
        tail = c0_tail_estimate(100_000)
        assert 1e-2 < tail < 1e-1
        assert partial + tail == pytest.approx(C0_LIMIT, abs=1e-4)

    def test_tail_estimate_consistent_across_truncations(self):
        a = c0_constant(20_000) + c0_tail_estimate(20_000)
        b = c0_constant(40_000) + c0_tail_estimate(40_000)
        assert a == pytest.approx(b, abs=1e-6)


class TestCoercivityConstant:
    def test_first_constraint_only_gives_zero(self):
        # with c_0 = 0 alone the minimum 0 is attained at the unit vector in mode 1
        e1 = unit(1, size=201)
        assert energy_form(e1) == 0.0 and compat_norm_form(e1) > 0.0

    def test_value_in_unit_interval(self):
        c_hat = coercivity_constant(400)
        assert 0.0 < c_hat < 1.0

    def test_secular_matches_dense_reference(self):
        for n_max in (50, 200):
            secular = coercivity_constant(n_max, tail_corrected=False)
            dense = coercivity_constant_dense(n_max)
            assert secular == pytest.approx(dense, abs=1e-12)

    @pytest.mark.parametrize("n_max", [10, 50, 200, 400])
    def test_dense_reference_matches_the_null_space_route(self, n_max):
        # the generalized eigenproblem on scipy's null-space basis of the
        # constraint, in the unscaled coefficients; measured within 2.1e-15
        import scipy.linalg

        ns = np.arange(1, n_max + 1, dtype=float)
        basis = scipy.linalg.null_space(projection_sequence(n_max)[None, 1:])
        a_red = (basis.T * (ns - 1.0)) @ basis
        b_red = (basis.T * (ns + 1.0)) @ basis
        vals = scipy.linalg.eigh(a_red, b_red, eigvals_only=True, subset_by_index=[0, 0])
        assert coercivity_constant_dense(n_max) == pytest.approx(vals[0], abs=1e-14)

    def test_tail_corrected_value_is_truncation_stable(self):
        a = coercivity_constant(200)
        b = coercivity_constant(400)
        assert abs(a - b) < 1e-6
        # the plain truncated minimum creeps like n_max^(-1/2) instead
        a_raw = coercivity_constant(200, tail_corrected=False)
        b_raw = coercivity_constant(400, tail_corrected=False)
        assert abs(a_raw - b_raw) > 1e-4
        assert b_raw < a_raw  # decreasing toward the limit

    @pytest.mark.parametrize("n_max", [400, 100_000])
    @pytest.mark.parametrize("tail_corrected", [True, False])
    def test_same_root_as_the_unbuffered_secular_sum(self, n_max, tail_corrected):
        # the secular terms written as one expression, new arrays at every evaluation
        from scipy.optimize import brentq

        fsq = projection_sequence(n_max) ** 2
        n = np.arange(2, n_max + 1, dtype=float)
        tail = _tail_model(fsq) if tail_corrected else None

        def phi(mu):
            val = -2.0 / mu + np.sum(fsq[2:] / ((n - 1.0) - (n + 1.0) * mu))
            if tail is not None:
                c_part, d_part = tail(mu)
                val += c_part
                val += d_part
            return val

        root = brentq(phi, 1e-12, 1.0 / 3.0 - 1e-12, xtol=1e-15, rtol=8.9e-16)
        assert coercivity_constant(n_max, tail_corrected=tail_corrected) == root

    def test_degenerate_truncation_rejected(self):
        with pytest.raises(ValueError):
            coercivity_constant(5)

    def test_no_memory_left_in_reference_cycles(self):
        # the arrays must be freed on return, without waiting for the collector
        coercivity_constant(100_000)  # warm-up: imports and one-time caches
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            coercivity_constant(100_000)
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left < 100_000  # bytes; one f_n^2 array alone is 800 kB


def _cubic(x, r, c, q):  # one real root, r
    return (x - r) * ((x - c) ** 2 + q)


def _tanh(x, r, k):
    return math.tanh(k * (x - r))


def _power(x, r, p):
    return x**p - r**p


def _exp(x, r, k):
    return math.exp(k * x) - math.exp(k * r)


@st.composite
def brackets(draw):
    """An objective, its parameters and a bracket, either way round, on which it changes sign."""
    r = draw(st.floats(0.5, 10.0))
    lo = r * draw(st.floats(0.0, 0.999))
    hi = r + draw(st.floats(1e-3, 10.0))
    f, params = draw(st.sampled_from([
        (_cubic, st.tuples(st.floats(-10.0, 10.0), st.floats(1e-3, 10.0))),
        (_tanh, st.tuples(st.floats(0.1, 50.0))),
        (_power, st.tuples(st.floats(0.2, 5.0))),
        (_exp, st.tuples(st.floats(0.1, 5.0))),
    ]))
    xa, xb = (hi, lo) if draw(st.booleans()) else (lo, hi)
    return f, xa, xb, (r, *draw(params))


class Counted:
    """``f`` that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, x, *args):
        self.calls += 1
        return self.f(x, *args)


class TestBrentPort:
    @settings(max_examples=300, deadline=None)
    @given(bracket=brackets(), xtol=st.sampled_from([1e-15, 2e-12, 1e-6]),
           rtol=st.sampled_from([8.9e-16, 1e-10]))
    def test_same_root_after_the_same_calls_as_scipy(self, bracket, xtol, rtol):
        from scipy.optimize import brentq

        f, xa, xb, params = bracket
        port, ref = Counted(f), Counted(f)
        root = _brentq(port, xa, xb, params, xtol, rtol)
        assert root == brentq(ref, xa, xb, args=params, xtol=xtol, rtol=rtol)
        assert port.calls == ref.calls

    @pytest.mark.parametrize("scale", [1e-300, 1e-310, 1e-320])
    @pytest.mark.parametrize("f, root", [(_cubic, 1.5), (_tanh, 0.3), (_exp, 1.1)])
    def test_steps_that_divide_by_an_underflow_bisect_as_scipy(self, f, root, scale):
        # tiny values make the extrapolation's denominator 0: C takes inf or NaN
        # for the step, fails the short-step test and bisects
        from scipy.optimize import brentq

        def g(x, *params):
            return scale * f(x, *params)

        params = (root, 1.0, 1.0) if f is _cubic else (root, 3.0)
        port, ref = Counted(g), Counted(g)
        got = _brentq(port, -1.0, 4.0, params, 1e-15, 8.9e-16)
        assert got == brentq(ref, -1.0, 4.0, args=params, xtol=1e-15, rtol=8.9e-16)
        assert port.calls == ref.calls

    def test_same_sign_at_both_ends_raises_value_error(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(_cubic, 2.0, 3.0, (1.0, 0.0, 1.0), 1e-15, 8.9e-16)

    @pytest.mark.parametrize("xa", [0.0, math.nan])
    def test_nan_from_the_objective_raises_numerical_error(self, xa):
        def f(x):  # NaN at the first interpolated point, 0.5, or at the end xa
            return math.nan if 0.4 < x < 0.6 or math.isnan(x) else x - 0.5

        with pytest.raises(NumericalError, match="NaN"):
            _brentq(f, xa, 1.0, (), 1e-15, 8.9e-16)

    def test_no_convergence_within_maxiter_raises_numerical_error(self):
        _brentq(_tanh, 0.0, 1.0, (0.3, 50.0), 1e-15, 8.9e-16)  # converges in 100
        with pytest.raises(NumericalError, match="after 3 steps"):
            _brentq(_tanh, 0.0, 1.0, (0.3, 50.0), 1e-15, 8.9e-16, maxiter=3)

    def test_search_failure_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(coerc, "_phi", lambda mu, *args: math.nan)
        assert cli.main(["coercivity", "--n-max", "20", "--outdir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "NaN" in err
        assert "\n" not in err.strip()
        assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(42)
    return random_constrained_coefficients(300, rng, size=500)


class TestConstrainedSamples:
    def test_constraints_hold(self, samples):
        f = projection_sequence(300)
        for c in samples:
            assert c[0] == 0.0
            assert abs(np.dot(f, c)) <= 1e-10 * np.linalg.norm(c)

    def test_energy_nonnegative_and_coercive(self, samples):
        c_hat = coercivity_constant(300)
        for c in samples:
            e = energy_form(c)
            assert e >= 0.0
            assert e >= c_hat * compat_norm_form(c) * (1 - 1e-12)

    def test_upper_bound(self, samples):
        for c in samples:
            assert energy_form(c) <= compat_norm_form(c) * (1 + 1e-12)

    def test_c1_bound_by_cauchy_schwarz_chain(self, samples):
        for c in samples:
            e = energy_form(c)
            assert 4.0 * c[1] ** 2 <= C0_LIMIT * e * (1 + 1e-12)
            assert abs(2.0 * c[1]) <= math.sqrt(C0_LIMIT * e) * (1 + 1e-12)

    def test_samples_above_the_float_cap_raise_before_any_draw(self):
        # 10^6 samples of 10^6 + 1 coefficients would ask for 7.28 TiB
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError("nothing may be drawn")

        with pytest.raises(ValueError, match=(r"^1000000 samples of n_max \+ 1 = 1000001 coefficients"
                                              rf" are 1000001000000 floats, above the cap of {2**28}$")):
            random_constrained_coefficients(10**6, NoDraws(), 10**6)

    def test_samples_at_the_float_cap_are_drawn(self, monkeypatch):
        monkeypatch.setattr(coerc, "_MAX_FLOATS", 33)
        assert random_constrained_coefficients(10, np.random.default_rng(0), 3).shape == (3, 11)
        with pytest.raises(ValueError, match="4 samples of n_max \\+ 1 = 11 coefficients are 44"):
            random_constrained_coefficients(10, np.random.default_rng(0), 4)
