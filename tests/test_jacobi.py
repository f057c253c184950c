"""Jacobi operator, shooting recursion, Wronskian trace, and the spectrum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from logkdv import jacobi
from logkdv.errors import NumericalError
from logkdv.hermite import fit_loglog_slope, power_tail_fit
from logkdv.jacobi import (
    SpectrumResult,
    _shoot_products,
    _w_inf_scan,
    apply_jacobi,
    discrete_wronskian,
    find_eigenvalues,
    null_solution,
    shoot,
    truncated_matrix_eigenvalues,
    wronskian_trace,
)

Z1_REFERENCE = 2.7054  # first eigenvalue, 5 significant digits
Z2_REFERENCE = 6.1540


def per_bracket_roots(result: SpectrumResult, z_min: float, tol: float) -> np.ndarray:
    """Reference bisection: one bracket at a time, one W_inf value per step."""
    zs, ws, n_max = result.scan_z, result.scan_w, result.diagnostics["n_max"]

    def w_inf(z):
        return float(jacobi._w_inf_scan(np.array([z]), n_max)[0])

    roots = []
    for i in range(zs.size - 1):
        if not (ws[i] == 0.0 or ws[i] * ws[i + 1] < 0.0):
            continue
        a, b = float(zs[i]), float(zs[i + 1])
        fa = w_inf(a)
        while b - a > tol:
            mid = 0.5 * (a + b)
            fm = w_inf(mid)
            if fm == 0.0:
                a = b = mid
                break
            if fa * fm < 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return np.array([r for r in roots if r > z_min])


class TestApplyJacobi:
    def test_unit_vector(self):
        f = np.zeros(8)
        f[1] = 1.0
        out = apply_jacobi(f)
        assert out[2] == pytest.approx(math.sqrt(6.0), rel=1e-14)
        others = np.delete(out, 2)
        assert np.abs(others).max() == 0.0

    def test_zero(self):
        assert np.all(apply_jacobi(np.zeros(10)) == 0.0)

    def test_pad_entry_is_ignored(self):
        f = np.zeros(8)
        f[1] = 1.0
        g = f.copy()
        g[0] = 123.0  # weight w(0) = 0 makes the pad irrelevant
        assert np.array_equal(apply_jacobi(f), apply_jacobi(g))

    def test_null_solution_residual(self):
        v = null_solution(400).values
        out = apply_jacobi(v)
        interior = out[1:-2]  # drop entries fed by the truncated tail
        assert np.abs(interior).max() < 1e-12 * np.abs(v).max()


class TestNullSolution:
    def test_head_values(self):
        v = null_solution(5).values
        assert v[1] == 1.0
        assert v[2] == 0.0
        assert v[3] == pytest.approx(-0.5, abs=1e-15)  # -sqrt(1/4) v_1
        # two factors: sqrt(1/4) * sqrt(3/6)
        expected = (math.sqrt(1) / math.sqrt(4)) * (math.sqrt(3) / math.sqrt(6))
        assert v[5] == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(0.35355, abs=5e-6)
        assert np.all(v[2::2] == 0.0)

    def test_decay_exponent(self):
        v = null_solution(10_000)
        assert fit_loglog_slope(v.odd_part[1:]) == pytest.approx(-0.75, abs=0.05)
        # the magnitudes come from the projection recurrence, not from a
        # product of their own factors; a plain running product must agree
        k = np.arange(1, 100_001, dtype=float)
        naive = np.cumprod(np.sqrt(2 * k - 1.0) / np.sqrt(2 * k + 2.0))
        mags = np.abs(null_solution(100_000).odd_part[2:])
        assert np.abs(mags / naive - 1.0).max() < 1e-12


class TestShooting:
    def test_normalization(self):
        for z in (0.3, 1.0, 5.7):
            assert shoot(z, 10).A[1] == 1.0

    def test_zero_parameter_kills_even_entries(self):
        state = shoot(0.0, 200)
        assert np.all(state.B == 0.0)
        # A reduces to the signed pure product of ratios = the null solution
        v = null_solution(200)
        assert state.A[1:-1] == pytest.approx(v.odd_part[1:-1], rel=1e-13)

    def test_first_even_entry(self):
        # at m = 1 the B_0 coupling vanishes, so B_1 = z / sqrt(6)
        assert shoot(1.0, 5).B[1] == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-14)

    def test_resubstitution(self):
        for z in (1.0, Z1_REFERENCE):
            state = shoot(z, 400)
            f = state.full_sequence()
            out = apply_jacobi(f)
            interior = slice(1, f.size - 2)
            resid = out[interior] - z * f[interior]
            assert np.abs(resid).max() < 1e-10 * np.abs(f).max()

    def test_vectorized_products_match_scalar_shooting(self):
        # the W_inf scan shoots many z at once; each row must be the
        # scalar shot times the null solution, bit for bit
        zs = np.array([0.0, 0.3, Z1_REFERENCE, Z2_REFERENCE, 17.5])
        m = 300
        products = _shoot_products(zs, m)
        v = null_solution(m).odd_part[1 : m + 1]
        for j, z in enumerate(zs):
            assert np.array_equal(products[j], shoot(z, m).A[1 : m + 1] * v)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shoot(np.inf, 10)
        with pytest.raises(ValueError):
            shoot(1.0, 1)

    def test_overflow_raises(self):
        # the recursion runs on Python floats, which overflow to inf silently
        with pytest.raises(NumericalError, match="overflowed"):
            shoot(1e300, 10)

    @pytest.mark.parametrize("z", [0.3, Z1_REFERENCE, 17.5])
    def test_numpy_and_python_float_z_shoot_the_same_bits(self, z):
        a, b = shoot(z, 500), shoot(np.float64(z), 500)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)


class TestDiscreteWronskian:
    @settings(max_examples=20, deadline=None)
    @given(
        f=arrays(np.float64, 12, elements=st.floats(-5, 5)),
        g=arrays(np.float64, 12, elements=st.floats(-5, 5)),
    )
    def test_antisymmetry(self, f, g):
        assert np.array_equal(discrete_wronskian(f, g), -discrete_wronskian(g, f))

    def test_self_pairing_vanishes(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(30)
        assert np.all(discrete_wronskian(f, f) == 0.0)


class TestWronskianTrace:
    def test_consecutive_pairs_coincide(self):
        trace = wronskian_trace(1.0, 200).values
        assert trace[1::2][:99] == pytest.approx(trace[2::2][:99], rel=1e-12)

    def test_matches_summation_by_parts(self):
        # W_n = z * sum of the odd-index products of the two solutions
        z = 1.7
        n_max = 600
        trace = wronskian_trace(z, n_max)
        m_max = n_max // 2 + 1
        state = shoot(z, m_max)
        v = null_solution(m_max + 1).odd_part
        partial = z * np.cumsum(state.A[1 : m_max + 1] * v[1 : m_max + 1])
        odd = trace.values[1::2]
        assert odd[: partial.size - 1] == pytest.approx(partial[: odd.size], abs=1e-12)

    @pytest.mark.parametrize("z, n_max", [(1.0, 200), (2.7, 1001), (6.15, 4000)])
    def test_matches_discrete_wronskian_of_the_two_solutions(self, z, n_max):
        # the closed form of wronskian_trace against the definition
        # w(n) (v_n f_{n+1} - v_{n+1} f_n) on the full sequences
        m_max = n_max // 2 + 1
        direct = discrete_wronskian(null_solution(m_max).values, shoot(z, m_max).full_sequence())
        trace = wronskian_trace(z, n_max).values
        np.testing.assert_allclose(direct[1 : n_max + 1], trace[1:], rtol=1e-13, atol=0)

    def test_limit_estimate_matches_scan(self):
        for z, n_max in ((1.0, 1000), (Z2_REFERENCE, 4000)):
            assert wronskian_trace(z, n_max).w_inf == _w_inf_scan(np.array([z]), n_max)[0]

    @pytest.mark.parametrize("n_max", [10, 11, 200, 1000, 4000])
    def test_limit_does_not_depend_on_the_batch(self, n_max):
        zs = np.arange(0.05, 20.025, 0.05)  # the default scan grid
        batch = _w_inf_scan(zs, n_max)
        split = np.concatenate([_w_inf_scan(zs[:150], n_max), _w_inf_scan(zs[150:], n_max)])
        assert np.array_equal(split, batch)
        single = [_w_inf_scan(np.array([z]), n_max)[0] for z in zs[::9]]
        assert np.array_equal(single, batch[::9])

    @pytest.mark.parametrize("n_max", [10, 11, 1000, 4000])
    def test_batched_tail_fit_equals_each_rows_fit(self, n_max):
        zs = np.arange(0.05, 20.025, 0.05)  # the default scan grid
        products = _shoot_products(zs, n_max // 2)
        positions = np.arange(1.0, n_max // 2 + 1)
        c, d = power_tail_fit(products, positions, 1.5)
        rows = np.array([power_tail_fit(row, positions, 1.5) for row in products])
        assert np.array_equal(c, rows[:, 0])
        assert np.array_equal(d, rows[:, 1])

    def test_sign_definite_plateau_at_unit_z(self):
        trace = wronskian_trace(1.0, 1000)
        tail = trace.values[-300:]
        assert np.all(tail > 0)
        assert trace.plateau_spread < 0.01 * abs(trace.tail_mean)

    def test_increment_decay_rate(self):
        # W_{2m-1} = W_{2m} exactly, so the real increments are the
        # same-parity ones, |W_{2m+1} - W_{2m-1}| = z |A_{m+1} V_{m+1}|,
        # which decay like the m^(-3/2) products of the two tails
        for n_max in (2000, 4000):
            odd = wronskian_trace(1.0, n_max).values[1::2]
            m = np.arange(1.0, odd.size)
            slope = fit_loglog_slope(np.diff(odd), positions=m)
            assert slope == pytest.approx(-1.5, abs=0.05)

    def test_tail_mean_is_biased_but_limit_estimate_is_not(self):
        # the raw trace converges like n^(-1/2); the zeta-corrected limit
        # must be truncation-stable even where the tail mean is not
        a = wronskian_trace(2.7, 1000)
        b = wronskian_trace(2.7, 4000)
        assert abs(a.tail_mean - b.tail_mean) > 0.05
        assert a.w_inf == pytest.approx(b.w_inf, abs=1e-4)


class TestSpectrum:
    def test_first_two_eigenvalues(self, spectrum):
        assert spectrum.eigenvalues.size == 2
        assert spectrum.eigenvalues[0] == pytest.approx(Z1_REFERENCE, abs=1e-3)
        assert spectrum.eigenvalues[1] == pytest.approx(Z2_REFERENCE, abs=1e-3)

    def test_frequencies_are_half_the_eigenvalues(self, spectrum):
        assert spectrum.frequencies == pytest.approx(spectrum.eigenvalues / 2.0)

    def test_eigenvalues_simple_and_increasing(self, spectrum):
        assert np.all(np.diff(spectrum.eigenvalues) > 0)
        # each scan bracket contains exactly one sign change
        signs = np.sign(spectrum.scan_w)
        changes = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        assert changes.size == spectrum.eigenvalues.size

    def test_roots_are_relative_zeros(self, spectrum):
        scale = np.abs(spectrum.scan_w).max()
        for z in spectrum.eigenvalues:
            assert abs(wronskian_trace(z, 1000).w_inf) < 1e-2 * scale

    def test_no_spurious_root_at_origin(self, spectrum):
        assert np.all(spectrum.eigenvalues > 0.5)

    def test_empty_scan_range(self):
        result = find_eigenvalues(z_min=11.0, z_max=14.0, n_max=400)
        assert result.eigenvalues.size == 0
        assert "note" in result.diagnostics

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"n_max": 200, "tol": 1e-9},
            # tol stays above the float spacing at the roots, since the
            # reference loop has no stop for a midpoint on an endpoint
            {"tol": 1e-13, "n_max": 4000},
            {"scan_step": 0.3, "z_max": 30.0},  # six roots
            {"z_min": 11.0, "z_max": 14.0, "n_max": 400},  # no root
            {"z_max": 60.0, "scan_step": 1.0, "n_max": 400},  # batches split
        ],
    )
    def test_lockstep_bisection_matches_per_bracket_loop(self, kwargs):
        result = find_eigenvalues(**kwargs)
        reference = per_bracket_roots(
            result, kwargs.get("z_min", 0.05), kwargs.get("tol", 1e-6)
        )
        assert np.array_equal(result.eigenvalues, reference)

    @pytest.mark.parametrize(
        "w_inf, root",
        [
            # the zero in the bracket (1.0, 1.25) is its second midpoint
            (lambda z: z - 1.0625, 1.0625),
            # the scan point z = 1 is a zero, so the bracket starts with
            # W_inf(a) = 0 and takes its sign from the first midpoint
            (lambda z: -(z - 1.0) * (z - 1.2), 1.2),
        ],
        ids=["zero-at-midpoint", "zero-at-scan-point"],
    )
    def test_exact_zeros_of_a_stub_w_inf(self, w_inf, root, monkeypatch):
        monkeypatch.setattr(jacobi, "_w_inf_scan", lambda z, n_max: w_inf(np.asarray(z)))
        result = find_eigenvalues(z_min=0.5, z_max=1.5, scan_step=0.25)
        assert np.array_equal(result.eigenvalues, per_bracket_roots(result, 0.5, 1e-6))
        assert result.eigenvalues == pytest.approx([root], abs=1e-6)

    def test_tol_below_float_spacing_ends(self, time_limit):
        # the float spacing is 1.8e-15 at the roots near 10.3 and 15.2, so
        # no bracket gets narrower than tol; each ends at adjacent floats
        with time_limit(10):
            fine = find_eigenvalues(n_max=200, tol=1e-20)
        coarse = find_eigenvalues(n_max=200, tol=1e-9)
        assert fine.eigenvalues == pytest.approx(coarse.eigenvalues, abs=1e-8)

    @pytest.mark.parametrize("n_max", [10, 300])
    def test_runs_at_the_given_n_max(self, n_max, monkeypatch):
        # n_max is the only truncation: no probe of the raw trace, no retry
        def no_trace(z, n_max):
            pytest.fail("find_eigenvalues called wronskian_trace")

        seen = []
        scan = jacobi._w_inf_scan

        def recording_scan(z, n_max):
            seen.append(n_max)
            return scan(z, n_max)

        monkeypatch.setattr(jacobi, "wronskian_trace", no_trace)
        monkeypatch.setattr(jacobi, "_w_inf_scan", recording_scan)
        result = find_eigenvalues(z_max=8.0, n_max=n_max)
        assert set(seen) == {n_max}
        assert result.diagnostics["n_max"] == n_max

    @pytest.mark.parametrize(
        "kwargs, roots, sizes",
        [
            # at the defaults every bracket takes 16 halvings: the scan plus one
            # evaluation per four halvings, at the 15 midpoints they can reach
            ({}, 4, [400] + 4 * [4 * 15]),
            # ten brackets of a 61-point scan: their 150 midpoints go in
            # batches no larger than the scan
            ({"z_max": 60.0, "scan_step": 1.0, "n_max": 400}, 10, [61] + 5 * [61, 61, 28]),
        ],
        ids=["defaults", "coarse-scan"],
    )
    def test_four_halvings_per_w_inf_evaluation(self, kwargs, roots, sizes, monkeypatch):
        seen = []
        scan = jacobi._w_inf_scan

        def recording_scan(z, n_max):
            seen.append(np.size(z))
            return scan(z, n_max)

        monkeypatch.setattr(jacobi, "_w_inf_scan", recording_scan)
        assert find_eigenvalues(**kwargs).eigenvalues.size == roots
        assert seen == sizes

    def test_roots_converge_at_order_five_halves(self):
        # the zeta tail drops terms of order m^(-7/2), so a root's error falls
        # like n_max^(-5/2): each quadrupling of n_max divides it by 4^(5/2) = 32
        z2 = [
            find_eigenvalues(z_min=6.1, z_max=6.2, scan_step=0.1, tol=1e-10, n_max=n).eigenvalues[0]
            for n in (500, 2000, 8000)
        ]
        assert (z2[0] - z2[1]) / (z2[1] - z2[2]) == pytest.approx(32.0, abs=2.0)

    def test_decay_exponents_at_first_eigenvalue(self, spectrum):
        assert spectrum.decay_exponents_a[0] == pytest.approx(-0.75, abs=0.05)
        assert spectrum.decay_exponents_b[0] == pytest.approx(-1.25, abs=0.1)

    def test_generic_even_entries_decay_slower(self, spectrum):
        # W_{2m-1} = w(2m-1) B_m V_m with V_m ~ m^(-3/4), so B_m falls like
        # m^(-3/4) wherever the Wronskian limit is nonzero, and like m^(-5/4)
        # only at its roots: shooting alone tells the spectrum apart
        scale = np.abs(spectrum.scan_w).max()
        for z in (1.0, 4.0):
            assert abs(_w_inf_scan(np.array([z]), 1000)[0]) > 0.05 * scale
            assert fit_loglog_slope(shoot(z, 10_000).B[1:]) == pytest.approx(-0.75, abs=0.01)
        for z in spectrum.eigenvalues:
            assert fit_loglog_slope(shoot(z, 10_000).B[1:]) == pytest.approx(-1.25, abs=0.01)

    def test_odd_truncations_converge_at_order_half(self, spectrum):
        # at odd N the Dirichlet condition is W_N(v, f) = 0, so the finite
        # sections approach the Wronskian roots from above like N^(-1/2):
        # each quadrupling of N halves the gap
        z1, z2 = spectrum.eigenvalues
        gaps = np.array([truncated_matrix_eigenvalues(n, z_max=8.0)[:2] - (z1, z2)
                         for n in (401, 1601, 6401)])
        assert np.all(gaps > 0)
        assert gaps[:-1, 0] / gaps[1:, 0] == pytest.approx([2.0, 2.0], abs=0.1)
        assert gaps[1, 1] / gaps[2, 1] == pytest.approx(2.0, abs=0.1)

    def test_richardson_on_odd_sections_reproduces_the_roots(self):
        # the odd-section gap expands as c1 N^(-1/2) + c2 N^(-1) + O(N^(-3/2)),
        # so over quadruplings of N one level with factor 2 and one with factor
        # 4 leave the N^(-3/2) term: each level-2 value is about 8 times closer
        sections = np.array([truncated_matrix_eigenvalues(400 * 4**k + 1, z_max=20.0)[:4]
                             for k in range(5)])
        level1 = 2.0 * sections[1:] - sections[:-1]
        level2 = (4.0 * level1[1:] - level1[:-1]) / 3.0
        roots = find_eigenvalues(z_max=16.0, n_max=8000, tol=1e-13).eigenvalues
        errors = np.abs(level2 / roots - 1.0)
        # measured 1.6e-9, 2.6e-7, 5.6e-7 and 6.4e-7; the reference roots are
        # themselves off by up to 4.4e-7 (z4) against n_max = 80000
        assert np.all(errors[-1] < [2e-8, 1e-6, 2e-6, 3e-6])
        assert np.all(errors[:-1] > 4.0 * errors[1:])

    def test_section_eigenvalues_do_not_depend_on_z_max(self):
        # each eigenvalue is bisected to its own relative accuracy, not to an
        # absolute one set by the matrix norm ~ N^(3/2): a default tolerance
        # moved z1..z4 by up to 6.6e-10 between z_max = 16, 20 and 60
        sections = np.array([truncated_matrix_eigenvalues(25601, z_max=z)[:4]
                             for z in (16.0, 20.0, 60.0)])
        assert np.abs(sections / sections[0] - 1.0).max() < 1e-14

    def test_truncated_matrix_interlaces(self, spectrum):
        # at even N the Dirichlet truncation realizes a different extension
        # whose eigenvalues interlace the Wronskian roots
        ev = truncated_matrix_eigenvalues(800, z_max=10.0)
        z1, z2 = spectrum.eigenvalues
        assert ev[0] < z1 < ev[1] < z2 < ev[2]

    @pytest.mark.parametrize("scan_step, points", [(1e-9, 19_950_000_001), (5e-324, math.inf)])
    def test_scan_above_the_float_cap_raises_before_any_array(self, scan_step, points,
                                                              monkeypatch):
        # 2.0e10 scan points of 500 shooting products; the scan's z alone
        # would ask for 149 GiB, and none of it is allocated
        def fail(*args, **kwargs):
            raise AssertionError("no scan may be built")

        monkeypatch.setattr(np, "arange", fail)
        message = (rf"take {points} scan points of 500 shooting products: {points * 500} floats,"
                   rf" above the cap of {2**28}$")
        with pytest.raises(ValueError, match=message):
            find_eigenvalues(scan_step=scan_step)

    def test_scan_at_the_float_cap_runs(self, monkeypatch):
        # five scan points, 0.5 to 1.5, of 20 shooting products each
        monkeypatch.setattr(jacobi, "_MAX_FLOATS", 100)
        result = find_eigenvalues(z_min=0.5, z_max=1.5, scan_step=0.25, n_max=40)
        assert result.scan_z.size == 5
        with pytest.raises(ValueError, match="take 5 scan points of 21 shooting products: 105"):
            find_eigenvalues(z_min=0.5, z_max=1.5, scan_step=0.25, n_max=42)


class TestTruncatedMatrixEigenvalues:
    @pytest.mark.parametrize(
        "n_max, z_max",
        [(2, 20.0), (3, 20.0), (400, 20.0), (401, 20.0), (800, 10.0), (1601, 12.0), (50, math.inf)],
    )
    def test_same_bits_as_scipy(self, n_max, z_max):
        from scipy.linalg import eigh_tridiagonal

        off = jacobi.offdiag_weight(np.arange(1, n_max, dtype=float))
        expected = eigh_tridiagonal(
            np.zeros(n_max), off, eigvals_only=True, select="v", select_range=(1e-9, z_max),
            tol=np.finfo(float).tiny,
        )
        ev = truncated_matrix_eigenvalues(n_max, z_max)
        assert ev.dtype == expected.dtype and ev.tobytes() == expected.tobytes()

    def test_one_mode_has_no_positive_eigenvalue(self):
        # the 1x1 section is the matrix 0
        ev = truncated_matrix_eigenvalues(1)
        assert ev.dtype == float and ev.size == 0

    @pytest.mark.parametrize(
        "n_max, z_max", [(0, 20.0), (-3, 20.0), (5, 1e-9), (5, 0.0), (5, -1.0), (5, math.nan)]
    )
    def test_bad_arguments_raise_before_lapack(self, n_max, z_max, capfd):
        with pytest.raises(ValueError):
            truncated_matrix_eigenvalues(n_max, z_max)
        # dstebz would report a bad argument on stderr, from its Fortran
        assert capfd.readouterr().err == ""


class TestDecayExponent:
    def test_pure_power_law(self):
        m = np.arange(1, 5001, dtype=float)
        assert fit_loglog_slope(m**-0.8) == pytest.approx(-0.8, abs=1e-6)

    def test_zeros_are_skipped(self):
        m = np.arange(1, 5001, dtype=float)
        seq = m**-0.8
        seq[::7] = 0.0
        assert fit_loglog_slope(seq) == pytest.approx(-0.8, abs=1e-3)

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            fit_loglog_slope(np.ones(8))
        with pytest.raises(ValueError):
            fit_loglog_slope(np.zeros(100))
