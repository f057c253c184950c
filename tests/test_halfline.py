"""Dissipative half-line solver: operator, decay, constraint, modulation."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

from logkdv import errors
from logkdv.errors import NumericalError, _implicit_step, _lapack
from logkdv.halfline import (
    HalfLineFlow,
    HalfLineGrid,
    HalfLineState,
    _h_bands,
    _psi,
    _s_bands,
    assemble_H,
    constraint_functional,
    evolve_dissipative,
    flux_boundary_value,
    gaussian_weight,
    initial_gaussian_bump,
    modulation_integrate,
)
from logkdv.jacobi import find_eigenvalues


def symmetric_factors(grid, theta_dt):
    """``dpttrf``'s factors of ``I - theta dt S``, and D."""
    e, diag, scale = _s_bands(grid)
    d, f, info = dpttrf(1.0 - theta_dt * diag, -theta_dt * e)
    assert info == 0
    return d, f, scale


def dissipate_loop(w0, T, dt, method, sample_every, solve):
    """Step-by-step loop with list appends, in w, pinning after the check.

    Each step one ``solve`` x of the state by ``I - theta dt H_h``, taken as
    the new state (backward Euler) or as ``2 x - w`` (Crank-Nicolson).
    """
    grid = w0.grid
    n_steps = int(round(T / dt))
    w = w0.w.copy()
    w[0] = 0.0
    ts, states, step_ts, step_l2 = [w0.t], [w.copy()], [w0.t], [grid.norm(w)]
    for k in range(n_steps):
        x = solve(w)
        w = 2.0 * x - w if method == "cn" else x
        assert np.all(np.isfinite(w))
        w[0] = 0.0
        t_now = w0.t + (k + 1) * dt
        step_ts.append(t_now)
        step_l2.append(grid.norm(w))
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            ts.append(t_now)
            states.append(w.copy())
    return np.array(ts), np.array(states), np.array(step_ts), np.array(step_l2)


def lu_dissipate(w0, T, dt, method, sample_every):
    """The loop on ``dgttrs``: the dense ``I - theta dt H_h``, not
    symmetrized, goes to ``dgttrf`` once."""
    theta = 0.5 if method == "cn" else 1.0
    L = np.eye(w0.grid.n_intervals + 1) - theta * dt * assemble_H(w0.grid).toarray()
    *lu, info = dgttrf(np.diagonal(L, -1), np.diagonal(L), np.diagonal(L, 1))
    assert info == 0

    def solve(b):
        x, info = dgttrs(*lu, b)
        assert info == 0
        return x

    return dissipate_loop(w0, T, dt, method, sample_every, solve)


def symmetrized_dissipate(w0, T, dt, method, sample_every):
    """The loop on ``dpttrs`` with the factors of ``I - theta dt S``, in w:
    each solve between a product and a quotient by D."""
    d, f, scale = symmetric_factors(w0.grid, (0.5 if method == "cn" else 1.0) * dt)

    def solve(b):
        x, info = dpttrs(d, f, b * scale)
        assert info == 0
        return x / scale

    return dissipate_loop(w0, T, dt, method, sample_every, solve)


def reference_dissipate(w0, T, dt, method, sample_every):
    """The plain loop in y = D w, as ``evolve_dissipative`` steps.

    Each step one ``dpttrs`` with the factors of ``I - theta dt S`` on the
    right side 2 y (Crank-Nicolson, then minus y) or y (backward Euler).  The
    norm is the sum of squares of ``y sqrt(grid.weights) / D``; a kept state
    is ``y / D``, but the first is w.
    """
    grid = w0.grid
    d, e, scale = symmetric_factors(grid, (0.5 if method == "cn" else 1.0) * dt)
    root_weights = np.sqrt(grid.weights) / scale
    n_steps = int(round(T / dt))
    w = w0.w.copy()
    w[0] = 0.0
    y = w * scale
    ts, states, step_ts = [w0.t], [w], [w0.t]
    step_l2 = [np.sqrt(np.dot(y * root_weights, y * root_weights))]
    for k in range(n_steps):
        b = 2.0 * y if method == "cn" else y.copy()
        x, info = dpttrs(d, e, b)
        assert info == 0
        y = x - y if method == "cn" else x
        assert np.all(np.isfinite(y))
        t_now = w0.t + (k + 1) * dt
        step_ts.append(t_now)
        step_l2.append(np.sqrt(np.dot(y * root_weights, y * root_weights)))
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            ts.append(t_now)
            states.append(y / scale)
    return np.array(ts), np.array(states), np.array(step_ts), np.array(step_l2)


def splu_dissipate(w0, T, dt, method, sample_every):
    """The same loop on ``splu`` of the sparse ``I - theta dt H``, with the
    Crank-Nicolson right side ``(I + dt/2 H) w`` formed as a product."""
    grid = w0.grid
    H = assemble_H(grid)
    eye = sp.identity(H.shape[0], format="csr")
    theta = 0.5 if method == "cn" else 1.0
    solver = spla.splu((eye - theta * dt * H).tocsc())
    rhs_op = (eye + 0.5 * dt * H).tocsr() if method == "cn" else None
    n_steps = int(round(T / dt))
    w = w0.w.copy()
    w[0] = 0.0
    ts, states, step_ts, step_l2 = [w0.t], [w.copy()], [w0.t], [grid.norm(w)]
    for k in range(n_steps):
        w = solver.solve(w if rhs_op is None else rhs_op @ w)
        assert np.all(np.isfinite(w))
        w[0] = 0.0
        t_now = w0.t + (k + 1) * dt
        step_ts.append(t_now)
        step_l2.append(grid.norm(w))
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            ts.append(t_now)
            states.append(w.copy())
    return np.array(ts), np.array(states), np.array(step_ts), np.array(step_l2)


def assert_agrees(flow, loop):
    """A flow and a loop's ``(ts, states, step_ts, step_l2)`` agree: the times
    exactly, each state and norm to 1e-12 of its own size."""
    ts, states, step_ts, step_l2 = loop
    assert np.array_equal(flow.ts, ts) and np.array_equal(flow.step_ts, step_ts)
    scale = np.abs(states).max(axis=1)
    assert np.all(np.abs(flow.states - states).max(axis=1) <= 1e-12 * scale)
    assert np.all(np.abs(flow.step_l2 - step_l2) <= 1e-12 * step_l2)


def reference_modulation(flow, a0, b0):
    """Two loops over the samples, the <phi, w> dots before the adjoint solve,
    which is ``dpttrs`` with the factors of -S on nodes 1..J between a
    quotient and a product by -D."""
    grid = flow.grid
    ell = grid.weights * gaussian_weight(grid)
    ell_w = np.array([np.dot(w, ell) for w in flow.states])
    a = a0 + ell_w[0] - ell_w
    A = a + ell_w
    e, diag, scale = _s_bands(grid)
    d, f, info = dpttrf(-diag[1:], -e[1:])
    assert info == 0
    x, info = dpttrs(d, f, ell[1:] / scale[1:])
    assert info == 0
    psi = x * -scale[1:]
    psi_w = np.array([np.dot(w[1:], psi) for w in flow.states])
    b = b0 + 0.5 * (A[0] * (flow.ts - flow.ts[0]) + psi_w[0] - psi_w)
    return a, b, A, float(b0 + 0.5 * psi_w[0])


@pytest.fixture(scope="module")
def jacobi_z():
    """The Jacobi eigenvalues z_k below 8, from shooting and a zeta tail."""
    return find_eigenvalues(z_max=8.0, n_max=4000, tol=1e-13).eigenvalues


@pytest.fixture(scope="module")
def grid():
    return HalfLineGrid(extent=40.0, spacing=0.02)


@pytest.fixture(scope="module")
def long_flow(grid):
    """The standard bump run to T = 20, where w has decayed to about 1e-12."""
    return evolve_dissipative(initial_gaussian_bump(grid), T=20.0, dt=1e-2, sample_every=100)


class TestGrid:
    def test_rejects_non_integral_extent(self):
        with pytest.raises(ValueError):
            HalfLineGrid(extent=1.03, spacing=0.02)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            HalfLineGrid(extent=1.0, spacing=0.1)

    def test_rejects_non_finite_ratio(self):
        with pytest.raises(ValueError, match="finite"):
            HalfLineGrid(extent=1e308, spacing=1e-10)

    def test_rejects_extent_above_100(self):
        # at Z = 100 the scale D and 1 / D are still normal floats
        with pytest.raises(ValueError, match="extent must be at most 100"):
            HalfLineGrid(extent=100.5, spacing=0.5)
        scale = _s_bands(HalfLineGrid(extent=100.0, spacing=0.05))[2]
        assert scale.max() == 1.0 and scale.min() > np.finfo(float).tiny
        assert np.all(np.isfinite(1.0 / scale))

    def test_nodes_end_at_origin(self, grid):
        z = grid.nodes
        assert z[0] == -40.0
        assert z[-1] == pytest.approx(0.0, abs=1e-12)


class TestOperator:
    def test_symbolic_oracle_exponential(self, grid):
        # H e^z = e^z (-z - 3 + (2z + z^2)/4), checked at z = -2
        H = assemble_H(grid)
        z = grid.nodes
        out = H @ np.exp(z)
        j = int(round((40.0 - 2.0) / grid.spacing))
        exact = -math.exp(-2.0)
        assert out[j] == pytest.approx(exact, abs=1e-4)
        assert exact == pytest.approx(-0.13534, abs=5e-6)

    def test_oracle_error_is_second_order(self):
        errs = []
        for h in (0.04, 0.02):
            g = HalfLineGrid(40.0, h)
            out = assemble_H(g) @ np.exp(g.nodes)
            z = g.nodes
            exact = np.exp(z) * (-z - 3.0 + (2.0 * z + z * z) / 4.0)
            j = int(round((40.0 - 2.0) / h))
            errs.append(abs(out[j] - exact[j]))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)

    def test_zero_function(self, grid):
        H = assemble_H(grid)
        assert np.abs(H @ np.zeros(grid.n_intervals + 1)).max() == 0.0

    def test_quadratic_form_dissipative(self):
        # <H w, w> <= -||w||^2/2 on smooth decaying test functions, and the
        # discretization defect shrinks with the resolution
        rng = np.random.default_rng(12)
        worst = {}
        for h in (0.04, 0.02):
            g = HalfLineGrid(40.0, h)
            H = assemble_H(g)
            z = g.nodes
            qw = g.weights
            ratios = []
            for _ in range(50):
                center = rng.uniform(-30.0, -1.0)
                width = rng.uniform(0.3, 3.0)
                w = np.exp(-(((z - center) / width) ** 2))
                w[0] = 0.0
                ratios.append(np.dot(qw * w, H @ w) / np.dot(qw * w, w))
            worst[h] = max(ratios)
        assert worst[0.04] <= -0.5
        assert worst[0.02] <= -0.5

    def test_spectrum_is_minus_half_the_jacobi_eigenvalues(self, jacobi_z):
        # the top eigenvalues of H (Dirichlet node removed), those of its
        # symmetric S by one dstebz, converge at order h^2 to -z_k/2, with z_k
        # from shooting and a zeta tail: two routes that share no code
        top = {}
        for h in (0.04, 0.02, 0.01):
            e, diag, _ = _s_bands(HalfLineGrid(20.0, h))
            n = diag.size - 1
            m, vals, _, _, info = _lapack().dstebz(
                diag[1:], e[1:], 2, 0.0, 0.0, n - 1, n, np.finfo(float).tiny, "E"
            )
            assert info == 0 and m == 2
            top[h] = vals[:2][::-1]
        ratios = (top[0.04] - top[0.02]) / (top[0.02] - top[0.01])
        assert ratios == pytest.approx([4.0, 4.0], abs=0.05)
        extrapolated = (4.0 * top[0.01] - top[0.02]) / 3.0
        z = jacobi_z[:2]
        assert z == pytest.approx([2.7054, 6.1540], abs=1e-4)
        assert abs(extrapolated[0] + z[0] / 2) < 1e-8
        assert abs(extrapolated[1] + z[1] / 2) < 5e-7

    def test_sparse_operator_is_the_bands(self, grid):
        lower, diag, upper = _h_bands(grid)
        want = sp.diags([lower, diag, upper], [-1, 0, 1]).toarray()
        assert assemble_H(grid).toarray().tobytes() == want.tobytes()

    @pytest.mark.parametrize("h", [0.1, 0.05, 0.02])
    def test_operator_has_three_bands(self, h):
        # P(0) = 0 closes the last cell: no entry off the three bands, nothing
        # at (J, J-2); the couplings are positive, and M H = K is symmetric,
        # with M proportional to D^2
        grid = HalfLineGrid(20.0, h)
        H = assemble_H(grid).toarray()
        assert np.all(np.triu(H, 2) == 0.0) and np.all(np.tril(H, -2) == 0.0)
        assert np.all(np.diagonal(H, 1)[1:] > 0.0) and np.all(np.diagonal(H, -1)[1:] > 0.0)
        K = _s_bands(grid)[2][:, None] ** 2 * H
        assert np.abs(K - K.T).max() <= 1e-14 * np.abs(K).max()

    @pytest.mark.parametrize("extent, h", [(40.0, 0.1), (40.0, 0.04), (16.0, 1.0), (72.0, 0.05)])
    def test_adjoint_weight_matches_dense_solve(self, extent, h):
        # the default kind of grid, a coarse one and one with m below 1e-300;
        # psi is one dpttrs on -S between a quotient and a product by D
        grid = HalfLineGrid(extent, h)
        ell = grid.weights * gaussian_weight(grid)
        want = np.linalg.solve(assemble_H(grid).toarray()[1:, 1:].T, ell[1:])
        assert np.abs(_psi(grid, ell) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("h", [0.1, 0.05, 0.02])
    def test_numerical_abscissa_at_most_minus_half(self, h):
        # the discrete energy estimate: the symmetric part of H in the
        # trapezoid inner product (Dirichlet node removed) is <= -1/2
        grid = HalfLineGrid(20.0, h)
        H = assemble_H(grid)[1:, 1:].toarray()
        root_w = np.sqrt(grid.weights[1:])
        K = root_w[:, None] * H / root_w[None, :]
        assert np.linalg.eigvalsh(0.5 * (K + K.T))[-1] <= -0.5


class TestEvolution:
    @pytest.mark.parametrize("method", ["cn", "be"])
    @pytest.mark.parametrize("extent, spacing, dt", [(40.0, 0.02, 1e-3), (40.0, 0.02, 1e-2), (16.0, 1.0, 0.5)])
    def test_dirichlet_node_stays_positive_zero_unpinned(self, extent, spacing, dt, method):
        # H's row and column 0 are empty, so node 0 is a decoupled identity
        # mode of I - theta dt H: the shared step, with nothing written to
        # node 0 between steps, leaves it at +0.0
        grid = HalfLineGrid(extent, spacing)
        H = assemble_H(grid).toarray()
        assert not H[0].any() and not H[:, 0].any()
        e, diag, scale = _s_bands(grid)
        theta_dt = (0.5 if method == "cn" else 1.0) * dt
        bands = -theta_dt * e, 1.0 - theta_dt * diag, -theta_dt * e
        w, step = _implicit_step(*bands, initial_gaussian_bump(grid).w * scale,
                                 fold=method == "cn")
        for k in range(1, 3001):
            w = step(w, k)
            assert w[0] == 0.0 and not np.signbit(w[0]), k

    def test_zero_data_stays_zero(self, grid):
        w0 = HalfLineState(np.zeros(grid.n_intervals + 1), 0.0, grid)
        flow = evolve_dissipative(w0, T=0.1, dt=1e-2)
        assert np.abs(flow.states).max() == 0.0

    def test_norm_monotone_and_exponentially_bounded(self, coupled_flow):
        flow, _ = coupled_flow
        l2 = flow.step_l2
        assert np.all(np.diff(l2) <= 0.0)
        t = flow.step_ts
        ratio = (l2 / l2[0]) ** 2 / np.exp(-t)
        assert ratio.max() <= 1.05

    def test_backward_euler_monotone(self, grid):
        w0 = initial_gaussian_bump(grid)
        flow = evolve_dissipative(w0, T=0.5, dt=1e-2, method="be")
        assert np.all(np.diff(flow.step_l2) <= 0.0)

    def test_h1_seminorm_decays_exponentially(self, coupled_flow):
        flow, _ = coupled_flow
        h1 = np.array([flow.grid.h1_seminorm(w) for w in flow.states])
        rate = -np.polyfit(flow.ts, np.log(h1), 1)[0]
        assert rate > 0.0

    def test_domain_truncation_insensitive(self):
        # narrow bump, short horizon: nothing reaches the cutoff, so doubling
        # the extent must not move the answer
        norms = {}
        for extent in (40.0, 80.0):
            g = HalfLineGrid(extent, 0.02)
            z = g.nodes
            w = np.exp(-4.0 * (z + 2.0) ** 2)
            w[0] = 0.0
            flow = evolve_dissipative(HalfLineState(w, 0.0, g), T=0.5, dt=5e-4)
            norms[extent] = g.norm(flow.states[-1])
        assert abs(norms[40.0] - norms[80.0]) < 1e-6 * norms[40.0]

    def test_late_decay_rate_is_minus_half_z1_at_second_order(self, jacobi_z):
        # once the higher modes have died out, the L2 norm decays at the top
        # eigenvalue of H, -z1/2; Crank-Nicolson with dt proportional to h
        # reaches it at order h^2 (backward Euler, first order in dt, gives a
        # ratio near 2 and a Richardson gap near 6e-4)
        rates = []
        for h, dt in ((0.04, 2e-3), (0.02, 1e-3)):
            w0 = initial_gaussian_bump(HalfLineGrid(40.0, h))
            # step_l2 holds every step whatever the sampling: keep two states
            flow = evolve_dissipative(w0, T=12.0, dt=dt, sample_every=12000)
            late = (flow.step_ts >= 8.0) & (flow.step_ts <= 12.0)
            rates.append(np.polyfit(flow.step_ts[late], np.log(flow.step_l2[late]), 1)[0])
        errors = np.array(rates) + jacobi_z[0] / 2
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.1)
        assert abs((4.0 * rates[1] - rates[0]) / 3.0 + jacobi_z[0] / 2) < 1e-7

    def test_spatial_convergence_second_order(self):
        finals = []
        for h in (0.08, 0.04, 0.02):
            g = HalfLineGrid(40.0, h)
            flow = evolve_dissipative(initial_gaussian_bump(g), T=0.5, dt=2.5e-4)
            finals.append(g.norm(flow.states[-1]))
        ratio = abs(finals[0] - finals[1]) / abs(finals[1] - finals[2])
        assert ratio == pytest.approx(4.0, abs=1.5)

    @pytest.mark.parametrize("method", ["cn", "be"])
    @pytest.mark.parametrize("sample_every", [1, 7])
    def test_bit_identical_to_reference_loop(self, method, sample_every):
        # the horizon is not a multiple of sample_every * dt, so the last
        # step is kept off the sampling grid; the second bump is subnormal at
        # 6 tail nodes, where y = D w is subnormal or zero too
        g = HalfLineGrid(20.0, 0.05)
        for w0 in (initial_gaussian_bump(g), initial_gaussian_bump(g, center=-1.0, width=0.5)):
            flow = evolve_dissipative(w0, 0.1234, 1e-3, method=method, sample_every=sample_every)
            ref = reference_dissipate(w0, 0.1234, 1e-3, method, sample_every)
            for got, want in zip((flow.ts, flow.states, flow.step_ts, flow.step_l2), ref):
                assert np.array_equal(got, want)
                assert got.tobytes() == want.tobytes()  # the signs of zeros too

    @pytest.mark.parametrize("method", ["cn", "be"])
    @pytest.mark.parametrize("extent, spacing", [(16.0, 1.0), (72.0, 0.05), (100.0, 0.05)])
    def test_every_grid_takes_the_symmetric_path(self, monkeypatch, extent, spacing, method):
        # a coarse grid, and two wide ones whose cell masses fall below 1e-300:
        # each factors on dpttrf, once, and agrees with splu
        factor, paths = errors._factor, []

        def spy(*bands):
            solve = factor(*bands)
            paths.append(solve.func)
            return solve

        monkeypatch.setattr(errors, "_factor", spy)
        w0 = initial_gaussian_bump(HalfLineGrid(extent, spacing))
        flow = evolve_dissipative(w0, 0.1234, 1e-3, method=method, sample_every=7)
        assert paths == [_lapack().dpttrs]
        assert_agrees(flow, splu_dissipate(w0, 0.1234, 1e-3, method, 7))

    @pytest.mark.parametrize("method", ["cn", "be"])
    def test_agrees_with_lu_loop(self, grid, method):
        # 5000 steps of dpttrs in y = D w against dgttrs's LU of the dense
        # I - theta dt H_h, unscaled, in w
        w0 = initial_gaussian_bump(grid)
        flow = evolve_dissipative(w0, 5.0, 1e-3, method=method, sample_every=500)
        assert_agrees(flow, lu_dissipate(w0, 5.0, 1e-3, method, 500))

    @pytest.mark.parametrize("method", ["cn", "be"])
    def test_agrees_with_symmetrized_loop(self, grid, method):
        # 5000 steps marched in y = D w against the same dpttrs solve between a
        # product and a quotient by D, in w, each step
        w0 = initial_gaussian_bump(grid)
        flow = evolve_dissipative(w0, 5.0, 1e-3, method=method, sample_every=500)
        assert_agrees(flow, symmetrized_dissipate(w0, 5.0, 1e-3, method, 500))

    @pytest.mark.parametrize("method", ["cn", "be"])
    def test_agrees_with_splu_loop(self, grid, method):
        # 5000 steps on the symmetric tridiagonal solve, with Crank-Nicolson's
        # right side folded into it, against splu and a sparse product
        w0 = initial_gaussian_bump(grid)
        flow = evolve_dissipative(w0, 5.0, 1e-3, method=method, sample_every=500)
        assert_agrees(flow, splu_dissipate(w0, 5.0, 1e-3, method, 500))

    @pytest.mark.parametrize(
        "method, dts, order", [("cn", (4e-3, 2e-3), 2), ("be", (2e-3, 1e-3), 1)]
    )
    def test_error_falls_as_the_order_of_the_rule(self, method, dts, order):
        # final states at T = 0.5 against Crank-Nicolson at dt = 1.25e-4; at
        # dt = 8e-3 Crank-Nicolson is outside its asymptotic range (ratio 346)
        g = HalfLineGrid(20.0, 0.05)
        w0 = initial_gaussian_bump(g)
        reference = evolve_dissipative(w0, 0.5, 1.25e-4, sample_every=10**6).states[-1]
        errors = [
            g.norm(evolve_dissipative(w0, 0.5, dt, method=method, sample_every=10**6).states[-1]
                   - reference)
            for dt in dts
        ]
        assert errors[0] / errors[1] == pytest.approx(2.0**order, abs=0.05)

    @pytest.mark.parametrize("method", ["cn", "be"])
    def test_first_state_is_w0_and_node_0_stays_positive_zero(self, method):
        # node 0 of w0 is replaced by +0.0 and every other entry kept, to the
        # bit, though the flow marches in y = D w; S[0, 1] = 0 keeps node 0 there
        g = HalfLineGrid(20.0, 0.05)
        w = initial_gaussian_bump(g, center=-1.0, width=0.5).w.copy()
        w[0] = 0.75
        flow = evolve_dissipative(HalfLineState(w, 0.0, g), 0.3, 1e-3, method=method)
        w[0] = 0.0
        assert flow.states[0].tobytes() == w.tobytes()
        assert np.all(flow.states[:, 0] == 0.0) and not np.signbit(flow.states[:, 0]).any()

    @pytest.mark.parametrize("method", ["cn", "be"])
    @pytest.mark.parametrize("extent, spacing", [(40.0, 0.02), (16.0, 1.0), (72.0, 0.05)])
    def test_step_norms_are_the_norms_of_the_kept_states(self, extent, spacing, method):
        # the squared norm is summed over y = D w times sqrt(h) / D, so it
        # agrees with grid.norm of w = y / D to roundoff, not to the bit
        g = HalfLineGrid(extent, spacing)
        w0 = initial_gaussian_bump(g)
        flow = evolve_dissipative(w0, 0.5, 1e-3, method=method, sample_every=7)
        kept = np.searchsorted(flow.step_ts, flow.ts)
        norms = np.array([g.norm(w) for w in flow.states])
        assert np.all(np.abs(flow.step_l2[kept] - norms) <= 1e-14 * norms)

    def test_non_finite_step_raises_with_its_step(self, grid):
        # entries near the largest float: the first Crank-Nicolson step, which
        # doubles y = D w before its solve, overflows
        w0 = initial_gaussian_bump(grid)
        big = HalfLineState(w0.w * np.finfo(float).max, 0.0, grid)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"non-finite state after step 1 \(t=0\.001\)"):
                evolve_dissipative(big, 1.0, 1e-3, sample_every=100)

    def test_bad_arguments(self, grid):
        w0 = initial_gaussian_bump(grid)
        with pytest.raises(ValueError):
            evolve_dissipative(w0, T=-1.0, dt=1e-3)
        with pytest.raises(ValueError):
            evolve_dissipative(w0, T=1.0, dt=1e-3, method="rk4")
        with pytest.raises(ValueError, match="zero steps"):
            evolve_dissipative(w0, T=4e-4, dt=1e-3)


class TestConstraint:
    def test_zero_state(self, grid):
        w0 = HalfLineState(np.zeros(grid.n_intervals + 1), 0.0, grid)
        assert constraint_functional(w0, 1.7) == 1.7

    def test_conserved_along_coupled_flow(self, coupled_flow):
        _, mod = coupled_flow
        drift = np.abs(mod.A - mod.A[0]).max()
        assert drift < 1e-6 * (1.0 + abs(mod.A[0]))

    def test_weighted_integral_derivative_identity(self, grid):
        # d/dt int exp(-z^2/8) w dz = -2 w(t, 0), finite-differenced along the
        # flow and compared where the boundary value is largest
        w0 = initial_gaussian_bump(grid, center=-2.0)
        dt = 1e-3
        flow = evolve_dissipative(w0, T=2.0, dt=dt, sample_every=1)
        ell = grid.weights * gaussian_weight(grid)
        ell_w = flow.states @ ell
        boundary = flow.states[:, -1]
        deriv = (ell_w[2:] - ell_w[:-2]) / (2.0 * dt)
        resid = deriv + 2.0 * boundary[1:-1]
        k = np.argmax(np.abs(boundary[1:-1]))
        rel = abs(resid[k]) / abs(2.0 * boundary[1 + k])
        assert rel < 1e-2

    def test_flux_value_tracks_boundary_node(self, grid):
        w0 = initial_gaussian_bump(grid, center=-1.0)
        H = assemble_H(grid)
        beta = flux_boundary_value(H, grid, w0.w)
        assert beta == pytest.approx(w0.w[-1], rel=1e-2)


class TestModulation:
    def test_quiet_boundary_gives_affine_b(self, grid):
        w0 = HalfLineState(np.zeros(grid.n_intervals + 1), 0.0, grid)
        flow = evolve_dissipative(w0, T=0.2, dt=1e-2)
        mod = modulation_integrate(flow, a0=2.0, b0=1.0)
        assert np.all(mod.a == 2.0)
        assert mod.b == pytest.approx(1.0 + mod.ts, rel=1e-12)  # db/dt = a/2 = 1

    def test_a_decay_bound(self, coupled_flow):
        flow, mod = coupled_flow
        norm0_sq = flow.grid.norm(flow.states[0]) ** 2
        bound = math.sqrt(math.pi) * norm0_sq * np.exp(-mod.ts) * 1.1
        assert np.all(mod.a**2 <= bound)

    def test_a_matches_negative_weighted_integral(self, coupled_flow):
        # with A = 0 the modulation scalar is exactly the negative of the
        # weighted integral of w
        flow, mod = coupled_flow
        ell = flow.grid.weights * gaussian_weight(flow.grid)
        assert mod.a == pytest.approx(-(flow.states @ ell), abs=1e-12)

    def test_b_cauchy_with_exponential_tail(self, coupled_flow):
        _, mod = coupled_flow
        half = mod.ts.size // 2
        inc_first = np.abs(np.diff(mod.b[:half])).sum()
        inc_second = np.abs(np.diff(mod.b[half:])).sum()
        assert inc_second < 0.15 * inc_first
        # increments are bounded by the integral of |a|/2
        total = np.sum(0.25 * np.abs(mod.a[1:] + mod.a[:-1]) * np.diff(mod.ts))
        assert abs(mod.b[-1] - mod.b[0]) <= total * (1 + 1e-12)

    @pytest.mark.parametrize("method", ["cn", "be"])
    def test_b_is_the_steppers_quadrature(self, grid, method):
        # b integrates a/2 over every step as the stepper does: the trapezoid
        # under Crank-Nicolson, the right endpoint under backward Euler
        w0 = initial_gaussian_bump(grid)
        dt = 2e-3
        flow = evolve_dissipative(w0, T=2.0, dt=dt, method=method, sample_every=1)
        mod = modulation_integrate(flow, 0.3, 0.7)
        a = mod.a
        step = 0.25 * dt * (a[1:] + a[:-1]) if method == "cn" else 0.5 * dt * a[1:]
        assert mod.b[1:] == pytest.approx(0.7 + np.cumsum(step), abs=1e-12)
        assert mod.b[0] == 0.7

    def test_b_independent_of_sampling(self, grid):
        w0 = initial_gaussian_bump(grid)
        a0 = -grid.integrate(gaussian_weight(grid) * w0.w)
        every_step, every_tenth = (
            modulation_integrate(evolve_dissipative(w0, T=5.0, dt=1e-3, sample_every=k), a0, 0.0)
            for k in (1, 10)
        )
        assert every_tenth.b == pytest.approx(every_step.b[::10], abs=1e-12)

    def test_scalars_do_not_depend_on_the_number_of_kept_samples(self, coupled_flow):
        # each sample is summed alone, so a flow cut to its first n samples
        # reports the same bits for them
        flow, mod = coupled_flow
        for n in range(1, 9):
            head = HalfLineFlow(flow.grid, flow.ts[:n], flow.states[:n].copy(),
                                flow.step_ts, flow.step_l2)
            short = modulation_integrate(head, mod.a[0], mod.b[0])
            for key in ("a", "b", "A"):
                assert np.array_equal(getattr(short, key), getattr(mod, key)[:n]), (n, key)
            assert short.b_inf == mod.b_inf, n

    @pytest.mark.parametrize("method", ["cn", "be"])
    @pytest.mark.parametrize("sample_every", [1, 7])
    def test_bit_identical_to_two_loop_reference(self, method, sample_every):
        g = HalfLineGrid(20.0, 0.05)
        w0 = initial_gaussian_bump(g)
        flow = evolve_dissipative(w0, 0.1234, 1e-3, method=method, sample_every=sample_every)
        mod = modulation_integrate(flow, 0.3, 0.7)
        for got, want in zip((mod.a, mod.b, mod.A, mod.b_inf), reference_modulation(flow, 0.3, 0.7)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_b_limit_estimate(self, grid, coupled_flow, long_flow):
        _, mod = coupled_flow
        assert np.isfinite(mod.b_inf)
        assert abs(mod.b_inf - mod.b[-1]) < 0.05 * max(1.0, abs(mod.b[-1]))
        # the limit is a property of the initial state, not of the run
        w0 = initial_gaussian_bump(grid)
        for method, dt, T, every in [("be", 1e-3, 5.0, 5), ("cn", 2e-3, 0.7777, 13),
                                     ("be", 2e-3, 0.7777, 1)]:
            flow = evolve_dissipative(w0, T=T, dt=dt, method=method, sample_every=every)
            assert modulation_integrate(flow, mod.a[0], 0.0).b_inf == mod.b_inf
        long = modulation_integrate(long_flow, mod.a[0], 0.0)
        assert long.b_inf == mod.b_inf
        assert abs(long.b[-1] - mod.b_inf) < 1e-10

    def test_unconstrained_b_inf_is_the_limit_past_the_drift(self, long_flow):
        # with A != 0, b grows like A t / 2 and b_inf is the limit of the rest
        mod = modulation_integrate(long_flow, 0.0, 0.4)
        assert abs(mod.A[0]) > 1.0
        rest = mod.b - 0.5 * mod.A[0] * (mod.ts - mod.ts[0])
        assert abs(rest[-1] - mod.b_inf) < 1e-10

    def test_b_limit_converges_second_order_in_h(self):
        limits = []
        for h in (0.04, 0.02, 0.01):
            grid = HalfLineGrid(extent=40.0, spacing=h)
            flow = evolve_dissipative(initial_gaussian_bump(grid), T=1e-3, dt=1e-3)
            limits.append(modulation_integrate(flow, 0.0, 0.0).b_inf)
        ratio = (limits[0] - limits[1]) / (limits[1] - limits[2])
        assert ratio == pytest.approx(4.0, abs=0.05)
