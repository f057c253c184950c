"""Synthesis maps back to physical space and their cross-checks."""

import math
import typing

import numpy as np
import pytest

from logkdv.halfline import (
    HalfLineGrid,
    HalfLineState,
    evolve_dissipative,
    gaussian_weight,
    initial_gaussian_bump,
    modulation_integrate,
)
from logkdv.hermite import RealGrid, basis_rows, hermite_function
from logkdv.jacobi import ShootingState, find_eigenvalues, shoot
from logkdv.reconstruct import (
    _apply_dx_l,
    _tail_estimate,
    convolution_synthesize,
    eigenpair_residual,
    eigenvector_assemble,
    synthesize,
)


def test_annotations_resolve():
    # the hints name classes that the module imports, so tools can resolve them
    assert typing.get_type_hints(eigenvector_assemble)["shooting"] is ShootingState
    assert typing.get_type_hints(convolution_synthesize)["state"] is HalfLineState


@pytest.fixture(scope="module")
def z1():
    return float(find_eigenvalues(z_max=4.0, n_max=2000, tol=1e-10).eigenvalues[0])


@pytest.fixture(scope="module")
def sym_grid():
    return RealGrid.uniform(x_max=16.0, num=3201)


class TestSynthesize:
    def test_single_mode(self, sym_grid):
        c = np.zeros(5)
        c[0] = 1.0
        assert synthesize(c, sym_grid) == pytest.approx(
            hermite_function(0, sym_grid.nodes), abs=1e-14
        )

    def test_scaled_ground_state_is_gaussian_wave(self, sym_grid):
        # e^{1/2} (2 pi)^{1/4} u_0 = exp(1/2 - x^2/4) pointwise
        c = np.zeros(3)
        c[0] = math.exp(0.5) * (2.0 * math.pi) ** 0.25
        profile = synthesize(c, sym_grid)
        x = sym_grid.nodes
        assert profile == pytest.approx(np.exp(0.5 - 0.25 * x * x), abs=1e-12)

    def test_parseval(self):
        # 50 modes oscillate out to |x| ~ 14; the grid must contain the
        # decay barrier beyond that for the quadrature to see all the mass
        grid = RealGrid.uniform(x_max=20.0, num=4001)
        rng = np.random.default_rng(21)
        c = rng.standard_normal(50)
        profile = synthesize(c, grid)
        assert grid.inner(profile, profile) == pytest.approx(
            float(np.dot(c, c)), abs=1e-8
        )

    def test_linearity(self, sym_grid):
        rng = np.random.default_rng(22)
        c1, c2 = rng.standard_normal((2, 30))
        lhs = synthesize(c1 + 2.5 * c2, sym_grid)
        rhs = synthesize(c1, sym_grid) + 2.5 * synthesize(c2, sym_grid)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def parity_loop(shooting, nodes):
    """Reference: every node's own rows summed into two coefficient arrays."""
    m_max = shooting.B.size - 1
    m = np.arange(1, m_max + 1)
    coeff_even = (-1.0) ** (m - 1) * shooting.A[1 : m_max + 1] / np.sqrt(2 * m - 1)
    coeff_odd = (-1.0) ** m * shooting.B[1 : m_max + 1] / np.sqrt(2 * m)
    y_odd = np.zeros_like(nodes)
    y_even = np.zeros_like(nodes)
    for n, row in basis_rows(nodes, 2 * m_max + 1):
        if n >= 2 and n % 2 == 0:
            y_even += coeff_even[n // 2 - 1] * row
        elif n >= 3:
            y_odd += coeff_odd[(n - 1) // 2 - 1] * row
    return y_odd, y_even


@pytest.fixture(scope="module")
def profiles(z1, sym_grid):
    return eigenvector_assemble(z1, shoot(z1, 500), sym_grid)


class TestEigenvectorAssembly:
    def test_c1_projection(self, z1, profiles):
        assert profiles.c1 == pytest.approx(math.sqrt(2.0) / z1, rel=1e-14)
        assert profiles.c1 == pytest.approx(0.52274, abs=1e-4)

    def test_parity_exact_on_symmetric_grid(self, profiles):
        # values, not bytes: where odd is +0.0, as at the middle node, -odd is -0.0
        odd, even = profiles.y_odd, profiles.y_even
        assert np.array_equal(odd, -odd[::-1])
        assert np.array_equal(even, even[::-1])

    def test_zero_parameter_rejected(self, sym_grid):
        with pytest.raises(ValueError):
            eigenvector_assemble(0.0, shoot(1.0, 50), sym_grid)

    def test_tail_estimates_reported(self, profiles):
        assert 0 < profiles.tail_odd < profiles.tail_even < 1.0

    def test_weak_residuals_small_for_both_equations(self, z1, profiles, sym_grid):
        report = eigenpair_residual(z1, profiles, sym_grid)
        assert report.projected_odd_equation < 1e-6
        assert report.projected_even_equation < 1e-6

    def test_even_equation_raw_residual_shrinks_with_truncation(self, z1, sym_grid):
        values = []
        for m_max in (125, 250, 500):
            prof = eigenvector_assemble(z1, shoot(z1, m_max), sym_grid)
            values.append(eigenpair_residual(z1, prof, sym_grid).raw_even_equation)
        assert values[2] < values[1] < values[0]
        assert values[2] < 0.15

    def test_odd_equation_raw_residual_carries_edge_mode(self, z1, sym_grid):
        # the even series lies outside the operator domain in the strong
        # sense: its image keeps an order-one highest-mode component no
        # matter the truncation, so only the band-limited residual vanishes
        values = []
        for m_max in (250, 500):
            prof = eigenvector_assemble(z1, shoot(z1, m_max), sym_grid)
            values.append(eigenpair_residual(z1, prof, sym_grid).raw_odd_equation)
        assert min(values) > 0.5
        assert abs(values[0] - values[1]) < 0.1

    @pytest.mark.parametrize("m_max", [10, 500, 4999])
    def test_bit_identical_to_parity_loop(self, z1, sym_grid, m_max):
        # the reference keeps the even and odd coefficients in two arrays and
        # maps each basis index to its slot
        shooting = shoot(z1, m_max)
        m = np.arange(1, m_max + 1)
        coeff_even = (-1.0) ** (m - 1) * shooting.A[1 : m_max + 1] / np.sqrt(2 * m - 1)
        coeff_odd = (-1.0) ** m * shooting.B[1 : m_max + 1] / np.sqrt(2 * m)
        y_odd = np.zeros_like(sym_grid.nodes)
        y_even = np.zeros_like(sym_grid.nodes)
        for n, row in basis_rows(sym_grid.nodes, 2 * m_max + 1):
            if n >= 2 and n % 2 == 0:
                y_even += coeff_even[n // 2 - 1] * row
            elif n >= 3:
                y_odd += coeff_odd[(n - 1) // 2 - 1] * row
        prof = eigenvector_assemble(z1, shooting, sym_grid)
        # bytes, so that a signed zero counts too
        assert prof.y_odd.tobytes() == y_odd.tobytes()
        assert prof.y_even.tobytes() == y_even.tobytes()
        assert prof.tail_odd == _tail_estimate(coeff_odd)
        assert prof.tail_even == _tail_estimate(coeff_even)

    @pytest.mark.parametrize(
        "nodes",
        [
            np.linspace(-3.0, 5.0, 801),
            # -0.0 keeps the +0.0 of its own sums; at +-60 every row
            # underflows, so the odd sums are +0.0 on both sides
            np.array([-60.0, -2.0, -1.0, -0.0, 1.0, 2.5, 60.0]),
        ],
        ids=["offset", "signed-zero"],
    )
    @pytest.mark.parametrize("m_max", [10, 500])
    def test_bit_identical_on_grids_not_mirrored(self, z1, nodes, m_max):
        shooting = shoot(z1, m_max)
        prof = eigenvector_assemble(z1, shooting, RealGrid(nodes))
        y_odd, y_even = parity_loop(shooting, nodes)
        assert prof.y_odd.tobytes() == y_odd.tobytes()
        assert prof.y_even.tobytes() == y_even.tobytes()

    def test_profiles_decay_slower_than_gaussian(self, profiles, sym_grid):
        # the eigenprofiles decay algebraically while every basis term is
        # Gaussian: the ratio to u_0 must grow across the resolved window
        u0 = hermite_function(0, sym_grid.nodes)
        ratio = np.abs(profiles.y_even) / u0
        x = sym_grid.nodes
        picks = [ratio[np.argmin(np.abs(x - xv))] for xv in (0.0, 4.0, 8.0, 11.0)]
        assert picks[0] < picks[1] < picks[2] < picks[3]


@pytest.fixture(scope="module")
def zgrid():
    return HalfLineGrid(extent=40.0, spacing=0.02)


@pytest.fixture(scope="module")
def xgrid():
    return RealGrid.uniform(x_max=20.0, num=2001)


class TestConvolution:
    def test_empty_kernel(self, zgrid, xgrid):
        w0 = HalfLineState(np.zeros(zgrid.n_intervals + 1), 0.0, zgrid)
        u = convolution_synthesize(w0, a=0.7, b=-0.2, grid=xgrid)
        x = xgrid.nodes
        u0 = hermite_function(0, x)
        assert u == pytest.approx(0.7 * u0 - 0.2 * x * u0, abs=1e-14)

    def test_ground_state_projection_identity(self, zgrid, xgrid):
        # <u_0, u> = a + int exp(-z^2/8) w dz
        state = initial_gaussian_bump(zgrid)
        u = convolution_synthesize(state, a=0.5, b=0.3, grid=xgrid)
        lhs = xgrid.inner(hermite_function(0, xgrid.nodes), u)
        rhs = 0.5 + zgrid.integrate(gaussian_weight(zgrid) * state.w)
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_scattering_toward_translational_mode(self, zgrid, xgrid):
        # with zero total constraint, u(t) - b(t) u_1 empties out in both norms
        w0 = initial_gaussian_bump(zgrid)
        flow = evolve_dissipative(w0, T=6.0, dt=1e-3, sample_every=1000)
        a0 = -zgrid.integrate(gaussian_weight(zgrid) * w0.w)
        mod = modulation_integrate(flow, a0, 0.0)
        x = xgrid.nodes
        u1 = x * hermite_function(0, x)
        l2, linf = [], []
        for k in range(flow.ts.size):
            state = HalfLineState(flow.states[k], flow.ts[k], zgrid)
            resid = (
                convolution_synthesize(state, mod.a[k], mod.b[k], xgrid)
                - mod.b[k] * u1
            )
            l2.append(xgrid.norm(resid))
            linf.append(np.abs(resid).max())
        assert l2[-1] < 1e-2 * l2[0]
        assert linf[-1] < 1e-2 * linf[0]
        assert all(b < a for a, b in zip(l2, l2[1:]))

    def test_solves_the_x_space_equation_at_order_h_squared(self):
        # u = a u_0 + b u_1 + int u_0(x - z) w(z) dz solves u_t = d/dx L u: the
        # time difference of the last two samples against d/dx L of their mean,
        # relative on |x| <= 8, falls like h^2 (1.05e-4, 2.63e-5, 6.57e-6)
        xgrid = RealGrid.uniform(12.0, 2401)
        x = xgrid.nodes
        inner = np.abs(x) <= 8.0
        residuals = []
        for h in (0.04, 0.02, 0.01):
            grid = HalfLineGrid(20.0, h)
            w0 = initial_gaussian_bump(grid)
            flow = evolve_dissipative(w0, T=0.1001, dt=1e-4, sample_every=1)
            mod = modulation_integrate(flow, -grid.integrate(gaussian_weight(grid) * w0.w), 0.0)
            u_prev, u_last = (
                convolution_synthesize(
                    HalfLineState(flow.states[k], flow.ts[k], grid), mod.a[k], mod.b[k], xgrid
                )
                for k in (-2, -1)
            )
            u_t = (u_last - u_prev) / (flow.ts[-1] - flow.ts[-2])
            resid = u_t - _apply_dx_l(0.5 * (u_prev + u_last), x)
            residuals.append(np.linalg.norm(resid[inner]) / np.linalg.norm(u_t[inner]))
        assert residuals[0] / residuals[1] == pytest.approx(4.0, abs=0.05)
        assert residuals[1] / residuals[2] == pytest.approx(4.0, abs=0.05)
