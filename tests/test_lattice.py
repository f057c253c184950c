"""Skew-symmetric lattice dynamics: conservation, reversibility, tracking."""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrs

from logkdv.coercivity import energy_form
from logkdv.jacobi import truncated_matrix_eigenvalues
from logkdv.lattice import (
    C1TrackResult,
    LatticeState,
    LatticeTrajectory,
    c1_track,
    coefficients_to_lattice,
    evolve,
    initial_gaussian_bump,
    initial_random,
    lattice_to_coefficients,
    offdiagonal,
    skew_matrix,
    skew_rhs,
)

C0_LIMIT = 4.0 + 2.0 * math.pi


def padded_lu(n, h):
    """LAPACK's LU of I - h/2 M, M = ``skew_matrix(n)``, with one decoupled identity mode."""
    m = skew_matrix(n)
    lower = np.append(-0.5 * h * np.diag(m, -1), 0.0)
    upper = np.append(-0.5 * h * np.diag(m, 1), 0.0)
    *lu, info = dgttrf(lower, np.ones(n + 1), upper)
    assert info == 0
    return lu


def unpadded_lu(n, h):
    """LAPACK's LU of I - h/2 M at size n (n >= 3: scipy's wrapper rejects n = 2)."""
    beta = offdiagonal(n)
    *lu, info = dgttrf(0.5 * h * beta, np.ones(n), -0.5 * h * beta)
    assert info == 0
    return lu


def stepped(a, T, dt, sample_every, step):
    """Step-by-step loop ``a = step(a, h)`` with evolve's sampling and c1 trapezoid."""
    h = dt if T >= 0 else -dt
    n_steps = int(round(abs(T) / dt))
    ts, states, norms, c1s = [0.0], [a.copy()], [float(np.linalg.norm(a))], [0.0]
    c1 = 0.0
    for k in range(n_steps):
        a1_old = a[0]
        a = step(a, h)
        c1 += h * (a1_old + a[0]) / (2.0 * np.sqrt(2.0))
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            ts.append((k + 1) * h)
            states.append(a.copy())
            norms.append(float(np.linalg.norm(a)))
            c1s.append(c1)
    return np.array(ts), np.array(states), np.array(norms), np.array(c1s)


def reference_evolve(a, T, dt, sample_every, method):
    """evolve's flow step by step: ``J x - a`` with x from ``dpttrs`` on the padded LU's
    ``(J D_u, l)``, J = diag((-1)^k), or ``skew_rhs`` per RK4 stage."""
    if method == "midpoint":
        dl, d, _, _, ipiv = padded_lu(a.size, dt if T >= 0 else -dt)
        assert np.array_equal(ipiv, np.arange(1, a.size + 2))  # no row exchanged
        signs = (-1.0) ** np.arange(a.size + 1)

        def step(a, h):
            x, info = dpttrs(signs * d, dl, np.append(2.0 * a, 0.0))
            assert info == 0
            return (signs * x)[:-1] - a
    else:
        def step(a, h):
            k1 = skew_rhs(a)
            k2 = skew_rhs(a + 0.5 * h * k1)
            k3 = skew_rhs(a + 0.5 * h * k2)
            k4 = skew_rhs(a + h * k3)
            return a + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return stepped(a, T, dt, sample_every, step)


def banded_evolve(a, T, dt, sample_every):
    """The midpoint rule as a generic banded solve against ``(I + h/2 M) a`` per step."""
    h = dt if T >= 0 else -dt
    beta = offdiagonal(a.size)
    ab = np.zeros((3, a.size))
    ab[0, 1:] = -0.5 * h * beta
    ab[1, :] = 1.0
    ab[2, :-1] = 0.5 * h * beta
    return stepped(a, T, dt, sample_every,
                   lambda a, h: solve_banded((1, 1), ab, a + 0.5 * h * skew_rhs(a)))


class TestSkewStructure:
    def test_zero_state(self):
        assert np.all(skew_rhs(np.zeros(10)) == 0.0)

    def test_unit_vector(self):
        a = np.zeros(8)
        a[0] = 1.0  # a_1
        out = skew_rhs(a)
        assert out[1] == pytest.approx(-math.sqrt(6.0) / 2.0, rel=1e-14)
        assert out[0] == 0.0
        assert np.abs(out[2:]).max() == 0.0

    def test_matrix_exactly_skew(self):
        m = skew_matrix(60)
        assert np.abs(m + m.T).max() == 0.0

    def test_orthogonality_of_rhs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal(200)
            assert abs(np.dot(a, skew_rhs(a))) < 1e-12 * np.dot(a, a)

    @pytest.mark.parametrize("n_modes", [41, 200, 401])
    def test_frequencies_are_half_the_jacobi_section(self, n_modes):
        # D M D^{-1} = -i J_N / 2 with D = diag(i^k): the lattice frequencies
        # are half the eigenvalues of the Jacobi finite section, which jacobi
        # computes from its own weights with a tridiagonal eigensolver
        ev = np.linalg.eigvalsh(1j * skew_matrix(n_modes))
        positive = ev[ev.size - n_modes // 2:]
        half = truncated_matrix_eigenvalues(n_modes, z_max=1e9) / 2.0
        assert positive.size == half.size == n_modes // 2
        assert np.abs(positive - half).max() <= 1e-14 * half.max()


class TestCoefficientMaps:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(40)
        back = coefficients_to_lattice(lattice_to_coefficients(a, c1=0.7))
        assert back == pytest.approx(a, rel=1e-14)

    def test_energy_equivalence(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(80)
        c = lattice_to_coefficients(a, c1=1.3)
        # the norm of a equals the energy form of c whenever c_0 = 0
        assert np.dot(a, a) == pytest.approx(energy_form(c), rel=1e-12)


class TestEvolve:
    def test_zero_horizon_is_identity(self):
        state = initial_random(50, seed=1)
        traj = evolve(state, 0.0, 1e-2)
        assert traj.states.shape == (1, 50)
        assert np.array_equal(traj.states[0], state.a)

    def test_midpoint_conserves_norm(self):
        state = initial_random(100, seed=2)
        traj = evolve(state, 1.0, 1e-3)
        assert np.abs(traj.norms / traj.norms[0] - 1.0).max() < 1e-10
        # the benchmark's midpoint run: 400 modes, every tenth step kept
        bump = initial_gaussian_bump(400)
        traj = evolve(bump, 1.0, 1e-3, sample_every=10)
        assert traj.states.shape[0] == 101
        assert traj.norms == pytest.approx(bump.norm(), rel=1e-12)

    def test_negative_horizon_and_reversal(self):
        state = initial_gaussian_bump(120)
        fwd = evolve(state, 1.0, 1e-3)
        end = LatticeState(fwd.states[-1], t=fwd.ts[-1])
        back = evolve(end, -1.0, 1e-3)
        err = np.linalg.norm(back.states[-1] - state.a) / np.linalg.norm(state.a)
        assert err < 1e-6

    def test_rk4_matches_midpoint_and_conserves(self):
        state = initial_gaussian_bump(80)
        dt = 0.25 * 80**-1.5
        steps = int(round(0.2 / dt))
        horizon = steps * dt
        rk = evolve(state, horizon, dt, method="rk4", sample_every=steps)
        mp = evolve(state, horizon, 1e-5, sample_every=int(round(horizon / 1e-5)))
        assert abs(rk.norms[-1] / rk.norms[0] - 1.0) < 1e-9
        assert rk.states[-1] == pytest.approx(mp.states[-1], abs=5e-6)

    @pytest.mark.parametrize(
        "n_modes, T, method",
        [(2, 0.5, "midpoint"), (3, -0.5, "midpoint"), (400, 0.3, "midpoint"),
         (400, -0.3, "midpoint"), (2, 0.5, "rk4"), (200, 0.05, "rk4"), (200, -0.05, "rk4")],
    )
    def test_bit_identical_to_reference_loop(self, n_modes, T, method):
        state = initial_random(n_modes, seed=12)
        dt = 1e-3 if method == "midpoint" else 0.5 * n_modes**-1.5
        traj = evolve(state, T, dt, sample_every=7, method=method)
        ref = reference_evolve(state.a.copy(), T, dt, 7, method)
        for got, want in zip((traj.ts, traj.states, traj.norms, traj.c1), ref):
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # the signs of zeros too

    def test_agrees_with_banded_loop(self):
        # the fold 2 solve(a) - a on one LU against a banded solve of
        # (I + h/2 M) a per step: the same flow up to roundoff over 10^4 steps
        state = initial_gaussian_bump(400)
        traj = evolve(state, 10.0, 1e-3)
        ts, states, norms, c1 = banded_evolve(state.a.copy(), 10.0, 1e-3, 1)
        assert np.array_equal(traj.ts, ts)
        assert np.abs(traj.states - states).max() <= 1e-12 * np.abs(states).max()
        assert np.abs(traj.norms - norms).max() <= 1e-12 * np.abs(norms).max()
        assert np.abs(traj.c1 - c1).max() <= 1e-12 * np.abs(c1).max()

    def test_midpoint_error_falls_as_dt_squared(self):
        # each halving of dt cuts the gap between successive final states by 4
        state = initial_gaussian_bump(80)
        finals = [evolve(state, 0.2, dt, sample_every=10**6).states[-1]
                  for dt in (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)]
        gaps = [np.linalg.norm(b - a) for a, b in zip(finals, finals[1:])]
        ratios = [g / g_next for g, g_next in zip(gaps, gaps[1:])]
        assert all(3.9 <= r <= 4.1 for r in ratios), ratios

    def test_rk4_step_cap_enforced(self):
        state = initial_random(400, seed=3)
        with pytest.raises(ValueError):
            evolve(state, 1.0, 1e-3, method="rk4")

    def test_bad_arguments(self):
        state = initial_random(20, seed=4)
        with pytest.raises(ValueError):
            evolve(state, 1.0, -0.1)
        with pytest.raises(ValueError):
            evolve(state, 1.0, 0.1, method="euler")
        with pytest.raises(ValueError, match="finite"):
            evolve(state, 1.0, 1e-320)
        with pytest.raises(ValueError, match="zero steps"):
            evolve(state, 1e-9, 1e-3)


class TestPaddedSolve:
    """evolve factors I - h/2 M with one decoupled identity mode appended."""

    @pytest.mark.parametrize("h", [1e-3, -1.0])
    @pytest.mark.parametrize("n", [3, 4, 400])
    def test_pad_changes_no_bit(self, n, h):
        # dgttrf eliminates the pad's row with multiplier 0 and never pivots
        # there, so the first n entries are the unpadded solve's bytes; at
        # h = -1 it pivots at the last lattice row for n = 4 and 400
        rng = np.random.default_rng(n)
        b = rng.standard_normal(n)
        want, info = dgttrs(*unpadded_lu(n, h), b.copy())
        assert info == 0
        got, info = dgttrs(*padded_lu(n, h), np.append(b, 0.0))
        assert info == 0
        assert got[:n].tobytes() == want.tobytes()
        assert got[n] == 0.0 and not np.signbit(got[n])

    @pytest.mark.parametrize("n", [4, 6])
    def test_pad_flips_at_most_the_sign_of_a_zero(self, n):
        # back substitution subtracts DU[n-1] * 0.0 from the last lattice
        # entry; after a pivot DU[n-1] can be -0.0, so a zero entry's sign can
        # flip (here for the right side -0.0, 0.0, -0.0, ...), but no other bit
        lu, padded = unpadded_lu(n, 3.0), padded_lu(n, 3.0)
        for b in itertools.product((0.0, -0.0, 1.0), repeat=n):
            want, _ = dgttrs(*lu, np.array(b))
            got, _ = dgttrs(*padded, np.append(b, 0.0))
            assert np.array_equal(got[:n], want), b
            differ = np.signbit(got[:n]) != np.signbit(want)
            assert np.all(want[differ] == 0.0), b
            assert got[n] == 0.0 and not np.signbit(got[n])

    def test_unpadded_factorization_rejects_two_modes(self):
        # the reason for the pad; evolve --n-modes 2 is accepted
        try:
            dgttrf(np.ones(1), np.ones(2), np.ones(1))
        except ValueError:
            return
        pytest.fail("scipy's dgttrf now accepts n = 2: evolve's identity pad can go")


class TestC1Track:
    def test_quiescent_state_keeps_c1(self):
        traj = evolve(LatticeState(np.zeros(30)), 1.0, 1e-2, sample_every=10)
        track = c1_track(0.4, traj)
        assert np.all(track.c1 == 0.4)

    def test_trajectory_c1_matches_retrack(self):
        state = initial_gaussian_bump(150)
        for sample_every in (1, 10):
            traj = evolve(state, 0.5, 1e-3, sample_every=sample_every)
            track = c1_track(0.0, traj)
            assert track.c1 == pytest.approx(traj.c1, abs=1e-12)
            assert np.array_equal(track.c1, traj.c1)

    def test_pairing_conserved_before_edge_contact(self):
        # wave content from modes ~15 reaches n = 400 around t ~ 0.4;
        # inside that window the pairing drift is truncation-limited
        state = initial_gaussian_bump(400)
        traj = evolve(state, 0.25, 5e-4)
        track = c1_track(0.0, traj)
        assert track.drift_rel < 1e-4

    def test_sampled_pairing_conserved_before_edge_contact(self):
        # c1 is integrated over every step, not over the kept samples, so
        # sampling adds no quadrature error to the pre-edge drift
        state = initial_gaussian_bump(400)
        traj = evolve(state, 0.25, 1e-3, sample_every=10)
        track = c1_track(0.0, traj)
        assert track.drift_abs < 1e-11

    def test_pairing_drifts_after_edge_contact(self):
        # once the front reflects off the truncation boundary the pairing is
        # no longer conserved: the infinite-lattice invariant does not
        # survive truncation (finite-time transport to infinity)
        state = initial_gaussian_bump(400)
        traj = evolve(state, 3.0, 1e-3, sample_every=10)
        track = c1_track(0.0, traj)
        assert track.drift_rel > 1e-2

    def test_pairing_does_not_depend_on_the_number_of_kept_samples(self):
        # each sample is paired alone, so a trajectory cut to its first n
        # samples reports the same bits for them
        traj = evolve(initial_gaussian_bump(400), 0.5, 1e-3, sample_every=10)
        track = c1_track(0.0, traj)
        for n in range(1, traj.ts.size + 1):
            head = LatticeTrajectory(traj.ts[:n], traj.states[:n].copy(),
                                     traj.norms[:n], traj.c1[:n])
            assert np.array_equal(c1_track(0.0, head).conserved, track.conserved[:n]), n

    def test_c1_bounded_by_pairing_and_energy(self):
        state = initial_gaussian_bump(400)
        traj = evolve(state, 0.25, 5e-4)
        track = c1_track(0.0, traj)
        q0 = abs(track.conserved[0])
        bound = 0.5 * (q0 + math.sqrt(C0_LIMIT * traj.norms[0] ** 2))
        assert np.abs(track.c1).max() <= bound * (1 + 1e-10)

    def test_result_type(self):
        traj = evolve(initial_random(20, seed=8), 0.1, 1e-2)
        assert isinstance(c1_track(0.0, traj), C1TrackResult)
