"""The shared step loop ``errors._march``: its check for non-finite states, its cap on
the step count and its sums; the shared implicit step's choice of factorization and
its check for a singular matrix."""

import numpy as np
import pytest

from logkdv import errors
from logkdv.errors import (
    NumericalError,
    _implicit_step,
    _lapack,
    _march,
    _symmetrized_solve,
    _tridiagonal_solver,
)
from logkdv.halfline import HalfLineGrid, _eliminate_corner, _h_bands
from logkdv.lattice import offdiagonal


def constant_steps(bad_step=None, bad_value=None, scale=1.0):
    """A ``step`` that returns ``scale`` in every entry, and ``bad_value`` in one at ``bad_step``."""

    def step(y, k):
        out = np.full(4, scale)
        if k == bad_step:
            out[2] = bad_value
        return out

    return step


@pytest.mark.parametrize("bad_step, bad_value", [(3, np.nan), (5, np.inf), (5, -np.inf)])
def test_non_finite_entry_raises_at_its_step(bad_step, bad_value):
    step = constant_steps(bad_step, bad_value)
    with pytest.raises(NumericalError, match=rf"after step {bad_step} \(t="):
        _march(step, np.ones(4), 0.0, 1.0, 0.1, 1, lambda y: y[0])


def test_finite_entries_whose_squares_overflow_run_to_the_end():
    # 1e200 squared is beyond float range, yet every entry is finite; numpy's
    # error state set to raise, as the command line runs, must not stop it either
    step = constant_steps(scale=1e200)
    with np.errstate(over="raise", invalid="raise"):
        times, kept, states, sums, probes = _march(
            step, np.ones(4), 0.0, 1.0, 0.1, 1, lambda y: y[0]
        )
    assert kept[-1] == 10
    assert np.all(states[1:] == 1e200)
    assert np.all(probes[1:] == 1e200)
    assert sums[0] == 4.0
    assert np.all(sums[1:] == np.inf)
    assert_sums_of_rows(sums, states)


@pytest.mark.parametrize("T, dt", [(1e4, 1e-9), (-1e4, 1e-9), (1.0, 0.99e-8)])
def test_step_count_above_the_cap_raises_before_any_step(T, dt):
    def step(y, k):
        raise AssertionError("no step may run")

    steps = int(round(abs(T) / dt))
    with pytest.raises(ValueError, match=rf"T={T!r} and dt={dt!r} ask for {steps} steps"):
        _march(step, np.ones(4), 0.0, T, dt, 1, lambda y: y[0])


def test_step_count_at_the_cap_runs(monkeypatch):
    monkeypatch.setattr(errors, "_MAX_STEPS", 10)
    times, *_ = _march(constant_steps(), np.ones(4), 0.0, 1.0, 0.1, 1, lambda y: y[0])
    assert times.size == 11
    with pytest.raises(ValueError, match="ask for 11 steps, above the cap of 10"):
        _march(constant_steps(), np.ones(4), 0.0, 1.1, 0.1, 1, lambda y: y[0])


def assert_sums_of_rows(sums, states):
    """The returned sums are ``np.vdot`` of each stored row, to the bit."""
    want = np.array([np.vdot(s, s) for s in states])
    assert sums.tobytes() == want.tobytes()


@pytest.mark.parametrize("sample_every", [1, 3])
def test_sums_are_those_of_the_kept_rows(sample_every):
    # a step whose entries change each time, so every kept row has its own sum;
    # 11 steps are not a multiple of 3, so the last is kept off the grid
    rng = np.random.default_rng(7)
    draws = rng.standard_normal((12, 5))

    def step(y, k):
        return y * 0.5 + draws[k]

    times, kept, states, sums, probes = _march(
        step, draws[0], 0.0, 1.1, 0.1, sample_every, lambda y: y[0]
    )
    assert kept[-1] == 11 and kept.size == states.shape[0] == sums.size
    assert_sums_of_rows(sums, states)


@pytest.mark.parametrize(
    "factor",
    [_tridiagonal_solver, lambda *bands: _implicit_step(*bands, np.ones(3), 0.0, True)],
    ids=["solver", "implicit_step"],
)
@pytest.mark.parametrize(
    "diag", [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]], ids=["one-zero", "all-zero"]
)
def test_zero_pivot_raises(factor, diag):
    # both flows factor through here; with no couplings, a zero on the
    # diagonal is a zero pivot
    with pytest.raises(NumericalError, match="factorization failed: dgttrf info="):
        factor(np.zeros(2), np.array(diag), np.zeros(2))


def halfline_bands(extent, spacing, theta_dt=0.5e-3):
    """The eliminated bands of ``I - theta dt H`` that ``evolve_dissipative`` factors."""
    lower2, lower, diag, upper = _h_bands(HalfLineGrid(extent, spacing))
    bands = -theta_dt * lower, 1.0 - theta_dt * diag, -theta_dt * upper
    _eliminate_corner(-theta_dt * lower2[-1], *bands)
    return bands


def lattice_bands(n_modes, h=1e-3):
    """The padded bands of ``I - h/2 M`` that the lattice midpoint rule factors."""
    beta = offdiagonal(n_modes)
    return np.append(0.5 * h * beta, 0.0), np.ones(n_modes + 1), np.append(-0.5 * h * beta, 0.0)


def dense(lower, diag, upper):
    return np.diag(lower, -1) + np.diag(diag) + np.diag(upper, 1)


def test_default_halfline_bands_take_the_symmetrized_path():
    solve = _tridiagonal_solver(*halfline_bands(40.0, 0.02))
    assert solve.func is _symmetrized_solve
    assert solve.args[0] is _lapack().dpttrs


@pytest.mark.parametrize(
    "bands",
    [lattice_bands(400), lattice_bands(2), halfline_bands(16.0, 1.0), halfline_bands(72.0, 0.05)],
    ids=["lattice", "lattice-two-modes", "coarse-halfline", "halfline-past-the-scale-floor"],
)
def test_other_bands_keep_the_lu_path_to_the_bit(bands):
    # the skew lattice's couplings have products below zero, as the half-line's
    # do where |z| > 8/h; at Z = 72 the scale would fall below exp(-300)
    lapack = _lapack()
    *lu, info = lapack.dgttrf(*(band.copy() for band in bands))
    assert info == 0
    solve = _tridiagonal_solver(*(band.copy() for band in bands))
    assert solve.func is lapack.dgttrs
    b = np.random.default_rng(0).standard_normal(bands[1].size)
    for trans in ("N", "T"):
        want, _ = lapack.dgttrs(*lu, b.copy(), trans=trans)
        got, info = solve(b.copy(), trans=trans)
        assert info == 0
        assert got.tobytes() == want.tobytes()


def symmetrizable_bands(n, diag_shift, seed=0):
    """Couplings of one sign per pair, both signs along the bands, a decoupled
    pair in the middle, and ``diag_shift`` added to a diagonal of ones."""
    rng = np.random.default_rng(seed)
    sign = np.where(np.arange(n - 1) % 3 == 0, -1.0, 1.0)
    lower = sign * rng.uniform(0.1, 2.0, n - 1)
    upper = sign * rng.uniform(0.1, 2.0, n - 1)
    lower[n // 2] = upper[n // 2] = 0.0
    return lower, np.ones(n) + diag_shift, upper


def symmetrized_copy(bands):
    """The bands of the symmetric matrix similar to ``dense(*bands)``."""
    lower, diag, upper = bands
    e = np.sign(lower) * np.sqrt(lower * upper)
    return e, diag, e


def test_symmetrizable_solves_match_a_dense_solve():
    bands = symmetrizable_bands(40, 4.0)
    matrix = dense(*bands)
    solve = _tridiagonal_solver(*(band.copy() for band in bands))
    assert solve.func is _symmetrized_solve
    b = np.random.default_rng(1).standard_normal(40)
    for trans, want in (("N", np.linalg.solve(matrix, b)), ("T", np.linalg.solve(matrix.T, b))):
        got, info = solve(b.copy(), trans=trans)
        assert info == 0
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_indefinite_symmetrizable_matrix_falls_back_to_lu():
    # a diagonal of ones minus 2 leaves the similar symmetric matrix indefinite,
    # so dpttrf stops at a pivot below zero and dgttrf factors the bands
    bands = symmetrizable_bands(40, -2.0)
    matrix = dense(*bands)
    eigenvalues = np.linalg.eigvalsh(dense(*symmetrized_copy(bands)))
    assert eigenvalues[0] < 0.0 < eigenvalues[-1]
    solve = _tridiagonal_solver(*(band.copy() for band in bands))
    assert solve.func is _lapack().dgttrs
    b = np.random.default_rng(2).standard_normal(40)
    want = np.linalg.solve(matrix, b)
    assert np.abs(solve(b.copy())[0] - want).max() <= 1e-12 * np.abs(want).max()


def test_singular_symmetrizable_matrix_raises():
    # couplings of one sign, diagonal [1, 2, 1]: positive semidefinite and
    # singular, so dpttrf stops and dgttrf meets a zero pivot
    with pytest.raises(NumericalError, match="factorization failed: dgttrf info="):
        _tridiagonal_solver(np.ones(2), np.array([1.0, 2.0, 1.0]), np.ones(2))
