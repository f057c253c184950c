"""The shared step loop ``errors._march``: its check for non-finite states, its caps on
the step count and the floats stored, and its sums; the shared implicit step's choice
of factorization, the coordinates it marches in, and its check for a singular matrix."""

import numpy as np
import pytest

from logkdv import errors
from logkdv.errors import (
    NumericalError,
    _implicit_step,
    _lapack,
    _march,
    _signed_solve,
    _symmetrized_solve,
    _tridiagonal_solver,
    _unscale,
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


@pytest.mark.parametrize(
    "T, dt, sample_every, size, floats",
    [(1e4, 1e-4, 10, 2001, 20_210_002_003), (1.0, 1e-8, 1, 4, 600_000_006)],
)
def test_stored_floats_above_the_cap_raise_before_any_array(monkeypatch, T, dt, sample_every,
                                                            size, floats):
    # the kept rows plus the times and probes of every step exceed 2^28
    # floats; nothing is allocated, not even the times
    def fail(*args, **kwargs):
        raise AssertionError("no array of steps may be built")

    def step(y, k):
        raise AssertionError("no step may run")

    monkeypatch.setattr(np, "arange", fail)
    message = (rf"sample_every={sample_every} keep .* states of {size} values .*: {floats} floats,"
               rf" above the cap of {2**28}$")
    with pytest.raises(ValueError, match=message):
        _march(step, np.ones(size), 0.0, T, dt, sample_every, lambda y: y[0])


def test_stored_floats_at_the_cap_run(monkeypatch):
    # 4 kept rows of 4 values (steps 0, 3, 6 and the last, 7) and 8 times and probes
    monkeypatch.setattr(errors, "_MAX_FLOATS", 32)
    times, kept, states, *_ = _march(
        constant_steps(), np.ones(4), 0.0, 0.7, 0.1, 3, lambda y: y[0]
    )
    assert kept.tolist() == [0, 3, 6, 7] and states.size + 2 * times.size == 32
    with pytest.raises(ValueError, match="4 states of 4 values and 9 times and probes: 34 floats"):
        _march(constant_steps(), np.ones(4), 0.0, 0.8, 0.1, 3, lambda y: y[0])


def test_a_probe_that_is_the_total_is_taken_once_per_step():
    # the half-line's squared norm is both: its values are the probes and the
    # kept rows' totals, and a step that is not finite is named through it
    calls = []

    def weighted(y):
        calls.append(1)
        return np.dot([1.0, 2.0, 3.0, 4.0], y * y)

    times, kept, states, sums, probes = _march(
        constant_steps(), np.ones(4), 0.0, 1.0, 0.1, 3, weighted, weighted
    )
    assert len(calls) == 11
    assert np.all(probes == 10.0) and probes.size == 11 and np.all(sums == 10.0)
    with pytest.raises(NumericalError, match=r"after step 4 \(t="):
        _march(constant_steps(4, np.nan), np.ones(4), 0.0, 1.0, 0.1, 3, weighted, weighted)


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
    [lattice_bands(400), lattice_bands(2), lattice_bands(400, h=0.1)],
    ids=["lattice", "lattice-two-modes", "lattice-dt-0.1"],
)
def test_skew_lattice_bands_take_the_sign_path(bands):
    # lower == -upper and dgttrf exchanges no rows: one dpttrs on (J D_u, l)
    # and a flip by J = diag((-1)^k), which agree with dgttrs and a dense solve
    lapack = _lapack()
    *lu, info = lapack.dgttrf(*(band.copy() for band in bands))
    assert info == 0 and np.array_equal(lu[-1], np.arange(1, bands[1].size + 1))
    solve = _tridiagonal_solver(*(band.copy() for band in bands))
    assert solve.func is _signed_solve
    assert solve.args[0] is lapack.dpttrs
    signs = solve.args[-1]
    assert signs.tolist() == [(-1.0) ** k for k in range(bands[1].size)]
    matrix = dense(*bands)
    b = np.random.default_rng(0).standard_normal(bands[1].size)
    for trans, oracle in (("N", matrix), ("T", matrix.T)):
        want = np.linalg.solve(oracle, b)
        via_lu, _ = lapack.dgttrs(*lu, b.copy(), trans=trans)
        got, info = solve(b.copy(), trans=trans)
        assert info == 0
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert np.abs(got - via_lu).max() <= 1e-14 * np.abs(via_lu).max()


@pytest.mark.parametrize(
    "bands",
    [lattice_bands(10, h=1.0), halfline_bands(16.0, 1.0), halfline_bands(72.0, 0.05)],
    ids=["lattice-exchanging-rows", "coarse-halfline", "halfline-past-the-scale-floor"],
)
def test_other_bands_keep_the_lu_path_to_the_bit(bands):
    # the half-line's couplings have products below zero where |z| > 8/h; at
    # Z = 72 the scale would fall below exp(-300); at dt = 1.0 dgttrf exchanges
    # 4 rows of the 10-mode lattice, so its LU has no sign similarity to use
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


def test_default_halfline_bands_march_in_y():
    # the symmetrized factorization's D comes with the step: the first state is
    # D w0, to the bit, and D spans about 40 decades at Z = 40
    lower2, lower, diag, upper = _h_bands(HalfLineGrid(40.0, 0.02))
    theta_dt = 0.5e-3
    bands = -theta_dt * lower, 1.0 - theta_dt * diag, -theta_dt * upper
    m = _eliminate_corner(-theta_dt * lower2[-1], *bands)
    w0 = np.random.default_rng(3).standard_normal(diag.size)
    y, step, scale = _implicit_step(*bands, w0, m, True)
    assert scale.max() == 1.0 and scale.min() < 1e-40
    assert y.tobytes() == (w0 * scale).tobytes()


@pytest.mark.parametrize(
    "bands",
    [lattice_bands(400), halfline_bands(16.0, 1.0), halfline_bands(72.0, 0.05)],
    ids=["lattice", "coarse-halfline", "halfline-past-the-scale-floor"],
)
def test_lu_bands_march_in_w(bands):
    # no D on the sign or LU path: the scale is 1 and the first state is w0's bits
    w0 = np.random.default_rng(4).standard_normal(bands[1].size)
    y, step, scale = _implicit_step(*bands, w0, 0.0, True)
    assert np.all(scale == 1.0) and scale.size == w0.size
    assert y.tobytes() == w0.tobytes()


def test_unscale_divides_and_names_the_step_of_a_row_that_overflows():
    kept, times = np.array([0, 4, 8]), np.linspace(0.0, 0.8, 9)
    scale = np.array([1e-100, 1.0])
    rows = np.array([[1e-100, 2.0], [1e200, 3.0], [1e220, 4.0]])
    with np.errstate(over="raise"):  # the overflow is reported as a NumericalError
        with pytest.raises(NumericalError, match=r"non-finite state after step 8 \(t=0\.8\)"):
            _unscale(rows, scale, kept, times)
    # quotients whose squares overflow pass
    rows = np.array([[1e-100, 2.0], [1e100, 3.0]])
    _unscale(rows, scale, kept[:2], times)
    assert rows.tolist() == [[1.0, 2.0], [1e200, 3.0]]
