"""The shared step loop ``errors._march``: its check for non-finite states and its sums;
the shared implicit step's check for a singular matrix."""

import numpy as np
import pytest

from logkdv.errors import NumericalError, _implicit_step, _march, _tridiagonal_solver


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
