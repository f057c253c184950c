"""The shared step loop ``errors._march``: its check for non-finite states."""

import numpy as np
import pytest

from logkdv.errors import NumericalError, _march


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
        times, kept, states, probes = _march(step, np.ones(4), 0.0, 1.0, 0.1, 1, lambda y: y[0])
    assert kept[-1] == 10
    assert np.all(states[1:] == 1e200)
    assert np.all(probes[1:] == 1e200)
