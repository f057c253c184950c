"""Exception types and the fixed-step loop that both time evolutions share."""

import math

import numpy as np


class NumericalError(RuntimeError):
    """A computation failed to converge or produced an unusable result.

    Raised for genuinely numerical failures (linear-solve breakdowns,
    non-finite states), as opposed to invalid arguments, which raise
    ValueError.
    """


def _march(step, y0, t0, T, dt, sample_every, probe):
    """Take ``round(|T| / dt)`` steps ``y = step(y, k)``, k = 1, 2, ..., from y0 at t0.

    Returns the times ``t0 + k copysign(dt, T)`` of every step k = 0..n, the
    indices kept (step 0, every ``sample_every``-th step and the last), the
    kept states as rows, each kept row's sum of squares ``np.vdot(y, y)``
    and ``probe(y)`` at every step.

    Each state is checked through its sum of squares: a finite one means
    every entry is finite, and only when it is not does the entry-wise scan
    run, so finite entries whose squares overflow still pass.  The steps
    rejected are exactly those with a NaN or infinite entry.  ``np.vdot``
    takes the sum because, unlike ``np.dot``, it does not report an overflow
    to numpy's error state, which a caller may have set to raise.  The sums
    of the kept rows are returned rather than taken again: the lattice's
    norms are their square roots (``inf`` where the squares overflow).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    if not math.isfinite(abs(T) / dt):
        raise ValueError("T / dt must be finite")
    n_steps = int(round(abs(T) / dt))
    if n_steps == 0 and T != 0:
        raise ValueError("T / dt rounds to zero steps")
    times = t0 + np.arange(n_steps + 1) * math.copysign(dt, T)
    times[0] = t0
    kept = np.union1d(np.arange(0, n_steps + 1, sample_every), n_steps)
    states = np.empty((kept.size, np.size(y0)))
    sums = np.empty(kept.size)
    probes = np.empty(n_steps + 1)
    states[0] = y = y0
    sums[0] = np.vdot(states[0], states[0])
    probes[0] = probe(y)
    row = 1
    for k in range(1, n_steps + 1):
        y = step(y, k)
        sq = np.vdot(y, y)
        if not math.isfinite(sq) and not np.all(np.isfinite(y)):
            raise NumericalError(f"non-finite state after step {k} (t={times[k]:.6g})")
        probes[k] = probe(y)
        if kept[row] == k:
            states[row] = y
            sums[row] = sq
            row += 1
    return times, kept, states, sums, probes
