"""Fixtures shared by the test modules."""

import contextlib
import signal

import pytest

from logkdv.halfline import (
    HalfLineGrid,
    evolve_dissipative,
    gaussian_weight,
    initial_gaussian_bump,
    modulation_integrate,
)
from logkdv.jacobi import find_eigenvalues


@pytest.fixture
def time_limit():
    """``with time_limit(seconds):`` raises TimeoutError if the block outlives it.

    Lets a test of a loop that must end fail instead of hanging.
    """

    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


@pytest.fixture(scope="session")
def spectrum():
    """The Jacobi eigenvalues below 8 at ``n_max = 1000``, with their scan."""
    return find_eigenvalues(z_min=0.05, z_max=8.0, scan_step=0.05, n_max=1000)


@pytest.fixture(scope="session")
def coupled_flow():
    """The standard half-line run: Gaussian bump, Crank-Nicolson, zero total constraint."""
    grid = HalfLineGrid(extent=40.0, spacing=0.02)
    w0 = initial_gaussian_bump(grid)
    flow = evolve_dissipative(w0, T=5.0, dt=1e-3, sample_every=5)
    a0 = -grid.integrate(gaussian_weight(grid) * w0.w)  # A = 0 data
    mod = modulation_integrate(flow, a0, 0.0)
    return flow, mod
