"""Kernel timings with pytest-benchmark, kept out of the tier-1 suite.

Run from the root of a checkout (pytest-benchmark installed):

    PYTHONPATH=src python -m pytest bench --benchmark-only

Each benchmark times one kernel that the north star lists as a layer to
measure, at the size the ``spectral`` or ``dynamics`` perfbench workload
runs it, and checks that its result is still the expected one.
"""

from collections import deque

import numpy as np
import pytest

from logkdv import halfline, hermite, jacobi, lattice


def test_basis_rows(benchmark):
    # 2000 rows on the 2401-point grid of the perfbench eigenprofiles
    x = hermite.RealGrid.uniform(12.0, 2401).nodes
    last = benchmark(lambda: deque(hermite.basis_rows(x, 2000), maxlen=1)[0])
    assert last[0] == 2000
    assert np.max(np.abs(last[1])) <= 1.0


def test_find_eigenvalues(benchmark):
    result = benchmark(jacobi.find_eigenvalues, n_max=4000)
    assert result.eigenvalues[:2] == pytest.approx([2.7054, 6.1540], abs=1e-4)


def test_lattice_midpoint(benchmark):
    bump = lattice.initial_gaussian_bump(400)
    traj = benchmark(lattice.evolve, bump, 1.0, 1e-3, sample_every=10)
    assert traj.states.shape[0] == 101
    assert traj.norms == pytest.approx(bump.norm(), rel=1e-12)


def test_halfline_cn(benchmark):
    w0 = halfline.initial_gaussian_bump(halfline.HalfLineGrid(40.0, 0.02))
    flow = benchmark(halfline.evolve_dissipative, w0, 1.0, 1e-3, sample_every=10)
    assert flow.step_l2.size == 1001
    assert np.all(np.diff(flow.step_l2) <= 0.0)
