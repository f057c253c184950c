"""Exception types, the fixed-step loop and implicit tridiagonal step that both
time evolutions share, and the package's one path to LAPACK."""

import functools
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

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


@functools.cache
def _lapack():
    """scipy's LAPACK extension module, ``scipy.linalg._flapack``.

    The f2py extension is loaded from its file in scipy's ``linalg`` folder and
    registered in ``sys.modules`` under that name, so neither ``scipy``'s nor
    ``scipy.linalg``'s ``__init__`` runs.  A later ``import scipy.linalg`` finds
    it there: ``scipy.linalg.lapack``'s ``dgttrf`` is this module's.  If scipy
    loaded it first, that module is returned.  ``_flapack`` is a private name of
    scipy's, run so far at scipy 1.17.1 and checked in CI at the declared floor,
    1.10.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy = find_spec("scipy")  # the package's folder, found without importing it
        spec = scipy and FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "linalg"),
            (ExtensionFileLoader, EXTENSION_SUFFIXES),
        ).find_spec(name)
        if not spec:
            raise ImportError(f"scipy's LAPACK extension {name} was not found")
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _tridiagonal_solver(lower, diag, upper):
    """``solve(b, trans="N")`` for the tridiagonal matrix A with these bands.

    A is factored once by LAPACK's ``dgttrf`` (from :func:`_lapack`), which
    overwrites the bands; a zero pivot, so a singular A, raises NumericalError.
    Each call is one ``dgttrs``, which overwrites a contiguous float array ``b``
    with ``A^{-1} b`` (``trans="T"``: ``A^{-T} b``) and returns it with
    LAPACK's info.
    """
    lapack = _lapack()
    *lu, info = lapack.dgttrf(
        lower, diag, upper, overwrite_dl=True, overwrite_d=True, overwrite_du=True
    )
    if info != 0:  # a zero pivot: the matrix is singular
        raise NumericalError(f"tridiagonal factorization failed: dgttrf info={info}")
    return functools.partial(lapack.dgttrs, *lu, overwrite_b=True)


def _implicit_step(lower, diag, upper, y0, m, fold):
    """The first state y and the step that ``_march`` takes, for a theta rule.

    A is ``I - theta h G``, made tridiagonal by the caller with one row
    operation: row n-1 minus m times row n-2 (m = 0.0 for none).  Its bands
    ``lower``, ``diag`` and ``upper`` are overwritten and factored once by
    :func:`_tridiagonal_solver`.  Backward Euler (theta = 1) takes
    ``y = A^{-1} y``.  The implicit midpoint and Crank-Nicolson rules
    (theta = 1/2, ``fold``) need no product with G:

        (I - h/2 G)^{-1} (I + h/2 G) = 2 (I - h/2 G)^{-1} - I,

    so a step is ``2 solve(y) - y``.  Each step forms the right side b = 2 y,
    or y without the fold, takes the row operation as ``b[-1] -= m * b[-2]``,
    overwrites b with ``A^{-1} b`` by one ``dgttrs`` and, with the fold,
    subtracts y.  Doubling is exact outside the subnormal range, so there
    ``solve(2 y)`` is ``2 solve(y)`` to the bit.

    The states are the first ``y0.size`` entries of two buffers of A's size,
    which alternate between steps, so a step allocates nothing; the entries
    after them start at 0.0, and ``y0`` is copied into the first buffer.

    A node whose row and column of A are the identity's (zero couplings,
    diagonal 1) is a decoupled identity mode.  ``dgttrf`` eliminates through
    it with multiplier 0 and never pivots there, and an entry of +0.0 there
    stays +0.0 at every step, with or without the fold.  It changes no other
    value: the one product with its zero coupling that a substitution
    subtracts from the neighbouring entry can flip the sign of a zero there
    and no other bit.  Both flows have one.  The lattice appends a pad after
    its N modes, because scipy's ``dgttrf`` wrapper rejects N = 2, so every
    N takes this one path; the half-line's Dirichlet node 0, at z = -Z, has
    an empty row and column of H.
    """
    solve = _tridiagonal_solver(lower, diag, upper)
    pads = (np.zeros(diag.size), np.zeros(diag.size))
    heads = tuple(pad[: y0.size] for pad in pads)
    heads[0][:] = y0

    def step(y, k):
        # step k reads pads[(k - 1) % 2] and writes pads[k % 2]
        old, x = pads[(k - 1) % 2], pads[k % 2]
        if fold:
            np.add(old, old, out=x)
        else:
            np.copyto(x, old)
        x[-1] -= m * x[-2]
        solve(x)
        if fold:
            np.subtract(x, old, out=x)
        return heads[k % 2]

    return heads[0], step
