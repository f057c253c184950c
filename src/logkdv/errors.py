"""Exception types, the fixed-step loop and implicit tridiagonal step that both
time evolutions share, and the package's one path to LAPACK."""

import functools
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

# The most steps one run of ``_march`` takes: 10^8 steps hold 1.6 GB of times
# and probes before any state, and the defaults ask for at most 10^7.
_MAX_STEPS = 10**8

# The most floats one run of ``_march`` stores, its kept rows and its two
# per-step arrays (times and probes): 2^28 floats are 2 GiB.
_MAX_FLOATS = 2**28

class NumericalError(RuntimeError):
    """A computation failed to converge or produced an unusable result.

    Raised for genuinely numerical failures (linear-solve breakdowns,
    non-finite states), as opposed to invalid arguments, which raise
    ValueError.
    """


def _sum_of_squares(y):
    return np.vdot(y, y)


def _march(step, y0, t0, T, dt, sample_every, probe, total=_sum_of_squares):
    """Take ``round(|T| / dt)`` steps ``y = step(y, k)``, k = 1, 2, ..., from y0 at t0.

    Returns the times ``t0 + k copysign(dt, T)`` of every step k = 0..n, the
    indices kept (step 0, every ``sample_every``-th step and the last), the
    kept states as rows, each kept row's ``total(y)`` and ``probe(y)`` at
    every step.

    More than ``_MAX_STEPS`` steps, or more than ``_MAX_FLOATS`` floats in
    the kept rows and the two per-step arrays (times and probes), raise
    ValueError before anything is allocated.

    Each state is checked through ``total``, a sum of squares with positive
    weights (by default :func:`_sum_of_squares`): a finite one means every
    entry is finite, and only when it is not does the entry-wise scan run,
    so finite entries whose squares overflow still pass.  The steps rejected
    are exactly those with a NaN or infinite entry.  ``np.vdot`` takes the
    sum because, unlike ``np.dot``, it does not report an overflow to
    numpy's error state, which a caller may have set to raise.  The totals
    of the kept rows are returned rather than taken again: the lattice's
    norms are their square roots (``inf`` where the squares overflow).  A
    probe that is ``total`` itself, as the half-line's squared norm is, is
    not taken again either: a step takes that one reduction, and the
    probes are its values.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    if not math.isfinite(abs(T) / dt):
        raise ValueError("T / dt must be finite")
    n_steps = int(round(abs(T) / dt))
    if n_steps > _MAX_STEPS:
        raise ValueError(
            f"T={T!r} and dt={dt!r} ask for {n_steps} steps, above the cap of {_MAX_STEPS}"
        )
    if n_steps == 0 and T != 0:
        raise ValueError("T / dt rounds to zero steps")
    n_kept = n_steps // sample_every + 1 + (n_steps % sample_every != 0)
    n_floats = n_kept * np.size(y0) + 2 * (n_steps + 1)
    if n_floats > _MAX_FLOATS:
        raise ValueError(
            f"T={T!r}, dt={dt!r} and sample_every={sample_every} keep {n_kept} states of"
            f" {np.size(y0)} values and {n_steps + 1} times and probes: {n_floats} floats,"
            f" above the cap of {_MAX_FLOATS}"
        )
    times = t0 + np.arange(n_steps + 1) * math.copysign(dt, T)
    times[0] = t0
    kept = np.union1d(np.arange(0, n_steps + 1, sample_every), n_steps)
    states = np.empty((kept.size, np.size(y0)))
    sums = np.empty(kept.size)
    probes = np.empty(n_steps + 1)
    probe_is_total = probe is total  # then the probes are the totals
    states[0] = y = y0
    sums[0] = s = total(y)
    probes[0] = s if probe_is_total else probe(y)
    row = 1
    for k in range(1, n_steps + 1):
        y = step(y, k)
        s = total(y)
        if not math.isfinite(s) and not np.all(np.isfinite(y)):
            raise _non_finite(k, times[k])
        probes[k] = s if probe_is_total else probe(y)
        if kept[row] == k:
            states[row] = y
            sums[row] = s
            row += 1
    return times, kept, states, sums, probes


def _non_finite(k, t):
    """The error for a state with a NaN or infinite entry after step k, at time t."""
    return NumericalError(f"non-finite state after step {k} (t={t:.6g})")


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


def _signed_solve(dpttrs, d, e, signs, b):
    """``A^{-1} b`` for ``A = L D_u J L^T J``, with ``J D_u`` = d and L's
    multipliers e from ``dgttrf`` and J = ``signs``: one ``dpttrs`` with them,
    then b times J."""
    x, info = dpttrs(d, e, b, overwrite_b=True)
    np.multiply(x, signs, out=x)
    return x, info


def _factor(lower, diag, upper):
    """``solve`` for the tridiagonal matrix A with these bands.

    ``solve(b)`` overwrites a contiguous float array b with ``A^{-1} b`` and
    returns it with LAPACK's info.  The routines come from :func:`_lapack`,
    by one of three paths that the bands choose; this function is the one
    place that picks a path.

    * A is symmetric, ``lower == upper``, and ``dpttrf`` factors it as
      positive definite (info 0): ``solve`` is ``dpttrs`` with those
      factors.  The half-line's ``I - theta dt S``, S its symmetric H,
      takes this path on every grid.
    * Otherwise A is factored by ``dgttrf``, which overwrites the bands;
      a zero pivot, so a singular A, raises NumericalError.  If the
      couplings are exact negatives, ``lower == -upper``, and ``dgttrf``
      exchanged no rows, then ``A^T = J A J`` with J = diag((-1)^k), and
      the LU is ``A = L U`` with ``U = D_u J L^T J``: U's superdiagonal is
      ``upper = -lower = -D_u l``.  So ``A^{-1} = J L^{-T} (J D_u)^{-1}
      L^{-1}``: ``solve`` is one ``dpttrs`` with ``(J D_u, l)`` and then
      the flip ``b *= J`` (:func:`_signed_solve`).  The lattice's
      ``I - h/2 M``, with M skew, takes this path at the step sizes it is
      run at (no row is exchanged at N = 400 up to dt = 0.13, or at
      dt = 1e-3 up to N = 9999); at dt = 1.0 ``dgttrf`` exchanges N - 6
      rows from N = 7 on.
    * Else ``solve`` is ``dgttrs`` with A's LU.

    An identity row and column (zero couplings, diagonal 1) keep a zero
    factor or multiplier on every path, and leave an entry of +0.0 there at
    +0.0 (on the sign path ``dpttrs`` divides it by ``J D_u = +-1``, and the
    flip by J restores +0.0).
    """
    lapack = _lapack()
    if np.array_equal(lower, upper):
        d, e, info = lapack.dpttrf(diag, lower)  # copies: dgttrf below reads the bands
        if info == 0:
            return functools.partial(lapack.dpttrs, d, e, overwrite_b=True)
    skew = np.array_equal(lower, -upper)
    *lu, info = lapack.dgttrf(
        lower, diag, upper, overwrite_dl=True, overwrite_d=True, overwrite_du=True
    )
    if info != 0:  # a zero pivot: the matrix is singular
        raise NumericalError(f"tridiagonal factorization failed: dgttrf info={info}")
    dl, d, _, _, pivots = lu
    if skew and np.array_equal(pivots, np.arange(1, d.size + 1)):  # no row exchanged
        signs = np.where(np.arange(d.size) % 2, -1.0, 1.0)
        return functools.partial(_signed_solve, lapack.dpttrs, signs * d, dl, signs)
    return functools.partial(lapack.dgttrs, *lu, overwrite_b=True)


def _implicit_step(lower, diag, upper, y0, fold):
    """The first state and the step that ``_march`` takes, for a theta rule.

    A is ``I - theta h G``, with bands ``lower``, ``diag`` and ``upper``,
    factored once by :func:`_factor`, which may overwrite them.  Backward
    Euler (theta = 1) takes ``y = A^{-1} y``.  The implicit midpoint and
    Crank-Nicolson rules (theta = 1/2, ``fold``) need no product with G:

        (I - h/2 G)^{-1} (I + h/2 G) = 2 (I - h/2 G)^{-1} - I,

    so a step is ``2 solve(y) - y``.  Each step forms the right side b = 2 y,
    or y without the fold, overwrites b with its solve and, with the fold,
    subtracts y.  Doubling is exact outside the subnormal range, so there
    ``solve(2 y)`` is ``2 solve(y)`` to the bit.  The step has no branch on
    the path that :func:`_factor` took.

    The states are the first ``y0.size`` entries of two buffers of A's size,
    which alternate between steps, so a step allocates nothing; the entries
    after them start at 0.0, and y0 is copied into the first buffer.

    A node whose row and column of A are the identity's (zero couplings,
    diagonal 1) is a decoupled identity mode, which every path of
    :func:`_factor` keeps: an entry of +0.0 there stays +0.0 at every step,
    with or without the fold.  It changes no other value: the one product
    with its zero coupling that a substitution subtracts from the
    neighbouring entry can flip the sign of a zero there and no other bit.
    Both flows have one.  The lattice appends a pad after its N modes,
    because scipy's ``dgttrf`` wrapper rejects N = 2, so every N takes this
    one path; the half-line's Dirichlet node 0, at z = -Z, has an empty row
    and column of H.
    """
    solve = _factor(lower, diag, upper)
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
        solve(x)
        if fold:
            np.subtract(x, old, out=x)
        return heads[k % 2]

    return heads[0], step


def _unscale(rows, scale, kept, times):
    """Overwrite the kept rows y of a march with ``w = y / D``.

    A row that overflows there raises NumericalError naming its step, as
    ``_march`` names a step that is not finite.  A finite ``np.vdot`` of
    all the rows passes them at once; only when it is not are they
    scanned entry by entry.
    """
    with np.errstate(over="ignore"):  # an overflow is reported below, by its step
        np.divide(rows, scale, out=rows)
    if not math.isfinite(np.vdot(rows, rows)):
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            k = kept[bad.argmax()]
            raise _non_finite(k, times[k])
