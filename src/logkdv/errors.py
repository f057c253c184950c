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

# The least natural log of an entry of a symmetrizing scale D, whose largest
# entry is 1: below it, D b and b / D would lose bits to underflow.
_LOG_SCALE_FLOOR = -300.0


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


def _symmetrizer(lower, upper):
    """A positive scale D and bands e with ``D A D^{-1}`` symmetric, or None.

    For a tridiagonal A with these off-diagonal bands, ``D A D^{-1}`` has the
    same diagonal and the couplings ``r[i] lower[i]`` below and
    ``upper[i] / r[i]`` above, with ``r[i] = d[i+1] / d[i]``.  Both are
    ``e[i] = sign(lower[i]) sqrt(lower[i] upper[i])`` when
    ``r[i] = sqrt(upper[i] / lower[i])`` (1 where both couplings are zero),
    which needs every pair of couplings to be both zero or of one sign.  D is
    the running product of r, normalised to a largest entry of 1, and e is
    ``r lower``.  None when a pair has opposite signs or one zero, or when an
    entry of D would fall below ``exp(_LOG_SCALE_FLOOR)``; that is checked
    on the sums of the logs, so the product neither overflows nor underflows.
    """
    if not np.array_equal(np.sign(lower), np.sign(upper)):
        return None
    coupled = lower != 0.0
    logs = np.zeros((2, lower.size))  # log |upper| and log |lower|, 0.0 where both are 0.0
    np.log(np.abs([upper, lower]), out=logs, where=coupled)
    log_scale = np.concatenate(([0.0], np.cumsum(0.5 * (logs[0] - logs[1]))))
    if not log_scale.min() - log_scale.max() >= _LOG_SCALE_FLOOR:
        return None
    ratio = np.sqrt(np.divide(upper, lower, out=np.ones(lower.size), where=coupled))
    scale = np.cumprod(np.concatenate(([1.0], ratio)))
    scale /= scale.max()
    return scale, ratio * lower


def _symmetrized_solve(dpttrs, d, e, scale, b, trans="N"):
    """``A^{-1} b`` (``trans="T"``: ``A^{-T} b``) for ``A = D^{-1} S D``, S's
    factors d, e from ``dpttrf`` and D = ``scale``: b times D, one ``dpttrs``
    with S, then divided by D.  ``A^T = D S D^{-1}`` swaps the two."""
    into, out = (np.multiply, np.divide) if trans == "N" else (np.divide, np.multiply)
    into(b, scale, out=b)
    x, info = dpttrs(d, e, b, overwrite_b=True)
    out(x, scale, out=x)
    return x, info


def _signed_solve(dpttrs, d, e, signs, b, trans="N"):
    """``A^{-1} b`` (``trans="T"``: ``A^{-T} b``) for ``A = L D_u J L^T J``, with
    ``J D_u`` = d and L's multipliers e from ``dgttrf`` and J = ``signs``: one
    ``dpttrs`` with them, then b times J.  ``A^{-T} = J A^{-1} J`` flips b
    before the solve instead."""
    if trans != "N":
        np.multiply(b, signs, out=b)
    x, info = dpttrs(d, e, b, overwrite_b=True)
    if trans == "N":
        np.multiply(x, signs, out=x)
    return x, info


def _factor(lower, diag, upper):
    """LAPACK's factors of the tridiagonal matrix A with these bands.

    Returns ``(routine, factors, scale, signs)``: ``routine(*factors, b)``
    solves with them.  The routines come from :func:`_lapack`, by one of
    three paths that the bands choose:

    * A diagonal similarity S = D A D^{-1} is symmetric positive definite
      (:func:`_symmetrizer`, then ``dpttrf`` returns info 0): ``dpttrs``
      with S's factors, D = ``scale`` and no signs (None).  The
      half-line's ``I - theta dt H`` takes this path: its couplings have
      positive products while ``|z| < 8 / h`` or so, and D is about
      ``|z| exp(-z^2/16)``.
    * Otherwise A is factored by ``dgttrf``, which overwrites the bands;
      a zero pivot, so a singular A, raises NumericalError.  If the
      couplings are exact negatives, ``lower == -upper``, and ``dgttrf``
      exchanged no rows, then ``A^T = J A J`` with J = diag((-1)^k), and
      the LU is ``A = L U`` with ``U = D_u J L^T J``: U's superdiagonal is
      ``upper = -lower = -D_u l``.  So ``A^{-1} = J L^{-T} (J D_u)^{-1}
      L^{-1}``: ``dpttrs`` with ``(J D_u, l)``, no scale and J =
      ``signs``, by which the solution is multiplied
      (:func:`_signed_solve`).  The lattice's ``I - h/2 M``, with M skew,
      takes this path at the step sizes it is run at (no row is exchanged
      at N = 400 up to dt = 0.13, or at dt = 1e-3 up to N = 9999); at
      dt = 1.0 ``dgttrf`` exchanges N - 6 rows from N = 7 on.
    * Else ``dgttrs`` with A's LU, no scale and no signs.  H itself is
      negative definite, and the half-line's couplings have products
      below zero where ``|z| > 8 / h``, so those take this path.

    An identity row and column (zero couplings, diagonal 1) keep ``e = 0``
    and a D entry equal to the one before it on the first path, and a zero
    multiplier on the others; each leaves an entry of +0.0 there at +0.0.
    """
    lapack = _lapack()
    symmetrized = _symmetrizer(lower, upper)
    if symmetrized is not None:
        scale, e = symmetrized
        d, e, info = lapack.dpttrf(diag, e, overwrite_e=True)
        if info == 0:
            return lapack.dpttrs, (d, e), scale, None
    skew = np.array_equal(lower, -upper)
    *lu, info = lapack.dgttrf(
        lower, diag, upper, overwrite_dl=True, overwrite_d=True, overwrite_du=True
    )
    if info != 0:  # a zero pivot: the matrix is singular
        raise NumericalError(f"tridiagonal factorization failed: dgttrf info={info}")
    dl, d, _, _, pivots = lu
    if skew and np.array_equal(pivots, np.arange(1, d.size + 1)):  # no row exchanged
        signs = np.where(np.arange(d.size) % 2, -1.0, 1.0)
        return lapack.dpttrs, (signs * d, dl), None, signs
    return lapack.dgttrs, tuple(lu), None, None


def _tridiagonal_solver(lower, diag, upper):
    """``solve(b, trans="N")`` for the tridiagonal matrix A with these bands.

    Each call overwrites a contiguous float array ``b`` with ``A^{-1} b``
    (``trans="T"``: ``A^{-T} b``) and returns it with LAPACK's info.  A is
    factored once by :func:`_factor`: a call is one ``dpttrs`` between two
    scalings by D (:func:`_symmetrized_solve`) on its symmetrized path, one
    ``dpttrs`` and one sign flip by J (:func:`_signed_solve`) on its sign
    path, and one ``dgttrs`` on its LU path.
    """
    routine, factors, scale, signs = _factor(lower, diag, upper)
    if scale is not None:
        return functools.partial(_symmetrized_solve, routine, *factors, scale)
    if signs is not None:
        return functools.partial(_signed_solve, routine, *factors, signs)
    return functools.partial(routine, *factors, overwrite_b=True)


def _implicit_step(lower, diag, upper, w0, m, fold):
    """The first state y, the step that ``_march`` takes and the scale D, for a theta rule.

    A is ``I - theta h G``, made tridiagonal by the caller with one row
    operation: row n-1 minus m times row n-2 (m = 0.0 for none).  Its bands
    ``lower``, ``diag`` and ``upper`` are factored once by :func:`_factor`,
    which may overwrite them.  The states are marched in y = D w, the
    coordinates of the factorization: with the symmetrized S = D A D^{-1},
    ``D A^{-1} D^{-1} = S^{-1}``, so a step solves with S alone, one bare
    ``dpttrs``, and the row operation on y is ``y[-1] -= m' y[-2]`` with
    ``m' = m D[-1] / D[-2]``, formed once.  On the sign and LU paths D is
    1, and y is w to the bit.  The caller gets w back as ``y / D``, and the
    first state from w itself.  The returned D has ``w0.size`` entries.
    On the sign path the solve is one bare ``dpttrs`` followed by the flip
    ``b *= J`` (``A^{-1} = J L^{-T} (J D_u)^{-1} L^{-1}``, see :func:`_factor`).

    Backward Euler (theta = 1) takes ``y = S^{-1} y``.  The implicit
    midpoint and Crank-Nicolson rules (theta = 1/2, ``fold``) need no
    product with G:

        (I - h/2 G)^{-1} (I + h/2 G) = 2 (I - h/2 G)^{-1} - I,

    so a step is ``2 solve(y) - y``.  Each step forms the right side b = 2 y,
    or y without the fold, takes the row operation as ``b[-1] -= m' * b[-2]``,
    overwrites b with its solve, flips its signs by J on the sign path and,
    with the fold, subtracts y.  Doubling is exact outside the subnormal
    range, so there ``solve(2 y)`` is ``2 solve(y)`` to the bit.

    The states are the first ``w0.size`` entries of two buffers of A's size,
    which alternate between steps, so a step allocates nothing; the entries
    after them start at 0.0, and ``D w0`` is written into the first buffer.

    A node whose row and column of A are the identity's (zero couplings,
    diagonal 1) is a decoupled identity mode.  ``dgttrf`` eliminates through
    it with multiplier 0 and never pivots there; ``dpttrf`` keeps its zero
    coupling, ``e = 0``.  An entry of +0.0 there stays +0.0 at every step,
    with or without the fold (on the sign path ``dpttrs`` divides it by
    ``J D_u = +-1`` there, and the flip by J restores +0.0).  It changes
    no other value: the one product with its zero coupling that a
    substitution subtracts from the neighbouring entry can flip the sign
    of a zero there and no other bit.
    Both flows have one.  The lattice appends a pad after its N modes,
    because scipy's ``dgttrf`` wrapper rejects N = 2, so every N takes this
    one path; the half-line's Dirichlet node 0, at z = -Z, has an empty row
    and column of H.
    """
    routine, factors, scale, signs = _factor(lower, diag, upper)
    if scale is None:
        scale = np.ones(diag.size)
    solve = functools.partial(routine, *factors, overwrite_b=True)
    m = m * scale[-1] / scale[-2]
    pads = (np.zeros(diag.size), np.zeros(diag.size))
    heads = tuple(pad[: w0.size] for pad in pads)
    scale = scale[: w0.size]
    np.multiply(w0, scale, out=heads[0])

    def step(y, k):
        # step k reads pads[(k - 1) % 2] and writes pads[k % 2]
        old, x = pads[(k - 1) % 2], pads[k % 2]
        if fold:
            np.add(old, old, out=x)
        else:
            np.copyto(x, old)
        x[-1] -= m * x[-2]
        solve(x)
        if signs is not None:
            np.multiply(x, signs, out=x)
        if fold:
            np.subtract(x, old, out=x)
        return heads[k % 2]

    return heads[0], step, scale


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
