"""Quadratic forms in coefficient space and the coercivity constant.

A function expanded over the basis of :mod:`logkdv.hermite` is handled
through its coefficient vector ``c = (c_0, ..., c_N)``.  The energy form
and the compatible squared norm are diagonal,

    E(c)  = sum (n - 1) c_n^2,
    N(c)  = sum (n + 1) c_n^2 = E(c) + 2 sum c_n^2,

and the coercivity constant is the smallest value of ``E/N`` over
vectors satisfying the two orthogonality constraints

    c_0 = 0        and        sum_n f_n c_n = 0,

with ``f_n`` from :func:`logkdv.hermite.projection_sequence`.  After the
substitution ``d_n = sqrt(n + 1) c_n`` this is the minimum of a diagonal
quadratic form under a single linear constraint, so the minimum is the
unique root in ``(0, 1/3)`` of the secular function

    phi(mu) = sum_{n>=1} f_n^2 / ((n - 1) - (n + 1) mu),

which the Brent root finder ``_brentq`` locates at O(n_max) per
evaluation.  A dense reference route (explicit orthogonal projection
onto the constraint null space followed by a symmetric generalized
eigensolve) is kept alongside.

The truncated minimum creeps downward like ``n_max**(-1/2)`` because the
constraint vector has an ``n**(-1/4)`` tail.  ``coercivity_constant``
therefore extrapolates the secular sum with a fitted Hurwitz-zeta tail
by default, which makes the returned value independent of the
truncation to ~1e-8 already at ``n_max = 200``; no doubling of the
truncation is needed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _MAX_FLOATS, NumericalError
from .hermite import hurwitz_zeta, power_tail_fit, projection_sequence

# The most floats of one block of the projection that
# ``random_constrained_coefficients`` subtracts: 2^16 floats are 512 KiB.
_BLOCK_FLOATS = 2**16


def energy_form(c) -> float:
    """Value of the energy form ``sum (n - 1) c_n^2``."""
    c = np.asarray(c, dtype=float)
    n = np.arange(c.size, dtype=float)
    return float(np.dot((n - 1.0), c * c))


def compat_norm_form(c) -> float:
    """Value of the compatible squared norm ``sum (n + 1) c_n^2``."""
    c = np.asarray(c, dtype=float)
    n = np.arange(c.size, dtype=float)
    return float(np.dot((n + 1.0), c * c))


def c0_constant(n_max: int) -> float:
    """Partial sum ``C0(n_max) = sum_{n=2}^{n_max} f_n^2 / (n - 1)``.

    The partial sums increase monotonically; the terms behave like
    ``2 sqrt(2 pi) n^{-3/2}``, so the series converges (the limit is
    ``4 + 2 pi``, see :func:`c0_tail_estimate`).
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    f = projection_sequence(n_max)
    n = np.arange(2, n_max + 1, dtype=float)
    return float(np.sum(f[2:] ** 2 / (n - 1.0)))


def _tail_model(fsq: np.ndarray):
    """Remainder of the secular sum beyond ``n_max`` as a function of mu.

    Fits ``f_n^2 ~ c n^{-1/2} + d n^{-3/2}`` over the tail of ``fsq``,
    the squares ``f_n^2`` for n = 0..n_max.  The tail terms
    ``(c k^{-1/2} + d k^{-3/2}) / ((1-mu) k - (1+mu))`` are expanded in
    powers of 1/k and summed with Hurwitz zetas from ``n_max + 1``; the
    returned function gives the c and d parts of that sum separately.
    """
    n_max = fsq.size - 1
    c, d = power_tail_fit(fsq, np.arange(0.0, n_max + 1), 0.5)
    z32 = hurwitz_zeta(1.5, n_max + 1)
    z52 = hurwitz_zeta(2.5, n_max + 1)
    z72 = hurwitz_zeta(3.5, n_max + 1)

    def parts(mu):
        r = (1.0 + mu) / (1.0 - mu)
        return (c / (1.0 - mu) * (z32 + r * z52 + r * r * z72),
                d / (1.0 - mu) * (z52 + r * z72))

    return parts


def c0_tail_estimate(n_max: int) -> float:
    """Estimated remainder of the C0 series beyond ``n_max``.

    The tail coefficient of ``f_n^2`` is fitted from the computed
    sequence and summed exactly with Hurwitz zeta functions; the C0
    terms ``f_n^2 / (n - 1)`` are the secular terms at mu = 0.  Note the
    remainder is ~3e-2 at ``n_max = 1e5``; reaching 1e-3 by brute
    partial summation would require ``n_max ~ 1e8``, which is why
    tail-corrected values are reported instead.
    """
    c_part, d_part = _tail_model(projection_sequence(n_max) ** 2)(0.0)
    return float(c_part + d_part)


def _phi(mu, fsq, n_minus, n_plus, buf, tail):
    """Secular function at mu.

    ``fsq``, ``n_minus`` and ``n_plus`` hold f_n^2, n - 1 and n + 1 for
    n = 2..n_max.  Their terms ``f_n^2 / ((n - 1) - (n + 1) mu)`` are formed
    in ``buf``, which every evaluation reuses, in the order of that expression.
    """
    np.multiply(n_plus, mu, out=buf)
    np.subtract(n_minus, buf, out=buf)
    np.divide(fsq, buf, out=buf)
    # n = 1 term is f_1^2 / (0 - 2 mu) = -2/mu
    val = -2.0 / mu + np.sum(buf)
    if tail is not None:
        c_part, d_part = tail(mu)
        val += c_part  # one part at a time: the sum order is part of the result
        val += d_part
    return val


def _brentq(f, xa, xb, args, xtol, rtol, maxiter=100):
    """Root of ``f(x, *args)`` in the bracket [xa, xb] by Brent's method.

    An operation-for-operation copy of scipy's ``brentq.c``, the routine
    behind ``scipy.optimize.brentq``: the same IEEE double operations in the
    same order, so the same root after the same number of calls to f, and
    no import of scipy's optimize package.  A bracket whose ends have the
    same sign raises ValueError, as scipy's does; a NaN from f, or no root
    within tolerance after ``maxiter`` steps, raises NumericalError.
    """
    def value(x):
        fx = float(f(x, *args))
        if math.isnan(fx):
            raise NumericalError(f"root finder: the function is NaN at x={x!r}")
        return fx

    xpre, xcur = xa, xb
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):  # signbit
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        # both nonzero and not NaN here, so ``< 0`` is signbit
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or NaN, which fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NumericalError(f"root finder: no convergence after {maxiter} steps, x={xcur!r}")


def coercivity_constant(n_max: int, tail_corrected: bool = True) -> float:
    """Smallest value of ``energy_form / compat_norm_form`` under both constraints.

    The minimum is the secular root, strictly inside (0, 1/3).  With only
    the first constraint it would be exactly 0, attained at the unit
    vector in mode 1.

    Parameters
    ----------
    n_max : int
        Truncation: coefficient vectors of length ``n_max + 1``.
    tail_corrected : bool
        When True (default) the secular sum is extrapolated beyond the
        truncation, giving a value stable under changes of ``n_max``.
        When False the plain truncated minimum is returned; it matches
        :func:`coercivity_constant_dense` to machine precision and
        creeps like ``n_max**(-1/2)``.
    """
    if n_max < 10:
        raise ValueError("n_max must be at least 10 to support the constraints")
    fsq = projection_sequence(n_max) ** 2
    tail = _tail_model(fsq) if tail_corrected else None
    # phi is strictly increasing, -inf at 0+ and +inf at (1/3)-.  n - 1 and n + 1
    # (n = 2..n_max) are formed once, after the tail fit, and no array of n is
    # kept, so the search holds three arrays of that size besides fsq, the one
    # buffer that every evaluation reuses included.  They are freed on return.
    n_minus = np.arange(1.0, n_max)
    args = (fsq[2:], n_minus, n_minus + 2.0, np.empty_like(n_minus), tail)
    return _brentq(_phi, 1e-12, 1.0 / 3.0 - 1e-12, args, xtol=1e-15, rtol=8.9e-16)


def coercivity_constant_dense(n_max: int) -> float:
    """Reference value by explicit projection and a dense eigensolve.

    With ``y_n = sqrt(n + 1) c_n`` on modes 1..n_max (mode 0 is already
    eliminated) the compatible norm is ``|y|^2``, the energy form is
    ``y^T D y`` with ``D = diag((n - 1)/(n + 1))`` and the constraint is
    ``h . y = 0`` with ``h_n = f_n / sqrt(n + 1)``.  The Householder reflector
    ``P = I - 2 u u^T`` that maps h onto the first axis has its other columns
    as an orthonormal basis of h's complement, so the smallest eigenvalue of
    ``P D P`` without its first row and column is returned.  O(n_max^3), on
    numpy's LAPACK; used to cross-check the secular route, with which it
    shares only ``f``.
    """
    if n_max < 10:
        raise ValueError("n_max must be at least 10 to support the constraints")
    ns = np.arange(1, n_max + 1, dtype=float)
    h = projection_sequence(n_max)[1:] / np.sqrt(ns + 1.0)
    d = (ns - 1.0) / (ns + 1.0)
    u = h.copy()
    u[0] += np.linalg.norm(h)  # h_1 = f_1 / sqrt(2) > 0, so nothing cancels
    u /= np.linalg.norm(u)
    du = d * u
    a = 2.0 * (du - np.dot(u, du) * u)
    pdp = np.diag(d) - np.outer(u, a) - np.outer(a, u)  # P D P, a rank-2 change of D
    return float(np.linalg.eigvalsh(pdp[1:, 1:])[0])


def random_constrained_coefficients(
    n_max: int, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Random coefficient vectors satisfying both constraints, shape (size, n_max+1).

    Gaussian draws with mode 0 zeroed and the projection-sequence
    direction removed from modes 1..n_max.  More than
    ``errors._MAX_FLOATS`` coefficients in all raise ValueError before
    anything is drawn.  The projection ``outer(c g, g / g.g)`` is
    subtracted in blocks of rows of at most ``_BLOCK_FLOATS`` floats (one
    row at least), so no second array of the samples' size is built; each
    entry is the same product and difference as with the whole outer
    product, to the bit.
    """
    n_floats = size * (n_max + 1)
    if n_floats > _MAX_FLOATS:
        raise ValueError(
            f"{size} samples of n_max + 1 = {n_max + 1} coefficients are {n_floats} floats,"
            f" above the cap of {_MAX_FLOATS}"
        )
    f = projection_sequence(n_max)
    c = rng.standard_normal((size, n_max + 1))
    c[:, 0] = 0.0
    g = f.copy()
    g[0] = 0.0
    cg, u = c @ g, g / np.dot(g, g)
    rows = max(1, _BLOCK_FLOATS // u.size)
    for start in range(0, size, rows):
        c[start : start + rows] -= np.outer(cg[start : start + rows], u)
    return c
