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

which ``scipy.optimize.brentq`` locates at O(n_max) per evaluation.  A
dense reference route (explicit orthogonal projection onto the
constraint null space followed by a symmetric generalized eigensolve)
is kept alongside.

The truncated minimum creeps downward like ``n_max**(-1/2)`` because the
constraint vector has an ``n**(-1/4)`` tail.  ``coercivity_constant``
therefore extrapolates the secular sum with a fitted Hurwitz-zeta tail
by default, which makes the returned value independent of the
truncation to ~1e-8 already at ``n_max = 200``; no doubling of the
truncation is needed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.optimize import brentq
from scipy.special import zeta

from .hermite import power_tail_fit, projection_sequence


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
    z32 = zeta(1.5, n_max + 1)
    z52 = zeta(2.5, n_max + 1)
    z72 = zeta(3.5, n_max + 1)

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


def _phi(mu, fsq, n, tail):
    """Secular function at mu.

    ``fsq`` holds f_n^2 for n = 0..n_max and ``n`` the indices 2..n_max.
    """
    # n = 1 term is f_1^2 / (0 - 2 mu) = -2/mu
    val = -2.0 / mu + np.sum(fsq[2:] / ((n - 1.0) - (n + 1.0) * mu))
    if tail is not None:
        c_part, d_part = tail(mu)
        val += c_part  # one part at a time: the sum order is part of the result
        val += d_part
    return val


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
    n = np.arange(2, n_max + 1, dtype=float)
    tail = _tail_model(fsq) if tail_corrected else None
    # phi is strictly increasing, -inf at 0+ and +inf at (1/3)-.  A module-level
    # objective with the arrays in ``args`` keeps them out of the reference
    # cycle that brentq's wrapper forms with a closure, so they are freed on return.
    return float(brentq(_phi, 1e-12, 1.0 / 3.0 - 1e-12, args=(fsq, n, tail),
                        xtol=1e-15, rtol=8.9e-16))


def coercivity_constant_dense(n_max: int) -> float:
    """Reference value by explicit projection and a dense eigensolve.

    Builds an orthonormal basis of the null space of the constraint
    functional on modes 1..n_max, projects the two diagonal forms onto
    it, and returns the smallest generalized eigenvalue.  O(n_max^3);
    used to cross-check the secular route.
    """
    if n_max < 10:
        raise ValueError("n_max must be at least 10 to support the constraints")
    f = projection_sequence(n_max)
    g = f[1:]  # constraint on modes 1..n_max (mode 0 already eliminated)
    ns = np.arange(1, n_max + 1, dtype=float)
    basis = scipy.linalg.null_space(g[None, :])
    a_red = (basis.T * (ns - 1.0)) @ basis
    b_red = (basis.T * (ns + 1.0)) @ basis
    vals = scipy.linalg.eigh(a_red, b_red, eigvals_only=True, subset_by_index=[0, 0])
    return float(vals[0])


def random_constrained_coefficients(
    n_max: int, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Random coefficient vectors satisfying both constraints, shape (size, n_max+1).

    Gaussian draws with mode 0 zeroed and the projection-sequence
    direction removed from modes 1..n_max.
    """
    f = projection_sequence(n_max)
    c = rng.standard_normal((size, n_max + 1))
    c[:, 0] = 0.0
    g = f.copy()
    g[0] = 0.0
    c -= np.outer(c @ g, g / np.dot(g, g))
    return c
