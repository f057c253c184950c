"""Scaled Hermite eigenfunctions and the closed-form sequences built on them.

The functions ``u_n`` defined here form an orthonormal basis of
``L^2(R)`` and diagonalize the Schrodinger operator with harmonic
potential

    L = -d^2/dx^2 + (x^2 - 6)/4,        L u_n = (n - 1) u_n.

They are Hermite functions rescaled by ``x = sqrt(2) z``:

    u_n(x) = H_n(x / sqrt(2)) exp(-x^2/4) / sqrt(2^n n! sqrt(2 pi)).

Evaluation is always done through the normalized three-term recurrence

    u_0(x) = (2 pi)^(-1/4) exp(-x^2/4),
    u_1(x) = x u_0(x),
    u_{n+1}(x) = x u_n(x) / sqrt(n + 1) - sqrt(n / (n + 1)) u_{n-1}(x),

never by forming ``H_n`` and ``n!`` separately, which overflow near
n ~ 150.  The recurrence carries a per-point base-2 exponent so that the
Gaussian prefactor cannot underflow at large ``|x|`` before the
polynomial growth catches up; rescalings are exact binary shifts, so the
results bit-match the plain recurrence wherever the plain recurrence
stays inside double range.  A row leaves the recurrence as its mantissa
times the power of two ``2**expo``, which is cached per point at each
renormalization, not rebuilt per row; points whose exponent lies below
-1074, where that power flushes to zero, are scaled with ``np.ldexp``.

The module also provides the two closed-form scalar sequences that the
rest of the package consumes: products of ``sqrt(2k - a)/sqrt(2k + b)``
and the projections ``f_n = <antideriv(u_0), u_n>``, and the tail fits
used to extrapolate sums and slopes of such sequences.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

#: Largest basis index accepted.
MAX_INDEX = 10_000

# Renormalize the carried exponents every this many recurrence steps.
# Between renormalizations the values can grow or shrink by at most
# ~(|x| + 1)**64, which stays far inside double range for |x| <~ 1e3.
_RENORM_EVERY = 64

_LOG2E = 1.0 / np.log(2.0)

# Smallest binary exponent of a nonzero double: 2**-1074 is the least subnormal.
_MIN_EXPONENT = -1074


@dataclass(frozen=True)
class RealGrid:
    """Sampling grid on the real line with quadrature weights.

    Parameters
    ----------
    nodes : ndarray
        Strictly increasing abscissas.

    The ``weights`` are the trapezoidal ones, derived from the nodes.  For
    integrands with Gaussian decay (everything in this package) the
    trapezoidal rule on a uniform grid converges faster than any power
    of the spacing, so it doubles as the high-order rule.
    """

    nodes: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        d = np.diff(nodes)
        if not np.all(d > 0):
            raise ValueError("grid nodes must be strictly increasing")
        weights = np.empty_like(nodes)
        weights[0] = 0.5 * d[0]
        weights[-1] = 0.5 * d[-1]
        weights[1:-1] = 0.5 * (d[:-1] + d[1:])
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, x_max: float = 16.0, num: int = 3201) -> "RealGrid":
        """Uniform grid on [-x_max, x_max] with trapezoidal weights.

        The default extent satisfies exp(-x_max^2/4) < 1e-16 relative to
        order-one values, so Gaussian-weighted integrands are fully
        contained.
        """
        return RealGrid(np.linspace(-x_max, x_max, num))

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, values))

    def inner(self, f, g) -> float:
        return float(np.dot(self.weights, np.asarray(f) * np.asarray(g)))

    def norm(self, f) -> float:
        return float(np.sqrt(self.inner(f, f)))


def _check_index(n: int) -> int:
    n = int(n)
    if n < 0:
        raise ValueError(f"basis index must be non-negative, got {n}")
    if n > MAX_INDEX:
        raise ValueError(f"basis index {n} above the maximum {MAX_INDEX}")
    return n


def _ground_state(x):
    """The ground state ``u_0(x) = (2 pi)^(-1/4) exp(-x^2/4)``."""
    return (2.0 * np.pi) ** -0.25 * np.exp(-0.25 * x * x)


def _start_scaled(x: np.ndarray):
    """u_0 split as mantissa * 2**exponent, robust to Gaussian underflow."""
    mant = _ground_state(x)
    expo = np.zeros(x.shape, dtype=np.int64)
    tiny = 0.25 * x * x > 600.0  # exp(-600) ~ 1e-261, still normal; split beyond
    if np.any(tiny):
        g = 0.25 * x[tiny] * x[tiny] * _LOG2E
        e = np.floor(g)
        mant[tiny] = (2.0 * np.pi) ** -0.25 * np.exp2(-(g - e))
        expo[tiny] = -e.astype(np.int64)
    return mant, expo


def _row_scale(expo):
    """Per-point ``2**expo``, and the indices of the points where it flushes to 0."""
    return np.ldexp(1.0, expo), np.nonzero(expo < _MIN_EXPONENT)


def basis_rows(x, n_max: int):
    """Yield ``(n, u_n(x))`` for n = 0..n_max over an array of points.

    Single pass of the normalized recurrence, stepped in place in reused
    buffers with the step coefficients precomputed; each yielded row is a
    fresh array of the actual function values.  A row is the carried
    mantissa times the power of two ``2**expo``, cached per point at each
    renormalization: a product with an exact power of two rounds once, so
    it has the bits of ``np.ldexp``.  Below ``2**-1074`` that power flushes
    to zero, so points whose exponent lies there (at the start, |x| above
    about 54.6) keep ``np.ldexp``.
    """
    _check_index(n_max)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k = np.arange(n_max + 1, dtype=float)
    root = np.sqrt(k + 1.0)
    ratio = np.sqrt(k / (k + 1.0))
    u_prev = np.zeros_like(x)
    u_cur, expo = _start_scaled(x)
    step = np.empty_like(x)
    e = np.empty(x.shape, dtype=np.intc)
    scale, flushed = _row_scale(expo)
    for n in range(n_max + 1):
        row = u_cur * scale
        if flushed[0].size:
            row[flushed] = np.ldexp(u_cur[flushed], expo[flushed])
        yield n, row
        # u_{n+1} = x u_n / sqrt(n + 1) - sqrt(n / (n + 1)) u_{n-1}, into u_prev's buffer
        np.multiply(x, u_cur, out=step)
        step /= root[n]
        u_prev *= ratio[n]
        np.subtract(step, u_prev, out=u_prev)
        u_prev, u_cur = u_cur, u_prev
        if (n + 1) % _RENORM_EVERY == 0:
            np.frexp(u_cur, out=(u_cur, e))
            expo += e
            np.ldexp(u_prev, -e, out=u_prev)
            scale, flushed = _row_scale(expo)


def hermite_function(n: int, x):
    """Evaluate the n-th basis function u_n at x.

    Parameters
    ----------
    n : int
        Basis index, ``0 <= n <= MAX_INDEX``.
    x : float or ndarray
        Evaluation points.

    Returns
    -------
    float or ndarray
        ``u_n(x)``.  Uniformly bounded: ``|u_n(x)| <= 1`` everywhere.
    """
    n = _check_index(n)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    vals = deque((row for _, row in basis_rows(x, n)), maxlen=1)[0]
    return float(vals[0]) if scalar else vals


def hermite_derivative(n: int, x):
    """Evaluate u_n'(x) as ``sqrt(n) u_{n-1}(x) - (x/2) u_n(x)``.

    That is the ladder relation ``2 u_n' = sqrt(n) u_{n-1} - sqrt(n+1) u_{n+1}``
    with the recurrence substituted for u_{n+1}; at n = 0 the first term vanishes.
    """
    n = _check_index(n)
    scalar = np.isscalar(x) or np.ndim(x) == 0
    rows = deque((row for _, row in basis_rows(x, n)), maxlen=2)
    vals = np.sqrt(n) * rows[0] - 0.5 * np.asarray(x, dtype=float) * rows[-1]
    return float(vals[0]) if scalar else vals


def product_sequence(a: float, b: float, m_max: int) -> np.ndarray:
    """Partial products ``f_m = prod_{k=1}^m sqrt(2k - a)/sqrt(2k + b)``.

    Returns an array of length ``m_max + 1`` with ``f_0 = 1`` (empty
    product) and ``f_m`` at index m.  Accumulated in log space, i.e. as
    ``exp(cumsum(0.5 * (log(2k - a) - log(2k + b))))``, so arbitrarily
    long products neither underflow nor lose the tail exponent.  The
    sequence decays like ``m**(-(a+b)/4)``.

    Raises
    ------
    ValueError
        If ``a >= 2`` (the k = 1 factor would be non-positive), b < 0,
        or ``m_max < 1``.
    """
    if not a < 2.0:
        raise ValueError(f"need a < 2 so every factor stays positive, got a={a}")
    if a < 0 or b < 0:
        raise ValueError("a and b must be non-negative")
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    k = np.arange(1, m_max + 1, dtype=float)
    logs = 0.5 * (np.log(2.0 * k - a) - np.log(2.0 * k + b))
    out = np.empty(m_max + 1)
    out[0] = 1.0
    np.exp(np.cumsum(logs), out=out[1:])
    return out


def projection_sequence(n_max: int) -> np.ndarray:
    """Projections ``f_n`` of the antiderivative of u_0 onto the basis.

    With ``F(x) = int_{-inf}^x u_0``, the values ``f_n = <F, u_n>``
    start from

        f_0 = sqrt(2 pi),   f_1 = 2,

    and obey ``f_{n+1} = sqrt(n/(n+1)) f_{n-1}``.  The recurrence is run
    as two running products, one per parity, each accumulated left to
    right exactly as the step-by-step loop would.  All entries are
    strictly positive and decay like ``n**(-1/4)``.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    f = np.empty(n_max + 1)
    f[0] = np.sqrt(2.0 * np.pi)
    f[1] = 2.0
    # f[n+1] first holds the ratio sqrt(n/(n+1)), built in place to keep
    # the peak memory at one extra array
    ratios = f[2:]
    ratios[:] = np.arange(1.0, n_max)
    ratios /= ratios + 1.0
    np.sqrt(ratios, out=ratios)
    np.cumprod(f[0::2], out=f[0::2])
    np.cumprod(f[1::2], out=f[1::2])
    return f


def ground_state_antiderivative(grid: RealGrid) -> np.ndarray:
    """Antiderivative of u_0 vanishing at -infinity, on the grid nodes.

    Composite-Simpson cumulative quadrature (u_0 is evaluated at the
    interval midpoints as well), fourth-order accurate, so quadrature
    checks against :func:`projection_sequence` can be pushed well below
    1e-8.
    """
    x = grid.nodes
    h = np.diff(x)
    mid = 0.5 * (x[:-1] + x[1:])
    incr = h / 6.0 * (_ground_state(x[:-1]) + 4.0 * _ground_state(mid) + _ground_state(x[1:]))
    out = np.empty_like(x)
    out[0] = 0.0
    np.cumsum(incr, out=out[1:])
    return out


def _line_fit(x, y):
    """Least-squares ``y ~ intercept + slope x`` per row of ``y``: (intercept, slope).

    Rows lie along the last axis.  The closed form in centred sums reduces each
    row alone, never by a matrix product, so a row's line keeps its bits in any batch.
    """
    dx = x - x.mean()
    y_mean = y.mean(axis=-1)
    slope = np.sum(dx * (y - y_mean[..., None]), axis=-1) / np.sum(dx * dx)
    return y_mean - slope * x.mean(), slope


def _loglog_line(values, positions, min_points: int):
    """:func:`_line_fit` through (log position, log|value|), zeros skipped.

    Returns ``(intercept, slope)``, or None when fewer than ``min_points``
    values are nonzero.
    """
    v = np.abs(values)
    keep = v > 0
    if np.count_nonzero(keep) < min_points:
        return None
    return _line_fit(np.log(positions[keep]), np.log(v[keep]))


def fit_loglog_slope(values, positions=None, tail_fraction: float = 0.5) -> float:
    """Least-squares slope of log|values| against log(position) on the tail.

    Zero entries are skipped.  ``positions`` defaults to 1-based ranks.
    """
    v = np.asarray(values, dtype=float)
    positions = np.arange(1.0, v.size + 1) if positions is None else np.asarray(positions, float)
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    start = int((1.0 - tail_fraction) * v.size)
    line = _loglog_line(v[start:], positions[start:], 10)
    if line is None:
        raise ValueError("fewer than 10 usable tail points for a slope fit")
    return float(line[1])


def power_tail_fit(values, positions, power: float):
    """Fit ``values ~ c p^{-power} + d p^{-power-1}`` on the tail; returns (c, d).

    ``positions`` are the consecutive integers p that index the last axis of
    ``values``, ending at the truncation.  The fit is a line in 1/p through
    ``values * p^power`` from index ``int(0.75 * positions[-1])`` on.  Each
    row of a 2-D batch is fitted alone, every sum along the row, so its (c, d)
    have its 1-D fit's bits.  Callers sum the model past the truncation with
    Hurwitz zetas.
    """
    positions = np.asarray(positions, dtype=float)
    k0 = int(0.75 * positions[-1])
    p = positions[k0:]
    return _line_fit(1.0 / p, np.asarray(values, dtype=float)[..., k0:] * p ** power)
