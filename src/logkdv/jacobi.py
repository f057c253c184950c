"""Jacobi difference operator, shooting recursion, and Wronskian spectrum.

The operator acts on one-sided sequences ``(f_n)_{n>=1}`` by

    (J f)_n = w(n) f_{n+1} + w(n-1) f_{n-1},    w(n) = sqrt(n (n+1) (n+2)),

so ``w(0) = 0`` and the value of ``f_0`` never enters.  All solutions of
``J f = z f`` are square-summable (limit circle at infinity), hence a
boundary condition at infinity is needed to pin down a self-adjoint
realization; it is fixed by the explicit null solution ``v`` with
``v_1 = 1``.  Eigenvalues of that realization are the zeros in ``z`` of
the limiting discrete Wronskian of ``v`` with the shooting solution of
``J f = z f``.

Array convention: sequences are stored 1-based with a zero pad at index
0, so ``v[3]`` is literally ``v_3``.

Wronskian limit.  Summation by parts gives the exact identity

    W_n = z * sum_{k odd, k <= n} f_k v_k = z * sum_m A_m V_m,

and the summand ``A_m V_m`` decreases smoothly like ``m**(-3/2)``.  The
limit is therefore evaluated as the partial sum plus a fitted
Hurwitz-zeta tail, which converges orders of magnitude faster than the
raw trace (the trace itself approaches its limit only like

    W_n = W_inf + beta n**(-1/2) + ...

because the eigencomponent of the shooting solution decays one power of
``m`` faster than the generic one).  The raw last-10% tail mean is kept
as a diagnostic but is far too biased for root finding at moderate
truncations.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import _MAX_FLOATS, NumericalError, _lapack
from .hermite import (
    fit_loglog_slope,
    hurwitz_zeta,
    offdiag_weight,
    power_tail_fit,
    projection_sequence,
)

# Shooting length for the decay-exponent fits at each eigenvalue.
_SLOPE_M_MAX = 10_000

# Bisection halvings per W_inf evaluation: the 2**_HALVINGS - 1 midpoints
# that the next halvings of a bracket can reach are evaluated in one batch.
_HALVINGS = 4


def apply_jacobi(f) -> np.ndarray:
    """Apply J to a padded 1-based sequence; the entry past the end counts as 0.

    Returns the padded result for n = 1..len(f) - 1.  The n = 1
    back-coupling carries weight w(0) = 0, so the pad value is irrelevant.
    """
    g = np.append(np.asarray(f, dtype=float), 0.0)
    n = np.arange(1, g.size - 1, dtype=float)
    out = np.zeros(g.size - 1)
    out[1:] = offdiag_weight(n) * g[2:] + offdiag_weight(n - 1) * g[:-2]
    return out


@dataclass(frozen=True)
class NullSolution:
    """Solution of ``J v = 0`` with ``v_1 = 1``; even entries vanish."""

    values: np.ndarray  # padded, v[n] = v_n for n = 1..2*m_max+1

    @property
    def odd_part(self) -> np.ndarray:
        """Padded ``V_m = v_{2m-1}`` for m = 1..m_max+1."""
        return np.append(0.0, self.values[1::2])


def null_solution(m_max: int) -> NullSolution:
    """Generate v up to index ``2 m_max + 1``.

    Odd entries are ``v_{2m+1} = (-1)^m prod_k sqrt(2k-1)/sqrt(2k+2)``.
    Splitting each factor as ``sqrt((2k-1)/2k) sqrt(2k/(2k+2))`` gives
    ``|v_{2m+1}| = f_{2m} / (f_0 sqrt(m+1))`` with the projections ``f_n``
    of :func:`logkdv.hermite.projection_sequence`, the one running product
    of these ratios; the magnitudes decay like ``m**(-3/4)``.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    f = projection_sequence(2 * m_max)
    v = np.zeros(2 * m_max + 2)
    v[1::2] = f[0::2] / (f[0] * np.sqrt(np.arange(1.0, m_max + 2)))
    v[3::4] *= -1.0
    return NullSolution(v)


@dataclass(frozen=True)
class ShootingState:
    """Shooting solution of ``J f = z f`` split into odd/even entries.

    ``A[m] = f_{2m-1}`` and ``B[m] = f_{2m}``, both padded 1-based,
    generated from ``A_1 = 1`` by the coupled recursion

        B_m     = -sqrt(2m-2)/sqrt(2m+1) B_{m-1} + z A_m / w(2m-1),
        A_{m+1} = -sqrt(2m-1)/sqrt(2m+2) A_m     + z B_m / w(2m).
    """

    z: float
    A: np.ndarray
    B: np.ndarray

    def full_sequence(self) -> np.ndarray:
        """Interleave back into the padded sequence f_1..f_{2 m_max}."""
        m_max = self.B.size - 1
        f = np.zeros(2 * m_max + 1)
        f[1::2] = self.A[1 : m_max + 1]
        f[2::2] = self.B[1:]
        return f


def _shoot_rows(z, m_max: int):
    """Yield ``(B_m, A_{m+1})`` for m = 1..m_max of the recursion in ShootingState.

    ``z`` is a scalar or an array of parameter values; the rows have its
    shape.  The step coefficients depend on m only and are computed once,
    then read as Python floats: at a float ``z`` the whole recursion runs on
    Python floats, which step several times faster than numpy scalars and
    round the same.
    """
    tm = 2.0 * np.arange(1, m_max + 1, dtype=float)
    b_back = -np.sqrt((tm - 2.0) / (tm + 1.0))
    b_norm = offdiag_weight(tm - 1.0)
    a_back = -np.sqrt((tm - 1.0) / (tm + 2.0))
    a_norm = offdiag_weight(tm)
    A, B = 1.0, 0.0
    for bb, bn, ab, an in zip(*map(memoryview, (b_back, b_norm, a_back, a_norm))):
        B = bb * B + z / bn * A
        A = ab * A + z / an * B
        yield B, A


def shoot(z: float, m_max: int) -> ShootingState:
    """Run the coupled recursion up to ``A_{m_max+1}``; see ShootingState.

    Raises NumericalError if a value overflows: Python floats overflow to
    inf silently, whatever ``np.errstate`` says.
    """
    if m_max < 2:
        raise ValueError("m_max must be at least 2")
    if not np.isfinite(z):
        raise ValueError("z must be finite")
    A = array("d", (0.0, 1.0))
    B = array("d", (0.0,))
    for b, a_next in _shoot_rows(float(z), m_max):
        B.append(b)
        A.append(a_next)
    A, B = np.array(A), np.array(B)
    if not (np.isfinite(A[-1]) and np.isfinite(B[-1])):  # inf and nan persist once reached
        raise NumericalError(f"the shooting recursion at z = {z} overflowed")
    return ShootingState(float(z), A, B)


def _shoot_products(z_values: np.ndarray, m_max: int) -> np.ndarray:
    """Vectorized over z: products ``A_m V_m`` for m = 1..m_max, one row per z."""
    z = np.atleast_1d(np.asarray(z_values, dtype=float))
    out = np.empty((z.size, m_max))
    out[:, 0] = 1.0  # A_1
    for m, (_, a_next) in enumerate(_shoot_rows(z, m_max - 1), start=1):
        out[:, m] = a_next
    out *= null_solution(m_max).odd_part[1 : m_max + 1]
    return out


def discrete_wronskian(f, g) -> np.ndarray:
    """Padded ``W_n(f, g) = w(n) (f_n g_{n+1} - f_{n+1} g_n)``.

    Antisymmetric in (f, g); identically zero when f = g.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    top = min(f.size, g.size) - 2
    n = np.arange(1, top + 1, dtype=float)
    out = np.zeros(top + 1)
    out[1:] = offdiag_weight(n) * (f[1 : top + 1] * g[2 : top + 2] - f[2 : top + 2] * g[1 : top + 1])
    return out


def _w_inf(z, products: np.ndarray) -> np.ndarray:
    """Limit ``z * (sum_m A_m V_m + tail)`` for each row of ``products``.

    One batched :func:`power_tail_fit` fits ``A_m V_m ~ c m^{-3/2} + d m^{-5/2}``
    on every row; Hurwitz zetas sum the model past the computed range.  Each
    row is summed and fitted alone, so W_inf at a z does not depend on its batch.
    """
    m_max = products.shape[1]
    c, d = power_tail_fit(products, np.arange(1.0, m_max + 1), 1.5)
    tails = c * hurwitz_zeta(1.5, m_max + 1) + d * hurwitz_zeta(2.5, m_max + 1)
    return np.asarray(z) * (products.sum(axis=1) + tails)


@dataclass(frozen=True)
class WronskianTrace:
    """Wronskian sequence of (v, shooting solution) and limit estimates."""

    z: float
    values: np.ndarray           # padded W_n, n = 1..n_max
    w_inf: float                 # zeta-tail-corrected limit estimate
    tail_mean: float             # mean of the last 10% of W_n (diagnostic)
    plateau_spread: float        # |mean(last 10%) - mean(previous 10%)|


def wronskian_trace(z: float, n_max: int = 1000) -> WronskianTrace:
    """Wronskian of the null solution with the shooting solution at z.

    Explicitly,

        W_{2m-1} =  w(2m-1) B_m V_m,
        W_{2m}   = -w(2m)   B_m V_{m+1},

    so consecutive odd/even entries coincide and the sequence is
    sign-definite once the alternations of B and V lock.  ``w_inf`` is
    the summation-by-parts limit ``z * (sum A_m V_m + tail)``.
    """
    if n_max < 10:
        raise ValueError("n_max must be at least 10")
    m_max = n_max // 2 + 1
    state = shoot(z, m_max)
    V = null_solution(m_max + 1).odd_part
    values = np.zeros(n_max + 1)
    m = np.arange(1, (n_max + 1) // 2 + 1)  # odd n = 2m - 1
    values[1::2] = offdiag_weight(2 * m - 1) * state.B[m] * V[m]
    m = np.arange(1, n_max // 2 + 1)  # even n = 2m
    values[2::2] = -offdiag_weight(2 * m) * state.B[m] * V[m + 1]

    # the same m_max = n_max // 2 terms as the scan, so both give one W_inf
    m_sum = n_max // 2
    products = state.A[1 : m_sum + 1] * V[1 : m_sum + 1]
    w_inf = _w_inf(z, products[None, :])[0]

    k = max(1, n_max // 10)
    tail_mean = float(values[-k:].mean())
    prev_mean = float(values[-2 * k : -k].mean())
    return WronskianTrace(
        z=float(z),
        values=values,
        w_inf=float(w_inf),
        tail_mean=tail_mean,
        plateau_spread=abs(tail_mean - prev_mean),
    )


def _w_inf_scan(z_values: np.ndarray, n_max: int) -> np.ndarray:
    """Vectorized ``w_inf`` over a grid of z values."""
    return _w_inf(z_values, _shoot_products(z_values, n_max // 2))


@dataclass(frozen=True)
class SpectrumResult:
    """Positive eigenvalues of the limit-circle realization.

    ``frequencies`` are the associated imaginary-axis magnitudes
    ``z_k / 2``; the decay exponents are tail slopes of the odd/even
    shooting entries at each eigenvalue (generic -3/4 for A, faster
    -5/4 for B).
    """

    eigenvalues: np.ndarray
    frequencies: np.ndarray
    decay_exponents_a: np.ndarray
    decay_exponents_b: np.ndarray
    scan_z: np.ndarray
    scan_w: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def find_eigenvalues(
    z_min: float = 0.05,
    z_max: float = 20.0,
    scan_step: float = 0.05,
    tol: float = 1e-6,
    n_max: int = 1000,
) -> SpectrumResult:
    """Scan ``W_inf(z)`` on (z_min, z_max], bracket sign changes, bisect.

    All brackets are bisected together, four halvings per vectorized
    ``W_inf`` evaluation: it takes, for every bracket still wider than
    ``tol``, the 15 midpoints its next four halvings can reach, and the
    halvings are replayed on those values.  ``W_inf`` at a z does not depend
    on its batch, so each bracket takes the steps it would take alone.  Those
    midpoints go in batches of at most as many z as the scan (15 if the scan
    is smaller), so the bisection's peak memory stays within the scan's.  A
    bracket also ends when its midpoint rounds onto an endpoint, so a
    ``tol`` below the float spacing at a root stops at adjacent floats.

    z = 0 is excluded by construction (the scan starts at ``z_min > 0``;
    ``W_inf`` vanishes linearly at the origin without crossing, and the
    z = 0 null solution corresponds to no eigenvector of the underlying
    evolution).  Returns an empty result with a diagnostic note when no
    sign change is found.

    ``n_max`` is the only truncation: the scan and the bisection evaluate
    ``W_inf`` from the first ``n_max // 2`` shooting products.  The zeta
    tail drops terms of order ``m**(-7/2)``, so the roots' error falls like
    ``n_max**(-5/2)``, whatever ``tol`` is; higher roots need a larger ``n_max``.

    A scan of more than ``errors._MAX_FLOATS`` shooting products, its
    points times ``n_max // 2``, raises ValueError before anything is
    allocated.
    """
    if not (0.0 < z_min < z_max):
        raise ValueError("need 0 < z_min < z_max")
    if scan_step <= 0 or tol <= 0:
        raise ValueError("scan_step and tol must be positive")
    stop = z_max + 0.5 * scan_step
    points = (stop - z_min) / scan_step
    points = math.ceil(points) if math.isfinite(points) else math.inf  # np.arange's count
    n_floats = points * (n_max // 2)
    if n_floats > _MAX_FLOATS:
        raise ValueError(
            f"scan_step={scan_step!r} on ({z_min!r}, {z_max!r}] and n_max={n_max} take"
            f" {points} scan points of {n_max // 2} shooting products: {n_floats} floats,"
            f" above the cap of {_MAX_FLOATS}"
        )
    zs = np.arange(z_min, stop, scan_step)
    ws = _w_inf_scan(zs, n_max)

    left = np.flatnonzero((ws[:-1] == 0.0) | (ws[:-1] * ws[1:] < 0.0))
    diagnostics = {"n_max": n_max, "scan_points": int(zs.size)}
    if left.size == 0:
        diagnostics["note"] = "no sign change of W_inf in the scanned range"
    a, b, fa = zs[left], zs[left + 1], ws[left]
    active = np.flatnonzero(b - a > tol)
    span = 2**_HALVINGS
    while active.size:
        # the tree of every midpoint the next halvings can reach, each the
        # rounded midpoint of its parent bracket, in one W_inf evaluation
        z = np.empty((active.size, span + 1))
        z[:, 0], z[:, -1] = a[active], b[active]
        for level in range(_HALVINGS):
            h = span >> level
            z[:, h // 2 :: h] = 0.5 * (z[:, :-1:h] + z[:, h::h])
        # in batches no larger than the scan's (or one tree), so the
        # bisection never holds more shooting products than the scan did
        mids, rows = z[:, 1:-1].ravel(), max(zs.size, span - 1)
        w = np.empty_like(z)
        w[:, 1:-1] = np.concatenate(
            [_w_inf_scan(mids[i : i + rows], n_max) for i in range(0, mids.size, rows)]
        ).reshape(active.size, span - 1)
        # replay the halvings; a bracket's lower end is node lo of its tree row
        row = np.arange(active.size)
        lo = np.zeros(active.size, dtype=int)
        for level in range(1, _HALVINGS + 1):
            node = lo + (span >> level)
            mid, fm = z[row, node], w[row, node]
            narrows = (mid != a[active]) & (mid != b[active])
            to_b = fa[active] * fm < 0.0
            b[active[to_b]] = mid[to_b]
            a[active[~to_b]] = mid[~to_b]
            fa[active[~to_b]] = fm[~to_b]
            lo[~to_b] = node[~to_b]
            hit = fm == 0.0  # an exact zero closes its bracket: a = b = mid
            b[active[hit]] = mid[hit]
            keep = narrows & (b[active] - a[active] > tol)
            active, row, lo = active[keep], row[keep], lo[keep]
    roots = 0.5 * (a + b)
    roots = roots[roots > z_min]  # z = 0 stays excluded

    states = [shoot(float(r), _SLOPE_M_MAX) for r in roots]
    return SpectrumResult(
        eigenvalues=roots,
        frequencies=roots / 2.0,
        decay_exponents_a=np.array([fit_loglog_slope(st.A[1:-1]) for st in states]),
        decay_exponents_b=np.array([fit_loglog_slope(st.B[1:]) for st in states]),
        scan_z=zs,
        scan_w=ws,
        diagnostics=diagnostics,
    )


def truncated_matrix_eigenvalues(n_max: int, z_max: float = 20.0) -> np.ndarray:
    """Positive eigenvalues below ``z_max`` of the Dirichlet truncation of J.

    The truncation imposes ``f_{n_max+1} = 0``.  For odd ``n_max`` also
    ``v_{n_max+1} = 0``, so this is exactly ``W_{n_max}(v, f) = 0``, the
    condition :func:`find_eigenvalues` realizes in the limit: the eigenvalues
    converge to its roots like ``n_max**(-1/2)``.  Even ``n_max`` approaches a
    different self-adjoint extension, whose eigenvalues interlace the roots.

    The bisection tolerance is the smallest normal double, so each eigenvalue
    is bisected to its own relative accuracy instead of an absolute one set by
    the matrix norm, which grows like ``n_max**(3/2)``.

    One call of LAPACK's ``dstebz`` over the range (1e-9, z_max], the call that
    ``scipy.linalg.eigh_tridiagonal`` makes for these arguments, so the values
    have its bits.  ``n_max = 1`` returns none, as scipy does (the 1x1 matrix is
    0).  ``n_max < 1``, or a ``z_max`` that is NaN or at most 1e-9, raises
    ValueError before any LAPACK call.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if not z_max > 1e-9:
        raise ValueError("z_max must be above 1e-9")
    if n_max == 1:
        return np.array([])
    off = offdiag_weight(np.arange(1, n_max, dtype=float))
    # range 1: by value; il = iu = 1 are unused, as scipy passes them; "E": ascending
    m, w, _, _, info = _lapack().dstebz(
        np.zeros(n_max), off, 1, 1e-9, z_max, 1, 1, np.finfo(float).tiny, "E"
    )
    if info != 0:
        raise NumericalError(f"eigenvalue bisection failed: dstebz info={info}")
    return w[:m]
