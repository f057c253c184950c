"""Physical-space profiles from coefficient and half-line representations.

Three synthesis maps, all linear:

* :func:`synthesize` sums a coefficient vector against the basis rows;
* :func:`eigenvector_assemble` builds the odd/even components of an
  eigenprofile from a shooting solution, running the basis recurrence
  once per distinct |x| and mirroring each parity to the negative nodes;
* :func:`convolution_synthesize` evaluates the Gaussian convolution
  representation ``u = a u_0 + b u_1 + int u_0(x - z) w(z) dz``.

The eigenprofile series converge slowly (even coefficients ~ m^(-5/4); odd
ones ~ m^(-7/4) at an eigenvalue, ~ m^(-5/4) at any other z), so tail
estimates with a fitted exponent are reported alongside the values.  The assembled profiles satisfy the
coupled first-order system

    z (y_odd + c1 u_1) = 2 d/dx L y_even,
    -z y_even          = 2 d/dx L y_odd,

where the translational source ``c1 u_1`` in the first equation comes
from projecting the eigenvalue problem onto the mode-1 direction
(``z c1 = sqrt(2) A_1``).  :func:`eigenpair_residual` checks both
equations against a finite-difference application of d/dx L.  In the
raw interior L2 norm the first equation retains an O(1) residual carried
by the highest retained mode: the even series does not lie in the
operator domain in the strong sense (its image diverges in L2), which is
exactly why the profiles decay algebraically rather than like a
Gaussian.  Band-limiting the residual (projection onto a fixed range of
low modes) removes that edge artifact and both equations then hold to
finite-difference accuracy: the system is satisfied weakly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .halfline import HalfLineState
from .hermite import RealGrid, _ground_state, _loglog_line, basis_rows, hermite_function
from .jacobi import ShootingState
from .lattice import lattice_to_coefficients


def synthesize(c, grid: RealGrid) -> np.ndarray:
    """Sample ``sum_n c_n u_n`` on the grid by recurrence accumulation."""
    c = np.asarray(c, dtype=float)
    out = np.zeros_like(grid.nodes)
    for n, row in basis_rows(grid.nodes, c.size - 1):
        if c[n] != 0.0:
            out += c[n] * row
    return out


def _tail_estimate(coeffs: np.ndarray) -> float:
    """Crude bound on the dropped series tail: fitted power-law remainder."""
    m = np.arange(1, coeffs.size + 1, dtype=float)
    k0 = max(1, coeffs.size // 2)
    line = _loglog_line(coeffs[k0:], m[k0:], 4)
    if line is None:
        return 0.0
    logc, p = line
    if p >= -1.0:
        return float("inf")
    return float(np.exp(logc) * coeffs.size ** (p + 1.0) / (-p - 1.0))


@dataclass(frozen=True)
class EigenvectorProfiles:
    """Odd/even eigenprofile samples with the decoupled c1 projection."""

    y_odd: np.ndarray
    y_even: np.ndarray
    c1: float
    tail_odd: float    # estimated magnitude of the dropped y_odd series tail
    tail_even: float


def eigenvector_assemble(
    z: float, shooting: ShootingState, grid: RealGrid
) -> EigenvectorProfiles:
    """Assemble the eigenprofile components from a shooting solution.

        y_odd  = sum_m (-1)^m     B_m / sqrt(2m)   u_{2m+1},
        y_even = sum_m (-1)^(m-1) A_m / sqrt(2m-1) u_{2m},

    and ``c1 = sqrt(2) A_1 / z``: the lattice map of the Jacobi sequence
    f_n in the gauge a_n = (-1)^(n//2) f_n.  z = 0 is rejected: its only
    candidate profile is the zero solution (the null sequence has no even part).

    The recurrence runs once per distinct |x|: u_n(-x) = (-1)^n u_n(x)
    holds bit for bit, so each sum at a negative node is the negation of
    its sum at |x|.  On a mirrored grid (``RealGrid.uniform``) that halves
    the point-modes; on any grid the bytes are those of summing every
    node's own rows.
    """
    if z == 0.0:
        raise ValueError("z = 0 corresponds to the zero profile and is excluded")
    m_max = shooting.B.size - 1
    gauge = (-1.0) ** (np.arange(1, 2 * m_max + 1) // 2)
    c = lattice_to_coefficients(gauge * shooting.full_sequence()[1:])  # c[n] multiplies u_n

    x = grid.nodes
    half, inv = np.unique(np.abs(x), return_inverse=True)
    acc = np.zeros((2, half.size))  # (y_even, y_odd) at |x|
    for n, row in basis_rows(half, 2 * m_max + 1):
        acc[n % 2] += c[n] * row
    odd = acc[1][inv]
    # 0.0 - s, not -s: a sum that starts from +0.0 is never -0.0, so a zero
    # sum at a negative node (and at -0.0, which x < 0 leaves alone) is +0.0
    y_odd = np.where(x < 0, 0.0 - odd, odd)
    c1 = float(np.sqrt(2.0) * shooting.A[1] / z)
    return EigenvectorProfiles(
        y_odd=y_odd,
        y_even=acc[0][inv],
        c1=c1,
        tail_odd=_tail_estimate(c[3::2]),
        tail_even=_tail_estimate(c[2::2]),
    )


def _apply_dx_l(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fourth-order finite-difference application of d/dx L on a uniform grid."""
    h = x[1] - x[0]
    f = values
    fpp = np.zeros_like(f)
    fpp[2:-2] = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) / (
        12.0 * h * h
    )
    lf = -fpp + 0.25 * (x * x - 6.0) * f
    out = np.zeros_like(f)
    out[2:-2] = (lf[:-4] - 8 * lf[1:-3] + 8 * lf[3:-1] - lf[4:]) / (12.0 * h)
    # the outermost entries never carry valid stencils; callers window them away
    out[:4] = 0.0
    out[-4:] = 0.0
    return out


@dataclass(frozen=True)
class ResidualReport:
    """Finite-difference residuals of the coupled eigenprofile system."""

    raw_odd_equation: float        # z (y_odd + c1 u1) - 2 dxL y_even, interior L2, relative
    raw_even_equation: float       # -z y_even - 2 dxL y_odd
    projected_odd_equation: float  # same residuals band-limited to low modes
    projected_even_equation: float


def eigenpair_residual(
    z: float,
    profiles: EigenvectorProfiles,
    grid: RealGrid,
) -> ResidualReport:
    """Check the coupled system with finite differences as the operator oracle.

    Raw residuals are relative interior L2 norms over ``|x| <= 8``; the
    projected ones are the norms of the residual's components along the
    first 31 basis functions u_0..u_30 (computed over the whole grid),
    relative to the same reference.  See the module docstring for
    why the raw odd-equation residual does not vanish under truncation
    refinement while the projected ones do.
    """
    x = grid.nodes
    u1 = hermite_function(1, x)
    lhs_odd = z * (profiles.y_odd + profiles.c1 * u1)
    r_odd = lhs_odd - 2.0 * _apply_dx_l(profiles.y_even, x)
    lhs_even = -z * profiles.y_even
    r_even = lhs_even - 2.0 * _apply_dx_l(profiles.y_odd, x)

    mask = np.abs(x) <= 8.0

    def wnorm(v, m=mask):
        return float(np.sqrt(np.sum((grid.weights * v * v)[m])))

    raw_odd = wnorm(r_odd) / wnorm(lhs_odd)
    raw_even = wnorm(r_even) / wnorm(lhs_even)

    proj_odd_sq = proj_even_sq = 0.0
    for n, row in basis_rows(x, 30):
        proj_odd_sq += float(np.dot(grid.weights * row, r_odd)) ** 2
        proj_even_sq += float(np.dot(grid.weights * row, r_even)) ** 2
    full = np.ones_like(mask)
    proj_odd = np.sqrt(proj_odd_sq) / wnorm(lhs_odd, full)
    proj_even = np.sqrt(proj_even_sq) / wnorm(lhs_even, full)
    return ResidualReport(raw_odd, raw_even, proj_odd, proj_even)


def convolution_synthesize(
    state: HalfLineState, a: float, b: float, grid: RealGrid
) -> np.ndarray:
    """Evaluate ``u = a u_0 + b u_1 + int u_0(x - z) w(z) dz`` on the grid.

    The z integral is the half-line grid's trapezoidal rule; x points
    are processed 256 at a time to bound the size of the difference matrix.
    """
    chunk = 256
    x = grid.nodes
    z = state.grid.nodes
    wz = state.grid.weights * state.w
    conv = np.empty_like(x)
    for start in range(0, x.size, chunk):
        xs = x[start : start + chunk, None]
        conv[start : start + chunk] = _ground_state(xs - z[None, :]) @ wz
    u0 = _ground_state(x)
    u1 = x * u0
    return a * u0 + b * u1 + conv
