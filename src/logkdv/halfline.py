"""Dissipative evolution ``w_t = H w`` on the half-line z < 0.

The operator

    (H w)(z) = -z w_zz - 3 w_z + (z^2 w)_z / 4

is dissipative: <H w, w> = -w(0)^2 + int z (w_z^2 + w^2/4) dz is at most
-||w||^2 / 2, so the squared L2 norm decays at least like exp(-t).
z = 0 is a regular singular point (the diffusion coefficient -z
vanishes), so no boundary condition is imposed there; the domain is
truncated at z = -Z with a homogeneous Dirichlet cutoff, where the
quadratic damping has long since annihilated anything that arrives.

Discretization (uniform grid z_j = -Z + j h, j = 0..J, z_J = 0), in the
self-adjoint form of H.  H is symmetric in L^2 with the weight
rho = z^2 exp(-z^2/8): in Sturm-Liouville form

    H w = rho^{-1} (P w_z)_z + (z/2) w,   P = -z^3 exp(-z^2/8) > 0 on z < 0.

Node j owns the cell [z_j - h/2, z_j + h/2], cut to [-Z, 0] at the two
ends, and the scheme is the finite-volume balance of rho H w over it:

    m_j (H_h w)_j = (P_{j+1/2} (w_{j+1} - w_j) - P_{j-1/2} (w_j - w_{j-1})) / h
                    + c_j w_j,

with m_j the integral of rho over the cell, P_{j+-1/2} P at its edges and
c_j the integral of rho z / 2.  So H_h = M^{-1} K with K symmetric
tridiagonal and M = diag(m).  P(0) = 0 closes the last cell, so H_h has
three bands and nothing below them; node 0 is Dirichlet (row and column
0 of H_h empty, so node 0 is a decoupled mode that every step leaves at
0.0).  The cell integrals are 8-point Gauss-Legendre sums with
exp(-z_j^2/8) factored out of each cell, and every flux is divided by m_j
in the same factored form, so H_h's entries, about |z| / h^2, never
underflow though m_j does past |z| ~ 75.

The similar matrix S = M^{1/2} H_h M^{-1/2} is symmetric, with couplings
``P_{j+1/2} / (h sqrt(m_j m_{j+1}))`` = ``sqrt(H_{j,j+1} H_{j+1,j})`` > 0
and H_h's diagonal, and -K is strictly diagonally dominant (c_j < 0), so
S is negative definite and ``I - theta dt S`` is symmetric positive
definite on every grid.  The flow marches in y = D w, D = sqrt(m)
normalised to a largest entry of 1, formed from the logs of the masses:
a step is one ``dpttrs`` with the factors of ``I - theta dt S``, which is
the package's one implicit tridiagonal step, ``errors._implicit_step``,
shared with the lattice flow (``errors._factor`` takes its symmetric
positive definite path), and w = y / D is formed only for the kept
states.  The squared norm of every step is one product of y with
sqrt(weights) / D and one dot, and is also the check that each step is
finite.  ``extent`` is at most 100, where D is still at least 1e-270,
so D and 1 / D are normal floats.  No solve imports ``scipy.sparse`` or
``scipy.linalg``: the routines come from scipy's LAPACK extension module
alone, which ``errors._lapack`` loads from its file.
:func:`assemble_H` builds the CSR matrix of H_h = D^{-1} S D from the
same bands for callers that want it.

Constraint bookkeeping.  With ``phi(z) = exp(-z^2/8)`` the functional
``A = a + <phi, w>`` is an exact invariant of the coupled system when
``da/dt = 2 w(t, 0)``.  Discretely, the boundary value that the scheme
actually transports through z = 0 is the flux surrogate

    beta(w) = -<phi, H w>_h / 2,

which agrees with the raw node value ``w(t, 0)`` to the scheme's order.
Integrating ``da/dt = 2 beta`` with the stepper's own stage values then
telescopes to ``a(t) = a(0) + <phi, w(0)>_h - <phi, w(t)>_h``, so the
discrete A is conserved to machine precision rather than to O(h^2).  b
telescopes too, through ``psi = H^{-T} (weights * phi)``, so both scalars
and b's limit are exact for the stepped flow at any sampling; see
:func:`modulation_integrate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import _factor, _implicit_step, _march, _unscale
from .hermite import RealGrid

if TYPE_CHECKING:  # scipy is imported by the functions that use it
    import scipy.sparse as sp


# The largest extent Z: the scale D = sqrt(m) falls like exp(-Z^2/16), to
# about 1e-270 at Z = 100, and leaves the normal floats near Z = 106.
MAX_EXTENT = 100.0


@dataclass(frozen=True)
class HalfLineGrid(RealGrid):
    """Uniform grid on [-Z, 0] with trapezoidal quadrature weights."""

    # derived from extent and spacing, which alone set equality, hash and repr
    nodes: np.ndarray = field(init=False, compare=False, repr=False)
    weights: np.ndarray = field(init=False, compare=False, repr=False)
    extent: float   # Z > 0, domain is [-Z, 0]
    spacing: float  # h

    def __post_init__(self):
        if self.extent <= 0 or self.spacing <= 0:
            raise ValueError("extent and spacing must be positive")
        ratio = self.extent / self.spacing
        if not np.isfinite(ratio):
            raise ValueError("extent / spacing must be finite")
        if self.extent > MAX_EXTENT:
            raise ValueError(f"extent must be at most {MAX_EXTENT:g}")
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError("extent must be an integer multiple of spacing")
        if round(ratio) < 16:
            raise ValueError("grid too coarse: need at least 16 intervals")
        # from the spacing: weights from node differences differ in the last bits
        weights = np.full(self.n_intervals + 1, self.spacing)
        weights[0] *= 0.5
        weights[-1] *= 0.5
        object.__setattr__(self, "nodes", -self.extent + self.spacing * np.arange(weights.size))
        object.__setattr__(self, "weights", weights)

    @property
    def n_intervals(self) -> int:
        return int(round(self.extent / self.spacing))

    def h1_seminorm(self, values) -> float:
        d = np.diff(np.asarray(values)) / self.spacing
        return float(np.sqrt(np.sum(d * d) * self.spacing))


@dataclass(frozen=True)
class HalfLineState:
    """Grid function w(t, .) on a HalfLineGrid."""

    w: np.ndarray
    t: float
    grid: HalfLineGrid

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.size != self.grid.n_intervals + 1:
            raise ValueError("state length does not match the grid")
        if not np.all(np.isfinite(w)):
            raise ValueError("state entries must be finite")
        object.__setattr__(self, "w", w)


def gaussian_weight(grid: HalfLineGrid) -> np.ndarray:
    """The constraint weight ``exp(-z^2/8)`` on the grid nodes."""
    z = grid.nodes
    return np.exp(-z * z / 8.0)


def _s_bands(grid: HalfLineGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coupling band and diagonal of S and the scale D = sqrt(m) / max sqrt(m).

    Row and column 0 are empty (Dirichlet).  Each cell integral is an 8-point
    Gauss-Legendre sum of ``exp(-(x^2 - z_j^2)/8)`` times z^2 (the mass) or
    z^3 / 2 (the source), and each flux ``P(s) / (h m_j)`` carries
    ``exp(-(s^2 - z_j^2)/8)``, both exponents formed as ``-d (z_j + x) / 8``
    from the offset d = x - z_j; only the logs of the masses keep
    ``-z_j^2/8``.  S's couplings are ``sqrt(H_{j,j+1} H_{j+1,j})``, from
    those fluxes.
    """
    z, h = grid.nodes, grid.spacing
    hi = np.full(z.size, 0.5 * h)  # node j's cell is [z_j - hi_j, z_j + hi_j], cut at the ends
    lo = -hi
    lo[0] = hi[-1] = 0.0
    nodes, weights = np.polynomial.legendre.leggauss(8)
    d = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * nodes
    x = z[:, None] + d
    q = 0.5 * (hi - lo)[:, None] * weights * np.exp(-d * (z[:, None] + x) / 8.0) * x * x
    mass = np.sum(q, axis=1)  # m_j exp(z_j^2 / 8)

    def flux(offset):
        """``P(s) / (h m_j)`` at the edge s = z_j + offset."""
        s = z + offset
        return -s * s * s * np.exp(-offset * (z + s) / 8.0) / (h * mass)

    left, right = flux(-0.5 * h), flux(0.5 * h)
    right[-1] = 0.0  # P(0) = 0 closes the last cell
    diag = 0.5 * np.sum(q * x, axis=1) / mass - left - right
    diag[0] = left[1] = right[0] = 0.0  # Dirichlet: node 0 decoupled
    log_mass = np.log(mass) - z * z / 8.0
    return np.sqrt(left[1:] * right[:-1]), diag, np.exp(0.5 * (log_mass - log_mass.max()))


def _h_bands(grid: HalfLineGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bands of H_h = D^{-1} S D at offsets -1, 0 and 1.

    Formed from the stored D, so that the flow's similarity is exact to
    roundoff in each entry: D itself carries the rounding of its exponent,
    about 1e-13 relative at Z = 40.
    """
    e, diag, scale = _s_bands(grid)
    ratio = scale[1:] / scale[:-1]
    return e / ratio, diag, e * ratio


def assemble_H(grid: HalfLineGrid) -> sp.csr_matrix:
    """Sparse discretization of H on the grid (row and column 0 empty: Dirichlet)."""
    import scipy.sparse as sp

    return sp.diags(_h_bands(grid), [-1, 0, 1], format="csr")


def flux_boundary_value(h_matrix: sp.spmatrix, grid: HalfLineGrid, w) -> float:
    """Flux-consistent boundary value ``beta = -<phi, H w>_h / 2``.

    Agrees with ``w`` at the z = 0 node to the scheme's order; it is the
    value whose time integral the constraint functional conserves
    exactly.
    """
    ell = grid.weights * gaussian_weight(grid)
    return float(-0.5 * np.dot(ell, h_matrix @ np.asarray(w, dtype=float)))


@dataclass(frozen=True)
class HalfLineFlow:
    """Sampled dissipative flow with a dense per-step norm trace."""

    grid: HalfLineGrid
    ts: np.ndarray            # sample times
    states: np.ndarray        # shape (samples, J+1)
    step_ts: np.ndarray       # every accepted step
    step_l2: np.ndarray       # discrete L2 norm at every step


def evolve_dissipative(
    w0: HalfLineState,
    T: float,
    dt: float,
    method: str = "cn",
    sample_every: int = 1,
) -> HalfLineFlow:
    """Advance ``w_t = H w`` with Crank-Nicolson (default) or backward Euler.

    Both steppers are unconditionally contractive here (the symmetric
    part of the discrete operator is negative definite), so the discrete
    L2 norm is non-increasing step by step.  ``I - theta dt S`` (theta =
    1/2 or 1, S the symmetric form of H of the module docstring) is
    stepped by ``errors._implicit_step``, with the Crank-Nicolson fold, in
    the coordinates y = D w.  The state starts at 0.0 at z = -Z, whatever
    w0 holds there, and node 0 is a decoupled mode of that matrix, so
    every step keeps it at +0.0 (see there).  The step count
    ``round(T / dt)``, sampling and storage are the package's one step
    loop, ``errors._march``, which the lattice flow shares.  The first
    state is w0 to the bit, node 0 aside; the others are y / D.
    ``step_l2`` is the square root of each step's sum of squares of
    ``y sqrt(grid.weights) / D``, which agrees with ``grid.norm`` of w to
    roundoff (1e-14 relative), not to the bit.
    """
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    if method not in ("cn", "be"):
        raise ValueError(f"unknown method {method!r}")
    grid = w0.grid
    e, diag, scale = _s_bands(grid)
    theta_dt = (0.5 if method == "cn" else 1.0) * dt
    w = w0.w.copy()
    w[0] = 0.0
    y, step = _implicit_step(-theta_dt * e, 1.0 - theta_dt * diag, -theta_dt * e, w * scale,
                             fold=method == "cn")
    # the squared norm of w = y / D: y times sqrt(h) / D, at most 1e270 sqrt(h),
    # into one reused buffer, and one dot
    root_weights = np.sqrt(grid.weights) / scale
    terms = np.empty(w.size)

    def squared_norm(y):
        np.multiply(y, root_weights, out=terms)
        return np.dot(terms, terms)

    times, kept, states, _, squared_l2 = _march(
        step, y, w0.t, T, dt, sample_every, squared_norm, squared_norm
    )
    _unscale(states, scale, kept, times)
    states[0] = w  # not (w D) / D, which can miss it by an ulp
    return HalfLineFlow(
        grid=grid, ts=times[kept], states=states, step_ts=times, step_l2=np.sqrt(squared_l2)
    )


def constraint_functional(state: HalfLineState, a: float) -> float:
    """The invariant ``A = a + int exp(-z^2/8) w dz`` via grid quadrature."""
    return float(a + np.dot(state.grid.weights * gaussian_weight(state.grid), state.w))


@dataclass(frozen=True)
class ModulationTrajectory:
    """Modulation scalars along a flow: a, b, the invariant A, and b's limit."""

    ts: np.ndarray
    a: np.ndarray
    b: np.ndarray
    A: np.ndarray
    b_inf: float


def _psi(grid: HalfLineGrid, ell: np.ndarray) -> np.ndarray:
    """``psi = H_h[1:, 1:]^{-T} ell[1:]``, the weight that telescopes b.

    H_h = D^{-1} S D with S symmetric, so ``H_h^{-T} = D S^{-1} D^{-1}``
    (``M K^{-1}``, with the normalisation of D cancelled): psi is
    ``-D (-S)^{-1} (ell / D)`` on nodes 1..J, one ``dpttrs`` on the
    positive definite -S through ``errors._factor``.
    """
    e, diag, scale = _s_bands(grid)
    solve = _factor(-e[1:], -diag[1:], -e[1:])
    psi, _ = solve(ell[1:] / scale[1:])
    psi *= -scale[1:]
    return psi


def modulation_integrate(
    flow: HalfLineFlow, a0: float, b0: float
) -> ModulationTrajectory:
    """Integrate ``da/dt = 2 w(t,0)`` and ``db/dt = a/2`` along the flow.

    a is advanced in flux form (see module docstring), i.e. through the
    telescoped identity ``a(t) = a0 + <phi, w(0)> - <phi, w(t)>``, which
    is the exact discrete time integral of ``2 beta`` under either
    stepper and keeps ``A = a + <phi, w>`` constant to roundoff.  b
    telescopes the same way: either stepper's quadrature of w over a
    step is ``H^{-1}`` of the step's increment, so with
    ``psi = H^{-T} (weights * phi)`` (node 0 removed)
    ``b(t) = b0 + (A (t - t0) + <psi, w(t0)> - <psi, w(t)>) / 2`` is the
    stepper's own quadrature of a/2 over every step (the trapezoid under
    Crank-Nicolson, the right endpoint under backward Euler), whatever
    the sampling.  ``b_inf = b0 + <psi, w(t0)> / 2`` is the limit of
    ``b - A (t - t0) / 2`` as w decays, so of b itself when A = 0.
    """
    grid = flow.grid
    ell = grid.weights * gaussian_weight(grid)
    psi = _psi(grid, ell)
    # one sweep over the samples, one dot per row and weight: a matrix-vector
    # product sums a row in an order that depends on its place in the matrix,
    # so on how many samples are kept
    ell_w, psi_w = np.array([(np.dot(w, ell), np.dot(w[1:], psi)) for w in flow.states]).T
    a = a0 + ell_w[0] - ell_w
    A = a + ell_w
    b = b0 + 0.5 * (A[0] * (flow.ts - flow.ts[0]) + psi_w[0] - psi_w)
    return ModulationTrajectory(flow.ts, a, b, A, float(b0 + 0.5 * psi_w[0]))


def initial_gaussian_bump(
    grid: HalfLineGrid, center: float = -2.0, width: float = 1.0
) -> HalfLineState:
    """Gaussian bump ``exp(-((z - center)/width)^2)`` pinned to 0 at the wall."""
    z = grid.nodes
    with np.errstate(over="ignore"):  # a square beyond float range is exp(-inf) = 0
        w = np.exp(-(((z - center) / width) ** 2))
    w[0] = 0.0
    return HalfLineState(w, 0.0, grid)
