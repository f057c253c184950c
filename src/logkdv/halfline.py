"""Dissipative evolution ``w_t = H w`` on the half-line z < 0.

The operator

    (H w)(z) = -z w_zz - 3 w_z + (z^2 w)_z / 4

is dissipative: <H w, w> = -w(0)^2 + int z (w_z^2 + w^2/4) dz is at most
-||w||^2 / 2, so the squared L2 norm decays at least like exp(-t).
z = 0 is a regular singular point (the diffusion coefficient -z
vanishes), so no boundary condition is imposed there; the domain is
truncated at z = -Z with a homogeneous Dirichlet cutoff, where the
quadratic damping has long since annihilated anything that arrives.

Discretization (uniform grid z_j = -Z + j h, j = 0..J, z_J = 0):

* interior: centered second differences for ``-z w_zz - 3 w_z`` and a
  conservative flux form for ``(z^2 w)_z / 4`` (differences of the
  half-node products);
* last node: diffusion coefficient is zero; one-sided second-order
  stencils for the advection and flux terms;
* j = 0: Dirichlet (row and column 0 of H empty, so node 0 is a
  decoupled mode that every step leaves at 0.0).

So H has three bands and one entry below them, at (J, J-2), from the
one-sided stencil.  Every linear solve removes that entry first: row J
minus ``m = M[J, J-2] / M[J-1, J-2]`` times row J-1 leaves the matrix M
tridiagonal, and the same row operation on the right side is
``b[J] -= m b[J-1]``, which is all this module adds to the solves: the
factorization of the result and the Crank-Nicolson fold
``2 solve(w) - w`` are the package's one implicit tridiagonal step,
``errors._implicit_step``, which the lattice flow shares.

Where it can, the factorization is symmetric.  H is symmetric in L^2
with the weight z^2 exp(-z^2/8) (its Sturm-Liouville form), and so,
nearly, is the discrete one: while |z| < 8/h or so, every pair of
couplings of the eliminated ``I - theta dt H`` has a positive product,
and the diagonal similarity S = D (I - theta dt H) D^{-1}, with D about
|z| exp(-z^2/16), is symmetric positive definite.
``errors._factor`` finds that from the bands and factors S once with
LAPACK's ``dpttrf``, and the flow marches in y = D w, the coordinates
of S: a step is one bare ``dpttrs``, with the row operation scaled to
``y[J] -= m D[J] / D[J-1] y[J-1]``, and w = y / D is formed only for
the kept states.  The squared norm of every step is summed over y with
the weights h / D^2, finite since D is at least exp(-300), and is also
the check that each step is finite.  Unlike ``dgttrs``'s
back-substitution, ``dpttrs``'s substitutions keep their divisions off
the chain of dependent operations, which makes the step faster.  The
decoupled node 0 keeps a zero coupling, ``e[0] = 0``, so it stays +0.0.
Grids past the sign change (Z above about 8/h) or with D below
exp(-300) (Z above about 70) take the LU path, ``dgttrf`` once and
``dgttrs`` per solve, where D is 1, with the bits they always had.  No
solve imports ``scipy.sparse`` or ``scipy.linalg``: the routines come
from scipy's LAPACK extension module alone, which ``errors._lapack``
loads from its file.
:func:`assemble_H` builds the CSR matrix from the same bands for
callers that want it.

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

from .errors import _implicit_step, _march, _tridiagonal_solver, _unscale
from .hermite import RealGrid

if TYPE_CHECKING:  # scipy is imported by the functions that use it
    import scipy.sparse as sp


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


def _h_bands(grid: HalfLineGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The bands of H at offsets -2, -1, 0 and 1 (row and column 0 empty: Dirichlet).

    The band at offset -2 holds one nonzero entry, at (J, J-2), from the
    one-sided stencil at z = 0.
    """
    J = grid.n_intervals
    z = grid.nodes
    h = grid.spacing
    q = 0.25 * z * z
    zh = z + 0.5 * h            # half nodes z_{j+1/2}
    qh = 0.25 * zh * zh

    # Entries of rows 1..J-1 by column offset; the terms of each entry are
    # summed in the order -z w'', -3 w', (q w)'.
    zi, qlo, qhi = z[1:J], qh[: J - 1], qh[1:J]
    lower = np.zeros(J)
    diag = np.zeros(J + 1)
    upper = np.zeros(J)
    lower[: J - 1] = -zi / h**2 + 3.0 / (2.0 * h) + -qlo / (2.0 * h)
    lower[0] = 0.0  # Dirichlet: column 0 empty too, so node 0 is decoupled
    diag[1:J] = 2.0 * zi / h**2 + (qhi - qlo) / (2.0 * h)
    upper[1:] = -zi / h**2 + -3.0 / (2.0 * h) + qhi / (2.0 * h)
    # z_J = 0: no diffusion term; one-sided second-order backward stencils
    # for -3 w' and for (q w)' with q_J = 0
    diag[J] = -3.0 * 3.0 / (2.0 * h)
    lower[J - 1] = 3.0 * 4.0 / (2.0 * h) + -4.0 * q[J - 1] / (2.0 * h)
    lower2 = np.zeros(J - 1)
    lower2[J - 2] = -3.0 / (2.0 * h) + q[J - 2] / (2.0 * h)
    return lower2, lower, diag, upper


def assemble_H(grid: HalfLineGrid) -> sp.csr_matrix:
    """Sparse discretization of H on the grid (row and column 0 empty: Dirichlet)."""
    import scipy.sparse as sp

    return sp.diags(_h_bands(grid), [-2, -1, 0, 1], format="csr")


def _eliminate_corner(corner: float, lower, diag, upper) -> float:
    """Make the matrix with these bands and ``corner`` at (n-1, n-3) tridiagonal.

    Subtracts ``m = corner / lower[-2]`` times row n-2 from row n-1, in the
    band arrays, and returns m: a right side b takes the same row operation
    as ``b[-1] -= m * b[-2]``.
    """
    m = corner / lower[-2]
    lower[-1] -= m * diag[-2]
    diag[-1] -= m * upper[-1]
    return m


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
    L2 norm is non-increasing step by step.  ``I - theta dt H`` (theta =
    1/2 or 1) is made tridiagonal by the row elimination of the module
    docstring and stepped by ``errors._implicit_step``, with the
    Crank-Nicolson fold, in the symmetrized coordinates y = D w of the
    module docstring where they apply (D = 1 elsewhere).  The state
    starts at 0.0 at z = -Z, whatever w0 holds there, and node 0 is a
    decoupled mode of that matrix, so every step keeps it at +0.0 (see
    there).  The step count ``round(T / dt)``, sampling and storage are
    the package's one step loop, ``errors._march``, which the lattice
    flow shares.  The first state is w0 to the bit, node 0 aside; the
    others are y / D.  ``step_l2`` is the square root of each step's sum
    of squares of y with weights ``grid.weights / D^2``, which agrees
    with ``grid.norm`` of w to roundoff (1e-14 relative), not to the bit.
    """
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    if method not in ("cn", "be"):
        raise ValueError(f"unknown method {method!r}")
    grid = w0.grid
    lower2, lower, diag, upper = _h_bands(grid)
    # theta rule: E (I - theta dt H), E the row elimination
    theta_dt = (0.5 if method == "cn" else 1.0) * dt
    bands = -theta_dt * lower, 1.0 - theta_dt * diag, -theta_dt * upper
    m = _eliminate_corner(-theta_dt * lower2[-1], *bands)
    w = w0.w.copy()
    w[0] = 0.0
    y, step, scale = _implicit_step(*bands, w, m, fold=method == "cn")
    # the squared norm of w = y / D is a sum of squares of y with weights
    # h / D^2, at most h exp(600), summed into one reused buffer
    weights = grid.weights / (scale * scale)
    squares = np.empty(w.size)

    def squared_norm(y):
        np.multiply(y, y, out=squares)
        return np.dot(weights, squares)

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
    """``psi = H[1:, 1:]^{-T} ell[1:]``, the weight that telescopes b.

    With E the row elimination of the module docstring, E H[1:, 1:] = T is
    tridiagonal, so psi = E^T T^{-T} ell[1:]: a transposed ``dgttrs`` solve
    (T is negative definite, so the solver takes its LU path), then E^T's
    one off-diagonal entry.
    """
    lower2, lower, diag, upper = _h_bands(grid)
    bands = lower[1:], diag[1:], upper[1:]
    m = _eliminate_corner(lower2[-1], *bands)
    psi, _ = _tridiagonal_solver(*bands)(ell[1:].copy(), trans="T")
    psi[-2] -= m * psi[-1]
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
