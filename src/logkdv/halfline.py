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
* j = 0: Dirichlet (row kept zero, value pinned to 0 by the stepper).

Constraint bookkeeping.  With ``phi(z) = exp(-z^2/8)`` the functional
``A = a + <phi, w>`` is an exact invariant of the coupled system when
``da/dt = 2 w(t, 0)``.  Discretely, the boundary value that the scheme
actually transports through z = 0 is the flux surrogate

    beta(w) = -<phi, H w>_h / 2,

which agrees with the raw node value ``w(t, 0)`` to the scheme's order.
Integrating ``da/dt = 2 beta`` with the stepper's own stage values then
telescopes to ``a(t) = a(0) + <phi, w(0)>_h - <phi, w(t)>_h``, so the
discrete A is conserved to machine precision rather than to O(h^2); see
:func:`modulation_integrate`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError


@dataclass(frozen=True)
class HalfLineGrid:
    """Uniform grid on [-Z, 0] with trapezoidal quadrature weights."""

    extent: float   # Z > 0, domain is [-Z, 0]
    spacing: float  # h

    def __post_init__(self):
        if self.extent <= 0 or self.spacing <= 0:
            raise ValueError("extent and spacing must be positive")
        ratio = self.extent / self.spacing
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError("extent must be an integer multiple of spacing")
        if round(ratio) < 16:
            raise ValueError("grid too coarse: need at least 16 intervals")

    @property
    def n_intervals(self) -> int:
        return int(round(self.extent / self.spacing))

    @property
    def nodes(self) -> np.ndarray:
        return -self.extent + self.spacing * np.arange(self.n_intervals + 1)

    @property
    def weights(self) -> np.ndarray:
        w = np.full(self.n_intervals + 1, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def integrate(self, values) -> float:
        return float(np.dot(self.weights, values))

    def l2_norm(self, values) -> float:
        v = np.asarray(values)
        return float(np.sqrt(np.dot(self.weights, v * v)))

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


def assemble_H(grid: HalfLineGrid) -> sp.csr_matrix:
    """Sparse discretization of H on the grid (row 0 empty: Dirichlet)."""
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
    diag[1:J] = 2.0 * zi / h**2 + (qhi - qlo) / (2.0 * h)
    upper[1:] = -zi / h**2 + -3.0 / (2.0 * h) + qhi / (2.0 * h)
    # z_J = 0: no diffusion term; one-sided second-order backward stencils
    # for -3 w' and for (q w)' with q_J = 0
    diag[J] = -3.0 * 3.0 / (2.0 * h)
    lower[J - 1] = 3.0 * 4.0 / (2.0 * h) + -4.0 * q[J - 1] / (2.0 * h)
    lower2 = np.zeros(J - 1)
    lower2[J - 2] = -3.0 / (2.0 * h) + q[J - 2] / (2.0 * h)
    return sp.diags([lower2, lower, diag, upper], [-2, -1, 0, 1], format="csr")


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
    L2 norm is non-increasing step by step.
    """
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    if method not in ("cn", "be"):
        raise ValueError(f"unknown method {method!r}")
    grid = w0.grid
    H = assemble_H(grid)
    n = H.shape[0]
    eye = sp.identity(n, format="csr")
    if method == "cn":
        lhs = (eye - 0.5 * dt * H).tocsc()
        rhs_op = (eye + 0.5 * dt * H).tocsr()
    else:  # backward Euler solves against the state itself
        lhs = (eye - dt * H).tocsc()
        rhs_op = None
    try:
        solver = spla.splu(lhs)
    except RuntimeError as exc:  # singular factorization
        raise NumericalError(f"time-step factorization failed: {exc}") from exc

    w = w0.w.copy()
    w[0] = 0.0
    n_steps = int(round(T / dt))
    ts = [w0.t]
    states = [w.copy()]
    step_ts = [w0.t]
    step_l2 = [grid.l2_norm(w)]
    for k in range(n_steps):
        w = solver.solve(w if rhs_op is None else rhs_op @ w)
        if not np.all(np.isfinite(w)):
            raise NumericalError(f"non-finite state after step {k + 1}")
        w[0] = 0.0
        t_now = w0.t + (k + 1) * dt
        step_ts.append(t_now)
        step_l2.append(grid.l2_norm(w))
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            ts.append(t_now)
            states.append(w.copy())
    return HalfLineFlow(
        grid=grid,
        ts=np.array(ts),
        states=np.array(states),
        step_ts=np.array(step_ts),
        step_l2=np.array(step_l2),
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


def modulation_integrate(
    flow: HalfLineFlow, a0: float, b0: float
) -> ModulationTrajectory:
    """Integrate ``da/dt = 2 w(t,0)`` and ``db/dt = a/2`` along the flow.

    a is advanced in flux form (see module docstring), i.e. through the
    telescoped identity ``a(t) = a0 + <phi, w(0)> - <phi, w(t))>``, which
    is the exact discrete time integral of ``2 beta`` under either
    stepper and keeps ``A = a + <phi, w>`` constant to roundoff.  b is
    the trapezoid of a/2 over the samples.  When a decays exponentially
    (constrained data, A = 0) the limit ``b_inf`` is estimated by
    extrapolating the fitted tail; otherwise it is NaN.
    """
    grid = flow.grid
    ell = grid.weights * gaussian_weight(grid)
    ell_w = flow.states @ ell
    a = a0 + ell_w[0] - ell_w
    b = np.empty_like(a)
    b[0] = b0
    np.cumsum(0.25 * (a[1:] + a[:-1]) * np.diff(flow.ts), out=b[1:])
    b[1:] += b0
    A = a + ell_w

    b_inf = float("nan")
    tail = max(4, a.size // 5)
    a_tail = a[-tail:]
    if np.all(np.abs(a_tail) > 0):
        t_tail = flow.ts[-tail:]
        slope = np.polyfit(t_tail, np.log(np.abs(a_tail)), 1)[0]
        if slope < 0:
            # remaining integral of a/2 under a ~ a(T) exp(slope (t - T))
            b_inf = float(b[-1] - 0.5 * a[-1] / slope)
    elif np.abs(a_tail).max() == 0.0:
        b_inf = float(b[-1])
    return ModulationTrajectory(flow.ts, a, b, A, b_inf)


def initial_gaussian_bump(
    grid: HalfLineGrid, center: float = -2.0, width: float = 1.0
) -> HalfLineState:
    """Gaussian bump ``exp(-((z - center)/width)^2)`` pinned to 0 at the wall."""
    z = grid.nodes
    w = np.exp(-(((z - center) / width) ** 2))
    w[0] = 0.0
    return HalfLineState(w, 0.0, grid)
