"""Norm-conserving time integration of the skew-symmetric lattice system.

In weighted coefficients ``a_n = sqrt(n) c_{n+1}`` (n >= 1) the linear
evolution reads

    2 da_n/dt = w(n) a_{n+1} - w(n-1) a_{n-1},   w(n) = sqrt(n (n+1) (n+2)),

a skew-symmetric tridiagonal system, so the l2 norm of ``a`` (equal to
the energy form of the underlying coefficient vector with c_0 = 0) is an
exact invariant.  The implicit midpoint rule is the default stepper: it
is the Cayley transform of the skew generator, hence orthogonal, and
conserves the norm to solver roundoff at any step size.  An explicit
RK4 path is kept for cross-checks; its step size is capped at
``0.5 N**-1.5`` because the off-diagonal growth makes the truncated
generator stiff.  Both steppers build the generator's off-diagonal once
per :func:`evolve` call, and the midpoint rule also builds the bands of
``I - h/2 M`` once and hands them to LAPACK's tridiagonal solver each step.

Truncation caveat: the lattice transports energy toward large n at speed
~ n^(3/2), so wave content launched from modes around n0 reaches *any*
truncation boundary within time ~ 2 / sqrt(n0) (the same finite-time
escape to infinity that makes the infinite operator limit-circle).  Norm
conservation is unaffected (the truncated generator is exactly skew),
but functionals that are only conserved by the infinite system, such as
the pairing tracked by :func:`c1_track`, drift by O(1) once the edge
activates.  Within the pre-edge window the drift is at roundoff level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import NumericalError
from .hermite import RealGrid, basis_rows, projection_sequence
from .jacobi import offdiag_weight


@dataclass(frozen=True)
class LatticeState:
    """Weighted coefficient vector ``(a_1, ..., a_N)`` at time t."""

    a: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise ValueError("state needs at least two modes")
        if not np.all(np.isfinite(a)):
            raise ValueError("state entries must be finite")
        object.__setattr__(self, "a", a)

    @property
    def n_modes(self) -> int:
        return self.a.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.a))


@dataclass(frozen=True)
class LatticeTrajectory:
    """Sampled evolution: times, states (rows), norms and the c1 projection."""

    ts: np.ndarray
    states: np.ndarray        # shape (samples, N)
    norms: np.ndarray
    c1: np.ndarray


def offdiagonal(n_modes: int) -> np.ndarray:
    """Upper-diagonal entries ``w(n)/2`` of the truncated generator, n = 1..N-1."""
    return 0.5 * offdiag_weight(np.arange(1, n_modes))


def skew_matrix(n_modes: int) -> np.ndarray:
    """Dense truncated generator M with M + M^T = 0 (for inspection/tests)."""
    beta = offdiagonal(n_modes)
    m = np.zeros((n_modes, n_modes))
    idx = np.arange(n_modes - 1)
    m[idx, idx + 1] = beta
    m[idx + 1, idx] = -beta
    return m


def _apply_skew(beta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``M a`` for the generator with upper off-diagonal ``beta``."""
    out = np.zeros_like(a)
    out[:-1] += beta * a[1:]
    out[1:] -= beta * a[:-1]
    return out


def skew_rhs(a) -> np.ndarray:
    """Right-hand side ``M a`` with the truncation ``a_{N+1} = 0``."""
    a = np.asarray(a, dtype=float)
    return _apply_skew(offdiagonal(a.size), a)


def _rk4_dt_cap(n_modes: int) -> float:
    return 0.5 * n_modes ** -1.5


def evolve(
    a0: LatticeState,
    T: float,
    dt: float,
    sample_every: int = 1,
    method: str = "midpoint",
) -> LatticeTrajectory:
    """Integrate the lattice system over [0, T] (T may be negative).

    The c1 projection starts at 0, obeys ``dc1/dt = a_1 / sqrt(2)`` and
    is advanced with the stage values of the same stepper (for the
    midpoint rule that is the trapezoid of consecutive ``a_1`` samples),
    so it is the discrete integral of the sampled flow, not a separate
    quadrature.

    Parameters
    ----------
    a0 : LatticeState
    T, dt : float
        Horizon and step size; ``dt > 0`` always, the sign of T selects
        the direction.
    sample_every : int
        Keep every k-th step in the trajectory (step 0 included).
    method : {"midpoint", "rk4"}
        "rk4" additionally requires ``dt <= 0.5 N**-1.5``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    a = a0.a.copy()
    n_modes = a.size
    n_steps = int(round(abs(T) / dt))
    sgn = 1.0 if T >= 0 else -1.0
    h = sgn * dt

    if method == "rk4" and dt > _rk4_dt_cap(n_modes) * (1 + 1e-12):
        raise ValueError(
            f"rk4 needs dt <= 0.5 N^-1.5 = {_rk4_dt_cap(n_modes):.3e} at N={n_modes}"
        )
    if method not in ("midpoint", "rk4"):
        raise ValueError(f"unknown method {method!r}")

    beta = offdiagonal(n_modes)
    if method == "midpoint":
        # sub-, main and super-diagonal of (I - h/2 M); dgtsv factors copies
        # of them each step (it is the routine solve_banded uses for (1, 1))
        lower = 0.5 * h * beta
        diag = np.ones(n_modes)
        upper = -0.5 * h * beta

    ts = [a0.t]
    states = [a.copy()]
    norms = [float(np.linalg.norm(a))]
    c1 = 0.0
    c1s = [c1]
    for k in range(n_steps):
        a1_old = a[0]
        if method == "midpoint":
            rhs = a + 0.5 * h * _apply_skew(beta, a)
            *_, a, info = dgtsv(lower, diag, upper, rhs, overwrite_b=True)
            if info != 0:
                raise NumericalError(
                    f"midpoint solve failed at step {k + 1} (t={a0.t + k * h:.6g}): "
                    f"dgtsv info={info}"
                )
        else:
            k1 = _apply_skew(beta, a)
            k2 = _apply_skew(beta, a + 0.5 * h * k1)
            k3 = _apply_skew(beta, a + 0.5 * h * k2)
            k4 = _apply_skew(beta, a + h * k3)
            a = a + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(a)):
            raise NumericalError(
                f"non-finite state after step {k + 1} (t={a0.t + (k + 1) * h:.6g})"
            )
        c1 += h * (a1_old + a[0]) / (2.0 * np.sqrt(2.0))
        if (k + 1) % sample_every == 0 or k == n_steps - 1:
            ts.append(a0.t + (k + 1) * h)
            states.append(a.copy())
            norms.append(float(np.linalg.norm(a)))
            c1s.append(c1)
    return LatticeTrajectory(
        ts=np.array(ts),
        states=np.array(states),
        norms=np.array(norms),
        c1=np.array(c1s),
    )


@dataclass(frozen=True)
class C1TrackResult:
    """c1 re-integrated along a trajectory plus the tracked pairing."""

    c1: np.ndarray
    conserved: np.ndarray   # 2 c1(t) + sum_{n>=2} c_n(t) f_n at the samples
    drift_abs: float
    drift_rel: float


def c1_track(c1_0: float, trajectory: LatticeTrajectory) -> C1TrackResult:
    """Integrate ``dc1/dt = a_1/sqrt(2)`` over the samples and track the pairing.

    The pairing ``2 c1 + sum_{n>=2} c_n f_n`` is a conserved functional
    of the infinite system (for the truncated one it drifts once wave
    content reaches the edge; the relative drift is reported).
    """
    if trajectory.ts.size == 0:
        raise ValueError("trajectory is empty")
    ts = trajectory.ts
    a1 = trajectory.states[:, 0]
    c1 = np.empty(ts.size)
    c1[0] = c1_0
    incr = 0.5 * (a1[1:] + a1[:-1]) * np.diff(ts) / np.sqrt(2.0)
    np.cumsum(incr, out=c1[1:])
    c1[1:] += c1_0

    n_modes = trajectory.states.shape[1]
    f = projection_sequence(n_modes + 1)
    m = np.arange(1, n_modes + 1)
    pair_weights = f[m + 1] / np.sqrt(m)   # c_{m+1} f_{m+1} with c_{m+1} = a_m/sqrt(m)
    conserved = 2.0 * c1 + trajectory.states @ pair_weights
    drift_abs = float(np.abs(conserved - conserved[0]).max())
    scale = max(abs(float(conserved[0])), 1e-30)
    return C1TrackResult(c1, conserved, drift_abs, drift_abs / scale)


def coefficients_to_lattice(c) -> np.ndarray:
    """Map coefficients ``(c_0, ..., c_N)`` to ``a_n = sqrt(n) c_{n+1}``.

    c_0 is dropped (it is zero on the constrained subspace) and c_1
    decouples; both are tracked separately.
    """
    c = np.asarray(c, dtype=float)
    n = np.arange(1, c.size - 1, dtype=float)
    return np.sqrt(n) * c[2:]


def lattice_to_coefficients(a, c1: float = 0.0) -> np.ndarray:
    """Inverse map: ``c = (0, c1, a_1/sqrt(1), a_2/sqrt(2), ...)``."""
    a = np.asarray(a, dtype=float)
    n = np.arange(1, a.size + 1, dtype=float)
    c = np.empty(a.size + 2)
    c[0] = 0.0
    c[1] = c1
    c[2:] = a / np.sqrt(n)
    return c


def initial_gaussian_bump(
    n_modes: int,
    center: float = 1.0,
    width: float = 1.0,
) -> LatticeState:
    """Lattice image of the bump ``exp(-(x - center)^2 / (2 width^2))``.

    Coefficients are computed by quadrature on ``RealGrid.uniform()`` and
    mapped through :func:`coefficients_to_lattice`; they decay
    superexponentially, so the truncated dynamics is initially fully resolved.
    """
    grid = RealGrid.uniform()
    bump = np.exp(-((grid.nodes - center) ** 2) / (2.0 * width**2))
    weighted = grid.weights * bump
    c = np.empty(n_modes + 2)
    for n, row in basis_rows(grid.nodes, n_modes + 1):
        c[n] = float(np.dot(weighted, row))
    return LatticeState(coefficients_to_lattice(c))


def initial_random(n_modes: int, seed: int = 0) -> LatticeState:
    """Normalized random lattice vector (for property checks)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n_modes)
    return LatticeState(a / np.linalg.norm(a))
