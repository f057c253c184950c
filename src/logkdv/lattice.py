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
generator stiff.  Both steppers build their work buffers once per
:func:`evolve` call and allocate nothing per step.  The midpoint step is
the package's one implicit tridiagonal step, ``errors._implicit_step``,
which the half-line flow shares: ``I - h/2 M`` factored once per call
and a step ``2 solve(a) - a``, with no product with M.  M is skew, so
``A = I - h/2 M`` has ``A^T = J A J`` with J = diag((-1)^k), the real
shadow of ``D M D^{-1}`` being -i times half the Jacobi finite section,
D = diag(i^k).  When ``dgttrf``
exchanges no rows (at dt = 1e-3 up to N = 9999, and at N = 400 up to
dt = 0.13), its LU is ``L D_u J L^T J``, and a solve is one ``dpttrs``
with ``(J D_u, L)`` and a flip of signs by J (``errors._factor``'s sign
path).  Otherwise ``dgttrs`` solves with the LU.  What this module
builds is the pad, one decoupled identity mode after the N lattice modes
(see ``_implicit_step``), so that N = 2 takes the one path too.  The
pad's row has no entry off the bands, so the step's row multiplier is
the constant 0.0 (as ``corner / lower[-2]`` it would be 0/0 once
``h/2 beta`` underflows, as at dt = 5e-324).  RK4 writes its four stages
into its buffers through slices cut once per call and performs the
operations of the plain formulas in their order, so the buffers change
no bit.  The step count, sampling and storage are the package's one
step loop, ``errors._march``, which the half-line flow shares.  The
trajectory's norms are the square roots of the sums of squares that loop
already takes to check each state, so no second pass walks the kept
states.

Truncation caveat: the lattice transports energy toward large n at speed
~ n^(3/2), so wave content launched from modes around n0 reaches *any*
truncation boundary within time ~ 2 / sqrt(n0) (the same finite-time
escape to infinity that makes the infinite operator limit-circle).  Norm
conservation is unaffected (the truncated generator is exactly skew),
but functionals that are only conserved by the infinite system, such as
the pairing tracked by :func:`c1_track`, drift by O(1) once the edge
activates.  The pairing's c1 is :func:`evolve`'s step-level integral, so
before then the drift is at roundoff level at any ``sample_every``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _implicit_step, _march
from .hermite import MAX_INDEX, RealGrid, basis_rows, offdiag_weight, projection_sequence


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


def _skew_views(a: np.ndarray, out: np.ndarray) -> tuple:
    """The slices of ``a`` and ``out`` that :func:`_apply_skew` reads and writes."""
    return a[1:], a[:-1], out, out[:-1], out[1:]


def _apply_skew(beta: np.ndarray, views: tuple, prod: np.ndarray) -> np.ndarray:
    """Write ``M a`` into ``out`` for the generator with upper off-diagonal ``beta``.

    ``views`` is ``_skew_views(a, out)``, which a loop that reuses its
    buffers cuts once.  ``prod``, of ``beta``'s size, holds the products.
    ``out`` is zeroed and then added to and subtracted from, so an entry
    ``0 + beta a`` is never -0.
    """
    a_tail, a_head, out, out_head, out_tail = views
    out.fill(0.0)
    np.multiply(beta, a_tail, out=prod)
    np.add(out_head, prod, out=out_head)
    np.multiply(beta, a_head, out=prod)
    np.subtract(out_tail, prod, out=out_tail)
    return out


def skew_rhs(a) -> np.ndarray:
    """Right-hand side ``M a`` with the truncation ``a_{N+1} = 0``."""
    a = np.asarray(a, dtype=float)
    beta = offdiagonal(a.size)
    return _apply_skew(beta, _skew_views(a, np.empty_like(a)), np.empty_like(beta))


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
    is advanced, under either method, by the trapezoid of the ``a_1``
    values before and after each step, so it is the discrete integral
    of the stepped flow, not a separate quadrature.

    The midpoint rule is ``errors._implicit_step`` on ``I - h/2 M``,
    padded with one decoupled identity mode (see the module docstring), so
    every N, 2 included, takes this one path.

    Parameters
    ----------
    a0 : LatticeState
    T, dt : float
        Horizon and step size; ``dt > 0`` always, the sign of T selects
        the direction.  ``round(|T| / dt)`` steps are taken; a nonzero T
        that rounds to zero steps is rejected, ``T = 0`` is the identity.
    sample_every : int
        Keep every k-th step in the trajectory (step 0 included).
    method : {"midpoint", "rk4"}
        "rk4" additionally requires ``dt <= 0.5 N**-1.5``.
    """
    n_modes = a0.n_modes
    if method == "rk4" and dt > _rk4_dt_cap(n_modes) * (1 + 1e-12):
        raise ValueError(
            f"rk4 needs dt <= 0.5 N^-1.5 = {_rk4_dt_cap(n_modes):.3e} at N={n_modes}"
        )
    if method not in ("midpoint", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    h = math.copysign(dt, T)
    beta = offdiagonal(n_modes)
    if method == "midpoint":
        # I - h/2 M with one decoupled identity mode appended (zero couplings,
        # diagonal 1); _march sees the first N entries of each state.  The skew
        # couplings take the sign path (or the LU path if dgttrf exchanges rows),
        # so D is 1 and the state marched is a itself
        y, step, _ = _implicit_step(np.append(0.5 * h * beta, 0.0), np.ones(n_modes + 1),
                                    np.append(-0.5 * h * beta, 0.0), a0.a, 0.0, fold=True)
    else:
        # work buffers, once per call: each step writes its state into ``y``,
        # a copy of a0.a, and its intermediates into the others, so a step
        # allocates nothing; the operations and their order are those of the
        # plain formulas
        y = a0.a.copy()
        prod = np.empty(n_modes - 1)
        k1, stage, k2, k3, k4 = (np.empty(n_modes) for _ in range(5))
        # the state is y at every step, so the slices of M y and of each
        # stage's M (y + c k) are cut once
        y_k1 = _skew_views(y, k1)
        stage_k2, stage_k3, stage_k4 = (_skew_views(stage, out) for out in (k2, k3, k4))

        def stage_rhs(kin, c, views):
            """``M (y + c kin)`` into the output of ``views``."""
            np.multiply(kin, c, out=stage)
            np.add(y, stage, out=stage)
            return _apply_skew(beta, views, prod)

        def step(a, k):  # a is y
            _apply_skew(beta, y_k1, prod)
            stage_rhs(k1, 0.5 * h, stage_k2)
            stage_rhs(k2, 0.5 * h, stage_k3)
            stage_rhs(k3, h, stage_k4)
            # y + h/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
            np.add(k1, np.multiply(k2, 2.0, out=k2), out=k1)
            np.add(k1, np.multiply(k3, 2.0, out=k3), out=k1)
            np.add(k1, k4, out=k1)
            np.multiply(k1, h / 6.0, out=k1)
            return np.add(y, k1, out=y)

    times, kept, states, sums, a1 = _march(step, y, a0.t, T, dt, sample_every, lambda a: a[0])
    # the running trapezoid of a_1, added in step order from c1 = 0
    c1 = np.cumsum(np.append(0.0, h * (a1[:-1] + a1[1:]) / (2.0 * np.sqrt(2.0))))
    return LatticeTrajectory(
        ts=times[kept],
        states=states,
        norms=np.sqrt(sums),  # np.linalg.norm(a) is sqrt(a.dot(a)), the same ddot
        c1=c1[kept],
    )


@dataclass(frozen=True)
class C1TrackResult:
    """c1 along a trajectory (evolve's step-level integral) plus the tracked pairing."""

    c1: np.ndarray
    conserved: np.ndarray   # 2 c1(t) + sum_{n>=2} c_n(t) f_n at the samples
    drift_abs: float
    drift_rel: float


def c1_track(c1_0: float, trajectory: LatticeTrajectory) -> C1TrackResult:
    """Offset the trajectory's c1 by ``c1_0`` and track the pairing.

    The pairing ``2 c1 + sum_{n>=2} c_n f_n`` is a conserved functional
    of the infinite system (for the truncated one it drifts once wave
    content reaches the edge; the relative drift is reported).  c1 is
    :func:`evolve`'s integral over every step, so sampling adds no error.
    """
    if trajectory.ts.size == 0:
        raise ValueError("trajectory is empty")
    c1 = c1_0 + trajectory.c1

    n_modes = trajectory.states.shape[1]
    f = projection_sequence(n_modes + 1)
    m = np.arange(1, n_modes + 1)
    pair_weights = f[m + 1] / np.sqrt(m)   # c_{m+1} f_{m+1} with c_{m+1} = a_m/sqrt(m)
    # one dot per row: a matrix-vector product sums a row in an order that
    # depends on its place in the matrix, so on how many samples are kept
    paired = np.array([np.dot(state, pair_weights) for state in trajectory.states])
    conserved = 2.0 * c1 + paired
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
    The quadrature reaches basis index ``n_modes + 1``, so ``n_modes`` is at
    most ``MAX_INDEX - 1``.
    """
    if n_modes > MAX_INDEX - 1:
        raise ValueError(f"n_modes {n_modes} above the gaussian bump's maximum {MAX_INDEX - 1}")
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
