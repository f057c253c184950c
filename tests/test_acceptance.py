"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced (without ``-s`` they still appear in captured output).
"""

import math

import numpy as np

from logkdv.coercivity import (
    c0_constant,
    c0_tail_estimate,
    coercivity_constant,
    compat_norm_form,
    energy_form,
    random_constrained_coefficients,
)
from logkdv.hermite import (
    RealGrid,
    basis_rows,
    fit_loglog_slope,
    ground_state_antiderivative,
    hermite_derivative,
    hermite_function,
    projection_sequence,
)
from logkdv.jacobi import null_solution, shoot
from logkdv.lattice import evolve, initial_gaussian_bump as lattice_bump


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_eigenvalue_reproduction(spectrum):
    z = spectrum.eigenvalues
    ok = (
        z.size == 2
        and abs(z[0] - 2.7054) <= 1e-3
        and abs(z[1] - 6.1540) <= 1e-3
        and abs(2 * z[0] - 5.4109) <= 2e-3
        and abs(2 * z[1] - 12.3080) <= 2e-3
    )
    report(
        "criterion 1 (eigenvalues z1, z2)",
        ok,
        f"z1={z[0]:.5f} (ref 2.7054), z2={z[1]:.5f} (ref 6.1540), tol 1e-3",
    )


def test_criterion_2_projection_constants():
    f = projection_sequence(20)
    head_ok = abs(f[0] - math.sqrt(2 * math.pi)) < 1e-12 and abs(f[1] - 2.0) < 1e-12
    grid = RealGrid.uniform(x_max=20.0, num=4001)
    antider = ground_state_antiderivative(grid)
    worst = 0.0
    for n, row in basis_rows(grid.nodes, 20):
        worst = max(worst, abs(grid.inner(antider, row) - f[n]))
    report(
        "criterion 2 (projection constants)",
        head_ok and worst < 1e-8,
        f"f0-sqrt(2pi)={f[0] - math.sqrt(2 * math.pi):.2e}, f1-2={f[1] - 2.0:.2e}, "
        f"max quadrature mismatch={worst:.2e} (tol 1e-8)",
    )


def test_criterion_3_decay_exponents(spectrum):
    m_max = 10_000
    z1 = float(spectrum.eigenvalues[0])
    s_null = fit_loglog_slope(null_solution(m_max).odd_part[1:])
    state = shoot(z1, m_max)
    s_a = fit_loglog_slope(state.A[1:-1])
    s_b = fit_loglog_slope(state.B[1:])
    ok = (
        abs(s_null + 0.75) <= 0.05
        and abs(s_a + 0.75) <= 0.05
        and abs(s_b + 1.25) <= 0.1
    )
    report(
        "criterion 3 (decay exponents)",
        ok,
        f"null={s_null:.4f} (ref -0.75+-0.05), A={s_a:.4f} (ref -0.75+-0.05), "
        f"B={s_b:.4f} (ref -1.25+-0.1)",
    )


def test_criterion_4_norm_conservation():
    state = lattice_bump(400)
    traj = evolve(state, T=10.0, dt=1e-3, sample_every=1)
    drift_mp = float(np.abs(traj.norms / traj.norms[0] - 1.0).max())

    dt_rk4 = 0.25 * 400**-1.5
    steps = int(math.ceil(10.0 / dt_rk4))
    traj_rk4 = evolve(state, T=steps * dt_rk4, dt=dt_rk4, sample_every=2000, method="rk4")
    drift_rk4 = float(np.abs(traj_rk4.norms / traj_rk4.norms[0] - 1.0).max())
    ok = drift_mp <= 1e-8 and drift_rk4 < 1e-6
    report(
        "criterion 4 (lattice norm conservation)",
        ok,
        f"midpoint drift={drift_mp:.2e} (tol 1e-8), rk4 drift={drift_rk4:.2e} (tol 1e-6)",
    )


def test_criterion_5_dissipative_decay(coupled_flow):
    flow, mod = coupled_flow  # the bump with A = 0 data, from conftest
    t = flow.step_ts
    ratio = (flow.step_l2 / flow.step_l2[0]) ** 2 / np.exp(-t)
    monotone = bool(np.all(np.diff(flow.step_l2) <= flow.step_l2[:-1] * 1e-10))

    drift = float(np.abs(mod.A - mod.A[0]).max())
    a_bound = 1.1 * math.sqrt(math.pi) * flow.step_l2[0] ** 2 * np.exp(-mod.ts)
    a_ok = bool(np.all(mod.a**2 <= a_bound))
    ok = ratio.max() <= 1.05 and monotone and drift < 1e-6 * (1 + abs(mod.A[0])) and a_ok
    report(
        "criterion 5 (dissipative decay)",
        ok,
        f"max ratio to e^-t={ratio.max():.4f} (tol 1.05), monotone={monotone}, "
        f"A drift={drift:.2e} (tol 1e-6), a-bound held={a_ok}",
    )


def test_criterion_6_coercivity():
    c200 = coercivity_constant(200)
    c400 = coercivity_constant(400)
    stable = abs(c200 - c400) < 1e-3
    inside = 0.0 < c400 < 1.0

    rng = np.random.default_rng(2024)
    samples = random_constrained_coefficients(400, rng, size=1000)
    c0_full = c0_constant(400) + c0_tail_estimate(400)
    coercive = True
    c1_bounded = True
    for c in samples:
        e = energy_form(c)
        coercive &= e >= c400 * compat_norm_form(c) * (1 - 1e-12)
        c1_bounded &= 4.0 * c[1] ** 2 <= c0_full * e * (1 + 1e-12)
    ok = inside and stable and coercive and c1_bounded
    report(
        "criterion 6 (coercivity constant)",
        ok,
        f"C(200)={c200:.6f}, C(400)={c400:.6f}, |diff|={abs(c200 - c400):.2e} "
        f"(tol 1e-3); 1000 samples: coercive={coercive}, c1 bound={c1_bounded}",
    )


def test_criterion_7_basis_integrity():
    grid = RealGrid.uniform()
    rows = np.array([row for _, row in basis_rows(grid.nodes, 20)])
    gram = (rows * grid.weights) @ rows.T
    ortho = float(np.abs(gram - np.eye(21)).max())

    x = np.arange(-8.0, 8.0 + 1e-12, 0.01)
    h = 0.01
    eig_resid = 0.0
    for n in range(11):
        u = hermite_function(n, x)
        upp = (-u[4:] + 16 * u[3:-1] - 30 * u[2:-2] + 16 * u[1:-3] - u[:-4]) / (
            12 * h * h
        )
        resid = -upp + 0.25 * (x[2:-2] ** 2 - 6.0) * u[2:-2] - (n - 1) * u[2:-2]
        eig_resid = max(eig_resid, float(np.abs(resid).max()))

    hd = 1e-5
    deriv_err = 0.0
    for n in (0, 1, 3, 7, 12):
        for xv in (-2.3, 0.0, 0.7, 3.1):
            fd = (hermite_function(n, xv + hd) - hermite_function(n, xv - hd)) / (2 * hd)
            deriv_err = max(deriv_err, abs(hermite_derivative(n, xv) - fd))

    ok = ortho < 1e-8 and eig_resid < 1e-6 and deriv_err < 1e-6
    report(
        "criterion 7 (basis integrity)",
        ok,
        f"orthonormality={ortho:.2e} (tol 1e-8), eigenrelation={eig_resid:.2e} "
        f"(tol 1e-6), derivative vs FD={deriv_err:.2e} (tol 1e-6)",
    )


def test_criterion_8_figure_reproduction(spectrum):
    from logkdv.jacobi import wronskian_trace

    trace = wronskian_trace(1.0, 1000)
    tail = trace.values[-300:]
    sign_definite = bool(np.all(tail > 0) or np.all(tail < 0))
    plateau = trace.plateau_spread < 0.05 * abs(trace.tail_mean)

    signs = np.sign(spectrum.scan_w)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    brackets = [
        (spectrum.scan_z[i], spectrum.scan_z[i + 1]) for i in flips
    ]
    roots = spectrum.eigenvalues
    bracketing = len(brackets) == roots.size and all(
        lo <= z <= hi for (lo, hi), z in zip(brackets, roots)
    )
    ok = sign_definite and plateau and bracketing
    report(
        "criterion 8 (figure reproduction)",
        ok,
        f"trace at z=1 sign-definite={sign_definite}, plateau={plateau}; "
        f"scan sign changes={len(brackets)} bracket the {roots.size} roots={bracketing}",
    )
