"""Dissipative half-line flow: decay rates, constraint, modulation scalars.

Run:  python demos/05_dissipative_halfline.py
"""

import numpy as np

from logkdv.halfline import (
    HalfLineGrid,
    assemble_H,
    evolve_dissipative,
    flux_boundary_value,
    gaussian_weight,
    initial_gaussian_bump,
    modulation_integrate,
)

grid = HalfLineGrid(extent=40.0, spacing=0.02)
w0 = initial_gaussian_bump(grid)

# --- the operator is dissipative on the grid ---------------------------------
H = assemble_H(grid)
qw = grid.weights
form = np.dot(qw * w0.w, H @ w0.w) / np.dot(qw * w0.w, w0.w)
print("quadratic form <Hw,w>/||w||^2 on the bump:", form, "(must be <= -1/2)")
print("flux boundary value vs raw node value:",
      flux_boundary_value(H, grid, w0.w), w0.w[-1])

# --- evolve and report the decay ----------------------------------------------
flow = evolve_dissipative(w0, T=5.0, dt=1e-3, sample_every=250)
l2 = np.array([grid.norm(w) for w in flow.states])
print("\n   t     ||w||^2/||w0||^2      e^-t")
for t, n in zip(flow.ts, l2):
    print(f"  {t:4.1f}   {n**2 / l2[0]**2:12.4e}   {np.exp(-t):10.4e}")
print("monotone:", bool(np.all(np.diff(flow.step_l2) <= 0)))

# --- modulation scalars with zero total constraint -----------------------------
a0 = -grid.integrate(gaussian_weight(grid) * w0.w)
mod = modulation_integrate(flow, a0, 0.0)
print("\nconstraint drift |A(t) - A(0)|:", np.abs(mod.A - mod.A[0]).max())
print("decay margin max |a|^2 / (sqrt(pi)||w0||^2 e^-t):",
      (mod.a**2 / (np.sqrt(np.pi) * l2[0] ** 2 * np.exp(-mod.ts))).max())
print("b(T) =", mod.b[-1], "  b_inf =", mod.b_inf)
