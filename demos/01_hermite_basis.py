"""Walk through the Hermite basis layer: evaluation, orthonormality, sequences.

Run:  python demos/01_hermite_basis.py
"""

import numpy as np

from logkdv.hermite import (
    RealGrid,
    basis_rows,
    fit_loglog_slope,
    ground_state_antiderivative,
    hermite_derivative,
    hermite_function,
    projection_sequence,
)
from logkdv.jacobi import null_solution

# --- point evaluation through the stable recurrence ------------------------
print("u_0(0)   =", hermite_function(0, 0.0), " (= (2 pi)^(-1/4))")
print("u_1(0)   =", hermite_function(1, 0.0), " (odd function)")
print("u_2(0)   =", hermite_function(2, 0.0))
print("u_500(5) =", hermite_function(500, 5.0), " (no overflow at large index)")
print("u_4000(60) =", hermite_function(4000, 60.0), " (far beyond Gaussian underflow)")

# --- orthonormality under the grid quadrature ------------------------------
grid = RealGrid.uniform()
rows = np.array([row for _, row in basis_rows(grid.nodes, 20)])
gram = (rows * grid.weights) @ rows.T
print("\nmax |<u_m, u_n> - delta_mn| for m, n <= 20:", np.abs(gram - np.eye(21)).max())

# --- the ladder relation for derivatives ------------------------------------
x = 0.7
fd = (hermite_function(3, x + 1e-6) - hermite_function(3, x - 1e-6)) / 2e-6
print("\nu_3'(0.7) ladder:", hermite_derivative(3, x), " finite difference:", fd)

# --- the Jacobi null solution is a rescaling of the projections ------------
# |v_{2m+1}| = prod_k sqrt(2k-1)/sqrt(2k+2) = f_{2m} / sqrt(2 pi (m+1))
m_max = 20_000
v_odd = null_solution(m_max).odd_part[1:]  # v_1, v_3, ..., v_{2 m_max + 1}
k = np.arange(1, m_max + 1, dtype=float)
naive = np.concatenate(([1.0], np.cumprod(np.sqrt(2 * k - 1) / np.sqrt(2 * k + 2))))
print(f"\nnull solution: max relative gap to a plain running product, m <= {m_max}:",
      np.abs(np.abs(v_odd) / naive - 1.0).max())
slope = fit_loglog_slope(v_odd, tail_fraction=0.5)
print(f"tail slope of |v_(2m+1)|: {slope:+.4f}  (expected -3/4: -1/4 from f_2m, -1/2 from sqrt)")

# --- projections of the antiderivative of u_0 -------------------------------
f = projection_sequence(2000)
print("\nf_0 =", f[0], " (sqrt(2 pi) =", np.sqrt(2 * np.pi), ")")
print("f_1 =", f[1])
print("f_2 =", f[2], " (sqrt(pi) =", np.sqrt(np.pi), ")")
slope = fit_loglog_slope(f[100:], positions=np.arange(100, 2001), tail_fraction=1.0)
print("tail slope of f_n:", slope, " (expected -1/4)")

# cross-check f_2 by explicit quadrature against the cumulative antiderivative
qgrid = RealGrid.uniform(x_max=20.0, num=4001)
antider = ground_state_antiderivative(qgrid)
f2_quad = qgrid.inner(antider, hermite_function(2, qgrid.nodes))
print("f_2 by quadrature:", f2_quad, " |difference| =", abs(f2_quad - f[2]))
