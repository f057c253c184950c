"""Eigenvalues of the Jacobi realization by Wronskian shooting.

Prints the located roots and the odd and even finite sections of J.
The trace and scan CSVs come from ``logkdv spectrum``.

Run:  python demos/03_jacobi_spectrum.py
"""

import numpy as np

from logkdv.hermite import fit_loglog_slope
from logkdv.jacobi import (
    find_eigenvalues,
    null_solution,
    shoot,
    truncated_matrix_eigenvalues,
    wronskian_trace,
)

# --- the boundary-condition sequence ----------------------------------------
v = null_solution(10_000)
print("null solution head: v_1, v_2, v_3 =", v.values[1:4])
print("null solution tail slope:", fit_loglog_slope(v.odd_part[1:]), "(expected -3/4)")

# --- a single Wronskian trace -------------------------------------------------
trace = wronskian_trace(1.0, 1000)
print("\ntrace at z=1: W_10 =", trace.values[10], " W_1000 =", trace.values[1000])
print("tail mean (biased):", trace.tail_mean, "   corrected limit:", trace.w_inf)

# --- scan and roots ------------------------------------------------------------
result = find_eigenvalues(z_min=0.05, z_max=20.0, scan_step=0.05, n_max=1000)
print("\neigenvalues z_k:", np.round(result.eigenvalues, 5))
print("doubled (E_k = 2 z_k):", np.round(2 * result.eigenvalues, 5))
print("A-sequence tail slopes:", np.round(result.decay_exponents_a, 4))
print("B-sequence tail slopes:", np.round(result.decay_exponents_b, 4))

# off an eigenvalue the even entries decay at the generic -3/4 rate instead
state = shoot(1.0, 10_000)
print("generic B slope at z=1:", fit_loglog_slope(state.B[1:]))

# --- finite sections of J -------------------------------------------------------
# even N realizes a different extension, whose eigenvalues interlace the roots;
# odd N imposes W_N(v, f) = 0 and converges to the roots like N^(-1/2)
ev = truncated_matrix_eigenvalues(1600, z_max=12.0)
print("\neven N = 1600, eigenvalues below 12:", np.round(ev, 4))
print("(they interlace the Wronskian roots; they do not converge to them)")
for n in (401, 1601, 6401):
    ev = truncated_matrix_eigenvalues(n, z_max=8.0)
    print(f"odd N = {n}: z1(N) - z1 = {ev[0] - result.eigenvalues[0]:.4f}")
print("(the gap halves when N quadruples: order N^(-1/2))")
print("write the trace and scan CSVs with: logkdv spectrum --outdir out")
