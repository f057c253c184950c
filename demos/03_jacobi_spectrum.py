"""Eigenvalues of the Jacobi realization by Wronskian shooting.

Writes wronskian_trace.csv and wronskian_scan.csv next to the script
output directory (current directory) and prints the located roots.

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
np.savetxt(
    "wronskian_trace.csv",
    np.column_stack([np.arange(1, 1001), trace.values[1:]]),
    delimiter=",",
    header="n,W_n",
    comments="",
)

# --- scan and roots ------------------------------------------------------------
result = find_eigenvalues(z_min=0.05, z_max=20.0, scan_step=0.05, n_max=1000)
np.savetxt(
    "wronskian_scan.csv",
    np.column_stack([result.scan_z, result.scan_w]),
    delimiter=",",
    header="z,W_inf",
    comments="",
)
print("\neigenvalues z_k:", np.round(result.eigenvalues, 5))
print("doubled (E_k = 2 z_k):", np.round(2 * result.eigenvalues, 5))
print("A-sequence tail slopes:", np.round(result.decay_exponents_a, 4))
print("B-sequence tail slopes:", np.round(result.decay_exponents_b, 4))

# off an eigenvalue the even entries decay at the generic -3/4 rate instead
state = shoot(1.0, 10_000)
print("generic B slope at z=1:", fit_loglog_slope(state.B[1:]))

# --- the Dirichlet truncation realizes a different extension -------------------
ev = truncated_matrix_eigenvalues(1600, z_max=12.0)
print("\ntruncated-matrix eigenvalues below 12:", np.round(ev, 4))
print("(they interlace the Wronskian roots; they do not converge to them)")
