"""Numerical toolkit for the linearized log-KdV equation at Gaussian solitary waves.

Submodules
----------
hermite
    Scaled Hermite eigenfunctions of the harmonic Schrodinger operator,
    the closed-form projection sequence and the coupling weights.
coercivity
    Energy and compatible-norm quadratic forms in coefficient space; the
    constrained coercivity constant.
jacobi
    The Jacobi difference operator, its null solution, the shooting
    recursion, and eigenvalues via zeros of the limiting Wronskian.
lattice
    Norm-conserving integration of the equivalent skew-symmetric lattice
    system, with tracking of the decoupled translational projection.
halfline
    The dissipative evolution of the Gaussian-convolution kernel on the
    half-line, with modulation equations and conserved constraint.
reconstruct
    Synthesis back to physical space: coefficient sums, eigenprofiles,
    and the convolution representation.
cli
    Reproducible command-line experiments writing CSV/JSON outputs;
    imported on first access, so ``python -m logkdv.cli`` runs it fresh.
"""

import importlib

from . import coercivity, halfline, hermite, jacobi, lattice, reconstruct
from .errors import NumericalError

__all__ = [
    "NumericalError",
    "cli",
    "coercivity",
    "halfline",
    "hermite",
    "jacobi",
    "lattice",
    "reconstruct",
]

__version__ = "0.1.0"


def __getattr__(name):
    # import_module, not ``from . import cli``: the from-import looks the
    # attribute up first and would recurse into this function
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
