"""Pseudospectral computation of fractional KP-I lump solutions.

A Petviashvili-iteration solver on periodic 2D grids, together with the
diagnostics used to validate its output: steady-equation residuals,
cross-sectional symmetry, exact quadratic spatial decay, and the
integrability and decay of the associated convolution kernels.
"""

__version__ = "0.1.0"

from .analysis import (
    DecayProfile,
    SymmetryReport,
    cross_section,
    decay_profile,
    symmetry_report,
)
from .diagnostics import FunctionalValues, fourier_tail, functionals, residual
from .fieldio import LoadedField, load_field, save_field
from .grid import RealField, SpectralGrid
from .kernels import (
    IntegrabilityProbe,
    build_kernel,
    convolve,
    integrability_probe,
    kernel_decay,
)
from .reference import ExactLumpParams, exact_kp1_lump, gaussian_seed, rescale_solution
from .solver import (
    IterationReport,
    SeedSpec,
    SolveStatus,
    SolverConfig,
    SteadyOperator,
    solve,
)
from .symbols import SymbolParams, symbol_h, symbol_m

__all__ = [
    "DecayProfile",
    "ExactLumpParams",
    "FunctionalValues",
    "IntegrabilityProbe",
    "IterationReport",
    "LoadedField",
    "RealField",
    "SeedSpec",
    "SolveStatus",
    "SolverConfig",
    "SpectralGrid",
    "SteadyOperator",
    "SymbolParams",
    "SymmetryReport",
    "build_kernel",
    "convolve",
    "cross_section",
    "decay_profile",
    "exact_kp1_lump",
    "fourier_tail",
    "functionals",
    "gaussian_seed",
    "integrability_probe",
    "kernel_decay",
    "load_field",
    "rescale_solution",
    "residual",
    "save_field",
    "solve",
    "symbol_h",
    "symbol_m",
    "symmetry_report",
]
