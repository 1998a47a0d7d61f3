"""Full-lattice complex reference formulas that the half-lattice code is checked against."""

import numpy as np

from fkplump.symbols import dispersion_symbol


def complex_denominator(grid, p):
    """Regularized 2(c + xi2^2/(xi1 + i*lambda)^2 + |xi1|^alpha) on the full (nx, ny) lattice.

    The complex Petviashvili denominator; the solver's real half-lattice D
    is the real part of its first ny/2 + 1 columns.
    """
    xi1 = grid.xi1[:, None].astype(np.complex128)
    xi2 = grid.xi2[None, :]
    return 2.0 * (p.c + xi2**2 / (xi1 + 1j * p.lam) ** 2 + dispersion_symbol(grid, p.alpha))
