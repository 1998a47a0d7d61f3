"""Fourier multipliers on the rfft2 half-lattice of a grid.

Four real symbols are built here: the fractional x-dispersion |xi1|^alpha
(an (nx, 1) column) and, as read-only (nx, ny/2 + 1) arrays on the rfft2
half-lattice (see grid), the Petviashvili denominator
2(c + xi2^2/xi1^2 + |xi1|^alpha) and the kernel symbols

    m(xi1, xi2) = xi1^2 / (|xi|^2 + |xi1|^(alpha+2)),
    h(xi1, xi2) = xi1   / (|xi|^2 + |xi1|^(alpha+2)).

The transverse term xi2^2/xi1^2 is infinite on the constrained row
xi1 = 0, xi2 != 0.  Those modes lie outside the energy space, which
requires dx^-1 dy phi in L^2: the solver's SteadyOperator projects the row
out exactly, so no regularization of 1/xi1^2 is needed anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/selftest.py checks that fkplump.symbols._frozen_array is the grid's.
from .grid import SpectralGrid, _frozen_array  # noqa: F401

#: Existence threshold: no nontrivial lumps for alpha <= 4/5.
ALPHA_ENERGY_CRITICAL = 0.8


class UnsupportedEquationError(ValueError):
    """sigma = +1 requested: the weak-surface-tension variant has no lumps."""


@dataclass(frozen=True)
class SymbolParams:
    """Parameters of the steady-wave symbols.

    Attributes
    ----------
    alpha : float
        Fractional dispersion order; must be positive.  Solver entry points
        additionally require alpha > 4/5 unless explicitly overridden.
    c : float
        Wave speed, positive.
    sigma : int
        -1 for the strong-surface-tension equation (the only one with lump
        solutions); +1 is rejected by every solver path.
    """

    alpha: float
    c: float = 1.0
    sigma: int = -1

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not np.isfinite(self.c) or self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c!r}")
        if self.sigma not in (-1, 1):
            raise ValueError(f"sigma must be -1 or +1, got {self.sigma!r}")


def dispersion_symbol(grid: SpectralGrid, alpha: float) -> np.ndarray:
    """|xi1|^alpha as an (nx, 1) column, constant along the y-axis."""
    return np.abs(grid.xi1[:, None]) ** alpha


def half_lattice_denominator(grid: SpectralGrid, p: SymbolParams) -> np.ndarray:
    """Denominator 2(c + xi2^2/xi1^2 + |xi1|^alpha) of the fixed-point map, read-only.

    On the constrained row xi1 = 0, xi2 != 0 the transverse term is taken
    as 0 (the 0-where-undefined convention of the kernel symbols), so D is
    finite there; SteadyOperator projects that row out of the iteration.

    Raises
    ------
    UnsupportedEquationError
        For sigma = +1 (no lump solutions exist in that regime).
    """
    if p.sigma != -1:
        raise UnsupportedEquationError(
            "sigma = +1 has no lump solutions; only sigma = -1 is supported"
        )
    xi1sq = grid.xi1[:, None] ** 2
    xi2sq = grid.xi2_half[None, :] ** 2
    shape = (grid.nx, grid.xi2_half.size)
    transverse = np.divide(xi2sq, xi1sq, out=np.zeros(shape), where=xi1sq > 0)
    denom = 2.0 * (p.c + transverse + dispersion_symbol(grid, p.alpha))
    denom.setflags(write=False)
    return denom


def _kernel_symbol(grid: SpectralGrid, alpha: float, xi1_power: int) -> np.ndarray:
    """xi1^xi1_power / (|xi|^2 + |xi1|^(alpha+2)) on the half-lattice, 0 where 0/0."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    xi1 = grid.xi1[:, None]
    xi2 = grid.xi2_half[None, :]
    num = (xi1**xi1_power) * np.ones((1, xi2.size))
    den = xi1**2 + xi2**2 + np.abs(xi1) ** (alpha + 2.0)
    return np.divide(num, den, out=np.zeros_like(den), where=den > 0)


def symbol_m(grid: SpectralGrid, alpha: float) -> np.ndarray:
    """Kernel symbol m = xi1^2 / (|xi|^2 + |xi1|^(alpha+2)), read-only half-lattice.

    Real-valued, 0 <= m <= 1.  The row xi1 = 0 is exactly zero for
    xi2 != 0; the 0/0 at the origin is set to 1, the value 2/D that the
    Petviashvili denominator gives the mean mode at c = 1.
    """
    values = _kernel_symbol(grid, alpha, 2)
    values[0, 0] = 1.0
    values.setflags(write=False)
    return values


def symbol_h(grid: SpectralGrid, alpha: float) -> np.ndarray:
    """Kernel symbol h = xi1 / (|xi|^2 + |xi1|^(alpha+2)), odd in xi1, read-only half-lattice.

    The whole row xi1 = 0 (origin included) is set to zero, the odd-symbol
    convention; every other lattice point is the plain quotient.
    """
    values = _kernel_symbol(grid, alpha, 1)
    values[0, :] = 0.0
    values.setflags(write=False)
    return values
