"""Fourier multipliers on the rfft2 half-lattice of a grid, and the rules behind them.

Each symbol decision is made here once.  kernel_symbol is the pointwise

    m(xi1, xi2) = xi1^2 / (|xi|^2 + |xi1|^(alpha+2)),
    h(xi1, xi2) = xi1   / (|xi|^2 + |xi1|^(alpha+2)),

transverse_multiplier is xi2/xi1, the multiplier of dx^-1 dy, and
SymbolParams checks that alpha and c are finite and positive.  On the
half-lattice (see grid) the module builds |xi1|^alpha as an (nx, 1) column
and, read-only, m, h and the Petviashvili denominator
2(c + (xi2/xi1)^2 + |xi1|^alpha).  xi2/xi1 is undefined on the constrained
row xi1 = 0, xi2 != 0.  Those modes lie outside the energy space, which
requires dx^-1 dy phi in L^2, so the multiplier is 0 there and the
solver's SteadyOperator projects the row out exactly.
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
        Fractional dispersion order; must be finite and positive.  Solver
        entry points additionally require alpha > 4/5 unless overridden.
    c : float
        Wave speed; must be finite and positive.
    sigma : int
        -1 for the strong-surface-tension equation (the only one with lump
        solutions); +1 is rejected by every solver path.
    """

    alpha: float
    c: float = 1.0
    sigma: int = -1

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha!r}")
        if not np.isfinite(self.c) or self.c <= 0:
            raise ValueError(f"c must be finite and positive, got {self.c!r}")
        if self.sigma not in (-1, 1):
            raise ValueError(f"sigma must be -1 or +1, got {self.sigma!r}")


def dispersion_symbol(grid: SpectralGrid, alpha: float) -> np.ndarray:
    """|xi1|^alpha as an (nx, 1) column, constant along the y-axis."""
    return np.abs(grid.xi1[:, None]) ** alpha


def kernel_symbol(xi1: np.ndarray, xi2: np.ndarray, alpha: float, which: str) -> np.ndarray:
    """xi1^k / (xi1^2 + xi2^2 + |xi1|^(alpha+2)), k = 2 for "m" and 1 for "h"; 0 where 0/0."""
    if which not in ("m", "h"):
        raise ValueError(f"which must be 'm' or 'h', got {which!r}")
    den = xi1**2 + xi2**2 + np.abs(xi1) ** (alpha + 2.0)
    num = xi1 ** (2 if which == "m" else 1)
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0)


def transverse_multiplier(grid: SpectralGrid) -> np.ndarray:
    """Multiplier xi2/xi1 of dx^-1 dy on the half-lattice, 0 on the constrained row xi1 = 0."""
    xi1 = grid.xi1[:, None]
    shape = (grid.nx, grid.xi2_half.size)
    return np.divide(grid.xi2_half[None, :], xi1, out=np.zeros(shape), where=xi1 != 0)


def half_lattice_denominator(grid: SpectralGrid, p: SymbolParams) -> np.ndarray:
    """Denominator 2(c + T^2 + |xi1|^alpha) of the fixed-point map, read-only.

    T is the transverse multiplier, 0 on the constrained row xi1 = 0, so D
    is finite there; SteadyOperator projects that row out of the iteration.

    Raises
    ------
    UnsupportedEquationError
        For sigma = +1 (no lump solutions exist in that regime).
    """
    if p.sigma != -1:
        raise UnsupportedEquationError(
            "sigma = +1 has no lump solutions; only sigma = -1 is supported"
        )
    transverse = transverse_multiplier(grid) ** 2
    denom = 2.0 * (p.c + transverse + dispersion_symbol(grid, p.alpha))
    denom.setflags(write=False)
    return denom


def symbol_m(grid: SpectralGrid, alpha: float) -> np.ndarray:
    """Kernel symbol m = xi1^2 / (|xi|^2 + |xi1|^(alpha+2)), read-only half-lattice.

    Real-valued, 0 <= m <= 1.  The row xi1 = 0 is exactly zero for
    xi2 != 0; the 0/0 at the origin is set to 1, the value 2/D that the
    Petviashvili denominator gives the mean mode at c = 1.
    """
    SymbolParams(alpha)  # raises unless alpha is finite and positive
    values = kernel_symbol(grid.xi1[:, None], grid.xi2_half[None, :], alpha, "m")
    values[0, 0] = 1.0
    values.setflags(write=False)
    return values


def symbol_h(grid: SpectralGrid, alpha: float) -> np.ndarray:
    """Kernel symbol h = xi1 / (|xi|^2 + |xi1|^(alpha+2)), odd in xi1, read-only half-lattice.

    The whole row xi1 = 0 (origin included) is zero, the odd-symbol
    convention that the formula gives there.
    """
    SymbolParams(alpha)  # raises unless alpha is finite and positive
    values = kernel_symbol(grid.xi1[:, None], grid.xi2_half[None, :], alpha, "h")
    values.setflags(write=False)
    return values
