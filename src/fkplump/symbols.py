"""Fourier multipliers on the rfft2 half-lattice of a grid.

Four real symbols are built here: the fractional x-dispersion |xi1|^alpha
(an (nx, 1) column) and, as read-only (nx, ny/2 + 1) arrays on the rfft2
half-lattice (see grid), the real part of the regularized Petviashvili
denominator 2(c + xi2^2/(xi1 + i*lambda)^2 + |xi1|^alpha) and the kernel
symbols

    m(xi1, xi2) = xi1^2 / (|xi|^2 + |xi1|^(alpha+2)),
    h(xi1, xi2) = xi1   / (|xi|^2 + |xi1|^(alpha+2)).

The singular 1/xi1^2 transverse term is regularized by the substitution
xi1 -> xi1 + i*lambda with lambda = 2.2e-16, applied uniformly at every
lattice point; for |xi1| >= pi/lx the perturbation is far below roundoff.
At the row xi1 = 0, xi2 != 0 the regularized denominator is enormous
(~ -2*xi2^2/lambda^2), so the iteration annihilates those modes; this is
the discrete form of the zero-mass constraint in x.

Only the real part of the denominator is kept (half_lattice_denominator).
It is real on the constrained row; elsewhere its imaginary part is at most
2*lambda/|xi1| of the real part, about 4e-14 at the smallest |xi1| =
pi/256 of the 2^10, lx = 256 desk grid, below the roundoff of the
transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/selftest.py checks that fkplump.symbols._frozen_array is the grid's.
from .grid import SpectralGrid, _frozen_array  # noqa: F401

#: Default regularization shift for the singular transverse symbol.
DEFAULT_LAMBDA = 2.2e-16

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
    lam : float
        Regularization shift for 1/xi1^2, default 2.2e-16.
    """

    alpha: float
    c: float = 1.0
    sigma: int = -1
    lam: float = DEFAULT_LAMBDA

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not np.isfinite(self.c) or self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c!r}")
        if self.sigma not in (-1, 1):
            raise ValueError(f"sigma must be -1 or +1, got {self.sigma!r}")
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam!r}")


def dispersion_symbol(grid: SpectralGrid, alpha: float) -> np.ndarray:
    """|xi1|^alpha as an (nx, 1) column, constant along the y-axis."""
    return np.abs(grid.xi1[:, None]) ** alpha


def _denominator(grid: SpectralGrid, p: SymbolParams) -> np.ndarray:
    """Regularized 2(c + xi2^2/(xi1 + i*lambda)^2 + |xi1|^alpha), complex, half-lattice."""
    if p.sigma != -1:
        raise UnsupportedEquationError(
            "sigma = +1 has no lump solutions; only sigma = -1 is supported"
        )
    xi1 = grid.xi1[:, None].astype(np.complex128)
    xi2 = grid.xi2_half[None, :]
    return 2.0 * (p.c + xi2**2 / (xi1 + 1j * p.lam) ** 2 + dispersion_symbol(grid, p.alpha))


def half_lattice_denominator(grid: SpectralGrid, p: SymbolParams) -> np.ndarray:
    """Denominator 2(c + xi2^2/xi1^2 + |xi1|^alpha) of the fixed-point map.

    The real part of the regularized complex symbol on the half-lattice, a
    contiguous read-only copy (a .real view would keep the complex array
    alive).

    Raises
    ------
    UnsupportedEquationError
        For sigma = +1 (no lump solutions exist in that regime).
    """
    denom = _denominator(grid, p).real.copy()
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
    xi2 != 0; the 0/0 at the origin resolves to 1 under the lambda
    regularization (the same value the Petviashvili denominator assigns
    the mean mode at c = 1).
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
