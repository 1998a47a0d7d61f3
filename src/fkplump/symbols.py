"""Fourier multipliers on a grid's wavenumber lattice.

Four symbols are built here: the fractional x-dispersion |xi1|^alpha, the
regularized Petviashvili denominator 2(c + xi2^2/(xi1 + i*lambda)^2 +
|xi1|^alpha), and the kernel symbols

    m(xi1, xi2) = xi1^2 / (|xi|^2 + |xi1|^(alpha+2)),
    h(xi1, xi2) = xi1   / (|xi|^2 + |xi1|^(alpha+2)).

The singular 1/xi1^2 transverse term is regularized by the substitution
xi1 -> xi1 + i*lambda with lambda = 2.2e-16, applied uniformly at every
lattice point; for |xi1| >= pi/lx the perturbation is far below roundoff.
At the row xi1 = 0, xi2 != 0 the regularized denominator is enormous
(~ -2*xi2^2/lambda^2), so the iteration annihilates those modes; this is
the discrete form of the zero-mass constraint in x.

The solver keeps only the real part of the denominator, on the rfft2
half-lattice (half_lattice_denominator).  It is real on the constrained
row; elsewhere its imaginary part is at most 2*lambda/|xi1| of the real
part, about 4e-14 at the smallest |xi1| = pi/256 of the 2^10, lx = 256
desk grid, below the roundoff of the transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridMismatchError, RealField, SpectralGrid, _frozen_array, fft2, ifft2

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


@dataclass(frozen=True)
class MultiplierField:
    """A Fourier multiplier evaluated on the full wavenumber lattice."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.values, np.complex128, self.grid.shape, "values")
        if not np.all(np.isfinite(arr)):
            raise ValueError("multiplier values must be finite everywhere")
        object.__setattr__(self, "values", arr)


def dispersion_symbol(grid: SpectralGrid, alpha: float) -> np.ndarray:
    """|xi1|^alpha as an (nx, 1) column, constant along the y-axis."""
    return np.abs(grid.xi1[:, None]) ** alpha


def _denominator(grid: SpectralGrid, p: SymbolParams, columns: int) -> np.ndarray:
    """Regularized 2(c + xi2^2/(xi1 + i*lambda)^2 + |xi1|^alpha), first y-columns."""
    if p.sigma != -1:
        raise UnsupportedEquationError(
            "sigma = +1 has no lump solutions; only sigma = -1 is supported"
        )
    xi1 = grid.xi1[:, None].astype(np.complex128)
    xi2 = grid.xi2[None, :columns]
    return 2.0 * (p.c + xi2**2 / (xi1 + 1j * p.lam) ** 2 + dispersion_symbol(grid, p.alpha))


def petviashvili_denominator(grid: SpectralGrid, p: SymbolParams) -> MultiplierField:
    """Denominator 2(c + xi2^2/xi1^2 + |xi1|^alpha) of the fixed-point map.

    Raises
    ------
    UnsupportedEquationError
        For sigma = +1 (no lump solutions exist in that regime).
    """
    return MultiplierField(grid, _denominator(grid, p, grid.ny))


def half_lattice_denominator(grid: SpectralGrid, p: SymbolParams) -> np.ndarray:
    """Real part of the denominator on the rfft2 half-lattice, (nx, ny/2 + 1).

    A contiguous copy: the .real view would keep the complex array alive.
    Raises UnsupportedEquationError for sigma = +1, as the full one does.
    """
    return _denominator(grid, p, grid.ny // 2 + 1).real.copy()


def _kernel_denominator(grid: SpectralGrid, alpha: float, c: float) -> np.ndarray:
    xi1 = grid.xi1[:, None]
    xi2 = grid.xi2[None, :]
    return c * xi1**2 + xi2**2 + np.abs(xi1) ** (alpha + 2.0)


def symbol_m(grid: SpectralGrid, alpha: float) -> MultiplierField:
    """Kernel symbol m = xi1^2 / (|xi|^2 + |xi1|^(alpha+2)).

    Real-valued on the lattice, 0 <= m <= 1.  The row xi1 = 0 is exactly
    zero for xi2 != 0; the 0/0 at the origin resolves to 1 under the
    lambda regularization (the same value the Petviashvili denominator
    assigns the mean mode at c = 1).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    xi1 = grid.xi1[:, None]
    num = (xi1**2) * np.ones((1, grid.ny))
    den = _kernel_denominator(grid, alpha, 1.0)
    values = np.divide(num, den, out=np.zeros_like(den), where=den > 0)
    values[0, 0] = 1.0
    return MultiplierField(grid, values.astype(np.complex128))


def symbol_h(grid: SpectralGrid, alpha: float) -> MultiplierField:
    """Kernel symbol h = xi1 / (|xi|^2 + |xi1|^(alpha+2)), odd in xi1.

    The whole row xi1 = 0 (origin included) is set to zero, the odd-symbol
    convention; every other lattice point is the plain quotient.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    xi1 = grid.xi1[:, None]
    num = xi1 * np.ones((1, grid.ny))
    den = _kernel_denominator(grid, alpha, 1.0)
    values = np.divide(num, den, out=np.zeros_like(den), where=den > 0)
    values[0, :] = 0.0
    return MultiplierField(grid, values.astype(np.complex128))


def apply_multiplier(f: RealField, m: MultiplierField) -> RealField:
    """Apply a Fourier multiplier to a real field spectrally.

    Computes the inverse transform of m * fft(f) and returns the real part;
    the imaginary residue is a symmetry check inherited from the grid
    module when m is the symbol of a real operator.

    Raises
    ------
    GridMismatchError
        If the field and multiplier live on different grids.
    """
    if f.grid != m.grid:
        raise GridMismatchError("field and multiplier are on different grids")
    z = ifft2(m.values * fft2(f.values))
    return RealField(f.grid, z.real)
