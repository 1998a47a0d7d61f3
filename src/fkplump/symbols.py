"""Fourier multipliers of the steady-wave problem, and the rules behind them.

Each symbol decision is made here once, as a pointwise formula of
wavenumber arrays that broadcast, so that each layout (see grid) builds
it on its own rows.  kernel_symbol is

    m(xi1, xi2) = xi1^2 / (|xi|^2 + |xi1|^(alpha+2)),
    h(xi1, xi2) = xi1   / (|xi|^2 + |xi1|^(alpha+2)),

and symbol_m/symbol_h sample it, read-only, on the rfft2 half-lattice.
transverse_multiplier is xi2/xi1, the multiplier of dx^-1 dy.  It is
undefined on the constrained row xi1 = 0, xi2 != 0, whose modes lie
outside the energy space (dx^-1 dy phi in L^2), so it is 0 there and the
solver's SteadyOperator projects the row out; symbol_t samples it, and
SteadyOperator.denominator forms the same quotient inline per row block.  A
symbol odd in xi1 (h, t) or xi2 (t) is 0 on the Nyquist row k1 = -nx/2 or
column k2 = ny/2, modes that are their own mirrors, so that it keeps the
conjugate symmetry of a real field's spectrum.  SymbolParams checks that
alpha and c are finite and positive, and dispersion_symbol that |xi1|^alpha
does not overflow on the wavenumbers it is given.

The periodic problem leaves the mean of phi free; mean_mode_denominator
decides it, as the value of D at the origin.  Every reader of that value
takes it from there: SteadyOperator.denominator, the constant-state rule
of solve, and symbol_m's origin 2/D(0,0) at c = 1, which sets the kernel
K's integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# perfbench/selftest.py checks that fkplump.symbols._frozen_array is the grid's.
from .grid import SpectralGrid, _frozen_array  # noqa: F401

#: Existence threshold: no nontrivial lumps for alpha <= 4/5.
ALPHA_ENERGY_CRITICAL = 0.8


@dataclass(frozen=True)
class SymbolParams:
    """Parameters of the steady-wave symbols of fKP-I.

    Attributes
    ----------
    alpha : float
        Fractional dispersion order; must be finite and positive.  Solver
        entry points additionally require alpha > 4/5 unless overridden.
    c : float
        Wave speed; must be finite and positive.
    """

    alpha: float
    c: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha!r}")
        if not np.isfinite(self.c) or self.c <= 0:
            raise ValueError(f"c must be finite and positive, got {self.c!r}")


def mean_mode_denominator(c: float) -> float:
    """D(0, 0), the Petviashvili denominator on the mean mode: 2c.

    It fixes the mean of a periodic steady state by D(0,0) mean(phi) =
    mean(phi^2), which makes phi = D(0,0) the constant steady state.  The
    residual symbol is 0 at the origin, so no monitor checks this choice.
    """
    return 2.0 * c


def dispersion_symbol(xi1: np.ndarray, alpha: float) -> np.ndarray:
    """|xi1|^alpha, pointwise; ValueError if it overflows (a large alpha, |xi1| > 1)."""
    with np.errstate(over="ignore"):
        values = np.abs(xi1) ** alpha
    if not np.isfinite(values).all():
        raise ValueError(f"alpha = {alpha!r} is too large for the grid: |xi1|^alpha overflows")
    return values


def kernel_symbol(xi1: np.ndarray, xi2: np.ndarray, alpha: float, which: str) -> np.ndarray:
    """xi1^k / (xi1^2 + xi2^2 + |xi1|^(alpha+2)), k = 2 for "m" and 1 for "h"; 0 where 0/0."""
    if which not in ("m", "h"):
        raise ValueError(f"which must be 'm' or 'h', got {which!r}")
    den = xi1**2 + xi2**2 + np.abs(xi1) ** (alpha + 2.0)
    num = xi1 ** (2 if which == "m" else 1)
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0)


def transverse_multiplier(xi1: np.ndarray, xi2: np.ndarray) -> np.ndarray:
    """Multiplier xi2/xi1 of dx^-1 dy, pointwise, 0 where xi1 = 0 (the constrained row)."""
    shape = np.broadcast_shapes(np.shape(xi1), np.shape(xi2))
    return np.divide(xi2, xi1, out=np.zeros(shape), where=xi1 != 0)


def _sample(grid: SpectralGrid, formula, *args, origin=0.0, odd_in="") -> np.ndarray:
    """formula(xi1, xi2, *args) on the half-lattice, read-only, origin at (0, 0) and 0 on
    the unpaired Nyquist row ("x") or column ("y") of each variable it is odd in."""
    values = formula(grid.xi1[:, None], grid.xi2_half[None, :], *args)
    values[0, 0] = origin
    if "x" in odd_in:
        values[grid.nx // 2, :] = 0.0
    if "y" in odd_in:
        values[:, -1] = 0.0
    values.setflags(write=False)
    return values


def symbol_m(grid: SpectralGrid, alpha: float) -> np.ndarray:
    """Kernel symbol m = xi1^2 / (|xi|^2 + |xi1|^(alpha+2)), read-only half-lattice.

    Real-valued, 0 <= m <= 1.  The row xi1 = 0 is exactly zero for
    xi2 != 0; the 0/0 at the origin is set to 2/D(0,0) at c = 1
    (mean_mode_denominator), which is 1 for D(0,0) = 2c.
    """
    SymbolParams(alpha)  # raises unless alpha is finite and positive
    return _sample(grid, kernel_symbol, alpha, "m", origin=2.0 / mean_mode_denominator(1.0))


def symbol_h(grid: SpectralGrid, alpha: float) -> np.ndarray:
    """Kernel symbol h = xi1 / (|xi|^2 + |xi1|^(alpha+2)), read-only half-lattice.

    Odd in xi1: zero on the row xi1 = 0 (origin included) and the Nyquist row.
    """
    SymbolParams(alpha)  # raises unless alpha is finite and positive
    return _sample(grid, kernel_symbol, alpha, "h", odd_in="x")


def symbol_t(grid: SpectralGrid) -> np.ndarray:
    """Multiplier xi2/xi1 of dx^-1 dy, odd in both, read-only half-lattice: zero on
    the constrained row xi1 = 0 and on the Nyquist row and column."""
    return _sample(grid, transverse_multiplier, odd_in="xy")
