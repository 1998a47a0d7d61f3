"""Quantities used to judge a converged solution.

Covers the steady-equation residual operator, the quadratic/cubic
functionals of the associated minimization problem, the energy-space norm,
the anisotropic Sobolev ratio, the mean (DC) mode, and the relative size
of the outer Fourier tail.  All integrals are lattice sums times the cell
area, which is spectrally accurate for smooth decaying integrands.

The energy space requires dx^-1 dy phi in L^2, so the modes on the
constrained row xi1 = 0, xi2 != 0 are not part of it.  The multipliers
|xi1|^s and xi2/xi1 come from symbols; xi2/xi1 is 0 on that row, as the
solver's iterates are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RealField, irfft2, rfft2
from .solver import SteadyOperator
from .symbols import SymbolParams, dispersion_symbol, transverse_multiplier


@dataclass(frozen=True)
class FunctionalValues:
    """Diagnostic functionals of a field.

    l_value
        Quadratic functional (1/2) integral of phi^2 + (Dx^(a/2) phi)^2
        + (dx^-1 dy phi)^2; equals energy_norm^2 / 2 identically.
    n_value
        Cubic functional (1/6) integral of phi^3.
    energy_norm
        Square root of the three-part energy-space norm.
    sobolev_ratio
        ||phi||_L3^3 divided by the product of energy seminorms with
        exponents (5a-4)/(a+2), (18-5a)/(2(a+2)) and 1/2.
    dc_mode
        Mean of phi over the domain.
    """

    l_value: float
    n_value: float
    energy_norm: float
    sobolev_ratio: float
    dc_mode: float


def residual(phi: RealField, p: SymbolParams) -> float:
    """Sup norm of the steady-equation residual S phi.

    S phi = (-c phi + phi^2/2 - Dx^alpha phi)_xx - phi_yy, evaluated
    spectrally by the solver's SteadyOperator; no inverse-x derivative
    appears.  Vanishes on exact steady solutions of the periodic problem.
    """
    op = SteadyOperator(phi.grid, p)
    return op.residual(*op.spectra(phi.values))


def _antideriv_y_symbol(grid) -> np.ndarray:
    """Multiplier of dx^-1 dy on the half-lattice: xi2 / xi1, real and odd in both.

    The transverse multiplier, zero on the constrained row xi1 = 0.  The
    unpaired Nyquist row and column are zeroed too (the odd-operator
    convention); the self-paired Nyquist modes cannot carry an odd symbol,
    and leaving them in breaks conjugate symmetry on the lattice, which
    would make the real-space and Parseval routes below disagree.
    """
    sym = transverse_multiplier(grid.xi1[:, None], grid.xi2_half[None, :])
    sym[grid.nx // 2, :] = 0.0
    sym[:, -1] = 0.0
    return sym


def _energy_parts_spectral(
    grid, phi_hat: np.ndarray, alpha: float, anti_sym: np.ndarray
) -> tuple[float, float, float]:
    """The three squared seminorms via Parseval on the lattice, from rfft2(phi)."""
    power = grid.column_weights * np.abs(phi_hat) ** 2
    weight = grid.cell_area / (grid.nx * grid.ny)
    l2 = float(np.sum(power)) * weight
    frac = float(np.sum(dispersion_symbol(grid.xi1[:, None], alpha) * power)) * weight
    anti = float(np.sum(anti_sym**2 * power)) * weight
    return l2, frac, anti


def functionals(phi: RealField, alpha: float) -> FunctionalValues:
    """Evaluate the diagnostic functionals of a field.

    The quadratic functional is computed by real-space quadrature of the
    three constituent fields; the energy norm is computed independently by
    a lattice Parseval sum.  The two routes agree to roundoff, which is
    the discrete form of the identity L = ||phi||^2 / 2.
    """
    SymbolParams(alpha)  # raises unless alpha is finite and positive
    grid = phi.grid
    cell = grid.cell_area
    phi_hat = rfft2(phi.values)
    anti_sym = _antideriv_y_symbol(grid)

    frac_field = irfft2(dispersion_symbol(grid.xi1[:, None], alpha / 2.0) * phi_hat, grid.shape)
    anti_field = irfft2(anti_sym * phi_hat, grid.shape)

    l2_sq = float(np.sum(phi.values**2)) * cell
    frac_sq = float(np.sum(frac_field**2)) * cell
    anti_sq = float(np.sum(anti_field**2)) * cell
    l_value = 0.5 * (l2_sq + frac_sq + anti_sq)

    s_l2, s_frac, s_anti = _energy_parts_spectral(grid, phi_hat, alpha, anti_sym)
    energy_norm = float(np.sqrt(s_l2 + s_frac + s_anti))

    n_value = float(np.sum(phi.values**3)) * cell / 6.0
    l3_cubed = float(np.sum(np.abs(phi.values) ** 3)) * cell

    e1 = (5.0 * alpha - 4.0) / (alpha + 2.0)
    e2 = (18.0 - 5.0 * alpha) / (2.0 * (alpha + 2.0))
    denom = np.sqrt(s_l2) ** e1 * np.sqrt(s_frac) ** e2 * np.sqrt(s_anti) ** 0.5
    sobolev_ratio = float(l3_cubed / denom) if denom > 0 else float("inf")

    dc_mode = float(np.mean(phi.values))
    return FunctionalValues(
        l_value=l_value,
        n_value=n_value,
        energy_norm=energy_norm,
        sobolev_ratio=sobolev_ratio,
        dc_mode=dc_mode,
    )


def fourier_tail(phi: RealField) -> float:
    """Relative size of the outer Fourier annulus.

    Max modulus of the coefficients with |k1| > nx/4 or |k2| > ny/4,
    divided by the overall max modulus.  Near zero for well-resolved
    fields, order one for noise.
    """
    grid = phi.grid
    coeffs = np.abs(rfft2(phi.values))  # |c(-k)| = |c(k)|: the half-lattice has every modulus
    peak = float(coeffs.max())
    if peak == 0.0:
        return 0.0
    k1 = np.abs(np.fft.fftfreq(grid.nx) * grid.nx)[:, None]
    k2 = np.arange(grid.xi2_half.size)[None, :]
    outer = (k1 > grid.nx / 4) | (k2 > grid.ny / 4)
    return float(coeffs[outer].max()) / peak
