"""Reference formulas that the library is checked against.

The complex full-lattice formulas that the real half-lattice and real-space
code replaced, and the post-processing formulas that built coordinate
meshes, a spectral phase array, a frequency mask or separate cube powers.
The coordinate meshes themselves are built here too, for the tests' fields.
"""

import numpy as np

from fkplump.diagnostics import FunctionalValues
from fkplump.grid import SpectralGrid, irfft2, rfft2
from fkplump.symbols import dispersion_symbol, symbol_h, symbol_m, symbol_t

#: Shift of the regularized reference: xi1 -> xi1 + i*LAMBDA.
LAMBDA = 2.2e-16


def meshes(grid):
    """2D coordinate meshes (X, Y) with indexing matching field storage."""
    return np.meshgrid(grid.x, grid.y, indexing="ij")


def complex_denominator(grid, p):
    """Regularized 2(c + xi2^2/(xi1 + i*lambda)^2 + |xi1|^alpha) on the full (nx, ny) lattice.

    The reference for the solver's real half-lattice D: off the
    constrained row xi1 = 0, D is the real part of its first ny/2 + 1
    columns to roundoff.  On that row it is ~ -2 xi2^2/LAMBDA^2; there D
    is finite and SteadyOperator zeroes the image instead.
    """
    xi1 = grid.xi1[:, None].astype(np.complex128)
    xi2 = grid.xi2[None, :]
    dispersion = dispersion_symbol(grid.xi1[:, None], p.alpha)
    return 2.0 * (p.c + xi2**2 / (xi1 + 1j * LAMBDA) ** 2 + dispersion)


def _exponential_eval_matrix(xi, points, half_width, n):
    """exp(i xi_k (x + half_width)) at each point, the Nyquist mode xi[n // 2] as a cosine."""
    shifted = points + half_width
    e = np.exp(1j * np.outer(shifted, xi))
    e[:, n // 2] = np.cos(xi[n // 2] * shifted)
    return e


def complex_rescale(phi, alpha, c, target_grid):
    """c * psi(c^(1/alpha) x, c^(1/alpha + 1/2) y) summed as a complex Fourier series.

    The source field's rfft2 coefficients are evaluated at the stretched
    target coordinates with complex exponential matrices; each half-lattice
    column k2 != 0, ny/2 also stands for its conjugate column -k2.
    """
    src = phi.grid
    xs = c ** (1.0 / alpha) * target_grid.x
    ys = c ** (1.0 / alpha + 0.5) * target_grid.y
    coeffs = np.fft.rfft2(phi.values) / (src.nx * src.ny)
    ex = _exponential_eval_matrix(src.xi1, xs, src.lx, src.nx)
    ey = _exponential_eval_matrix(src.xi2_half, ys, src.ly, src.ny) * src.column_weights
    return c * np.real(ex @ coeffs @ ey.T)


def meshgrid_exact_lump(grid, p):
    """The explicit alpha = 2 lump sampled on the 2D coordinate meshes."""
    X, Y = meshes(grid)
    c = p.c
    xs2 = (c / 3.0) * (X - c * p.t) ** 2
    ys2 = (c**2 / 3.0) * Y**2
    return 8.0 * c * (1.0 - xs2 + ys2) / (1.0 + xs2 + ys2) ** 2


def phase_kernel(grid, alpha, which):
    """K or H, its origin moved to the centre node by the phase (-1)^(k1 + k2) on the spectrum."""
    sx = np.where(np.arange(grid.nx) % 2 == 0, 1.0, -1.0)
    sy = np.where(np.arange(grid.xi2_half.size) % 2 == 0, 1.0, -1.0)
    phase = sx[:, None] * sy[None, :]
    if which == "K":
        sym_values = symbol_m(grid, alpha) * phase
    else:
        sym_values = -1j * symbol_h(grid, alpha) * phase
    scale = grid.nx * grid.ny / (4.0 * grid.lx * grid.ly)
    return scale * irfft2(sym_values, grid.shape)


def mask_fourier_tail(phi):
    """Outer-annulus ratio of the half-spectrum moduli, selected by an fftfreq mask."""
    grid = phi.grid
    coeffs = np.abs(rfft2(phi.values))
    peak = float(coeffs.max())
    if peak == 0.0:
        return 0.0
    k1 = np.abs(np.fft.fftfreq(grid.nx) * grid.nx)[:, None]
    k2 = np.arange(grid.xi2_half.size)[None, :]
    outer = (k1 > grid.nx / 4) | (k2 > grid.ny / 4)
    return float(coeffs[outer].max()) / peak


def cube_functionals(phi, alpha):
    """The diagnostic functionals with phi^3 and |phi|^3 summed as separate powers."""
    grid = phi.grid
    cell = grid.cell_area
    phi_hat = rfft2(phi.values)
    anti_sym = symbol_t(grid)
    frac_field = irfft2(dispersion_symbol(grid.xi1[:, None], alpha / 2.0) * phi_hat, grid.shape)
    anti_field = irfft2(anti_sym * phi_hat, grid.shape)
    l2_sq = float(np.sum(phi.values**2)) * cell
    frac_sq = float(np.sum(frac_field**2)) * cell
    anti_sq = float(np.sum(anti_field**2)) * cell

    power = grid.column_weights * np.abs(phi_hat) ** 2
    weight = grid.cell_area / (grid.nx * grid.ny)
    s_l2 = float(np.sum(power)) * weight
    s_frac = float(np.sum(dispersion_symbol(grid.xi1[:, None], alpha) * power)) * weight
    s_anti = float(np.sum(anti_sym**2 * power)) * weight

    l3_cubed = float(np.sum(np.abs(phi.values) ** 3)) * cell
    e1 = (5.0 * alpha - 4.0) / (alpha + 2.0)
    e2 = (18.0 - 5.0 * alpha) / (2.0 * (alpha + 2.0))
    denom = np.sqrt(s_l2) ** e1 * np.sqrt(s_frac) ** e2 * np.sqrt(s_anti) ** 0.5
    return FunctionalValues(
        l_value=0.5 * (l2_sq + frac_sq + anti_sq),
        n_value=float(np.sum(phi.values**3)) * cell / 6.0,
        energy_norm=float(np.sqrt(s_l2 + s_frac + s_anti)),
        sobolev_ratio=float(l3_cubed / denom) if denom > 0 else float("inf"),
        dc_mode=float(np.mean(phi.values)),
    )


def abs_max_symmetry_defects(phi):
    """The reflection defects about x = 0 and y = 0 as maxima of np.abs temporaries."""
    v = phi.values
    hx, hy = v.shape[0] // 2, v.shape[1] // 2
    scale = float(np.abs(v).max())
    return (float(np.abs(v[1:hx] - v[:hx:-1]).max()) / scale,
            float(np.abs(v[:, 1:hy] - v[:, :hy:-1]).max()) / scale)


def abs_max_relative_error(field, exact):
    """sup|field - exact| / sup|exact| as maxima of np.abs temporaries."""
    return float(np.max(np.abs(field.values - exact.values))) / float(np.abs(exact.values).max())


def non_square_grids():
    """The two non-square grids on which each rewrite is checked against its oracle."""
    return [
        SpectralGrid(nx=64, ny=32, lx=16.0, ly=12.0),
        SpectralGrid(nx=128, ny=256, lx=24.0, ly=40.0),
    ]
