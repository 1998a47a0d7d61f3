"""Complex reference formulas that the real half-lattice and real-space code is checked against."""

import numpy as np

from fkplump.symbols import dispersion_symbol

#: Shift of the regularized reference: xi1 -> xi1 + i*LAMBDA.
LAMBDA = 2.2e-16


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
