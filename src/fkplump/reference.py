"""Closed-form reference data: the explicit lump at alpha = 2 and seed fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RealField, SpectralGrid, rfft2


class DomainRangeError(ValueError):
    """A requested coordinate lies outside the available domain."""


@dataclass(frozen=True)
class ExactLumpParams:
    """Wave speed c > 0 and evaluation time t (steady frame by default)."""

    c: float
    t: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.c) or self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c!r}")


def exact_kp1_lump(grid: SpectralGrid, p: ExactLumpParams) -> RealField:
    """Sample the explicit alpha = 2 lump on the grid.

    phi(x, y) = 8c (1 - (c/3) X^2 + (c^2/3) y^2) / (1 + (c/3) X^2 + (c^2/3) y^2)^2

    with X = x - c t.  Peak value 8c at the origin, zeros on the ridge
    X^2 = 3/c + y^2 c, quadratic decay along both axes.
    """
    X, Y = grid.meshes()
    c = p.c
    xs2 = (c / 3.0) * (X - c * p.t) ** 2
    ys2 = (c**2 / 3.0) * Y**2
    values = 8.0 * c * (1.0 - xs2 + ys2) / (1.0 + xs2 + ys2) ** 2
    return RealField(grid, values)


def gaussian_seed(grid: SpectralGrid, amplitude: float, width: float) -> RealField:
    """Radial gaussian A * exp(-(x^2 + y^2) / w^2), even in x and y."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width!r}")
    if amplitude == 0:
        raise ValueError("amplitude must be nonzero")
    X, Y = grid.meshes()
    return RealField(grid, amplitude * np.exp(-(X**2 + Y**2) / width**2))


def _trig_eval_matrix(xi: np.ndarray, points: np.ndarray, half_width: float, n: int) -> np.ndarray:
    """Complex evaluation matrix of the trig interpolant at off-lattice points.

    Node j sits at -half_width + j*dx, so the DFT phase of mode k at a
    physical point x is exp(i xi_k (x + half_width)).  The unpaired
    Nyquist mode xi[n // 2] is evaluated as a cosine, the symmetric
    convention that reproduces lattice points exactly.  xi is either the
    full set of n wavenumbers or its half-lattice part (n // 2 + 1).
    """
    shifted = points + half_width
    e = np.exp(1j * np.outer(shifted, xi))
    e[:, n // 2] = np.cos(xi[n // 2] * shifted)
    return e


def rescale_solution(
    phi: RealField, alpha: float, c: float, target_grid: SpectralGrid
) -> RealField:
    """Map a speed-1 solution to speed c by the scaling symmetry.

    phi_c(x, y) = c * psi(c^(1/alpha) x, c^(1/alpha + 1/2) y)

    where psi is the input field (a solution at c = 1).  Values at the
    stretched coordinates are taken from the source field's trigonometric
    interpolant (a tensor-product evaluation of its Fourier series), which
    is accurate to the source grid's spectral tail; local polynomial
    interpolation of these peaked profiles would cost several orders of
    magnitude in accuracy.

    Raises
    ------
    DomainRangeError
        If any stretched target coordinate falls outside the source domain.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if c <= 0:
        raise ValueError(f"c must be positive, got {c!r}")
    src = phi.grid
    ax = c ** (1.0 / alpha)
    ay = c ** (1.0 / alpha + 0.5)
    xs = ax * target_grid.x
    ys = ay * target_grid.y
    if xs.min() < src.x[0] or xs.max() > src.x[-1] or ys.min() < src.y[0] or ys.max() > src.y[-1]:
        raise DomainRangeError(
            "stretched target coordinates fall outside the source domain; "
            "use a larger source grid or a smaller speed ratio"
        )
    # Half-lattice coefficients: each column k2 != 0, ny/2 also stands for
    # its conjugate column -k2, whose terms are the conjugates of its own.
    coeffs = rfft2(phi.values) / (src.nx * src.ny)
    ex = _trig_eval_matrix(src.xi1, xs, src.lx, src.nx)
    ey = _trig_eval_matrix(src.xi2_half, ys, src.ly, src.ny) * src.column_weights
    values = c * np.real(ex @ coeffs @ ey.T)
    return RealField(target_grid, values)
