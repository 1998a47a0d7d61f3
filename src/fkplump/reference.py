"""Closed-form reference data: the explicit lump at alpha = 2 and seed fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RealField, SpectralGrid
from .symbols import SymbolParams


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
    x, y = grid.x[:, None], grid.y[None, :]
    c = p.c
    xs2 = (c / 3.0) * (x - c * p.t) ** 2
    ys2 = (c**2 / 3.0) * y**2
    values = 8.0 * c * (1.0 - xs2 + ys2) / (1.0 + xs2 + ys2) ** 2
    return RealField(grid, values)


def gaussian_seed(grid: SpectralGrid, amplitude: float, width: float) -> RealField:
    """Radial gaussian A * exp(-(x^2 + y^2) / w^2), even in x and y."""
    if not (np.isfinite(width) and width > 0):
        raise ValueError(f"width must be finite and positive, got {width!r}")
    if not (np.isfinite(amplitude) and amplitude != 0):
        raise ValueError(f"amplitude must be finite and nonzero, got {amplitude!r}")
    x, y = grid.x[:, None], grid.y[None, :]
    return RealField(grid, amplitude * np.exp(-(x**2 + y**2) / width**2))


def _periodic_sinc_matrix(points: np.ndarray, half_width: float, n: int) -> np.ndarray:
    """Real matrix that evaluates the trig interpolant at off-lattice points.

    Entry (i, j) is the periodic sinc sin(pi d) / (n tan(pi d / n)) of
    d = u_i - j, u_i = (x_i + half_width) / dx, and 1 at d = 0: the
    interpolant whose unpaired Nyquist mode is a cosine, which reproduces
    lattice values exactly.  sin(pi d) = (-1)^j sin(pi u_i) is taken from
    u_i's offset to the nearest integer, and d is reduced to [-n/2, n/2],
    so entries near a node or half a period away keep full accuracy.
    """
    u = (points + half_width) / (2.0 * half_width / n)
    nearest = np.round(u)
    sin_u = np.where(nearest % 2 == 0, 1.0, -1.0) * np.sin(np.pi * (u - nearest))
    nodes = np.arange(n)
    offset = u[:, None] - nodes[None, :]
    offset -= n * np.round(offset / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(nodes % 2 == 0, 1.0, -1.0) * sin_u[:, None] / (
            n * np.tan(np.pi * offset / n)
        )
    values[offset == 0.0] = 1.0
    return values


def rescale_solution(
    phi: RealField, alpha: float, c: float, target_grid: SpectralGrid
) -> RealField:
    """Map a speed-1 solution to speed c by the scaling symmetry.

    phi_c(x, y) = c * psi(c^(1/alpha) x, c^(1/alpha + 1/2) y)

    where psi is the input field (a solution at c = 1).  Values at the
    stretched coordinates are taken from the source field's trigonometric
    interpolant, evaluated in real space as Px @ psi @ Py^T with periodic
    sinc matrices, which is accurate to the source grid's spectral tail;
    local polynomial interpolation of these peaked profiles would cost
    several orders of magnitude in accuracy.

    Raises
    ------
    ValueError
        If alpha or c is not a finite positive number (see SymbolParams).
    DomainRangeError
        If any stretched target coordinate falls outside the source domain.
    """
    SymbolParams(alpha, c)  # raises unless alpha and c are finite and positive
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
    px = _periodic_sinc_matrix(xs, src.lx, src.nx)
    py = _periodic_sinc_matrix(ys, src.ly, src.ny)
    values = c * (px @ phi.values @ py.T)
    return RealField(target_grid, values)
