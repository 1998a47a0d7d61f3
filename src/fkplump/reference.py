"""Closed-form reference data: the explicit lump at alpha = 2 and seed fields."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import RealField, SpectralGrid, fold_quarter, quarter_nodes, row_blocks, unfold_quarter
from .symbols import SymbolParams


def _by_rows(rows: np.ndarray, columns: np.ndarray, formula) -> np.ndarray:
    """formula(rows[:, None], columns[None, :]) as a new array, evaluated in
    blocks of whole rows (grid.row_blocks), so its temporaries stay small."""
    values = np.empty((rows.size, columns.size))
    for block in row_blocks(rows.size, columns.size):
        values[block] = formula(rows[block, None], columns[None, :])
    return values


class DomainRangeError(ValueError):
    """A requested coordinate lies outside the available domain."""


@dataclass(frozen=True)
class ExactLumpParams:
    """Wave speed c > 0 and evaluation time t (steady frame by default)."""

    c: float
    t: float = 0.0

    def __post_init__(self) -> None:
        c = float(self.c)
        # the lump squares c; a Python float power raises where c*c is inf
        if not (math.isfinite(c) and c > 0 and math.isfinite(c * c)):
            raise ValueError(f"c must be positive with c*c finite, got {self.c!r}")


def exact_kp1_lump(grid: SpectralGrid, p: ExactLumpParams) -> RealField:
    """Sample the explicit alpha = 2 lump on the grid.

    phi(x, y) = 8c (1 - (c/3) X^2 + (c^2/3) y^2) / (1 + (c/3) X^2 + (c^2/3) y^2)^2

    with X = x - c t.  Peak value 8c at the origin, zeros on the ridge
    X^2 = 3/c + y^2 c, quadratic decay along both axes.

    Raises
    ------
    ValueError
        If c is too large for the grid: (c^2/3) y^2, the squared
        denominator or the numerator overflows at the grid's edge.
    """
    c = p.c
    with np.errstate(over="ignore"):
        xs2 = (c / 3.0) * (grid.x - c * p.t) ** 2
        ys2 = (c**2 / 3.0) * grid.y**2
    # both terms are >= 0, so the edge of the grid holds their largest sum
    edge = 1.0 + float(xs2.max()) + float(ys2.max())
    if not (math.isfinite(8.0 * c * edge) and math.isfinite(edge * edge)):
        raise ValueError(
            f"c = {c!r} is too large for the grid: the lump's (c^2/3) y^2 or its "
            "squared denominator overflows at the grid's edge"
        )
    values = _by_rows(xs2, ys2, lambda a, b: 8.0 * c * (1.0 - a + b) / (1.0 + a + b) ** 2)
    return RealField._adopt(grid, values)


def _check_width(width: float, name: str = "width") -> None:
    """The gaussian's width rule: finite and positive, with a square that is not 0."""
    w = float(width)
    if not (math.isfinite(w) and w > 0 and w * w > 0):
        raise ValueError(f"{name} must be finite and positive with w*w > 0, got {width!r}")


def _check_amplitude(amplitude: float, name: str = "amplitude") -> None:
    """The gaussian's amplitude rule: finite and nonzero."""
    if not (np.isfinite(amplitude) and amplitude != 0):
        raise ValueError(f"{name} must be finite and nonzero, got {amplitude!r}")


def gaussian_seed(grid: SpectralGrid, amplitude: float, width: float) -> RealField:
    """Radial gaussian A * exp(-(x^2 + y^2) / w^2), even in x and y.

    Where w^2, x^2 + y^2 or their quotient overflows to inf, the exponential
    gives the gaussian's own limit, 1 or 0.
    """
    _check_width(width)
    _check_amplitude(amplitude)
    # np.float64 ** 2 has the bits of Python's width**2 but overflows to inf, not an error
    with np.errstate(over="ignore"):
        w2 = np.float64(width) ** 2
        values = _by_rows(grid.x, grid.y, lambda x, y: amplitude * np.exp(-(x**2 + y**2) / w2))
    return RealField._adopt(grid, values)


def _periodic_sinc_matrix(points: np.ndarray, half_width: float, n: int) -> np.ndarray:
    """Real matrix that evaluates the trig interpolant at off-lattice points.

    Entry (i, j) is the periodic sinc sin(pi d) / (n tan(pi d / n)) of
    d = u_i - j, u_i = (x_i + half_width) / dx, and 1 at d = 0: the
    interpolant whose unpaired Nyquist mode is a cosine, which reproduces
    lattice values exactly.  sin(pi d) = (-1)^j sin(pi u_i) is taken from
    u_i's offset to the nearest integer, and d is reduced to [-n/2, n/2],
    so entries near a node or half a period away keep full accuracy.
    """

    def entries(u, j):
        nearest = np.round(u)
        sin_u = np.where(nearest % 2 == 0, 1.0, -1.0) * np.sin(np.pi * (u - nearest))
        d = u - j
        d -= n * np.round(d / n)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(j % 2 == 0, 1.0, -1.0) * sin_u / (n * np.tan(np.pi * d / n))
        values[d == 0.0] = 1.0
        return values

    return _by_rows((points + half_width) / (2.0 * half_width / n), np.arange(n), entries)


def _mirror_folded(matrix: np.ndarray) -> np.ndarray:
    """The columns of matrix summed onto the quarter's nodes (grid.quarter_nodes).

    For an even field v, matrix @ v equals this times the quarter of v:
    node n/2 + k and its mirror n/2 - k hold the same value.
    """
    n = matrix.shape[1]
    folded = matrix[:, quarter_nodes(n)]
    folded[:, 1 : n // 2] += matrix[:, n // 2 - 1 : 0 : -1]
    return folded


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
    several orders of magnitude in accuracy.  An even-even source
    (RealField.is_even_even) gives an even-even result, so both are held
    by their quarters (grid.quarter_nodes): the sinc matrices are evaluated
    only at the target's quarter nodes, their mirror columns are added onto
    the source quarter's nodes, and the quarter product is mirrored back to
    the whole target grid (grid.unfold_quarter), which is then exactly even.
    That cuts the 2048^2 to 512^2 product from 5.4 GFLOP (whole fields) to
    0.68 GFLOP and builds half of the sinc entries.

    Raises
    ------
    ValueError
        If alpha or c is not a finite positive number (see SymbolParams).
    DomainRangeError
        If any stretched target coordinate falls outside the source domain.
    """
    SymbolParams(alpha, c)  # raises unless alpha and c are finite and positive
    src, tx, ty = phi.grid, target_grid.x, target_grid.y
    c, alpha = float(c), float(alpha)  # a power that overflows raises, not warns
    try:
        ax = c ** (1.0 / alpha)
        ay = c ** (1.0 / alpha + 0.5)
    except OverflowError:
        ax = ay = math.inf
    # The end nodes are stretched as Python floats first, so that a stretch
    # too large for the domain cannot overflow an array.
    if (ax * float(tx[0]) < src.x[0] or ax * float(tx[-1]) > src.x[-1]
            or ay * float(ty[0]) < src.y[0] or ay * float(ty[-1]) > src.y[-1]):
        raise DomainRangeError(
            "stretched target coordinates fall outside the source domain; "
            "use a larger source grid or a smaller speed ratio"
        )
    even = phi.is_even_even
    if even:  # the target's quarter; the rest of the target is its mirror
        tx, ty = tx[quarter_nodes(tx.size)], ty[quarter_nodes(ty.size)]
    px = _periodic_sinc_matrix(ax * tx, src.lx, src.nx)
    py = _periodic_sinc_matrix(ay * ty, src.ly, src.ny)
    source = phi.values
    if even:  # one at a time: each unfolded matrix is freed before the next fold
        px = _mirror_folded(px)
        py = _mirror_folded(py)
        source = fold_quarter(source)
    values = c * (px @ source @ py.T)
    if even:
        values = unfold_quarter(values, target_grid.shape)
    return RealField._adopt(target_grid, values)
