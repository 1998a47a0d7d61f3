"""Post-hoc study of computed fields: sections, symmetry, quadratic decay.

The decay analysis multiplies the field by r^2 along a coordinate axis and
looks for a plateau at radii in [L/4, L/2]: far enough out to clear the
core, close enough in to avoid wrap-around contamination from the
periodic images.  A fitted constant background is removed first; on the
torus the steady problem feeds the mean of phi^2 into a small constant
offset of the solution (there is no decaying periodic steady state
without it), and that offset would masquerade as r^2 growth across the
plateau window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RealField, _sup
from .reference import DomainRangeError


@dataclass(frozen=True)
class SymmetryReport:
    """Reflection defects relative to the field's sup norm."""

    x_defect: float
    y_defect: float


@dataclass(frozen=True)
class DecayProfile:
    """r^power * field along one axis, with plateau statistics.

    radii are the strictly positive node coordinates along the axis and
    products the raw r^power * field values there.  Plateau statistics
    are taken over the window [L/4, L/2] after removing the fitted
    constant-background term (offset_estimate * r^power): plateau_value
    is the median of the corrected products and plateau_rel_variation
    the max relative deviation from it.
    """

    axis: str
    power: float
    radii: np.ndarray
    products: np.ndarray
    plateau_value: float
    plateau_rel_variation: float
    offset_estimate: float


def _axis_line(phi: RealField, axis: str, offset: float) -> tuple[np.ndarray, np.ndarray]:
    grid = phi.grid
    if axis == "x":
        if not (-grid.ly <= offset < grid.ly):
            raise DomainRangeError(f"offset {offset} outside [{-grid.ly}, {grid.ly})")
        j = int(round((offset + grid.ly) / grid.dy)) % grid.ny
        return grid.x, phi.values[:, j]
    if axis == "y":
        if not (-grid.lx <= offset < grid.lx):
            raise DomainRangeError(f"offset {offset} outside [{-grid.lx}, {grid.lx})")
        i = int(round((offset + grid.lx) / grid.dx)) % grid.nx
        return grid.y, phi.values[i, :]
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def cross_section(phi: RealField, axis: str, offset: float = 0.0) -> np.ndarray:
    """All nodes along the gridline nearest the requested offset.

    Returns a (n, 2) array of (coordinate, value) pairs; axis "x" walks x
    at fixed y = offset, axis "y" the transpose.
    """
    coords, vals = _axis_line(phi, axis, offset)
    return np.column_stack([coords, vals])


def symmetry_report(phi: RealField) -> SymmetryReport:
    """Reflection defects about x = 0 and y = 0 by index reflection.

    The lattice maps onto itself under periodic reflection (node j pairs
    with node n - j mod n), so the comparison is exact, no interpolation.
    """
    v = phi.values
    scale = _sup(v)
    if scale == 0.0:
        return SymmetryReport(0.0, 0.0)
    # Nodes 0 and n/2 are their own mirrors; node j pairs with n - j otherwise.
    hx, hy = v.shape[0] // 2, v.shape[1] // 2
    return SymmetryReport(
        x_defect=_sup(v[1:hx] - v[:hx:-1]) / scale,
        y_defect=_sup(v[:, 1:hy] - v[:, :hy:-1]) / scale,
    )


def decay_profile(phi: RealField, axis: str, power: float = 2.0) -> DecayProfile:
    """Decay products r^power * phi along an axis through 0.

    A constant background in the field (on the torus the steady state
    carries a small positive mean fed by the nonlinearity) shows up in the
    products as b * r^power and would swamp the plateau near the window's
    outer edge.  The background b is estimated by least squares over the
    window and removed; the plateau is then summarized by its median
    (robust to the tail oscillation near zero crossings) and the max
    relative deviation from it.
    """
    coords, vals = _axis_line(phi, axis, 0.0)
    positive = coords > 0
    radii = coords[positive]
    products = radii**power * vals[positive]

    half = phi.grid.lx if axis == "x" else phi.grid.ly
    window = (radii >= half / 4.0) & (radii <= half / 2.0)
    basis = np.column_stack([np.ones(window.sum()), radii[window] ** power])
    (_, offset), *_ = np.linalg.lstsq(basis, products[window], rcond=None)
    corrected = products[window] - offset * radii[window] ** power

    plateau = float(np.median(corrected))
    if plateau != 0.0:
        variation = _sup(corrected - plateau) / abs(plateau)
    else:
        variation = float("inf") if np.any(corrected != 0.0) else 0.0
    return DecayProfile(
        axis=axis,
        power=power,
        radii=radii,
        products=products,
        plateau_value=plateau,
        plateau_rel_variation=variation,
        offset_estimate=float(offset),
    )
