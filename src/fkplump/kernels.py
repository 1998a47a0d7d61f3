"""Kernel functions behind the steady equation and their integrability.

The steady problem at speed 1 is equivalent to the convolution identity
phi = (1/2) K * phi^2 where fft(K) samples the symbol m, and to
phi = (1/2) H * (phi^2)_x for the odd companion kernel with symbol h.
This module constructs both kernels on a lattice, as real inverse
transforms (irfft2) of the half-lattice symbols symbol_m and symbol_h,
measures their decay, and probes the L^p integrability of the symbols by
quadrature over expanding domains:

  * converging exponents stabilize (truncated norms grow by < 1% on the
    final radius doubling),
  * diverging exponents keep growing (> 5% per doubling),
  * anything in between is reported as inconclusive rather than asserted.

Each truncated norm is computed two independent ways, both with one
24-point Gauss-Legendre rule on dyadic xi1 panels: 2D quadrature of
|symbols.kernel_symbol|^p in (xi1, xi2), and a 1D reduction in which the
xi2 integral is an incomplete-beta factor of the scaled variable
z = xi2 / (xi1 sqrt(1 + xi1^alpha)).  The domains carry a shrinking inner
cutoff |xi1| >= 1/R^3 alongside the growing box |xi1|, |xi2| <= R, so
divergence at the origin (the h symbol for p >= 2) is detected by the
same increment criterion as divergence at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import betainc

from .analysis import DecayProfile, decay_profile
from .grid import GridMismatchError, RealField, SpectralGrid, irfft2, rfft2
from .symbols import SymbolParams, kernel_symbol, symbol_h, symbol_m

#: Verdict bands for the relative norm growth on the final radius doubling.
CONVERGING_BAND = 0.01
DIVERGING_BAND = 0.05

#: Dyadic truncation radii 2^2 .. 2^16; inner cutoff is radius**-3.
PROBE_EXPONENTS = range(2, 17)

#: The 24-point Gauss-Legendre rule on [-1, 1] that both routes use.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


class InvalidExponentError(ValueError):
    """Exponent p <= 1/2: the transverse integral diverges for every symbol."""


@dataclass(frozen=True)
class IntegrabilityProbe:
    """Truncated L^p norms of a kernel symbol over expanding domains."""

    alpha: float
    p: float
    which: str
    truncation_radii: np.ndarray
    truncated_norms: np.ndarray
    verdict: str
    last_increment: float
    box_norm: float  # independent 2D quadrature at the final radius


def _verdict(last_increment: float) -> str:
    """Verdict on the relative norm growth over the final radius doubling."""
    if last_increment < CONVERGING_BAND:
        return "converging"
    return "diverging" if last_increment > DIVERGING_BAND else "inconclusive"


def build_kernel(grid: SpectralGrid, alpha: float, which: str) -> RealField:
    """Construct K or H by inverse transform of its symbol samples.

    Discretizes (2 pi)^-2 * integral of symbol * exp(i x.xi) with the
    lattice measure, so the samples approximate the continuum kernel.  K
    (symbol m) is real and even in both variables.  The transform of the
    odd symbol h is purely imaginary, so H is the inverse transform of
    -i*h: the real odd-in-x kernel that satisfies phi = (1/2) H * (phi^2)_x.
    Both are real inverse transforms of half-lattice symbols, real by
    construction, and fftshift moves the kernel's origin from node 0 to
    the centre node (nx/2, ny/2), where convolve expects it.
    """
    kind = which.upper()
    if kind not in ("K", "H"):
        raise ValueError(f"which must be 'K' or 'H', got {which!r}")
    sym_values = symbol_m(grid, alpha) if kind == "K" else -1j * symbol_h(grid, alpha)
    scale = grid.nx * grid.ny / (4.0 * grid.lx * grid.ly)
    return RealField(grid, scale * np.fft.fftshift(irfft2(sym_values, grid.shape)))


def convolve(kernel: RealField, g: RealField) -> RealField:
    """Continuum-normalized periodic convolution of a kernel with a field.

    Approximates integral K(x - x') g(x') dx' by the cell-weighted
    circular convolution on the shared grid.
    """
    if kernel.grid != g.grid:
        raise GridMismatchError("kernel and field are on different grids")
    grid = kernel.grid
    offset_kernel = np.fft.ifftshift(kernel.values)
    product = rfft2(offset_kernel) * rfft2(g.values)
    return RealField(grid, grid.cell_area * irfft2(product, grid.shape))


def kernel_decay(kernel: RealField, power: float, axis: str = "x") -> DecayProfile:
    """Plateau analysis of r^power * kernel along an axis.

    power 2 probes the quadratic decay of K, power 1 the linear decay
    of H.
    """
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power!r}")
    return decay_profile(kernel, axis, power=float(power))


# --- symbol integrability probes ------------------------------------------


def _z_factor(p: float, zeta: np.ndarray) -> np.ndarray:
    """integral of (1 + z^2)^-p over |z| <= zeta, via the incomplete beta."""
    t = zeta**2 / (1.0 + zeta**2)
    return beta_fn(0.5, p - 0.5) * betainc(0.5, p - 0.5, t)


def _weight(which: str, alpha: float, p: float, xi1: np.ndarray) -> np.ndarray:
    """xi2-reduced weight of |symbol|^p at positive xi1."""
    base = xi1 * (1.0 + xi1**alpha) ** (0.5 - p)
    if which == "m":
        return base
    return base * xi1 ** (-p)


def _zeta(alpha: float, xi1: np.ndarray, radius: float) -> np.ndarray:
    """Scaled xi2 box limit: z at xi2 = radius."""
    return radius / (xi1 * np.sqrt(1.0 + xi1**alpha))


def _dyadic_panels(lo: float, hi: float) -> np.ndarray:
    """Panel edges from lo to hi, splitting at powers of two."""
    lo_e = int(np.ceil(np.log2(lo)))
    hi_e = int(np.floor(np.log2(hi)))
    edges = [lo]
    edges.extend(float(2.0**e) for e in range(lo_e, hi_e + 1) if lo < 2.0**e < hi)
    edges.append(hi)
    return np.array(edges)


def _panel_rule(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the panels between consecutive edges."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    wts = half[:, None] * _GL_WEIGHTS[None, :]
    return pts.ravel(), wts.ravel()


def _panel_integral(f, lo: float, hi: float) -> float:
    """Integral of the vectorised f over [lo, hi] on dyadic Gauss-Legendre panels."""
    x, w = _panel_rule(_dyadic_panels(lo, hi))
    return float(np.dot(w, f(x)))


def _separated_increment(
    which: str,
    alpha: float,
    p: float,
    r_prev: float,
    r_new: float,
    d_prev: float,
    d_new: float,
) -> float:
    """Norm-power mass added when the domain grows from (r_prev, d_prev).

    Three disjoint pieces: the new outer xi1 band, the newly uncovered
    inner xi1 sliver, and the xi2 extension over the old band.  Each is
    nonnegative, so cumulative norms are nondecreasing by construction.
    The factor 2 accounts for +-xi1; the z factor already covers +-xi2.
    """

    def band(xi1: np.ndarray) -> np.ndarray:
        return _weight(which, alpha, p, xi1) * _z_factor(p, _zeta(alpha, xi1, r_new))

    def extension(xi1: np.ndarray) -> np.ndarray:
        znew = _z_factor(p, _zeta(alpha, xi1, r_new))
        zold = _z_factor(p, _zeta(alpha, xi1, r_prev))
        return _weight(which, alpha, p, xi1) * (znew - zold)

    total = _panel_integral(band, r_prev, r_new)
    total += _panel_integral(band, d_new, d_prev)
    total += _panel_integral(extension, d_prev, r_prev)
    return 2.0 * total


def _box_quadrature(which: str, alpha: float, p: float, radius: float, cutoff: float) -> float:
    """Direct 2D panel-Gauss quadrature of |symbol|^p over the domain.

    Integrates over {cutoff <= xi1 <= radius, 0 <= xi2 <= radius} in the
    original coordinates (times 4 by symmetry) on dyadic xi1 panels, with
    xi2 panels laid out from the local transverse scale of the symbol.
    """
    total = 0.0
    x1_edges = _dyadic_panels(cutoff, radius)
    for a, b in zip(x1_edges[:-1], x1_edges[1:]):
        x1_pts, x1_wts = _panel_rule(np.array([a, b]))
        s = a * np.sqrt(1.0 + a**alpha)  # transverse scale at the panel edge
        inner_edges = [0.0, min(s, radius)]
        while inner_edges[-1] < radius:
            inner_edges.append(min(2.0 * inner_edges[-1], radius))
        x2_pts, x2_wts = _panel_rule(np.array(inner_edges))
        vals = kernel_symbol(x1_pts[:, None], x2_pts[None, :], alpha, which) ** p
        total += float(np.sum(x1_wts[:, None] * x2_wts[None, :] * vals))
    return 4.0 * total


def integrability_probe(alpha: float, p: float, which: str) -> IntegrabilityProbe:
    """Probe whether |symbol|^p is integrable, by expanding truncations.

    Truncated L^p norms are accumulated over nested domains with outer
    radius doubling from 4 to 2^16 (inner cutoff radius**-3).  The verdict
    is converging when the final doubling grows the norm by less than 1%,
    diverging above 5%, inconclusive between.  A 2D box quadrature at the
    final radius is recorded alongside as an independent check of the
    separated reduction.

    Raises
    ------
    InvalidExponentError
        For p <= 1/2, where the transverse integral diverges identically.
    ValueError
        If alpha (checked by SymbolParams) or p is not finite, or the running
        sum of |symbol|^p or the box norm is not finite and positive: p is
        too large for float64 (as p = 1e300, or p = 50 for h).
    """
    SymbolParams(alpha)  # raises unless alpha is finite and positive
    if not np.isfinite(p):
        raise ValueError(f"p must be finite, got {p!r}")
    if p <= 0.5:
        raise InvalidExponentError(
            f"p = {p} <= 1/2: the transverse integral diverges for every alpha"
        )
    if which not in ("m", "h"):
        raise ValueError(f"which must be 'm' or 'h', got {which!r}")

    radii = np.array([2.0**k for k in PROBE_EXPONENTS])
    cutoffs = radii**-3.0
    powers = []
    running = 0.0
    r_prev = cutoffs[0] * 2.0  # degenerate start: first increment covers all
    d_prev = r_prev
    with np.errstate(over="ignore", invalid="ignore"):  # the results are checked below
        for r_new, d_new in zip(radii, cutoffs):
            increment = _separated_increment(which, alpha, p, r_prev, r_new, d_prev, d_new)
            running += increment
            powers.append(running)
            r_prev, d_prev = r_new, d_new
        box = _box_quadrature(which, alpha, p, radii[-1], cutoffs[-1]) ** (1.0 / p)
    for name, value in (("running sum", running), ("box norm", box)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"the {name} of |{which}|^p at p = {p!r} is {value!r}, not "
                             "finite and positive: outside the float64 range")

    norms = np.array(powers) ** (1.0 / p)
    # 1 - (1 - increment/running)^(1/p), without the cancellation of the
    # difference of the last two norms
    last_increment = float(-np.expm1(np.log1p(-increment / running) / p))
    return IntegrabilityProbe(
        alpha=alpha,
        p=p,
        which=which,
        truncation_radii=radii,
        truncated_norms=norms,
        verdict=_verdict(last_increment),
        last_increment=last_increment,
        box_norm=box,
    )
