"""Kernel functions behind the steady equation and their integrability.

The steady problem at speed 1 is equivalent to the convolution identity
phi = (1/2) K * phi^2 where fft(K) samples the symbol m, and to
phi = (1/2) H * (phi^2)_x for the odd companion kernel with symbol h.
The integral of K over the box is m's origin, 2/D(0,0) at c = 1 (1 for
D(0,0) = 2c; symbols.mean_mode_denominator), so the identity holds on
the mean mode that the solver picks.
This module constructs both kernels, centred by the sign (-1)^(k1 + k2)
on the half-lattice symbols symbol_m and symbol_h before their real inverse
transform (irfft2), measures their decay, and probes the L^p integrability
of the symbols by quadrature over expanding domains:

  * converging exponents stabilize (truncated norms grow by < 1% on the
    final radius doubling),
  * diverging exponents keep growing (> 5% per doubling),
  * anything in between is reported as inconclusive rather than asserted.

All truncated norms come from one nested 2D quadrature of
|symbols.kernel_symbol|^p in (xi1, xi2), with a 12-point Gauss-Legendre
rule on each cell.  The xi1 panels are dyadic, so every cutoff and radius
is a panel edge; the xi2 panels double from the symbol's transverse scale
xi1 sqrt(1 + xi1^alpha) and are split at every radius.  Each truncated
domain is then a union of cells, and one pass over the cells at the final
radius gives every norm.  The integrands are analytic on each cell, where
a Gauss rule converges geometrically: the 12-point norms agree with those
of a 24-point rule to about 1e-12 relative, down to p = 0.55, with the
same verdicts.  The domains carry a shrinking inner cutoff |xi1| >= 1/R^3
alongside the growing box |xi1|, |xi2| <= R, so divergence at the origin
(the h symbol for p >= 2) is detected by the same increment criterion as
divergence at infinity.

Everything of that quadrature but the power p (the panels and cells, their
weights and steps, and the symbol samples on every node) is one read-only
table per (symbol, alpha, rule), built once and shared by every exponent:
at most 377,280 samples (3.1 MiB; 371,520 at alpha = 1).  The last
TABLE_CACHE_SIZE = 4 tables are kept, at most 12.6 MiB, so a probe sweep
over p, or a repeated check at the same alpha, samples the symbol once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import DecayProfile, decay_profile
from .grid import GridMismatchError, RealField, SpectralGrid, irfft2, rfft2
from .symbols import SymbolParams, kernel_symbol, symbol_h, symbol_m

#: Verdict bands for the relative norm growth on the final radius doubling.
CONVERGING_BAND = 0.01
DIVERGING_BAND = 0.05

#: Dyadic truncation radii 2^2 .. 2^16; inner cutoff is radius**-3.
PROBE_EXPONENTS = range(2, 17)

#: The 12-point Gauss-Legendre rule on [-1, 1] of every panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

#: Quadrature tables that _quadrature_table keeps, the least recently used
#: dropped first.  A table at the 12-point rule holds at most 377,280 symbol
#: samples (3.1 MiB; 371,520 at alpha = 1), so the cache holds at most 12.6 MiB.
TABLE_CACHE_SIZE = 4


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

    @property
    def box_norm(self) -> float:
        """The final truncated norm (the 2D box quadrature's norm), as perfbench reads it."""
        return float(self.truncated_norms[-1])


def _verdict(last_increment: float) -> str:
    """Verdict on the relative norm growth over the final radius doubling."""
    if last_increment < CONVERGING_BAND:
        return "converging"
    return "diverging" if last_increment > DIVERGING_BAND else "inconclusive"


def _centre_sign(spectrum: np.ndarray) -> np.ndarray:
    """A half-lattice spectrum times (-1)^(k1 + k2), in place: its field shifted by (nx/2, ny/2)."""
    np.negative(spectrum[1::2], out=spectrum[1::2])
    np.negative(spectrum[:, 1::2], out=spectrum[:, 1::2])
    return spectrum


def build_kernel(grid: SpectralGrid, alpha: float, which: str) -> RealField:
    """Construct K or H by inverse transform of its symbol samples.

    Discretizes (2 pi)^-2 * integral of symbol * exp(i x.xi) with the
    lattice measure, so the samples approximate the continuum kernel.  K
    (symbol m) is real and even in both variables.  The transform of the
    odd symbol h is purely imaginary, so H is the inverse transform of
    -i*h: the real odd-in-x kernel that satisfies phi = (1/2) H * (phi^2)_x.
    Both are real inverse transforms of one new complex product, 1*m or
    -i*h, in which irfft2's x pass runs in place.  The sign (-1)^(k1 + k2),
    applied to a real copy of the symbol first (half the bytes of the
    product), moves the origin from node 0 to the centre node (nx/2, ny/2),
    where convolve expects it.
    """
    kind = which.upper() if isinstance(which, str) else None
    if kind not in ("K", "H"):
        raise ValueError(f"which must be 'K' or 'H', got {which!r}")
    factor, symbol = (1 + 0j, symbol_m) if kind == "K" else (-1j, symbol_h)
    values = irfft2(factor * _centre_sign(symbol(grid, alpha).copy()), grid.shape, overwrite_x=True)
    values *= grid.nx * grid.ny / (4.0 * grid.lx * grid.ly)
    return RealField._adopt(grid, values)


def convolve(kernel: RealField, g: RealField) -> RealField:
    """Continuum-normalized periodic convolution of a kernel with a field.

    Approximates integral K(x - x') g(x') dx' by the cell-weighted
    circular convolution on the shared grid.
    """
    if kernel.grid != g.grid:
        raise GridMismatchError("kernel and field are on different grids")
    grid = kernel.grid
    product = _centre_sign(rfft2(kernel.values))  # the kernel's origin back at node 0
    product *= rfft2(g.values)
    values = irfft2(product, grid.shape, overwrite_x=True)
    values *= grid.cell_area
    return RealField._adopt(grid, values)


def kernel_decay(kernel: RealField, power: float, axis: str = "x") -> DecayProfile:
    """Plateau analysis of r^power * kernel along an axis.

    power 2 probes the quadratic decay of K, power 1 the linear decay
    of H.
    """
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power!r}")
    return decay_profile(kernel, axis, power=float(power))


# --- symbol integrability probes ------------------------------------------


def _panel_rule(
    edges: np.ndarray, nodes: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A Gauss-Legendre rule's nodes and weights on the panels between consecutive edges."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    wts = half[:, None] * weights[None, :]
    return pts.ravel(), wts.ravel()


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _quadrature_table(
    which: str, alpha: float, rule: tuple[bytes, bytes]
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
    """Everything of the box quadrature that does not depend on p, per xi1 panel.

    Each xi1 panel's xi2 cells double from the transverse scale at its
    lower edge and are split at the radii from the first step whose domain
    holds the panel on; each cell's mass goes to the first step that holds
    it.  A panel's entry is its xi1 weights, its xi2 weights, the symbol
    samples on its nodes and the step of each cell, all read-only.  The
    rule is the bytes of the Gauss-Legendre nodes and weights.
    """
    nodes, weights = (np.frombuffer(part) for part in rule)
    radii = 2.0 ** np.array(PROBE_EXPONENTS, dtype=float)
    cutoffs = radii**-3.0
    # dyadic xi1 panels from the last cutoff to the last radius
    x1_edges = 2.0 ** np.arange(-3 * PROBE_EXPONENTS[-1], PROBE_EXPONENTS[-1] + 1)
    x1_pts, x1_wts = (v.reshape(-1, nodes.size) for v in _panel_rule(x1_edges, nodes, weights))
    # the first step whose domain {cutoff <= xi1 <= radius} holds each panel
    firsts = np.maximum(
        np.searchsorted(radii, x1_edges[1:]), np.searchsorted(-cutoffs, -x1_edges[:-1])
    )
    # transverse scales, at most the last radius (they overflow at large alpha)
    scales = np.minimum(x1_edges[:-1] * np.sqrt(1.0 + x1_edges[:-1] ** alpha), radii[-1])
    table = []
    for pts, wts, first, s in zip(x1_pts, x1_wts, firsts, scales):
        doublings = s * 2.0 ** np.arange(np.ceil(np.log2(radii[-1] / s)))
        x2_edges = np.unique(np.concatenate(([0.0], doublings[doublings < radii[-1]], radii[first:])))
        x2_pts, x2_wts = _panel_rule(x2_edges, nodes, weights)
        vals = kernel_symbol(pts[:, None], x2_pts[None, :], alpha, which)
        steps = np.maximum(first, np.searchsorted(radii, x2_edges[1:]))
        panel = (wts, x2_wts, vals, steps)
        for array in panel:
            array.setflags(write=False)
        table.append(panel)
    return tuple(table)


def _box_increments(which: str, alpha: float, p: float) -> np.ndarray:
    """Mass of |symbol|^p that each truncation step adds to the one before.

    One 2D quadrature over the final domain (times 4 by symmetry), on the
    cached table of (which, alpha) and the current rule: per xi1 panel, the
    weighted sum of the samples to the p over each cell, binned by step.
    """
    rule = (_GL_NODES.tobytes(), _GL_WEIGHTS.tobytes())
    increments = np.zeros(len(PROBE_EXPONENTS))
    for wts, x2_wts, vals, steps in _quadrature_table(which, float(alpha), rule):
        cells = (wts @ vals**p * x2_wts).reshape(steps.size, -1).sum(axis=1)
        increments += np.bincount(steps, weights=cells, minlength=increments.size)
    return 4.0 * increments


def integrability_probe(alpha: float, p: float, which: str) -> IntegrabilityProbe:
    """Probe whether |symbol|^p is integrable, by expanding truncations.

    Truncated L^p norms are accumulated over nested domains with outer
    radius doubling from 4 to 2^16 (inner cutoff radius**-3).  The verdict
    is converging when the final doubling grows the norm by less than 1%,
    diverging above 5%, inconclusive between.  All 15 norms come from one
    2D box quadrature at the final radius, nested so that each truncated
    domain is a union of its cells; each step's increment is a sum of
    nonnegative cells, so the norms never decrease.

    Raises
    ------
    InvalidExponentError
        For p <= 1/2, where the transverse integral diverges identically.
    ValueError
        If alpha (checked by SymbolParams) or p is not finite, or the running
        sum of |symbol|^p is not finite and positive: p is too large for
        float64 (as p = 1e300, or p = 50 for h).
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

    with np.errstate(over="ignore", invalid="ignore"):  # the sum is checked below
        increments = _box_increments(which, alpha, p)
    powers = np.cumsum(increments)
    running, increment = float(powers[-1]), increments[-1]
    if not (np.isfinite(running) and running > 0.0):
        raise ValueError(f"the running sum of |{which}|^p at p = {p!r} is {running!r}, not "
                         "finite and positive: outside the float64 range")

    norms = powers ** (1.0 / p)
    # 1 - (1 - increment/running)^(1/p), without the cancellation of the
    # difference of the last two norms
    last_increment = float(-np.expm1(np.log1p(-increment / running) / p))
    return IntegrabilityProbe(
        alpha=alpha,
        p=p,
        which=which,
        truncation_radii=2.0 ** np.array(PROBE_EXPONENTS, dtype=float),
        truncated_norms=norms,
        verdict=_verdict(last_increment),
        last_increment=last_increment,
    )
