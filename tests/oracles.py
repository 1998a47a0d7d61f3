"""Reference formulas that the library is checked against.

The complex full-lattice formulas that the real half-lattice and real-space
code replaced, the whole-array D that the solver forms per row block, the
real-space quadrature of the quadratic functional that its Parseval sum
replaced, and the post-processing formulas that built coordinate
meshes, real-space shifted copies of the kernels, a spectral phase array, a
frequency mask or separate cube powers, the 1D incomplete-beta
reduction of the symbol probes that the nested box rule replaced, and
the fancy-indexed quarter fold and unfold that strided slices replaced.
The coordinate meshes themselves are built here too, for the tests' fields,
and so are the tracemalloc measure that the memory tests share and the
counter of the probes' symbol samplings.
"""

import tracemalloc

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import betainc

from fkplump import kernels
from fkplump.diagnostics import FunctionalValues
from fkplump.grid import RealField, SpectralGrid, irfft2, quarter_nodes, rfft2
from fkplump.kernels import PROBE_EXPONENTS, _panel_rule
from fkplump.symbols import (
    dispersion_symbol,
    mean_mode_denominator,
    symbol_h,
    symbol_m,
    symbol_t,
    transverse_multiplier,
)

#: Shift of the regularized reference: xi1 -> xi1 + i*LAMBDA.
LAMBDA = 2.2e-16


def meshes(grid):
    """2D coordinate meshes (X, Y) with indexing matching field storage."""
    return np.meshgrid(grid.x, grid.y, indexing="ij")


def peak_n2(grid, call):
    """call() and its tracemalloc peak, in float64 arrays of the grid's size (n^2).

    The grid's coordinates, wavenumbers and column weights are cached first.
    """
    grid.x, grid.y, grid.xi1, grid.xi2_half, grid.column_weights
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / (grid.nx * grid.ny * 8)


def count_symbol_calls(monkeypatch):
    """A list that gets the (alpha, which) of each kernels.kernel_symbol call."""
    calls = []
    symbol = kernels.kernel_symbol

    def counted(*args):
        calls.append(args[2:])
        return symbol(*args)

    monkeypatch.setattr(kernels, "kernel_symbol", counted)
    return calls


def petviashvili_denominator(xi1, xi2, p):
    """Denominator 2(c + T^2 + |xi1|^alpha) of the fixed-point map, whole and read-only.

    T is the transverse multiplier, 0 on the constrained row xi1 = 0, so D
    is finite there.  The origin holds symbols.mean_mode_denominator(c).
    SteadyOperator.denominator forms D per row block by the same formula
    and order of operations, so to the same bits.
    """
    transverse = transverse_multiplier(xi1, xi2) ** 2
    denom = 2.0 * (p.c + transverse + dispersion_symbol(xi1, p.alpha))
    denom = np.where((xi1 == 0) & (xi2 == 0), mean_mode_denominator(p.c), denom)
    denom.setflags(write=False)
    return denom


def complex_denominator(grid, p):
    """Regularized 2(c + xi2^2/(xi1 + i*lambda)^2 + |xi1|^alpha) on the full (nx, ny) lattice.

    The reference for the solver's real half-lattice D: off the
    constrained row xi1 = 0, D is the real part of its first ny/2 + 1
    columns to roundoff.  On that row it is ~ -2 xi2^2/LAMBDA^2; there D
    is finite and SteadyOperator zeroes the image instead.  The origin
    holds symbols.mean_mode_denominator(c).
    """
    xi1 = grid.xi1[:, None].astype(np.complex128)
    xi2 = grid.xi2[None, :]
    dispersion = dispersion_symbol(grid.xi1[:, None], p.alpha)
    denom = 2.0 * (p.c + xi2**2 / (xi1 + 1j * LAMBDA) ** 2 + dispersion)
    denom[0, 0] = mean_mode_denominator(p.c)
    return denom


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


def out_of_place_sinc_matrix(points, half_width, n):
    """The periodic sinc matrix of reference._periodic_sinc_matrix, as one whole-matrix formula."""
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


def odd_perturbed(grid, eps):
    """exp(-x^2 - 2 y^2) plus eps sin(pi x / lx) exp(-y^2): peak 1, x reflection defect 2 eps.

    The odd term peaks at 1 on the node x = lx/2, y = 0 and has zero mass
    along every line of constant y.
    """
    X, Y = meshes(grid)
    return RealField(grid, np.exp(-(X**2) - 2.0 * Y**2) + eps * np.sin(np.pi * X / grid.lx) * np.exp(-(Y**2)))


def meshgrid_gaussian(grid, amplitude, width):
    """The radial gaussian seed sampled on the 2D coordinate meshes."""
    X, Y = meshes(grid)
    with np.errstate(over="ignore"):
        return amplitude * np.exp(-(X**2 + Y**2) / np.float64(width) ** 2)


def meshgrid_exact_lump(grid, p):
    """The explicit alpha = 2 lump sampled on the 2D coordinate meshes."""
    X, Y = meshes(grid)
    c = p.c
    xs2 = (c / 3.0) * (X - c * p.t) ** 2
    ys2 = (c**2 / 3.0) * Y**2
    return 8.0 * c * (1.0 - xs2 + ys2) / (1.0 + xs2 + ys2) ** 2


def kernel_spectrum(grid, alpha, which):
    """The uncentred spectrum of K or H: 1 m or -i h, complex, as build_kernel transforms it."""
    return (1 + 0j) * symbol_m(grid, alpha) if which == "K" else -1j * symbol_h(grid, alpha)


def shifted_kernel(grid, alpha, which):
    """K or H, its origin moved from node 0 to the centre node by np.fft.fftshift in real space."""
    sym_values = kernel_spectrum(grid, alpha, which)
    scale = grid.nx * grid.ny / (4.0 * grid.lx * grid.ly)
    return scale * np.fft.fftshift(irfft2(sym_values, grid.shape))


def shifted_convolution(kernel, g):
    """The cell-weighted circular convolution, with the kernel's origin moved back to node 0
    by np.fft.ifftshift in real space."""
    grid = kernel.grid
    product = rfft2(np.fft.ifftshift(kernel.values)) * rfft2(g.values)
    return grid.cell_area * irfft2(product, grid.shape)


def phase_kernel(grid, alpha, which):
    """K or H, its origin moved to the centre node by the phase (-1)^(k1 + k2) on the spectrum."""
    sx = np.where(np.arange(grid.nx) % 2 == 0, 1.0, -1.0)
    sy = np.where(np.arange(grid.xi2_half.size) % 2 == 0, 1.0, -1.0)
    phase = sx[:, None] * sy[None, :]
    sym_values = kernel_spectrum(grid, alpha, which) * phase
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
    """The diagnostic functionals with phi^3 and |phi|^3 summed as separate powers.

    L is the real-space quadrature of phi^2 and the squares of the two
    fields Dx^(a/2) phi and dx^-1 dy phi, each inverted from the spectrum.
    """
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


def ix_fold_quarter(values):
    """The quarter x, y >= 0 of n^2 values, by np.ix_ on grid.quarter_nodes."""
    return values[np.ix_(quarter_nodes(values.shape[0]), quarter_nodes(values.shape[1]))]


def ix_unfold_quarter(values, shape):
    """The even-even n^2 field whose quarter is values: node n/2 +- k reads entry k, by np.ix_."""
    nx, ny = shape
    return values[np.ix_(np.abs(np.arange(nx) - nx // 2), np.abs(np.arange(ny) - ny // 2))]


def non_square_grids():
    """The two non-square grids on which each rewrite is checked against its oracle."""
    return [
        SpectralGrid(nx=64, ny=32, lx=16.0, ly=12.0),
        SpectralGrid(nx=128, ny=256, lx=24.0, ly=40.0),
    ]


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


def _panel_integral(f, lo: float, hi: float) -> float:
    """Integral of the vectorised f over [lo, hi] on dyadic Gauss-Legendre panels."""
    x, w = _panel_rule(_dyadic_panels(lo, hi), kernels._GL_NODES, kernels._GL_WEIGHTS)
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


def separated_norms(alpha, p, which):
    """The probe's 15 truncated L^p norms by the 1D incomplete-beta reduction.

    The xi2 integral of |symbol|^p is an incomplete-beta factor of the
    scaled variable z = xi2 / (xi1 sqrt(1 + xi1^alpha)), so each domain
    growth is three 1D panel integrals in xi1.  Near p = 1/2 this route
    loses about eight digits (its norms scatter by 1e-8 across rules).
    """
    radii = np.array([2.0**k for k in PROBE_EXPONENTS])
    cutoffs = radii**-3.0
    powers = []
    running = 0.0
    r_prev = cutoffs[0] * 2.0  # degenerate start: first increment covers all
    d_prev = r_prev
    with np.errstate(over="ignore", invalid="ignore"):
        for r_new, d_new in zip(radii, cutoffs):
            running += _separated_increment(which, alpha, p, r_prev, r_new, d_prev, d_new)
            powers.append(running)
            r_prev, d_prev = r_new, d_new
    return np.array(powers) ** (1.0 / p)
