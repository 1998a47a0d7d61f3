"""Fourier multiplier values and parities on the rfft2 half-lattice."""

import numpy as np
import pytest

from fkplump.grid import SpectralGrid, irfft2, rfft2
from fkplump.kernels import build_kernel
from fkplump.solver import SteadyOperator
from fkplump.symbols import (
    SymbolParams,
    dispersion_symbol,
    kernel_symbol,
    petviashvili_denominator,
    symbol_h,
    symbol_m,
    symbol_t,
    transverse_multiplier,
)
from oracles import complex_denominator, meshes


def lattice_value(grid, values, k1, k2):
    """Value at signed mode index k1 and column k2 (0 <= k2 <= ny/2)."""
    return values[k1 % grid.nx, k2]


def half_lattice(grid):
    """The wavenumbers (xi1 column, xi2 row) of the rfft2 half-lattice."""
    return grid.xi1[:, None], grid.xi2_half[None, :]


def apply_multiplier(values, sym):
    """The real field whose half-spectrum is sym * rfft2(values)."""
    return irfft2(sym * rfft2(values), values.shape)


@pytest.fixture()
def grid_pi():
    # lx = ly = pi gives integer wavenumbers, handy for spot values
    return SpectralGrid(nx=16, ny=16, lx=np.pi, ly=np.pi)


class TestDenominator:
    def test_spot_values(self, grid_pi):
        d2 = petviashvili_denominator(*half_lattice(grid_pi), SymbolParams(alpha=2.0, c=1.0))
        assert lattice_value(grid_pi, d2, 1, 0) == pytest.approx(4.0, rel=1e-12)
        assert lattice_value(grid_pi, d2, 0, 0) == pytest.approx(2.0, rel=1e-12)
        d1 = petviashvili_denominator(*half_lattice(grid_pi), SymbolParams(alpha=1.0, c=1.0))
        assert lattice_value(grid_pi, d1, 1, 2) == pytest.approx(12.0, rel=1e-12)

    def test_origin_is_2c(self, grid_pi):
        for c in (0.5, 1.0, 3.0):
            d = petviashvili_denominator(*half_lattice(grid_pi), SymbolParams(alpha=1.3, c=c))
            assert d[0, 0] == pytest.approx(2.0 * c, rel=1e-12)

    def test_modulus_floor(self, grid_pi):
        p = SymbolParams(alpha=1.5, c=0.7)
        d = petviashvili_denominator(*half_lattice(grid_pi), p)
        assert np.min(np.abs(d)) >= 2.0 * p.c * (1.0 - 1e-12)

    def test_imaginary_part_small(self):
        # the imaginary part of the complex reference off its constrained row
        grid = SpectralGrid(nx=64, ny=64, lx=100.0, ly=100.0)
        p = SymbolParams(alpha=1.0, c=1.0)
        dropped = complex_denominator(grid, p)[:, : grid.ny // 2 + 1].imag
        d = petviashvili_denominator(*half_lattice(grid), p)
        interior = np.abs(dropped)[1:, :]  # the regularized zero row is huge by design
        assert np.max(interior) <= 1e-12 * np.max(np.abs(d[1:, :]))

    def test_matches_complex_reference_off_constrained_row(self):
        # off the row xi1 = 0 the real D is the regularized complex one's
        # real part to roundoff; on that row the transverse term is taken
        # as 0, leaving the finite 2c (the operator projects the row out)
        grid = SpectralGrid(nx=64, ny=32, lx=100.0, ly=40.0)
        p = SymbolParams(alpha=1.5, c=1.0)
        full = complex_denominator(grid, p)[:, : grid.ny // 2 + 1]
        half = petviashvili_denominator(*half_lattice(grid), p)
        assert half.dtype == np.float64
        assert half.shape == (grid.nx, grid.ny // 2 + 1)
        assert not half.flags.writeable
        assert np.max(np.abs(half[1:] / full.real[1:] - 1.0)) <= 1e-15
        assert np.all(half[0] == 2.0 * p.c)

    def test_even_in_both_variables(self, grid_pi):
        # even in xi1 on the stored columns, and each stored column k2 also
        # holds the oracle's value at the conjugate column -k2
        p = SymbolParams(alpha=1.7, c=1.0)
        d = petviashvili_denominator(*half_lattice(grid_pi), p)
        full = complex_denominator(grid_pi, p).real
        for k1, k2 in [(1, 2), (3, 5), (2, 0), (4, 8)]:
            assert lattice_value(grid_pi, d, -k1, k2) == pytest.approx(
                lattice_value(grid_pi, d, k1, k2), rel=1e-12
            )
            assert full[k1, -k2 % grid_pi.ny] == pytest.approx(
                lattice_value(grid_pi, d, k1, k2), rel=1e-12
            )


# A real half-lattice symbol s stands for the full-lattice symbol with
# s(k1, -k2) = s(-k1, k2), so its parity in xi1 on the stored columns
# fixes its parity in xi2 as well.


class TestSymbolM:
    def test_spot_values(self, grid_pi):
        m2 = symbol_m(grid_pi, 2.0)
        assert lattice_value(grid_pi, m2, 1, 0) == pytest.approx(0.5, rel=1e-12)
        m1 = symbol_m(grid_pi, 1.0)
        assert lattice_value(grid_pi, m1, 2, 0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_zero_row(self, grid_pi):
        m = symbol_m(grid_pi, 1.35)
        assert np.max(np.abs(m[0, 1:])) <= 1e-30

    def test_range(self, grid_pi):
        for alpha in (0.5, 1.0, 1.7, 2.0):
            m = symbol_m(grid_pi, alpha)
            assert m.dtype == np.float64
            assert np.all(m >= 0.0)
            assert np.all(m <= 1.0)

    def test_even_in_both(self, grid_pi):
        m = symbol_m(grid_pi, 1.5)
        for k1, k2 in [(1, 2), (3, 1), (5, 4), (3, 8)]:
            assert lattice_value(grid_pi, m, -k1, k2) == lattice_value(grid_pi, m, k1, k2)

    def test_read_only_half_lattice(self, grid_pi):
        for sym in (symbol_m(grid_pi, 1.5), symbol_h(grid_pi, 1.5), symbol_t(grid_pi)):
            assert sym.shape == (grid_pi.nx, grid_pi.ny // 2 + 1)
            assert not sym.flags.writeable


class TestSymbolH:
    def test_spot_values(self, grid_pi):
        h2 = symbol_h(grid_pi, 2.0)
        assert lattice_value(grid_pi, h2, 1, 0) == pytest.approx(0.5, rel=1e-12)
        h1 = symbol_h(grid_pi, 1.0)
        assert lattice_value(grid_pi, h1, 1, 1) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_zero_row(self, grid_pi):
        h = symbol_h(grid_pi, 1.0)
        assert np.all(h[0, :] == 0.0)

    def test_odd_in_x_even_in_y(self, grid_pi):
        h = symbol_h(grid_pi, 1.5)
        for k1 in range(1, grid_pi.nx // 2):  # Nyquist row excluded (unpaired)
            for k2 in (0, 1, 3, 8):
                assert lattice_value(grid_pi, h, -k1, k2) == -lattice_value(grid_pi, h, k1, k2)

    def test_odd_on_every_row(self, grid_pi):
        # row k1 mirrors to row -k1 mod nx; the Nyquist row is its own mirror, so 0
        h = symbol_h(grid_pi, 1.5)
        assert np.array_equal(h[-np.arange(grid_pi.nx) % grid_pi.nx], -h)
        assert np.all(h[grid_pi.nx // 2] == 0.0)


class TestSymbolT:
    def test_zero_on_constrained_and_nyquist_lines(self, grid_pi):
        t = symbol_t(grid_pi)
        assert np.all(t[0] == 0.0)
        assert np.all(t[grid_pi.nx // 2] == 0.0)
        assert np.all(t[:, -1] == 0.0)
        assert np.array_equal(t[-np.arange(grid_pi.nx) % grid_pi.nx], -t)  # odd in xi1

    def test_transverse_multiplier_elsewhere(self, grid_pi):
        nx = grid_pi.nx
        rows = np.r_[1 : nx // 2, nx // 2 + 1 : nx]
        expected = transverse_multiplier(*half_lattice(grid_pi))
        assert np.array_equal(symbol_t(grid_pi)[rows, :-1], expected[rows, :-1])
        assert lattice_value(grid_pi, symbol_t(grid_pi), -2, 3) == -1.5


class TestSymbolDecisions:
    """kernel_symbol, transverse_multiplier and the alpha rule they share."""

    def test_kernel_symbol_pointwise(self):
        xi1 = np.array([0.0, 0.0, 1.0, -2.0])
        xi2 = np.array([0.0, 3.0, 1.0, 0.0])
        # 0/0 at the origin is 0; elsewhere the plain quotient with |xi1|
        assert np.array_equal(kernel_symbol(xi1, xi2, 2.0, "m"), [0.0, 0.0, 1 / 3, 4 / 20])
        assert np.array_equal(kernel_symbol(xi1, xi2, 2.0, "h"), [0.0, 0.0, 1 / 3, -2 / 20])

    def test_kernel_symbol_rejects_unknown_symbol(self):
        with pytest.raises(ValueError, match="which"):
            kernel_symbol(np.ones(2), np.ones(2), 1.5, "k")

    def test_transverse_multiplier(self, grid_pi):
        t = transverse_multiplier(*half_lattice(grid_pi))
        assert t.shape == (grid_pi.nx, grid_pi.ny // 2 + 1)
        assert np.all(t[0, :] == 0.0)  # the constrained row
        assert lattice_value(grid_pi, t, 2, 3) == pytest.approx(1.5, rel=1e-12)
        assert lattice_value(grid_pi, t, -2, 3) == -lattice_value(grid_pi, t, 2, 3)

    def test_dispersion_symbol_rejects_overflow(self):
        # pi**1e300 overflows; below 1 the power underflows to 0, which is harmless
        with pytest.raises(ValueError, match="alpha = 1e\\+300 is too large"):
            dispersion_symbol(np.array([0.0, 0.5, np.pi]), 1e300)
        assert np.array_equal(dispersion_symbol(np.array([0.0, 0.5]), 1e300), [0.0, 0.0])

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("symbol", [symbol_m, symbol_h])
    def test_lattice_symbols_reject_invalid_alpha(self, grid_pi, symbol, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            symbol(grid_pi, alpha)

    @pytest.mark.parametrize("which", ["K", "H"])
    def test_build_kernel_rejects_nan_alpha(self, grid_pi, which):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            build_kernel(grid_pi, np.nan, which)


class TestApplyMultiplier:
    """Half-lattice symbols applied to real fields by rfft2 / irfft2."""

    def test_cosine_eigenfunction(self):
        # |xi1|^2 has eigenvalue 1 on cos(pi x / lx) when lx = pi
        grid = SpectralGrid(nx=32, ny=16, lx=np.pi, ly=2.0)
        X, _ = meshes(grid)
        f = np.cos(X)
        sym = grid.xi1[:, None] ** 2 * np.ones((1, grid.ny // 2 + 1))
        assert np.max(np.abs(apply_multiplier(f, sym) - f)) <= 1e-12

    def test_impulse_response_matches_kernel(self):
        # the Petviashvili image at M = 1 (1/D, constrained row zeroed)
        # applied to a delta impulse samples K/2
        grid = SpectralGrid(nx=256, ny=256, lx=64.0, ly=64.0)
        delta = np.zeros(grid.shape)
        delta[grid.nx // 2, grid.ny // 2] = 1.0 / grid.cell_area
        op = SteadyOperator(grid, SymbolParams(alpha=2.0, c=1.0))
        out = irfft2(op.image(rfft2(delta), 1.0, 2.0), grid.shape)
        kernel = build_kernel(grid, 2.0, "K")
        assert np.max(np.abs(out - 0.5 * kernel.values)) <= 1e-12
