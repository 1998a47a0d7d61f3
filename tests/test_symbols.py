"""Fourier multiplier values, parities and application."""

import numpy as np
import pytest

from fkplump.grid import GridMismatchError, RealField, SpectralGrid
from fkplump.kernels import build_kernel
from fkplump.symbols import (
    MultiplierField,
    SymbolParams,
    UnsupportedEquationError,
    apply_multiplier,
    half_lattice_denominator,
    petviashvili_denominator,
    symbol_h,
    symbol_m,
)


def lattice_value(grid, values, k1, k2):
    """Value at signed mode indices (k1, k2)."""
    return values[k1 % grid.nx, k2 % grid.ny]


@pytest.fixture()
def grid_pi():
    # lx = ly = pi gives integer wavenumbers, handy for spot values
    return SpectralGrid(nx=16, ny=16, lx=np.pi, ly=np.pi)


class TestDenominator:
    def test_spot_values(self, grid_pi):
        d2 = petviashvili_denominator(grid_pi, SymbolParams(alpha=2.0, c=1.0)).values
        assert lattice_value(grid_pi, d2, 1, 0) == pytest.approx(4.0, rel=1e-12)
        assert lattice_value(grid_pi, d2, 0, 0) == pytest.approx(2.0, rel=1e-12)
        d1 = petviashvili_denominator(grid_pi, SymbolParams(alpha=1.0, c=1.0)).values
        assert lattice_value(grid_pi, d1, 1, 2) == pytest.approx(12.0, rel=1e-12)

    def test_origin_is_2c(self, grid_pi):
        for c in (0.5, 1.0, 3.0):
            d = petviashvili_denominator(grid_pi, SymbolParams(alpha=1.3, c=c)).values
            assert d[0, 0] == pytest.approx(2.0 * c, rel=1e-12)

    def test_modulus_floor(self, grid_pi):
        p = SymbolParams(alpha=1.5, c=0.7)
        d = petviashvili_denominator(grid_pi, p).values
        assert np.min(np.abs(d)) >= 2.0 * p.c * (1.0 - 1e-12)

    def test_imaginary_part_small(self):
        grid = SpectralGrid(nx=64, ny=64, lx=100.0, ly=100.0)
        d = petviashvili_denominator(grid, SymbolParams(alpha=1.0, c=1.0)).values
        interior = np.abs(d.imag)[1:, :]  # the regularized zero row is huge by design
        assert np.max(interior) <= 1e-12 * np.max(np.abs(d[1:, :]))

    def test_half_lattice_is_real_part(self):
        # the solver's real half-lattice D is the real part of the complex
        # one; the dropped imaginary part is at most 2 lambda/|xi1| of it
        grid = SpectralGrid(nx=64, ny=32, lx=100.0, ly=40.0)
        p = SymbolParams(alpha=1.5, c=1.0)
        full = petviashvili_denominator(grid, p).values[:, : grid.ny // 2 + 1]
        half = half_lattice_denominator(grid, p)
        assert half.dtype == np.float64
        assert np.array_equal(half, full.real)
        xi1 = np.abs(grid.xi1[1:, None])
        assert np.all(np.abs(full.imag[1:]) <= 2.0 * p.lam / xi1 * np.abs(full.real[1:]))
        assert np.all(full.imag[0] == 0.0)

    def test_zero_row_is_huge(self, grid_pi):
        d = petviashvili_denominator(grid_pi, SymbolParams(alpha=2.0, c=1.0)).values
        assert np.min(np.abs(d[0, 1:])) > 1e20  # annihilates non-zero-mass modes

    def test_rejects_weak_surface_tension(self, grid_pi):
        with pytest.raises(UnsupportedEquationError):
            petviashvili_denominator(grid_pi, SymbolParams(alpha=2.0, c=1.0, sigma=1))

    def test_even_in_both_variables(self, grid_pi):
        d = petviashvili_denominator(grid_pi, SymbolParams(alpha=1.7, c=1.0)).values
        for k1, k2 in [(1, 2), (3, 5), (2, 0)]:
            assert lattice_value(grid_pi, d, -k1, k2) == pytest.approx(
                lattice_value(grid_pi, d, k1, k2), rel=1e-12
            )
            assert lattice_value(grid_pi, d, k1, -k2) == pytest.approx(
                lattice_value(grid_pi, d, k1, k2), rel=1e-12
            )


class TestSymbolM:
    def test_spot_values(self, grid_pi):
        m2 = symbol_m(grid_pi, 2.0).values
        assert lattice_value(grid_pi, m2, 1, 0) == pytest.approx(0.5, rel=1e-12)
        m1 = symbol_m(grid_pi, 1.0).values
        assert lattice_value(grid_pi, m1, 2, 0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_zero_row(self, grid_pi):
        m = symbol_m(grid_pi, 1.35).values
        assert np.max(np.abs(m[0, 1:])) <= 1e-30

    def test_range(self, grid_pi):
        for alpha in (0.5, 1.0, 1.7, 2.0):
            m = symbol_m(grid_pi, alpha).values
            assert np.all(m.real >= 0.0)
            assert np.all(m.real <= 1.0)
            assert np.all(m.imag == 0.0)

    def test_even_in_both(self, grid_pi):
        m = symbol_m(grid_pi, 1.5).values
        for k1, k2 in [(1, 2), (3, 1), (5, 4)]:
            assert lattice_value(grid_pi, m, -k1, k2) == lattice_value(grid_pi, m, k1, k2)
            assert lattice_value(grid_pi, m, k1, -k2) == lattice_value(grid_pi, m, k1, k2)


class TestSymbolH:
    def test_spot_values(self, grid_pi):
        h2 = symbol_h(grid_pi, 2.0).values
        assert lattice_value(grid_pi, h2, 1, 0) == pytest.approx(0.5, rel=1e-12)
        h1 = symbol_h(grid_pi, 1.0).values
        assert lattice_value(grid_pi, h1, 1, 1) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_zero_row(self, grid_pi):
        h = symbol_h(grid_pi, 1.0).values
        assert np.all(h[0, :] == 0.0)

    def test_odd_in_x_even_in_y(self, grid_pi):
        h = symbol_h(grid_pi, 1.5).values
        for k1 in range(1, grid_pi.nx // 2):  # Nyquist row excluded (unpaired)
            for k2 in (0, 1, 3):
                assert lattice_value(grid_pi, h, -k1, k2) == -lattice_value(grid_pi, h, k1, k2)
                assert lattice_value(grid_pi, h, k1, -k2) == lattice_value(grid_pi, h, k1, k2)


class TestApplyMultiplier:
    def test_identity(self, small_grid, rng):
        f = RealField(small_grid, rng.standard_normal(small_grid.shape))
        one = MultiplierField(small_grid, np.ones(small_grid.shape, dtype=complex))
        out = apply_multiplier(f, one)
        assert np.max(np.abs(out.values - f.values)) <= 1e-12 * f.max_abs()

    def test_cosine_eigenfunction(self):
        # |xi1|^2 has eigenvalue 1 on cos(pi x / lx) when lx = pi
        grid = SpectralGrid(nx=32, ny=16, lx=np.pi, ly=2.0)
        X, _ = grid.meshes()
        f = RealField(grid, np.cos(X))
        sym = MultiplierField(grid, (grid.xi1[:, None] ** 2 + 0j) * np.ones((1, grid.ny)))
        out = apply_multiplier(f, sym)
        assert np.max(np.abs(out.values - f.values)) <= 1e-12

    def test_grid_mismatch(self, small_grid):
        other = SpectralGrid(nx=32, ny=32, lx=16.0, ly=16.0)
        f = RealField(small_grid, np.zeros(small_grid.shape))
        m = MultiplierField(other, np.ones(other.shape, dtype=complex))
        with pytest.raises(GridMismatchError):
            apply_multiplier(f, m)

    def test_impulse_response_matches_kernel(self):
        # reciprocal denominator applied to a delta impulse samples K/2
        grid = SpectralGrid(nx=256, ny=256, lx=64.0, ly=64.0)
        values = np.zeros(grid.shape)
        values[grid.nx // 2, grid.ny // 2] = 1.0 / grid.cell_area
        delta = RealField(grid, values)
        denom = petviashvili_denominator(grid, SymbolParams(alpha=2.0, c=1.0))
        out = apply_multiplier(delta, MultiplierField(grid, 1.0 / denom.values))
        kernel = build_kernel(grid, 2.0, "K")
        assert np.max(np.abs(out.values - 0.5 * kernel.values)) <= 1e-12
