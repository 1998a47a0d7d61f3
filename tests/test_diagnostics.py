"""Residual operator, functionals, Fourier tail."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fkplump.grid
from fkplump.diagnostics import fourier_tail, functionals, residual
from fkplump.grid import RealField, SpectralGrid
from fkplump.reference import ExactLumpParams, exact_kp1_lump
from fkplump.solver import SolverConfig, SteadyOperator, solve
from fkplump.symbols import SymbolParams, mean_mode_denominator
from oracles import (
    cube_functionals,
    mask_fourier_tail,
    meshes,
    non_square_grids,
    odd_perturbed,
    peak_n2,
)

PARAMS = SymbolParams(alpha=2.0, c=1.0)


@pytest.fixture(scope="module")
def unit_solve():
    grid = SpectralGrid(nx=256, ny=256, lx=64.0, ly=64.0)
    field, report = solve(SolverConfig(params=PARAMS, grid=grid))
    assert report.converged()
    return field, report


class TestResidual:
    def test_zero_field(self, small_grid):
        assert residual(RealField(small_grid, np.zeros(small_grid.shape)), PARAMS) == 0.0

    def test_builds_no_denominator(self, small_grid, monkeypatch):
        # the residual never reads D, so the operator it builds forms no block of D
        def unused(*args, **kwargs):
            raise AssertionError("D was built")

        monkeypatch.setattr("fkplump.solver.SteadyOperator.denominator", unused)
        exact = exact_kp1_lump(small_grid, ExactLumpParams(c=1.0))
        assert residual(exact, PARAMS) > 0.0

    def test_converged_solution_below_tolerance(self, unit_solve):
        field, report = unit_solve
        assert residual(field, PARAMS) <= 1e-5
        assert residual(field, PARAMS) == pytest.approx(report.final.residual, rel=1e-6)

    def test_converged_quarter_solve_below_tolerance(self):
        # an alpha = 1.5 lump, solved and read back on the quarter
        params = SymbolParams(alpha=1.5, c=1.0)
        grid = SpectralGrid(nx=256, ny=256, lx=64.0, ly=64.0)
        field, report = solve(SolverConfig(params=params, grid=grid))
        assert report.converged() and report.transform == "dct1" and field.is_even_even
        assert residual(field, params) == pytest.approx(report.final.residual, rel=1e-6)

    def test_quarter_matches_half_lattice_on_exact_lump(self):
        # the quarter's dct1 route against the half-lattice's rfft2 route
        # (4.8e-13 relative measured on the 1024^2 desk grid)
        grid = SpectralGrid(nx=1024, ny=1024, lx=256.0, ly=256.0)
        exact = exact_kp1_lump(grid, ExactLumpParams(c=1.0))
        assert exact.is_even_even
        op = SteadyOperator(grid, PARAMS)
        half = op.residual(*op.spectra(exact.values))
        assert residual(exact, PARAMS) == pytest.approx(half, rel=1e-10, abs=0.0)

    def test_parity_rule_at_its_boundary(self, small_grid, monkeypatch):
        layouts = []

        class Spy(SteadyOperator):
            def __init__(self, grid, params, quarter=False):
                layouts.append(quarter)
                super().__init__(grid, params, quarter=quarter)

        monkeypatch.setattr("fkplump.diagnostics.SteadyOperator", Spy)
        values = [residual(odd_perturbed(small_grid, eps), PARAMS) for eps in (1e-14, 1e-12)]
        assert layouts == [True, False]
        assert values[0] == pytest.approx(values[1], rel=1e-9)

    def test_exact_lump_periodization_floor(self):
        # resolved grid (dx = 0.25): the floor is set by the periodic images
        grid = SpectralGrid(nx=2048, ny=2048, lx=256.0, ly=256.0)
        exact = exact_kp1_lump(grid, ExactLumpParams(c=1.0))
        assert residual(exact, PARAMS) <= 1e-2 * exact.max_abs()

    def test_floor_decreases_with_domain(self):
        # doubling lx at fixed dx shrinks the floor at least quadratically
        # (measured factor ~8, i.e. roughly cubically, on these grids)
        values = []
        for n, lx in [(1024, 64.0), (2048, 128.0)]:
            grid = SpectralGrid(nx=n, ny=n, lx=lx, ly=lx)
            values.append(residual(exact_kp1_lump(grid, ExactLumpParams(c=1.0)), PARAMS))
        ratio = values[0] / values[1]
        assert 3.0 <= ratio <= 12.0


class TestFunctionals:
    def test_zero_field(self, small_grid):
        v = functionals(RealField(small_grid, np.zeros(small_grid.shape)), 1.5)
        assert v.l_value == 0.0
        assert v.n_value == 0.0
        assert v.energy_norm == 0.0
        assert v.dc_mode == 0.0

    @pytest.mark.parametrize(
        "field, alpha",
        [("zero", 0.5), ("zero", 4.0), ("y-only", 4.0), ("constant", 4.0)],
    )
    def test_zero_seminorm_gives_infinite_ratio(self, small_grid, field, alpha):
        # a zero seminorm under a negative exponent (e1 at alpha = 0.5, e2 at
        # alpha = 4) used to warn of a division by zero on the way to inf
        _, Y = meshes(small_grid)
        values = {"zero": 0.0 * Y, "y-only": np.exp(-(Y**2)), "constant": 1.0 + 0.0 * Y}[field]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = functionals(RealField(small_grid, values), alpha)
        assert v.sobolev_ratio == np.inf

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0])
    def test_rejects_invalid_alpha(self, small_grid, alpha):
        # nan and inf used to give NaN or infinite functionals
        phi = RealField(small_grid, np.ones(small_grid.shape))
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            functionals(phi, alpha)

    def test_quadratic_identity_on_converged(self, unit_solve):
        # L by Parseval against the oracle's real-space quadrature
        field, _ = unit_solve
        v = functionals(field, 2.0)
        assert v.l_value == pytest.approx(cube_functionals(field, 2.0).l_value, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_quadratic_identity_on_random_fields(self, seed):
        grid = SpectralGrid(nx=32, ny=32, lx=8.0, ly=8.0)
        phi = RealField(grid, np.random.default_rng(seed).uniform(-1e3, 1e3, grid.shape))
        v = functionals(phi, 1.2)
        assert v.l_value == pytest.approx(cube_functionals(phi, 1.2).l_value, rel=1e-12)

    def test_homogeneity(self, unit_solve):
        field, _ = unit_solve
        v1 = functionals(field, 2.0)
        v2 = functionals(RealField(field.grid, 2.0 * field.values), 2.0)
        assert v2.l_value == pytest.approx(4.0 * v1.l_value, rel=1e-10)
        assert v2.n_value == pytest.approx(8.0 * v1.n_value, rel=1e-10)

    def test_converged_lump_values(self, unit_solve):
        # positive cubic mass and a finite anisotropic Sobolev ratio
        field, _ = unit_solve
        v = functionals(field, 2.0)
        assert v.n_value > 0.0
        assert np.isfinite(v.sobolev_ratio)
        assert v.sobolev_ratio > 0.0

    def test_nehari_identity_on_exact_lump(self):
        # multiplying the c = 1 steady equation by phi gives L = 3N/2; the
        # sampled exact lump misses it by its domain truncation, ~ lx^-2
        # (measured -1.15e-3 and -2.96e-4)
        defects = []
        for n, lx in [(256, 64.0), (512, 128.0)]:
            grid = SpectralGrid(nx=n, ny=n, lx=lx, ly=lx)
            v = functionals(exact_kp1_lump(grid, ExactLumpParams(c=1.0)), 2.0)
            defects.append(v.l_value / (1.5 * v.n_value) - 1.0)
        assert abs(defects[0]) <= 2e-3
        assert 3.5 <= defects[0] / defects[1] <= 4.5

    def test_nehari_identity_on_converged(self, unit_solve):
        field, _ = unit_solve
        v = functionals(field, 2.0)
        assert abs(v.l_value / (1.5 * v.n_value) - 1.0) <= 1e-3

    @pytest.mark.parametrize("t", [0.0, 10.0])
    @pytest.mark.parametrize("c", [1.0, 2.5])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("grid", non_square_grids(), ids=["64x32", "128x256"])
    def test_matches_cube_formula(self, grid, alpha, c, t):
        # one shared square against the separate powers phi^3 and |phi|^3,
        # and L by Parseval against the real-space quadrature
        phi = exact_kp1_lump(grid, ExactLumpParams(c=c, t=t))
        got, ref = functionals(phi, alpha), cube_functionals(phi, alpha)
        assert (got.energy_norm, got.dc_mode) == (ref.energy_norm, ref.dc_mode)
        assert got.l_value == pytest.approx(ref.l_value, rel=1e-12, abs=0.0)
        assert got.n_value == pytest.approx(ref.n_value, rel=1e-13, abs=0.0)
        assert got.sobolev_ratio == pytest.approx(ref.sobolev_ratio, rel=1e-13, abs=0.0)

    def test_dc_mode_fixed_point_identity(self, unit_solve):
        # on the torus the steady state forces mean(phi) = mean(phi^2)/D(0,0)
        field, _ = unit_solve
        v = functionals(field, 2.0)
        predicted = float(np.mean(field.values**2)) / mean_mode_denominator(PARAMS.c)
        assert v.dc_mode == pytest.approx(predicted, rel=1e-6)

    def test_holds_the_square_and_three_half_spectra(self):
        # the square (1.0 n^2), the weighted power spectrum and two product
        # temporaries (0.5 n^2 each): 2.51 n^2 at 512^2 with the spectrum
        # cached; inverting Dx^(a/2) phi and dx^-1 dy phi for a real-space
        # quadrature of L measured 5.51
        grid = SpectralGrid(nx=512, ny=512, lx=128.0, ly=128.0)
        phi = exact_kp1_lump(grid, ExactLumpParams(c=1.0))
        phi.spectrum
        _, peak = peak_n2(grid, lambda: functionals(phi, 2.0))
        assert peak <= 3.1


class TestSharedSpectrum:
    def test_non_even_field_is_transformed_once(self, monkeypatch):
        # functionals, fourier_tail and the half-lattice residual share the
        # field's cached spectrum; only the residual's phi^2 is transformed
        # too, and only the residual inverts a spectrum (S phi's)
        grid = SpectralGrid(nx=64, ny=32, lx=16.0, ly=12.0)
        phi = exact_kp1_lump(grid, ExactLumpParams(c=1.0, t=3.0))
        assert not phi.is_even_even
        forward = []
        rfft2 = fkplump.grid._sfft.rfft2

        def spy(values, *args, **kwargs):
            forward.append(values is phi.values)
            return rfft2(values, *args, **kwargs)

        inverse = []
        irfft = fkplump.grid._sfft.irfft

        def inverse_spy(*args, **kwargs):
            inverse.append(True)
            return irfft(*args, **kwargs)

        monkeypatch.setattr(fkplump.grid._sfft, "rfft2", spy)
        monkeypatch.setattr(fkplump.grid._sfft, "irfft", inverse_spy)
        functionals(phi, 1.5)
        assert inverse == []
        fourier_tail(phi)
        residual(phi, PARAMS)
        assert forward == [True, False]
        assert len(inverse) == 1


class TestFourierTail:
    def test_single_low_mode(self):
        grid = SpectralGrid(nx=64, ny=64, lx=np.pi, ly=np.pi)
        X, _ = meshes(grid)
        f = RealField(grid, np.cos(X))
        assert fourier_tail(f) <= 1e-12

    def test_zero_field(self, small_grid):
        assert fourier_tail(RealField(small_grid, np.zeros(small_grid.shape))) == 0.0

    def test_noise_is_flat(self, small_grid):
        for seed in range(10):
            values = np.random.default_rng(seed).standard_normal(small_grid.shape)
            assert fourier_tail(RealField(small_grid, values)) > 0.1

    def test_converged_solution_is_resolved(self, unit_solve):
        field, _ = unit_solve
        assert fourier_tail(field) < 0.05

    @pytest.mark.parametrize("t", [0.0, 10.0])
    @pytest.mark.parametrize("c", [1.0, 2.5])
    @pytest.mark.parametrize("grid", non_square_grids(), ids=["64x32", "128x256"])
    def test_matches_mask_formula(self, grid, c, t):
        lump = exact_kp1_lump(grid, ExactLumpParams(c=c, t=t))
        noise = RealField(grid, np.random.default_rng(7).standard_normal(grid.shape))
        for phi in (lump, noise):
            assert fourier_tail(phi) == mask_fourier_tail(phi)
