"""Grid, field and transform contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkplump.grid import (
    InvalidFieldError,
    RealField,
    SpectralGrid,
    _sup,
    dct1,
    idct1,
    irfft2,
    rfft2,
)
from oracles import meshes


class TestSpectralGrid:
    def test_basic_properties(self):
        grid = SpectralGrid(nx=16, ny=32, lx=8.0, ly=4.0)
        assert grid.dx == 1.0
        assert grid.dy == 0.25
        assert grid.cell_area == 0.25
        assert grid.x[0] == -8.0
        assert grid.x[-1] == 8.0 - grid.dx
        np.testing.assert_allclose(np.diff(grid.x), grid.dx)

    @pytest.mark.parametrize(
        "bad",
        [dict(nx=12), dict(nx=4), dict(ny=0), dict(lx=-1.0), dict(ly=0.0),
         dict(lx=1e308), dict(ly=np.float64(1e308))],
    )
    def test_rejects_bad_parameters(self, bad):
        kwargs = dict(nx=16, ny=16, lx=1.0, ly=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            SpectralGrid(**kwargs)

    @pytest.mark.parametrize(
        "bad", [dict(lx=1e300), dict(ly=np.float64(1e160)), dict(lx=1e-300), dict(ly=1e-160)]
    )
    def test_rejects_overflowing_squares(self, bad):
        # x^2 + y^2 overflows for a large half-width, xi1^2 + xi2^2 for a small one
        kwargs = {**dict(nx=16, ny=16, lx=1.0, ly=1.0), **bad}
        with pytest.raises(ValueError, match="must keep x"):
            SpectralGrid(**kwargs)

    def test_wavenumber_order_nx8(self):
        # nx=8, lx=pi: transform-order signed indices 0..3, -4..-1
        grid = SpectralGrid(nx=8, ny=8, lx=np.pi, ly=np.pi)
        xi1 = grid.xi1
        np.testing.assert_allclose(xi1, [0, 1, 2, 3, -4, -3, -2, -1], atol=1e-14)

    def test_wavenumber_spacing(self):
        grid = SpectralGrid(nx=8, ny=8, lx=4.0, ly=4.0)
        xi1 = grid.xi1
        assert xi1[1] == pytest.approx(np.pi / 4.0, rel=1e-15)

    def test_experiment_scale_spacing(self):
        # 2^13 nodes on [-1024, 1024): spacing pi/1024
        grid = SpectralGrid(nx=2**13, ny=8, lx=1024.0, ly=1.0)
        xi1 = grid.xi1
        assert xi1[1] == pytest.approx(np.pi / 1024.0, rel=1e-15)
        assert xi1[1] == pytest.approx(3.0679615757712823e-3, rel=1e-12)

    def test_grid_is_immutable(self):
        grid = SpectralGrid(nx=16, ny=16, lx=1.0, ly=1.0)
        with pytest.raises(AttributeError):
            grid.nx = 32
        with pytest.raises(ValueError):
            grid.x[0] = 5.0

    def test_half_lattice_columns(self):
        # rfft2 keeps the columns k2 = 0..ny/2; the xi2 of the last one is
        # the (negative) Nyquist value of the full lattice
        grid = SpectralGrid(nx=8, ny=8, lx=np.pi, ly=np.pi)
        np.testing.assert_allclose(grid.xi2_half, [0, 1, 2, 3, -4], atol=1e-14)
        assert np.array_equal(grid.column_weights, [1.0, 2.0, 2.0, 2.0, 1.0])
        for arr in (grid.xi2_half, grid.column_weights):
            with pytest.raises(ValueError):
                arr[0] = 5.0


class TestFftWorkers:
    def test_defaults_to_single_worker(self, monkeypatch):
        from fkplump.grid import fft_workers

        monkeypatch.delenv("FKP_THREADS", raising=False)
        assert fft_workers() == 1

    def test_env_var_caps_parallelism(self, monkeypatch):
        from fkplump.grid import fft_workers

        monkeypatch.setenv("FKP_THREADS", "4")
        assert fft_workers() == 4
        monkeypatch.setenv("FKP_THREADS", "0")
        assert fft_workers() == 1
        monkeypatch.setenv("FKP_THREADS", "many")
        assert fft_workers() == 1

    def test_transform_value_unchanged_by_workers(self, monkeypatch, rng, small_grid):
        f = RealField(small_grid, rng.standard_normal(small_grid.shape))
        monkeypatch.setenv("FKP_THREADS", "2")
        threaded = rfft2(f.values)
        monkeypatch.setenv("FKP_THREADS", "1")
        single = rfft2(f.values)
        assert np.array_equal(threaded, single)


class TestFields:
    def test_rejects_non_finite(self, small_grid):
        values = np.zeros(small_grid.shape)
        values[3, 4] = np.nan
        with pytest.raises(InvalidFieldError):
            RealField(small_grid, values)

    def test_rejects_wrong_shape(self, small_grid):
        with pytest.raises(ValueError):
            RealField(small_grid, np.zeros((4, 4)))

    def test_values_read_only(self, small_grid):
        f = RealField(small_grid, np.zeros(small_grid.shape))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_sup_is_abs_max_bit_for_bit(self, small_grid, rng):
        # np.maximum(0.0, -0.0) is -0.0; the sup of zeros must be +0.0
        X, Y = meshes(small_grid)
        lump = 8.0 * (1.0 - X**2 / 3 + Y**2 / 3) / (1.0 + X**2 / 3 + Y**2 / 3) ** 2
        for values in (np.zeros(small_grid.shape), lump, lump - 2.0,
                       rng.standard_normal(small_grid.shape)):
            assert _sup(values).hex() == float(np.abs(values).max()).hex()
        assert RealField(small_grid, np.zeros(small_grid.shape)).max_abs().hex() == "0x0.0p+0"
        assert np.isnan(_sup(np.array([1.0, np.nan, -2.0])))


class TestTransforms:
    def test_constant_field_is_dc_only(self, small_grid):
        coeffs = rfft2(np.ones(small_grid.shape))
        n_total = small_grid.nx * small_grid.ny
        assert coeffs[0, 0] == pytest.approx(n_total, rel=1e-14)
        rest = coeffs.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) <= 1e-9 * n_total

    def test_single_cosine_mode(self):
        # exactly two nonzero coefficients, at modes (1, 0) and (-1, 0),
        # each of magnitude nx*ny/2 (the node origin at -lx flips the sign)
        grid = SpectralGrid(nx=32, ny=16, lx=5.0, ly=3.0)
        X, _ = meshes(grid)
        coeffs = rfft2(np.cos(np.pi * X / grid.lx))
        half = grid.nx * grid.ny / 2.0
        assert abs(coeffs[1, 0]) == pytest.approx(half, rel=1e-12)
        assert abs(coeffs[-1, 0]) == pytest.approx(half, rel=1e-12)
        assert coeffs[1, 0] == pytest.approx(coeffs[-1, 0].conjugate(), rel=1e-12)
        rest = coeffs.copy()
        rest[1, 0] = rest[-1, 0] = 0.0
        assert np.max(np.abs(rest)) <= 1e-9 * half

    def test_round_trip_random_field(self, rng):
        grid = SpectralGrid(nx=64, ny=64, lx=16.0, ly=16.0)
        f = rng.standard_normal(grid.shape)
        back = irfft2(rfft2(f), grid.shape)
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    def test_zero_coefficients_give_zero_field(self, small_grid):
        coeffs = np.zeros((small_grid.nx, small_grid.ny // 2 + 1), dtype=complex)
        assert np.all(irfft2(coeffs, small_grid.shape) == 0.0)

    def test_dc_coefficient_gives_constant(self, small_grid):
        coeffs = np.zeros((small_grid.nx, small_grid.ny // 2 + 1), dtype=complex)
        coeffs[0, 0] = small_grid.nx * small_grid.ny
        np.testing.assert_allclose(irfft2(coeffs, small_grid.shape), 1.0, atol=1e-13)

    def test_half_spectrum_is_the_full_one_truncated(self, rng):
        from fkplump.grid import fft2

        grid = SpectralGrid(nx=32, ny=16, lx=5.0, ly=3.0)
        values = rng.standard_normal(grid.shape)
        half = rfft2(values)
        assert half.shape == (grid.nx, grid.ny // 2 + 1)
        full = fft2(values)
        assert np.max(np.abs(half - full[:, : grid.ny // 2 + 1])) <= 1e-12 * np.max(np.abs(full))
        back = irfft2(half, grid.shape)
        assert np.max(np.abs(back - values)) <= 1e-12 * np.max(np.abs(values))

    def test_in_place_inverse_is_bit_identical(self, rng):
        grid = SpectralGrid(nx=32, ny=16, lx=5.0, ly=3.0)
        half = rfft2(rng.standard_normal(grid.shape))
        expected = irfft2(half, grid.shape)
        scratch = half.copy()
        assert np.array_equal(irfft2(scratch, grid.shape, overwrite_x=True), expected)

    def test_dct1_is_the_half_spectrum_of_an_even_even_field(self):
        # the quarter x, y >= 0 holds the field; its DCT-I is the rfft2 on
        # the rows k1 <= nx/2, up to the sign (-1)^(k1 + k2) of the shift
        grid = SpectralGrid(nx=32, ny=16, lx=5.0, ly=3.0)
        X, Y = meshes(grid)
        values = np.exp(-(X**2) - 0.5 * Y**4) * np.cos(X)
        rows = (16 + np.arange(17)) % 32
        cols = (8 + np.arange(9)) % 16
        quarter = values[np.ix_(rows, cols)]
        coeffs = dct1(quarter)
        sign = (-1.0) ** np.add.outer(np.arange(17), np.arange(9))
        half = rfft2(values)[:17]
        assert np.max(np.abs(sign * coeffs - half)) <= 1e-13 * np.max(np.abs(half))
        back = idct1(coeffs)
        assert np.max(np.abs(back - quarter)) <= 1e-14 * np.max(np.abs(quarter))
        assert np.array_equal(idct1(coeffs.copy(), overwrite_x=True), back)

    def test_exact_lump_round_trip(self):
        from fkplump.reference import ExactLumpParams, exact_kp1_lump

        grid = SpectralGrid(nx=128, ny=128, lx=32.0, ly=32.0)
        f = exact_kp1_lump(grid, ExactLumpParams(c=1.0))
        back = irfft2(rfft2(f.values), grid.shape)
        assert np.max(np.abs(back - f.values)) <= 1e-12 * f.max_abs()


class TestRealTransformsOnly:
    def test_no_complex_transform_on_library_paths(self, monkeypatch, rng):
        # every field is real, so no library path needs a complex 2D transform
        import scipy.fft

        from fkplump.diagnostics import fourier_tail, functionals, residual
        from fkplump.kernels import build_kernel, convolve
        from fkplump.reference import ExactLumpParams, exact_kp1_lump, rescale_solution
        from fkplump.symbols import SymbolParams

        def forbidden(*args, **kwargs):
            raise AssertionError("complex full-lattice transform called")

        for module in (scipy.fft, np.fft):
            for name in ("fft2", "ifft2", "fftn", "ifftn"):
                monkeypatch.setattr(module, name, forbidden)

        grid = SpectralGrid(nx=64, ny=64, lx=16.0, ly=16.0)
        phi = exact_kp1_lump(grid, ExactLumpParams(c=1.0))
        residual(phi, SymbolParams(alpha=2.0, c=1.0))
        functionals(phi, 1.5)
        fourier_tail(phi)
        K = build_kernel(grid, 1.5, "K")
        build_kernel(grid, 1.5, "H")
        convolve(K, RealField(grid, rng.standard_normal(grid.shape)))
        rescale_solution(phi, 2.0, 1.5, SpectralGrid(nx=32, ny=32, lx=8.0, ly=4.0))


@st.composite
def grid_and_two_fields(draw):
    n = draw(st.sampled_from([8, 16, 32]))
    grid = SpectralGrid(nx=n, ny=n, lx=4.0, ly=4.0)
    shape = st.floats(-100.0, 100.0, allow_nan=False)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    f = rng.uniform(-1e3, 1e3, grid.shape)
    g = rng.uniform(-1e3, 1e3, grid.shape)
    a = draw(shape)
    b = draw(shape)
    return grid, f, g, a, b


class TestTransformProperties:
    @settings(max_examples=25, deadline=None)
    @given(grid_and_two_fields())
    def test_linearity(self, data):
        grid, f, g, a, b = data
        lhs = rfft2(a * f + b * g)
        rhs = a * rfft2(f) + b * rfft2(g)
        scale = max(np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    @settings(max_examples=25, deadline=None)
    @given(grid_and_two_fields())
    def test_parseval(self, data):
        # each half-lattice column counts with its multiplicity in the full lattice
        grid, f, _, _, _ = data
        coeffs = rfft2(f)
        real_energy = np.sum(f**2) * grid.cell_area
        power = grid.column_weights * np.abs(coeffs) ** 2
        spec_energy = np.sum(power) * grid.cell_area / (grid.nx * grid.ny)
        assert spec_energy == pytest.approx(real_energy, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(grid_and_two_fields())
    def test_translation_phase(self, data):
        grid, f, _, _, _ = data
        shifted = np.roll(f, 1, axis=0)
        lhs = rfft2(shifted)
        k = np.fft.fftfreq(grid.nx) * grid.nx
        phase = np.exp(-2j * np.pi * k / grid.nx)[:, None]
        rhs = phase * rfft2(f)
        scale = max(np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale
