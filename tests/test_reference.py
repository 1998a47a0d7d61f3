"""Closed-form lump, seeds and the speed-rescaling map."""

import numpy as np
import pytest
from oracles import (
    complex_rescale,
    meshes,
    meshgrid_exact_lump,
    meshgrid_gaussian,
    non_square_grids,
    odd_perturbed,
    out_of_place_sinc_matrix,
    peak_n2,
)

from fkplump.grid import RealField, SpectralGrid, fold_quarter
from fkplump.reference import (
    DomainRangeError,
    ExactLumpParams,
    _periodic_sinc_matrix,
    exact_kp1_lump,
    gaussian_seed,
    rescale_solution,
)


@pytest.fixture()
def lump_grid():
    return SpectralGrid(nx=256, ny=256, lx=64.0, ly=64.0)


class TestExactLump:
    def test_peak_value(self, lump_grid):
        f = exact_kp1_lump(lump_grid, ExactLumpParams(c=1.0))
        i0, j0 = lump_grid.nx // 2, lump_grid.ny // 2
        assert f.values[i0, j0] == pytest.approx(8.0, rel=1e-14)

    def test_peak_scales_with_speed(self, lump_grid):
        f = exact_kp1_lump(lump_grid, ExactLumpParams(c=2.5))
        assert np.max(f.values) == pytest.approx(8.0 * 2.5, rel=1e-12)

    def test_zero_crossing_at_sqrt3(self):
        # the formula vanishes on 1 - x^2/3 = 0 along y = 0
        x = np.sqrt(3.0)
        value = 8.0 * (1.0 - x**2 / 3.0) / (1.0 + x**2 / 3.0) ** 2
        assert value == pytest.approx(0.0, abs=1e-15)
        # on the lattice the section changes sign across sqrt(3)
        grid = SpectralGrid(nx=256, ny=256, lx=64.0, ly=64.0)
        f = exact_kp1_lump(grid, ExactLumpParams(c=1.0))
        j0 = grid.ny // 2
        section = f.values[:, j0]
        before = section[np.searchsorted(grid.x, x) - 1]
        after = section[np.searchsorted(grid.x, x)]
        assert before > 0 > after

    def test_positive_along_y_axis(self, lump_grid):
        f = exact_kp1_lump(lump_grid, ExactLumpParams(c=1.0))
        assert np.all(f.values[lump_grid.nx // 2, :] > 0.0)

    def test_traveling_frame_shift(self, lump_grid):
        # at t != 0 the peak sits at x = c t
        f = exact_kp1_lump(lump_grid, ExactLumpParams(c=1.0, t=10.0))
        i_peak = np.unravel_index(np.argmax(f.values), f.values.shape)[0]
        assert lump_grid.x[i_peak] == pytest.approx(10.0, abs=lump_grid.dx)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            ExactLumpParams(c=0.0)

    def test_rejects_speed_whose_square_overflows(self):
        # a Python float power raises OverflowError on c**2
        with pytest.raises(ValueError, match="c must be positive with c\\*c finite"):
            ExactLumpParams(c=1e200)

    @pytest.mark.parametrize("t", [0.0, 10.0])
    @pytest.mark.parametrize("c", [1.0, 2.5])
    @pytest.mark.parametrize("grid", non_square_grids(), ids=["64x32", "128x256"])
    def test_matches_meshgrid_formula(self, grid, c, t):
        p = ExactLumpParams(c=c, t=t)
        assert np.array_equal(exact_kp1_lump(grid, p).values, meshgrid_exact_lump(grid, p))

    def test_holds_one_field(self):
        # the formula runs in row blocks and the field adopts its array
        # (2.13 n^2: the whole-grid formula, a copy and a finiteness mask)
        grid = SpectralGrid(nx=1024, ny=1024, lx=256.0, ly=256.0)
        lump, peak = peak_n2(grid, lambda: exact_kp1_lump(grid, ExactLumpParams(c=1.0)))
        assert peak <= 1.2
        assert not lump.values.flags.writeable


class TestGaussianSeed:
    def test_center_and_width_values(self, lump_grid):
        f = gaussian_seed(lump_grid, amplitude=3.0, width=2.0)
        i0, j0 = lump_grid.nx // 2, lump_grid.ny // 2
        assert f.values[i0, j0] == pytest.approx(3.0, rel=1e-14)
        # at r = w the value is A/e; node (w, 0) lies on the lattice
        iw = i0 + int(round(2.0 / lump_grid.dx))
        assert f.values[iw, j0] == pytest.approx(3.0 / np.e, rel=1e-12)

    def test_holds_one_field(self):
        # the formula runs in row blocks and the field adopts its array (was 2.13 n^2)
        grid = SpectralGrid(nx=1024, ny=1024, lx=256.0, ly=256.0)
        seed, peak = peak_n2(grid, lambda: gaussian_seed(grid, amplitude=3.0, width=2.0))
        assert peak <= 1.2
        assert np.array_equal(seed.values, meshgrid_gaussian(grid, 3.0, 2.0))

    @pytest.mark.parametrize(
        "amplitude, width", [(3.0, 2.0), (-1.0, 1.7), (1.0, 1e-100), (2.0, 1e200)]
    )
    @pytest.mark.parametrize("grid", non_square_grids(), ids=["64x32", "128x256"])
    def test_matches_meshgrid_formula(self, grid, amplitude, width):
        # one partial row block on 64x32, two whole ones on 128x256; at width
        # 1e-100 the quotient overflows to inf, which gives exp's limit 0
        seed = gaussian_seed(grid, amplitude=amplitude, width=width).values
        assert np.array_equal(seed, meshgrid_gaussian(grid, amplitude, width))

    def test_even_in_both(self, lump_grid):
        f = gaussian_seed(lump_grid, amplitude=1.0, width=3.0)
        v = f.values
        assert np.array_equal(v, np.roll(v[::-1, :], 1, axis=0))
        assert np.array_equal(v, np.roll(v[:, ::-1], 1, axis=1))

    def test_rejects_bad_parameters(self, lump_grid):
        with pytest.raises(ValueError):
            gaussian_seed(lump_grid, amplitude=1.0, width=0.0)
        with pytest.raises(ValueError):
            gaussian_seed(lump_grid, amplitude=0.0, width=1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="width must be finite"):
                gaussian_seed(lump_grid, amplitude=1.0, width=bad)
            with pytest.raises(ValueError, match="amplitude must be finite"):
                gaussian_seed(lump_grid, amplitude=bad, width=1.0)


    def test_extreme_widths(self, lump_grid):
        # 1e200**2 overflows: a flat seed; 1e-160**2 is subnormal: the
        # quotient overflows away from the origin and the seed is a spike
        flat = gaussian_seed(lump_grid, amplitude=3.0, width=1e200).values
        assert np.all(flat == 3.0)
        spike = gaussian_seed(lump_grid, amplitude=3.0, width=1e-160).values
        assert spike[128, 128] == 3.0 and np.count_nonzero(spike) == 1
        with pytest.raises(ValueError, match="width must be finite and positive with w\\*w > 0"):
            gaussian_seed(lump_grid, amplitude=1.0, width=1e-300)


class TestRescale:
    def test_identity_at_c1(self):
        grid = SpectralGrid(nx=256, ny=256, lx=64.0, ly=64.0)
        psi = exact_kp1_lump(grid, ExactLumpParams(c=1.0))
        out = rescale_solution(psi, alpha=2.0, c=1.0, target_grid=grid)
        assert np.max(np.abs(out.values - psi.values)) <= 1e-10

    def test_matches_closed_form(self):
        # alpha=2: the rescaled c=1 lump must equal the exact lump at speed c
        src = SpectralGrid(nx=1024, ny=1024, lx=128.0, ly=128.0)
        psi = exact_kp1_lump(src, ExactLumpParams(c=1.0))
        tgt = SpectralGrid(nx=512, ny=512, lx=64.0, ly=48.0)
        out = rescale_solution(psi, alpha=2.0, c=1.3, target_grid=tgt)
        expected = exact_kp1_lump(tgt, ExactLumpParams(c=1.3))
        assert np.max(np.abs(out.values - expected.values)) <= 1e-6

    def test_round_trip_composition(self):
        # rescaling to speed c and then to speed 1/c is the identity
        src = SpectralGrid(nx=512, ny=512, lx=64.0, ly=64.0)
        psi = exact_kp1_lump(src, ExactLumpParams(c=1.0))
        mid_grid = SpectralGrid(nx=512, ny=512, lx=32.0, ly=24.0)
        up = rescale_solution(psi, alpha=2.0, c=1.5, target_grid=mid_grid)
        back_grid = SpectralGrid(nx=256, ny=256, lx=16.0, ly=8.0)
        back = rescale_solution(up, alpha=2.0, c=1.0 / 1.5, target_grid=back_grid)
        expected = exact_kp1_lump(back_grid, ExactLumpParams(c=1.0))
        # tolerance: twice the single-interpolation error budget
        assert np.max(np.abs(back.values - expected.values)) <= 2e-6

    @pytest.mark.parametrize(
        "n_src, n_tgt, alpha, c", [(256, 128, 1.5, 1.7), (64, 32, 2.0, 0.8)]
    )
    def test_matches_complex_fourier_series(self, n_src, n_tgt, alpha, c):
        # neither even nor band-limited below Nyquist: a shifted, tilted
        # gaussian plus white noise
        src = SpectralGrid(nx=n_src, ny=n_src, lx=16.0, ly=16.0)
        X, Y = meshes(src)
        u, v = X - 1.3, Y + 0.9
        values = np.exp(-(u**2 + 0.7 * v**2 + 0.6 * u * v) / 4.0)
        values += 1e-3 * np.random.default_rng(5).standard_normal(src.shape)
        psi = RealField(src, values)
        tgt = SpectralGrid(nx=n_tgt, ny=n_tgt, lx=8.0, ly=6.0)
        out = rescale_solution(psi, alpha=alpha, c=c, target_grid=tgt).values
        expected = complex_rescale(psi, alpha, c, tgt)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [16, 64, 2048])
    def test_sinc_matrix_is_the_out_of_place_formula(self, n):
        # built in row blocks, with the same operations in the same order: the same
        # bits; at n = 2048 the 47 rows fill five blocks of 8 and end in one of 7
        half_width = 3.0
        dx = 2.0 * half_width / n
        points = np.concatenate([
            np.linspace(-half_width, half_width - dx, 37) * 0.9,
            -half_width + dx * np.arange(5),  # on nodes
            -half_width + dx * (np.arange(5) + n / 2),  # half a period away
        ])
        assert np.array_equal(_periodic_sinc_matrix(points, half_width, n),
                              out_of_place_sinc_matrix(points, half_width, n))

    @pytest.mark.parametrize(
        "n_src, n_tgt, alpha, c", [(256, 128, 1.5, 1.7), (64, 32, 2.0, 0.8)]
    )
    def test_even_source_is_read_on_its_quarter(self, n_src, n_tgt, alpha, c):
        # an even-even source, not band-limited below Nyquist: a gaussian plus
        # white noise on the quarter, mirrored
        src = SpectralGrid(nx=n_src, ny=n_src, lx=16.0, ly=16.0)
        X, Y = meshes(src)
        mirror = np.abs(np.arange(n_src) - n_src // 2)
        noise = np.random.default_rng(5).standard_normal((n_src // 2 + 1,) * 2)
        psi = RealField(src, np.exp(-(X**2 + 0.7 * Y**2) / 4.0) + 1e-3 * noise[np.ix_(mirror, mirror)])
        assert psi.is_even_even
        tgt = SpectralGrid(nx=n_tgt, ny=n_tgt, lx=8.0, ly=6.0)
        out = rescale_solution(psi, alpha=alpha, c=c, target_grid=tgt).values
        px = _periodic_sinc_matrix(c ** (1.0 / alpha) * tgt.x, src.lx, src.nx)
        py = _periodic_sinc_matrix(c ** (1.0 / alpha + 0.5) * tgt.y, src.ly, src.ny)
        unfolded = c * (px @ psi.values @ py.T)
        assert np.max(np.abs(out - unfolded)) <= 1e-12 * np.max(np.abs(unfolded))
        expected = complex_rescale(psi, alpha, c, tgt)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_parity_rule_at_its_boundary(self, monkeypatch):
        # the source's quarter is read exactly when RealField.is_even_even holds
        folds = []

        def spy(values):
            folds.append(values.shape)
            return fold_quarter(values)

        monkeypatch.setattr("fkplump.reference.fold_quarter", spy)
        src = SpectralGrid(nx=64, ny=64, lx=16.0, ly=16.0)
        tgt = SpectralGrid(nx=32, ny=32, lx=8.0, ly=6.0)
        for eps, quarter in ((1e-14, True), (1e-12, False)):
            folds.clear()
            rescale_solution(odd_perturbed(src, eps), alpha=2.0, c=1.2, target_grid=tgt)
            assert folds == ([src.shape] if quarter else [])

    def test_even_source_is_written_on_the_targets_quarter(self, monkeypatch):
        # a non-square target: the sinc matrices hold nx/2 + 1 and ny/2 + 1
        # target points, and the result is the mirror of its quarter
        points = []

        def spy(targets, half_width, n):
            points.append(targets.size)
            return _periodic_sinc_matrix(targets, half_width, n)

        monkeypatch.setattr("fkplump.reference._periodic_sinc_matrix", spy)
        src = SpectralGrid(nx=128, ny=64, lx=16.0, ly=8.0)
        tgt = SpectralGrid(nx=64, ny=32, lx=8.0, ly=4.0)
        for eps, quarter in ((1e-14, True), (1e-12, False)):
            points.clear()
            out = rescale_solution(odd_perturbed(src, eps), alpha=2.0, c=1.2, target_grid=tgt)
            assert points == ([33, 17] if quarter else [64, 32])
        psi = exact_kp1_lump(src, ExactLumpParams(c=1.0))
        out = rescale_solution(psi, alpha=2.0, c=1.2, target_grid=tgt)
        assert out.reflection_defects == (0.0, 0.0)
        px = _periodic_sinc_matrix(1.2**0.5 * tgt.x, src.lx, src.nx)
        py = _periodic_sinc_matrix(1.2 * tgt.y, src.ly, src.ny)
        whole = 1.2 * (px @ psi.values @ py.T)
        assert np.max(np.abs(out.values - whole)) <= 1e-12 * np.max(np.abs(whole))

    def test_end_node_outside_the_source_raises_for_an_even_source(self):
        # only the target node x = -lx, the last of its quarter, is stretched
        # past the source's edge: -8 * 1.01^(1/2) < -8, while 6 * 1.01^(1/2) < 7.75
        src = SpectralGrid(nx=64, ny=64, lx=8.0, ly=8.0)
        psi = exact_kp1_lump(src, ExactLumpParams(c=1.0))
        assert psi.is_even_even
        tgt = SpectralGrid(nx=8, ny=8, lx=8.0, ly=2.0)
        with pytest.raises(DomainRangeError):
            rescale_solution(psi, alpha=2.0, c=1.01, target_grid=tgt)
        rescale_solution(psi, alpha=2.0, c=0.99, target_grid=tgt)

    def test_out_of_domain_raises(self):
        src = SpectralGrid(nx=64, ny=64, lx=8.0, ly=8.0)
        psi = exact_kp1_lump(src, ExactLumpParams(c=1.0))
        tgt = SpectralGrid(nx=64, ny=64, lx=8.0, ly=8.0)
        with pytest.raises(DomainRangeError):
            rescale_solution(psi, alpha=2.0, c=4.0, target_grid=tgt)

    def test_overflowing_stretch_raises(self):
        # c ** (1 / alpha) = 10**1000 overflows a Python float
        grid = SpectralGrid(nx=32, ny=32, lx=8.0, ly=8.0)
        psi = exact_kp1_lump(grid, ExactLumpParams(c=1.0))
        with pytest.raises(DomainRangeError):
            rescale_solution(psi, alpha=0.001, c=10.0, target_grid=grid)

    @pytest.mark.parametrize(
        "alpha, c",
        [(np.nan, 1.0), (np.inf, 1.0), (0.0, 1.0), (2.0, np.nan), (2.0, np.inf), (2.0, -1.0)],
    )
    def test_rejects_non_finite_or_non_positive_parameters(self, alpha, c):
        # nan compares false with 0, so a bare "<= 0" check lets it through
        grid = SpectralGrid(nx=32, ny=32, lx=8.0, ly=8.0)
        psi = exact_kp1_lump(grid, ExactLumpParams(c=1.0))
        with pytest.raises(ValueError, match="finite and positive"):
            rescale_solution(psi, alpha=alpha, c=c, target_grid=grid)
