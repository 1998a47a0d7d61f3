"""Cross sections, reflection symmetry, quadratic-decay plateaus."""

import numpy as np
import pytest

from fkplump.analysis import cross_section, decay_profile, symmetry_report
from fkplump.grid import RealField, SpectralGrid
from fkplump.reference import DomainRangeError, ExactLumpParams, exact_kp1_lump
from oracles import abs_max_symmetry_defects, meshes


@pytest.fixture(scope="module")
def exact_desk():
    grid = SpectralGrid(nx=1024, ny=1024, lx=256.0, ly=256.0)
    return exact_kp1_lump(grid, ExactLumpParams(c=1.0))


class TestCrossSection:
    def test_center_section_peak(self, exact_desk):
        data = cross_section(exact_desk, "x", 0.0)
        assert data.shape == (exact_desk.grid.nx, 2)
        i0 = exact_desk.grid.nx // 2
        assert data[i0, 0] == 0.0
        assert data[i0, 1] == pytest.approx(8.0, rel=1e-14)

    def test_sign_change_at_sqrt3(self, exact_desk):
        data = cross_section(exact_desk, "x", 0.0)
        coords, vals = data[:, 0], data[:, 1]
        root = np.sqrt(3.0)
        inside = vals[(coords > 0) & (coords < root - 0.5)]
        outside = vals[(coords > root + 0.5) & (coords < 10.0)]
        assert np.all(inside > 0)
        assert np.all(outside < 0)

    def test_nearest_gridline(self, exact_desk):
        grid = exact_desk.grid
        data = cross_section(exact_desk, "x", 0.3 * grid.dy)
        np.testing.assert_array_equal(data[:, 1], exact_desk.values[:, grid.ny // 2])

    def test_offset_out_of_range(self, exact_desk):
        with pytest.raises(DomainRangeError):
            cross_section(exact_desk, "x", 400.0)
        with pytest.raises(DomainRangeError):
            cross_section(exact_desk, "y", -256.1)

    def test_bad_axis(self, exact_desk):
        with pytest.raises(ValueError):
            cross_section(exact_desk, "z", 0.0)


class TestSymmetry:
    def test_exact_lump_is_symmetric(self, exact_desk):
        rep = symmetry_report(exact_desk)
        assert rep.x_defect <= 1e-12
        assert rep.y_defect <= 1e-12

    def test_pure_odd_function_defect_is_two(self, small_grid):
        X, Y = meshes(small_grid)
        f = RealField(small_grid, X * np.exp(-(X**2) - Y**2))
        rep = symmetry_report(f)
        assert rep.x_defect == pytest.approx(2.0, rel=1e-10)
        assert rep.y_defect <= 1e-12

    def test_zero_field(self, small_grid):
        rep = symmetry_report(RealField(small_grid, np.zeros(small_grid.shape)))
        assert rep.x_defect == 0.0
        assert rep.y_defect == 0.0

    @pytest.mark.parametrize("which", ["exact", "random"])
    def test_defects_are_the_abs_max_formula_bit_for_bit(self, exact_desk, rng, which):
        # sign of zero included: the exact lump's defects are +0.0
        phi = exact_desk
        if which == "random":
            phi = RealField(phi.grid, rng.standard_normal(phi.grid.shape))
        rep = symmetry_report(phi)
        expected = abs_max_symmetry_defects(phi)
        assert (rep.x_defect.hex(), rep.y_defect.hex()) == tuple(e.hex() for e in expected)
        if which == "exact":
            assert rep.x_defect.hex() == rep.y_defect.hex() == "0x0.0p+0"


class TestDecayProfile:
    def test_exact_lump_x_plateau(self, exact_desk):
        prof = decay_profile(exact_desk, "x")
        # x^2 phi(x, 0) -> -24 (asymptotics of the closed form)
        assert prof.plateau_value == pytest.approx(-24.0, rel=0.01)
        assert prof.plateau_rel_variation <= 0.01
        assert abs(prof.offset_estimate) <= 1e-4

    def test_exact_lump_y_plateau(self, exact_desk):
        prof = decay_profile(exact_desk, "y")
        assert prof.plateau_value == pytest.approx(24.0, rel=0.01)
        assert prof.plateau_rel_variation <= 0.01

    def test_radii_increasing_and_window(self, exact_desk):
        prof = decay_profile(exact_desk, "x")
        assert np.all(np.diff(prof.radii) > 0)
        assert np.all(prof.radii > 0)

    def test_constant_offset_is_absorbed(self, exact_desk):
        # adding a constant must not disturb the plateau
        shifted = RealField(exact_desk.grid, exact_desk.values + 1e-3)
        prof = decay_profile(shifted, "x")
        assert prof.plateau_value == pytest.approx(-24.0, rel=0.02)
        assert prof.offset_estimate == pytest.approx(1e-3, rel=0.05)

    def test_speed_scales_y_plateau(self):
        # y^2 phi(0, y) -> 24/c
        grid = SpectralGrid(nx=1024, ny=1024, lx=256.0, ly=256.0)
        f = exact_kp1_lump(grid, ExactLumpParams(c=2.0))
        prof = decay_profile(f, "y")
        assert prof.plateau_value == pytest.approx(12.0, rel=0.02)

