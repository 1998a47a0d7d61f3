"""Kernel construction, decay, and symbol integrability probes."""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from fkplump import kernels
from fkplump.grid import GridMismatchError, RealField, SpectralGrid
from fkplump.kernels import (
    InvalidExponentError,
    _separated_increment,
    build_kernel,
    convolve,
    integrability_probe,
    kernel_decay,
)
from oracles import non_square_grids, phase_kernel


M_THRESHOLD = 2.0 / (4.0 / 3.0) + 0.5  # m's L^p threshold at alpha = 4/3
H_LOWER = 0.5 + 3.0 / (2.0 * (1.0 + 4.0 / 3.0))  # lower end of h's window at alpha = 4/3

#: (alpha, p, which, truncated_norms[-1], last_increment, box_norm) of the
#: adaptive-quadrature probe that the fixed panel rule replaced: the four
#: criterion-5 cases, then the alpha = 4/3 and 1.5 cases below.
PROBE_TABLE = [
    (1.0, 3.0, "m", 1.4520547874943477, 0.0022695687010640454, 1.4520547874943477),
    (1.0, 2.0, "m", 19.32895789187516, 0.11413733134687605, 19.328957891875163),
    (1.0, 1.9, "h", 6.021101966472979, 0.004725683316379242, 6.021101966472981),
    (1.0, 2.1, "h", 24.26973555573279, 0.09833314213436171, 24.269735555732794),
    (4 / 3, 0.8 * M_THRESHOLD, "m", 37.912246583087956, 0.13386873266691596, 37.912246583088),
    (4 / 3, 1.2 * M_THRESHOLD, "m", 1.799996790152491, 0.002750153988188892, 1.7999967901524916),
    (4 / 3, 0.8 * H_LOWER, "h", 876.8112163994808, 0.22058792653507123, 876.8112163992224),
    (4 / 3, 1.2 * H_LOWER, "h", 6.213949541785324, 0.00313786972274233, 6.213949541785326),
    (4 / 3, 1.6, "h", 4.311482236691283, 8.050603656233272e-05, 4.311482236691284),
    (4 / 3, 2.4, "h", 571.154322034266, 0.2928941626563801, 571.1543220342661),
    (1.5, 2.2, "m", 1.9858938156894856, 0.003018090705992452, 1.9858938156894852),
    (1.5, 1.6, "h", 4.245967429731169, 3.639245918422463e-05, 4.245967429731169),
]


@pytest.fixture(scope="module")
def kernel_grid():
    return SpectralGrid(nx=1024, ny=1024, lx=64.0, ly=64.0)


class TestBuildKernel:
    def test_k_parity(self, kernel_grid):
        K = build_kernel(kernel_grid, 1.5, "K").values
        assert np.max(np.abs(K - np.roll(K[::-1, :], 1, axis=0))) <= 1e-10 * np.max(np.abs(K))
        assert np.max(np.abs(K - np.roll(K[:, ::-1], 1, axis=1))) <= 1e-10 * np.max(np.abs(K))

    def test_h_parity(self, kernel_grid):
        H = build_kernel(kernel_grid, 1.5, "H").values
        scale = np.max(np.abs(H))
        assert np.max(np.abs(H + np.roll(H[::-1, :], 1, axis=0))) <= 1e-10 * scale
        assert np.max(np.abs(H - np.roll(H[:, ::-1], 1, axis=1))) <= 1e-10 * scale

    @pytest.mark.parametrize("which", ["K", "H"])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("grid", non_square_grids(), ids=["64x32", "128x256"])
    def test_matches_phase_modulated_formula(self, grid, alpha, which):
        # the centre shift in real space equals the (-1)^(k1 + k2) phase on the spectrum
        got = build_kernel(grid, alpha, which).values
        assert np.array_equal(got, phase_kernel(grid, alpha, which))

    def test_invalid_kind(self, kernel_grid):
        with pytest.raises(ValueError):
            build_kernel(kernel_grid, 1.0, "Q")

    def test_k_decay_plateau(self, kernel_grid):
        prof = kernel_decay(build_kernel(kernel_grid, 2.0, "K"), 2, "x")
        assert np.isfinite(prof.plateau_value)
        assert prof.plateau_value != 0.0
        assert prof.plateau_rel_variation <= 0.25

    def test_h_linear_decay(self, kernel_grid):
        prof = kernel_decay(build_kernel(kernel_grid, 1.0, "H"), 1, "x")
        assert np.isfinite(prof.plateau_value)
        assert prof.plateau_rel_variation <= 0.25

    def test_kernel_decay_rejects_other_powers(self, kernel_grid):
        K = build_kernel(kernel_grid, 2.0, "K")
        with pytest.raises(ValueError):
            kernel_decay(K, 3)


class TestConvolve:
    def test_grid_mismatch(self, kernel_grid, small_grid):
        K = build_kernel(kernel_grid, 2.0, "K")
        g = RealField(small_grid, np.ones(small_grid.shape))
        with pytest.raises(GridMismatchError):
            convolve(K, g)

    def test_delta_reproduces_kernel(self, kernel_grid):
        K = build_kernel(kernel_grid, 2.0, "K")
        values = np.zeros(kernel_grid.shape)
        values[kernel_grid.nx // 2, kernel_grid.ny // 2] = 1.0 / kernel_grid.cell_area
        delta = RealField(kernel_grid, values)
        out = convolve(K, delta)
        assert np.max(np.abs(out.values - K.values)) <= 1e-10 * np.max(np.abs(K.values))


class TestIntegrabilityProbe:
    def test_rejects_tiny_exponent(self):
        with pytest.raises(InvalidExponentError):
            integrability_probe(1.0, 0.5, "m")

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ValueError):
            integrability_probe(1.0, 2.0, "q")

    @pytest.mark.parametrize(
        "alpha, p", [(1.0, np.nan), (np.nan, 2.0), (np.inf, 2.0), (1.0, np.inf)]
    )
    def test_rejects_non_finite_parameters(self, alpha, p):
        with pytest.raises(ValueError, match="finite"):
            integrability_probe(alpha, p, "m")

    @pytest.mark.parametrize("p, which", [(1e300, "m"), (50.0, "h")])
    def test_rejects_running_sum_outside_float64(self, p, which):
        # p = 1e300 underflows the running sum to 0; p = 50 overflows h's to nan
        with pytest.raises(ValueError, match="running sum"):
            integrability_probe(1.0, p, which)

    def test_rejects_box_norm_outside_float64(self, monkeypatch):
        monkeypatch.setattr(kernels, "_box_quadrature", lambda *args: np.inf)
        with pytest.raises(ValueError, match="box norm"):
            integrability_probe(1.0, 3.0, "m")

    @pytest.mark.parametrize("alpha, p, which, norm, last, box", PROBE_TABLE)
    def test_matches_adaptive_quadrature_table(self, alpha, p, which, norm, last, box):
        probe = integrability_probe(alpha, p, which)
        assert probe.truncated_norms[-1] == pytest.approx(norm, rel=1e-10)
        assert probe.last_increment == pytest.approx(last, rel=1e-10, abs=0.0)
        assert probe.box_norm == pytest.approx(box, rel=1e-10)

    @pytest.mark.parametrize("which", ["m", "h"])
    def test_near_critical_exponent_is_warning_free(self, which):
        # p = 0.55 sits just above the p = 1/2 limit of the transverse integral
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probe = integrability_probe(3.0, 0.55, which)
        assert np.all(np.isfinite(probe.truncated_norms))
        assert np.isfinite(probe.box_norm)

    def test_import_leaves_out_scipy_integrate(self):
        code = "import sys, fkplump; print('scipy.integrate' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_last_increment_matches_extended_precision(self):
        # m, alpha = 2, p = 3: the final doubling adds 1.3e-8 of the norm,
        # so the difference of the last two double-precision norms would
        # keep only half the digits.  Reference: the same increments,
        # summed and rooted with 50 digits.
        mpmath = pytest.importorskip("mpmath")
        alpha, p = 2.0, 3.0
        probe = integrability_probe(alpha, p, "m")
        radii = probe.truncation_radii
        cutoffs = radii**-3.0
        starts = [(2.0 * cutoffs[0], 2.0 * cutoffs[0])] + list(zip(radii[:-1], cutoffs[:-1]))
        with mpmath.workdps(50):
            sums = [mpmath.mpf(0)]
            for (r_prev, d_prev), r_new, d_new in zip(starts, radii, cutoffs):
                inc = _separated_increment("m", alpha, p, r_prev, r_new, d_prev, d_new)
                sums.append(sums[-1] + mpmath.mpf(inc))
            last, prev = sums[-1] ** (1 / mpmath.mpf(p)), sums[-2] ** (1 / mpmath.mpf(p))
            expected = float((last - prev) / last)
        assert probe.last_increment == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert probe.last_increment == pytest.approx(1.28e-8, rel=0.01)

    def test_norms_nondecreasing(self):
        probe = integrability_probe(1.0, 3.0, "m")
        assert np.all(np.diff(probe.truncated_norms) >= 0.0)
        assert np.all(np.diff(probe.truncation_radii) > 0.0)

    def test_m_threshold_bracketing_l2_critical(self):
        # at alpha = 4/3 the threshold sits exactly at p = 2
        below = integrability_probe(4.0 / 3.0, 0.8 * M_THRESHOLD, "m")
        above = integrability_probe(4.0 / 3.0, 1.2 * M_THRESHOLD, "m")
        assert below.verdict == "diverging"
        assert above.verdict == "converging"

    def test_h_window_bracketing(self):
        assert integrability_probe(4.0 / 3.0, 0.8 * H_LOWER, "h").verdict == "diverging"
        assert integrability_probe(4.0 / 3.0, 1.2 * H_LOWER, "h").verdict == "converging"
        assert integrability_probe(4.0 / 3.0, 0.8 * 2.0, "h").verdict == "converging"
        assert integrability_probe(4.0 / 3.0, 1.2 * 2.0, "h").verdict == "diverging"

    def test_box_quadrature_agrees_on_converging_cases(self):
        for which, p in [("m", 2.2), ("h", 1.6)]:
            probe = integrability_probe(1.5, p, which)
            assert probe.verdict == "converging"
            assert probe.box_norm == pytest.approx(
                probe.truncated_norms[-1], rel=1e-3
            )
