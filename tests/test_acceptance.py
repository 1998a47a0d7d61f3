"""Acceptance suite: one test per release criterion, and one lump above alpha = 2.

Each test prints the measured numbers next to its threshold; the
conftest summary hook prints a one-line pass/fail verdict per criterion
at the end of the run.
"""

import time

import numpy as np
import pytest

from fkplump.analysis import decay_profile, symmetry_report
from fkplump.fieldio import load_field, save_field
from fkplump.grid import RealField, SpectralGrid, irfft2, rfft2
from fkplump.kernels import build_kernel, convolve, integrability_probe, kernel_decay
from fkplump.reference import ExactLumpParams, exact_kp1_lump, rescale_solution
from fkplump.solver import SeedSpec, SolverConfig, solve
from fkplump.symbols import SymbolParams
from oracles import meshes, separated_norms


@pytest.mark.criterion(1, "alpha=2 oracle at desk scale")
def test_alpha2_oracle(desk_alpha2):
    field, report, config, elapsed = desk_alpha2
    exact = exact_kp1_lump(config.grid, ExactLumpParams(c=1.0))
    rel_error = np.max(np.abs(field.values - exact.values)) / exact.max_abs()
    print(
        f"[criterion 1] iterations={report.iterations} (<=120), "
        f"rel_error={rel_error:.3e} (<=5e-3), solve_time={elapsed:.1f}s (<=120s)"
    )
    assert report.converged()
    assert report.iterations <= 120
    assert rel_error <= 5e-3
    assert elapsed <= 120.0


@pytest.mark.criterion(2, "monitor contract at convergence")
def test_monitor_contract(desk_alpha2, desk_alpha17, desk_alpha15):
    for alpha, (field, report, config, _) in (
        (2.0, desk_alpha2),
        (1.7, desk_alpha17),
        (1.5, desk_alpha15),
    ):
        final = report.final
        bound = 1e-4 * field.max_abs()
        print(
            f"[criterion 2] alpha={alpha}: iter_error={final.iter_error:.2e} (<=1e-5), "
            f"|1-M|={final.factor_error:.2e} (<=1e-5), residual={final.residual:.2e} "
            f"(<=1e-5 and <={bound:.1e})"
        )
        assert final.iter_error <= 1e-5
        assert final.factor_error <= 1e-5
        assert final.residual <= 1e-5
        assert final.residual <= bound


@pytest.mark.criterion(3, "reflection symmetry of converged lumps")
def test_symmetry(desk_alpha2, desk_alpha17, desk_alpha135, tmp_path, rng):
    # The desk fixtures start from the even-even gaussian, so they run on
    # the DCT-I quarter and are unfolded from it: their defects are 0 by
    # construction.  The witness below runs on the rfft2 half-lattice, from
    # a seed that is not even-even, so there symmetry has to emerge.
    grid = SpectralGrid(nx=256, ny=256, lx=64.0, ly=64.0)
    X, Y = meshes(grid)
    noise = 1e-9 * rng.standard_normal(grid.shape) * np.exp(-(X**2 + Y**2) / 16.0)
    path = tmp_path / "noisy_seed.fkpl"
    save_field(path, RealField(grid, 3.0 * np.exp(-(X**2 + Y**2) / 4.0) + noise), 2.0, 1.0)
    config = SolverConfig(
        params=SymbolParams(alpha=2.0, c=1.0), grid=grid, seed=SeedSpec(kind="file", path=str(path))
    )
    witness, report = solve(config)
    assert report.converged() and report.transform == "rfft2"

    for alpha, field in (
        (2.0, desk_alpha2[0]),
        (1.7, desk_alpha17[0]),
        (1.35, desk_alpha135[0]),
        ("2 (noisy seed, rfft2)", witness),
    ):
        rep = symmetry_report(field)
        print(
            f"[criterion 3] alpha={alpha}: x_defect={rep.x_defect:.2e}, "
            f"y_defect={rep.y_defect:.2e} (<=1e-8)"
        )
        assert rep.x_defect <= 1e-8
        assert rep.y_defect <= 1e-8


@pytest.mark.criterion(4, "quadratic-decay plateaus")
def test_decay_plateaus(desk_alpha17):
    grid = SpectralGrid(nx=1024, ny=1024, lx=256.0, ly=256.0)
    exact = exact_kp1_lump(grid, ExactLumpParams(c=1.0))
    px = decay_profile(exact, "x")
    py = decay_profile(exact, "y")
    print(
        f"[criterion 4] exact: plateau_x={px.plateau_value:.2f} (-24 +-10%), "
        f"plateau_y={py.plateau_value:.2f} (+24 +-10%)"
    )
    assert px.plateau_value == pytest.approx(-24.0, rel=0.10)
    assert py.plateau_value == pytest.approx(24.0, rel=0.10)

    field, _, _, _ = desk_alpha17
    cx = decay_profile(field, "x")
    cy = decay_profile(field, "y")
    print(
        f"[criterion 4] alpha=1.7: plateau_x={cx.plateau_value:.2f} "
        f"var={cx.plateau_rel_variation:.3f}, plateau_y={cy.plateau_value:.2f} "
        f"var={cy.plateau_rel_variation:.3f} (<=0.15)"
    )
    for prof in (cx, cy):
        assert np.isfinite(prof.plateau_value)
        assert prof.plateau_value != 0.0
        assert prof.plateau_rel_variation <= 0.15


@pytest.mark.criterion(5, "kernel symbol integrability thresholds")
def test_integrability_thresholds():
    expectations = [
        ("m", 3.0, "converging"),
        ("m", 2.0, "diverging"),
        ("h", 1.9, "converging"),
        ("h", 2.1, "diverging"),
    ]
    for which, p, expected in expectations:
        start = time.perf_counter()
        probe = integrability_probe(1.0, p, which)
        elapsed = time.perf_counter() - start
        print(
            f"[criterion 5] {which}-probe p={p}: {probe.verdict} (expect {expected}), "
            f"last_increment={probe.last_increment:.4f}, time={elapsed:.1f}s (<=60s)"
        )
        assert probe.verdict == expected
        assert elapsed <= 60.0
        if expected == "converging":
            separated = separated_norms(1.0, p, which)[-1]
            agreement = abs(probe.truncated_norms[-1] - separated) / separated
            print(f"[criterion 5]    2D-vs-separated agreement {agreement:.2e} (<=1e-3)")
            assert agreement <= 1e-3


@pytest.mark.criterion(6, "kernel decay: r^2 K and r H bounded")
def test_kernel_decay():
    grid = SpectralGrid(nx=4096, ny=4096, lx=256.0, ly=256.0)
    for alpha in (1.0, 2.0):
        K = build_kernel(grid, alpha, "K")
        for axis in "xy":
            prof = kernel_decay(K, 2, axis)
            print(
                f"[criterion 6] r^2*K alpha={alpha} {axis}-axis: "
                f"plateau={prof.plateau_value:.4f} var={prof.plateau_rel_variation:.3f} (<=0.25)"
            )
            assert np.isfinite(prof.plateau_value)
            assert prof.plateau_value != 0.0
            assert prof.plateau_rel_variation <= 0.25
    H = build_kernel(grid, 1.0, "H")
    prof = kernel_decay(H, 1, "x")
    print(
        f"[criterion 6] r*H alpha=1 x-axis: plateau={prof.plateau_value:.4f} "
        f"var={prof.plateau_rel_variation:.3f} (<=0.25)"
    )
    assert np.isfinite(prof.plateau_value)
    assert prof.plateau_rel_variation <= 0.25


@pytest.mark.criterion(7, "convolution identity for converged solutions")
def test_convolution_identity(desk_alpha2, desk_alpha17, desk_alpha15, desk_alpha135):
    for alpha, (field, _, config, _) in (
        (2.0, desk_alpha2),
        (1.7, desk_alpha17),
        (1.5, desk_alpha15),
        (1.35, desk_alpha135),
    ):
        kernel = build_kernel(field.grid, alpha, "K")
        squared = RealField(field.grid, field.values**2)
        reconstructed = 0.5 * convolve(kernel, squared).values
        error = np.max(np.abs(field.values - reconstructed))
        bound = 5.0 * config.tol
        print(f"[criterion 7] alpha={alpha}: |phi - K*phi^2/2| = {error:.2e} (<= {bound:.0e})")
        assert error <= bound


@pytest.mark.criterion(8, "speed-rescaling law at alpha=1.5")
def test_scaling_law(scaling_pair):
    (src_field, src_config), (tgt_field, tgt_config) = scaling_pair
    rescaled = rescale_solution(src_field, 1.5, 2.0, tgt_field.grid)
    rel = np.max(np.abs(rescaled.values - tgt_field.values)) / tgt_field.max_abs()
    print(f"[criterion 8] rescaled-vs-direct rel sup diff = {rel:.2e} (<=1e-3)")
    assert rel <= 1e-3


@pytest.mark.criterion(9, "peakedness increases as alpha decreases")
def test_peakedness_trend(desk_alpha2, desk_alpha17, desk_alpha135):
    values = {
        alpha: float(np.max(desk[0].values))
        for alpha, desk in [(1.35, desk_alpha135), (1.7, desk_alpha17), (2.0, desk_alpha2)]
    }
    print(
        f"[criterion 9] amplitudes: alpha=1.35 -> {values[1.35]:.4f}, "
        f"1.7 -> {values[1.7]:.4f}, 2.0 -> {values[2.0]:.4f} (strictly decreasing); "
        f"alpha=2 within 1% of 8"
    )
    assert values[1.35] > values[1.7] > values[2.0]
    assert values[2.0] == pytest.approx(8.0, rel=0.01)


def test_lump_above_alpha2():
    # No criterion reaches above alpha = 2.  At alpha = 3 the lump is
    # cheap (14 iterations on 512^2); its peak extends criterion 9's order
    # below 8, and its far field meets the -/+ A/(4 pi) plateaus, with
    # A = integral of phi^2, that the lumps below alpha = 2 meet.
    grid = SpectralGrid(nx=512, ny=512, lx=128.0, ly=128.0)
    field, report = solve(SolverConfig(params=SymbolParams(alpha=3.0), grid=grid))
    peak = field.max_abs()
    sym = symmetry_report(field)
    predicted = float(np.sum(field.values**2)) * grid.cell_area / (4.0 * np.pi)
    px, py = (decay_profile(field, axis).plateau_value for axis in "xy")
    kernel = build_kernel(grid, 3.0, "K")
    error = np.max(np.abs(field.values - 0.5 * convolve(kernel, RealField(grid, field.values**2)).values))
    print(
        f"[alpha=3] iterations={report.iterations}, peak={peak:.4f} (<8), "
        f"defects={sym.x_defect:.1e}, {sym.y_defect:.1e} (<=1e-8), A/(4pi)={predicted:.3f}, "
        f"plateaus {px:.3f}, {py:.3f} (within 4%), |phi - K*phi^2/2|/peak={error / peak:.1e} (<=1e-6)"
    )
    assert report.converged()
    assert peak < 8.0
    assert max(sym.x_defect, sym.y_defect) <= 1e-8
    assert px == pytest.approx(-predicted, rel=0.04)
    assert py == pytest.approx(predicted, rel=0.04)
    assert error <= 1e-6 * peak


@pytest.mark.criterion(10, "infrastructure: transforms, files, determinism")
def test_infrastructure(tmp_path, rng):
    grid = SpectralGrid(nx=128, ny=128, lx=32.0, ly=32.0)
    field = RealField(grid, rng.standard_normal(grid.shape))

    coeffs = rfft2(field.values)
    back = irfft2(coeffs, grid.shape)
    round_trip = np.max(np.abs(back - field.values)) / field.max_abs()

    real_energy = np.sum(field.values**2) * grid.cell_area
    power = grid.column_weights * np.abs(coeffs) ** 2
    spectral_energy = np.sum(power) * grid.cell_area / (grid.nx * grid.ny)
    parseval = abs(spectral_energy - real_energy) / real_energy

    path = tmp_path / "field.fkpl"
    save_field(path, field, alpha=2.0, c=1.0)
    bit_exact = np.array_equal(load_field(path).field.values, field.values)

    config = SolverConfig(params=SymbolParams(alpha=2.0, c=1.0), grid=grid, max_iter=25)
    _, r1 = solve(config)
    _, r2 = solve(config)
    deterministic = r1.records == r2.records

    print(
        f"[criterion 10] round_trip={round_trip:.2e} (<=1e-12), parseval={parseval:.2e} "
        f"(<=1e-10), file_bit_exact={bit_exact}, deterministic_logs={deterministic}"
    )
    assert round_trip <= 1e-12
    assert parseval <= 1e-10
    assert bit_exact
    assert deterministic
