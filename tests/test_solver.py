"""Petviashvili iteration: configuration, stabilizing factor, convergence."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkplump import solver
from fkplump.diagnostics import residual
from fkplump.fieldio import save_field
from fkplump.grid import (
    RealField,
    SpectralGrid,
    fft2,
    ifft2,
    irfft2,
    rfft2,
    small_ufunc_buffers,
)
from fkplump.reference import ExactLumpParams, exact_kp1_lump
from fkplump.solver import (
    ACCEL_GATE,
    DivergenceError,
    IterationReport,
    SeedSpec,
    SolveStatus,
    SolverConfig,
    SteadyOperator,
    build_seed,
    solve,
)
from fkplump.symbols import SymbolParams
from oracles import complex_denominator, meshes, odd_perturbed, peak_n2, petviashvili_denominator

PARAMS = SymbolParams(alpha=2.0, c=1.0)
EXACT_SEED = SeedSpec(kind="exact-kp1")

#: How the stop reason of each status begins.
REASON_PREFIXES = {
    SolveStatus.CONVERGED: ("all three monitors",),
    SolveStatus.MAX_ITER: ("max-iter",),
    SolveStatus.DIVERGED: (
        "step factor M^nu", "iteration produced non-finite", "sup|phi|", "constant state",
        "cubic pairing vanished",
    ),
}


# --- complex full-lattice reference ---------------------------------------
# The step and residual as they were before the half-spectrum operator:
# complex fft2/ifft2 on the full lattice, against the complex regularized
# denominator.  SteadyOperator must reproduce them to roundoff.


def complex_factor(denom, phi_hat, sq_hat):
    """M from full-lattice conjugate pairings, constrained row excluded."""
    conj_hat = np.conj(phi_hat)
    num_terms = denom * phi_hat * conj_hat
    den_terms = sq_hat * conj_hat
    num = complex(np.sum(num_terms[1:, :]) + num_terms[0, 0])
    den = complex(np.sum(den_terms[1:, :]) + den_terms[0, 0])
    return (num / den).real


def complex_residual(phi_hat, sq_hat, grid, p):
    """Sup norm of S phi from full-lattice complex transforms."""
    xi1sq = (grid.xi1**2)[:, None]
    xi2sq = (grid.xi2**2)[None, :]
    disp = np.abs(grid.xi1[:, None]) ** p.alpha
    s_hat = -xi1sq * (-p.c * phi_hat + 0.5 * sq_hat - disp * phi_hat) + xi2sq * phi_hat
    return float(np.max(np.abs(ifft2(s_hat).real)))


def complex_solve(config):
    """The complex-FFT Petviashvili loop; returns the field and monitor rows."""
    grid, p = config.grid, config.params
    denom = complex_denominator(grid, p)
    phi = build_seed(config).values
    phi_hat, sq_hat = fft2(phi), fft2(phi * phi)
    rows = []
    for _ in range(config.max_iter):
        m = complex_factor(denom, phi_hat, sq_hat)
        next_hat = (m**config.nu) * sq_hat / denom
        next_phi = ifft2(next_hat).real
        iter_error = float(np.max(np.abs(next_phi - phi)))
        phi, phi_hat, sq_hat = next_phi, next_hat, fft2(next_phi * next_phi)
        row = (iter_error, m, abs(1.0 - m), complex_residual(phi_hat, sq_hat, grid, p))
        rows.append(row)
        if max(row[0], row[2], row[3]) <= config.tol:
            break
    return phi, rows


# --- de-aliased half-spectrum iteration -------------------------------------


def padded_square_hat(phi_hat, shape):
    """Half-spectrum of phi^2 with the square taken on a 3/2 zero-padded grid.

    Removes the aliasing of the quadratic product back onto the resolved
    modes; exact for band-limited inputs whose square still fits the
    padded band.  The Nyquist row and column are dropped.
    """
    nx, ny = shape
    mx, my = 3 * nx // 2, 3 * ny // 2
    kx, ky = nx // 2, ny // 2
    padded = np.zeros((mx, my // 2 + 1), dtype=complex)
    padded[:kx, :ky] = phi_hat[:kx, :ky]
    padded[mx - kx + 1 :, :ky] = phi_hat[kx + 1 :, :ky]
    fine = irfft2(padded, (mx, my)) * (mx * my / (nx * ny))
    fine_sq_hat = rfft2(fine * fine)
    out = np.zeros_like(phi_hat)
    out[:kx, :ky] = fine_sq_hat[:kx, :ky]
    out[kx + 1 :, :ky] = fine_sq_hat[mx - kx + 1 :, :ky]
    return out * (nx * ny / (mx * my))


def padded_solve(config):
    """The Petviashvili iteration on the SteadyOperator with a de-aliased square."""
    op = SteadyOperator(config.grid, config.params)
    shape = config.grid.shape
    phi = build_seed(config).values
    phi_hat = rfft2(phi)
    sq_hat = padded_square_hat(phi_hat, shape)
    for _ in range(config.max_iter):
        m = op.image(phi_hat, sq_hat, config.nu)
        next_phi = op.realize(sq_hat)
        iter_error = np.max(np.abs(next_phi - phi))
        phi, phi_hat = next_phi, sq_hat
        sq_hat = padded_square_hat(phi_hat, shape)
        if max(iter_error, abs(1.0 - m), op.residual(phi_hat, sq_hat)) <= config.tol:
            return phi
    raise AssertionError("padded iteration did not converge")


def factor(field):
    """M of a field, from an operator built for it."""
    op = SteadyOperator(field.grid, PARAMS)
    return op.image(*op.spectra(field.values), 2.0)


def step(field):
    """One Petviashvili update (nu = 2) of a field: the next iterate's values and M."""
    op = SteadyOperator(field.grid, PARAMS)
    phi_hat, sq_hat = op.spectra(field.values)
    m = op.image(phi_hat, sq_hat, 2.0)
    return op.realize(sq_hat), m


@pytest.fixture(scope="module")
def unit_solve():
    """A fast converged run shared by the tests in this module."""
    grid = SpectralGrid(nx=256, ny=256, lx=64.0, ly=64.0)
    config = SolverConfig(params=PARAMS, grid=grid)
    field, report = solve(config)
    assert report.converged()
    return field, report, config


class TestConfig:
    def test_rejects_alpha_at_or_below_energy_critical(self, small_grid):
        with pytest.raises(ValueError, match="existence threshold"):
            SolverConfig(params=SymbolParams(alpha=0.7, c=1.0), grid=small_grid)
        with pytest.raises(ValueError, match="existence threshold"):
            SolverConfig(params=SymbolParams(alpha=0.8, c=1.0), grid=small_grid)

    def test_supercritical_override(self, small_grid):
        config = SolverConfig(
            params=SymbolParams(alpha=0.7, c=1.0),
            grid=small_grid,
            allow_supercritical=True,
        )
        assert config.params.alpha == 0.7

    @pytest.mark.parametrize(
        "bad",
        [dict(tol=0.0), dict(tol=-1e-5), dict(max_iter=0), dict(max_iter=2.5),
         dict(max_iter=math.nan)],
    )
    def test_rejects_bad_numerics(self, small_grid, bad):
        with pytest.raises(ValueError):
            SolverConfig(params=PARAMS, grid=small_grid, **bad)

    def test_seed_spec_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(kind="viaduct")
        with pytest.raises(ValueError):
            SeedSpec(kind="gaussian", amplitude=0.0)
        with pytest.raises(ValueError):
            SeedSpec(kind="gaussian", width=-1.0)
        with pytest.raises(ValueError):
            SeedSpec(kind="file")
        # nan compares false with 0, and an infinite width is a constant seed
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="seed width must be finite"):
                SeedSpec(kind="gaussian", width=bad)
            with pytest.raises(ValueError, match="seed amplitude must be finite"):
                SeedSpec(kind="gaussian", amplitude=bad)
        # only the gaussian takes an amplitude and a width, the default 2 included
        for kind in ("exact-kp1", "file"):
            for option in ("amplitude", "width"):
                with pytest.raises(ValueError, match=f"^seed {option} applies only to the gaussian"):
                    SeedSpec(kind=kind, path="seed.fkpl", **{option: 2.0})


class TestSeeds:
    def test_gaussian_default_amplitude_tracks_speed(self, small_grid):
        # the default amplitude resolves to 3c
        params = SymbolParams(alpha=2.0, c=2.0)
        implicit = build_seed(SolverConfig(params=params, grid=small_grid))
        explicit = build_seed(
            SolverConfig(
                params=params,
                grid=small_grid,
                seed=SeedSpec(kind="gaussian", amplitude=6.0),
            )
        )
        assert np.array_equal(implicit.values, explicit.values)

    def test_seeds_are_zero_mass(self, small_grid):
        for kind in ("gaussian", "exact-kp1"):
            config = SolverConfig(params=PARAMS, grid=small_grid, seed=SeedSpec(kind=kind))
            seed = build_seed(config)
            hat = fft2(seed.values)
            assert np.max(np.abs(hat[0, 1:])) <= 1e-9 * np.max(np.abs(hat))

    def test_file_seed_round_trip(self, tmp_path, unit_solve):
        from fkplump.fieldio import save_field

        field, _, config = unit_solve
        path = tmp_path / "seed.fkpl"
        save_field(path, field, 2.0, 1.0)
        seeded = SolverConfig(
            params=PARAMS,
            grid=field.grid,
            seed=SeedSpec(kind="file", path=str(path)),
            max_iter=5,
        )
        restarted, report = solve(seeded)
        assert report.converged()
        assert report.iterations == 1

    def test_file_seed_grid_mismatch(self, tmp_path, small_grid):
        from fkplump.fieldio import save_field

        other = SpectralGrid(nx=32, ny=32, lx=16.0, ly=16.0)
        path = tmp_path / "seed.fkpl"
        save_field(path, RealField(other, np.ones(other.shape)), 2.0, 1.0)
        config = SolverConfig(
            params=PARAMS, grid=small_grid, seed=SeedSpec(kind="file", path=str(path))
        )
        with pytest.raises(ValueError, match="grid"):
            solve(config)


class TestStabilizingFactor:
    def test_converged_lump_has_unit_factor(self, unit_solve):
        field, _, _ = unit_solve
        assert factor(field) == pytest.approx(1.0, abs=1e-8)

    def test_scaling_halves_factor(self, unit_solve):
        # numerator quadratic, denominator cubic: M(s phi) = M(phi)/s
        field, _, _ = unit_solve
        m1 = factor(field)
        m2 = factor(RealField(field.grid, 2.0 * field.values))
        assert m2 == pytest.approx(0.5 * m1, rel=1e-12)

    def test_matches_independent_summation_oracle(self, small_grid):
        # reference oracle: same pairings accumulated with math.fsum
        # term by term, an independent summation order
        config = SolverConfig(params=PARAMS, grid=small_grid)
        seed = build_seed(config)
        m = factor(seed)

        denom = complex_denominator(small_grid, PARAMS)
        phi_hat = fft2(seed.values)
        sq_hat = fft2(seed.values**2)
        conj_hat = np.conj(phi_hat)
        num_terms = (denom * phi_hat * conj_hat)[1:, :].ravel()
        den_terms = (sq_hat * conj_hat)[1:, :].ravel()
        num = math.fsum(num_terms.real) + (denom * phi_hat * conj_hat)[0, 0].real
        den = math.fsum(den_terms.real) + (sq_hat * conj_hat)[0, 0].real
        assert m == pytest.approx(num / den, rel=1e-10)

    def test_odd_iterate_is_degenerate(self, small_grid):
        X, Y = meshes(small_grid)
        odd = RealField(small_grid, X * np.exp(-(X**2) - Y**2))
        with pytest.raises(DivergenceError, match="^cubic pairing vanished"):
            factor(odd)

    def test_only_the_half_lattice_blames_parity(self, small_grid):
        # a quarter iterate is even-even, so its collapse is never parity
        X, Y = meshes(small_grid)
        odd = RealField(small_grid, X * np.exp(-(X**2) - Y**2))
        with pytest.raises(DivergenceError, match="^cubic pairing vanished.*odd parity"):
            factor(odd)
        quarter = SteadyOperator(small_grid, PARAMS, quarter=True)
        with pytest.raises(DivergenceError, match="^cubic pairing vanished") as caught:
            quarter.image(*quarter.spectra(np.zeros((33, 33))), 2.0)
        assert "collapsed" in str(caught.value) and "parity" not in str(caught.value)

    def test_degenerate_threshold_on_nearly_odd_iterates(self, small_grid):
        # (x + eps) exp(-r^2): the cubic pairing grows like eps.  The blocked
        # check must decide as the full-array one, 1e-14 of sum w |sq^| |phi^|;
        # at eps = 2e-15 the ratio is 1.35e-14, so that iterate is accepted.
        X, Y = meshes(small_grid)
        op = SteadyOperator(small_grid, PARAMS)
        weights = op.row_weights * op.column_weights
        weights[0, 1:] = 0.0
        accepted = []
        for eps in (1e-12, 2e-15, 1e-15, 0.0):
            phi_hat, sq_hat = op.spectra((X + eps) * np.exp(-(X**2) - Y**2))
            den = np.vdot(weights, (sq_hat * np.conj(phi_hat)).real)
            scale = np.vdot(weights, np.abs(sq_hat) * np.abs(phi_hat))
            try:
                op.image(phi_hat, sq_hat, 2.0)
                accepted.append(True)
            except DivergenceError as exc:
                assert str(exc).startswith("cubic pairing vanished")
                accepted.append(False)
            assert accepted[-1] == (abs(den) > 1e-14 * scale)
        assert accepted == [True, True, False, False]


class TestConstrainedRow:
    """The row xi1 = 0, xi2 != 0 lies outside the space: weight 0 in M, 0 in the image."""

    def test_image_is_zero_on_constrained_row(self, small_grid):
        op = SteadyOperator(small_grid, PARAMS)
        seed = build_seed(SolverConfig(params=PARAMS, grid=small_grid))
        phi_hat, sq_hat = op.spectra(seed.values)
        assert np.any(sq_hat[0, 1:] != 0.0)  # the square does not keep zero x-mass
        op.image(phi_hat, sq_hat, 2.0)
        assert np.all(sq_hat[0, 1:] == 0.0)
        assert sq_hat[0, 0] != 0.0

    def test_factor_ignores_constrained_row(self, small_grid):
        op = SteadyOperator(small_grid, PARAMS)
        seed = build_seed(SolverConfig(params=PARAMS, grid=small_grid))
        phi_hat, sq_hat = op.spectra(seed.values)
        m = op.image(phi_hat, sq_hat.copy(), 2.0)
        perturbed = phi_hat.copy()
        perturbed[0, 1:] += 1e3 * (1.0 + 1.0j)
        assert op.image(perturbed, sq_hat, 2.0) == m


class TestStep:
    def test_fixed_point(self, unit_solve):
        field, _, config = unit_solve
        stepped, m = step(field)
        assert m == pytest.approx(1.0, abs=1e-8)
        move = np.max(np.abs(stepped - field.values))
        assert move <= 2.0 * config.tol

    def test_exact_lump_near_fixed_point(self):
        # the sampled exact solution moves by no more than the
        # domain-truncation floor (measured 9.2e-4 at this grid)
        grid = SpectralGrid(nx=1024, ny=1024, lx=256.0, ly=256.0)
        exact = build_seed(SolverConfig(params=PARAMS, grid=grid, seed=EXACT_SEED))
        stepped, m = step(exact)
        assert m == pytest.approx(1.0, abs=1e-4)
        assert np.max(np.abs(stepped - exact.values)) <= 5e-3

    def test_truncation_floor_shrinks_quadratically(self):
        # doubling the half-width at fixed dx divides the step floor by ~4
        diffs = []
        for n, lx in [(1024, 64.0), (2048, 128.0)]:
            grid = SpectralGrid(nx=n, ny=n, lx=lx, ly=lx)
            exact = build_seed(SolverConfig(params=PARAMS, grid=grid, seed=EXACT_SEED))
            stepped, _ = step(exact)
            diffs.append(np.max(np.abs(stepped - exact.values)))
        ratio = diffs[0] / diffs[1]
        assert 3.0 <= ratio <= 5.0

    def test_odd_input_degenerate(self, small_grid):
        X, Y = meshes(small_grid)
        odd = RealField(small_grid, X * np.exp(-(X**2) - Y**2))
        with pytest.raises(DivergenceError, match="^cubic pairing vanished"):
            step(odd)


class TestSolve:
    def test_report_contract(self, unit_solve):
        _, report, config = unit_solve
        assert report.status is SolveStatus.CONVERGED
        assert report.iterations <= config.max_iter
        final = report.final
        assert final.iter_error <= config.tol
        assert final.factor_error <= config.tol
        assert final.residual <= config.tol
        assert [r.iteration for r in report.records] == list(
            range(1, report.iterations + 1)
        )

    def test_max_iter_status(self, small_grid):
        config = SolverConfig(params=PARAMS, grid=small_grid, max_iter=3)
        _, report = solve(config)
        assert report.status is SolveStatus.MAX_ITER
        assert report.iterations == 3

    def test_divergence_status(self):
        # nu far outside the stable exponent range blows the iteration up
        grid = SpectralGrid(nx=128, ny=128, lx=32.0, ly=32.0)
        config = SolverConfig(params=PARAMS, grid=grid, nu=5.0, max_iter=60)
        _, report = solve(config)
        assert report.status is SolveStatus.DIVERGED

    def test_first_step_overflow_is_refused_before_the_loop(self):
        # 16^2 nodes, L = 8: the pairing bound N D_max (N s)^2 passes at a seed
        # amplitude of 1e60 and fails at 1e150, where the loop's pairings overflowed
        grid = SpectralGrid(nx=16, ny=16, lx=8.0, ly=8.0)
        config = SolverConfig(params=PARAMS, grid=grid, seed=SeedSpec(amplitude=1e60))
        _, report = solve(config)
        assert report.converged()
        config = replace(config, seed=SeedSpec(amplitude=1e150))
        with pytest.raises(ValueError, match=r"^c = 1\.0 and seed amplitude 1e\+150 are too large"):
            solve(config)

    def test_seed_amplitude_invariance(self):
        # with nu = 2 the limit does not depend on the seed amplitude
        grid = SpectralGrid(nx=256, ny=256, lx=64.0, ly=64.0)
        fields = []
        for amplitude in (1.5, 3.0, 6.0):
            config = SolverConfig(
                params=PARAMS,
                grid=grid,
                seed=SeedSpec(kind="gaussian", amplitude=amplitude),
            )
            field, report = solve(config)
            assert report.converged()
            fields.append(field.values)
        tol = 10.0 * 1e-5
        assert np.max(np.abs(fields[0] - fields[1])) <= tol
        assert np.max(np.abs(fields[2] - fields[1])) <= tol

    def test_even_seed_gives_even_iterates(self, unit_solve):
        from fkplump.analysis import symmetry_report

        field, _, _ = unit_solve
        rep = symmetry_report(field)
        assert rep.x_defect <= 1e-10
        assert rep.y_defect <= 1e-10

    def test_deterministic(self, small_grid):
        config = SolverConfig(params=PARAMS, grid=small_grid, max_iter=20)
        f1, r1 = solve(config)
        f2, r2 = solve(config)
        assert np.array_equal(f1.values, f2.values)
        assert r1.records == r2.records

    def test_padded_square_exact_on_band_limited_input(self):
        grid = SpectralGrid(nx=32, ny=16, lx=np.pi, ly=np.pi)
        X, _ = meshes(grid)
        f = np.cos(X)  # f^2 lives on modes 0 and +-2, well inside the band
        plain = rfft2(f * f)
        padded = padded_square_hat(rfft2(f), grid.shape)
        assert np.max(np.abs(plain - padded)) <= 1e-10

    def test_aliasing_below_tolerance_on_resolved_grid(self):
        # the plain scheme needs no de-aliasing once the spectrum is
        # resolved; the padded iteration exists to check exactly this
        grid = SpectralGrid(nx=512, ny=512, lx=64.0, ly=64.0)
        config = SolverConfig(params=PARAMS, grid=grid)
        plain, r0 = solve(config)
        padded = padded_solve(config)
        assert r0.converged()
        assert np.max(np.abs(plain.values - padded)) <= 1e-5

    @pytest.mark.parametrize(
        "nu, status", [(1.5, SolveStatus.DIVERGED), (2.0, SolveStatus.CONVERGED)]
    )
    def test_negative_seed(self, nu, status):
        # a negative seed gives M < 0: M^1.5 is complex, so the run stops
        # as diverged; M^2 is positive and the even power recovers
        grid = SpectralGrid(nx=128, ny=128, lx=32.0, ly=32.0)
        seed = SeedSpec(kind="gaussian", amplitude=-3.0)
        _, report = solve(SolverConfig(params=PARAMS, grid=grid, nu=nu, seed=seed))
        assert report.status is status
        assert report.records[0].m_factor < 0

    def test_step_rejects_unusable_factor(self):
        for m, nu in [(-0.5, 1.5), (-0.5, 3.0), (math.nan, 2.0), (math.inf, 2.0), (0.0, 2.0)]:
            with pytest.raises(DivergenceError, match=r"^step factor M\^nu") as caught:
                solver._gain(m, nu)
            assert caught.value.m_factor is m

    @pytest.mark.parametrize("quarter", [False, True])
    def test_non_finite_iterate_is_refused(self, small_grid, quarter):
        op = SteadyOperator(small_grid, PARAMS, quarter=quarter)
        phi_hat, _ = op.spectra(op.fold(build_seed(SolverConfig(params=PARAMS, grid=small_grid)).values))
        phi_hat[1, 1] = math.inf
        with pytest.raises(DivergenceError, match="^iteration produced non-finite values$"):
            op.realize(phi_hat)

    def test_non_finite_image_ends_diverged(self, small_grid, monkeypatch):
        # the third image gets an inf mode, so its iterate is not finite
        real_image, calls = SteadyOperator.image, []

        def image(self, phi_hat, sq_hat, nu):
            calls.append(real_image(self, phi_hat, sq_hat, nu))
            if len(calls) == 3:
                sq_hat[1, 1] = math.inf
            return calls[-1]

        monkeypatch.setattr(SteadyOperator, "image", image)
        _, report = solve(SolverConfig(params=PARAMS, grid=small_grid))
        assert report.status is SolveStatus.DIVERGED and report.iterations == 3
        assert report.reason == "iteration produced non-finite values"
        final = report.final
        assert final.iter_error == final.residual == math.inf
        assert final.m_factor == calls[-1] and math.isfinite(final.factor_error)

    def test_collapse_ends_diverged(self):
        # nu = 0 is the unstabilized map, which collapses the seed at step 10;
        # the field is the last accepted iterate, the one of a 9-step run
        grid = SpectralGrid(nx=16, ny=16, lx=8.0, ly=8.0)
        config = SolverConfig(params=PARAMS, grid=grid, nu=0.0)
        field, report = solve(config)
        assert report.status is SolveStatus.DIVERGED
        assert report.reason == "cubic pairing vanished; the iterate has collapsed"
        final = report.final
        assert final.iteration == report.iterations == 10
        assert final.iter_error == final.residual == math.inf
        assert math.isnan(final.m_factor) and math.isnan(final.factor_error)
        before, _ = solve(replace(config, max_iter=9))
        assert field.values.tobytes() == before.values.tobytes()
        # the collapse is image's DivergenceError, which carries M = nan
        op = SteadyOperator(grid, PARAMS)
        with pytest.raises(DivergenceError, match="^cubic pairing vanished") as caught:
            op.image(*op.spectra(np.zeros(grid.shape)), 2.0)
        assert math.isnan(caught.value.m_factor)

    def test_blow_up_returns_last_accepted_iterate(self):
        # nu = 5 blows the third iterate up to sup 1.74e35; realize refuses
        # it, so the field is the second iterate, the one of a 2-step run
        grid = SpectralGrid(nx=128, ny=128, lx=32.0, ly=32.0)
        config = SolverConfig(params=PARAMS, grid=grid, nu=5.0)
        field, report = solve(config)
        assert report.status is SolveStatus.DIVERGED and report.iterations == 3
        assert report.reason.startswith("sup|phi| = 1.740e+35 exceeds the blow-up guard")
        final = report.final
        assert final.iter_error == final.residual == math.inf
        assert math.isfinite(final.m_factor) and math.isfinite(final.factor_error)
        before, _ = solve(replace(config, max_iter=2))
        assert field.values.tobytes() == before.values.tobytes()
        assert field.max_abs() == pytest.approx(2.63e-11, rel=1e-2)

    def test_empty_report_has_no_final(self):
        report = IterationReport(records=(), status=SolveStatus.MAX_ITER, tol=1e-5)
        with pytest.raises(ValueError):
            report.final


class TestAcceleration:
    @pytest.mark.parametrize(
        "alpha, n, lx", [(2.0, 128, 32.0), (1.5, 128, 32.0), (1.7, 256, 64.0)]
    )
    def test_mixing_halves_iterations(self, alpha, n, lx):
        grid = SpectralGrid(nx=n, ny=n, lx=lx, ly=lx)
        params = SymbolParams(alpha=alpha, c=1.0)
        plain_field, plain = solve(SolverConfig(params=params, grid=grid, accel_depth=0))
        mixed_field, mixed = solve(SolverConfig(params=params, grid=grid, accel_depth=1))
        assert plain.converged() and mixed.converged()
        assert 2 * mixed.iterations <= plain.iterations
        assert np.max(np.abs(mixed_field.values - plain_field.values)) <= 1e-5
        # mixing needs one gated iteration of history before it starts
        gated = sum(r.factor_error <= ACCEL_GATE for r in mixed.records)
        assert plain.mixed_steps == 0 < mixed.mixed_steps < gated

    def test_default_depth_beats_depth_1(self):
        # 22 iterations against 42, to the same lump
        grid = SpectralGrid(nx=128, ny=128, lx=32.0, ly=32.0)
        params = SymbolParams(alpha=1.5, c=1.0)
        field, report = solve(SolverConfig(params=params, grid=grid))
        one_field, one = solve(SolverConfig(params=params, grid=grid, accel_depth=1))
        assert report.converged() and one.converged()
        assert report.iterations < one.iterations
        assert np.max(np.abs(field.values - one_field.values)) <= 1e-5
        gated = sum(r.factor_error <= ACCEL_GATE for r in report.records)
        assert 0 < report.mixed_steps < gated

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_mixer_matches_least_squares(self, depth):
        # each step is g - dG gamma, gamma the least-squares fit of f by the
        # last `depth` differences dF (fewer while the history fills)
        rng = np.random.default_rng(depth)
        op = SimpleNamespace(dot=solver._real_dot, blocks=[slice(0, 3), slice(3, 6), slice(6, 9)])
        mixer = solver._AndersonMixer(op, depth)
        fs, gs = [], []
        for step in range(7):
            phi_hat, g = rng.standard_normal((2, 8, 5))
            fs.append(g - phi_hat)
            gs.append(g.copy())
            mixed = mixer.mix(phi_hat, g)
            expected = g
            if step:
                first = max(0, step - depth)
                df = np.stack([(fs[i + 1] - fs[i]).ravel() for i in range(first, step)], axis=1)
                dg = np.stack([(gs[i + 1] - gs[i]).ravel() for i in range(first, step)], axis=1)
                gamma = np.linalg.lstsq(df, fs[-1].ravel(), rcond=None)[0]
                expected = gs[-1] - (dg @ gamma).reshape(g.shape)
            assert np.allclose(mixed, expected, rtol=1e-10, atol=1e-12)
        assert mixer.mixed_steps == 6

    @pytest.mark.parametrize(
        "alpha, c, n, lx, iterations",
        [(3.0, 1.0, 512, 128.0, (18, 14)), (2.0, 1.7, 256, 64.0, (27, 22))],
    )
    def test_default_depth_beats_depth_2(self, alpha, c, n, lx, iterations):
        # depth 3 takes the iterations above against depth 2's, to the same lump
        grid = SpectralGrid(nx=n, ny=n, lx=lx, ly=lx)
        params = SymbolParams(alpha=alpha, c=c)
        field, report = solve(SolverConfig(params=params, grid=grid))
        two_field, two = solve(SolverConfig(params=params, grid=grid, accel_depth=2))
        assert report.converged() and two.converged()
        assert (two.iterations, report.iterations) == iterations
        assert np.max(np.abs(field.values - two_field.values)) <= 1e-5

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_singular_history_restarts(self, depth):
        # a repeated (phi_hat, g) gives df = 0, a singular Gram matrix: the
        # plain step, with the pairs dropped and the last f and g kept
        rng = np.random.default_rng(depth)
        op = SimpleNamespace(dot=solver._real_dot, blocks=[slice(0, 4), slice(4, 8)])
        mixer = solver._AndersonMixer(op, depth)
        phi_hat, g = rng.standard_normal((2, 8, 5))
        mixer.mix(phi_hat.copy(), g.copy())
        again = g.copy()
        plain = mixer.mix(phi_hat.copy(), again)
        assert np.array_equal(plain, g) and not np.shares_memory(plain, again)
        assert mixer.pairs == [] and mixer.mixed_steps == 0
        assert mixer.last[1] is again and np.array_equal(mixer.last[0], g - phi_hat)
        for step in range(1, 6):
            phi_hat, g = rng.standard_normal((2, 8, 5))
            mixed = mixer.mix(phi_hat, g)
            assert mixer.mixed_steps == step and not np.array_equal(mixed, g)
            assert len(mixer.pairs) <= depth - 1

    def test_mixing_coefficients(self):
        # a 1 x 1 system gives depth 1's division to the bit; a singular,
        # ill-conditioned or non-finite one gives None, the plain step
        rng = np.random.default_rng(0)
        for a, b in rng.uniform(1e-3, 1e3, (200, 2)):
            assert solver._mixing_coefficients(np.array([[a]]), np.array([-b]))[0] == -b / a
        for gram, rhs in [
            (np.zeros((1, 1)), np.ones(1)),
            (np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]), np.ones(2)),
            (np.array([[math.nan]]), np.ones(1)),
            (np.eye(2), np.array([1.0, math.inf])),
        ]:
            assert solver._mixing_coefficients(gram, rhs) is None

    def test_default_converges_at_nu_2_5(self):
        grid = SpectralGrid(nx=256, ny=256, lx=64.0, ly=64.0)
        _, report = solve(SolverConfig(params=PARAMS, grid=grid, nu=2.5))
        assert report.converged()

    #: A gaussian seed wider than the domain: width 20 on 64^2, L = 16.
    WIDE_SEED = SeedSpec(kind="gaussian", width=20.0)

    def test_plain_map_converges_on_a_wide_seed(self):
        # 89 iterations at depth 0
        grid = SpectralGrid(nx=64, ny=64, lx=16.0, ly=16.0)
        config = SolverConfig(params=PARAMS, grid=grid, seed=self.WIDE_SEED, max_iter=400,
                              accel_depth=0)
        _, report = solve(config)
        assert report.converged() and report.iterations <= 90

    @pytest.mark.xfail(strict=True, reason="the mixer stalls on wide seeds (ROADMAP H5, item 4)")
    def test_default_depth_converges_on_a_wide_seed(self):
        # today max-iter 400 with 395 mixed steps; a mixer that never loses
        # to the plain map turns this into a pass, which strict xfail reports
        grid = SpectralGrid(nx=64, ny=64, lx=16.0, ly=16.0)
        config = SolverConfig(params=PARAMS, grid=grid, seed=self.WIDE_SEED, max_iter=400)
        _, report = solve(config)
        assert report.converged()

    @pytest.mark.parametrize("depth", [-1, 1.5, 4, 6])
    def test_rejects_bad_depth(self, small_grid, depth):
        with pytest.raises(ValueError, match="accel_depth"):
            SolverConfig(params=PARAMS, grid=small_grid, accel_depth=depth)

    def test_reasons(self, small_grid):
        _, report = solve(SolverConfig(params=PARAMS, grid=small_grid, max_iter=3))
        assert report.reason.startswith("max-iter 3 reached")
        assert "residual" in report.reason
        grid = SpectralGrid(nx=128, ny=128, lx=32.0, ly=32.0)
        _, report = solve(SolverConfig(params=PARAMS, grid=grid, nu=5.0, max_iter=60))
        assert "blow-up guard" in report.reason
        seed = SeedSpec(kind="gaussian", amplitude=-3.0)
        _, report = solve(SolverConfig(params=PARAMS, grid=grid, nu=1.5, seed=seed))
        assert "M^nu" in report.reason
        _, report = solve(SolverConfig(params=PARAMS, grid=grid))
        assert report.reason.startswith("all three monitors")

    @settings(max_examples=30, deadline=None)
    @given(
        nu=st.floats(1.2, 2.8),
        depth=st.sampled_from(solver.ACCEL_DEPTHS),
        amplitude=st.floats(0.01, 100.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_every_run_ends_in_a_status(self, nu, depth, amplitude, sign):
        grid = SpectralGrid(nx=32, ny=32, lx=8.0, ly=8.0)
        seed = SeedSpec(kind="gaussian", amplitude=sign * amplitude)
        config = SolverConfig(
            params=PARAMS, grid=grid, nu=nu, max_iter=60, seed=seed, accel_depth=depth
        )
        _, report = solve(config)
        assert report.reason.startswith(REASON_PREFIXES[report.status])
        assert 1 <= report.iterations <= config.max_iter
        assert report.mixed_steps <= report.iterations
        if depth and report.reason.startswith("cubic pairing vanished"):
            # a collapse is allowed only where the plain map collapses too, not by mixing
            _, plain = solve(replace(config, accel_depth=0))
            assert plain.reason.startswith("cubic pairing vanished")


def half_lattice_only(monkeypatch):
    """Make solve keep the rfft2 half-lattice for every seed, even-even or not."""
    monkeypatch.setattr("fkplump.solver._is_even_even", lambda seed: False)


class TestLayouts:
    """The DCT-I quarter against the rfft2 half-lattice on even-even seeds."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    @pytest.mark.parametrize("n", [128, 256])
    def test_layouts_agree(self, monkeypatch, n, alpha, depth):
        grid = SpectralGrid(nx=n, ny=n, lx=n / 4, ly=n / 4)
        config = SolverConfig(
            params=SymbolParams(alpha=alpha, c=1.0), grid=grid, accel_depth=depth
        )
        field, report = solve(config)
        with monkeypatch.context() as patch:
            half_lattice_only(patch)
            ref_field, ref = solve(config)
        assert (report.transform, ref.transform) == ("dct1", "rfft2")
        assert report.converged() and ref.converged()
        assert report.iterations == ref.iterations
        assert report.mixed_steps == ref.mixed_steps
        # Largest relative gap over the records, iter_error / residual, by
        # depth 0-3 (measured with numpy 2.4 and scipy 1.17):
        #   128^2 alpha 2:   2.4e-8/3.6e-8  2.6e-9/3.0e-8  6.4e-9/7.6e-9  1.3e-7/1.2e-7
        #   128^2 alpha 1.5: 2.0e-7/4.9e-8  5.6e-7/2.8e-7  3.9e-8/6.9e-8  1.1e-8/5.2e-8
        #   256^2 alpha 2:   3.7e-8/2.0e-8  1.2e-8/1.9e-8  1.0e-7/1.0e-7  1.6e-8/1.9e-7
        #   256^2 alpha 1.5: 1.2e-7/2.5e-8  7.0e-7/5.1e-7  4.8e-7/7.0e-8  3.3e-7/3.6e-7
        # The final iter_error (~1e-7) is a difference of O(10) values: a
        # change of summation order or of the seed's roundoff alone has taken
        # [128-1.5-1] and [256-1.5-1] past the 1e-6 bound (2.7e-6, 1.8e-6).
        for rec, old in zip(report.records, ref.records):
            assert rec.m_factor == pytest.approx(old.m_factor, rel=1e-12, abs=0.0)
            assert rec.iter_error == pytest.approx(old.iter_error, rel=1e-6, abs=0.0)
            assert rec.residual == pytest.approx(old.residual, rel=1e-6, abs=0.0)
            assert rec.factor_error == pytest.approx(old.factor_error, rel=1e-6, abs=1e-12)
        assert np.max(np.abs(field.values - ref_field.values)) <= 1e-13 * ref_field.max_abs()

    @pytest.mark.parametrize("layout", ["dct1", "rfft2"])
    def test_transforms_per_iteration(self, monkeypatch, small_grid, layout):
        # the seed's projection takes one rfft2 and one irfft2; then 2 forward
        # transforms of the layout before the loop, and 1 forward and 2 inverse
        # per iteration: D formed per block adds none
        if layout == "rfft2":
            half_lattice_only(monkeypatch)
        calls = dict.fromkeys(("rfft2", "irfft2", "dct1", "idct1"), 0)

        def counted(name):
            transform = getattr(solver, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return transform(*args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(solver, name, counted(name))
        _, report = solve(SolverConfig(params=PARAMS, grid=small_grid))
        assert report.transform == layout and report.converged()
        n = report.iterations
        if layout == "dct1":
            expected = {"rfft2": 1, "irfft2": 1, "dct1": 2 + n, "idct1": 2 * n}
        else:
            expected = {"rfft2": 1 + 2 + n, "irfft2": 1 + 2 * n, "dct1": 0, "idct1": 0}
        assert calls == expected

    @pytest.mark.parametrize("layout", ["dct1", "rfft2"])
    def test_denominator_once_per_block_and_iteration(self, monkeypatch, layout):
        # image forms D once per row block, where M and the image both use it;
        # 512^2 gives 3 blocks on the quarter and 5 on the half-lattice
        if layout == "rfft2":
            half_lattice_only(monkeypatch)
        real_denominator, ops, calls = SteadyOperator.denominator, set(), []

        def denominator(self, rows, out):
            ops.add(self)
            calls.append(rows)
            return real_denominator(self, rows, out)

        monkeypatch.setattr(SteadyOperator, "denominator", denominator)
        grid = SpectralGrid(nx=512, ny=512, lx=128.0, ly=128.0)
        _, report = solve(SolverConfig(params=PARAMS, grid=grid))
        assert report.transform == layout and report.converged()
        (op,) = ops
        assert len(op.blocks) > 2
        assert calls == op.blocks * report.iterations

    def test_seeds_choose_layout(self, small_grid, tmp_path):
        X, Y = meshes(small_grid)
        path = tmp_path / "seed.fkpl"
        seed = SeedSpec(kind="file", path=str(path))
        config = SolverConfig(params=PARAMS, grid=small_grid, seed=seed)
        for values, even in [(np.exp(-(X**2) - 2.0 * Y**2), True),
                             (np.exp(-((X - 1e-3) ** 2) - Y**2), False)]:
            save_field(path, RealField(small_grid, values), 2.0, 1.0)
            assert solver._is_even_even(build_seed(config)) == even

    def test_parity_rule_at_its_boundary(self, small_grid, tmp_path):
        # the projected seed's defects against EVEN_EVEN_TOL = 1e-13 of its peak
        path = tmp_path / "seed.fkpl"
        config = SolverConfig(params=PARAMS, grid=small_grid, max_iter=2,
                              seed=SeedSpec(kind="file", path=str(path)))
        for eps, transform in ((1e-14, "dct1"), (1e-12, "rfft2")):
            save_field(path, odd_perturbed(small_grid, eps), 2.0, 1.0)
            _, report = solve(config)
            assert report.transform == transform

    def test_fold_unfold_round_trip(self, small_grid):
        X, Y = meshes(small_grid)
        values = np.exp(-(X**2) - 2.0 * Y**2)
        op = SteadyOperator(small_grid, PARAMS, quarter=True)
        quarter = op.fold(values)
        assert quarter.shape == (33, 33) and quarter[0, 0] == values[32, 32]
        assert np.array_equal(op.unfold(quarter), values)

    @pytest.mark.parametrize("quarter", [False, True])
    def test_residual_leaves_its_inputs(self, small_grid, quarter):
        # the residual transforms its own scratch, never phi_hat or sq_hat
        op = SteadyOperator(small_grid, PARAMS, quarter=quarter)
        seed = build_seed(SolverConfig(params=PARAMS, grid=small_grid))
        phi_hat, sq_hat = op.spectra(op.fold(seed.values))
        phi_copy, sq_copy = phi_hat.copy(), sq_hat.copy()
        first = op.residual(phi_hat, sq_hat)
        assert np.array_equal(phi_hat, phi_copy) and np.array_equal(sq_hat, sq_copy)
        assert op.residual(phi_hat, sq_hat) == first

    def test_quarter_operator_matches_half_lattice(self, small_grid):
        # M, the image and the residual of an even-even iterate in both layouts
        seed = build_seed(SolverConfig(params=PARAMS, grid=small_grid))
        half = SteadyOperator(small_grid, PARAMS)
        quarter = SteadyOperator(small_grid, PARAMS, quarter=True)
        phi_hat, sq_hat = half.spectra(seed.values)
        q_hat, q_sq_hat = quarter.spectra(quarter.fold(seed.values))
        assert quarter.residual(q_hat, q_sq_hat) == pytest.approx(
            half.residual(phi_hat, sq_hat), rel=1e-10
        )
        assert quarter.dot(q_hat, q_sq_hat) == pytest.approx(
            half.dot(phi_hat, sq_hat), rel=1e-13
        )
        # image overwrites the squares' spectra, so it comes after the residual
        m = half.image(phi_hat, sq_hat, 2.0)
        assert quarter.image(q_hat, q_sq_hat, 2.0) == pytest.approx(m, rel=1e-13)
        image = half.realize(sq_hat)
        q_image = quarter.realize(q_sq_hat)
        assert np.max(np.abs(quarter.unfold(q_image) - image)) <= 1e-13 * np.max(np.abs(image))


    def test_quarter_rows_are_half_lattice_rows(self):
        # each layout builds A's row term and xi1^2/2 on its own rows, to the same bits
        grid = SpectralGrid(nx=64, ny=32, lx=20.0, ly=10.0)
        params = SymbolParams(alpha=1.7, c=1.3)
        half = SteadyOperator(grid, params)
        quarter = SteadyOperator(grid, params, quarter=True)
        rows = grid.nx // 2 + 1
        for name in ("half_xi1sq", "residual_rows"):
            assert np.array_equal(getattr(quarter, name), getattr(half, name)[:rows])
        assert np.array_equal(quarter.residual_columns, half.residual_columns)
        # A is the sum of its row and column terms, as the 2-D symbol was built
        xi1, xi2 = grid.xi1[:, None], grid.xi2_half[None, :]
        symbol = xi1**2 * (params.c + np.abs(xi1) ** params.alpha) + xi2**2
        assert np.array_equal(half.residual_rows + half.residual_columns, symbol)

    @pytest.mark.parametrize("quarter", [False, True])
    def test_denominator_per_block_is_petviashvili_denominator(self, quarter):
        # D formed block by block in one reused tile, row xi1 = 0 (D = 2c) included,
        # equals the whole-lattice rule to the bit; 1024 x 512 gives several blocks
        grid = SpectralGrid(nx=1024, ny=512, lx=90.0, ly=70.0)
        params = SymbolParams(alpha=1.3, c=1.7)
        op = SteadyOperator(grid, params, quarter=quarter)
        rows = grid.nx // 2 + 1 if quarter else grid.nx
        whole = petviashvili_denominator(grid.xi1[:rows, None], grid.xi2_half[None, :], params)
        assert len(op.blocks) > 2 and op.blocks[-1].stop >= rows
        tile = np.full((op.blocks[0].stop, grid.xi2_half.size), np.nan)
        for block in op.blocks:
            got = op.denominator(block, out=tile[: len(whole[block])])
            assert np.shares_memory(got, tile)
            assert np.array_equal(got, whole[block])
        assert np.all(whole[0] == 2.0 * params.c)

    @pytest.mark.parametrize("quarter", [False, True])
    def test_overflowing_residual_symbol_names_the_half_widths(self, quarter):
        # 16^2, alpha = 2: at lx = 2.3e-76 the row term peaks near 1.4e308, and
        # ly = 3e-153 adds xi2^2 near 5.4e307, so only their sum overflows
        params = SymbolParams(alpha=2.0, c=1.0)
        grid = SpectralGrid(nx=16, ny=16, lx=2.3e-76, ly=1.0)
        SteadyOperator(grid, params, quarter=quarter)
        grid = SpectralGrid(nx=16, ny=16, lx=2.3e-76, ly=3e-153)
        with pytest.raises(ValueError, match=r"lx = 2\.3e-76 and ly = 3e-153 .* \+ xi2\^2 overflows"):
            SteadyOperator(grid, params, quarter=quarter)
        grid = SpectralGrid(nx=16, ny=16, lx=2e-76, ly=1.0)
        with pytest.raises(ValueError, match=r"^half-width lx = 2e-76 .* \(c \+ \|xi1\|\^alpha\) overflows$"):
            SteadyOperator(grid, params, quarter=quarter)

    def test_quarter_build_holds_no_half_lattice(self):
        # A and the weights are 1-D factors and D is formed per block (0.005
        # n^2); forming D on every block in one 127 x 257 tile, in the block
        # loops' small ufunc buffers, holds the tile (0.125 n^2; 0.19 with
        # numpy's default buffers), where D held was a quarter array (0.25
        # n^2, 0.79 n^2 with its temporaries)
        grid = SpectralGrid(nx=512, ny=512, lx=128.0, ly=128.0)
        op, peak = peak_n2(grid, lambda: SteadyOperator(grid, PARAMS, quarter=True))
        assert peak <= 0.1

        @small_ufunc_buffers()
        def every_block():
            tile = np.empty((op.blocks[0].stop, 257))
            for rows in op.blocks:
                op.denominator(rows, out=tile[: len(op.half_xi1sq[rows])])

        _, peak = peak_n2(grid, every_block)
        assert peak <= 0.13

    def test_image_holds_three_blocks(self):
        # M and the image in one pass, in three row tiles of 127 x 257 reused
        # by every block, which take the weights, |phi^|^2 and D, and on the
        # half-lattice the products of imaginary parts: 0.375 n^2 on the
        # quarter and 0.379 on the half-lattice, where M alone measured 0.376
        # (0.435 n^2 with numpy's default ufunc buffers); new temporaries in
        # every block measured 0.62, and a new block for each imaginary
        # product 0.50 on the half-lattice
        grid = SpectralGrid(nx=512, ny=512, lx=128.0, ly=128.0)
        seed = build_seed(SolverConfig(params=PARAMS, grid=grid)).values
        for quarter in (True, False):
            op = SteadyOperator(grid, PARAMS, quarter=quarter)
            phi_hat, sq_hat = op.spectra(op.fold(seed))
            _, peak = peak_n2(grid, lambda: op.image(phi_hat, sq_hat, 2.0))
            assert peak <= 0.4, f"quarter={quarter}: {peak:.3f} n^2"

    def test_residual_holds_one_spectrum_and_one_block(self):
        # the quarter spectrum of S phi (0.25 n^2) and one 127 x 257 scratch
        # block (0.12 n^2): 0.378 n^2 (0.438 with numpy's default ufunc
        # buffers); whole-array temporaries, or new ones for every term of a
        # block, measured 0.535
        grid = SpectralGrid(nx=512, ny=512, lx=128.0, ly=128.0)
        op = SteadyOperator(grid, PARAMS, quarter=True)
        phi_hat, sq_hat = op.spectra(op.fold(build_seed(SolverConfig(params=PARAMS, grid=grid)).values))
        _, peak = peak_n2(grid, lambda: op.residual(phi_hat, sq_hat))
        assert peak <= 0.4

    def test_seed_stage_holds_two_fields(self):
        # build_seed drops the sampled field once its spectrum exists and the
        # spectrum once it is inverted, and the fields adopt their arrays: two
        # n^2 arrays (2.0 n^2; 2.13 with a copy and a finiteness mask, 3.13
        # while the unprojected seed outlived the projection)
        grid = SpectralGrid(nx=512, ny=512, lx=128.0, ly=128.0)
        config = SolverConfig(params=PARAMS, grid=grid)
        even, peak = peak_n2(grid, lambda: solver._is_even_even(build_seed(config)))
        assert even and peak <= 2.3

    def test_default_solve_peak_at_1024(self):
        # the default depth 3 keeps four more quarter spectra than depth 1 (2.54 n^2)
        grid = SpectralGrid(nx=1024, ny=1024, lx=256.0, ly=256.0)
        config = SolverConfig(params=PARAMS, grid=grid)
        (_, report), peak = peak_n2(grid, lambda: solve(config))
        assert report.transform == "dct1" and report.converged()
        assert peak <= 3.0

    def test_depth_2_peak_at_1024_holds_no_denominator(self):
        # D is formed per block and the ufunc buffers are small: the residual's
        # step holds 8 quarters and one 63 x 513 block (2.04 n^2; 2.31 with
        # D held)
        grid = SpectralGrid(nx=1024, ny=1024, lx=256.0, ly=256.0)
        config = SolverConfig(params=PARAMS, grid=grid, accel_depth=2)
        (_, report), peak = peak_n2(grid, lambda: solve(config))
        assert report.transform == "dct1" and report.converged()
        assert peak <= 2.1

    def test_solve_frees_the_spectra_before_the_result(self):
        # the spectra, the operator and the quarter are released before the
        # n^2 result is built, so the loop sets the peak (2.65 n^2 at the
        # default depth 3: nine quarters and M's three tiles; 3.14 while the
        # seed stage and the final copy overlapped dead arrays)
        grid = SpectralGrid(nx=512, ny=512, lx=128.0, ly=128.0)
        config = SolverConfig(params=PARAMS, grid=grid)
        (_, report), peak = peak_n2(grid, lambda: solve(config))
        assert report.transform == "dct1" and report.converged()
        assert peak <= 2.7


class TestConstantState:
    @pytest.mark.parametrize("layout", ["dct1", "rfft2"])
    def test_constant_state_is_diverged(self, monkeypatch, layout):
        # a very wide gaussian is nearly constant; the map takes it to the
        # constant steady state phi = 2c, which is not a lump
        if layout == "rfft2":
            half_lattice_only(monkeypatch)
        grid = SpectralGrid(nx=16, ny=16, lx=8.0, ly=8.0)
        params = SymbolParams(alpha=2.0, c=1.5)
        seed = SeedSpec(kind="gaussian", width=1e6)
        field, report = solve(SolverConfig(params=params, grid=grid, seed=seed))
        assert report.transform == layout
        assert report.status is SolveStatus.DIVERGED
        assert report.reason.startswith("constant state phi = 2c = 3 ")
        assert np.max(np.abs(field.values - 3.0)) <= 1e-5


class TestComplexReference:
    """SteadyOperator against the complex full-lattice step it replaced."""

    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_solve_matches_complex_loop(self, alpha):
        # the reference is the plain map, so the mixing is switched off
        grid = SpectralGrid(nx=128, ny=128, lx=32.0, ly=32.0)
        config = SolverConfig(params=SymbolParams(alpha=alpha, c=1.0), grid=grid, accel_depth=0)
        field, report = solve(config)
        ref_field, ref_rows = complex_solve(config)
        assert report.converged()
        assert report.iterations == len(ref_rows)
        for rec, (iter_error, m, factor_error, res) in zip(report.records, ref_rows):
            assert rec.m_factor == pytest.approx(m, rel=1e-12, abs=0.0)
            assert rec.iter_error == pytest.approx(iter_error, rel=1e-6, abs=0.0)
            assert rec.residual == pytest.approx(res, rel=1e-6, abs=0.0)
            # |1 - M| falls to roundoff (1e-15) near convergence, where only
            # its absolute difference, bounded by the agreement of M, means
            # anything
            assert rec.factor_error == pytest.approx(factor_error, rel=1e-6, abs=1e-12)
        assert np.max(np.abs(field.values - ref_field)) <= 1e-12

    def test_residual_of_exact_lump(self):
        # the exact lump is not a torus steady state: its residual (about
        # 0.73 on the desk grid) must equal the old formula's value
        grid = SpectralGrid(nx=1024, ny=1024, lx=256.0, ly=256.0)
        phi = exact_kp1_lump(grid, ExactLumpParams(c=1.0)).values
        ref = complex_residual(fft2(phi), fft2(phi * phi), grid, PARAMS)
        got = residual(RealField(grid, phi), PARAMS)
        assert got == pytest.approx(ref, rel=1e-10)
        assert got == pytest.approx(0.73, abs=0.01)
