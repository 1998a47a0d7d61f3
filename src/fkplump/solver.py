"""Petviashvili fixed-point iteration for lump solutions.

One step maps the iterate phi_n to

    fft(phi_{n+1}) = M_n^nu * fft(phi_n^2) / D,
    D = 2 (c + xi2^2/xi1^2 + |xi1|^alpha),

where the stabilizing factor

    M_n = <D * fft(phi_n), fft(phi_n)> / <fft(phi_n^2), fft(phi_n)>

(conjugate pairing over the lattice) equals 1 exactly at a solution and
prevents the collapse/blow-up of the unstabilized map.  The run is
monitored by three errors per iteration: the sup-norm step difference,
|1 - M_n|, and the sup norm of the steady-equation residual; convergence
means all three fall below the configured tolerance simultaneously.

On the constrained row xi1 = 0, xi2 != 0, D is infinite: those modes lie
outside the energy space (zero mass in x), and the image is set to
exactly 0 there.  The step runs on rfft2 half-spectra (SteadyOperator),
so D and the pairings are real by construction.  A step whose M^nu is
not a finite positive number ends the run as DIVERGED.

By default the map is accelerated by type-II Anderson mixing (Walker & Ni,
SIAM J. Numer. Anal. 2011; for Petviashvili maps see Alvarez & Duran,
Math. Comput. Simul. 2016) on the half-spectrum.  With g_n the image above
and f_n = g_n - fft(phi_n), depth 1 takes

    fft(phi_{n+1}) = g_n - gamma (g_n - g_{n-1}),
    gamma = <df, f_n> / <df, df>,  df = f_n - f_{n-1},

with <,> the real dot product of the float64 views.  Mixing runs only
while |1 - M_n| <= ACCEL_GATE; elsewhere the plain step is taken and the
history is cleared.  accel_depth = 0 is the paper's plain map.  Either
way one iteration costs one rfft2 and two irfft2, and the three monitors
are those of the accepted iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# fft2 is unused here; perfbench/selftest.py checks fkplump.solver.fft2.
from .grid import RealField, SpectralGrid, fft2, irfft2, rfft2  # noqa: F401
from .reference import ExactLumpParams, exact_kp1_lump, gaussian_seed
from .symbols import (
    ALPHA_ENERGY_CRITICAL,
    SymbolParams,
    dispersion_symbol,
    half_lattice_denominator,
)

#: Sup-norm blow-up guard, in units of the wave speed.
DIVERGENCE_AMPLITUDE = 1e6

#: The transform the iteration runs on, recorded in run manifests.
TRANSFORM = "rfft2"

#: The Anderson mixing depths: 0 is the plain map, 1 the mixed one.  Depth
#: 2 would need two more half-spectra (16 B/node) and a least-squares
#: solve; at 128^2 it takes 20 and 30 iterations against depth 1's 24 and
#: 42 (alpha = 2 and 1.5).
ACCEL_DEPTHS = (0, 1)

#: Anderson mixing runs only while |1 - M| is at most this.  Farther from
#: the fixed point a mixed step can overshoot: without the gate, depth 2 at
#: nu = 2.5 (256^2) diverged at iteration 4 where the plain map converges,
#: and depth 1 at nu = 5 (128^2) collapsed the iterate
#: (DegenerateIterateError) where the plain map reports divergence.
ACCEL_GATE = 0.1

#: Size of the row blocks in which the stabilizing factor and the residual
#: are summed, so that their temporaries stay in cache instead of taking
#: full half-spectra.
BLOCK_BYTES = 1 << 19


class DegenerateIterateError(ArithmeticError):
    """The cubic pairing in the stabilizing factor vanished (dead iterate)."""


class DivergenceError(ArithmeticError):
    """The iteration produced non-finite values or an unusable factor M^nu."""


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITER = "max-iter"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class SeedSpec:
    """Initial-guess descriptor.

    kind is one of "gaussian" (default A = 3c, w = 2), "exact-kp1" (the
    closed-form alpha = 2 lump at the configured speed), or "file" with a
    path to a saved field.  amplitude = None resolves to 3c at solve time.
    """

    kind: str = "gaussian"
    amplitude: float | None = None
    width: float = 2.0
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "exact-kp1", "file"):
            raise ValueError(f"unknown seed kind {self.kind!r}")
        amplitude = self.amplitude
        if amplitude is not None and not (np.isfinite(amplitude) and amplitude != 0):
            raise ValueError(f"seed amplitude must be finite and nonzero, got {amplitude!r}")
        if not (np.isfinite(self.width) and self.width > 0):
            raise ValueError(f"seed width must be finite and positive, got {self.width!r}")
        if self.kind == "file" and not self.path:
            raise ValueError("seed kind 'file' requires a path")


@dataclass(frozen=True)
class SolverConfig:
    """All parameters of one Petviashvili run.

    tol is absolute, not scaled by the field.  Under the speed scaling
    phi_c(x, y) = c psi(c^(1/alpha) x, c^(1/alpha + 1/2) y) the step error
    grows like c, the residual like c^(2 + 2/alpha), and |1 - M| does not
    depend on c.
    """

    params: SymbolParams
    grid: SpectralGrid
    nu: float = 2.0
    tol: float = 1e-5
    max_iter: int = 200
    seed: SeedSpec = field(default_factory=SeedSpec)
    allow_supercritical: bool = False
    accel_depth: int = 1

    def __post_init__(self) -> None:
        depth = self.accel_depth
        if not isinstance(depth, (int, np.integer)) or depth not in ACCEL_DEPTHS:
            raise ValueError(
                f"accel_depth must be 0 (plain map) or 1 (Anderson mixing), got {depth!r}"
            )
        if not np.isfinite(self.tol) or self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not np.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu!r}")
        if not self.allow_supercritical and self.params.alpha <= ALPHA_ENERGY_CRITICAL:
            raise ValueError(
                f"alpha = {self.params.alpha} is at or below the existence threshold "
                f"{ALPHA_ENERGY_CRITICAL}; no lump solutions exist there "
                "(pass allow_supercritical to explore anyway)"
            )


@dataclass(frozen=True)
class IterationRecord:
    """Monitors of one iteration: the step that produced iterate n."""

    iteration: int
    iter_error: float
    m_factor: float
    factor_error: float
    residual: float


@dataclass(frozen=True)
class IterationReport:
    """Per-iteration monitor records, the final status and why the run stopped.

    mixed_steps counts the iterations whose step was Anderson-mixed.
    """

    records: tuple[IterationRecord, ...]
    status: SolveStatus
    tol: float
    reason: str = ""
    mixed_steps: int = 0

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final(self) -> IterationRecord:
        if not self.records:
            raise ValueError("empty report has no final record")
        return self.records[-1]

    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def _sup(values: np.ndarray) -> float:
    """max |values| without a temporary; nan if any value is nan."""
    return float(np.maximum(values.max(), -values.min()))


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Real dot product of two half-spectra, as float64 views."""
    return float(np.vdot(a.view(np.float64), b.view(np.float64)))


class SteadyOperator:
    """M, the Petviashvili image and the steady residual on one (grid, params).

    Build it once and pass it the half-spectra of spectra(); its arrays
    are real.  The residual symbol A = xi1^2 (c + |xi1|^alpha) + xi2^2 has
    no singular term: S phi has the transform A phi^ - (xi1^2/2) (phi^2)^.
    The constrained row xi1 = 0, xi2 != 0, where D is infinite, is not
    part of the space: it has weight 0 in the pairings of M, and the image
    is exactly 0 there.  The other pairing weights turn half-lattice sums
    into full-lattice pairings: the grid's column weights (1 on the
    columns k2 = 0 and ny/2, 2 on the others).
    """

    def __init__(self, grid: SpectralGrid, params: SymbolParams) -> None:
        self.grid = grid
        self.denom = half_lattice_denominator(grid, params)
        xi1sq = grid.xi1[:, None] ** 2
        self.half_xi1sq = 0.5 * xi1sq
        self.residual_symbol = (
            xi1sq * (params.c + dispersion_symbol(grid, params.alpha))
            + grid.xi2_half[None, :] ** 2
        )
        self.weights = np.tile(grid.column_weights, (grid.nx, 1))
        self.weights[0, 1:] = 0.0
        rows = max(1, BLOCK_BYTES // (16 * self.denom.shape[1]))  # complex rows
        self.blocks = [slice(i, i + rows) for i in range(0, grid.nx, rows)]

    def spectra(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Half-lattice transforms of an iterate and of its square."""
        return rfft2(values), rfft2(values * values)

    def stabilizing_factor(self, phi_hat: np.ndarray, sq_hat: np.ndarray) -> float:
        """Stabilizing factor M from the spectra of phi and phi^2.

        The ratio of the D-weighted quadratic pairing of phi^ with itself
        to the cubic pairing of (phi^2)^ with phi^.  It equals 1 at a true
        solution and scales as 1/s when phi is replaced by s phi.  The sums
        run in row blocks.  M may come out negative or non-finite; image()
        rejects those.

        Raises
        ------
        DegenerateIterateError
            If the cubic pairing is below 1e-14 of its natural scale, as
            for a zero or odd-in-x iterate.
        """
        num = den = scale = 0.0
        for rows in self.blocks:
            p, s, w = phi_hat[rows], sq_hat[rows], self.weights[rows]
            power = p.real * p.real
            power += p.imag * p.imag
            scale += float(np.vdot(w, np.abs(s) * np.sqrt(power)))
            power *= self.denom[rows]
            cross = s.real * p.real
            cross += s.imag * p.imag
            num += float(np.vdot(w, power))
            den += float(np.vdot(w, cross))
        if abs(den) <= 1e-14 * scale:
            raise DegenerateIterateError(
                "cubic pairing vanished; the iterate has collapsed (or has odd parity)"
            )
        return num / den

    def image(self, sq_hat: np.ndarray, m: float, nu: float) -> np.ndarray:
        """Overwrite sq_hat with the Petviashvili image M^nu (phi^2)^ / D.

        The constrained row xi1 = 0, xi2 != 0 of the image is set to 0.

        Raises
        ------
        DivergenceError
            If M^nu is not a finite positive number, as for a negative M
            and nu = 1.5; sq_hat is then left unchanged.
        """
        try:
            gain = math.pow(m, nu)
        except (ValueError, OverflowError):
            gain = math.nan
        if not (math.isfinite(gain) and gain > 0.0):
            raise DivergenceError(f"step factor M^nu = ({m!r})^{nu!r} is not finite and positive")
        np.divide(sq_hat, self.denom, out=sq_hat)
        sq_hat[0, 1:] = 0.0
        sq_hat *= gain
        return sq_hat

    def realize(self, next_hat: np.ndarray) -> tuple[np.ndarray, float]:
        """The iterate of a half-spectrum and its sup norm.

        Raises
        ------
        DivergenceError
            If the iterate is not finite.
        """
        values = irfft2(next_hat, self.grid.shape)
        peak = _sup(values)
        if not math.isfinite(peak):
            raise DivergenceError("iteration produced non-finite values")
        return values, peak

    def residual(
        self, phi_hat: np.ndarray, sq_hat: np.ndarray, out: np.ndarray | None = None
    ) -> float:
        """Sup norm of S phi = (-c phi + phi^2/2 - Dx^alpha phi)_xx - phi_yy.

        out, a half-spectrum the caller no longer needs, is used as scratch.
        """
        s_hat = np.multiply(self.residual_symbol, phi_hat, out=out)
        for rows in self.blocks:
            s_hat[rows] -= self.half_xi1sq[rows] * sq_hat[rows]
        return _sup(irfft2(s_hat, self.grid.shape, overwrite_x=True))


class _AndersonMixer:
    """Depth-1 type-II Anderson mixing of the Petviashvili map on half-spectra.

    The history is the previous f and g.  The differences overwrite them,
    and the mixed spectrum is built in the difference of g, which leaves
    the difference of f free.
    """

    def __init__(self) -> None:
        self.last: tuple[np.ndarray, np.ndarray] | None = None  # f, g of the last step
        self.mixed_steps = 0

    def reset(self) -> None:
        self.last = None

    def mix(self, phi_hat: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The next spectrum from phi_hat (overwritten with f) and its image g.

        Returns it with a half-spectrum buffer that this step left free, or None.
        """
        f = np.subtract(g, phi_hat, out=phi_hat)
        last, self.last = self.last, (f, g)
        if last is not None:
            df = np.subtract(f, last[0], out=last[0])
            dg = np.subtract(g, last[1], out=last[1])
            df_df, df_f = _real_dot(df, df), _real_dot(df, f)
            if math.isfinite(df_df) and math.isfinite(df_f) and df_df > 0.0:
                self.mixed_steps += 1
                dg *= -(df_f / df_df)
                dg += g
                return dg, df
        return g.copy(), None  # the plain step; g stays in the history


def project_zero_mass(phi: RealField) -> RealField:
    """Remove the x-mean of the field at every transverse wavenumber.

    Zeroes the modes (xi1 = 0, xi2 != 0), the discrete zero-mass
    constraint in x.  Solutions live in this space, and every image of
    the iteration keeps it exactly (SteadyOperator.image); the seed is
    projected here so that the first iterate starts in it too.
    """
    phi_hat = rfft2(phi.values)
    phi_hat[0, 1:] = 0.0
    return RealField(phi.grid, irfft2(phi_hat, phi.grid.shape))


def build_seed(config: SolverConfig) -> RealField:
    """Materialize the configured initial guess, projected to zero x-mass."""
    spec = config.seed
    c = config.params.c
    if spec.kind == "gaussian":
        amplitude = 3.0 * c if spec.amplitude is None else spec.amplitude
        seed = gaussian_seed(config.grid, amplitude, spec.width)
    elif spec.kind == "exact-kp1":
        seed = exact_kp1_lump(config.grid, ExactLumpParams(c=c))
    else:
        from .fieldio import load_field

        loaded = load_field(spec.path)
        if loaded.field.grid != config.grid:
            raise ValueError(
                f"seed file grid {loaded.field.grid} does not match run grid {config.grid}"
            )
        seed = loaded.field
    return project_zero_mass(seed)


def _stalled(record: IterationRecord, tol: float) -> str:
    """The monitors of a record that are still above tol, as text."""
    above = [
        f"{name} {value:.3e}"
        for name, value in (
            ("iter_error", record.iter_error),
            ("factor_error", record.factor_error),
            ("residual", record.residual),
        )
        if not value <= tol
    ]
    return ", ".join(above) + f" above tol {tol:.3e}"


def solve(config: SolverConfig) -> tuple[RealField, IterationReport]:
    """Run the Petviashvili iteration to convergence.

    Iterates until all three monitors (step difference, |1 - M|, residual)
    are at or below config.tol, or max_iter is reached, or the iterate
    blows up.  Divergence and exhausted iterations are reported as
    statuses with a reason, not exceptions; a degenerate iterate raises.

    Returns
    -------
    (RealField, IterationReport)
        The final iterate and the full monitor history.
    """
    p = config.params
    grid = config.grid
    op = SteadyOperator(grid, p)
    # A writable copy of the seed: each iteration reuses the old iterate's
    # buffer for the step difference and then for the square.
    phi = build_seed(config).values.copy()
    phi_hat, sq_hat = op.spectra(phi)
    mixer = _AndersonMixer()
    records: list[IterationRecord] = []

    for n in range(1, config.max_iter + 1):
        m = op.stabilizing_factor(phi_hat, sq_hat)
        factor_error = abs(1.0 - m)
        try:
            op.image(sq_hat, m, config.nu)  # sq_hat now holds the image g
            if config.accel_depth and factor_error <= ACCEL_GATE:
                next_hat, spare = mixer.mix(phi_hat, sq_hat)
            else:
                mixer.reset()
                next_hat, spare = sq_hat, phi_hat
            next_phi, peak = op.realize(next_hat)
        except DivergenceError as exc:
            records.append(IterationRecord(n, math.inf, m, factor_error, math.inf))
            status, reason = SolveStatus.DIVERGED, str(exc)
            break

        np.subtract(phi, next_phi, out=phi)
        iter_error = _sup(phi)
        np.multiply(next_phi, next_phi, out=phi)
        sq_hat = rfft2(phi)
        phi, phi_hat = next_phi, next_hat
        residual = op.residual(phi_hat, sq_hat, out=spare)
        records.append(IterationRecord(n, iter_error, m, factor_error, residual))

        if peak > DIVERGENCE_AMPLITUDE * p.c:
            status = SolveStatus.DIVERGED
            reason = f"sup|phi| = {peak:.3e} exceeds the blow-up guard {DIVERGENCE_AMPLITUDE:g} c"
            break
        if max(iter_error, factor_error, residual) <= config.tol:
            status = SolveStatus.CONVERGED
            reason = f"all three monitors at or below tol {config.tol:.3e}"
            break
    else:
        status = SolveStatus.MAX_ITER
        reason = f"max-iter {config.max_iter} reached; " + _stalled(records[-1], config.tol)

    mixer.reset()  # the history is not needed for the copy below
    report = IterationReport(
        records=tuple(records), status=status, tol=config.tol,
        reason=reason, mixed_steps=mixer.mixed_steps,
    )
    return RealField(grid, phi), report
