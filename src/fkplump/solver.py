"""Petviashvili fixed-point iteration for lump solutions.

One step maps the iterate phi_n to

    fft(phi_{n+1}) = M_n^nu * fft(phi_n^2) / D,
    D = 2 (c + xi2^2/(xi1 + i*lambda)^2 + |xi1|^alpha),

where the stabilizing factor

    M_n = <D * fft(phi_n), fft(phi_n)> / <fft(phi_n^2), fft(phi_n)>

(conjugate pairing over the lattice) equals 1 exactly at a solution and
prevents the collapse/blow-up of the unstabilized map.  The run is
monitored by three errors per iteration: the sup-norm step difference,
|1 - M_n|, and the sup norm of the steady-equation residual; convergence
means all three fall below the configured tolerance simultaneously.

The step runs on rfft2 half-spectra against the real part of D
(SteadyOperator), so the pairings are real by construction.  A step whose
M^nu is not a finite positive number ends the run as DIVERGED.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# fft2 and ifft2 stay importable here: perfbench/selftest.py patches fkplump.solver.fft2.
from .grid import RealField, SpectralGrid, fft2, ifft2, irfft2, rfft2  # noqa: F401
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
        if self.amplitude is not None and self.amplitude == 0:
            raise ValueError("seed amplitude must be nonzero")
        if self.width <= 0:
            raise ValueError(f"seed width must be positive, got {self.width!r}")
        if self.kind == "file" and not self.path:
            raise ValueError("seed kind 'file' requires a path")


@dataclass(frozen=True)
class SolverConfig:
    """All parameters of one Petviashvili run."""

    params: SymbolParams
    grid: SpectralGrid
    nu: float = 2.0
    tol: float = 1e-5
    max_iter: int = 200
    seed: SeedSpec = field(default_factory=SeedSpec)
    allow_supercritical: bool = False

    def __post_init__(self) -> None:
        if not np.isfinite(self.tol) or self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
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
    """Per-iteration monitor records plus the final status."""

    records: tuple[IterationRecord, ...]
    status: SolveStatus
    tol: float

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


class SteadyOperator:
    """The Petviashvili step and the steady residual on the rfft2 half-lattice.

    Built once per (grid, params); its arrays are real.  The residual
    symbol A = xi1^2 (c + |xi1|^alpha) + xi2^2 needs no lambda: S phi has
    the transform A phi^ - (xi1^2/2) (phi^2)^.  The pairing weights turn
    half-lattice sums into full-lattice pairings: 1 on the columns k2 = 0
    and ny/2, 2 on the others (their conjugates are not stored), and 0 on
    the constrained row xi1 = 0, xi2 != 0.  Those modes carry no mass, and
    their regularized D (~ -2 xi2^2/lambda^2) would amplify the transform
    roundoff of a realized field into an order-one error of M.
    """

    def __init__(self, grid: SpectralGrid, params: SymbolParams) -> None:
        self.grid = grid
        self.denom = half_lattice_denominator(grid, params)
        self.xi1sq = grid.xi1[:, None] ** 2
        self.residual_symbol = (
            self.xi1sq * (params.c + dispersion_symbol(grid, params.alpha))
            + grid.xi2[None, : grid.ny // 2 + 1] ** 2
        )
        self.weights = np.full(self.denom.shape, 2.0)
        self.weights[:, [0, -1]] = 1.0
        self.weights[0, 1:] = 0.0

    def spectra(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Half-lattice transforms of an iterate and of its square."""
        return rfft2(values), rfft2(values * values)

    def stabilizing_factor(self, phi_hat: np.ndarray, sq_hat: np.ndarray) -> float:
        """M from the spectra of phi and phi^2, as the function of that name.

        M may come out negative or non-finite; step() rejects those.
        """
        power = phi_hat.real * phi_hat.real
        power += phi_hat.imag * phi_hat.imag
        cross = sq_hat.real * phi_hat.real
        cross += sq_hat.imag * phi_hat.imag
        num = float(np.vdot(self.weights, self.denom * power))
        den = float(np.vdot(self.weights, cross))
        scale = float(np.vdot(self.weights, np.abs(sq_hat) * np.sqrt(power)))
        if abs(den) <= 1e-14 * scale:
            raise DegenerateIterateError(
                "cubic pairing vanished; the iterate has collapsed (or has odd parity)"
            )
        return num / den

    def step(self, sq_hat: np.ndarray, m: float, nu: float) -> tuple[np.ndarray, np.ndarray]:
        """The next iterate M^nu (phi^2)^ / D, as (transform, values).

        Raises DivergenceError if M^nu is not a finite positive number (as
        for a negative M and nu = 1.5) or the next iterate is not finite.
        """
        try:
            gain = math.pow(m, nu)
        except (ValueError, OverflowError):
            gain = math.nan
        if not (math.isfinite(gain) and gain > 0.0):
            raise DivergenceError(f"step factor M^nu = ({m!r})^{nu!r} is not finite and positive")
        next_hat = sq_hat * (gain / self.denom)
        next_phi = irfft2(next_hat, self.grid.shape)
        if not np.all(np.isfinite(next_phi)):
            raise DivergenceError("iteration produced non-finite values")
        return next_hat, next_phi

    def residual(self, phi_hat: np.ndarray, sq_hat: np.ndarray) -> float:
        """Sup norm of S phi = (-c phi + phi^2/2 - Dx^alpha phi)_xx - phi_yy."""
        s_hat = self.residual_symbol * phi_hat
        s_hat -= (0.5 * self.xi1sq) * sq_hat
        return float(np.max(np.abs(irfft2(s_hat, self.grid.shape))))


def stabilizing_factor(phi: RealField, p: SymbolParams) -> float:
    """Stabilizing factor M of an iterate.

    Ratio of the denominator-weighted quadratic pairing of fft(phi) with
    itself to the cubic pairing of fft(phi^2) with fft(phi).  Equals 1 at a
    true solution; scales as 1/s when phi is replaced by s*phi.

    Raises
    ------
    DegenerateIterateError
        If the cubic pairing is below 1e-14 of its natural scale, as for
        a zero or odd-in-x iterate.
    """
    op = SteadyOperator(phi.grid, p)
    return op.stabilizing_factor(*op.spectra(phi.values))


def petviashvili_step(
    phi: RealField, p: SymbolParams, nu: float = 2.0
) -> tuple[RealField, float]:
    """Apply one Petviashvili update; returns the next iterate and M used.

    Raises
    ------
    DivergenceError
        If M^nu is not a finite positive number, or the update produces
        non-finite values.
    DegenerateIterateError
        If the stabilizing factor is undefined for this iterate.
    """
    op = SteadyOperator(phi.grid, p)
    phi_hat, sq_hat = op.spectra(phi.values)
    m = op.stabilizing_factor(phi_hat, sq_hat)
    _, next_phi = op.step(sq_hat, m, nu)
    return RealField(phi.grid, next_phi), m


def project_zero_mass(phi: RealField) -> RealField:
    """Remove the x-mean of the field at every transverse wavenumber.

    Zeroes the modes (xi1 = 0, xi2 != 0), the discrete zero-mass
    constraint in x.  Solutions live in this space; a seed outside it
    would feed the regularized transverse term (~ -xi2^2/lambda^2) into
    the stabilizing-factor sums and blow up the very first step.  The
    iteration itself keeps the constraint: the huge denominator on that
    row annihilates whatever the nonlinearity reinjects.
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


def solve(config: SolverConfig) -> tuple[RealField, IterationReport]:
    """Run the Petviashvili iteration to convergence.

    Iterates until all three monitors (step difference, |1 - M|, residual)
    are at or below config.tol, or max_iter is reached, or the iterate
    blows up.  Divergence and exhausted iterations are reported as
    statuses, not exceptions; a degenerate iterate raises.

    Returns
    -------
    (RealField, IterationReport)
        The final iterate and the full monitor history.
    """
    p = config.params
    grid = config.grid
    op = SteadyOperator(grid, p)
    phi = build_seed(config).values
    phi_hat, sq_hat = op.spectra(phi)
    records: list[IterationRecord] = []
    status = SolveStatus.MAX_ITER

    for n in range(1, config.max_iter + 1):
        m = op.stabilizing_factor(phi_hat, sq_hat)
        try:
            next_hat, next_phi = op.step(sq_hat, m, config.nu)
        except DivergenceError:
            records.append(IterationRecord(n, math.inf, m, abs(1.0 - m), math.inf))
            status = SolveStatus.DIVERGED
            break

        iter_error = float(np.max(np.abs(next_phi - phi)))
        factor_error = abs(1.0 - m)
        next_sq_hat = rfft2(next_phi * next_phi)
        residual = op.residual(next_hat, next_sq_hat)
        records.append(IterationRecord(n, iter_error, m, factor_error, residual))
        phi, phi_hat, sq_hat = next_phi, next_hat, next_sq_hat

        if float(np.max(np.abs(phi))) > DIVERGENCE_AMPLITUDE * p.c:
            status = SolveStatus.DIVERGED
            break
        if max(iter_error, factor_error, residual) <= config.tol:
            status = SolveStatus.CONVERGED
            break

    report = IterationReport(records=tuple(records), status=status, tol=config.tol)
    return RealField(grid, phi), report
