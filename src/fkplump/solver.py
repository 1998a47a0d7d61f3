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
exactly 0 there.  D and the pairings are real by construction.  A step
whose M^nu is not a finite positive number ends the run as DIVERGED, and
so does a run that converges to within c of the constant steady state
phi = 2c, where a lump, about 0 at the domain edge, never comes.

The loop runs on one of two layouts of SteadyOperator, chosen by the
seed.  Every symbol is even in xi1 and xi2, so an even-even seed stays
even-even: when the projected seed's reflection defects are at most
EVEN_EVEN_TOL, the iterates are the (nx/2+1, ny/2+1) quarters x, y >= 0
and the spectra their DCT-I coefficients (dct1/idct1), and the final
field is mirrored back to the whole grid.  Every other seed runs on the
whole grid with rfft2 half-spectra.

By default the map is accelerated by type-II Anderson mixing (Walker & Ni,
SIAM J. Numer. Anal. 2011; for Petviashvili maps see Alvarez & Duran,
Math. Comput. Simul. 2016) on the spectra.  With g_n the image above
and f_n = g_n - fft(phi_n), depth 1 takes

    fft(phi_{n+1}) = g_n - gamma (g_n - g_{n-1}),
    gamma = <df, f_n> / <df, df>,  df = f_n - f_{n-1},

with <,> the real dot product of the float64 views.  Mixing runs only
while |1 - M_n| <= ACCEL_GATE; elsewhere the plain step is taken and the
history is cleared.  accel_depth = 0 is the paper's plain map.  The dot
product counts each quarter row as often as the half-lattice holds it, so
both layouts mix alike.  Either way one iteration costs one forward and
two inverse transforms of the layout (one rfft2 and two irfft2, or one
dct1 and two idct1), and the three monitors are those of the accepted
iterate.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .analysis import symmetry_report
# fft2 is unused here; perfbench/selftest.py checks fkplump.solver.fft2.
from .grid import (  # noqa: F401
    RealField,
    SpectralGrid,
    dct1,
    fft2,
    idct1,
    irfft2,
    multiplicities,
    rfft2,
)
from .reference import ExactLumpParams, exact_kp1_lump, gaussian_seed
from .symbols import (
    ALPHA_ENERGY_CRITICAL,
    SymbolParams,
    dispersion_symbol,
    petviashvili_denominator,
)

#: Sup-norm blow-up guard, in units of the wave speed.
DIVERGENCE_AMPLITUDE = 1e6

#: The quarter layout is taken when both reflection defects of the
#: projected seed are at most this, relative to its peak.  The gaussian and
#: exact seeds measure at most 1.9e-15 on grids from 8^2 to 2048^2.
EVEN_EVEN_TOL = 1e-13

#: The Anderson mixing depths: 0 is the plain map, 1 the mixed one.  Depth
#: 2 would need two more spectra (16 B/node on the half-lattice, 4 on the
#: quarter) and a least-squares solve; at 128^2 it takes 20 and 30
#: iterations against depth 1's 24 and 42 (alpha = 2 and 1.5).
ACCEL_DEPTHS = (0, 1)

#: Anderson mixing runs only while |1 - M| is at most this.  Farther from
#: the fixed point a mixed step can overshoot: without the gate, depth 2 at
#: nu = 2.5 (256^2) diverged at iteration 4 where the plain map converges,
#: and depth 1 at nu = 5 (128^2) collapsed the iterate
#: (DegenerateIterateError) where the plain map reports divergence.
ACCEL_GATE = 0.1

#: Size of the row blocks in which M's pairings are summed, so that their
#: temporaries stay in cache instead of taking full spectra.  Blocks are
#: counted in complex rows on both layouts, so a quarter block, whose rows
#: are real, holds 256 KiB.  Whole-
#: array sums are slower on the half-lattice (9.6 ms per call against 7.8
#: ms at 1024^2), and they change the summation order, to which the layout
#: comparison test is sensitive: its 256^2, alpha = 1.5 iter_error then
#: moves by 1.8e-6 relative, past its 1e-6 bound.
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

    mixed_steps counts the iterations whose step was Anderson-mixed, and
    transform names the layout the loop ran on: "rfft2" (the half-lattice)
    or "dct1" (the even-even quarter).
    """

    records: tuple[IterationRecord, ...]
    status: SolveStatus
    tol: float
    reason: str = ""
    mixed_steps: int = 0
    transform: str = "rfft2"

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
    """Real dot product of two spectra, as float64 views."""
    return float(np.vdot(a.view(np.float64), b.view(np.float64)))


def _real_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a conj(b)) pointwise, as a new real array."""
    out = a.real * b.real
    if np.iscomplexobj(a):
        out += a.imag * b.imag
    return out


class SteadyOperator:
    """M, the Petviashvili image and the steady residual on one (grid, params).

    Build it once and pass it the spectra of spectra(); its arrays are
    real.  The residual symbol A = xi1^2 (c + |xi1|^alpha) + xi2^2 has no
    singular term: S phi has the transform A phi^ - (xi1^2/2) (phi^2)^.
    The constrained row xi1 = 0, xi2 != 0, where D is infinite, is not
    part of the space: it has weight 0 in the pairings of M, and the image
    is exactly 0 there.  The other pairing weights turn the stored sums
    into full-lattice pairings.

    Two layouts share every formula.  By default the iterates are n^2
    fields and the spectra rfft2 half-lattices; the weights are the
    grid's column weights (1 on the columns k2 = 0 and ny/2, 2 on the
    others).  With quarter=True the iterates are even-even quarters (see
    grid) and the spectra their real dct1 coefficients.  D, A and xi1^2/2
    are then built on the rows k1 = 0, ..., nx/2 only, and the weights
    also carry the row multiplicities (1 at k1 = 0 and nx/2, 2 elsewhere).
    """

    def __init__(self, grid: SpectralGrid, params: SymbolParams, quarter: bool = False) -> None:
        self.grid = grid
        self.quarter = quarter
        rows = grid.nx // 2 + 1 if quarter else grid.nx
        xi1, xi2 = grid.xi1[:rows, None], grid.xi2_half[None, :]
        self.denom = petviashvili_denominator(xi1, xi2, params)
        self.half_xi1sq = 0.5 * xi1**2
        self.residual_symbol = xi1**2 * (params.c + dispersion_symbol(xi1, params.alpha)) + xi2**2
        row_weights = multiplicities(grid.nx)[:, None] if quarter else np.ones((rows, 1))
        self.weights = row_weights * grid.column_weights
        self.weights[0, 1:] = 0.0
        block = max(1, BLOCK_BYTES // (16 * self.denom.shape[1]))  # complex rows
        self.blocks = [slice(i, i + block) for i in range(0, rows, block)]

    @property
    def transform(self) -> str:
        """The forward transform of the layout, as recorded in run reports."""
        return "dct1" if self.quarter else "rfft2"

    def fold(self, values: np.ndarray) -> np.ndarray:
        """A new array of the layout's iterate from n^2 values (the quarter x, y >= 0)."""
        if not self.quarter:
            return values.copy()
        nx, ny = self.grid.shape
        rows = (nx // 2 + np.arange(nx // 2 + 1)) % nx
        cols = (ny // 2 + np.arange(ny // 2 + 1)) % ny
        return values[np.ix_(rows, cols)]

    def unfold(self, values: np.ndarray) -> np.ndarray:
        """The n^2 values of an iterate of the layout, mirrored from the quarter."""
        if not self.quarter:
            return values
        nx, ny = self.grid.shape
        return values[np.ix_(np.abs(np.arange(nx) - nx // 2), np.abs(np.arange(ny) - ny // 2))]

    def forward(self, values: np.ndarray) -> np.ndarray:
        """The spectrum of an iterate of the layout."""
        return dct1(values) if self.quarter else rfft2(values)

    def inverse(self, coeffs: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        """The iterate of a spectrum; with overwrite_x, coeffs are left undefined."""
        if self.quarter:
            return idct1(coeffs, overwrite_x=overwrite_x)
        return irfft2(coeffs, self.grid.shape, overwrite_x=overwrite_x)

    def spectra(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Transforms of an iterate and of its square."""
        return self.forward(values), self.forward(values * values)

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Real dot product of two spectra, each row counted as often as the half-lattice holds it.

        The half-lattice holds the rows k1 and nx - k1 of an even-even
        field apart, so a quarter row other than k1 = 0 and nx/2 counts
        twice; both layouts then give Anderson mixing the same numbers.
        """
        if not self.quarter:
            return _real_dot(a, b)
        return 2.0 * _real_dot(a, b) - _real_dot(a[0], b[0]) - _real_dot(a[-1], b[-1])

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
            power = _real_product(p, p)
            scale += float(np.vdot(w, np.abs(s) * np.sqrt(power)))
            power *= self.denom[rows]
            num += float(np.vdot(w, power))
            den += float(np.vdot(w, _real_product(s, p)))
        if abs(den) <= 1e-14 * scale:
            # A quarter iterate is even-even by construction: parity is no cause there.
            cause = "" if self.quarter else " (or has odd parity)"
            raise DegenerateIterateError(
                f"cubic pairing vanished; the iterate has collapsed{cause}"
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
        """The iterate of a spectrum and its sup norm.

        Raises
        ------
        DivergenceError
            If the iterate is not finite.
        """
        values = self.inverse(next_hat)
        peak = _sup(values)
        if not math.isfinite(peak):
            raise DivergenceError("iteration produced non-finite values")
        return values, peak

    def residual(self, phi_hat: np.ndarray, sq_hat: np.ndarray) -> float:
        """Sup norm of S phi = (-c phi + phi^2/2 - Dx^alpha phi)_xx - phi_yy.

        Leaves phi_hat and sq_hat unchanged.
        """
        s_hat = self.residual_symbol * phi_hat - self.half_xi1sq * sq_hat
        return _sup(self.inverse(s_hat, overwrite_x=True))


class _AndersonMixer:
    """Depth-1 type-II Anderson mixing of the Petviashvili map on spectra.

    The history is the previous f and g.  The differences overwrite them,
    and the mixed spectrum is built in the difference of g.  dot is the
    operator's inner product.
    """

    def __init__(self, dot: Callable[[np.ndarray, np.ndarray], float]) -> None:
        self.dot = dot
        self.last: tuple[np.ndarray, np.ndarray] | None = None  # f, g of the last step
        self.mixed_steps = 0

    def reset(self) -> None:
        self.last = None

    def mix(self, phi_hat: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The next spectrum from phi_hat (overwritten with f) and its image g."""
        f = np.subtract(g, phi_hat, out=phi_hat)
        last, self.last = self.last, (f, g)
        if last is not None:
            df = np.subtract(f, last[0], out=last[0])
            dg = np.subtract(g, last[1], out=last[1])
            df_df, df_f = self.dot(df, df), self.dot(df, f)
            if math.isfinite(df_df) and math.isfinite(df_f) and df_df > 0.0:
                self.mixed_steps += 1
                dg *= -(df_f / df_df)
                dg += g
                return dg
        return g.copy()  # the plain step; g stays in the history


def project_zero_mass(phi: RealField) -> RealField:
    """Remove the x-mean of the field at every transverse wavenumber.

    Zeroes the modes (xi1 = 0, xi2 != 0), the discrete zero-mass
    constraint in x.  Solutions live in this space, and every image of
    the iteration keeps it exactly (SteadyOperator.image); the seed is
    projected here so that the first iterate starts in it too.
    """
    phi_hat = rfft2(phi.values)
    phi_hat[0, 1:] = 0.0
    values = irfft2(phi_hat, phi.grid.shape, overwrite_x=True)
    del phi_hat  # freed before RealField copies the values
    return RealField(phi.grid, values)


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


def _is_even_even(seed: RealField) -> bool:
    """Whether the seed's reflection defects in x and y are at roundoff."""
    defects = symmetry_report(seed)
    return max(defects.x_defect, defects.y_defect) <= EVEN_EVEN_TOL


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
    seed = build_seed(config)
    op = SteadyOperator(grid, p, quarter=_is_even_even(seed))
    # A writable copy of the seed: each iteration reuses the old iterate's
    # buffer for the step difference and then for the square.
    phi = op.fold(seed.values)
    del seed
    phi_hat, sq_hat = op.spectra(phi)
    mixer = _AndersonMixer(op.dot)
    records: list[IterationRecord] = []

    for n in range(1, config.max_iter + 1):
        m = op.stabilizing_factor(phi_hat, sq_hat)
        factor_error = abs(1.0 - m)
        try:
            op.image(sq_hat, m, config.nu)  # sq_hat now holds the image g
            if config.accel_depth and factor_error <= ACCEL_GATE:
                next_hat = mixer.mix(phi_hat, sq_hat)
            else:
                mixer.reset()
                next_hat = sq_hat
            next_phi, peak = op.realize(next_hat)
        except DivergenceError as exc:
            records.append(IterationRecord(n, math.inf, m, factor_error, math.inf))
            status, reason = SolveStatus.DIVERGED, str(exc)
            break

        np.subtract(phi, next_phi, out=phi)
        iter_error = _sup(phi)
        np.multiply(next_phi, next_phi, out=phi)
        sq_hat = op.forward(phi)
        phi, phi_hat = next_phi, next_hat
        residual = op.residual(phi_hat, sq_hat)
        records.append(IterationRecord(n, iter_error, m, factor_error, residual))

        if peak > DIVERGENCE_AMPLITUDE * p.c:
            status = SolveStatus.DIVERGED
            reason = f"sup|phi| = {peak:.3e} exceeds the blow-up guard {DIVERGENCE_AMPLITUDE:g} c"
            break
        if max(iter_error, factor_error, residual) <= config.tol:
            offset = max(float(phi.max()) - 2.0 * p.c, 2.0 * p.c - float(phi.min()))
            if offset < p.c:
                status = SolveStatus.DIVERGED
                reason = (
                    f"constant state phi = 2c = {2.0 * p.c:g} reached, not a lump: "
                    f"sup|phi - 2c| = {offset:.3e} below c"
                )
            else:
                status = SolveStatus.CONVERGED
                reason = f"all three monitors at or below tol {config.tol:.3e}"
            break
    else:
        status = SolveStatus.MAX_ITER
        reason = f"max-iter {config.max_iter} reached; " + _stalled(records[-1], config.tol)

    report = IterationReport(
        records=tuple(records), status=status, tol=config.tol,
        reason=reason, mixed_steps=mixer.mixed_steps, transform=op.transform,
    )
    mixer = phi_hat = sq_hat = next_hat = None  # the spectra are freed before the copy below
    return RealField(grid, op.unfold(phi)), report
