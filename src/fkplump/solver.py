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
outside the energy space (zero mass in x); build_seed projects them out
of the seed, and the image is exactly 0 there.  D and the pairings are
real by construction.  A step fails when its cubic pairing vanishes (a
collapsed iterate), its M^nu is not finite and positive, or its iterate
is not finite or blows up past DIVERGENCE_AMPLITUDE c; the run then ends
DIVERGED with an inf record and the last accepted iterate.

The periodic problem leaves the mean of phi free.  D at the origin fixes
it, D(0,0) mean(phi) = mean(phi^2), and symbols.mean_mode_denominator
decides that value (2c); SteadyOperator.denominator writes it there.  It
also makes phi = D(0,0) the constant steady state: a run that converges
to within c of it, where a lump, about 0 at the domain edge, never comes,
is DIVERGED too.

The loop runs on one of two layouts of SteadyOperator, chosen by the
seed.  Every symbol is even in xi1 and xi2, so an even-even seed stays
even-even: when the projected seed's reflection defects are at most
grid.EVEN_EVEN_TOL (RealField.is_even_even), the iterates are the
(nx/2+1, ny/2+1) quarters x, y >= 0 and the spectra their DCT-I
coefficients (dct1/idct1), and the final field is mirrored back to the
whole grid.  Every other seed runs on the whole grid with rfft2
half-spectra.

By default the map is accelerated by type-II Anderson mixing (Walker & Ni,
SIAM J. Numer. Anal. 2011; for Petviashvili maps see Alvarez & Duran,
Math. Comput. Simul. 2016) on the spectra.  With g_n the image above,
f_n = g_n - fft(phi_n) and df_j = f_{j+1} - f_j, dg_j likewise, depth m
takes

    fft(phi_{n+1}) = g_n - sum_j gamma_j dg_j,
    (<df_i, df_j>) gamma = (<df_i, f_n>),

over the last m differences (fewer while the history fills), with <,>
the real dot product of the float64 views.  At depth 1 this is
gamma = <df, f_n> / <df, df>.  A Gram matrix that is not finite or whose
1-norm condition number exceeds ACCEL_COND_MAX takes the plain step and
restarts the history.  Mixing runs only while |1 - M_n| <= ACCEL_GATE;
elsewhere the plain step is taken and the history is cleared.
accel_depth = 0 is the paper's plain map, 1 mixes with one pair and the
default is 3.  The dot product counts each quarter row as often as the
half-lattice holds it, so both layouts mix alike.  A full history builds
the mixed spectrum in its oldest dg, which the step drops, and D is
formed once per row block and step, not held: between steps depth m
holds 2m + 3 arrays of the layout (the iterate and 2m + 2 spectra).
Either way one iteration costs one forward and two inverse transforms of
the layout (one rfft2 and two irfft2, or one dct1 and two idct1), and
the three monitors are those of the accepted iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .fieldio import load_field
# fft2 is unused here; perfbench/selftest.py checks fkplump.solver.fft2.
from .grid import (  # noqa: F401
    RealField,
    SpectralGrid,
    _sup,
    dct1,
    fft2,
    fold_quarter,
    idct1,
    irfft2,
    multiplicities,
    rfft2,
    row_blocks,
    small_ufunc_buffers,
    unfold_quarter,
)
from .reference import ExactLumpParams, _check_amplitude, _check_width, exact_kp1_lump, gaussian_seed
from .symbols import ALPHA_ENERGY_CRITICAL, SymbolParams, dispersion_symbol, mean_mode_denominator

#: Sup-norm blow-up guard, in units of the wave speed.  A larger iterate is a
#: failed step (SteadyOperator.realize): an inf record and the last accepted iterate.
DIVERGENCE_AMPLITUDE = 1e6

#: The Anderson mixing depths: 0 is the plain map, m >= 1 mixes with the
#: last m difference pairs.  Each depth keeps two more spectra than the one
#: below: 0.5 n^2 float64 arrays on the quarter (4 B per node), 2 n^2 on
#: the half-lattice (16 B per node).  Iterations at depths 1, 2 and 3: 25,
#: 24 and 19 on the 1024^2, alpha = 2 desk grid; 42, 28 and 24 on 512^2,
#: alpha = 1.5.  The mixer takes any depth; deeper ones wait for a rule
#: that picks the depth from the run, and for the memory to hold it.
ACCEL_DEPTHS = (0, 1, 2, 3)

#: A mixing system whose Gram matrix has a 1-norm condition number above
#: this takes the plain step and restarts the history.
ACCEL_COND_MAX = 1e12

#: Anderson mixing runs only while |1 - M| is at most this.  Farther from
#: the fixed point a mixed step can overshoot: without the gate, depth 2 at
#: nu = 2.5 (256^2) diverged at iteration 4 where the plain map converges,
#: and depth 1 at nu = 5 (128^2) collapsed the iterate (its cubic pairing
#: vanished) where the plain map stops at the blow-up guard.
ACCEL_GATE = 0.1

#: The three monitors of an IterationRecord, by field name.
MONITORS = ("iter_error", "factor_error", "residual")


class DivergenceError(ArithmeticError):
    """A failed step; m_factor is M for an unusable M^nu, nan for a collapse, else None."""

    def __init__(self, message: str, m_factor: float | None = None) -> None:
        super().__init__(message)
        self.m_factor = m_factor


class SolveStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITER = "max-iter"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class SeedSpec:
    """Initial-guess descriptor.

    kind is one of "gaussian", "exact-kp1" (the closed-form alpha = 2 lump
    at the configured speed) or "file" with a path to a saved field.  Only
    the gaussian takes an amplitude and a width, None being 3c and 2
    (resolve), and only the file seed takes a path.
    """

    kind: str = "gaussian"
    amplitude: float | None = None
    width: float | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "exact-kp1", "file"):
            raise ValueError(f"unknown seed kind {self.kind!r}")
        for name, value, check in (("amplitude", self.amplitude, _check_amplitude),
                                   ("width", self.width, _check_width)):
            if value is not None and self.kind != "gaussian":
                raise ValueError(f"seed {name} applies only to the gaussian seed, not {self.kind!r}")
            if value is not None:
                check(value, f"seed {name}")
        if self.path is not None and self.kind != "file":
            raise ValueError(f"seed path applies only to the 'file' seed, not {self.kind!r}")
        if self.kind == "file" and not self.path:
            raise ValueError("seed kind 'file' requires a path")

    def resolve(self, c: float) -> tuple[float | None, float | None]:
        """The gaussian's (amplitude, width) at speed c, None read as 3c and 2;
        (None, None) for the other kinds."""
        if self.kind != "gaussian":
            return None, None
        return (3.0 * c if self.amplitude is None else self.amplitude,
                2.0 if self.width is None else self.width)


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
    accel_depth: int = 3

    def __post_init__(self) -> None:
        depth = self.accel_depth
        if not isinstance(depth, (int, np.integer)) or depth not in ACCEL_DEPTHS:
            raise ValueError(
                f"accel_depth must be an integer from 0 (plain map) to {ACCEL_DEPTHS[-1]}, "
                f"got {depth!r}"
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

    def first_within_tol(self) -> dict[str, int | None]:
        """For each monitor, the first iteration whose value was at most tol (None if none was)."""
        return {
            name: next((r.iteration for r in self.records if getattr(r, name) <= self.tol), None)
            for name in MONITORS
        }


def _gain(m: float, nu: float) -> float:
    """The step factor M^nu, or DivergenceError (carrying M) unless it is finite and positive."""
    try:
        gain = math.pow(m, nu)
    except (ValueError, OverflowError):
        gain = math.nan
    if not (math.isfinite(gain) and gain > 0.0):
        raise DivergenceError(f"step factor M^nu = ({m!r})^{nu!r} is not finite and positive", m)
    return gain


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Real dot product of two spectra, as float64 views."""
    return float(np.vdot(a.view(np.float64), b.view(np.float64)))


def _real_product(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Re(a conj(b)) pointwise, in out; a complex a also overwrites scratch (out's shape)."""
    np.multiply(a.real, b.real, out=out)
    if np.iscomplexobj(a):
        out += np.multiply(a.imag, b.imag, out=scratch)
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
    grid) and the spectra their real dct1 coefficients.  D, xi1^2/2 and
    the row term of A are then built on the rows k1 = 0, ..., nx/2 only,
    and the weights also carry the row multiplicities (1 at k1 = 0 and
    nx/2, 2 elsewhere).

    No 2-D array is held.  D = 2 (c + T^2 + |xi1|^alpha), with T = xi2/xi1,
    is formed once per row block (denominator) in image's one pass, which
    sums the pairings of M and divides by D.  Its value at the origin,
    mean_mode, is symbols.mean_mode_denominator's.
    A is held as its row term xi1^2 (c + |xi1|^alpha) and its column term
    xi2^2, and the weights as row and column factors; both are formed per
    row block where they are used, to the bits of 2-D arrays (a sum, and
    exact products of 1 and 2).  The block loops run with small ufunc
    buffers (grid.small_ufunc_buffers), so that only the block tiles sit
    on top of the spectra.

    Raises
    ------
    ValueError
        If A overflows: a half-width lx so small that xi1^2 (c + |xi1|^alpha)
        is not finite for the given alpha, or half-widths lx and ly whose
        terms are finite but whose sum is not.
    """

    def __init__(self, grid: SpectralGrid, params: SymbolParams, quarter: bool = False) -> None:
        self.grid = grid
        self.params = params
        self.quarter = quarter
        rows = grid.nx // 2 + 1 if quarter else grid.nx
        xi1, xi2 = self._wavenumbers = grid.xi1[:rows, None], grid.xi2_half[None, :]
        self.mean_mode = mean_mode_denominator(params.c)
        self.half_xi1sq = 0.5 * xi1**2
        self.dispersion = dispersion_symbol(xi1, params.alpha)
        with np.errstate(over="ignore"):
            self.residual_rows = xi1**2 * (params.c + self.dispersion)
        self.residual_columns = xi2**2
        # both terms are >= 0, so A's largest value is the sum of theirs
        row_max = float(self.residual_rows.max())
        if not math.isfinite(row_max):
            raise ValueError(
                f"half-width lx = {grid.lx!r} is too small for alpha = {params.alpha!r}: "
                "the residual symbol xi1^2 (c + |xi1|^alpha) overflows"
            )
        if not math.isfinite(row_max + float(self.residual_columns.max())):
            raise ValueError(
                f"half-widths lx = {grid.lx!r} and ly = {grid.ly!r} are too small for "
                f"alpha = {params.alpha!r}: the residual symbol "
                "xi1^2 (c + |xi1|^alpha) + xi2^2 overflows"
            )
        self.row_weights = multiplicities(grid.nx)[:, None] if quarter else np.ones((rows, 1))
        self.column_weights = grid.column_weights
        self.blocks = row_blocks(rows, xi2.size)

    def denominator(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """D on a block of the layout's rows, written into out (a real array of the block's shape).

        The order of operations is that of the whole-array formula
        2.0 * (c + T**2 + |xi1|^alpha), so the bits are too.  T = xi2/xi1
        is 0 on the layout's first row, the only one where xi1 = 0, so one
        plain division fills the tile: symbols.transverse_multiplier's
        masked one would make a zeroed array per block, and a copy.  The
        origin then takes mean_mode.
        """
        xi1, xi2 = self._wavenumbers
        skip = int(rows.start == 0)
        out[:skip] = 0.0
        np.divide(xi2, xi1[rows][skip:], out=out[skip:])
        np.square(out, out=out)
        out += self.params.c
        out += self.dispersion[rows]
        out *= 2.0
        if skip:
            out[0, 0] = self.mean_mode
        return out

    @property
    def transform(self) -> str:
        """The forward transform of the layout, as recorded in run reports."""
        return "dct1" if self.quarter else "rfft2"

    def fold(self, values: np.ndarray) -> np.ndarray:
        """A new array of the layout's iterate from n^2 values (the quarter x, y >= 0)."""
        return fold_quarter(values) if self.quarter else values.copy()

    def unfold(self, values: np.ndarray) -> np.ndarray:
        """The n^2 values of an iterate of the layout, mirrored from the quarter."""
        return unfold_quarter(values, self.grid.shape) if self.quarter else values

    def forward(self, values: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        """The spectrum of an iterate of the layout.

        With overwrite_x, values are left undefined: on the quarter the
        spectrum is built in them, which spares a new array.
        """
        return dct1(values, overwrite_x=overwrite_x) if self.quarter else rfft2(values)

    def inverse(self, coeffs: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        """The iterate of a spectrum; with overwrite_x, coeffs are left undefined."""
        if self.quarter:
            return idct1(coeffs, overwrite_x=overwrite_x)
        return irfft2(coeffs, self.grid.shape, overwrite_x=overwrite_x)

    def spectra(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Transforms of an iterate and of its square."""
        return self.forward(values), self.forward(values * values, overwrite_x=True)

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Real dot product of two spectra, each row counted as often as the half-lattice holds it.

        The half-lattice holds the rows k1 and nx - k1 of an even-even
        field apart, so a quarter row other than k1 = 0 and nx/2 counts
        twice; both layouts then give Anderson mixing the same numbers.
        """
        if not self.quarter:
            return _real_dot(a, b)
        return 2.0 * _real_dot(a, b) - _real_dot(a[0], b[0]) - _real_dot(a[-1], b[-1])

    @small_ufunc_buffers()
    def image(self, phi_hat: np.ndarray, sq_hat: np.ndarray, nu: float) -> float:
        """Overwrite sq_hat with the Petviashvili image M^nu (phi^2)^ / D and return M.

        M, the ratio of the D-weighted quadratic pairing of phi^ with itself
        to the cubic pairing of (phi^2)^ with phi^, is 1 at a solution and
        scales as 1/s when phi is replaced by s phi.  One pass over the row
        blocks sums both pairings and divides each block by D, formed once;
        the constrained row of the image is set to 0.  The gain M^nu then
        multiplies the whole spectrum.  On either error sq_hat is undefined.

        Raises
        ------
        DivergenceError
            If the cubic pairing is below 1e-14 of its natural scale, as
            for a zero or odd-in-x iterate (the error carries M = nan), or
            if M^nu is not a finite positive number, as for a negative M
            and nu = 1.5 (the error carries M).
        """
        # block tiles for the weights, |phi^|^2 and D, reused by every block;
        # the last two take turns as scratch for the products and |(phi^2)^|
        tiles = np.empty((3, *phi_hat[self.blocks[0]].shape))
        num = den = scale = 0.0
        for rows in self.blocks:
            p, s = phi_hat[rows], sq_hat[rows]
            w, power, work = tiles[:, : len(p)]
            np.multiply(self.row_weights[rows], self.column_weights, out=w)
            if rows.start == 0:
                w[0, 1:] = 0.0  # the constrained row
            np.sqrt(_real_product(p, p, out=power, scratch=work), out=work)
            work *= np.abs(s, out=power)
            scale += float(np.vdot(w, work))
            den += float(np.vdot(w, _real_product(s, p, out=work, scratch=power)))
            _real_product(p, p, out=power, scratch=work)
            power *= self.denominator(rows, out=work)
            num += float(np.vdot(w, power))
            s /= work
            if rows.start == 0:
                s[0, 1:] = 0.0
        if abs(den) <= 1e-14 * scale:
            # A quarter iterate is even-even by construction: parity is no cause there.
            cause = "" if self.quarter else " (or has odd parity)"
            raise DivergenceError(
                f"cubic pairing vanished; the iterate has collapsed{cause}", math.nan
            )
        m = num / den
        sq_hat *= _gain(m, nu)
        return m

    def realize(self, next_hat: np.ndarray) -> np.ndarray:
        """The iterate of a spectrum.

        Raises
        ------
        DivergenceError
            If the iterate is not finite or exceeds the blow-up guard.
        """
        values = self.inverse(next_hat)
        peak = _sup(values)
        if not math.isfinite(peak):
            raise DivergenceError("iteration produced non-finite values")
        if peak > DIVERGENCE_AMPLITUDE * self.params.c:
            raise DivergenceError(
                f"sup|phi| = {peak:.3e} exceeds the blow-up guard {DIVERGENCE_AMPLITUDE:g} c"
            )
        return values

    @small_ufunc_buffers()
    def residual(self, phi_hat: np.ndarray, sq_hat: np.ndarray) -> float:
        """Sup norm of S phi = (-c phi + phi^2/2 - Dx^alpha phi)_xx - phi_yy.

        Leaves phi_hat and sq_hat unchanged.  The spectrum of S phi is
        written row block by row block into one new array.
        """
        s_hat = np.empty_like(phi_hat)
        scratch = np.empty_like(phi_hat[self.blocks[0]])
        for rows in self.blocks:
            out = s_hat[rows]
            np.add(self.residual_rows[rows], self.residual_columns, out=out)  # A
            out *= phi_hat[rows]
            out -= np.multiply(self.half_xi1sq[rows], sq_hat[rows], out=scratch[: len(out)])
        return _sup(self.inverse(s_hat, overwrite_x=True))


class _AndersonMixer:
    """Type-II Anderson mixing of depth m of the Petviashvili map on spectra.

    The history is the last f and g and at most m - 1 difference pairs
    (df, dg), oldest first.  A step turns the last f and g into a new pair
    in place, builds the Gram matrix <df_i, df_j> of its pairs with the
    operator's dot product and solves the normal equations for gamma.  The
    mixed spectrum g - sum gamma_i dg_i is a new array, or, when the
    history is full, is built in the oldest dg, whose pair it then drops.
    """

    def __init__(self, op: SteadyOperator, depth: int) -> None:
        self.dot = op.dot
        self.blocks = op.blocks
        self.depth = depth
        self.last: tuple[np.ndarray, np.ndarray] | None = None  # f, g of the last step
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = []
        self.mixed_steps = 0

    def reset(self) -> None:
        self.last = None
        self.pairs.clear()

    def mix(self, phi_hat: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The next spectrum from phi_hat (overwritten with f) and its image g."""
        f = np.subtract(g, phi_hat, out=phi_hat)
        last, self.last = self.last, (f, g)
        if last is None:
            return g.copy()
        pairs = self.pairs
        pairs.append((np.subtract(f, last[0], out=last[0]), np.subtract(g, last[1], out=last[1])))
        dfs = [df_i for df_i, _ in pairs]
        gram = np.empty((len(dfs), len(dfs)))
        for i, newer in enumerate(dfs):
            for j, older in enumerate(dfs[: i + 1]):
                gram[i, j] = gram[j, i] = self.dot(newer, older)
        gamma = _mixing_coefficients(gram, np.array([self.dot(df_i, f) for df_i in dfs]))
        if gamma is None:
            pairs.clear()
            return g.copy()  # the plain step; f and g stay in the history
        self.mixed_steps += 1
        # a full history drops its oldest pair below, so its dg takes the mixed spectrum
        oldest = pairs[0][1]
        out = np.multiply(oldest, -gamma[0], out=oldest if len(pairs) == self.depth else None)
        for (_, dg_i), coef in zip(pairs[1:], -gamma[1:]):
            for rows in self.blocks:
                out[rows] += dg_i[rows] * coef
        out += g
        if len(pairs) == self.depth:
            del pairs[0]
        return out


def _mixing_coefficients(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """gamma from gram gamma = rhs, or None if gram is not finite, singular or ill-conditioned.

    The 1-norm condition number is inf for a singular gram, as a zero one.
    """
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        return None
    if not np.linalg.cond(gram, 1) <= ACCEL_COND_MAX:
        return None
    gamma = np.linalg.solve(gram, rhs)
    return gamma if np.isfinite(gamma).all() else None


def build_seed(config: SolverConfig) -> RealField:
    """Materialize the configured initial guess, projected to zero x-mass.

    The projection zeroes the modes (xi1 = 0, xi2 != 0), which every image
    of the iteration keeps at 0 (SteadyOperator.image), so that the first
    iterate starts in the space too.  The sampled field and then its
    spectrum are dropped as soon as they are used.
    """
    spec = config.seed
    c = config.params.c
    if spec.kind == "gaussian":
        seed = gaussian_seed(config.grid, *spec.resolve(c))
    elif spec.kind == "exact-kp1":
        seed = exact_kp1_lump(config.grid, ExactLumpParams(c=c))
    else:
        seed = load_field(spec.path).field
        if seed.grid != config.grid:
            raise ValueError(f"seed file grid {seed.grid} does not match run grid {config.grid}")
    phi_hat = rfft2(seed.values)
    del seed
    phi_hat[0, 1:] = 0.0
    values = irfft2(phi_hat, config.grid.shape, overwrite_x=True)
    del phi_hat
    return RealField._adopt(config.grid, values)


def _is_even_even(seed: RealField) -> bool:
    """Whether the seed's reflection defects in x and y are at roundoff (RealField.is_even_even)."""
    return seed.is_even_even


def _check_first_step(op: SteadyOperator, spec: SeedSpec, peak: float) -> None:
    """Raise ValueError unless the first iteration's arithmetic stays finite.

    With s the seed's sup and N the node count, |phi^| <= N s and
    |(phi^2)^| <= N s^2 on either layout, and the pairing weights of M sum
    to N.  So phi^2, the spectra, D |phi^|^2 and the pairing sums of M are
    finite if s^2, (N s)^2, N D_max (N s)^2 and N (N s) (N s^2) are, with
    D_max at most 2 (c + (max|xi2| / min|xi1 != 0|)^2 + max|xi1|^alpha), or
    D(0,0) if that is larger.
    The operator's rows hold the Nyquist |xi1| on either layout, so its
    dispersion column holds max|xi1|^alpha.  The bounds are Python floats,
    which reach inf without a warning.
    """
    grid, c = op.grid, float(op.params.c)
    xi1, xi2 = op._wavenumbers
    nodes = float(grid.nx * grid.ny)
    spectrum = nodes * peak
    transverse = float(np.abs(xi2).max()) / float(xi1[1, 0])
    d_max = max(2.0 * (c + transverse * transverse + float(op.dispersion.max())), op.mean_mode)
    bounds = (peak * peak, spectrum * spectrum, nodes * d_max * spectrum * spectrum,
              nodes * spectrum * nodes * peak * peak)
    if all(math.isfinite(bound) for bound in bounds):
        return
    if spec.amplitude is not None:  # only a gaussian has one
        seed = f"seed amplitude {spec.amplitude!r}"
    else:
        seed = f"seed peak {peak:.3g}"
    raise ValueError(
        f"c = {c!r} and {seed} are too large for the grid: the first step's "
        "phi^2, its spectra or the pairing sums of M would overflow"
    )


def _stalled(record: IterationRecord, tol: float) -> str:
    """The monitors of a record that are still above tol, as text."""
    above = [
        f"{name} {getattr(record, name):.3e}" for name in MONITORS if not getattr(record, name) <= tol
    ]
    return ", ".join(above) + f" above tol {tol:.3e}"


def solve(config: SolverConfig) -> tuple[RealField, IterationReport]:
    """Run the Petviashvili iteration to convergence.

    Iterates until all three monitors (step difference, |1 - M|, residual)
    are at or below config.tol, or max_iter is reached, or a step fails (a
    collapse, an unusable M^nu, a non-finite or blown-up iterate), which
    ends the run DIVERGED with a record (n, inf, M, |1 - M|, inf) and the
    last accepted iterate.  Every stop is a status with a reason.

    Returns
    -------
    (RealField, IterationReport)
        The final iterate and the full monitor history.

    Raises
    ------
    ValueError
        If c or the seed is so large that the first step's phi^2, spectra
        or pairing sums would overflow; the bound is checked before the
        loop, from the seed's sup.
    """
    p = config.params
    grid = config.grid
    seed = build_seed(config)
    op = SteadyOperator(grid, p, quarter=_is_even_even(seed))
    _check_first_step(op, config.seed, seed.max_abs())
    # A writable copy of the seed: each iteration reuses the old iterate's
    # buffer for the step difference, then for the square and, on the
    # quarter, for the square's spectrum.
    phi = op.fold(seed.values)
    del seed
    phi_hat, sq_hat = op.spectra(phi)
    mixer = _AndersonMixer(op, config.accel_depth)
    records: list[IterationRecord] = []

    for n in range(1, config.max_iter + 1):
        try:
            m = op.image(phi_hat, sq_hat, config.nu)  # sq_hat now holds the image g
            factor_error = abs(1.0 - m)
            if config.accel_depth and factor_error <= ACCEL_GATE:
                next_hat = mixer.mix(phi_hat, sq_hat)
            else:
                mixer.reset()
                next_hat = sq_hat
            next_phi = op.realize(next_hat)
        except DivergenceError as exc:
            m = m if exc.m_factor is None else exc.m_factor  # realize raised after image set m
            records.append(IterationRecord(n, math.inf, m, abs(1.0 - m), math.inf))
            status, reason = SolveStatus.DIVERGED, str(exc)
            break

        np.subtract(phi, next_phi, out=phi)
        iter_error = _sup(phi)
        np.multiply(next_phi, next_phi, out=phi)
        sq_hat = op.forward(phi, overwrite_x=True)
        phi, phi_hat = next_phi, next_hat
        residual = op.residual(phi_hat, sq_hat)
        records.append(IterationRecord(n, iter_error, m, factor_error, residual))

        if max(iter_error, factor_error, residual) <= config.tol:
            constant = op.mean_mode  # the constant steady state phi = D(0,0)
            offset = max(float(phi.max()) - constant, constant - float(phi.min()))
            if offset < p.c:
                status = SolveStatus.DIVERGED
                reason = (
                    f"constant state phi = 2c = {constant:g} reached, not a lump: "
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
    # The spectra, then the operator and the quarter, are freed before the n^2 copy.
    mixer = phi_hat = sq_hat = next_hat = None
    values = op.unfold(phi)
    op = phi = next_phi = None
    return RealField._adopt(grid, values), report
