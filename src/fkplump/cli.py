"""Command-line interface: solve runs, analysis exports, kernel probes.

Subcommands
-----------
solve
    Run the Petviashvili iteration and write the field file, the
    iteration log CSV and a JSON run manifest.
analyze
    Read a saved field and export cross sections, the symmetry report,
    decay profiles and functional values as data files.
kernel-probe
    Probe symbol integrability for a list of exponents, one CSV row each.
reference
    Sample the explicit alpha = 2 lump and save it as a field file.
convergence-study
    Solve over a sweep of domain half-widths and tabulate errors vs lx.

Exit codes: 0 converged / success, 1 invalid configuration, a usage
error, a file that cannot be read or written or a run that does not fit
in memory, 2 stopped at max-iter, 3 diverged.  Exit 3 is always a
DIVERGED status (a blow-up, an unusable M^nu, the constant state or a
collapsed iterate, as from an odd seed), whose reason solve prints and
keeps in the manifest with the field and the iteration log.
Configuration can come from a flat "key = value" file (keys equal to
flag names) with flags taking precedence.  CSV output uses 17
significant digits so doubles round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path
from typing import NoReturn

import numpy as np
import scipy

from . import __version__
from .analysis import cross_section, decay_profile, symmetry_report
from .diagnostics import fourier_tail, functionals, residual
from .fieldio import load_field, save_field
from .grid import SpectralGrid, _sup, fft_workers
from .kernels import integrability_probe
from .reference import ExactLumpParams, exact_kp1_lump
from .solver import ACCEL_DEPTHS, SeedSpec, SolveStatus, SolverConfig, solve
from .symbols import SymbolParams

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAX_ITER = 2
EXIT_DIVERGED = 3


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_keyvalues(path: Path, items: dict[str, float | str]) -> None:
    lines = [f"{k} = {_fmt(v) if isinstance(v, float) else v}" for k, v in items.items()]
    path.write_text("\n".join(lines) + "\n", newline="\n")


# --- option resolution ------------------------------------------------------

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(raw: str) -> bool:
    """1/0, true/false or yes/no in any case; any other spelling is a ValueError."""
    try:
        return _BOOLEANS[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


#: Every solve option, flag name = config key -> (type, default).  The table
#: makes the argparse flags and casts the config file; alpha has no default,
#: and only the grid's and out's are not those of the library's classes.
_SOLVE_OPTIONS: dict[str, tuple[Callable[[str], object], object]] = {
    "alpha": (float, None),
    "c": (float, SymbolParams.c),
    "nu": (float, SolverConfig.nu),
    "n": (int, 1024),
    "l": (float, 256.0),
    "tol": (float, SolverConfig.tol),
    "max-iter": (int, SolverConfig.max_iter),
    "seed": (str, SeedSpec.kind),
    "seed-amplitude": (float, SeedSpec.amplitude),
    "seed-width": (float, SeedSpec.width),
    "allow-supercritical": (_parse_bool, SolverConfig.allow_supercritical),
    "accel-depth": (int, SolverConfig.accel_depth),
    "out": (str, "."),
}

_SOLVE_HELP = {
    "tol": "absolute bound on all three monitors; at speed c the step error "
    "scales like c, the residual like c^(2+2/alpha)",
    "seed": "gaussian | exact-kp1 | file:PATH",
    "accel-depth": f"Anderson mixing depth, {ACCEL_DEPTHS[0]} to {ACCEL_DEPTHS[-1]}; 0 is the "
    "plain map, and each depth holds two more spectra than the one below",
}


def _float_list(flag: str, text: str) -> list[float]:
    """The floats of a comma list given to flag; ConfigError if one does not parse."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {flag} list {text!r}") from exc


def _out_dir(out: str) -> Path:
    """The output directory, made with its parents if it is missing."""
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno} is not 'key = value': {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _SOLVE_OPTIONS:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        values[key] = value.strip()
    return values


def _resolve_options(args: argparse.Namespace) -> dict[str, object]:
    """Merge defaults, config file and flags (flags win)."""
    resolved = {key: default for key, (_, default) in _SOLVE_OPTIONS.items()}
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            try:
                resolved[key] = _SOLVE_OPTIONS[key][0](raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from exc
    for key in _SOLVE_OPTIONS:
        flag_attr = key.replace("-", "_")
        value = getattr(args, flag_attr, None)
        if value is not None and value is not False:
            resolved[key] = value
    if resolved["alpha"] is None:
        raise ConfigError("missing required key 'alpha'")
    return resolved


def _seed_spec(resolved: dict[str, object]) -> SeedSpec:
    seed, amplitude, width = resolved["seed"], resolved["seed-amplitude"], resolved["seed-width"]
    if seed.startswith("file:"):
        return SeedSpec(kind="file", amplitude=amplitude, width=width, path=seed[5:])
    return SeedSpec(kind=seed, amplitude=amplitude, width=width)


def _solver_config(resolved: dict[str, object]) -> SolverConfig:
    n, l = resolved["n"], resolved["l"]
    return SolverConfig(
        params=SymbolParams(alpha=resolved["alpha"], c=resolved["c"]),
        grid=SpectralGrid(nx=n, ny=n, lx=l, ly=l),
        nu=resolved["nu"],
        tol=resolved["tol"],
        max_iter=resolved["max-iter"],
        seed=_seed_spec(resolved),
        allow_supercritical=resolved["allow-supercritical"],
        accel_depth=resolved["accel-depth"],
    )


def _write_iteration_log(path: Path, report) -> None:
    rows = [
        [r.iteration, r.iter_error, r.m_factor, r.factor_error, r.residual]
        for r in report.records
    ]
    _write_csv(path, ["iter", "iter_error", "m_factor", "factor_error", "residual"], rows)


def run_solve(args: argparse.Namespace) -> int:
    resolved = _resolve_options(args)
    config = _solver_config(resolved)

    t0 = time.perf_counter()
    field, report = solve(config)
    solve_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    # Made after the solve, so that a run that fails to start leaves no
    # directory; an unwritable --out is reported only now.
    out_dir = _out_dir(resolved["out"])
    field_path = out_dir / "field.fkpl"
    log_path = out_dir / "iterations.csv"
    save_field(field_path, field, config.params.alpha, config.params.c)
    _write_iteration_log(log_path, report)
    amplitude, width = config.seed.resolve(config.params.c)
    manifest = {
        "config": {k: resolved[k] for k in sorted(resolved, key=str)},
        "outputs": [
            {"path": str(field_path), "role": "field"},
            {"path": str(log_path), "role": "iteration-log"},
        ],
        "timings": {"solve": solve_seconds, "write": time.perf_counter() - t1},
        "environment": {"fft_workers": fft_workers(), "transform": report.transform,
                        "numpy": np.__version__, "scipy": scipy.__version__},
        "run": {"status": report.status.value, "reason": report.reason,
                "seed": {"kind": config.seed.kind, "amplitude": amplitude, "width": width},
                "iterations": report.iterations, "accel_depth": config.accel_depth,
                "mixed_steps": report.mixed_steps,
                "first_within_tol": report.first_within_tol()},
        "software_version": __version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    print(f"status={report.status.value} iterations={report.iterations} "
          f"residual={report.final.residual:.3e}")
    print(f"reason: {report.reason}")
    if report.status is SolveStatus.CONVERGED:
        return EXIT_OK
    if report.status is SolveStatus.MAX_ITER:
        return EXIT_MAX_ITER
    return EXIT_DIVERGED


_ANALYZE_TASKS = ("sections", "symmetry", "decay", "functionals")


def run_analyze(args: argparse.Namespace) -> int:
    loaded = load_field(args.field)
    tasks = args.tasks.split(",") if args.tasks else list(_ANALYZE_TASKS)
    for task in tasks:
        if task not in _ANALYZE_TASKS:
            raise ConfigError(f"unknown analyze task {task!r}; choose from {_ANALYZE_TASKS}")
    phi = loaded.field

    # First, so that a header the functionals reject fails before the out
    # directory is made.
    if "functionals" in tasks:
        params = SymbolParams(alpha=loaded.alpha, c=loaded.c)
        scalars = {**asdict(functionals(phi, loaded.alpha)), "residual": residual(phi, params),
                   "fourier_tail": fourier_tail(phi)}
    out_dir = _out_dir(args.out)
    if "functionals" in tasks:
        _write_keyvalues(out_dir / "functionals.txt", scalars)
    if "sections" in tasks:
        for axis in "xy":
            data = cross_section(phi, axis, 0.0)
            _write_csv(
                out_dir / f"cross_section_{axis}.csv",
                ["coordinate", "value"],
                [[float(c), float(v)] for c, v in data],
            )
    if "symmetry" in tasks:
        rep = symmetry_report(phi)
        _write_keyvalues(
            out_dir / "symmetry.txt",
            {"x_defect": rep.x_defect, "y_defect": rep.y_defect},
        )
    if "decay" in tasks:
        summary: dict[str, float] = {}
        for axis in "xy":
            prof = decay_profile(phi, axis)
            _write_csv(
                out_dir / f"decay_{axis}.csv",
                ["radius", "product"],
                [[float(r), float(p)] for r, p in zip(prof.radii, prof.products)],
            )
            summary[f"plateau_{axis}"] = prof.plateau_value
            summary[f"variation_{axis}"] = prof.plateau_rel_variation
        _write_keyvalues(out_dir / "decay.txt", summary)
    print(f"analyze: wrote {', '.join(tasks)} to {out_dir}")
    return EXIT_OK


def run_kernel_probe(args: argparse.Namespace) -> int:
    p_values = _float_list("--p", args.p)
    if any(p < 1.0 for p in p_values):
        raise ConfigError("--p values must be >= 1")
    rows = []
    for p in p_values:
        probe = integrability_probe(args.alpha, p, args.which)
        rows.append([probe.alpha, probe.p, probe.which, probe.verdict, probe.last_increment,
                     float(probe.truncation_radii[-1]), float(probe.truncated_norms[-1])])
    out_dir = _out_dir(args.out)
    path = out_dir / f"kernel_probe_{args.which}.csv"
    _write_csv(path, ["alpha", "p", "which", "verdict", "last_increment", "radius", "norm"], rows)
    print(f"kernel-probe: wrote {path}")
    return EXIT_OK


def run_reference(args: argparse.Namespace) -> int:
    grid = SpectralGrid(nx=args.n, ny=args.n, lx=args.l, ly=args.l)
    field = exact_kp1_lump(grid, ExactLumpParams(c=args.c))
    out_dir = _out_dir(args.out)
    path = out_dir / "exact_lump.fkpl"
    save_field(path, field, alpha=2.0, c=args.c)
    print(f"reference: wrote {path}")
    return EXIT_OK


def run_convergence_study(args: argparse.Namespace) -> int:
    l_values = _float_list("--l", args.l)
    if not all(math.isfinite(v) and v > 0 for v in l_values):
        raise ConfigError(f"--l values must be finite and positive, got {args.l!r}")
    base_l = l_values[0]
    params = SymbolParams(alpha=args.alpha, c=args.c)
    configs = []  # every grid of the sweep is checked before the first solve
    for text, l in zip(args.l.split(","), l_values):
        n = int(round(args.n * l / base_l))  # keep dx fixed across the sweep
        try:
            grid = SpectralGrid(nx=n, ny=n, lx=l, ly=l)
        except ValueError as exc:
            raise ConfigError(f"--l {text.strip()}: {exc}") from exc
        configs.append(SolverConfig(params=params, grid=grid, tol=args.tol))
    rows = []
    for config in configs:
        grid = config.grid
        field, report = solve(config)
        final = report.final
        if args.alpha == 2.0:
            exact = exact_kp1_lump(grid, ExactLumpParams(c=args.c))
            err = _sup(field.values - exact.values) / exact.max_abs()
        else:
            err = float("nan")
        rows.append([grid.lx, grid.nx, report.iterations, report.status.value,
                     final.iter_error, final.factor_error, final.residual, err])
    out_dir = _out_dir(args.out)
    path = out_dir / "convergence_study.csv"
    _write_csv(
        path,
        ["lx", "nx", "iterations", "status", "iter_error", "factor_error", "residual", "error_vs_exact"],
        rows,
    )
    print(f"convergence-study: wrote {path}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors are ConfigErrors: one `error:` line, exit 1.

    argparse's own exit status 2 is this program's max-iter code.
    """

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fkplump",
        description="Lump solutions of the fractional KP-I equation by Petviashvili iteration.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the Petviashvili iteration")
    for key, (cast, _) in _SOLVE_OPTIONS.items():
        if cast is _parse_bool:
            ps.add_argument(f"--{key}", action="store_true", help=_SOLVE_HELP.get(key))
        else:
            ps.add_argument(f"--{key}", type=cast, help=_SOLVE_HELP.get(key))
    ps.add_argument("--config", type=str, help="flat key = value configuration file")
    ps.set_defaults(func=run_solve)

    pa = sub.add_parser("analyze", help="export analysis data for a saved field")
    pa.add_argument("field", type=str)
    pa.add_argument("--tasks", type=str, default="", help="comma list: sections,symmetry,decay,functionals")
    pa.add_argument("--out", type=str, default=".")
    pa.set_defaults(func=run_analyze)

    pk = sub.add_parser("kernel-probe", help="probe L^p integrability of a kernel symbol")
    pk.add_argument("--alpha", type=float, required=True)
    pk.add_argument("--p", type=str, required=True, help="comma list of exponents")
    pk.add_argument("--which", choices=("m", "h"), default="m")
    pk.add_argument("--out", type=str, default=".")
    pk.set_defaults(func=run_kernel_probe)

    pr = sub.add_parser("reference", help="emit the explicit alpha = 2 lump")
    pr.add_argument("--c", type=float, default=SymbolParams.c)
    pr.add_argument("--n", type=int, default=_SOLVE_OPTIONS["n"][1])
    pr.add_argument("--l", type=float, default=_SOLVE_OPTIONS["l"][1])
    pr.add_argument("--out", type=str, default=".")
    pr.set_defaults(func=run_reference)

    pc = sub.add_parser("convergence-study", help="sweep domain sizes, tabulate errors")
    pc.add_argument("--alpha", type=float, required=True)
    pc.add_argument("--c", type=float, default=SymbolParams.c)
    pc.add_argument("--n", type=int, default=256, help="node count at the first --l value")
    pc.add_argument("--l", type=str, required=True, help="comma list of half-widths")
    pc.add_argument("--tol", type=float, default=SolverConfig.tol,
                    help="absolute, as for solve --tol")
    pc.add_argument("--out", type=str, default=".")
    pc.set_defaults(func=run_convergence_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError and FieldFileError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
