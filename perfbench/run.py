"""fkplump benchmark: time to a verified lump, and what each layer costs.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk-alpha2 --seed 1 --seconds 35 --trace 0

A run repeats the workload's operation for about `--seconds` seconds and
checks every result.  The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json: the run first times
three set-ups in child processes (`setup_s`), and brackets every timed
interval with a calibration kernel.  With `--trace 1` every other
operation runs with fkplump's cross-module calls wrapped in spans (see
tracing.py), and the metrics are the per-layer ones.  The lines before the
JSON object are a human-readable report.  The full result, with the
environment and the spans, is written under perfbench/.out/.

See perfbench/README.md for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

#: One FFT worker and one BLAS thread: every workload is single-threaded.
THREAD_ENV = {
    "FKP_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Child-process set-ups per run; their median is setup_s.
SETUP_REPEATS = 3

#: The calibration kernel's time on the quiet 2-core machine the benchmark
#: was defined on.  Reported times are wall seconds scaled by this over the
#: kernel's time measured around them.
CALIBRATION_SECONDS = 0.4

# Acceptance thresholds the checks apply (the repository's criteria 1-10).
MONITOR_TOL = 1e-5  # the CLI's default --tol
SYMMETRY_MAX = 1e-8
ORACLE_MAX = 5e-3
PLATEAU_X, PLATEAU_Y, PLATEAU_RTOL = -24.0, 24.0, 0.10
CONVOLUTION_MAX = 5e-3  # times the peak
KERNEL_VARIATION_MAX = 0.25
RESCALE_MAX = 1e-3
PROBE_AGREEMENT_MAX = 1e-3
PROBES = (("m", 3.0, "converging"), ("m", 2.0, "diverging"),
          ("h", 1.9, "converging"), ("h", 2.1, "diverging"))

#: Functions the benchmark calls directly, by layer; traced runs wrap them.
ENTRY_POINTS = {
    "cli": ("main",),
    "fieldio": ("save_field", "load_field"),
    "analysis": ("cross_section", "symmetry_report", "decay_profile"),
    "diagnostics": ("functionals", "residual", "fourier_tail"),
    "kernels": ("build_kernel", "convolve", "kernel_decay", "integrability_probe"),
    "reference": ("rescale_solution",),
}


def entry_points(tracer=None) -> argparse.Namespace:
    """The benchmark's handles on each layer, wrapped in spans if traced."""
    import importlib

    api = argparse.Namespace()
    for layer, names in ENTRY_POINTS.items():
        module = importlib.import_module(f"fkplump.{layer}")
        for name in names:
            fn = getattr(module, name)
            setattr(api, name, fn if tracer is None else tracer.wrap(f"{layer}.{name}", fn))
    return api


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# --- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class SolveSpec:
    alpha: float
    n: int
    l: float
    oracle: bool  # alpha = 2 has the closed-form lump to compare against


SOLVES = {
    "desk-alpha2": SolveSpec(alpha=2.0, n=1024, l=256.0, oracle=True),
    "slow-alpha1.5": SolveSpec(alpha=1.5, n=512, l=128.0, oracle=False),
}
VERIFY = "verify-structure"
WORKLOADS = (*SOLVES, VERIFY)


def warm_transforms(*shapes: tuple[int, int]) -> None:
    """First calls of the transforms at the run's shapes (plan caches)."""
    import numpy as np
    from fkplump.grid import fft2, ifft2

    for shape in shapes:
        ifft2(fft2(np.ones(shape)))


class SolveBench:
    """One operation: `fkplump solve` in-process, then its outputs checked.

    The seed draws the gaussian initial guess: amplitude within +-10% of
    the default 3c, width within +-1% of the default 2.  The width sets the
    iteration count (+-10% of width gave 41 to 61 iterations at alpha = 2
    over ten seeds, the amplitude none), so a wider draw would make the
    inputs, not the program, decide the run-to-run spread.
    """

    def __init__(self, spec: SolveSpec, seed: int, work_dir: Path) -> None:
        from fkplump.grid import SpectralGrid
        from fkplump.reference import ExactLumpParams, exact_kp1_lump

        rng = random.Random(seed)
        amplitude = 3.0 * (1.0 + rng.uniform(-0.1, 0.1))
        width = 2.0 * (1.0 + rng.uniform(-0.01, 0.01))
        self.out = work_dir
        self.argv = [
            "solve", "--alpha", repr(spec.alpha), "--n", str(spec.n), "--l", repr(spec.l),
            "--seed-amplitude", repr(amplitude), "--seed-width", repr(width),
            "--out", str(work_dir),
        ]
        self.nodes = spec.n * spec.n
        self.field_bytes = 56 + 8 * self.nodes
        grid = SpectralGrid(nx=spec.n, ny=spec.n, lx=spec.l, ly=spec.l)
        self.exact = exact_kp1_lump(grid, ExactLumpParams(c=1.0)) if spec.oracle else None
        warm_transforms(grid.shape)

    def op(self, api) -> tuple[float, list[str], dict[str, float]]:
        rss_before = current_rss_bytes()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = api.main(self.argv)
        seconds = time.perf_counter() - start
        values = {"rss_growth_bytes": max(0, peak_rss_bytes() - rss_before)}
        return seconds, self.check(code, api, values), values

    def check(self, code: int, api, values: dict[str, float]) -> list[str]:
        import numpy as np

        failures = []
        if code != 0:
            failures.append(f"exit code {code}")
        with open(self.out / "iterations.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        values["iterations"] = len(rows)
        for monitor in ("iter_error", "factor_error", "residual"):
            final = float(rows[-1][monitor]) if rows else float("inf")
            if not final <= MONITOR_TOL:
                failures.append(f"final {monitor} {final:.3e} > {MONITOR_TOL:.0e}")
        manifest = json.loads((self.out / "manifest.json").read_text())
        for output in manifest["outputs"]:
            if not Path(output["path"]).is_file():
                failures.append(f"manifest output {output['path']} missing")
        phi = api.load_field(self.out / "field.fkpl").field
        sym = api.symmetry_report(phi)
        if not max(sym.x_defect, sym.y_defect) <= SYMMETRY_MAX:
            failures.append(f"symmetry defects {sym.x_defect:.2e}, {sym.y_defect:.2e}")
        if self.exact is not None:
            err = float(np.max(np.abs(phi.values - self.exact.values))) / self.exact.max_abs()
            values["rel_error_vs_exact"] = err
            if not err <= ORACLE_MAX:
                failures.append(f"error vs exact lump {err:.3e} > {ORACLE_MAX:.0e}")
        return failures


class VerifyBench:
    """One operation: the structure-verification pass on the exact alpha = 2 lump.

    The inputs are closed-form, so they do not depend on the seed.
    """

    def __init__(self, work_dir: Path) -> None:
        from fkplump.grid import SpectralGrid
        from fkplump.reference import ExactLumpParams, exact_kp1_lump

        self.grid = SpectralGrid(nx=1024, ny=1024, lx=256.0, ly=256.0)
        self.lump = exact_kp1_lump(self.grid, ExactLumpParams(c=1.0))
        source_grid = SpectralGrid(nx=2048, ny=2048, lx=128.0, ly=128.0)
        self.source = exact_kp1_lump(source_grid, ExactLumpParams(c=1.0))
        self.target_grid = SpectralGrid(nx=512, ny=512, lx=64.0, ly=48.0)
        self.expected = exact_kp1_lump(self.target_grid, ExactLumpParams(c=2.0))
        self.path = work_dir / "lump.fkpl"
        self.nodes = self.grid.nx * self.grid.ny
        self.field_bytes = 56 + 8 * self.nodes
        warm_transforms(self.grid.shape, source_grid.shape)

    def op(self, api) -> tuple[float, list[str], dict[str, float]]:
        start = time.perf_counter()
        failures, values = self.verify(api)
        return time.perf_counter() - start, failures, values

    def verify(self, api) -> tuple[list[str], dict[str, float]]:
        import numpy as np
        from fkplump.grid import RealField
        from fkplump.symbols import SymbolParams

        failures: list[str] = []

        def need(ok: bool, what: str) -> None:
            if not ok:
                failures.append(what)

        api.save_field(self.path, self.lump, 2.0, 1.0)
        loaded = api.load_field(self.path)
        phi = loaded.field
        need(np.array_equal(phi.values, self.lump.values) and (loaded.alpha, loaded.c) == (2.0, 1.0),
             "FKPL round trip is not bit-exact")
        peak = phi.max_abs()

        for axis in "xy":
            api.cross_section(phi, axis, 0.0)
        sym = api.symmetry_report(phi)
        need(sym.x_defect == 0.0 and sym.y_defect == 0.0,
             f"symmetry defects {sym.x_defect:.2e}, {sym.y_defect:.2e} are not exactly 0")
        for axis, plateau in (("x", PLATEAU_X), ("y", PLATEAU_Y)):
            got = api.decay_profile(phi, axis).plateau_value
            need(abs(got - plateau) <= PLATEAU_RTOL * abs(plateau),
                 f"decay plateau {axis} {got:.3f} not within 10% of {plateau}")

        vals = api.functionals(phi, 2.0)
        need(abs(vals.l_value - 0.5 * vals.energy_norm**2) <= 1e-10 * vals.l_value,
             f"L = {vals.l_value!r} differs from |phi|^2/2 = {0.5 * vals.energy_norm**2!r}")
        # The exact lump is not a steady state of the torus problem, so its
        # residual (about 0.73) and Fourier tail are reported, not checked.
        steady_residual = api.residual(phi, SymbolParams(alpha=2.0, c=1.0))
        tail = api.fourier_tail(phi)

        K = api.build_kernel(self.grid, 2.0, "K")
        H = api.build_kernel(self.grid, 2.0, "H")
        half_conv = 0.5 * api.convolve(K, RealField(self.grid, phi.values**2)).values
        conv_error = float(np.max(np.abs(phi.values - half_conv)))
        need(conv_error <= CONVOLUTION_MAX * peak,
             f"|phi - K*phi^2/2| = {conv_error:.3e} > {CONVOLUTION_MAX} * peak")
        variations = []
        for kernel, power, axis in ((K, 2, "x"), (K, 2, "y"), (H, 1, "x")):
            variation = api.kernel_decay(kernel, power, axis).plateau_rel_variation
            variations.append(variation)
            need(variation <= KERNEL_VARIATION_MAX,
                 f"kernel r^{power} plateau variation ({axis}) {variation:.3f} > {KERNEL_VARIATION_MAX}")

        rescaled = api.rescale_solution(self.source, 2.0, 2.0, self.target_grid)
        rescale_error = (float(np.max(np.abs(rescaled.values - self.expected.values)))
                         / self.expected.max_abs())
        need(rescale_error <= RESCALE_MAX, f"rescale error {rescale_error:.3e} > {RESCALE_MAX:.0e}")

        for which, p, verdict in PROBES:
            probe = api.integrability_probe(1.0, p, which)
            need(probe.verdict == verdict, f"{which}-probe p={p}: {probe.verdict}, expected {verdict}")
            if verdict == "converging":
                last = probe.truncated_norms[-1]
                agreement = abs(probe.box_norm - last) / last
                need(agreement <= PROBE_AGREEMENT_MAX,
                     f"{which}-probe p={p}: 2D vs separated {agreement:.2e} > {PROBE_AGREEMENT_MAX:.0e}")

        values = {
            "convolution_error": conv_error,
            "kernel_plateau_variation": max(variations),
            "rescale_error": rescale_error,
            "steady_residual": steady_residual,
            "fourier_tail": tail,
        }
        return failures, values


def make_bench(workload: str, seed: int, work_dir: Path):
    if workload == VERIFY:
        return VerifyBench(work_dir)
    return SolveBench(SOLVES[workload], seed, work_dir)


# --- measurement --------------------------------------------------------------


class Calibration:
    """A fixed numpy/scipy kernel, timed before and after every measured interval.

    On a shared host the machine's speed drifts by tens of percent within
    minutes: other tenants load the memory system, and CPU time tracks
    wall time, so it is not preemption.  Scaling each interval by the
    kernel's time around it removes most of that drift.  The kernel does
    not call fkplump, so no change to the program can move it.
    """

    def __init__(self) -> None:
        import numpy as np

        self._x = np.random.default_rng(0).standard_normal((1024, 1024))
        self()  # the first call plans the transforms

    def __call__(self) -> float:
        import numpy as np
        from scipy import fft

        start = time.perf_counter()
        for _ in range(8):
            z = fft.fft2(self._x * self._x)
            z /= 1.0 + np.abs(z)
            fft.ifft2(z)
        return time.perf_counter() - start


def calibrated(seconds: float, calibration: float) -> float:
    return seconds * CALIBRATION_SECONDS / calibration


@dataclass
class Sample:
    seconds: float
    failures: list[str]
    values: dict[str, float]
    traced: bool
    spans: list = field(default_factory=list)
    calibration: float = CALIBRATION_SECONDS  # mean kernel time before and after

    @property
    def calibrated(self) -> float:
        return calibrated(self.seconds, self.calibration)


def run_op(bench, api, tracer=None) -> Sample:
    """One operation; an exception or a failed check makes it a failed one."""
    op = bench.op
    if tracer is not None:
        import fkplump

        tracer.clear()
        tracer.install(fkplump)
        op = tracer.wrap("bench.op", op)
    start = time.perf_counter()
    try:
        seconds, failures, values = op(api)
    except Exception as exc:  # the benchmark must count it and go on
        seconds, failures, values = time.perf_counter() - start, [f"raised {exc!r}"], {}
    finally:
        if tracer is not None:
            tracer.uninstall()
    spans = list(tracer.spans) if tracer is not None else []
    return Sample(seconds, failures, values, tracer is not None, spans)


def measure(bench, seconds: float, calibration: Calibration | None, tracer=None) -> list[Sample]:
    """Repeat the operation while the next one is expected to end in time.

    With a tracer, operations alternate traced / untraced, starting traced,
    and at least one of each runs.  Without a calibration, calibrated
    seconds equal wall seconds.
    """
    plain = entry_points()
    traced_api = entry_points(tracer) if tracer is not None else None
    samples: list[Sample] = []
    start = time.perf_counter()
    before = calibration() if calibration is not None else None
    while True:
        traced = tracer is not None and len(samples) % 2 == 0
        sample = run_op(bench, traced_api if traced else plain, tracer if traced else None)
        if calibration is not None:
            after = calibration()
            sample.calibration = 0.5 * (before + after)
            before = after
        samples.append(sample)
        elapsed = time.perf_counter() - start
        enough = len(samples) >= (2 if tracer is not None else 1)
        if enough and elapsed * (len(samples) + 1) / len(samples) > seconds:
            return samples


def time_setups(workload: str, seed: int, repeats: int, calibration: Calibration) -> list[float]:
    """Calibrated seconds of fresh processes that import, build the inputs and warm up."""
    env = {**os.environ, **THREAD_ENV}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    before = calibration()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
        wall = time.perf_counter() - start
        after = calibration()
        times.append(calibrated(wall, 0.5 * (before + after)))
        before = after
    return times


def environment(seed: int) -> dict[str, object]:
    import numpy
    import scipy

    def cache_size(index: int) -> str:
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        return path.read_text().strip() if path.is_file() else "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **{k: os.environ.get(k) for k in THREAD_ENV},
        "l2_per_core": cache_size(2),
        "l3": cache_size(3),
        "machine": platform.machine(),
        "seed": seed,
    }


# --- metrics ------------------------------------------------------------------


def end_to_end(samples: list[Sample], setups: list[float]) -> dict[str, float]:
    return {
        "time_to_result_s": statistics.median(s.calibrated for s in samples),
        "peak_rss_mib": peak_rss_bytes() / 2**20,
        "setup_s": statistics.median(setups),
    }


def layer_metrics(sample: Sample, bench) -> dict[str, float]:
    """Per-layer numbers of one traced operation, from its spans."""
    from tracing import descendants, function_stats, outermost_of_layer, self_seconds

    spans = sample.spans
    own = self_seconds(spans)
    stats = function_stats(spans)

    def ms(name: str) -> float:
        return stats.get(name, {}).get("total_ms", 0.0)

    def layer_ms(layer: str) -> float:
        return sum(1e3 * spans[i].seconds for i in outermost_of_layer(spans, layer))

    metrics: dict[str, float] = {}
    for name, entry in stats.items():
        if not name.startswith("bench."):
            for key, value in entry.items():
                metrics[f"{name}.{key}"] = value

    symbol_spans = outermost_of_layer(spans, "symbols")
    fieldio_calls = sum(1 for s in spans if s.layer == "fieldio")
    metrics.update({
        "cli.self_ms": 1e3 * sum(o for s, o in zip(spans, own) if s.layer == "cli"),
        "symbols.build_ms": layer_ms("symbols"),
        "symbols.build_calls": len(symbol_spans),
        "reference.seed_ms": ms("reference.gaussian_seed") + ms("reference.exact_kp1_lump"),
        "reference.rescale_ms": ms("reference.rescale_solution"),
        "fieldio.write_ms": ms("fieldio.save_field"),
        "fieldio.read_ms": ms("fieldio.load_field"),
        "fieldio.mb": fieldio_calls * bench.field_bytes / 1e6,
        "diagnostics.residual_ms": ms("diagnostics.residual"),
        "diagnostics.functionals_ms": ms("diagnostics.functionals"),
        "analysis.ms": layer_ms("analysis"),
        "kernels.build_ms": ms("kernels.build_kernel"),
        "kernels.convolve_ms": ms("kernels.convolve"),
        "kernels.probe_ms": ms("kernels.integrability_probe"),
    })

    solves = [i for i, s in enumerate(spans) if s.name == "solver.solve"]
    if solves:
        root = solves[0]
        iterations = sample.values.get("iterations", 0)
        per_iter = 1.0 / iterations if iterations else 0.0
        transforms = [spans[i] for i in descendants(spans, root)
                      if spans[i].name in ("grid.fft2", "grid.ifft2")]
        metrics.update({
            "solver.iterations": iterations,
            "solver.ms_per_iter": 1e3 * spans[root].seconds * per_iter,
            "solver.self_ms_per_iter": 1e3 * own[root] * per_iter,
            "grid.transform_calls_per_iter": len(transforms) * per_iter,
            "grid.transform_ms_per_iter": 1e3 * sum(s.seconds for s in transforms) * per_iter,
            "grid.transform_mb_per_iter": sum(s.nbytes for s in transforms) / 1e6 * per_iter,
        })
    return metrics


def traced_metrics(samples: list[Sample], bench) -> dict[str, float]:
    traced = [s for s in samples if s.traced]
    plain = [s for s in samples if not s.traced]
    per_op = [layer_metrics(s, bench) for s in traced]
    names = sorted(set().union(*per_op))
    metrics = {n: statistics.median(m.get(n, 0.0) for m in per_op) for n in names}
    metrics["trace.overhead_s"] = (statistics.median(s.calibrated for s in traced)
                                   - statistics.median(s.calibrated for s in plain))
    if isinstance(bench, SolveBench):
        metrics["solver.bytes_per_node"] = samples[0].values.get("rss_growth_bytes", 0) / bench.nodes
    return metrics


def declared_metrics(kind: str) -> list[dict[str, str]]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


# --- entry point --------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and exit (used to time set-up)")
    return parser.parse_args(argv)


def import_package() -> None:
    """Import fkplump from this checkout's src/ and nowhere else."""
    if not (SRC / "fkplump" / "__init__.py").is_file():
        raise SystemExit(f"error: no fkplump sources under {SRC}")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import fkplump

    if Path(fkplump.__file__).resolve().parent != SRC / "fkplump":
        raise SystemExit(f"error: fkplump imported from {fkplump.__file__}, not {SRC}")


def report(workload: str, samples: list[Sample], metrics: dict[str, float], units: dict) -> None:
    """Human-readable lines: every metric by name and unit."""
    failed = sum(1 for s in samples if s.failures)
    print(f"workload {workload}: {len(samples)} operations, {failed} failed")
    for s in samples:
        for failure in s.failures:
            print(f"  FAILED: {failure}")
    if "time_to_result_s" in metrics:
        name = "verify_s" if workload == VERIFY else "solve_s"
        for kind, times in (("wall", sorted(s.seconds for s in samples)),
                            ("calibrated", sorted(s.calibrated for s in samples))):
            print(f"  {name + ' ' + kind:28s} median {statistics.median(times):.4f} s, max "
                  f"{times[-1]:.4f} s over n={len(times)} (too few for a percentile)")
        kernel = statistics.median(s.calibration for s in samples)
        print(f"  {'calibration kernel':28s} median {kernel:.4f} s (reference {CALIBRATION_SECONDS} s)")
        oracle = [s.values["rel_error_vs_exact"] for s in samples if "rel_error_vs_exact" in s.values]
        if oracle:
            print(f"  {'rel_error_vs_exact':28s} {statistics.median(oracle):.6e} (ratio)")
        print(f"  {'failed_share':28s} {failed / len(samples):.4f} (ratio)")
    for name in sorted(metrics):
        print(f"  {name:28s} {metrics[name]:.6g} {units.get(name, '')}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, str(HERE))
    from tracing import Tracer

    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            make_bench(args.workload, args.seed, work_dir)
            return 0
        kind = "per_layer" if args.trace else "end_to_end"
        declared = declared_metrics(kind)
        if args.trace:
            # Uncalibrated: the kernel's freed buffers would stay in the heap
            # and hide part of the first solve's RSS growth (bytes_per_node).
            bench = make_bench(args.workload, args.seed, work_dir)
            samples = measure(bench, args.seconds, None, Tracer())
            metrics, setups = traced_metrics(samples, bench), []
        else:
            calibration = Calibration()
            setups = time_setups(args.workload, args.seed, SETUP_REPEATS, calibration)
            bench = make_bench(args.workload, args.seed, work_dir)
            samples = measure(bench, args.seconds, calibration)
            metrics = end_to_end(samples, setups)
        env = environment(args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    print("env " + json.dumps(env, sort_keys=True))
    report(args.workload, samples, metrics, units)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({
        "env": env,
        "setup_seconds": setups,
        "samples": [{"seconds": s.seconds, "calibration": s.calibration, "traced": s.traced,
                     "failures": s.failures, "values": s.values} for s in samples],
        "metrics": metrics,
        "spans": [[[sp.name, sp.start, sp.end, sp.parent, sp.failed, sp.nbytes] for sp in s.spans]
                  for s in samples if s.traced],
    }, indent=1, sort_keys=True) + "\n")

    failed = sum(1 for s in samples if s.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
