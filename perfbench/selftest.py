"""Self-tests of the benchmark's span tracer and correctness checks.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  * on a small solve, the tracer finds the grid transforms under
    solver.solve, skips private names, restores the package afterwards,
    and that the spans' self times add up to the root span;
  * wrong results count as failed operations instead of passing: the exact
    lump scaled by 1.01 in verify-structure, a solve capped below
    convergence by --max-iter, and an operation that raises.

Exits 0 when every check holds, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def small_solve(work_dir: Path) -> run.SolveBench:
    """alpha = 2 at 2^7 nodes: converges in well under a second."""
    return run.SolveBench(run.SolveSpec(alpha=2.0, n=128, l=32.0, oracle=False), 1, work_dir)


def test_tracer(work_dir: Path) -> None:
    import fkplump
    import fkplump.grid
    import fkplump.solver
    import fkplump.symbols
    from tracing import Tracer, descendants, self_seconds

    tracer = Tracer()
    patched = tracer.install(fkplump)
    tracer.uninstall()
    expect("fkplump.solver.fft2" in patched and "fkplump.cli.solve" in patched,
           "install wraps cross-module imports (fkplump.solver.fft2, fkplump.cli.solve)")
    expect(fkplump.symbols._frozen_array is fkplump.grid._frozen_array
           and not any(p.rsplit(".", 1)[1].startswith("_") for p in patched),
           "install skips private names such as fkplump.symbols._frozen_array")

    sample = run.run_op(small_solve(work_dir), run.entry_points(tracer), tracer)
    expect(not sample.failures, f"small solve passes its checks {sample.failures}")
    expect(fkplump.solver.fft2 is fkplump.grid.fft2, "uninstall restores the package")

    spans = sample.spans
    solves = [i for i, s in enumerate(spans) if s.name == "solver.solve"]
    expect(len(solves) == 1, "one solver.solve span per operation")
    inside = {spans[i].name for i in descendants(spans, solves[0])} if solves else set()
    expect({"grid.fft2", "grid.ifft2"} <= inside, "grid transforms are found under solver.solve")
    expect(all(not part.startswith("_") for s in spans for part in s.name.split(".")),
           "no span has a private name")
    own = self_seconds(spans)
    expect(min(own) >= 0.0 and all(spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end
                                   for s in spans if s.parent is not None),
           "children lie inside their parent, so no self time is negative")
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    total_self = sum(own)
    root_seconds = sum(spans[i].seconds for i in roots)
    expect(len(roots) == 1 and abs(total_self - root_seconds) <= 1e-9 * max(1.0, root_seconds),
           f"self times sum to the root span ({total_self:.9f} s vs {root_seconds:.9f} s)")


def test_wrong_results(work_dir: Path) -> None:
    from fkplump.grid import RealField

    bench = run.VerifyBench(work_dir)
    bench.lump = RealField(bench.lump.grid, 1.01 * bench.lump.values)
    bench.source = RealField(bench.source.grid, 1.01 * bench.source.values)
    calibration = run.Calibration()
    samples = run.measure(bench, 0.0, calibration)
    failures = samples[0].failures
    expect(len(samples) == 1 and bool(failures),
           f"verify-structure on the lump scaled by 1.01 fails: {failures}")

    capped = small_solve(work_dir)
    capped.argv += ["--max-iter", "5"]
    failures = run.measure(capped, 0.0, calibration)[0].failures
    expect(any("exit code 2" in f for f in failures) and any("residual" in f for f in failures),
           f"a solve capped by --max-iter 5 fails: {failures}")

    class Raises:
        def op(self, api):
            raise RuntimeError("boom")

    failures = run.measure(Raises(), 0.0, calibration)[0].failures
    expect(failures == ["raised RuntimeError('boom')"], "an operation that raises is a failed one")


def main() -> int:
    run.import_package()
    run.OUT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        test_tracer(work_dir)
        test_wrong_results(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
