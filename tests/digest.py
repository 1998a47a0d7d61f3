"""Print one SHA-1 per solve, to check that a change keeps solves bit-identical.

Run from the root of a checkout, on its own source:

    PYTHONPATH=src python tests/digest.py > digest.txt

and diff the output of two checkouts (see README, "Bit-identity digest").
Each line is a case name and the SHA-1 of everything the solve returned:
every IterationRecord as packed float64s, the status, the reason, the
mixed-step count, the transform and the field's bytes.  The cases are
alpha 2, 1.5 and 3 on 128^2, L = 32, and alpha 1.7, c = 1.3 on 64^2,
L = 16, each at depths 0 to 3 on both layouts; a blow-up at nu = 5 and an
unusable M^nu (amplitude -3, nu = 1.5), both on 128^2; and the constant
state of a flat seed.  The last lines hash the files that `fkplump solve`
writes for a converged and a flat-seed run, the manifest without its
timings.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

import fkplump.solver
from fkplump import SeedSpec, SolverConfig, SpectralGrid, SymbolParams, solve
from fkplump.cli import main


def square(n: int, half_width: float) -> SpectralGrid:
    return SpectralGrid(nx=n, ny=n, lx=half_width, ly=half_width)


def cases():
    """(name, config, layout) of every digested solve; layout "auto" lets the seed choose."""
    grid128 = square(128, 32.0)
    for name, params, grid in (
        ("alpha2-128", SymbolParams(alpha=2.0), grid128),
        ("alpha1.5-128", SymbolParams(alpha=1.5), grid128),
        ("alpha3-128", SymbolParams(alpha=3.0), grid128),
        ("alpha1.7-c1.3-64", SymbolParams(alpha=1.7, c=1.3), square(64, 16.0)),
    ):
        for depth in range(4):
            for layout in ("auto", "rfft2"):
                config = SolverConfig(params=params, grid=grid, accel_depth=depth)
                yield f"{name}-depth{depth}-{layout}", config, layout
    alpha2 = SymbolParams(alpha=2.0)
    yield "nu5-128", SolverConfig(params=alpha2, grid=grid128, nu=5.0, max_iter=60), "auto"
    seed = SeedSpec(kind="gaussian", amplitude=-3.0)
    yield "amplitude-3-nu1.5-128", SolverConfig(params=alpha2, grid=grid128, nu=1.5, seed=seed), "auto"
    flat = SeedSpec(kind="gaussian", width=1e6)
    yield "flat-seed-16", SolverConfig(params=SymbolParams(alpha=2.0, c=1.5), grid=square(16, 8.0),
                                       seed=flat), "auto"


def solve_digest(config: SolverConfig, layout: str) -> str:
    even_even = fkplump.solver._is_even_even
    if layout == "rfft2":
        fkplump.solver._is_even_even = lambda seed: False
    try:
        field, report = solve(config)
    finally:
        fkplump.solver._is_even_even = even_even
    h = hashlib.sha1()
    for r in report.records:
        h.update(struct.pack("<q4d", r.iteration, r.iter_error, r.m_factor, r.factor_error, r.residual))
    for text in (report.status.value, report.reason, str(report.mixed_steps), report.transform):
        h.update(text.encode() + b"\0")
    h.update(field.values.tobytes())
    return h.hexdigest()


def cli_digests(name: str, argv: list[str]) -> list[str]:
    """SHA-1 lines of the exit code and the files of one `fkplump solve` run."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # a relative --out keeps the manifest's paths the same in every checkout
        os.chdir(tmp)
        out = Path("out")
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(["solve", *argv, "--out", str(out)])
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["timings"]
            blobs = {
                "stdout": f"exit {code}\n{stdout.getvalue()}".encode(),
                "field.fkpl": (out / "field.fkpl").read_bytes(),
                "iterations.csv": (out / "iterations.csv").read_bytes(),
                "manifest.json": json.dumps(manifest, sort_keys=True).encode(),
            }
        finally:
            os.chdir(home)
    return [f"cli-{name}-{key} {hashlib.sha1(blob).hexdigest()}" for key, blob in blobs.items()]


def main_digest() -> None:
    for name, config, layout in cases():
        print(f"{name} {solve_digest(config, layout)}", flush=True)
    for name, argv in (
        ("alpha2-128", ["--alpha", "2", "--n", "128", "--l", "32"]),
        ("flat-seed-16", ["--alpha", "2", "--c", "1.5", "--n", "16", "--l", "8", "--seed-width", "1e6"]),
    ):
        for line in cli_digests(name, argv):
            print(line, flush=True)


if __name__ == "__main__":
    sys.exit(main_digest())
