"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import os
import struct
from dataclasses import fields
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fkplump
from fkplump.cli import (
    _SOLVE_OPTIONS,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_MAX_ITER,
    EXIT_OK,
    _parse_bool,
    _read_config_file,
    _resolve_options,
    _solver_config,
    build_parser,
    main,
)
from fkplump.fieldio import load_field, save_field
from fkplump import cli, kernels
from fkplump.grid import RealField, SpectralGrid
from fkplump.reference import ExactLumpParams, exact_kp1_lump
from fkplump.solver import ACCEL_DEPTHS, SeedSpec, SolverConfig
from fkplump.symbols import SymbolParams, mean_mode_denominator
from oracles import abs_max_relative_error, count_symbol_calls, meshes

FAST_SOLVE = ["solve", "--alpha", "2", "--c", "1", "--n", "128", "--l", "32"]


def run(args):
    return main([str(a) for a in args])


class TestSolve:
    def test_converged_run_produces_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert run(FAST_SOLVE + ["--out", out]) == EXIT_OK
        assert (out / "field.fkpl").exists()
        assert (out / "iterations.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 2.0
        assert manifest["software_version"]
        assert set(manifest["timings"]) == {"solve", "write"}
        # the gaussian seed is even-even, so the run takes the DCT-I quarter
        assert manifest["environment"]["transform"] == "dct1"
        assert manifest["environment"]["numpy"] == np.__version__
        assert manifest["environment"]["scipy"] == scipy.__version__
        for entry in manifest["outputs"]:
            assert Path(entry["path"]).exists()
            assert entry["role"] in ("field", "iteration-log")

    def test_field_file_is_loadable(self, tmp_path):
        out = tmp_path / "run"
        run(FAST_SOLVE + ["--out", out])
        loaded = load_field(out / "field.fkpl")
        assert loaded.alpha == 2.0
        assert loaded.field.grid.nx == 128
        assert np.max(loaded.field.values) == pytest.approx(8.0, rel=0.05)

    def test_iteration_log_columns(self, tmp_path):
        out = tmp_path / "run"
        run(FAST_SOLVE + ["--out", out])
        lines = (out / "iterations.csv").read_text().splitlines()
        assert lines[0] == "iter,iter_error,m_factor,factor_error,residual"
        assert len(lines) >= 2
        first = lines[1].split(",")
        assert int(first[0]) == 1
        float(first[1])  # parses

    def test_deterministic_logs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(FAST_SOLVE + ["--out", out1])
        run(FAST_SOLVE + ["--out", out2])
        assert (out1 / "iterations.csv").read_bytes() == (out2 / "iterations.csv").read_bytes()
        assert (out1 / "field.fkpl").read_bytes() == (out2 / "field.fkpl").read_bytes()

    def test_supercritical_alpha_rejected(self, tmp_path, capsys):
        code = run(["solve", "--alpha", "0.7", "--n", "64", "--l", "16", "--out", tmp_path])
        assert code == EXIT_CONFIG
        assert "alpha" in capsys.readouterr().err

    def test_sigma_is_not_an_option(self, tmp_path, capsys):
        # fKP-I only: neither the flag nor the config key exists, even for -1
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 2\nsigma = -1\n")
        for argv in (FAST_SOLVE + ["--sigma", "-1"], ["solve", "--config", config]):
            assert run(argv + ["--out", tmp_path / "run"]) == EXIT_CONFIG
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and "sigma" in err[0]
        assert not (tmp_path / "run").exists()

    def test_max_iter_exit_code(self, tmp_path):
        code = run(FAST_SOLVE + ["--max-iter", "3", "--out", tmp_path])
        assert code == 2

    def test_divergence_exit_code(self, tmp_path, capsys):
        # the third iterate passes the blow-up guard: a failed step, whose
        # row is inf, and the field written is the second iterate
        out = tmp_path / "run"
        code = run(FAST_SOLVE + ["--nu", "5", "--max-iter", "50", "--out", out])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err == ""
        reason = json.loads((out / "manifest.json").read_text())["run"]["reason"]
        assert reason == "sup|phi| = 1.740e+35 exceeds the blow-up guard 1e+06 c"
        _, *rows = (out / "iterations.csv").read_text().splitlines()
        assert len(rows) == 3
        iteration, iter_error, _, _, residual = rows[-1].split(",")
        assert (iteration, iter_error, residual) == ("3", "inf", "inf")
        assert load_field(out / "field.fkpl").field.max_abs() < 1.0

    def test_manifest_records_fft_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FKP_THREADS", "2")
        out = tmp_path / "run"
        assert run(FAST_SOLVE + ["--out", out]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"]["fft_workers"] == 2

    def test_negative_seed_with_fractional_nu_diverges(self, tmp_path, capsys):
        # M < 0 makes M^1.5 complex: a diverged status, not a traceback
        out = tmp_path / "run"
        code = run(FAST_SOLVE + ["--seed-amplitude", "-3", "--nu", "1.5", "--out", out])
        assert code == EXIT_DIVERGED
        assert "status=diverged" in capsys.readouterr().out
        assert len((out / "iterations.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--seed-width", "nan"), ("--seed-width", "inf"),
         ("--seed-amplitude", "nan"), ("--seed-amplitude", "inf")],
    )
    def test_non_finite_seed_parameter_is_named(self, tmp_path, capsys, flag, value):
        # an infinite width is a constant seed, which converges to phi = 2c
        code = run(["solve", "--alpha", "2", "--n", "16", "--l", "8", flag, value,
                    "--out", tmp_path / "run"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        what = flag[2:].replace("-", " ")
        assert len(err) == 1 and err[0].startswith("error:") and what in err[0]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", ["--seed-amplitude", "--seed-width"])
    @pytest.mark.parametrize("kind", ["exact-kp1", "file"])
    def test_gaussian_option_on_another_seed_is_refused(self, tmp_path, capsys, kind, flag):
        # only the gaussian has an amplitude and a width: another seed given
        # one is an error, not a flag that is silently ignored
        grid = SpectralGrid(nx=16, ny=16, lx=8.0, ly=8.0)
        seed = tmp_path / "seed.fkpl"
        save_field(seed, exact_kp1_lump(grid, ExactLumpParams(c=1.0)), 2.0, 1.0)
        spelled = f"file:{seed}" if kind == "file" else kind
        code = run(["solve", "--alpha", "2", "--n", "16", "--l", "8", "--seed", spelled,
                    flag, "5", "--out", tmp_path / "run"])
        assert code == EXIT_CONFIG
        what = flag[2:].replace("-", " ")
        assert capsys.readouterr().err.splitlines() == [
            f"error: {what} applies only to the gaussian seed, not {kind!r}"
        ]
        assert not (tmp_path / "run").exists()

    def test_gaussian_config_key_on_another_seed_is_refused(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 2\nn = 16\nl = 8\nseed = exact-kp1\nseed-width = 7\n")
        code = run(["solve", "--config", config, "--out", tmp_path / "run"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "error: seed width applies only to the gaussian seed, not 'exact-kp1'"
        ]
        assert not (tmp_path / "run").exists()

    def test_missing_seed_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.fkpl"
        code = run(FAST_SOLVE + ["--seed", f"file:{missing}", "--out", tmp_path])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("sigma", [1.0, -1.5, 0.5, np.nan])
    def test_seed_file_of_other_sigma(self, tmp_path, capsys, sigma):
        grid = SpectralGrid(nx=16, ny=16, lx=8.0, ly=8.0)
        X, Y = meshes(grid)
        seed = tmp_path / "seed.fkpl"
        save_field(seed, RealField(grid, 3.0 * np.exp(-(X**2) - Y**2)), 2.0, 1.0)
        raw = seed.read_bytes()
        seed.write_bytes(raw[:48] + struct.pack("<d", sigma) + raw[56:])
        code = run(["solve", "--alpha", "2", "--n", "16", "--l", "8",
                    "--seed", f"file:{seed}", "--out", tmp_path / "run"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "byte 48" in err[0]
        assert not (tmp_path / "run").exists()

    def assert_collapsed(self, capsys, out, parity, iterations):
        """A collapse is a diverged status with every output written, nothing on stderr."""
        captured = capsys.readouterr()
        assert "status=diverged" in captured.out and captured.err == ""
        reason = json.loads((out / "manifest.json").read_text())["run"]["reason"]
        assert reason.startswith("cubic pairing vanished")
        assert ("odd parity" in reason) == parity
        _, *rows = (out / "iterations.csv").read_text().splitlines()
        assert [int(row.split(",")[0]) for row in rows] == list(range(1, iterations + 1))
        assert rows[-1].split(",")[2] == "nan"  # m_factor of the collapsed step
        load_field(out / "field.fkpl")  # the last accepted iterate, readable

    def test_odd_seed_ends_diverged(self, tmp_path, capsys):
        # x exp(-x^2 - y^2) has a vanishing cubic pairing: the stabilizing
        # factor is undefined at the first step, which ends the run
        grid = SpectralGrid(nx=64, ny=64, lx=16.0, ly=16.0)
        X, Y = meshes(grid)
        seed = tmp_path / "odd.fkpl"
        save_field(seed, RealField(grid, X * np.exp(-(X**2) - Y**2)), 2.0, 1.0)
        out = tmp_path / "run"
        code = run(["solve", "--alpha", "2", "--n", "64", "--l", "16",
                    "--seed", f"file:{seed}", "--out", out])
        assert code == EXIT_DIVERGED
        self.assert_collapsed(capsys, out, parity=True, iterations=1)

    @pytest.mark.parametrize(
        "option, iterations",
        [(["--nu", "0"], 10), (["--nu", "-1"], 6), (["--c", "1e-300"], 1)],
        ids=["0", "-1", "c-1e-300"],
    )
    def test_quarter_collapse_does_not_blame_parity(self, tmp_path, capsys, option, iterations):
        # the unstabilized map collapses the even seed, and a seed of
        # amplitude 3e-300 has a square that underflows; parity is no cause
        out = tmp_path / "run"
        code = run(["solve", "--alpha", "2", "--n", "16", "--l", "8", *option, "--out", out])
        assert code == EXIT_DIVERGED
        self.assert_collapsed(capsys, out, parity=False, iterations=iterations)

    def test_non_even_seed_runs_on_the_half_lattice(self, tmp_path):
        # a gaussian off x = 0 is not even in x: the run keeps the rfft2 layout
        grid = SpectralGrid(nx=64, ny=64, lx=16.0, ly=16.0)
        X, Y = meshes(grid)
        seed = tmp_path / "shifted.fkpl"
        save_field(seed, RealField(grid, 3.0 * np.exp(-((X - 0.5) ** 2 + Y**2) / 4.0)), 2.0, 1.0)
        out = tmp_path / "run"
        code = run(["solve", "--alpha", "2", "--n", "64", "--l", "16",
                    "--seed", f"file:{seed}", "--out", out])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"]["transform"] == "rfft2"

    def test_constant_state_is_not_a_lump(self, tmp_path, capsys):
        # a very wide gaussian is nearly constant, and the map takes it to
        # the constant steady state phi = D(0,0) in two iterations
        out = tmp_path / "run"
        code = run(["solve", "--alpha", "2", "--n", "16", "--l", "8",
                    "--seed-width", "1e6", "--out", out])
        assert code == EXIT_DIVERGED
        assert "status=diverged" in capsys.readouterr().out
        record = json.loads((out / "manifest.json").read_text())["run"]
        assert record["status"] == "diverged"
        assert f"constant state phi = D(0,0) = {mean_mode_denominator(1.0):g} " in record["reason"]

    def test_lump_at_loose_tol_is_not_the_constant_state(self, tmp_path, capsys):
        # every monitor passes tol 1e300 at once; the field peaks near 12.5,
        # far from phi = D(0,0), so the run is converged, not a constant state
        code = run(["solve", "--alpha", "2", "--n", "16", "--l", "8", "--tol", "1e300",
                    "--out", tmp_path / "run"])
        assert code == EXIT_OK
        assert "status=converged" in capsys.readouterr().out

    def test_overflowing_half_width_is_named(self, tmp_path, capsys):
        # 2 * 1e308 overflows the node spacing
        code = run(["solve", "--alpha", "2", "--n", "16", "--l", "1e308",
                    "--out", tmp_path / "run"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: lx must be positive and 2*lx finite, got 1e+308"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "options, named",
        [
            ({"--seed": "exact-kp1", "--c": "1e200"}, "c must"),  # c**2 overflowed
            ({"--l": "1e300"}, "lx must"),  # x^2 overflowed in the seed
            ({"--l": "1e-300"}, "lx must"),  # xi1^2 and |xi1|^alpha overflowed
            ({"--alpha": "1e300"}, "alpha = 1e+300"),  # |xi1|^alpha overflowed
            ({"--seed-width": "1e-300"}, "seed width must"),  # 0/0 in the seed
            # xi1^2 (c + |xi1|^alpha) overflowed in the residual symbol
            ({"--l": "1e-100"}, "half-width lx = 1e-100 is too small for alpha = 2.0"),
            # phi^2, the spectra or the pairings of M overflowed in the first step
            ({"--c": "1e300"}, "c = 1e+300 and seed peak 2.48e+300 are too large"),
            ({"--seed-amplitude": "1e300"}, "seed amplitude 1e+300 are too large"),
            ({"--seed-amplitude": "1e150"}, "seed amplitude 1e+150 are too large"),
        ],
        ids=["exact-c", "large-l", "small-l", "alpha", "seed-width", "residual-symbol",
             "first-step-c", "first-step-amplitude", "first-step-pairing"],
    )
    def test_extreme_parameter_is_named(self, tmp_path, capsys, options, named):
        flags = {"--alpha": "2", "--n": "16", "--l": "8", **options, "--out": tmp_path / "run"}
        code = run(["solve", *[item for flag in flags.items() for item in flag]])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
        assert not (tmp_path / "run" / "field.fkpl").exists()

    def test_infinite_squared_width_is_a_flat_seed(self, tmp_path, capsys):
        # width**2 overflows; the seed is flat and reaches the constant state
        out = tmp_path / "run"
        code = run(["solve", "--alpha", "2", "--n", "16", "--l", "8",
                    "--seed-width", "1e200", "--out", out])
        assert code == EXIT_DIVERGED
        assert "status=diverged" in capsys.readouterr().out
        assert "constant state" in json.loads((out / "manifest.json").read_text())["run"]["reason"]

    def test_missing_alpha(self, tmp_path, capsys):
        code = run(["solve", "--n", "64", "--l", "16", "--out", tmp_path])
        assert code == EXIT_CONFIG
        assert "alpha" in capsys.readouterr().err

    def test_exact_seed_starts_near_solution(self, tmp_path):
        out = tmp_path / "run"
        code = run(FAST_SOLVE + ["--seed", "exact-kp1", "--out", out])
        assert code == EXIT_OK
        lines = (out / "iterations.csv").read_text().splitlines()
        first_step = float(lines[1].split(",")[1])
        assert first_step < 0.1  # a gaussian seed starts thousands away

    def test_file_seed(self, tmp_path):
        first = tmp_path / "first"
        run(FAST_SOLVE + ["--out", first])
        out = tmp_path / "second"
        code = run(FAST_SOLVE + ["--seed", f"file:{first / 'field.fkpl'}", "--out", out])
        assert code == EXIT_OK
        lines = (out / "iterations.csv").read_text().splitlines()
        assert len(lines) - 1 == 1

    def test_manifest_run_object(self, tmp_path):
        out = tmp_path / "run"
        assert run(FAST_SOLVE + ["--out", out]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        record = manifest["run"]
        rows = (out / "iterations.csv").read_text().splitlines()[1:]
        assert record["status"] == "converged"
        assert record["reason"].startswith("all three monitors")
        assert record["iterations"] == len(rows)
        assert record["accel_depth"] == manifest["config"]["accel-depth"] == 3
        assert 0 < record["mixed_steps"] < record["iterations"]
        # the first iteration at which each monitor met tol, read from the log
        columns = {"iter_error": 1, "factor_error": 3, "residual": 4}
        first = {name: next(int(row.split(",")[0]) for row in rows
                            if float(row.split(",")[column]) <= 1e-5)
                 for name, column in columns.items()}
        assert record["first_within_tol"] == first
        assert first["residual"] == record["iterations"]
        assert max(first["iter_error"], first["factor_error"]) <= record["iterations"]

    def test_manifest_records_the_resolved_seed(self, tmp_path):
        # config keeps the options as given (null), run.seed the values solved from
        out = tmp_path / "run"
        argv = ["solve", "--alpha", "2", "--c", "1.7", "--n", "64", "--l", "32", "--max-iter", "1"]
        assert run(argv + ["--out", out]) == EXIT_MAX_ITER
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["run"]["seed"] == {"kind": "gaussian", "amplitude": 3.0 * 1.7, "width": 2.0}
        assert manifest["config"]["seed-amplitude"] is None
        assert manifest["config"]["seed-width"] is None
        out = tmp_path / "exact"
        assert run(argv + ["--seed", "exact-kp1", "--out", out]) == EXIT_MAX_ITER
        seed = json.loads((out / "manifest.json").read_text())["run"]["seed"]
        assert seed == {"kind": "exact-kp1", "amplitude": None, "width": None}

    def test_accel_depth_zero_is_plain_map(self, tmp_path):
        out = tmp_path / "run"
        assert run(FAST_SOLVE + ["--accel-depth", "0", "--out", out]) == EXIT_OK
        record = json.loads((out / "manifest.json").read_text())["run"]
        assert record["accel_depth"] == 0
        assert record["mixed_steps"] == 0
        assert record["iterations"] == 57

    @pytest.mark.parametrize("depth", ["-1", "4", "6"])
    def test_bad_accel_depth_rejected(self, tmp_path, capsys, depth):
        code = run(FAST_SOLVE + ["--accel-depth", depth, "--out", tmp_path])
        assert code == EXIT_CONFIG
        assert "accel_depth" in capsys.readouterr().err

    def test_out_of_memory_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        def allocation_fails(config):
            raise MemoryError("Unable to allocate 16.0 GiB")

        monkeypatch.setattr("fkplump.cli.solve", allocation_fails)
        assert run(FAST_SOLVE + ["--out", tmp_path]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "16.0 GiB" in err[0]

    @pytest.mark.parametrize(
        "argv",
        [
            FAST_SOLVE + ["--n", "abc"],
            FAST_SOLVE + ["--lambda", "1e-15"],
            FAST_SOLVE + ["--bogus", "1"],
            ["kernel-probe", "--alpha", "1", "--p", "2", "--which", "x"],
        ],
    )
    def test_usage_errors_exit_config(self, tmp_path, capsys, argv):
        # argparse's own exit status 2 would read as max-iter
        assert run(argv + ["--out", tmp_path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel-probe", "--alpha", "nan", "--p", "2"],
        ["convergence-study", "--alpha", "0.5", "--l", "8,16", "--n", "16"],
        ["solve", "--alpha", "2", "--n", "16", "--l", "8", "--seed", "file:{missing}"],
        ["analyze", "{field}", "--tasks", "bogus"],
    ],
    ids=["kernel-probe", "convergence-study", "solve", "analyze"],
)
def test_config_error_makes_no_out_directory(tmp_path, capsys, argv):
    field = tmp_path / "field.fkpl"
    save_field(field, RealField(SpectralGrid(nx=16, ny=16, lx=8.0, ly=8.0), np.ones((16, 16))),
               2.0, 1.0)
    names = {"missing": tmp_path / "missing.fkpl", "field": field}
    out = tmp_path / "out"
    assert run([a.format(**names) for a in argv] + ["--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_import_leaves_out_scipy_linalg():
    # scipy.linalg adds about 6 MiB of resident memory to every run
    code = "import sys, fkplump.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_python_m_runs_the_cli():
    # the package runs as a module, as the installed fkplump script does
    src = str(Path(fkplump.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-m", "fkplump", "--version"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stdout.strip() == f"fkplump {fkplump.__version__}"


def library_default(cls, name):
    """The default a library dataclass gives one of its fields."""
    return next(f.default for f in fields(cls) if f.name == name)


class TestOneOwner:
    """The CLI's solve defaults are the library's: a later change to one shows here."""

    #: Every library-backed solve option: config key -> (class, field).
    LIBRARY_KEYS = {
        "c": (SymbolParams, "c"),
        "nu": (SolverConfig, "nu"),
        "tol": (SolverConfig, "tol"),
        "max-iter": (SolverConfig, "max_iter"),
        "allow-supercritical": (SolverConfig, "allow_supercritical"),
        "accel-depth": (SolverConfig, "accel_depth"),
        "seed": (SeedSpec, "kind"),
        "seed-amplitude": (SeedSpec, "amplitude"),
        "seed-width": (SeedSpec, "width"),
    }

    def test_manifest_records_library_defaults(self, tmp_path):
        out = tmp_path / "run"
        assert run(["solve", "--alpha", "2", "--n", "16", "--l", "8", "--out", out]) == EXIT_OK
        config = json.loads((out / "manifest.json").read_text())["config"]
        for key, (cls, name) in self.LIBRARY_KEYS.items():
            assert config[key] == library_default(cls, name), key

    def test_other_subcommands_share_the_defaults(self):
        parser = build_parser()
        study = parser.parse_args(["convergence-study", "--alpha", "2", "--l", "8"])
        reference = parser.parse_args(["reference"])
        assert study.c == reference.c == library_default(SymbolParams, "c")
        assert study.tol == library_default(SolverConfig, "tol")
        assert (reference.n, reference.l) == (_SOLVE_OPTIONS["n"][1], _SOLVE_OPTIONS["l"][1])

    def test_accel_depth_help_names_the_deepest(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())  # as argparse wraps it
        assert f"Anderson mixing depth, 0 to {ACCEL_DEPTHS[-1]};" in help_text


class TestConfigFile:
    def test_config_file_and_flag_precedence(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# desk-scale run\nalpha = 2\nn = 64\nl = 16\nmax-iter = 150\n"
        )
        out = tmp_path / "out"
        code = run(["solve", "--config", config, "--n", "128", "--l", "32", "--out", out])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n"] == 128  # flag wins
        assert manifest["config"]["max-iter"] == 150  # file value kept

    def test_accel_depth_key(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 2\nn = 128\nl = 32\naccel-depth = 0\n")
        out = tmp_path / "out"
        assert run(["solve", "--config", config, "--out", out]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["accel-depth"] == 0
        assert manifest["run"]["accel_depth"] == 0
        assert manifest["run"]["mixed_steps"] == 0

    def test_table_flags_and_config_keys_agree(self, tmp_path):
        solve_parser = build_parser()._subparsers._group_actions[0].choices["solve"]
        flags = {
            option[2:]
            for action in solve_parser._actions
            for option in action.option_strings
            if option.startswith("--") and option not in ("--config", "--help")
        }
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key} = 1\n" for key in sorted(flags)))
        assert set(_SOLVE_OPTIONS) == flags == set(_read_config_file(str(config)))

    def test_unknown_key_names_offender(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 2\nwobble = 3\n")
        code = run(["solve", "--config", config, "--out", tmp_path])
        assert code == EXIT_CONFIG
        assert "wobble" in capsys.readouterr().err

    def test_lambda_key_is_unknown(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 2\nlambda = 1e-15\n")
        code = run(["solve", "--config", config, "--out", tmp_path])
        assert code == EXIT_CONFIG
        assert "unknown config key 'lambda'" in capsys.readouterr().err

    def test_unparseable_value_names_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("alpha = fast\n")
        code = run(["solve", "--config", config, "--out", tmp_path])
        assert code == EXIT_CONFIG
        assert "alpha" in capsys.readouterr().err

    def test_unknown_boolean_spelling_names_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 2\nallow-supercritical = ture\n")
        code = run(["solve", "--config", config, "--out", tmp_path])
        assert code == EXIT_CONFIG
        assert "allow-supercritical" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, value",
        [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)],
    )
    def test_boolean_spellings(self, raw, value):
        assert _parse_bool(raw) is value

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        key=st.sampled_from(sorted(_SOLVE_OPTIONS)),
        value=st.one_of(
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
            st.floats().map(repr),
            st.integers(-(2**70), 2**70).map(str),
            st.sampled_from(["0", "1", "2", "-1", "8", "16", "yes", "ture", "nan", "-inf",
                             "1e-320", "gaussian", "exact-kp1", "file:", "file:x.fkpl"]),
        ),
    )
    def test_any_known_key_resolves_or_is_a_config_error(self, tmp_path, key, value):
        # main reports every ValueError (ConfigError is one) as one error line, exit 1
        config = tmp_path / "run.cfg"
        config.write_text(f"alpha = 2\n{key} = {value}\n", encoding="utf-8")
        args = build_parser().parse_args(["solve", "--config", str(config)])
        try:
            _solver_config(_resolve_options(args))
        except ValueError:
            pass


class TestAnalyze:
    @pytest.fixture()
    def solved(self, tmp_path):
        out = tmp_path / "run"
        run(FAST_SOLVE + ["--out", out])
        return out / "field.fkpl"

    def test_all_tasks(self, tmp_path, solved):
        out = tmp_path / "analysis"
        assert run(["analyze", solved, "--out", out]) == EXIT_OK
        for name in (
            "cross_section_x.csv",
            "cross_section_y.csv",
            "symmetry.txt",
            "decay_x.csv",
            "decay_y.csv",
            "decay.txt",
            "functionals.txt",
        ):
            assert (out / name).exists(), name
        functionals = dict(
            line.split(" = ") for line in (out / "functionals.txt").read_text().splitlines()
        )
        assert float(functionals["n_value"]) > 0
        assert float(functionals["residual"]) <= 1e-4
        symmetry = dict(
            line.split(" = ") for line in (out / "symmetry.txt").read_text().splitlines()
        )
        assert float(symmetry["x_defect"]) <= 1e-8

    def test_task_subset(self, tmp_path, solved):
        out = tmp_path / "analysis"
        assert run(["analyze", solved, "--tasks", "symmetry", "--out", out]) == EXIT_OK
        assert (out / "symmetry.txt").exists()
        assert not (out / "functionals.txt").exists()

    def test_unknown_task(self, tmp_path, solved, capsys):
        code = run(["analyze", solved, "--tasks", "teleport", "--out", tmp_path])
        assert code == EXIT_CONFIG
        assert "teleport" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing/field.fkpl", "."])
    def test_unreadable_field_path(self, tmp_path, capsys, where):
        # a missing file and a directory are both file errors
        code = run(["analyze", tmp_path / where, "--out", tmp_path / "analysis"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "alpha, sigma",
        [(np.nan, -1.0), (-1.0, -1.0), (2.0, 1.0), (2.0, -1.5), (2.0, 0.5), (2.0, np.nan)],
    )
    def test_rejected_header_writes_nothing(self, tmp_path, capsys, alpha, sigma):
        # save_field refuses these headers, so the file is written as raw bytes
        grid = SpectralGrid(nx=64, ny=64, lx=16.0, ly=16.0)
        X, Y = meshes(grid)
        path = tmp_path / "field.fkpl"
        header = struct.pack("<4sIII5d", b"FKPL", 1, 64, 64, 16.0, 16.0, alpha, 1.0, sigma)
        path.write_bytes(header + np.exp(-(X**2) - Y**2).astype("<f8").tobytes())
        out = tmp_path / "analysis"
        assert run(["analyze", path, "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and ("byte 48" in err) == (sigma != -1.0)
        # a bad sigma fails on load, a bad alpha in the functionals, both
        # before the directory is made
        assert not out.exists()

    def test_corrupt_field_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.fkpl"
        bad.write_bytes(b"WHAT" + bytes(64))
        code = run(["analyze", bad, "--out", tmp_path])
        assert code == EXIT_CONFIG
        assert "byte" in capsys.readouterr().err


class TestKernelProbe:
    def test_probe_rows(self, tmp_path):
        out = tmp_path / "probes"
        code = run(["kernel-probe", "--alpha", "1", "--p", "2,3", "--which", "m", "--out", out])
        assert code == EXIT_OK
        lines = (out / "kernel_probe_m.csv").read_text().splitlines()
        assert lines[0] == "alpha,p,which,verdict,last_increment,radius,norm"
        rows = [line.split(",") for line in lines[1:]]
        verdicts = {float(r[1]): r[3] for r in rows}
        assert verdicts[2.0] == "diverging"
        assert verdicts[3.0] == "converging"

    def test_exponents_share_one_table(self, tmp_path, monkeypatch):
        # the three exponents of one (symbol, alpha) sample the symbol once:
        # one kernel_symbol call per xi1 panel of one quadrature table
        kernels._quadrature_table.cache_clear()
        calls = count_symbol_calls(monkeypatch)
        out = tmp_path / "probes"
        code = run(["kernel-probe", "--alpha", "1", "--p", "2,3,4", "--which", "m", "--out", out])
        assert code == EXIT_OK
        assert len((out / "kernel_probe_m.csv").read_text().splitlines()) == 1 + 3
        assert calls == [(1.0, "m")] * 64
        assert kernels._quadrature_table.cache_info().currsize == 1

    def test_rejects_p_below_one(self, tmp_path, capsys):
        code = run(["kernel-probe", "--alpha", "1", "--p", "0.7", "--out", tmp_path])
        assert code == EXIT_CONFIG

    def test_unparseable_p_list_is_named(self, tmp_path, capsys):
        code = run(["kernel-probe", "--alpha", "1", "--p", "2,x", "--out", tmp_path])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == ["error: cannot parse --p list '2,x'"]
        assert not (tmp_path / "kernel_probe_m.csv").exists()

    @pytest.mark.parametrize(
        "alpha, p", [("1", "nan"), ("nan", "2"), ("inf", "2"), ("1", "1e300")]
    )
    def test_rejects_non_finite_parameters(self, tmp_path, capsys, alpha, p):
        code = run(["kernel-probe", "--alpha", alpha, "--p", p, "--out", tmp_path])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
        assert not (tmp_path / "kernel_probe_m.csv").exists()


class TestReference:
    def test_emits_exact_lump(self, tmp_path):
        code = run(["reference", "--c", "2", "--n", "128", "--l", "32", "--out", tmp_path])
        assert code == EXIT_OK
        loaded = load_field(tmp_path / "exact_lump.fkpl")
        assert loaded.alpha == 2.0
        assert np.max(loaded.field.values) == pytest.approx(16.0, rel=1e-12)

    def test_overflowing_speed_is_named(self, tmp_path, capsys):
        # c**2 of the lump overflows
        code = run(["reference", "--c", "1e300", "--n", "16", "--l", "8", "--out", tmp_path])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: c must be positive with c*c finite, got 1e+300"]
        assert not (tmp_path / "exact_lump.fkpl").exists()

    def test_speed_too_large_for_the_grid_is_named(self, tmp_path, capsys):
        # c*c is finite, but (c^2/3) y^2 overflows at the grid's edge
        code = run(["reference", "--c", "1e150", "--n", "16", "--l", "8", "--out", tmp_path])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: c = 1e+150 is too large for the grid")
        assert not (tmp_path / "exact_lump.fkpl").exists()


class TestConvergenceStudy:
    def test_error_table(self, tmp_path):
        out = tmp_path / "study"
        code = run(
            ["convergence-study", "--alpha", "2", "--n", "64", "--l", "16,32", "--out", out]
        )
        assert code == EXIT_OK
        lines = (out / "convergence_study.csv").read_text().splitlines()
        assert lines[0].startswith("lx,nx,iterations,status")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        assert all(r[3] == "converged" for r in rows)
        errors = [float(r[7]) for r in rows]
        assert errors[1] < errors[0]  # larger domain, smaller truncation error

    @pytest.mark.parametrize("which", ["exact", "random"])
    def test_error_column_is_the_abs_max_formula_bit_for_bit(self, tmp_path, monkeypatch,
                                                              rng, which):
        # each solve's field is swapped for the exact lump itself (error +0.0)
        # or for random samples, and the column read back against the formula
        fields, real_solve = [], cli.solve

        def swapped_solve(config):
            _, report = real_solve(config)
            exact = exact_kp1_lump(config.grid, ExactLumpParams(c=1.0))
            field = exact
            if which == "random":
                field = RealField(config.grid, rng.standard_normal(config.grid.shape))
            fields.append((field, exact))
            return field, report

        monkeypatch.setattr(cli, "solve", swapped_solve)
        out = tmp_path / "study"
        argv = ["convergence-study", "--alpha", "2", "--n", "32", "--l", "8,16", "--out", out]
        assert run(argv) == EXIT_OK
        lines = (out / "convergence_study.csv").read_text().splitlines()[1:]
        got = [float(line.split(",")[7]).hex() for line in lines]
        assert got == [abs_max_relative_error(f, e).hex() for f, e in fields]
        if which == "exact":
            assert [line.split(",")[7] for line in lines] == ["0", "0"]

    def test_no_exact_error_below_alpha_2(self, tmp_path):
        # only alpha = 2 has a closed form to compare against
        out = tmp_path / "study"
        code = run(["convergence-study", "--alpha", "1.5", "--n", "64", "--l", "16,32",
                    "--out", out])
        assert code == EXIT_OK
        header, *lines = (out / "convergence_study.csv").read_text().splitlines()
        assert header.split(",")[7] == "error_vs_exact"
        assert [line.split(",")[7] for line in lines] == ["nan", "nan"]

    def test_goes_on_past_a_collapse(self, tmp_path):
        # at c = 1e-300 the seed's square underflows, so every solve of the
        # sweep collapses at its first step: a row each, not a stopped study
        out = tmp_path / "study"
        code = run(["convergence-study", "--alpha", "2", "--c", "1e-300", "--n", "16",
                    "--l", "8,16", "--out", out])
        assert code == EXIT_OK
        rows = [line.split(",") for line in
                (out / "convergence_study.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[1], r[2], r[3]) for r in rows] == [
            ("8", "16", "1", "diverged"), ("16", "32", "1", "diverged")
        ]

    def test_unparseable_l_list_is_named(self, tmp_path, capsys):
        code = run(["convergence-study", "--alpha", "2", "--n", "16", "--l", "64,abc",
                    "--out", tmp_path / "study"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == ["error: cannot parse --l list '64,abc'"]
        assert not (tmp_path / "study").exists()

    @pytest.mark.parametrize("l_list", ["8,inf", "8,nan", "8,0", "-8,16"])
    def test_rejects_bad_half_widths(self, tmp_path, capsys, l_list):
        code = run(["convergence-study", "--alpha", "2", "--n", "16", "--l", l_list,
                    "--out", tmp_path])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--l" in err[0]

    def test_every_grid_is_checked_before_the_first_solve(self, tmp_path, capsys, monkeypatch):
        # 24 at 64 nodes per 16 is 96 nodes, not a power of two
        solves = []
        monkeypatch.setattr(cli, "solve", lambda config: solves.append(config))
        code = run(["convergence-study", "--alpha", "2", "--n", "64", "--l", "16,24",
                    "--out", tmp_path / "study"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --l 24: nx must be a power of two >= 8, got 96"]
        assert solves == []
        assert not (tmp_path / "study").exists()
