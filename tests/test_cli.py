"""Command-line interface: exit codes, JSON/CSV output, reproducibility."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import phasewitness
from phasewitness.cli import (
    CSV_HEADER,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    THREADS_ENV,
    main,
)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs most of the CLI start-up time and nothing needs it.
    env = dict(os.environ, PYTHONPATH=str(Path(phasewitness.__file__).parents[1]))
    code = "import sys, phasewitness.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


class TestArgumentHandling:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == EXIT_USAGE

    def test_version(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == EXIT_OK
        assert out.strip()

    def test_settings_and_optimize_are_exclusive(self, capsys):
        base = ["eval", "--xi", "0.3", "--s", "0"]
        code, _, err = run_cli(
            base + ["--settings", "0,0,0,0", "--optimize"], capsys
        )
        assert code == EXIT_USAGE and "error:" in err
        code, _, _ = run_cli(base, capsys)
        assert code == EXIT_USAGE

    def test_bad_complex_literal(self, capsys):
        code, _, _ = run_cli(
            ["eval", "--xi", "0.3", "--s", "0", "--settings", "0,0,0,zz"], capsys
        )
        assert code == EXIT_USAGE
        # cosh(2 xi) overflows: a usage error, not a traceback.
        code, _, err = run_cli(
            ["eval", "--xi", "400", "--s", "0", "--settings", "0,0,0,0"], capsys
        )
        assert code == EXIT_USAGE and "error:" in err
        # Overflowing settings, order or search box: usage errors that say so.
        for argv in (
            ["--s", "0", "--settings", "1e200j,1e200j,1e200j,1e200j"],
            ["--s", "-1", "--noise", "detection", "--eta", "1e-300",
             "--settings", "0.1,0,0,0"],
            ["--s", "0", "--noise", "detection", "--eta", "0.5", "--optimize",
             "--box", "1e308", "--starts", "1"],
        ):
            code, _, err = run_cli(["eval", "--xi", "0.3", *argv], capsys)
            assert code == EXIT_USAGE
            assert "NaN" in err or "overflow" in err
        # A base order outside the witness range [-1, 0] is named.
        for s in ("0.5", "-1.5"):
            code, _, err = run_cli(
                ["eval", "--xi", "0.3", "--s", s, "--settings", "0,0,0,0"], capsys
            )
            assert code == EXIT_USAGE and f"order parameter {s}" in err
        # Non-finite orders, given or produced by the noise rescaling.
        for argv in (
            ["--s", "nan"],
            ["--s", "inf"],
            ["--s", "-inf"],
            ["--s", "0", "--noise", "detection", "--eta", "5e-324"],
            ["--s", "0", "--noise", "thermal", "--r", "0.9999999999999999",
             "--nbar", "1e308"],
        ):
            code, _, err = run_cli(
                ["eval", "--xi", "0.3", *argv, "--settings", "0.1,0,0,0"], capsys
            )
            assert code == EXIT_USAGE
            assert "order parameter must be finite" in err

    def test_noise_parameters_are_required(self, capsys):
        code, _, _ = run_cli(
            ["eval", "--xi", "0.3", "--s", "0", "--noise", "detection",
             "--settings", "0,0,0,0"],
            capsys,
        )
        assert code == EXIT_USAGE
        code, _, _ = run_cli(
            ["eval", "--xi", "0.3", "--s", "0", "--noise", "thermal",
             "--settings", "0,0,0,0"],
            capsys,
        )
        assert code == EXIT_USAGE

    def test_bad_grids(self, tmp_path, capsys):
        out = str(tmp_path / "g.csv")
        base = ["sweep", "--mode", "eta-s", "--xi", "0.3", "--out", out, "--starts", "1"]
        code, _, _ = run_cli(base + ["--s", "0:0:0", "--eta", "0.5"], capsys)
        assert code == EXIT_USAGE
        code, _, _ = run_cli(base + ["--s", "0:-1:5", "--eta", "0.5"], capsys)
        assert code == EXIT_USAGE
        code, _, _ = run_cli(base + ["--s", "0", "--eta", "0.4:0.6:1"], capsys)
        assert code == EXIT_USAGE


class TestEval:
    def test_vacuum_origin_json(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--xi", "0", "--s", "-1", "--settings", "0,0,0,0"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["bell_value"] == pytest.approx(2.0, abs=1e-12)
        assert payload["violated"] is False
        assert payload["clamped"] is False
        assert payload["s_effective"] == pytest.approx(-1.0, abs=1e-15)
        assert payload["settings"]["a1"] == [0.0, 0.0]

    def test_optimized_lossy_evaluation_is_clamped_violation(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--xi", "0.3", "--s", "0", "--noise", "detection",
             "--eta", "0.4", "--optimize", "--starts", "6", "--seed", "1"],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["clamped"] is True
        assert payload["bell_abs"] == payload["meta"].get("bell_abs", payload["bell_abs"])
        assert payload["meta"]["n_starts"] == 6


class TestSweep:
    def test_csv_and_manifest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        out = tmp_path / "run.csv"
        code, stdout, _ = run_cli(
            ["sweep", "--mode", "eta-s", "--xi", "0.3", "--s", "-1:0:2",
             "--eta", "0.5:1.0:2", "--out", str(out), "--starts", "2", "--seed", "4"],
            capsys,
        )
        assert code == EXIT_OK
        assert "wrote 4 rows" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert len(first) == len(CSV_HEADER.split(","))
        # eta-s rows leave the nbar column empty.
        assert first[2] == ""
        assert first[4] in ("true", "false")
        float(first[3])  # bell_abs round-trips
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["mode"] == "eta-s"
        assert manifest["rows"] == 4
        assert manifest["csv"] == "run.csv"
        assert manifest["eta_grid"] == [0.5, 1.0]
        assert manifest["s_grid"] == [-1.0, 0.0]
        assert manifest["n_starts"] == 2
        assert manifest["wall_time_s"] > 0.0
        assert manifest["checks"] == {"values_finite": True}
        assert manifest["clamp_mode"] == "bounded_continuation"
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        }

    def test_thermal_mode_fills_nbar_column(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        out = tmp_path / "thermal.csv"
        code, _, _ = run_cli(
            ["sweep", "--mode", "thermal", "--xi", "0.3", "--s", "0:0:1",
             "--r", "0.5:0.5:1", "--nbar-list", "0,1", "--out", str(out),
             "--starts", "1"],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "0"
        assert lines[2].split(",")[2] == "1"

    def test_unwritable_output_path(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "run.csv"
        code, _, err = run_cli(
            ["sweep", "--mode", "eta-s", "--xi", "0.3", "--s", "0",
             "--eta", "0.5", "--out", str(out), "--starts", "1"],
            capsys,
        )
        assert code == EXIT_IO
        assert "cannot write" in err

    def test_worker_count_does_not_change_output(self, tmp_path, capsys, monkeypatch):
        argv = ["sweep", "--mode", "eta-s", "--xi", "0.3", "--s", "-0.5:0:2",
                "--eta", "0.6:0.9:2", "--starts", "2", "--seed", "8"]
        monkeypatch.setenv(THREADS_ENV, "1")
        serial = tmp_path / "serial.csv"
        assert run_cli(argv + ["--out", str(serial)], capsys)[0] == EXIT_OK
        monkeypatch.setenv(THREADS_ENV, "2")
        parallel = tmp_path / "parallel.csv"
        assert run_cli(argv + ["--out", str(parallel)], capsys)[0] == EXIT_OK
        assert serial.read_bytes() == parallel.read_bytes()

    def test_invalid_worker_env(self, tmp_path, capsys, monkeypatch):
        argv = ["sweep", "--mode", "eta-s", "--xi", "0.3", "--s", "0",
                "--eta", "0.5", "--out", str(tmp_path / "w.csv"), "--starts", "1"]
        monkeypatch.setenv(THREADS_ENV, "zero")
        assert run_cli(argv, capsys)[0] == EXIT_USAGE
        monkeypatch.setenv(THREADS_ENV, "0")
        assert run_cli(argv, capsys)[0] == EXIT_USAGE


class TestValidateCommand:
    def test_selected_suites_pass(self, capsys):
        code, out, _ = run_cli(
            ["validate", "--quick", "--suite", "eigenvalue_bounds",
             "--suite", "multi_outcome_rescale"],
            capsys,
        )
        assert code == EXIT_OK
        assert "2/2 suites passed" in out
        assert out.count("PASS") == 2

    def test_corrupted_run_exits_nonzero(self, capsys, monkeypatch):
        from phasewitness import states

        real = states.tmsv_w2
        monkeypatch.setattr(
            "phasewitness.states.tmsv_w2",
            lambda spec, a, b, s: real(spec, a, b, s) + 1e-4,
        )
        code, out, _ = run_cli(
            ["validate", "--quick", "--suite", "witness_form_equivalence"], capsys
        )
        assert code == EXIT_VALIDATION
        assert "FAIL" in out
