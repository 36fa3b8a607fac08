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
    main,
)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


#: Top-level packages that neither the CLI's import nor a sweep whose
#: cells all certify may load: scipy (only a fallback search needs TNC's
#: core) and the process-pool machinery.
UNNEEDED = ("scipy", "concurrent", "multiprocessing")


def loaded_in_fresh_interpreter(code: str) -> list[str]:
    """The ``UNNEEDED`` modules in ``sys.modules`` after ``code`` runs in a new process."""
    env = dict(os.environ, PYTHONPATH=str(Path(phasewitness.__file__).parents[1]))
    code += (
        "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
        f" if m.split('.')[0] in {UNNEEDED!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs most of the CLI start-up time and nothing needs
    # it; no other part of scipy is needed before a command runs either,
    # and no sweep starts a process pool.
    assert loaded_in_fresh_interpreter("import phasewitness.cli") == []


def test_certified_sweep_loads_neither_scipy_nor_a_pool(tmp_path):
    out = tmp_path / "map.csv"
    code = (
        "from phasewitness.cli import main\n"
        "assert main(['sweep', '--mode', 'eta-s', '--xi', '0.3', '--eta', '0.5:1.0:2', "
        f"'--s', '-1:0:2', '--starts', '4', '--seed', '1', '--out', {str(out)!r}]) == 0"
    )
    assert loaded_in_fresh_interpreter(code) == []
    assert json.loads((tmp_path / "map.csv.manifest.json").read_text())["cells"]["search"] == 0


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

    def test_noise_parameters_are_required(self, tmp_path, capsys):
        ev = ["eval", "--xi", "0.3", "--s", "0", "--settings", "0,0,0,0"]
        for argv in (ev + ["--noise", "detection"], ev + ["--noise", "thermal"]):
            code, _, _ = run_cli(argv, capsys)
            assert code == EXIT_USAGE
        # A flag the chosen noise model or sweep mode never reads is
        # refused, not silently dropped.
        sw = ["sweep", "--xi", "0.3", "--s", "0", "--starts", "1",
              "--out", str(tmp_path / "u.csv")]
        for argv, flag in (
            (ev + ["--eta", "0.36"], "--eta"),
            (ev + ["--noise", "none", "--eta", "0.36"], "--eta"),
            (ev + ["--noise", "thermal", "--r", "0.3", "--eta", "0.5"], "--eta"),
            (ev + ["--r", "0.3"], "--r"),
            (ev + ["--nbar", "0"], "--nbar"),
            (ev + ["--noise", "detection", "--eta", "0.5", "--r", "0.3"], "--r"),
            (ev + ["--noise", "detection", "--eta", "0.5", "--nbar", "1"], "--nbar"),
            (sw + ["--mode", "eta-s", "--eta", "0.5", "--r", "0.3"], "--r"),
            (sw + ["--mode", "eta-s", "--eta", "0.5", "--nbar-list", "0"], "--nbar-list"),
            (sw + ["--mode", "thermal", "--r", "0.3", "--eta", "0.5"], "--eta"),
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == EXIT_USAGE, argv
            assert f"does not read {flag}" in err
        assert not (tmp_path / "u.csv").exists()

    def test_search_flags_need_optimize(self, capsys):
        # Only --optimize reads the search flags; with --settings they
        # are refused, not silently dropped.
        ev = ["eval", "--xi", "0.3", "--s", "0", "--settings", "0,0,0,0"]
        for extra, flags in (
            (["--starts", "5"], "--starts"),
            (["--box", "9"], "--box"),
            (["--seed", "3"], "--seed"),
            (["--starts", "5", "--box", "9", "--seed", "3"], "--box, --seed, --starts"),
        ):
            code, out, err = run_cli(ev + extra, capsys)
            assert code == EXIT_USAGE, extra
            assert f"--settings does not read {flags}" in err
            assert out == ""
        # Under --optimize an omitted flag keeps the search default.
        opt = ["eval", "--xi", "0.3", "--s", "0", "--noise", "detection", "--eta", "0.5",
               "--optimize", "--starts", "2"]
        code, out, _ = run_cli(opt, capsys)
        assert code == EXIT_OK
        implicit = json.loads(out)
        code, out, _ = run_cli(opt + ["--box", "2.0", "--seed", "0"], capsys)
        assert code == EXIT_OK
        assert json.loads(out) == implicit
        assert implicit["meta"]["n_starts"] == 2

    def test_negative_seed(self, tmp_path, capsys):
        # Refused when the arguments are read, before any search or pool.
        out = tmp_path / "n.csv"
        for argv in (
            ["eval", "--xi", "0.3", "--s", "0", "--noise", "detection", "--eta", "0.5",
             "--optimize", "--seed", "-1"],
            ["sweep", "--mode", "eta-s", "--xi", "0.3", "--s", "-1:0:2", "--eta", "0.5:1:2",
             "--out", str(out), "--starts", "1", "--seed", "-1"],
        ):
            code, stdout, err = run_cli(argv, capsys)
            assert code == EXIT_USAGE, argv
            assert "seed must be non-negative, got -1" in err
            assert stdout == ""
        assert not out.exists()

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
    def test_csv_and_manifest(self, tmp_path, capsys):
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
        # Each row says how its cell was found; the manifest counts them.
        header = CSV_HEADER.split(",")
        assert header[-3:] == ["source", "grad_norm", "hess_max"]
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert {row["source"] for row in rows} == {"curve"}
        assert all(float(row["grad_norm"]) <= 1e-9 for row in rows)
        assert all(float(row["hess_max"]) < -1e-6 for row in rows)
        assert manifest["cells"] == {
            "curve": 4,
            "search": 0,
            "max_grad_norm": max(float(row["grad_norm"]) for row in rows),
        }
        assert manifest["clamp_mode"] == "bounded_continuation"
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        }

    def test_thermal_mode_fills_nbar_column(self, tmp_path, capsys):
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

    @pytest.mark.parametrize(
        "grid",
        [
            ["--mode", "eta-s", "--eta", "1e-300"],
            ["--mode", "thermal", "--r", "0.99999999", "--nbar-list", "1e300"],
        ],
    )
    def test_overflowing_sweep_prints_only_the_error(self, tmp_path, grid):
        # A fresh interpreter, so that stderr is what a user sees: no
        # numpy warning from the curve solve ahead of the error line.
        env = dict(os.environ, PYTHONPATH=str(Path(phasewitness.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "phasewitness", "sweep", "--xi", "0.3", *grid,
             "--s", "-1", "--out", str(tmp_path / "o.csv")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == EXIT_USAGE
        assert run.stderr.startswith("error: witness value is NaN")
        assert run.stderr.count("\n") == 1
        assert "Warning" not in run.stderr

    def test_unwritable_output_path(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "run.csv"
        code, _, err = run_cli(
            ["sweep", "--mode", "eta-s", "--xi", "0.3", "--s", "0",
             "--eta", "0.5", "--out", str(out), "--starts", "1"],
            capsys,
        )
        assert code == EXIT_IO
        assert "cannot write" in err

    def test_missing_output_directory_fails_before_the_sweep(
        self, tmp_path, capsys, monkeypatch
    ):
        def sweep_driver(*args, **kwargs):
            raise AssertionError("the sweep ran before the output was checked")

        monkeypatch.setattr("phasewitness.cli.sweep_eta_s", sweep_driver)
        monkeypatch.setattr("phasewitness.cli.sweep_thermal", sweep_driver)
        out = tmp_path / "missing-dir" / "run.csv"
        for mode in (["--mode", "eta-s", "--eta", "0.5"], ["--mode", "thermal", "--r", "0.5"]):
            code, _, err = run_cli(
                ["sweep", *mode, "--xi", "0.3", "--s", "0", "--out", str(out),
                 "--starts", "1"],
                capsys,
            )
            assert code == EXIT_IO
            assert err.startswith("error: cannot write output:")
            assert "missing-dir" in err

    def test_directory_output_fails_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        def sweep_driver(*args, **kwargs):
            raise AssertionError("the sweep ran before the output was checked")

        monkeypatch.setattr("phasewitness.cli.sweep_eta_s", sweep_driver)
        (tmp_path / "run.csv.manifest.json").mkdir()
        for out in (tmp_path, tmp_path / "run.csv"):
            code, _, err = run_cli(
                ["sweep", "--mode", "eta-s", "--eta", "0.5", "--xi", "0.3", "--s", "0",
                 "--out", str(out), "--starts", "1"],
                capsys,
            )
            assert code == EXIT_IO
            assert err.startswith("error: cannot write output:")
            assert "is a directory" in err
        assert not (tmp_path / "run.csv").exists()


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
