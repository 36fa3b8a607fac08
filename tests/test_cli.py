"""Command-line interface: exit codes, JSON/CSV output, reproducibility."""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import phasewitness
from phasewitness import cli, search
from phasewitness.cli import (
    CSV_HEADER,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from phasewitness.noise import DetectionNoise
from phasewitness.search import SweepResult, optimize_cells
from phasewitness.states import TmsvSpec
from phasewitness.witness import CLAMP_MODES, detection_objective


#: CI reruns these under a second set of numpy and OpenBLAS kernels.
pytestmark = pytest.mark.kernels


#: The one stderr line of a sweep whose first overflowing curve key stops it.
OVERFLOWING_KEY = r"the witness at xi = 0\.3, s' = \S+ overflows or underflows"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


#: Modules, with their submodules, that neither the CLI's import nor a
#: sweep or ``eval`` may load: scipy (only the tests' TNC oracle needs
#: it), the process-pool machinery, ``subprocess`` (which
#: ``platform.platform()`` forks ``uname -p`` through),
#: ``importlib.metadata``, ``numpy.random`` with the ``secrets`` and
#: ``hashlib`` it imports, and the self-check suites.
UNNEEDED = (
    "scipy", "concurrent", "multiprocessing", "subprocess", "importlib.metadata",
    "numpy.random", "secrets", "hashlib", "phasewitness.validate",
)


def strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity token."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def loaded_in_fresh_interpreter(code: str) -> list[str]:
    """The ``UNNEEDED`` modules in ``sys.modules`` after ``code`` runs in a new process."""
    env = dict(os.environ, PYTHONPATH=str(Path(phasewitness.__file__).parents[1]))
    code += (
        "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
        f" if any(m == u or m.startswith(u + '.') for u in {UNNEEDED!r}))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs most of the CLI start-up time and nothing needs
    # it; no other part of scipy is needed before a command runs either,
    # no sweep starts a process pool, and only validate runs the suites.
    assert loaded_in_fresh_interpreter("import phasewitness.cli") == []


def test_certified_sweep_loads_neither_scipy_nor_a_pool(tmp_path):
    out = tmp_path / "map.csv"
    code = (
        "from phasewitness.cli import main\n"
        "assert main(['sweep', '--mode', 'eta-s', '--xi', '3', '--eta', '0.5:1.0:2', "
        f"'--s', '-1:0:2', '--starts', '4', '--seed', '1', '--out', {str(out)!r}]) == 0"
    )
    assert loaded_in_fresh_interpreter(code) == []
    manifest = json.loads((tmp_path / "map.csv.manifest.json").read_text())
    assert manifest["cells"]["uncertified"] == 0
    assert "scipy" not in manifest["environment"]


def test_certified_eval_loads_no_scipy():
    code = (
        "from phasewitness.cli import main\n"
        "assert main(['eval', '--xi', '3', '--s', '0', '--noise', 'none', '--optimize']) == 0"
    )
    assert loaded_in_fresh_interpreter(code) == []


def test_maximize_bell_loads_no_numpy_random():
    # The benchmark's maximizer is the curve solve: no random starts, no
    # scipy, even where scipy is installed.
    code = (
        "from phasewitness import search\n"
        "from phasewitness.noise import DetectionNoise\n"
        "from phasewitness.states import TmsvSpec\n"
        "from phasewitness.witness import detection_objective\n"
        "objective = detection_objective(TmsvSpec(3.0), 0.0, DetectionNoise(1.0))\n"
        "report = search.maximize_bell(objective, search.SearchConfig(n_starts=2))\n"
        "assert report.meta['source'] == 'curve', report"
    )
    assert loaded_in_fresh_interpreter(code) == []


def test_no_command_needs_scipy(tmp_path):
    # With scipy blocked, every import of it raises ImportError.  The
    # package imports, and exports none of the four names that only the
    # tests and the benchmark use; the benchmark's ``maximize_bell`` and
    # every command run, and load no scipy module.
    env = dict(os.environ, PYTHONPATH=str(Path(phasewitness.__file__).parents[1]))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import phasewitness\n"
        "oracles = {'SearchConfig', 'maximize_bell', 'grid_oracle', 'plane_integral'}\n"
        "assert not oracles & (set(phasewitness.__all__) | set(vars(phasewitness)))\n"
        "from phasewitness import DetectionNoise, TmsvSpec, detection_objective, search\n"
        "objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))\n"
        "report = search.maximize_bell(objective, search.SearchConfig(n_starts=1))\n"
        "assert report.meta['source'] == 'curve' and report.violated, report\n"
        "assert [m for m in sys.modules if m.split('.')[0] == 'scipy'] == ['scipy']\n"
        "from phasewitness.cli import main\n"
        "assert main(['sweep', '--mode', 'thermal', '--xi', '2', '--r', '0:0.9:4', "
        f"'--s', '-1:0:3', '--nbar-list', '0,1', '--out', {str(tmp_path / 'o.csv')!r}]) == 0\n"
        "assert main(['sweep', '--mode', 'eta-s', '--xi', '1', '--eta', '0.5:1:3', "
        f"'--s', '-1:0:3', '--out', {str(tmp_path / 'm.csv')!r}]) == 0\n"
        "assert main(['eval', '--xi', '8', '--s', '0', '--noise', 'none', '--optimize']) == 0\n"
        "assert main(['validate']) == 0\n"
        "assert [m for m in sys.modules if m.split('.')[0] == 'scipy'] == ['scipy']\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_io_without_a_traceback(unbuffered):
    # As ``eval ... | head -c 1`` does, the reader takes one byte and
    # closes the pipe, here before the child writes: the child's ~700
    # bytes fit the pipe in one write, so a reader that closes later
    # races with it.  Buffered, the write fails at main's flush;
    # unbuffered, in print.
    read_end, write_end = os.pipe()
    os.write(write_end, b"{")
    assert os.read(read_end, 1) == b"{"
    os.close(read_end)
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(phasewitness.__file__).parents[1]),
        PYTHONUNBUFFERED=unbuffered,
    )
    argv = ["eval", "--xi", "0.3", "--s", "0", "--noise", "thermal", "--r", "0.3",
            "--nbar", "0.2", "--clamp", "loss_channel", "--optimize"]
    try:
        run = subprocess.run(
            [sys.executable, "-m", "phasewitness", *argv], stdout=write_end,
            stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (EXIT_IO, "")


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
        # cosh(2 xi) overflows, or 2 xi itself does: a usage error, not a
        # traceback.
        for xi in ("400", "1e308"):
            code, _, err = run_cli(
                ["eval", "--xi", xi, "--s", "0", "--settings", "0,0,0,0"], capsys
            )
            assert code == EXIT_USAGE and "error:" in err
        # From xi = 354.5, 1/v+ = e^{-2 xi} is subnormal, though cosh(2 xi)
        # is finite: a usage error, never a curve or asymptote cell.
        for xi in ("354.5", "355.0"):
            code, out, err = run_cli(
                ["eval", "--xi", xi, "--s", "0", "--noise", "none", "--optimize"], capsys
            )
            assert code == EXIT_USAGE and out == ""
            assert err == f"error: the witness at xi = {xi}, s' = 0.0 overflows or underflows\n"
        # Overflowing settings or order: usage errors that say so.
        for argv in (
            ["--s", "0", "--settings", "1e200j,1e200j,1e200j,1e200j"],
            ["--s", "-1", "--noise", "detection", "--eta", "1e-300",
             "--settings", "0.1,0,0,0"],
            ["--s", "-1", "--noise", "detection", "--eta", "1e-300", "--optimize"],
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
             "--nbar", "1e307"],
        ):
            code, _, err = run_cli(
                ["eval", "--xi", "0.3", *argv, "--settings", "0.1,0,0,0"], capsys
            )
            assert code == EXIT_USAGE
            assert "order parameter must be finite" in err

    def test_loss_channel_at_vanishing_transmission(self, capsys):
        # Under the loss-channel rule each 1/g prefactor meets one variance
        # of order 2/g, so eta = 1e-300 is a valid key: the all but lost
        # state reads the asymptote c0 = 2, as eta = 1e-100 does.
        for eta in ("1e-300", "1e-100"):
            code, out, err = run_cli(
                ["eval", "--xi", "0.3", "--s", "-1", "--noise", "detection", "--eta", eta,
                 "--optimize", "--clamp", "loss_channel"],
                capsys,
            )
            assert code == EXIT_OK and err == ""
            report = json.loads(out)
            assert report["bell_abs"] == 2.0 and report["meta"]["source"] == "asymptote"

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

    def test_search_flags(self, tmp_path, capsys):
        # eval takes no search flag and sweep no --box.  sweep still
        # takes --starts and --seed, which change nothing.
        for argv in (
            ["eval", "--xi", "0.3", "--s", "0", "--settings", "0,0,0,0", "--starts", "5"],
            ["eval", "--xi", "0.3", "--s", "0", "--optimize", "--seed", "3"],
            ["eval", "--xi", "0.3", "--s", "0", "--optimize", "--box", "9"],
            ["sweep", "--mode", "eta-s", "--xi", "0.3", "--s", "0", "--eta", "0.5",
             "--box", "9", "--out", str(tmp_path / "box.csv")],
        ):
            code, out, err = run_cli(argv, capsys)
            assert code == EXIT_USAGE, argv
            assert "unrecognized arguments" in err and out == ""
        argv = ["sweep", "--mode", "eta-s", "--xi", "1", "--s", "-1:0:3", "--eta", "0.3:1:3"]
        outputs = []
        for extra in ([], ["--starts", "1", "--seed", "-1"], ["--starts", "64", "--seed", "9"]):
            out = tmp_path / f"run{len(outputs)}.csv"
            code, _, _ = run_cli([*argv, *extra, "--out", str(out)], capsys)
            assert code == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_bad_grids(self, tmp_path, capsys):
        out = str(tmp_path / "g.csv")
        base = ["sweep", "--mode", "eta-s", "--xi", "0.3", "--out", out, "--starts", "1"]
        code, _, _ = run_cli(base + ["--s", "0:0:0", "--eta", "0.5"], capsys)
        assert code == EXIT_USAGE
        code, _, _ = run_cli(base + ["--s", "0:-1:5", "--eta", "0.5"], capsys)
        assert code == EXIT_USAGE
        code, _, _ = run_cli(base + ["--s", "0", "--eta", "0.4:0.6:1"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("count", [10**15, 10**20, 2**63 - 1])
    def test_unallocatable_grid_count_is_a_usage_error(self, count, tmp_path, capsys):
        # numpy refuses each count without touching memory: 10**15 floats
        # are 7.11 PiB, and the other two lie past its index range.
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            ["sweep", "--mode", "eta-s", "--xi", "0.3", "--eta", f"0.3:1:{count}", "--s", "0",
             "--out", str(out)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert err == f"error: --eta: grid count {count} is too large\n"
        assert stdout == ""
        assert not out.exists()

    def test_sweep_too_large_for_memory_is_a_usage_error(self, monkeypatch, tmp_path, capsys):
        # Each grid allocates, but the cells' arrays do not: one stderr line
        # naming the cell count, exit 2, and nothing written.
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "sweep_eta_s", exhausted)
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            ["sweep", "--mode", "eta-s", "--xi", "0.3", "--eta", "0.3:1:100000",
             "--s", "-1:0:100000", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert err == "error: a sweep of 10000000000 cells is too large\n"
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, grid",
        [
            ("--s", "-inf:0:3"),
            ("--eta", "0.5:inf:3"),
            ("--r", "-inf:0.5:3"),
            ("--s", "-1e308:1e308:3"),
        ],
    )
    def test_non_finite_grid_endpoint_is_a_usage_error(self, flag, grid, tmp_path, capsys):
        # linspace would turn the endpoint, or the overflowing span, into
        # NaN cells; the grid is refused by flag before any cell is built.
        out = tmp_path / "x.csv"
        argv = {
            "--s": ["--mode", "eta-s", "--eta", "0.5:1:3"],
            "--eta": ["--mode", "eta-s", "--s", "0"],
            "--r": ["--mode", "thermal", "--s", "0"],
        }[flag]
        code, stdout, err = run_cli(
            ["sweep", "--xi", "0.3", *argv, flag, grid, "--out", str(out)], capsys
        )
        assert code == EXIT_USAGE
        assert err == f"error: {flag}: grid endpoints and span must be finite, got {grid!r}\n"
        assert stdout == ""
        assert not out.exists()

    def test_out_of_range_values_are_named_as_eval_names_them(self, tmp_path, capsys):
        # A sweep admits each value through the same checks as eval, so
        # both name a bad value alike.
        out = tmp_path / "g.csv"
        eta_s = ["sweep", "--mode", "eta-s", "--xi", "0.3", "--out", str(out)]
        thermal = ["sweep", "--mode", "thermal", "--xi", "0.3", "--out", str(out)]
        for argv, named in (
            (eta_s + ["--eta", "0.5", "--s", "0.5"], "order parameter 0.5"),
            (["eval", "--xi", "0.3", "--s", "0.5", "--optimize"], "order parameter 0.5"),
            (eta_s + ["--eta", "0:1:3", "--s", "0"], "detection efficiency eta"),
            (eta_s + ["--eta", "0.5:1.5:3", "--s", "0"], "detection efficiency eta"),
            (thermal + ["--r", "0:1:3", "--s", "0"], "reflectivity r"),
            (thermal + ["--r", "0.5", "--s", "0", "--nbar-list", "0,-0.1"], "nbar"),
            (thermal + ["--r", "0:0.5:2", "--s", "0", "--nbar-list", "1e308"], "nbar = 1e+308"),
            (["eval", "--xi", "0.3", "--s", "0", "--noise", "thermal", "--r", "0",
              "--nbar", "1e308", "--optimize"], "nbar = 1e+308"),
            (eta_s + ["--eta", "0.5", "--s", "0:-1:3"], "s grid must be non-decreasing"),
            (thermal + ["--r", "0.5", "--s", "0", "--nbar-list", ""], "nbar_list"),
            (thermal + ["--r", "0.5", "--s", "0", "--nbar-list", "0,,1"], "--nbar-list"),
            (thermal + ["--r", "0.5", "--s", "0", "--nbar-list", "0,1,"], "--nbar-list"),
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == EXIT_USAGE and named in err, (argv, err)
            assert not out.exists()

    def test_a_grid_with_several_bad_values_names_the_first_check_that_fails(
        self, tmp_path, capsys
    ):
        # A sweep checks every eta, or every (nbar, r) pair, first; then
        # every s; then the rescaled orders and then the curve keys, each in
        # cell order.  The first check with a bad value names it, whatever
        # cell a later check's value sits in.
        out = tmp_path / "g.csv"
        eta_s = ["sweep", "--mode", "eta-s", "--xi", "0.3", "--out", str(out)]
        thermal = ["sweep", "--mode", "thermal", "--xi", "0.3", "--out", str(out)]
        edge = ["--r", "0.9999999999999999", "--s", "0", "--nbar-list"]
        for argv, named in (
            (eta_s + ["--eta", "0.5:1.5:3", "--s", "0.5"], "detection efficiency eta"),
            (eta_s + ["--eta", "1e-320:1.5:3", "--s", "-1"], "detection efficiency eta"),
            (eta_s + ["--eta", "1e-320:1:3", "--s", "-1:0.5:4"], "order parameter 0.5"),
            (eta_s + ["--eta", "1e-300:1:3", "--s", "-1:0.5:4"], "order parameter 0.5"),
            (thermal + ["--r", "0:1:3", "--s", "0.5"], "reflectivity r"),
            (thermal + ["--r", "0.5", "--s", "0.5", "--nbar-list", "0,-1"], "mean photon number"),
            (thermal + edge + ["1e140"], "the witness at xi = 0.3, s' = -9.00719925474099e+155"),
            (thermal + edge + ["1e140,1e307"], "got -inf for the thermally rescaled order"),
            (thermal + edge + ["1e307,1e308"], "nbar = 1e+308 is too large"),
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == EXIT_USAGE and named in err, (argv, err)
            assert err.count("\n") == 1 and not out.exists()


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

    @pytest.mark.parametrize("clamp", CLAMP_MODES)
    def test_no_noise_evaluates_at_s_itself(self, clamp, capsys):
        # No noise is the thermal channel at r = 0, whose rescale (s - 0)/1
        # rounds nothing: 1 - (1 - s)/1 would.
        for s in np.linspace(-1.0, 0.0, 21):
            argv = ["eval", "--xi", "0.3", "--s", repr(float(s)), "--clamp", clamp,
                    "--settings", "0.1,0.2,0.1,0.2"]
            code, out, _ = run_cli(argv + ["--noise", "none"], capsys)
            assert code == EXIT_OK
            assert json.loads(out)["s_effective"] == s
            code, thermal, _ = run_cli(argv + ["--noise", "thermal", "--r", "0"], capsys)
            assert code == EXIT_OK and out == thermal

    def test_optimized_lossy_evaluation_is_clamped_violation(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--xi", "0.3", "--s", "0", "--noise", "detection",
             "--eta", "0.4", "--optimize"],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["clamped"] is True
        assert payload["violated"] is True
        assert list(payload["meta"]) == ["source", "grad_norm", "hess_max"]
        assert payload["meta"]["source"] == "curve"

    def test_optimize_reports_the_one_cell_sweep(self, tmp_path, capsys):
        # A 16-start search in the box of radius 2 ends on the box edge
        # here, 1.5e-5 short of a false violation, above the curve's
        # interior maximum 1.884; eval and sweep both report the supremum
        # |c0| = 2, which no finite setting reaches.
        cell = ["--xi", "0.3", "--r", "0.9", "--s", "-0.2"]
        out = tmp_path / "cell.csv"
        code, _, _ = run_cli(
            ["sweep", "--mode", "thermal", *cell, "--nbar-list", "0", "--out", str(out)], capsys
        )
        assert code == EXIT_OK
        header = CSV_HEADER.split(",")
        row = dict(zip(header, out.read_text().splitlines()[1].split(",")))
        code, stdout, _ = run_cli(["eval", "--noise", "thermal", *cell, "--optimize"], capsys)
        assert code == EXIT_OK
        payload = json.loads(stdout)
        assert payload["bell_abs"] == float(row["bell_abs"])
        settings = [v for name in ("a1", "a2", "b1", "b2") for v in payload["settings"][name]]
        assert settings == [float(row[name]) for name in header[7:15]]
        assert payload["meta"]["source"] == row["source"] == "asymptote"
        assert payload["bell_abs"] == 2.0 and not payload["violated"]

    def test_warm_loss_channel_clamped_cell_is_refused(self, capsys):
        code, out, err = run_cli(
            ["eval", "--xi", "0.3", "--s", "0", "--noise", "thermal", "--r", "0.8",
             "--nbar", "0.5", "--clamp", "loss_channel", "--optimize"],
            capsys,
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: loss-channel clamping applies to the thermal interaction only for nbar = 0\n"
        )

    @pytest.mark.parametrize("clamp_mode", CLAMP_MODES)
    def test_optimize_is_a_one_cell_optimize_cells(self, clamp_mode, capsys):
        code, out, _ = run_cli(
            ["eval", "--xi", "1.0", "--s", "-0.8", "--noise", "detection", "--eta", "0.85",
             "--clamp", clamp_mode, "--optimize"],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["clamped"] is True
        assert payload["meta"]["source"] == "curve"
        objective = detection_objective(TmsvSpec(1.0), -0.8, DetectionNoise(0.85), clamp_mode)
        expected = optimize_cells([objective])[0]
        assert payload["bell_value"] == expected.bell_value
        settings = [v for name in ("a1", "a2", "b1", "b2") for v in payload["settings"][name]]
        assert settings == list(expected.settings.to_vector())
        assert payload["meta"] == expected.meta

    @pytest.mark.parametrize(
        "xi, expected", [(3.0, 2.3244888971), (5.0, 2.3244947790), (8.0, 2.3244947810)]
    )
    def test_high_squeezing_optimum_is_certified(self, xi, expected, capsys):
        # The seeds sit at the peak's own length, so the noise-free s = 0
        # cell certifies near Banaszek and Wodkiewicz's limit 2.3244947811.
        code, out, _ = run_cli(
            ["eval", "--xi", str(xi), "--s", "0", "--noise", "none", "--optimize"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["bell_abs"] == pytest.approx(expected, abs=1e-10)
        assert payload["meta"]["source"] == "curve"

    def test_product_state_optimum_is_not_violated(self, capsys):
        # At xi = 0 the curve point reads the separable bound 2, within an
        # ulp that depends on numpy's exp kernel; its Hessian is 0 there, so
        # no local certificate holds, and stderr says so in one line.
        code, out, err = run_cli(
            ["eval", "--xi", "0", "--s", "0", "--noise", "none", "--optimize"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["bell_abs"] == pytest.approx(2.0, abs=1e-12)
        assert payload["violated"] is False
        assert payload["meta"]["source"] == "uncertified"
        assert err == (
            "warning: 1 of 1 cells report an uncertified curve point"
            " (source 'uncertified'); their violated flags are not certified\n"
        )


    def test_non_finite_certificate_is_null(self, capsys):
        # At xi = 354 the solve overflows and the certificate reads NaN;
        # the JSON says null, and the value stays a number.
        code, out, _ = run_cli(
            ["eval", "--xi", "354", "--s", "0", "--noise", "none", "--optimize"], capsys
        )
        assert code == EXIT_OK
        payload = strict_json(out)
        assert payload["meta"] == {"source": "uncertified", "grad_norm": None, "hess_max": None}
        assert np.isfinite(payload["bell_value"])


class TestSweep:
    def test_product_state_cells_are_not_violated(self, tmp_path, capsys):
        out = tmp_path / "vacuum.csv"
        code, _, err = run_cli(
            ["sweep", "--mode", "eta-s", "--xi", "0", "--eta", "0.4:1.0:3", "--s", "-1:0:3",
             "--starts", "2", "--seed", "3", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 9
        assert max(abs(float(row[3]) - 2.0) for row in rows) <= 1e-12
        assert {row[4] for row in rows} == {"false"}
        # The uncertified cells are counted in the manifest and named on
        # stderr, so their verdicts do not pass unnoticed.
        uncertified = json.loads(Path(f"{out}.manifest.json").read_text())["cells"]["uncertified"]
        assert uncertified == sum(row[15] == "uncertified" for row in rows) > 0
        assert err == (
            f"warning: {uncertified} of 9 cells report an uncertified curve point"
            " (source 'uncertified'); their violated flags are not certified\n"
        )

    def test_manifest_counts_each_source(self, tmp_path, capsys):
        out = tmp_path / "hi.csv"
        code, _, err = run_cli(
            ["sweep", "--mode", "eta-s", "--xi", "5", "--eta", "0.5:1.0:3", "--s", "-1:0:2",
             "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        assert err == ""
        header = CSV_HEADER.split(",")
        sources = [dict(zip(header, line.split(",")))["source"]
                   for line in out.read_text().splitlines()[1:]]
        cells = json.loads(Path(f"{out}.manifest.json").read_text())["cells"]
        kinds = ("curve", "asymptote", "uncertified")
        assert {k: cells[k] for k in kinds} == {k: sources.count(k) for k in kinds}
        assert cells["curve"] == 4 and cells["asymptote"] == 2

    @pytest.mark.parametrize(
        "mode",
        [
            ["--mode", "eta-s", "--eta", "0.3:1:2", "--s", "0:0:1"],
            ["--mode", "thermal", "--r", "0:0.9:2", "--s", "0", "--nbar-list", "0"],
        ],
    )
    def test_non_finite_grad_norm_gives_a_null_maximum(self, mode, tmp_path, capsys):
        # One asymptote cell (grad_norm 0) and one overflowing cell
        # (grad_norm NaN), the NaN last in eta-s mode and first in thermal
        # mode: either way the maximum is null, and the CSV keeps nan.
        out = tmp_path / "far.csv"
        code, _, _ = run_cli(["sweep", "--xi", "354", *mode, "--out", str(out)], capsys)
        assert code == EXIT_OK
        header = CSV_HEADER.split(",")
        rows = [dict(zip(header, line.split(","))) for line in out.read_text().splitlines()[1:]]
        grad_norms = [row["grad_norm"] for row in rows]
        assert sorted(grad_norms) == ["0", "nan"]
        assert (grad_norms[0] == "nan") == (mode[1] == "thermal")
        manifest = strict_json(Path(f"{out}.manifest.json").read_text())
        assert manifest["cells"]["max_grad_norm"] is None

    def test_wall_time_stops_when_the_sweep_returns(self, tmp_path, capsys, monkeypatch):
        # The environment block is read after the clock stops: a slow one
        # does not show in wall_time_s.  Here the clock jumps by an hour
        # while it is read.
        environment = cli._environment
        perf_counter = time.perf_counter
        jump = [0.0]

        def slow_environment():
            jump[0] += 3600.0
            return environment()

        monkeypatch.setattr(cli, "_environment", slow_environment)
        monkeypatch.setattr(cli.time, "perf_counter", lambda: perf_counter() + jump[0])
        out = tmp_path / "run.csv"
        code, _, _ = run_cli(
            ["sweep", "--mode", "eta-s", "--xi", "0.3", "--s", "-1:0:2",
             "--eta", "0.5:1.0:2", "--out", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert jump[0] == 3600.0
        assert 0.0 < manifest["wall_time_s"] < 3600.0
        assert manifest["environment"] == environment()

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
        assert not {"n_starts", "box_radius", "seed", "ftol", "xtol"} & set(manifest)
        assert manifest["wall_time_s"] > 0.0
        assert manifest["checks"] == {"values_finite": True}
        # Each row says what its cell reports; the manifest counts them.
        # The asymptote cell (0.5, -1) reports c0 = 2 at its far point,
        # where B's gradient and Hessian are 0.
        header = CSV_HEADER.split(",")
        assert header[-3:] == ["source", "grad_norm", "hess_max"]
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [row["source"] for row in rows] == ["asymptote", "curve", "curve", "curve"]
        assert (rows[0]["bell_abs"], rows[0]["grad_norm"], rows[0]["hess_max"]) == ("2", "0", "0")
        assert all(float(row["grad_norm"]) <= 1e-9 for row in rows[1:])
        assert all(float(row["hess_max"]) < -1e-6 for row in rows[1:])
        assert manifest["cells"] == {
            "curve": 3,
            "asymptote": 1,
            "uncertified": 0,
            "max_grad_norm": max(float(row["grad_norm"]) for row in rows),
        }
        assert manifest["clamp_mode"] == "bounded_continuation"
        exp = np.lib.introspect.opt_func_info(func_name="^exp$", signature="float64")
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": "-".join(
                p for p in (platform.system(), platform.machine(), "".join(platform.libc_ver())) if p
            ),
            "exp_dispatch": exp["exp"]["dd"]["current"],
            "openblas_core": cli._openblas_core(),
        }

    def test_each_row_is_its_values_at_17_significant_digits(self):
        # Hand-built results from columns: an eta-s cell (empty nbar) and a
        # thermal cell, with a -0.0 setting, a nan hess_max and an
        # uncertified source.
        def hand_result(axis1, axis2, nbar, x, s_effective, value, source, grad_norm, hess_max):
            return SweepResult(
                np.array([axis1]), np.array([axis2]), None if nbar is None else np.array([nbar]),
                np.array([s_effective]), np.array([x], dtype=float), np.array([value]),
                np.array([source]), np.array([grad_norm]), np.array([hess_max]),
            )

        results = (
            hand_result(0.5, -0.1, None, (0.1, 0.2, -0.0, 1 / 3, 0, 0, 1e-300, -2.5),
                        -0.7, 2.0000000000000004, "curve", 1e-12, -0.1),
            hand_result(0.3, -1 / 3, 0.25, (-0.0, 7e22, -1 / 7, 0.3, 0.7, -0.1, 2 / 3, 0.3),
                        -1.1, -2.05, "uncertified", 3.2e-5, float("nan")),
        )
        rows = []
        for result in results:
            header, *body = cli._csv_rows(result)
            assert header == CSV_HEADER
            rows += body

        def g(v):
            return format(float(v), ".17g")

        for result, row in zip(results, rows):
            (cell,) = result.cells
            rep = cell.report
            assert row == ",".join([
                g(cell.axis1), g(cell.axis2), "" if cell.nbar is None else g(cell.nbar),
                g(rep.bell_abs), "true" if rep.violated else "false",
                "true" if rep.clamped else "false", g(rep.s_effective),
                *map(g, rep.settings.to_vector()),
                rep.meta["source"], g(rep.meta["grad_norm"]), g(rep.meta["hess_max"]),
            ])
            assert len(row.split(",")) == len(CSV_HEADER.split(","))
        assert rows == [
            "0.5,-0.10000000000000001,,2.0000000000000004,false,false,"
            "-0.69999999999999996,0.10000000000000001,0.20000000000000001,-0,"
            "0.33333333333333331,0,0,1e-300,-2.5,curve,9.9999999999999998e-13,"
            "-0.10000000000000001",
            "0.29999999999999999,-0.33333333333333331,0.25,2.0499999999999998,true,true,"
            "-1.1000000000000001,-0,7.0000000000000004e+22,-0.14285714285714285,"
            "0.29999999999999999,0.69999999999999996,-0.10000000000000001,"
            "0.66666666666666663,0.29999999999999999,uncertified,3.1999999999999999e-05,"
            "nan",
        ]

    def test_platform_leaves_out_the_kernel_release(self):
        # No value moves with the kernel release, so a kernel update on the
        # host that made the golden files leaves their exact route on.
        release = platform.release()
        assert not release or release not in cli._environment()["platform"]

    def test_environment_follows_the_kernels_in_use(self, monkeypatch):
        # OPENBLAS_CORETYPE picks the OpenBLAS core at load time, so a
        # fresh interpreter names the one it was given.
        if cli._openblas_core() == "unknown":
            pytest.skip("no numpy.libs OpenBLAS to ask")
        env = dict(
            os.environ,
            OPENBLAS_CORETYPE="Haswell",
            PYTHONPATH=str(Path(phasewitness.__file__).parents[1]),
        )
        run = subprocess.run(
            [sys.executable, "-c", "from phasewitness import cli; print(cli._openblas_core())"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert run.stdout.strip() == "Haswell"
        # Where either cannot be read, the key says so rather than failing.
        monkeypatch.setattr(np.lib.introspect, "opt_func_info", lambda **kw: {})
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: object())
        assert (cli._exp_dispatch(), cli._openblas_core()) == ("unknown", "unknown")

    def test_csv_bytes_do_not_depend_on_the_openblas_core(self, tmp_path):
        # No certificate calls LAPACK, so the README map's CSV is the same
        # bytes whichever core OpenBLAS runs its kernels for.
        if cli._openblas_core() == "unknown":
            pytest.skip("no numpy.libs OpenBLAS to ask")
        env = dict(os.environ, PYTHONPATH=str(Path(phasewitness.__file__).parents[1]))
        env.pop("OPENBLAS_CORETYPE", None)
        csvs = []
        for core in (None, "Haswell", "Prescott"):
            out = tmp_path / f"{core}.csv"
            subprocess.run(
                [sys.executable, "-m", "phasewitness", "sweep", "--mode", "eta-s", "--xi", "1.0",
                 "--eta", "0.3:1.0:36", "--s", "-1:0:21", "--out", str(out)],
                env=env if core is None else dict(env, OPENBLAS_CORETYPE=core),
                capture_output=True, check=True, timeout=120,
            )
            csvs.append(out.read_bytes())
        assert csvs[1] == csvs[0] and csvs[2] == csvs[0]

    def test_manifest_records_the_curve_solve(self, tmp_path, capsys, monkeypatch):
        # The curve_solve block reads search's constants when the sweep
        # runs: the full 5 x 5 seed grid is recorded as such, and writes
        # the same CSV as the 13 seeds.
        argv = ["sweep", "--mode", "eta-s", "--xi", "0.3", "--s", "-1:0:3",
                "--eta", "0.5:1.0:3"]
        axis = (-1.0, -0.5, 0.0, 0.5, 1.0)
        grid = np.array([(x, y) for x in axis for y in axis])
        outputs = []
        for seeds in (search._CURVE_SEEDS, grid):
            monkeypatch.setattr(search, "_CURVE_SEEDS", seeds)
            out = tmp_path / f"run{len(seeds)}.csv"
            code, _, _ = run_cli([*argv, "--out", str(out)], capsys)
            assert code == EXIT_OK
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            assert manifest["curve_solve"] == {
                "seeds": seeds.tolist(),
                "iterations": 15,
                "cert_grad_norm": 1e-9,
                "grad_norm_unit": "|c2*k2|*sqrt(1/v- + 1/v+)",
                "cert_hess_max": -1e-6,
                "hess_max_unit": "|c2*k2|*e1",
            }
            outputs.append(out.read_bytes())
        assert len(manifest["curve_solve"]["seeds"]) == 25
        assert outputs[0] == outputs[1]

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
        "grid, error",
        [
            (["--mode", "eta-s", "--eta", "1e-300", "--s", "-1"], OVERFLOWING_KEY),
            (["--mode", "thermal", "--r", "0.99999999", "--nbar-list", "1e300", "--s", "-1"],
             OVERFLOWING_KEY),
            (["--mode", "eta-s", "--eta", "1e-320", "--s", "-1"],
             "order parameter must be finite, got -inf for the detection-rescaled order"),
            (["--mode", "thermal", "--r", "0.9999999999999999", "--nbar-list", "1e307",
              "--s", "0"],
             "order parameter must be finite, got -inf for the thermally rescaled order"),
        ],
    )
    def test_overflowing_sweep_prints_only_the_error(self, tmp_path, grid, error):
        # A fresh interpreter, so that stderr is what a user sees: no
        # numpy warning ahead of the one error line, which the rescale gate
        # or the curve keys raise before any cell is optimized.
        env = dict(os.environ, PYTHONPATH=str(Path(phasewitness.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "phasewitness", "sweep", "--xi", "0.3", *grid,
             "--out", str(tmp_path / "o.csv")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == EXIT_USAGE
        assert re.fullmatch(f"error: {error}\n", run.stderr), run.stderr

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
    def test_unknown_suite_is_a_usage_error(self, capsys):
        code, _, err = run_cli(["validate", "--suite", "bogus"], capsys)
        assert code == EXIT_USAGE
        assert "'bogus'" in err and "thermal_convolution" in err

    def test_selected_suites_pass(self, capsys):
        code, out, _ = run_cli(
            ["validate", "--suite", "eigenvalue_bounds", "--suite", "multi_outcome_rescale"],
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
        code, out, _ = run_cli(["validate", "--suite", "witness_form_equivalence"], capsys)
        assert code == EXIT_VALIDATION
        assert "FAIL" in out

    def test_quick_is_refused(self, capsys):
        # The suites have one depth; a reduced one is no longer offered.
        code, out, err = run_cli(["validate", "--quick"], capsys)
        assert code == EXIT_USAGE
        assert "--quick" in err and out == ""
