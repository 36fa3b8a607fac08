"""Settings optimization and sweep drivers."""

from __future__ import annotations

import functools
import importlib.machinery
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

import oracles as orc
import phasewitness
from phasewitness import search, witness
from phasewitness.noise import DetectionNoise, ThermalNoise
from phasewitness.search import (
    CERT_GRAD_NORM,
    CERT_HESS_MAX,
    SearchConfig,
    SweepCell,
    SweepResult,
    grid_oracle,
    maximize_bell,
    optimize_cells,
    sweep_eta_s,
    sweep_thermal,
)
from phasewitness.states import TmsvSpec, tmsv_w1, tmsv_w2
from phasewitness.witness import (
    CLAMP_BOUNDED,
    CLAMP_FROZEN,
    CLAMP_LOSS_CHANNEL,
    BellSettings,
    WitnessReport,
    bell_value,
    detection_objective,
    thermal_objective,
)
from phasewitness.noise import evolve_thermal_w

# Exhaustive 41-point real-axis grid maxima (box 2.0) for the squeezed
# pair at xi = 0.3, base order 0.  Frozen from a separate scan; the grid
# step is 0.1, so the free optimizer may exceed them by up to the local
# curvature times (0.05)^2.
GOLDEN_41 = 2.1183507641707178
GOLDEN_41_SETTINGS = BellSettings(-0.1, 0.2, 0.0, 0.4)
GOLDEN_PEAK_41 = 2.2176954384983194
GOLDEN_PEAK_41_SETTINGS = BellSettings(-0.1, 0.4, -0.1, 0.5)

FAST = SearchConfig(n_starts=8, box_radius=2.0, ftol=1e-10, xtol=1e-6, seed=0)


def constant_objective(settings=None):
    # The key (cw, d1, c0, ...) = (0, 0, 1.5, ...) gives B = 1.5 everywhere.
    if settings is None:
        return 1.0, -0.5, (0.0, 0.0, 1.5, 1.0, 1.0, 1.0)
    return WitnessReport(settings, -0.5, 1.5)


class TestStarts:
    """``oracles._starts``: the starts of one multi-start TNC search."""

    def test_equal_for_equal_seed_and_stream(self):
        config = SearchConfig(n_starts=6, seed=3)
        assert np.array_equal(orc._starts(config, 2), orc._starts(config, 2))

    def test_each_seed_and_stream_has_its_own_starts(self):
        starts = {
            (seed, stream): orc._starts(SearchConfig(n_starts=4, seed=seed), stream)
            for seed, stream in itertools.product(range(4), repeat=2)
        }
        for (a, first), (b, second) in itertools.combinations(starts.items(), 2):
            assert not np.array_equal(first, second), (a, b)

    def test_layout(self):
        box = 1.5
        starts = orc._starts(SearchConfig(n_starts=7, seed=1, box_radius=box), 5)
        assert starts.shape == (7, 8)
        assert np.all(np.abs(starts) <= box)
        # The first half, rounded up, lies on the real axis; the rest do not.
        assert np.all(starts[:4, 1::2] == 0.0)
        assert np.all(starts[4:, 1::2] != 0.0)
        # Odd-index starts lie in the quarter box, and the even ones do not all.
        assert np.all(np.abs(starts[1::2]) <= box / 4)
        assert np.max(np.abs(starts[0::2])) > box / 4
        assert len({tuple(row) for row in starts.tolist()}) == 7

    def test_warm_starts_come_first_clipped(self):
        config = SearchConfig(n_starts=3, seed=2, box_radius=1.0)
        warm = [np.linspace(-3.0, 3.0, 8), [0.5] * 8]
        starts = orc._starts(config, 4, warm)
        assert starts.shape == (5, 8)
        assert np.array_equal(starts[0], np.clip(warm[0], -1.0, 1.0))
        assert np.array_equal(starts[1], warm[1])
        assert np.array_equal(starts[2:], orc._starts(config, 4))

    def test_huge_seed(self):
        starts = orc._starts(SearchConfig(n_starts=8, seed=2**40), 3)
        assert np.all(np.isfinite(starts))
        assert len({tuple(row) for row in starts.tolist()}) == 8
        assert not np.array_equal(starts, orc._starts(SearchConfig(n_starts=8, seed=2**40), 4))


class TestTncOracle:
    """``oracles.tnc_maximize``, the multi-start TNC search the solve is checked against."""

    def test_constant_objective_and_meta(self):
        report = orc.tnc_maximize(constant_objective, SearchConfig(n_starts=2, seed=1))
        assert report.bell_abs == 1.5
        assert report.meta["n_starts"] == 2
        assert report.meta["stream"] == 0
        assert report.meta["unconverged_starts"] == 0
        assert report.meta["n_evals"] > 0
        assert report.meta["grad_norm"] == 0.0

    def test_every_evaluation_goes_through_the_objective(self, monkeypatch):
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
        calls = []
        real = orc.value_and_gradient

        def counting(*args):
            calls.append("report" if args else "key")
            return objective(*args)

        def gradient(lift, key, x):
            calls.append("gradient")
            assert (lift, key) == objective()[::2]
            return real(lift, key, x)

        monkeypatch.setattr(orc, "value_and_gradient", gradient)
        report = orc.tnc_maximize(counting, FAST)
        # One key read, every search evaluation, and the report of the
        # winning point.
        assert len(calls) == report.meta["n_evals"] + 2
        assert calls.count("gradient") == report.meta["n_evals"]
        assert calls.count("key") == calls.count("report") == 1
        assert (calls[0], calls[-1]) == ("key", "report")
        assert report.meta["unconverged_starts"] == 0
        assert report.meta["grad_norm"] <= 1e-6

    def test_benchmark_map_cell_reaches_its_optimum(self):
        # The (eta, s) = (0.5, -0.8) cell of the 8 x 6 benchmark map at
        # xi = 0.3 is cell 13; 8-D Nelder-Mead stopped there at 1.925372.
        objective = detection_objective(TmsvSpec(0.3), -0.8, DetectionNoise(0.5))
        report = orc.tnc_maximize(objective, SearchConfig(n_starts=8, seed=1), stream=13)
        (solved,) = search.optimize_cells([objective])
        assert report.bell_abs >= 1.925494670
        assert solved.bell_abs >= report.bell_abs - 1e-9

    def test_separable_state_never_beats_two(self):
        objective = detection_objective(TmsvSpec(0.0), -1.0, DetectionNoise(1.0))
        report = orc.tnc_maximize(
            objective,
            SearchConfig(n_starts=4, seed=2),
            extra_starts=[(0.0,) * 8],
        )
        assert report.bell_abs <= 2.0 + 1e-9
        assert report.bell_abs >= 2.0 - 1e-9

    def test_bitwise_determinism(self):
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.8))
        config = SearchConfig(n_starts=4, seed=5)
        first = orc.tnc_maximize(objective, config, stream=3)
        second = orc.tnc_maximize(objective, config, stream=3)
        assert first.bell_value == second.bell_value
        assert first.settings.to_vector() == second.settings.to_vector()
        assert first.meta["stream"] == 3

    def test_warm_start_is_never_lost(self):
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
        warm = GOLDEN_PEAK_41_SETTINGS.to_vector()
        report = orc.tnc_maximize(
            objective, SearchConfig(n_starts=1, seed=0), extra_starts=[warm]
        )
        assert report.bell_abs >= objective(GOLDEN_PEAK_41_SETTINGS).bell_abs - 1e-10

    def test_dominates_grid_oracle(self):
        # The grid scan bounds the search from below, and the search the
        # curve solve.
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.6))
        grid = grid_oracle(objective, 1.2, 9)
        report = orc.tnc_maximize(objective, FAST)
        (solved,) = search.optimize_cells([objective])
        assert report.bell_abs >= grid.bell_abs - 1e-9
        assert solved.bell_abs >= report.bell_abs - 1e-9

    def test_reproduces_frozen_grid_maximum(self):
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(1.0))
        assert objective(GOLDEN_41_SETTINGS).bell_abs == pytest.approx(
            GOLDEN_41, abs=1e-12
        )
        report = orc.tnc_maximize(objective, FAST)
        assert report.bell_abs >= GOLDEN_41 - 1e-9
        assert abs(report.bell_abs - GOLDEN_41) <= 0.02

    def test_reproduces_frozen_peak_cell(self):
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
        assert objective(GOLDEN_PEAK_41_SETTINGS).bell_abs == pytest.approx(
            GOLDEN_PEAK_41, abs=1e-12
        )
        report = orc.tnc_maximize(objective, FAST)
        assert report.bell_abs >= GOLDEN_PEAK_41 - 1e-9
        assert abs(report.bell_abs - GOLDEN_PEAK_41) <= 0.01

    def test_known_thermal_violation_and_loss_of_it(self):
        spec = TmsvSpec(0.3)
        objectives = [
            thermal_objective(spec, 0.0, ThermalNoise(0.75, 0.0)),
            thermal_objective(spec, 0.0, ThermalNoise(0.6, 2.0)),
        ]
        hot, cold = (orc.tnc_maximize(objective, FAST) for objective in objectives)
        assert hot.violated
        assert hot.clamped
        assert not cold.violated
        for report, solved in zip((hot, cold), search.optimize_cells(objectives)):
            assert solved.violated == report.violated
            assert solved.bell_abs >= report.bell_abs - 1e-9

    def test_objective_error_surfaces(self, monkeypatch):
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
        calls = 0
        real = orc.value_and_gradient

        def failing(lift, key, x):
            nonlocal calls
            calls += 1
            if calls == 5:
                raise ValueError("witness value is NaN")
            return real(lift, key, x)

        monkeypatch.setattr(orc, "value_and_gradient", failing)
        with pytest.raises(ValueError, match="NaN"):
            orc.tnc_maximize(objective, SearchConfig(n_starts=2, seed=0))
        assert calls == 5


def shim_objectives():
    """One cell of each ``source``, under both noise models and two clamp rules."""
    spec = TmsvSpec(0.3)
    return [
        detection_objective(spec, 0.0, DetectionNoise(0.5)),
        detection_objective(TmsvSpec(0.0), 0.0, DetectionNoise(1.0)),
        detection_objective(TmsvSpec(0.0), -0.75, DetectionNoise(0.3)),
        detection_objective(spec, -0.5, DetectionNoise(0.4), clamp_mode=CLAMP_FROZEN),
        thermal_objective(spec, 0.0, ThermalNoise(0.75, 0.5)),
    ]


class TestMaximizeBell:
    """``search.maximize_bell``: the one-cell curve solve under the name perfbench calls."""

    def test_report_is_the_one_cell_solve(self):
        for objective in shim_objectives():
            report = maximize_bell(objective, FAST)
            (solved,) = search.optimize_cells([objective])
            assert report.settings.to_vector() == solved.settings.to_vector()
            assert report.s_effective == solved.s_effective
            assert report.bell_value == solved.bell_value
            assert {key: report.meta[key] for key in solved.meta} == solved.meta

    def test_config_stream_and_starts_change_nothing(self):
        objective = shim_objectives()[-1]
        configs = [SearchConfig(), SearchConfig(2, 8.0, 1e-3, 1e-2, 7), FAST]
        streams, starts = [0, 5, 3], [(), (), [(0.5,) * 8, (0.0,) * 8]]
        reports = [maximize_bell(objective, *call) for call in zip(configs, streams, starts)]
        first = reports[0]
        for report in reports[1:]:
            assert report.settings.to_vector() == first.settings.to_vector()
            assert report.bell_value == first.bell_value
            for key in ("source", "grad_norm", "hess_max", "n_evals", "unconverged_starts"):
                assert report.meta[key] == first.meta[key], key

    def test_objective_is_called_once_with_no_argument(self):
        objective = shim_objectives()[-1]
        calls = []

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return objective(*args, **kwargs)

        maximize_bell(counting, FAST, 2, [(0.0,) * 8])
        assert calls == [((), {})]

    def test_meta_keys(self):
        sources = []
        for objective in shim_objectives():
            meta = maximize_bell(objective, SearchConfig(n_starts=5), np.int64(4)).meta
            assert list(meta) == [
                "source", "grad_norm", "hess_max", "n_evals", "n_starts",
                "unconverged_starts", "stream",
            ]
            assert (meta["n_evals"], meta["n_starts"], meta["stream"]) == (0, 5, 4)
            assert meta["unconverged_starts"] == int(meta["source"] == "uncertified")
            assert type(meta["stream"]) is int and type(meta["unconverged_starts"]) is int
            sources.append(meta["source"])
        assert set(sources) == {"curve", "asymptote", "uncertified"}


class TestGridOracle:
    def test_point_count_validation(self):
        with pytest.raises(ValueError):
            grid_oracle(constant_objective, 1.0, 2)

    def test_point_count_must_be_an_integer(self):
        # int() would truncate 3.5 to 3.
        with pytest.raises(ValueError, match="points_per_axis must be an integer"):
            grid_oracle(constant_objective, 1.0, 3.5)

    @pytest.mark.parametrize("points", [3, np.int64(3)])
    def test_integral_point_counts_are_admitted(self, points):
        calls = []

        def objective(settings):
            calls.append(settings)
            return constant_objective(settings)

        grid_oracle(objective, 1.0, points)
        assert len(calls) == 3**4

    def test_degenerate_box_evaluates_origin(self):
        objective = detection_objective(TmsvSpec(0.0), -1.0, DetectionNoise(1.0))
        report = grid_oracle(objective, 0.0, 5)
        assert report.settings == BellSettings(0.0, 0.0, 0.0, 0.0)
        assert report.bell_abs == pytest.approx(2.0, abs=1e-12)


#: The 100000 x 100000 eta-s sweep under a 3 GB address-space limit; prints
#: what it raised and how many times ``witness._rescaled`` ran first.
HUGE_SWEEP_SCRIPT = """
import resource
limit = 3 * 10**9
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
import numpy as np
from phasewitness import search, states, witness
calls = []
rescaled = witness._rescaled
witness._rescaled = lambda *args: calls.append(1) or rescaled(*args)
grids = np.linspace(0.3, 1, 100000), np.linspace(-1, 0, 100000)
try:
    search.sweep_eta_s(states.TmsvSpec(0.3), *grids)
except MemoryError:
    print("MemoryError", len(calls))
"""


class TestSweeps:
    def test_grid_validation(self):
        spec = TmsvSpec(0.3)
        # A grid is checked for shape, then its values, each once.
        with pytest.raises(ValueError, match="eta grid must be one-dimensional"):
            sweep_eta_s(spec, [[0.5, 0.6]], [0.0])
        with pytest.raises(ValueError, match="s grid must be one-dimensional"):
            sweep_eta_s(spec, [0.5], [[0.0], [-0.5]])
        with pytest.raises(ValueError, match="eta grid is empty"):
            sweep_eta_s(spec, [], [0.0])
        with pytest.raises(ValueError, match="eta grid must be non-decreasing"):
            sweep_eta_s(spec, [0.9, 0.5], [0.0])
        with pytest.raises(ValueError, match="detection efficiency eta"):
            sweep_eta_s(spec, [0.0, 0.5], [0.0])
        with pytest.raises(ValueError, match="order parameter 0.2"):
            sweep_eta_s(spec, [0.5], [0.2])
        with pytest.raises(ValueError, match="reflectivity r"):
            sweep_thermal(spec, [0.5, 1.0], [0.0], [0.0])
        with pytest.raises(ValueError, match="r grid must be one-dimensional"):
            sweep_thermal(spec, [[0.5]], [0.0], [0.0])
        with pytest.raises(ValueError, match="nbar_list must be one-dimensional"):
            sweep_thermal(spec, [0.5], [0.0], [[0, 1]])
        with pytest.raises(ValueError, match="nbar_list must be non-empty"):
            sweep_thermal(spec, [0.5], [0.0], [])
        with pytest.raises(ValueError, match="mean photon number nbar"):
            sweep_thermal(spec, [0.5], [0.0], [-0.1])

    def test_sweep_too_large_for_memory_fails_before_any_noise_is_read(self):
        # In a child capped at 3 GB of address space: the 10^10-cell map's
        # (s', lift, transmission) table is refused before one noise rescales.
        env = dict(os.environ, PYTHONPATH=str(Path(phasewitness.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        run = subprocess.run(
            [sys.executable, "-c", HUGE_SWEEP_SCRIPT], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["MemoryError", "0"]

    def test_result_fields(self):
        spec = TmsvSpec(0.3)
        res = sweep_eta_s(spec, [0.5], [0.0])
        assert isinstance(res, SweepResult)
        cell = res.cells[0]
        assert isinstance(cell, SweepCell)
        assert cell.nbar is None
        thermal = sweep_thermal(spec, [0.4], [0.0], [0.7])
        assert thermal.cells[0].nbar == 0.7

    def test_ignored_max_workers_gives_the_same_cells(self):
        # The benchmark's in-process map passes a SearchConfig and
        # max_workers=1; keep both accepted until it stops passing them.
        spec = TmsvSpec(0.3)
        grids = ([0.3, 0.65, 1.0], [-1.0, 0.0])
        given = sweep_eta_s(spec, *grids, SearchConfig(n_starts=2, seed=1), max_workers=1).cells
        plain = sweep_eta_s(spec, *grids).cells
        assert given == plain
        assert [c.report.meta for c in given] == [c.report.meta for c in plain]

    @pytest.mark.kernels
    @pytest.mark.parametrize("mode", ["eta-s", "thermal"])
    def test_cells_are_optimize_cells_of_each_cells_objective(self, mode):
        # The README map at xi = 0.3, or a thermal grid with nbar > 0: each
        # cell of the column pass is optimize_cells' report of the cell's
        # own objective, bit for bit, meta included.
        spec = TmsvSpec(0.3)
        s_grid = np.linspace(-1.0, 0.0, 21)
        if mode == "eta-s":
            eta_grid = np.linspace(0.3, 1.0, 36)
            result = sweep_eta_s(spec, eta_grid, s_grid)
            axes = [(eta, s, None) for eta, s in itertools.product(eta_grid, s_grid)]
            objectives = [detection_objective(spec, s, DetectionNoise(eta)) for eta, s, _ in axes]
        else:
            r_grid, nbars = np.linspace(0.0, 0.94, 20), (0.0, 0.5, 2.0)
            result = sweep_thermal(spec, r_grid, s_grid, nbars)
            axes = [(r, s, nbar) for nbar, r, s in itertools.product(nbars, r_grid, s_grid)]
            objectives = [thermal_objective(spec, s, ThermalNoise(r, nbar)) for r, s, nbar in axes]

        def bits(report):
            meta = report.meta
            numbers = (*report.settings.to_vector(), report.s_effective, report.bell_value,
                       meta["grad_norm"], meta["hess_max"])
            return [float.hex(v) for v in numbers] + [meta["source"], sorted(meta)]

        reports = optimize_cells(objectives)
        assert [(c.axis1, c.axis2, c.nbar) for c in result.cells] == axes
        assert [bits(c.report) for c in result.cells] == [bits(r) for r in reports]

    def test_zero_time_thermal_equals_perfect_detection(self):
        spec = TmsvSpec(0.3)
        thermal = sweep_thermal(spec, [0.0], [-0.5], [0.0])
        detect = sweep_eta_s(spec, [1.0], [-0.5])
        assert thermal.cells[0].report == detect.cells[0].report
        assert thermal.cells[0].report.meta == detect.cells[0].report.meta


def family_point(x, y, sigma, lift=1.0):
    """The raw 8-vector of the real symmetric family at (x, y) in the field frame."""
    return (x * lift, 0.0, y * lift, 0.0, sigma * x * lift, 0.0, sigma * y * lift, 0.0)


def gauge_rotated(x, phi):
    """The settings 8-vector with a -> a e^{i phi} and b -> b e^{-i phi}."""
    s = BellSettings.from_vector(x)
    turn = complex(np.cos(phi), np.sin(phi))
    return BellSettings(s.a1 * turn, s.a2 * turn, s.b1 / turn, s.b2 / turn).to_vector()


def constants_of(objective):
    """The curve-key constants of ``objective``, one row."""
    return np.array([objective()[2]])


def mixed_keys():
    """Curve keys at xi 0.3 to 4: detection cells under two rules and thermal cells."""
    keys = []
    for xi in (0.3, 1.0, 1.5, 4.0):
        spec = TmsvSpec(xi)
        for eta, s in itertools.product((0.3, 0.6, 1.0), (-1.0, -0.4, 0.0)):
            keys.append(detection_objective(spec, s, DetectionNoise(eta))()[2])
            keys.append(detection_objective(spec, s, DetectionNoise(eta), CLAMP_FROZEN)()[2])
        for r, nbar, s in itertools.product((0.2, 0.6, 0.9), (0.0, 1.0), (-0.5, 0.0)):
            keys.append(thermal_objective(spec, s, ThermalNoise(r, nbar))()[2])
    return np.array(keys)


def gate_grid_objectives(spec, rule):
    """The README map (eta 0.3:1:36, s -1:0:21) and the thermal gate grid
    (r 0:0.94:48, s -1:0:6, nbar 0, 0.5 and 2, or 0 alone under the
    loss-channel rule)."""
    objectives = [
        detection_objective(spec, s, DetectionNoise(eta), rule)
        for eta, s in itertools.product(np.linspace(0.3, 1.0, 36), np.linspace(-1.0, 0.0, 21))
    ]
    nbars = (0.0,) if rule == CLAMP_LOSS_CHANNEL else (0.0, 0.5, 2.0)
    grid = itertools.product(nbars, np.linspace(0.0, 0.94, 48), np.linspace(-1.0, 0.0, 6))
    objectives += [thermal_objective(spec, s, ThermalNoise(r, nbar), rule) for nbar, r, s in grid]
    return objectives


@functools.cache
def gate_grid_rows(xi):
    """The distinct curve keys of the gate grids at xi, every clamp rule, and their curve points."""
    rules = (CLAMP_BOUNDED, CLAMP_FROZEN, CLAMP_LOSS_CHANNEL)
    objectives = [o for rule in rules for o in gate_grid_objectives(TmsvSpec(xi), rule)]
    keys = np.unique([objective()[2] for objective in objectives], axis=0)
    points = search._solve_curve(keys)
    keys.flags.writeable = points.flags.writeable = False
    return keys, points


#: Columns of the block basis: each moves two raw coordinates by 1, real
#: or imaginary, with da = db or da = -db, on mode 1 then mode 2, in the
#: block order R+, R-, I+, I-.
BLOCK_BASIS = np.array(
    [
        family_point(x, y, sigma) if part == 0 else np.roll(family_point(x, y, sigma), 1)
        for part, sigma in ((0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0))
        for x, y in ((1.0, 0.0), (0.0, 1.0))
    ]
).T
#: The turn of the R- and I+ blocks onto the mode sum and difference
#: (m1 +- m2) / sqrt 2, the basis ``witness._family_blocks`` gives them in.
BLOCK_TURN = np.eye(8)
BLOCK_TURN[2:6, 2:6] = np.kron(np.eye(2), math.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]]))


def row_bytes(keys):
    """The bytes of every distinct key row's reported point, B, source and certificate."""
    points, values, sources, grad_norms, hess_maxes = search._row_reports(keys)
    return (
        points.tobytes(), values.tobytes(), sources.tolist(),
        grad_norms.tobytes(), hess_maxes.tobytes(),
    )


def assert_oracle_rows(keys):
    """The 13-entry solve reports each distinct key row as the 52-entry oracle does.

    The oracle's 39 other entries can reach a larger |B| where |c0| wins
    and the row reports its far point, so the rows are compared as
    reported: point, B, source, grad_norm and hess_max.
    """
    rows = np.unique(keys, axis=0)
    with pytest.MonkeyPatch.context() as patch:
        # The oracle's points can lie on b = -a, which the block
        # certificate does not read; both runs take the 8 x 8 certificate.
        patch.setattr(search, "_certificates", orc.certificates)
        pruned = row_bytes(rows)
        patch.setattr(search, "_solve_curve", orc.curve_solve_52)
        assert row_bytes(rows) == pruned


class TestCurve:
    """The one curve solve over the curve keys, its certificate and the asymptote."""

    def test_family_matches_the_objective(self):
        # Each objective's curve key (lift, constants) describes it on the
        # family, the loss-channel rule (lift sqrt(g)) included.  The
        # family's B, gradient and Hessian are also the oracle's 8 x 8 form's,
        # contracted on the family directions, to rounding.  The family
        # b = -a, which only the 52-entry oracle solve runs, is checked
        # through the oracle's own terms.
        spec = TmsvSpec(0.3)
        detect, hot = DetectionNoise(0.45), ThermalNoise(0.6, 1.0)
        cases = [
            (detection_objective(TmsvSpec(1.5), -0.3, DetectionNoise(0.8)), 1.0),
            (thermal_objective(TmsvSpec(5.0), -0.4, ThermalNoise(0.3, 0.5)), math.sqrt(0.91)),
            (detection_objective(spec, -0.2, detect), 1.0),
            (detection_objective(spec, -0.9, detect), 1.0),
            (detection_objective(spec, -0.1, DetectionNoise(1.0)), 1.0),
            (thermal_objective(spec, -0.5, hot), hot.t),
            (
                detection_objective(spec, -0.5, DetectionNoise(0.4), CLAMP_LOSS_CHANNEL),
                math.sqrt(0.4),
            ),
            (
                thermal_objective(spec, -0.2, ThermalNoise(0.9, 0.0), CLAMP_LOSS_CHANNEL),
                math.sqrt(1.0 - 0.9 * 0.9),
            ),
        ]
        h = 1e-5
        for objective, expected_lift in cases:
            lift, _, constants = objective()
            assert lift == expected_lift
            for sigma in (1.0, -1.0):
                terms = orc.family_terms(constants, sigma)
                directions = np.array([family_point(1.0, 0.0, sigma), family_point(0.0, 1.0, sigma)])

                def projected(x, y):
                    point = family_point(x, y, sigma, lift)
                    _, g = orc.value_and_gradient(lift, constants, point)
                    return np.array([g[0] + sigma * g[4], g[2] + sigma * g[6]]) * lift

                for x, y in [(0.3, -0.4), (-0.7, 0.2), (0.05, 1.1)]:
                    value, bx, by, hxx, hxy, hyy = witness._family(terms, x, y)
                    batched = orc.tmsv_derivatives(constants, family_point(x, y, sigma))
                    assert value == pytest.approx(batched[0][0], rel=1e-12)
                    assert [bx, by] == pytest.approx(directions @ batched[1][0], rel=1e-12)
                    contracted = directions @ batched[2][0] @ directions.T
                    assert [hxx, hxy, hyy] == pytest.approx(contracted.flat[[0, 1, 3]], rel=1e-12)
                    b = objective(BellSettings.from_vector(family_point(x, y, sigma, lift)))
                    assert value == pytest.approx(b.bell_value, abs=1e-13)
                    assert np.array([bx, by]) == pytest.approx(projected(x, y), abs=1e-13)
                    d_x = (projected(x + h, y) - projected(x - h, y)) / (2.0 * h)
                    d_y = (projected(x, y + h) - projected(x, y - h)) / (2.0 * h)
                    assert [hxx, hxy] == pytest.approx(d_x, abs=1e-7)
                    assert [hxy, hyy] == pytest.approx(d_y, abs=1e-7)

    def test_half_seed_set_gives_the_full_grid_rows(self, monkeypatch):
        # Every step of the solve commutes with (x, y) -> (-x, -y), and the
        # argmax takes the first of equal |B|, so the 12 mirrored seeds of
        # the 5 x 5 grid change no row's bits.
        keys = mixed_keys()
        axis = np.linspace(-1.0, 1.0, 5)
        grid = np.array([(x, y) for x in axis for y in axis])
        assert search._CURVE_SEEDS.tobytes() == grid[:13].tobytes()
        half = search._solve_curve(keys)
        monkeypatch.setattr(search, "_CURVE_SEEDS", grid)
        assert half.tobytes() == search._solve_curve(keys).tobytes()

    def test_block_size_changes_no_row(self, monkeypatch):
        # The solve runs over blocks of _CURVE_BLOCK distinct keys; a key's
        # row is the same bytes whichever keys share its block.
        keys = np.unique(mixed_keys(), axis=0)
        expected = row_bytes(keys)
        for block in (1, 7):
            monkeypatch.setattr(search, "_CURVE_BLOCK", block)
            assert row_bytes(keys) == expected

    @pytest.mark.kernels
    def test_gate_grid_rows_are_the_52_entry_oracle_rows(self):
        # The README detection grid and the thermal gate grid at xi = 0.3
        # and 5 under every clamp rule: 5003 distinct keys.
        assert_oracle_rows(np.concatenate([gate_grid_rows(xi)[0] for xi in (0.3, 5.0)]))

    @pytest.mark.kernels
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 12.0),
                st.floats(-8.0, 0.0),
                st.sampled_from((CLAMP_BOUNDED, CLAMP_FROZEN, CLAMP_LOSS_CHANNEL)),
                st.floats(0.05, 1.0),
            ),
            min_size=1,
            max_size=32,
        )
    )
    @hsettings(max_examples=10)
    def test_sampled_rows_are_the_52_entry_oracle_rows(self, cells):
        # Keys at any squeezing and rescaled order s', under each rule.  A
        # thermal key is the detection key at the same s' (only the lift
        # differs, which the solve never reads); the loss-channel rule reads
        # its fields at transmission g, with lift sqrt(g).
        keys = [
            witness._curve_keys(xi, s_prime, math.sqrt(g), g, rule)[1][0]
            for xi, s_prime, rule, g in cells
        ]
        assert_oracle_rows(keys)

    def test_moved_point_fails_its_certificate(self):
        spec = TmsvSpec(0.3)
        objective = detection_objective(spec, 0.0, DetectionNoise(0.5))
        report = sweep_eta_s(spec, [0.5], [0.0]).cells[0].report
        assert report.meta["source"] == "curve"
        x = np.array(report.settings.to_vector())
        # The block certificate at the optimum, and at the optimum moved
        # along the family in x and in y.
        along = [x, x + 1e-3 * BLOCK_BASIS[:, 0], x + 1e-3 * BLOCK_BASIS[:, 1]]
        values, grad_norms, hess_maxes = search._certificates(
            np.repeat(constants_of(objective), len(along), axis=0), along
        )
        assert values[0] == pytest.approx(report.bell_value, abs=1e-14)
        assert (grad_norms[0], hess_maxes[0]) == (report.meta["grad_norm"], report.meta["hess_max"])
        assert grad_norms[0] <= CERT_GRAD_NORM and hess_maxes[0] < CERT_HESS_MAX
        assert all(grad_norm > CERT_GRAD_NORM for grad_norm in grad_norms[1:])
        # The oracle's 8 x 8 certificate in one batch: the optimum, the
        # optimum turned along the gauge, and the optimum moved off it, and
        # off the family, in three directions.
        gauge = np.array(gauge_rotated(x, 1e-6)) - x
        rng = np.random.default_rng(4)
        moved = []
        for direction in [np.eye(8)[0], np.eye(8)[5], rng.normal(size=8)]:
            direction = direction - gauge * (direction @ gauge) / (gauge @ gauge)
            moved.append(x + 1e-3 * direction / np.linalg.norm(direction))
        points = [x, gauge_rotated(x, 1e-3), *moved]
        values, grad_norms, hess_maxes = orc.certificates(
            np.repeat(constants_of(objective), len(points), axis=0), points
        )
        assert values[0] == pytest.approx(report.bell_value, abs=1e-14)
        assert grad_norms[0] == pytest.approx(report.meta["grad_norm"], abs=1e-15)
        assert hess_maxes[0] == pytest.approx(report.meta["hess_max"], rel=1e-12)
        assert grad_norms[0] <= CERT_GRAD_NORM and hess_maxes[0] < CERT_HESS_MAX
        # B is constant along the gauge, so a turned optimum stays certified.
        assert grad_norms[1] <= CERT_GRAD_NORM and hess_maxes[1] < CERT_HESS_MAX
        assert all(grad_norm > CERT_GRAD_NORM for grad_norm in grad_norms[2:])

    def test_certificate_is_relative(self):
        # Scaling c2 k2, 2 c1 k1 and c0 by 4 scales B, its gradient and its
        # Hessian by 4, and their units with them; 1/v-, 1/v+ and e1 times 4
        # put the peak at half its length, with B the same at the halved
        # point.  Either way the certificate's numbers stay.
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
        constants = constants_of(objective)
        report = sweep_eta_s(TmsvSpec(0.3), [0.5], [0.0]).cells[0].report
        point = np.array(report.settings.to_vector())
        value, grad_norm, hess_max = search._certificates(constants, [point])
        for factors, x, scale in (
            ([4.0, 4.0, 4.0, 1, 1, 1], point, 4.0),
            ([1, 1, 1, 4.0, 4.0, 4.0], point / 2.0, 1.0),
        ):
            moved = search._certificates(constants * factors, [x])
            assert moved[0][0] == pytest.approx(scale * value[0], rel=1e-14)
            assert moved[1][0] == pytest.approx(grad_norm[0], abs=1e-15)
            assert moved[2][0] == pytest.approx(hess_max[0], rel=1e-12)

    def test_certificate_next_to_the_origin(self):
        # A curve row can converge to within 1e-303 of the origin.  Its
        # gauge direction must not underflow.  At the origin there is no
        # gauge direction, and the Hessian commutes with the gauge, so the
        # imaginary a = -b block keeps both eigenvalues and the largest
        # eigenvalue is that of the whole 8 x 8 Hessian.
        objective = detection_objective(TmsvSpec(0.3), -0.6, DetectionNoise(0.3))
        constants = constants_of(objective)
        tiny = family_point(-3.6e-304, -2.9e-303, 1.0)
        _, grad_norms, hess_maxes = search._certificates(
            np.repeat(constants, 2, axis=0), [(0.0,) * 8, tiny]
        )
        assert grad_norms[1] <= 1e-300
        assert hess_maxes[1] == pytest.approx(hess_maxes[0], rel=1e-12)
        # The full 8 x 8 spectrum at the origin has the same top eigenvalue,
        # in units of |c2 k2| e1.
        value, _, hess = orc.tmsv_derivatives(constants, [(0.0,) * 8])
        assert np.sign(value[0]) == np.sign(objective(BellSettings(0, 0, 0, 0)).bell_value)
        top = np.linalg.eigvalsh(np.sign(value[0]) * hess[0])[-1]
        cw, _, _, _, _, e1 = constants[0]
        assert hess_maxes[0] == pytest.approx(top / abs(cw * e1), rel=1e-12)

    def test_non_finite_hessian_certifies_nothing(self, monkeypatch):
        # The closed-form top eigenvalue of a 2 x 2 block with an infinite
        # entry can be finite, so the certificate itself must turn any
        # non-finite block entry into a NaN hess_max.
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
        point = sweep_eta_s(TmsvSpec(0.3), [0.5], [0.0]).cells[0].report.settings.to_vector()
        blocks = witness._family_blocks
        for block, entry, bad in itertools.product(range(3), range(3), (np.nan, np.inf, -np.inf)):

            def broken(terms, x, y):
                entries = [list(b) for b in blocks(terms, x, y)]
                entries[block][entry] = np.full_like(x, bad)
                return entries

            monkeypatch.setattr(search, "_family_blocks", broken)
            _, grad_norm, hess_max = search._certificates(constants_of(objective), [point])
            assert grad_norm[0] <= CERT_GRAD_NORM and math.isnan(hess_max[0])

    def test_one_row_certificate_is_the_batch_row(self):
        # A row's certificate does not depend on the other rows of its batch.
        spec = TmsvSpec(0.3)
        objectives = [
            detection_objective(spec, 0.0, DetectionNoise(0.5)),
            thermal_objective(spec, -0.2, ThermalNoise(0.6, 1.0)),
            detection_objective(spec, -0.5, DetectionNoise(0.4), CLAMP_LOSS_CHANNEL),
        ]
        keys = np.concatenate([constants_of(objective) for objective in objectives])
        xy = np.random.default_rng(7).uniform(-1.0, 1.0, (3, 2))
        points = np.array([family_point(x, y, 1.0) for x, y in xy])
        batch = search._certificates(keys, points)
        for i in range(len(objectives)):
            alone = search._certificates(keys[i : i + 1], points[i : i + 1])
            assert [a[0] for a in alone] == [b[i] for b in batch]

    @pytest.mark.kernels
    def test_blocks_are_the_oracle_hessian_blocks(self):
        # On the gate-grid optima at xi = 0.3, 1 and 2, and on those points
        # scaled along the family by U[0.5, 1.5], the oracle's 8 x 8
        # Hessian in the block basis is the four blocks and zeros, and its
        # gradient there is (Bx, By) on the real a = b block and zeros.
        rng = np.random.default_rng(12)
        for xi in (0.3, 1.0, 2.0):
            keys, optima = gate_grid_rows(xi)
            for points in (optima, optima * rng.uniform(0.5, 1.5, (len(optima), 1))):
                finite = np.isfinite(points).all(axis=1)
                keys_f, points_f = keys[finite], points[finite]
                x, y = points_f[:, 0], points_f[:, 2]
                value, bx, by, *plus = witness._family(keys_f.T, x, y)
                blocks = [plus, *witness._family_blocks(keys_f.T, x, y)]
                expected = np.zeros((len(x), 8, 8))
                for b, (h11, h12, h22) in enumerate(blocks):
                    i = 2 * b
                    expected[:, i, i], expected[:, i + 1, i + 1] = h11, h22
                    expected[:, i, i + 1] = expected[:, i + 1, i] = h12
                six, grad, hess = orc.tmsv_derivatives(keys_f, points_f)
                rotated = BLOCK_TURN.T @ (BLOCK_BASIS.T @ hess @ BLOCK_BASIS) @ BLOCK_TURN
                scale = np.abs(rotated).max(axis=(1, 2))
                assert np.all(np.abs(rotated - expected).max(axis=(1, 2)) <= 1e-12 * scale)
                off_block = np.kron(np.eye(4), np.ones((2, 2))) == 0.0
                assert not rotated[:, off_block].any()
                along = grad @ BLOCK_BASIS
                assert not along[:, 2:].any()
                grad_unit = witness._key_scales(keys_f)[1]
                assert np.all(np.abs(along[:, 0] - bx) <= 1e-13 * grad_unit)
                assert np.all(np.abs(along[:, 1] - by) <= 1e-13 * grad_unit)
                assert np.abs(value - six).max() <= 1e-14

    @pytest.mark.kernels
    def test_phase_direction_is_a_null_vector_at_certified_optima(self):
        # B is constant along the phase turn, whose tangent is (x, y) in the
        # imaginary a = -b block; at a stationary point that block maps it to 0.
        for xi in (0.3, 1.0, 2.0, 5.0):
            keys, _ = gate_grid_rows(xi)
            points, _, sources, _, _ = search._row_reports(keys)
            curve = sources == "curve"
            assert curve.sum() > 900
            x, y = points[curve, 0], points[curve, 2]
            _, _, (h11, h12, h22) = witness._family_blocks(keys[curve].T, x, y)
            scale = np.maximum.reduce([abs(h11), abs(h12), abs(h22)]) * np.maximum(abs(x), abs(y))
            image = np.maximum(abs(h11 * x + h12 * y), abs(h12 * x + h22 * y))
            assert np.all(image <= 1e-12 * scale)

    @pytest.mark.kernels
    def test_certified_flags_are_the_oracle_certificates(self):
        # On the gate grids up to xi = 8, under every clamp rule, each curve
        # point certifies under the blocks exactly where it certifies under
        # the 8 x 8 oracle, whose eigvalsh loses digits as xi grows.
        for xi in (0.3, 1.0, 2.0, 5.0, 8.0):
            keys, points = gate_grid_rows(xi)
            _, grad_norms, hess_maxes = search._certificates(keys, points)
            _, oracle_grad, oracle_hess = orc.certificates(keys, points)
            certified = (grad_norms <= CERT_GRAD_NORM) & (hess_maxes < CERT_HESS_MAX)
            oracle = (oracle_grad <= CERT_GRAD_NORM) & (oracle_hess < CERT_HESS_MAX)
            assert certified.sum() > 900
            assert np.array_equal(certified, oracle)
            finite = np.isfinite(oracle_grad)
            assert np.abs(grad_norms - oracle_grad)[finite].max() <= 1e-15
            if xi <= 2.0:
                assert np.abs(hess_maxes - oracle_hess)[certified].max() <= 1e-12

    def test_each_objective_is_called_for_its_key_alone(self):
        # The solve and the certificate read the curve keys alone, and each
        # cell reports the B its certificate checked: each objective is
        # called once, with no argument, and no cell searches.
        assert not {"maximize_bell", "SearchConfig"} & set(search.optimize_cells.__code__.co_names)
        spec = TmsvSpec(1.0)
        cells = list(itertools.product(np.linspace(0.3, 1.0, 8), np.linspace(-1.0, 0.0, 6)))
        calls = {idx: [] for idx in range(len(cells))}

        def counted(idx, objective):
            def wrapped(*args, **kwargs):
                calls[idx].append((kwargs.get("grad", False), len(args)))
                return objective(*args, **kwargs)

            return wrapped

        objectives = [
            counted(idx, detection_objective(spec, s, DetectionNoise(eta)))
            for idx, (eta, s) in enumerate(cells)
        ]
        reports = search.optimize_cells(objectives)
        assert {report.meta["source"] for report in reports} == {"curve", "asymptote"}
        assert all(calls[idx] == [(False, 0)] for idx in calls)

    def test_no_objectives_give_no_reports(self):
        assert search.optimize_cells([]) == []

    @pytest.mark.kernels
    @pytest.mark.parametrize("rule", [CLAMP_BOUNDED, CLAMP_FROZEN, CLAMP_LOSS_CHANNEL])
    @pytest.mark.parametrize("xi", [0.3, 2.0])
    def test_each_cell_reports_its_rows_certified_value(self, xi, rule):
        # Every gate-grid cell reports the B its row's certificate checked,
        # bit for bit; its objective at the reported settings, a second
        # route through the six-term sum and the lift, agrees to 1e-14.
        objectives = gate_grid_objectives(TmsvSpec(xi), rule)
        keys = [objective()[2] for objective in objectives]
        rows, which = np.unique(keys, axis=0, return_inverse=True)
        values = search._row_reports(rows)[1][which.reshape(-1)]
        reports = search.optimize_cells(objectives)
        assert np.array([report.bell_value for report in reports]).tobytes() == values.tobytes()
        for objective, report in zip(objectives, reports):
            again = objective(report.settings).bell_value
            assert abs(again - report.bell_value) <= 1e-14 * abs(report.bell_value)

    def test_non_finite_curve_point_reports_the_origin(self, monkeypatch):
        # A curve point that is not finite (an overflowing solve step) is
        # moved to the origin before it is certified, so the cell's
        # settings, value, source and certificate all describe the origin.
        # The other cell in the call keeps its own report.
        spec = TmsvSpec(0.3)
        objectives = [
            detection_objective(spec, 0.0, DetectionNoise(1.0)),
            thermal_objective(spec, -0.2, ThermalNoise(0.6, 1.0)),
        ]
        keys = np.array([objective()[2] for objective in objectives])
        expected = search.optimize_cells(objectives)
        solve = search._solve_curve

        def overflowing(rows):
            points = solve(rows)
            points[(rows == keys[0]).all(axis=1)] = [np.nan, 0, np.inf, 0, np.nan, 0, -np.inf, 0]
            return points

        monkeypatch.setattr(search, "_solve_curve", overflowing)
        reports = search.optimize_cells(objectives)
        value, grad_norm, hess_max = search._certificates(keys[:1], np.zeros((1, 8)))
        assert reports[0].settings == BellSettings(0, 0, 0, 0)
        assert reports[0].bell_value == value[0]
        origin = objectives[0](BellSettings(0, 0, 0, 0)).bell_value
        assert value[0] == pytest.approx(origin, rel=1e-15)
        assert reports[0].meta == {
            "source": "uncertified", "grad_norm": grad_norm[0], "hess_max": hess_max[0],
        }
        assert reports[1] == expected[1] and reports[1].meta == expected[1].meta

    def test_asymptote_cells_report_c0_at_a_far_point(self):
        # An asymptote cell reports a real family point, times its lift,
        # where every Gaussian exponent is at least 800: B is c0 there to
        # the bit, with no gradient and no curvature.
        spec = TmsvSpec(1.0)
        objectives = [
            detection_objective(spec, -1.0, DetectionNoise(0.4)),
            detection_objective(spec, -1.0, DetectionNoise(0.4), CLAMP_FROZEN),
            detection_objective(spec, -1.0, DetectionNoise(0.4), CLAMP_LOSS_CHANNEL),
            thermal_objective(spec, -0.5, ThermalNoise(0.9, 2.0)),
            thermal_objective(spec, -0.5, ThermalNoise(0.9, 0.0), CLAMP_LOSS_CHANNEL),
        ]
        for objective, report in zip(objectives, search.optimize_cells(objectives)):
            lift, _, (_, _, c0, gm, _, e1) = objective()
            assert report.meta == {"source": "asymptote", "grad_norm": 0.0, "hess_max": 0.0}
            assert report.bell_value == c0
            x = np.array(report.settings.to_vector()) / lift
            assert np.array_equal(x, family_point(x[0], x[0], 1.0))
            assert min(4.0 * gm, e1) * x[0] ** 2 >= 800.0

    def test_equal_keys_give_equal_values(self):
        # A detection and a thermal cell with the same s' share their
        # constants up to rounding; only the lift differs, so they report
        # the same value: at s' = -2 the asymptote 2, at s' = -0.5 a
        # certified curve point.
        spec = TmsvSpec(1.0)
        pairs = [
            (
                detection_objective(spec, -0.5, DetectionNoise(0.5)),
                thermal_objective(spec, 0.0, ThermalNoise(math.sqrt(2.0 / 3.0), 0.0)),
            ),
            (
                detection_objective(spec, -0.5, DetectionNoise(1.0)),
                thermal_objective(spec, 0.0, ThermalNoise(math.sqrt(1.0 / 3.0), 0.0)),
            ),
        ]
        reports = search.optimize_cells([objective for pair in pairs for objective in pair])
        assert [report.meta["source"] for report in reports] == [
            "asymptote", "asymptote", "curve", "curve",
        ]
        assert reports[0].bell_abs == reports[1].bell_abs == 2.0
        assert reports[2].bell_abs == pytest.approx(reports[3].bell_abs, abs=1e-12)

    def test_sub_grid_gives_the_full_grid_cells(self):
        spec = TmsvSpec(0.3)
        pairs = [
            (
                sweep_eta_s(spec, [0.4, 0.6, 0.8, 1.0], [-1.0, -0.5, 0.0]),
                sweep_eta_s(spec, [0.6, 1.0], [-0.5]),
            ),
            (
                sweep_thermal(spec, [0.3, 0.5, 0.7], [-1.0, -0.5, 0.0], [0.0, 1.0]),
                sweep_thermal(spec, [0.5], [-0.5, 0.0], [1.0]),
            ),
        ]
        for full, part in pairs:
            reports = {(c.axis1, c.axis2, c.nbar): c.report for c in full.cells}
            for cell in part.cells:
                expected = reports[(cell.axis1, cell.axis2, cell.nbar)]
                assert cell.report == expected
                assert cell.report.meta == expected.meta


def oracle_cells():
    """The 8 x 6 benchmark map at xi = 0.3 and 40 README map cells at xi = 2."""
    bench = itertools.product([0.3], np.linspace(0.3, 1.0, 8), np.linspace(-1.0, 0.0, 6))
    readme = list(itertools.product([2.0], np.linspace(0.3, 1.0, 36), np.linspace(-1.0, 0.0, 21)))
    picks = np.random.default_rng(2).choice(len(readme), 40, replace=False)
    return [*bench, *(readme[i] for i in sorted(picks))]


def test_cells_reach_the_per_cell_search():
    # Every cell is at least its 16-start TNC search value in the box of
    # radius 2 and in the box of radius 8, with the verdict of the better
    # of the two.  The wide box's starts miss some interior maxima, such
    # as 2.056 at (xi, eta, s) = (0.3, 0.4, 0), where they end near 2.
    cells = oracle_cells()
    objectives = [
        detection_objective(TmsvSpec(xi), float(s), DetectionNoise(float(eta)))
        for xi, eta, s in cells
    ]
    reports = search.optimize_cells(objectives)
    configs = [SearchConfig(n_starts=16, seed=1, box_radius=box) for box in (2.0, 8.0)]
    for idx, (objective, report) in enumerate(zip(objectives, reports)):
        searched = [orc.tnc_maximize(objective, config, idx) for config in configs]
        assert report.bell_abs >= max(r.bell_abs for r in searched) - 1e-9, cells[idx]
        assert report.violated == max(searched, key=lambda r: r.bell_abs).violated, cells[idx]


@pytest.mark.kernels
def test_noise_free_wigner_cells_climb_to_the_asymptote():
    # The noise-free s = 0 cell for xi = 0, 0.25, ..., 14 in one call.  The
    # witness rises from the separable value 2 at xi = 0 towards Banaszek
    # and Wodkiewicz's limit 2.3244947811..., which it reaches by xi = 6;
    # from xi = 8 on the values are that limit to rounding, so the climb
    # is checked up to xi = 8.  At xi = 0 the Hessian is 0: the point
    # reads 2 (exactly, under the recorded kernels; an ulp above under
    # others), but only a global bound could certify it.  Every other
    # cell is a certified curve point.
    xis = [0.25 * k for k in range(57)]
    objectives = [detection_objective(TmsvSpec(xi), 0.0, DetectionNoise(1.0)) for xi in xis]
    reports = search.optimize_cells(objectives)
    values = [report.bell_abs for report in reports]
    assert [report.meta["source"] for report in reports] == ["uncertified"] + ["curve"] * 56
    assert abs(values[0] - 2.0) <= 1e-15 and not reports[0].violated
    climb = values[: xis.index(8.0) + 1]
    assert all(a <= b for a, b in zip(climb, climb[1:]))
    assert max(values) <= 2.3244947811
    assert min(values[xis.index(6.0):]) >= 2.32449478


@pytest.mark.kernels
def test_noise_free_line_is_certified_to_large_squeezing():
    # The noise-free s = 0 cell for xi = 0.25, 0.5, ..., 300 in one call.
    # From xi ~ 176.5 the raw products of the solve's 2 x 2 entries
    # overflow, so each step is formed from its system over its shift:
    # every cell is a certified curve point, at the limit from xi = 8 on.
    xis = [0.25 * k for k in range(1, 1201)]
    objectives = [detection_objective(TmsvSpec(xi), 0.0, DetectionNoise(1.0)) for xi in xis]
    reports = search.optimize_cells(objectives)
    assert [report.meta["source"] for report in reports] == ["curve"] * len(xis)
    limit = [report.bell_abs for report in reports[xis.index(8.0):]]
    assert 2.32449478 <= min(limit) and max(limit) <= 2.3244947811


@pytest.mark.kernels
@pytest.mark.parametrize("xi", [10.0, 12.0])
def test_readme_grid_at_large_squeezing_is_certified(xi):
    # The README map (eta 0.3:1:36, s -1:0:21): every cell whose curve
    # point beats |c0| is certified, the noise-free corner included.
    cells = sweep_eta_s(TmsvSpec(xi), np.linspace(0.3, 1.0, 36), np.linspace(-1.0, 0.0, 21)).cells
    sources = [cell.report.meta["source"] for cell in cells]
    assert "uncertified" not in sources and sources.count("curve") > 300


@pytest.mark.kernels
@pytest.mark.parametrize(
    "xi, s, digits", [(10.0, 0.0, 80), (12.0, -0.625, 80), (200.0, 0.0, 800), (300.0, 0.0, 800)]
)
def test_large_squeezing_hess_max_is_the_mpmath_hessian(xi, s, digits):
    # The certificate's blocks against the finite-difference Hessian of
    # the textbook B at ``digits`` digits, gauge direction projected out,
    # where the squeezed variance is a 1e-9 or 1e-11 part of the
    # antisqueezed one, or (where raw 2 x 2 products would overflow) a
    # 1e-174 or 1e-261 part.  The Hessian's stiff and soft eigenvalues then differ by
    # e^{4 xi}, up to 1e521, so 80 digits no longer resolve the soft one.
    (report,) = search.optimize_cells([detection_objective(TmsvSpec(xi), s, DetectionNoise(1.0))])
    assert report.meta["source"] == "curve"
    expected = orc.mp_hess_max(xi, s, report.settings.to_vector(), digits)
    assert report.meta["hess_max"] == pytest.approx(expected, rel=1e-9)


@pytest.mark.kernels
def test_top_eigenvalue_has_no_cancellation():
    # The 2 x 2 top eigenvalue keeps its digits when the other eigenvalue
    # is 1e20 times larger, of either sign, and gives 0 for the zero matrix
    # (from 0/0, under the callers' errstate).  Each matrix and determinant
    # is exact in float64.
    for hxx, hxy, hyy, top in (
        (-1e20, 1e10, -2.0, -1.0),
        (-1e20, 1e10, 0.0, 1.0),
        (1e20, 1e10, 2.0, 1e20),
        (0.0, 0.0, 0.0, 0.0),
    ):
        with np.errstate(invalid="ignore"):
            got = search._top_eigenvalue(np.array([hxx]), np.array([hxy]), np.array([hyy]))
        assert got[0] == pytest.approx(top, rel=1e-15)


def test_curve_point_that_ties_with_the_asymptote_reports_the_asymptote():
    # At xi = 0, eta = 0.3 and s = -0.75 the rescaled order is below -1, so
    # c0 = 2, and the product state's flat maximum is 2 too.  The curve
    # point's six-term sum rounds to 2 plus 1 ulp and its report to 2 plus
    # 2 ulps; a curve point must beat |c0| by more than 16 eps |c0|, so the
    # cell reports the exact asymptote.
    objective = detection_objective(TmsvSpec(0.0), -0.75, DetectionNoise(0.3))
    assert objective()[2][2] == 2.0
    (report,) = search.optimize_cells([objective])
    assert report.clamped
    assert report.meta == {"source": "asymptote", "grad_norm": 0.0, "hess_max": 0.0}
    assert report.bell_value == 2.0


CORE_LOAD_SCRIPT = """
import json, sys
import oracles as orc
from phasewitness import search
from phasewitness.noise import DetectionNoise
from phasewitness.states import TmsvSpec
from phasewitness.witness import detection_objective

objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
config = search.SearchConfig(n_starts=4, seed=1)
first = orc.tnc_maximize(objective, config)
loaded = [m for m in ("scipy.optimize", "scipy.special") if m in sys.modules]
import scipy.optimize
print(json.dumps({
    "loaded": loaded,
    "same_core": scipy.optimize._moduleTNC.tnc_minimize is orc._tnc_minimize(),
    "same_report": orc.tnc_maximize(objective, config) == first,
}))
"""


class TestCoreLoad:
    """The oracle loads TNC's C core from its file, and names a missing one."""

    def test_search_loads_neither_optimize_nor_special(self):
        # The TNC search of ``oracles.tnc_maximize`` runs scipy's C core
        # without ``scipy.optimize`` or scipy's special functions, and a
        # later ``import scipy.optimize`` gets the same core.
        paths = (Path(phasewitness.__file__).parents[1], Path(orc.__file__).parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
        out = subprocess.run(
            [sys.executable, "-c", CORE_LOAD_SCRIPT], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert json.loads(out.stdout) == {"loaded": [], "same_core": True, "same_report": True}

    def test_missing_core_is_an_import_error(self, tmp_path, monkeypatch):
        fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        fake.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(orc.importlib.util, "find_spec", lambda name: fake)
        orc._tnc_minimize.cache_clear()
        try:
            missing = f"TNC's C core is missing: no file {tmp_path / 'optimize' / '_moduleTNC'}"
            with pytest.raises(ImportError, match=re.escape(missing)):
                orc._tnc_minimize()
        finally:
            orc._tnc_minimize.cache_clear()


class TestFixedSettingsMonotonicity:
    def test_decoherence_only_degrades_fixed_witness(self):
        # With settings and observable order both held fixed, thermal
        # decoherence can only wash out the correlations, so the witness
        # value decreases with r.  (Re-optimizing order and settings per
        # cell is a different, non-monotone curve: adapting the order
        # recovers part of the loss by design.)
        spec = TmsvSpec(0.3)
        settings = GOLDEN_41_SETTINGS
        values = []
        for r in np.arange(0.0, 0.8001, 0.05):
            noise = ThermalNoise(float(r), 0.0)
            value = bell_value(
                lambda a, b: evolve_thermal_w(
                    lambda pa, pb, sp: tmsv_w2(spec, pa, pb, sp), 0.0, noise, a, b
                ),
                lambda a: evolve_thermal_w(
                    lambda pa, sp: tmsv_w1(spec, pa, sp), 0.0, noise, a
                ),
                lambda b: evolve_thermal_w(
                    lambda pb, sp: tmsv_w1(spec, pb, sp), 0.0, noise, b
                ),
                settings,
                0.0,
            )
            values.append(abs(value))
        assert values[0] == pytest.approx(GOLDEN_41, abs=1e-12)
        assert np.all(np.diff(values) <= 1e-12)
