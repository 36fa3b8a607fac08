"""Settings optimization and sweep drivers."""

from __future__ import annotations

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

import oracles as orc
import phasewitness
from phasewitness import search, witness
from phasewitness.noise import DetectionNoise, ThermalNoise
from phasewitness.search import (
    CERT_GRAD_NORM,
    CERT_HESS_MAX,
    MAX_EVALS_PER_START,
    SearchConfig,
    SweepCell,
    SweepResult,
    grid_oracle,
    maximize_bell,
    sweep_eta_s,
    sweep_thermal,
)
from phasewitness.states import TmsvSpec, tmsv_w1, tmsv_w2
from phasewitness.witness import (
    CLAMP_FROZEN,
    CLAMP_LOSS_CHANNEL,
    BellSettings,
    WitnessReport,
    _tmsv_derivatives,
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


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(n_starts=0)
        with pytest.raises(ValueError):
            SearchConfig(box_radius=0.0)
        with pytest.raises(ValueError):
            SearchConfig(ftol=-1.0)
        with pytest.raises(ValueError):
            SearchConfig(xtol=float("nan"))
        with pytest.raises(ValueError):
            SearchConfig(box_radius=1e308)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            SearchConfig(seed=-1)
        with pytest.raises(ValueError, match="n_starts must be an integer, got 2.7"):
            SearchConfig(n_starts=2.7)
        with pytest.raises(ValueError, match="seed must be an integer, got 3.9"):
            SearchConfig(seed=3.9)


def constant_objective(settings, grad=False):
    if grad:
        return 1.5, (0.0,) * 8
    return WitnessReport(settings, -0.5, 1.5)


class TestStarts:
    """``search._starts``: the starts of one multi-start search."""

    def test_equal_for_equal_seed_and_stream(self):
        config = SearchConfig(n_starts=6, seed=3)
        assert np.array_equal(search._starts(config, 2), search._starts(config, 2))

    def test_each_seed_and_stream_has_its_own_starts(self):
        starts = {
            (seed, stream): search._starts(SearchConfig(n_starts=4, seed=seed), stream)
            for seed, stream in itertools.product(range(4), repeat=2)
        }
        for (a, first), (b, second) in itertools.combinations(starts.items(), 2):
            assert not np.array_equal(first, second), (a, b)

    def test_layout(self):
        box = 1.5
        starts = search._starts(SearchConfig(n_starts=7, seed=1, box_radius=box), 5)
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
        starts = search._starts(config, 4, warm)
        assert starts.shape == (5, 8)
        assert np.array_equal(starts[0], np.clip(warm[0], -1.0, 1.0))
        assert np.array_equal(starts[1], warm[1])
        assert np.array_equal(starts[2:], search._starts(config, 4))

    def test_huge_seed(self):
        starts = search._starts(SearchConfig(n_starts=8, seed=2**40), 3)
        assert np.all(np.isfinite(starts))
        assert len({tuple(row) for row in starts.tolist()}) == 8
        assert not np.array_equal(starts, search._starts(SearchConfig(n_starts=8, seed=2**40), 4))


class TestMaximizeBell:
    def test_constant_objective_and_meta(self):
        report = maximize_bell(constant_objective, SearchConfig(n_starts=2, seed=1))
        assert report.bell_abs == 1.5
        assert report.meta["n_starts"] == 2
        assert report.meta["stream"] == 0
        assert report.meta["unconverged_starts"] == 0
        assert report.meta["n_evals"] > 0
        assert report.meta["grad_norm"] == 0.0

    def test_every_evaluation_goes_through_the_objective(self):
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("grad", False))
            return objective(*args, **kwargs)

        report = maximize_bell(counting, FAST)
        # Every search evaluation plus the report of the winning point.
        assert len(calls) == report.meta["n_evals"] + 1
        assert calls.count(False) == 1
        assert report.meta["unconverged_starts"] == 0
        assert report.meta["grad_norm"] <= 1e-6

    def test_benchmark_map_cell_reaches_its_optimum(self):
        # The (eta, s) = (0.5, -0.8) cell of the 8 x 6 benchmark map at
        # xi = 0.3 is cell 13; 8-D Nelder-Mead stopped there at 1.925372.
        objective = detection_objective(TmsvSpec(0.3), -0.8, DetectionNoise(0.5))
        report = maximize_bell(objective, SearchConfig(n_starts=8, seed=1), stream=13)
        assert report.bell_abs >= 1.925494670

    def test_separable_state_never_beats_two(self):
        objective = detection_objective(TmsvSpec(0.0), -1.0, DetectionNoise(1.0))
        report = maximize_bell(
            objective,
            SearchConfig(n_starts=4, seed=2),
            extra_starts=[(0.0,) * 8],
        )
        assert report.bell_abs <= 2.0 + 1e-9
        assert report.bell_abs >= 2.0 - 1e-9

    def test_bitwise_determinism(self):
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.8))
        config = SearchConfig(n_starts=4, seed=5)
        first = maximize_bell(objective, config, stream=3)
        second = maximize_bell(objective, config, stream=3)
        assert first.bell_value == second.bell_value
        assert first.settings.to_vector() == second.settings.to_vector()
        assert first.meta["stream"] == 3

    def test_warm_start_is_never_lost(self):
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
        warm = GOLDEN_PEAK_41_SETTINGS.to_vector()
        report = maximize_bell(
            objective, SearchConfig(n_starts=1, seed=0), extra_starts=[warm]
        )
        assert report.bell_abs >= objective(GOLDEN_PEAK_41_SETTINGS).bell_abs - 1e-10

    def test_dominates_grid_oracle(self):
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.6))
        grid = grid_oracle(objective, 1.2, 9)
        report = maximize_bell(objective, FAST)
        assert report.bell_abs >= grid.bell_abs - 1e-9

    def test_reproduces_frozen_grid_maximum(self):
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(1.0))
        assert objective(GOLDEN_41_SETTINGS).bell_abs == pytest.approx(
            GOLDEN_41, abs=1e-12
        )
        report = maximize_bell(objective, FAST)
        assert report.bell_abs >= GOLDEN_41 - 1e-9
        assert abs(report.bell_abs - GOLDEN_41) <= 0.02

    def test_reproduces_frozen_peak_cell(self):
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
        assert objective(GOLDEN_PEAK_41_SETTINGS).bell_abs == pytest.approx(
            GOLDEN_PEAK_41, abs=1e-12
        )
        report = maximize_bell(objective, FAST)
        assert report.bell_abs >= GOLDEN_PEAK_41 - 1e-9
        assert abs(report.bell_abs - GOLDEN_PEAK_41) <= 0.01

    def test_known_thermal_violation_and_loss_of_it(self):
        spec = TmsvSpec(0.3)
        hot = maximize_bell(thermal_objective(spec, 0.0, ThermalNoise(0.75, 0.0)), FAST)
        assert hot.violated
        assert hot.clamped
        cold = maximize_bell(thermal_objective(spec, 0.0, ThermalNoise(0.6, 2.0)), FAST)
        assert not cold.violated


def assert_matches_scipy_route(objective, config, stream=0, extra_starts=()):
    """maximize_bell equals the minimize(method="TNC") reference, bit for bit."""
    report = maximize_bell(objective, config, stream, extra_starts)
    x, meta = orc.scipy_tnc_maximize(
        objective, config, MAX_EVALS_PER_START, stream, extra_starts
    )
    reference = objective(BellSettings.from_vector(x))
    assert report.bell_value == reference.bell_value
    assert report.settings.to_vector() == reference.settings.to_vector()
    assert report.meta == meta
    return report


class TestScipyRouteOracle:
    """The direct call of TNC's C core against scipy's public route.

    The search calls the private ``scipy.optimize._moduleTNC``; these
    cases pin its values, settings and evaluation counts to
    ``minimize(method="TNC", jac=True, bounds=Bounds(...))``.
    """

    def test_benchmark_map_cells(self):
        spec = TmsvSpec(0.3)
        config = SearchConfig(n_starts=8, seed=1)
        cells = itertools.product(np.linspace(0.3, 1.0, 8), np.linspace(-1.0, 0.0, 6))
        for stream, (eta, s) in enumerate(cells):
            objective = detection_objective(spec, float(s), DetectionNoise(float(eta)))
            assert_matches_scipy_route(objective, config, stream)

    def test_warm_started_thermal_cell(self):
        spec = TmsvSpec(0.3)
        config = SearchConfig(n_starts=8, seed=1, ftol=1e-9, xtol=1e-5)
        first = maximize_bell(thermal_objective(spec, 0.0, ThermalNoise(0.7, 0.0)), config)
        warm = first.settings.to_vector()
        objective = thermal_objective(spec, 0.0, ThermalNoise(0.71, 0.0))
        report = assert_matches_scipy_route(objective, config, 1, [warm])
        # A start at the point where the previous start stopped is
        # evaluated afresh, as scipy does at every start.
        optimum = report.settings.to_vector()
        assert_matches_scipy_route(objective, config, 1, [optimum, optimum])

    def test_box_edge_cell(self):
        # At (eta, s) = (0.3, -1) the clamped witness climbs towards 2 at
        # infinite displacement, so a box of radius 4 holds the optimum
        # on its edge.
        objective = detection_objective(TmsvSpec(0.3), -1.0, DetectionNoise(0.3))
        config = SearchConfig(n_starts=8, seed=1, box_radius=4.0)
        report = assert_matches_scipy_route(objective, config)
        assert max(abs(v) for v in report.settings.to_vector()) == 4.0

    @pytest.mark.parametrize("clamp_mode", [CLAMP_FROZEN, CLAMP_LOSS_CHANNEL])
    def test_clamp_rules(self, clamp_mode):
        objective = detection_objective(
            TmsvSpec(0.3), -0.5, DetectionNoise(0.4), clamp_mode=clamp_mode
        )
        report = assert_matches_scipy_route(objective, SearchConfig(n_starts=4, seed=2), 1)
        assert report.clamped

    def test_objective_error_surfaces(self):
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
        calls = 0

        def failing(settings, grad=False):
            nonlocal calls
            calls += 1
            if calls == 5:
                raise ValueError("witness value is NaN")
            return objective(settings, grad=grad)

        with pytest.raises(ValueError, match="NaN"):
            maximize_bell(failing, SearchConfig(n_starts=2, seed=0))
        assert calls == 5


class TestGridOracle:
    def test_point_count_validation(self):
        with pytest.raises(ValueError):
            grid_oracle(constant_objective, 1.0, 2)

    def test_degenerate_box_evaluates_origin(self):
        objective = detection_objective(TmsvSpec(0.0), -1.0, DetectionNoise(1.0))
        report = grid_oracle(objective, 0.0, 5)
        assert report.settings == BellSettings(0.0, 0.0, 0.0, 0.0)
        assert report.bell_abs == pytest.approx(2.0, abs=1e-12)


class TestSweeps:
    def test_grid_validation(self):
        spec = TmsvSpec(0.3)
        config = SearchConfig(n_starts=1)
        # A grid is checked for shape; its values where each cell is built.
        with pytest.raises(ValueError, match="eta grid is empty"):
            sweep_eta_s(spec, [], [0.0], config)
        with pytest.raises(ValueError, match="eta grid must be non-decreasing"):
            sweep_eta_s(spec, [0.9, 0.5], [0.0], config)
        with pytest.raises(ValueError, match="detection efficiency eta"):
            sweep_eta_s(spec, [0.0, 0.5], [0.0], config)
        with pytest.raises(ValueError, match="order parameter 0.2"):
            sweep_eta_s(spec, [0.5], [0.2], config)
        with pytest.raises(ValueError, match="reflectivity r"):
            sweep_thermal(spec, [0.5, 1.0], [0.0], [0.0], config)
        with pytest.raises(ValueError, match="nbar_list must be non-empty"):
            sweep_thermal(spec, [0.5], [0.0], [], config)
        with pytest.raises(ValueError, match="mean photon number nbar"):
            sweep_thermal(spec, [0.5], [0.0], [-0.1], config)

    def test_result_fields(self):
        spec = TmsvSpec(0.3)
        config = SearchConfig(n_starts=1, seed=0)
        res = sweep_eta_s(spec, [0.5], [0.0], config)
        assert isinstance(res, SweepResult)
        cell = res.cells[0]
        assert isinstance(cell, SweepCell)
        assert cell.nbar is None
        thermal = sweep_thermal(spec, [0.4], [0.0], [0.7], config)
        assert thermal.cells[0].nbar == 0.7

    def test_ignored_max_workers_gives_the_same_cells(self):
        # The benchmark's in-process map passes max_workers=1; keep it
        # accepted until the benchmark stops passing it.
        spec = TmsvSpec(0.3)
        config = SearchConfig(n_starts=2, seed=1)
        grids = ([0.3, 0.65, 1.0], [-1.0, 0.0])
        given = sweep_eta_s(spec, *grids, config, max_workers=1).cells
        plain = sweep_eta_s(spec, *grids, config).cells
        assert given == plain
        assert [c.report.meta for c in given] == [c.report.meta for c in plain]

    def test_zero_time_thermal_equals_perfect_detection(self):
        spec = TmsvSpec(0.3)
        config = SearchConfig(n_starts=4, seed=9)
        thermal = sweep_thermal(spec, [0.0], [-0.5], [0.0], config)
        detect = sweep_eta_s(spec, [1.0], [-0.5], config)
        diff = abs(thermal.cells[0].report.bell_abs - detect.cells[0].report.bell_abs)
        assert diff < 1e-6


def family_point(x, y, sigma, lift=1.0):
    """The raw 8-vector of the real symmetric family at (x, y) in the field frame."""
    return (x * lift, 0.0, y * lift, 0.0, sigma * x * lift, 0.0, sigma * y * lift, 0.0)


def gauge_rotated(x, phi):
    """The settings 8-vector with a -> a e^{i phi} and b -> b e^{-i phi}."""
    s = BellSettings.from_vector(x)
    turn = complex(np.cos(phi), np.sin(phi))
    return BellSettings(s.a1 * turn, s.a2 * turn, s.b1 / turn, s.b2 / turn).to_vector()


class TestCurve:
    """The one curve solve over the curve keys, its certificate and its fallback."""

    def test_family_matches_the_objective(self):
        # Each objective's curve key (lift, constants) describes it on the
        # family, the loss-channel rule (lift sqrt(g)) included.
        spec = TmsvSpec(0.3)
        detect, hot = DetectionNoise(0.45), ThermalNoise(0.6, 1.0)
        cases = [
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
            lift, constants = objective()
            assert lift == expected_lift
            for sigma in (1.0, -1.0):
                terms = witness._family_constants(constants, sigma)

                def projected(x, y):
                    _, g = objective(family_point(x, y, sigma, lift), grad=True)
                    return np.array([g[0] + sigma * g[4], g[2] + sigma * g[6]]) * lift

                for x, y in [(0.3, -0.4), (-0.7, 0.2), (0.05, 1.1)]:
                    value, bx, by, hxx, hxy, hyy = witness._family(terms, x, y)
                    b, _ = objective(family_point(x, y, sigma, lift), grad=True)
                    assert value == pytest.approx(b, abs=1e-13)
                    assert np.array([bx, by]) == pytest.approx(projected(x, y), abs=1e-13)
                    d_x = (projected(x + h, y) - projected(x - h, y)) / (2.0 * h)
                    d_y = (projected(x, y + h) - projected(x, y - h)) / (2.0 * h)
                    assert [hxx, hxy] == pytest.approx(d_x, abs=1e-7)
                    assert [hxy, hyy] == pytest.approx(d_y, abs=1e-7)

    def test_half_seed_set_gives_the_full_grid_rows(self, monkeypatch):
        # Every step of the solve commutes with (x, y) -> (-x, -y), and the
        # argmax takes the first of equal |B|, so the 12 mirrored seeds of
        # the 5 x 5 grid change no row's bits.
        keys = []
        for xi in (0.3, 1.0, 1.5):
            spec = TmsvSpec(xi)
            for eta, s in itertools.product((0.3, 0.6, 1.0), (-1.0, -0.4, 0.0)):
                keys.append(detection_objective(spec, s, DetectionNoise(eta))()[1])
                keys.append(detection_objective(spec, s, DetectionNoise(eta), CLAMP_FROZEN)()[1])
            for r, nbar, s in itertools.product((0.2, 0.6, 0.9), (0.0, 1.0), (-0.5, 0.0)):
                keys.append(thermal_objective(spec, s, ThermalNoise(r, nbar))()[1])
        keys = np.array(keys)
        axis = np.linspace(-1.0, 1.0, 5)
        grid = np.array([(x, y) for x in axis for y in axis])
        assert search._CURVE_SEEDS.tobytes() == grid[:13].tobytes()
        boxes = (2.0, 0.7, 0.05)
        half = [search._solve_curve(keys, box) for box in boxes]
        monkeypatch.setattr(search, "_CURVE_SEEDS", grid)
        for box, rows in zip(boxes, half):
            assert rows.tobytes() == search._solve_curve(keys, box).tobytes()

    def test_moved_point_fails_its_certificate(self):
        spec = TmsvSpec(0.3)
        objective = detection_objective(spec, -0.8, DetectionNoise(0.5))
        report = sweep_eta_s(spec, [0.5], [-0.8], FAST).cells[0].report
        assert report.meta["source"] == "curve"
        x = np.array(report.settings.to_vector())
        gauge = np.array(gauge_rotated(x, 1e-6)) - x
        rng = np.random.default_rng(4)
        moved = []
        for direction in [np.eye(8)[0], np.eye(8)[5], rng.normal(size=8)]:
            direction = direction - gauge * (direction @ gauge) / (gauge @ gauge)
            moved.append(x + 1e-3 * direction / np.linalg.norm(direction))
        # One batch: the optimum, the optimum turned along the gauge, and
        # the optimum moved off it in three directions.
        points = [x, gauge_rotated(x, 1e-3), *moved]
        grad_norms, hess_maxes = search._certificates(
            [objective()] * len(points), points, FAST.box_radius
        )
        assert (grad_norms[0], hess_maxes[0]) == (report.meta["grad_norm"], report.meta["hess_max"])
        assert grad_norms[0] <= CERT_GRAD_NORM and hess_maxes[0] < CERT_HESS_MAX
        # B is constant along the gauge, so a turned optimum stays certified.
        assert grad_norms[1] <= CERT_GRAD_NORM and hess_maxes[1] < CERT_HESS_MAX
        assert all(grad_norm > CERT_GRAD_NORM for grad_norm in grad_norms[2:])

    def test_certificate_next_to_the_origin(self):
        # A curve row can converge to within 1e-303 of the origin.  Its
        # gauge direction must not underflow, and as the Hessian there
        # commutes with the gauge, its eigenspaces are even-dimensional and
        # dropping one direction leaves the largest eigenvalue unchanged:
        # the origin, which has no gauge direction, drops the first axis.
        objective = detection_objective(TmsvSpec(0.3), -0.6, DetectionNoise(0.3))
        tiny = family_point(-3.6e-304, -2.9e-303, -1.0)
        grad_norms, hess_maxes = search._certificates(
            [objective()] * 2, [(0.0,) * 8, tiny], FAST.box_radius
        )
        assert grad_norms[1] <= 1e-300
        assert hess_maxes[1] == pytest.approx(hess_maxes[0], rel=1e-12)
        # The full 8 x 8 spectrum at the origin has the same top eigenvalue.
        lift, constants = objective()
        value, _, hess = _tmsv_derivatives([constants], [lift], [(0.0,) * 8])
        assert np.sign(value[0]) == np.sign(objective(BellSettings(0, 0, 0, 0)).bell_value)
        top = np.linalg.eigvalsh(np.sign(value[0]) * hess[0])[-1]
        assert hess_maxes[0] == pytest.approx(top, rel=1e-12)

    def test_non_finite_hessian_certifies_nothing(self, monkeypatch):
        # eigvalsh of a NaN matrix returns finite numbers, so the
        # certificate itself must turn a non-finite Hessian into NaN.
        objective = detection_objective(TmsvSpec(0.3), -0.8, DetectionNoise(0.5))
        point = sweep_eta_s(TmsvSpec(0.3), [0.5], [-0.8], FAST).cells[0].report.settings

        def nan_hessians(constants, lifts, points):
            value, grad, hess = _tmsv_derivatives(constants, lifts, points)
            return value, grad, np.full_like(hess, np.nan)

        monkeypatch.setattr(search, "_tmsv_derivatives", nan_hessians)
        _, hess_max = search._certificates([objective()], [point.to_vector()], FAST.box_radius)
        assert math.isnan(hess_max[0])

    def test_one_row_certificate_is_the_batch_row(self):
        # A row's certificate does not depend on the other rows of its
        # batch, so the fallback batch gives each search point the numbers
        # it would get alone.
        spec = TmsvSpec(0.3)
        objectives = [
            detection_objective(spec, -0.8, DetectionNoise(0.5)),
            thermal_objective(spec, -0.2, ThermalNoise(0.6, 1.0)),
            detection_objective(spec, -0.5, DetectionNoise(0.4), CLAMP_LOSS_CHANNEL),
        ]
        keys = [objective() for objective in objectives]
        points = np.random.default_rng(7).uniform(-1.0, 1.0, (3, 8))
        batch = search._certificates(keys, points, FAST.box_radius)
        for i in range(len(objectives)):
            alone = search._certificates([keys[i]], [points[i]], FAST.box_radius)
            assert (alone[0][0], alone[1][0]) == (batch[0][i], batch[1][i])

    def test_only_the_search_calls_an_objective_for_its_gradient(self, monkeypatch):
        # The certificate reads the curve keys alone: outside the fallback
        # search, each objective is called once for its key and once for
        # the report of its curve point, never with grad=True.
        spec = TmsvSpec(1.0)
        cells = list(itertools.product(np.linspace(0.3, 1.0, 8), np.linspace(-1.0, 0.0, 6)))
        calls = {idx: [] for idx in range(len(cells))}
        searching = []

        def counted(idx, objective):
            def wrapped(*args, **kwargs):
                inside = bool(searching)
                calls[idx].append((inside, kwargs.get("grad", False), len(args)))
                return objective(*args, **kwargs)

            return wrapped

        def search_wrapper(objective, config, stream=0, extra_starts=()):
            searching.append(stream)
            try:
                return maximize_bell(objective, config, stream, extra_starts)
            finally:
                searching.pop()

        monkeypatch.setattr(search, "maximize_bell", search_wrapper)
        objectives = [
            counted(idx, detection_objective(spec, s, DetectionNoise(eta)))
            for idx, (eta, s) in enumerate(cells)
        ]
        reports = search.optimize_cells(objectives, SearchConfig(n_starts=2, seed=1))
        sources = [report.meta["source"] for report in reports]
        assert 0 < sources.count("search") < len(cells)
        for idx, report in enumerate(reports):
            outside = [(grad, n) for inside, grad, n in calls[idx] if not inside]
            assert outside == [(False, 0), (False, 1)]
            if report.meta["source"] == "curve":
                assert len(calls[idx]) == 2
            else:
                assert any(grad for inside, grad, _ in calls[idx] if inside)

    def test_fallback_keeps_a_better_uncertified_point(self):
        # At xi = 5 the curve point fails its certificate, and the search
        # ends below it; the cell reports the curve point with the search's
        # counts and the point's own certificate numbers.
        objective = detection_objective(TmsvSpec(5.0), 0.0, DetectionNoise(1.0))
        config = SearchConfig()
        report = search.optimize_cells([objective], config)[0]
        found = maximize_bell(objective, config, 0)
        assert report.meta["source"] == "uncertified"
        assert report.bell_abs > found.bell_abs
        assert report == objective(report.settings)
        x = np.array(report.settings.to_vector())
        assert np.all(x[1::2] == 0.0) and abs(x[4]) == abs(x[0]) and abs(x[6]) == abs(x[2])
        grad_norms, hess_maxes = search._certificates([objective()], [x], config.box_radius)
        own = {"grad_norm": float(grad_norms[0]), "hess_max": float(hess_maxes[0])}
        assert {k: report.meta[k] for k in own} == own
        assert not (own["grad_norm"] <= CERT_GRAD_NORM and own["hess_max"] < CERT_HESS_MAX)
        counts = ("n_evals", "n_starts", "unconverged_starts", "stream")
        assert {k: report.meta[k] for k in counts} == {k: found.meta[k] for k in counts}

    @pytest.mark.parametrize("xi, box", [(0.3, 0.05), (0.0, 2.0)])
    def test_uncertified_cells_run_maximize_bell(self, xi, box):
        # A box too small for any interior maximum, and a product state
        # whose Hessian is degenerate, certify no cell.  Each cell reports
        # its search, or its curve point where that reads higher: on the
        # product state, B is 2 up to rounding everywhere.
        spec = TmsvSpec(xi)
        config = SearchConfig(n_starts=2, seed=3, box_radius=box)
        result = sweep_eta_s(spec, [0.4, 0.7, 1.0], [-1.0, -0.5, 0.0], config)
        sources = []
        for idx, cell in enumerate(result.cells):
            objective = detection_objective(spec, cell.axis2, DetectionNoise(cell.axis1))
            expected = maximize_bell(objective, config, idx)
            sources.append(cell.report.meta["source"])
            if sources[-1] == "search":
                assert cell.report == expected
                assert {k: cell.report.meta[k] for k in expected.meta} == expected.meta
            else:
                assert sources[-1] == "uncertified"
                assert cell.report.bell_abs > expected.bell_abs
                assert cell.report.meta["n_evals"] == expected.meta["n_evals"]
        assert "curve" not in sources
        assert sources.count("search") == (9 if xi else 3)

    def test_sub_grid_gives_the_full_grid_cells(self):
        spec = TmsvSpec(0.3)
        config = SearchConfig(n_starts=2, seed=3)
        pairs = [
            (
                sweep_eta_s(spec, [0.4, 0.6, 0.8, 1.0], [-1.0, -0.5, 0.0], config),
                sweep_eta_s(spec, [0.6, 1.0], [-0.5], config),
            ),
            (
                sweep_thermal(spec, [0.3, 0.5, 0.7], [-1.0, -0.5, 0.0], [0.0, 1.0], config),
                sweep_thermal(spec, [0.5], [-0.5, 0.0], [1.0], config),
            ),
        ]
        for full, part in pairs:
            reports = {(c.axis1, c.axis2, c.nbar): c.report for c in full.cells}
            for cell in part.cells:
                expected = reports[(cell.axis1, cell.axis2, cell.nbar)]
                assert cell.report.meta["source"] == "curve"
                assert cell.report == expected
                assert {**cell.report.meta, "stream": None} == {**expected.meta, "stream": None}

    @pytest.mark.parametrize("xi", [0.3, 1.0])
    def test_certified_cells_reach_the_per_cell_search(self, xi):
        # The 8 x 6 benchmark map: each certified cell is at least its
        # 16-start search value, except where that search ends on the box
        # edge (a box artifact); those cells keep its verdict.
        spec = TmsvSpec(xi)
        result = sweep_eta_s(
            spec, np.linspace(0.3, 1.0, 8), np.linspace(-1.0, 0.0, 6),
            SearchConfig(n_starts=8, seed=1),
        )
        oracle = SearchConfig(n_starts=16, seed=1)
        certified = [c for c in result.cells if c.report.meta["source"] == "curve"]
        assert len(certified) >= 40
        for idx, cell in enumerate(result.cells):
            if cell.report.meta["source"] != "curve":
                continue
            objective = detection_objective(spec, cell.axis2, DetectionNoise(cell.axis1))
            searched = maximize_bell(objective, oracle, idx)
            box_edge = max(map(abs, searched.settings.to_vector())) >= oracle.box_radius - 1e-9
            if box_edge:
                assert cell.report.violated == searched.violated
            else:
                assert cell.report.bell_abs >= searched.bell_abs - 1e-9


# Run in a fresh interpreter: a search and a sweep, then the scipy
# modules they loaded, then the same work after importing scipy.optimize,
# whose _moduleTNC must be the core the search loaded.
CORE_LOAD_SCRIPT = """
import json, sys
from phasewitness import search
from phasewitness.noise import DetectionNoise
from phasewitness.states import TmsvSpec
from phasewitness.witness import detection_objective

spec = TmsvSpec(0.3)
objective = detection_objective(spec, 0.0, DetectionNoise(0.5))
config = search.SearchConfig(n_starts=4, seed=1)
swept = search.sweep_eta_s(spec, [0.5, 1.0], [-1.0, 0.0], config)
first = search.maximize_bell(objective, config)
loaded = [m for m in ("scipy.optimize", "scipy.special") if m in sys.modules]
import scipy.optimize
again = search.sweep_eta_s(spec, [0.5, 1.0], [-1.0, 0.0], config)
print(json.dumps({
    "loaded": loaded,
    "same_core": scipy.optimize._moduleTNC.tnc_minimize is search._tnc_minimize(),
    "same_report": search.maximize_bell(objective, config) == first,
    "same_sweep": [c.report for c in again.cells] == [c.report for c in swept.cells],
}))
"""


class TestCoreLoad:
    """TNC's C core is loaded from its file, without ``scipy.optimize``."""

    def test_search_loads_neither_optimize_nor_special(self):
        env = dict(os.environ, PYTHONPATH=str(Path(phasewitness.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", CORE_LOAD_SCRIPT], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert json.loads(out.stdout) == {
            "loaded": [], "same_core": True, "same_report": True, "same_sweep": True,
        }

    def test_missing_core_is_an_import_error(self, tmp_path, monkeypatch):
        fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        fake.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(search.importlib.util, "find_spec", lambda name: fake)
        search._tnc_minimize.cache_clear()
        try:
            missing = f"TNC's C core is missing: no file {tmp_path / 'optimize' / '_moduleTNC'}"
            with pytest.raises(ImportError, match=re.escape(missing)):
                search._tnc_minimize()
        finally:
            search._tnc_minimize.cache_clear()


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
