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
        # A grid is checked for shape; its values where each cell is built.
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
        with pytest.raises(ValueError, match="nbar_list must be non-empty"):
            sweep_thermal(spec, [0.5], [0.0], [])
        with pytest.raises(ValueError, match="mean photon number nbar"):
            sweep_thermal(spec, [0.5], [0.0], [-0.1])

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
    return np.array([objective()[1]])


class TestCurve:
    """The one curve solve over the curve keys, its certificate and the asymptote."""

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
        for xi in (0.3, 1.0, 1.5, 4.0):
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
        half = search._solve_curve(keys)
        monkeypatch.setattr(search, "_CURVE_SEEDS", grid)
        assert half.tobytes() == search._solve_curve(keys).tobytes()

    def test_moved_point_fails_its_certificate(self):
        spec = TmsvSpec(0.3)
        objective = detection_objective(spec, 0.0, DetectionNoise(0.5))
        report = sweep_eta_s(spec, [0.5], [0.0]).cells[0].report
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
        values, grad_norms, hess_maxes = search._certificates(
            np.repeat(constants_of(objective), len(points), axis=0), points
        )
        assert values[0] == report.bell_value
        assert (grad_norms[0], hess_maxes[0]) == (report.meta["grad_norm"], report.meta["hess_max"])
        assert grad_norms[0] <= CERT_GRAD_NORM and hess_maxes[0] < CERT_HESS_MAX
        # B is constant along the gauge, so a turned optimum stays certified.
        assert grad_norms[1] <= CERT_GRAD_NORM and hess_maxes[1] < CERT_HESS_MAX
        assert all(grad_norm > CERT_GRAD_NORM for grad_norm in grad_norms[2:])

    def test_certificate_is_relative(self):
        # Scaling c2, c1 and c0 by 4 scales B, its gradient and its Hessian
        # by 4, and their units with them; e2 and e1 times 4 put the peak
        # at half its length, with B the same at the halved point.  Either
        # way the certificate's numbers stay.
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
        constants = constants_of(objective)
        report = sweep_eta_s(TmsvSpec(0.3), [0.5], [0.0]).cells[0].report
        point = np.array(report.settings.to_vector())
        value, grad_norm, hess_max = search._certificates(constants, [point])
        for factors, x, scale in (
            ([4.0, 4.0, 4.0, 1, 1, 1, 1, 1, 1], point, 4.0),
            ([1, 1, 1, 1, 1, 4.0, 1, 4.0, 1], point / 2.0, 1.0),
        ):
            moved = search._certificates(constants * factors, [x])
            assert moved[0][0] == pytest.approx(scale * value[0], rel=1e-14)
            assert moved[1][0] == pytest.approx(grad_norm[0], abs=1e-15)
            assert moved[2][0] == pytest.approx(hess_max[0], rel=1e-12)

    def test_certificate_next_to_the_origin(self):
        # A curve row can converge to within 1e-303 of the origin.  Its
        # gauge direction must not underflow, and as the Hessian there
        # commutes with the gauge, its eigenspaces are even-dimensional and
        # dropping one direction leaves the largest eigenvalue unchanged:
        # the origin, which has no gauge direction, drops the first axis.
        objective = detection_objective(TmsvSpec(0.3), -0.6, DetectionNoise(0.3))
        constants = constants_of(objective)
        tiny = family_point(-3.6e-304, -2.9e-303, -1.0)
        _, grad_norms, hess_maxes = search._certificates(
            np.repeat(constants, 2, axis=0), [(0.0,) * 8, tiny]
        )
        assert grad_norms[1] <= 1e-300
        assert hess_maxes[1] == pytest.approx(hess_maxes[0], rel=1e-12)
        # The full 8 x 8 spectrum at the origin has the same top eigenvalue,
        # in units of |c2 k2| e1.
        value, _, hess = _tmsv_derivatives(constants, [(0.0,) * 8])
        assert np.sign(value[0]) == np.sign(objective(BellSettings(0, 0, 0, 0)).bell_value)
        top = np.linalg.eigvalsh(np.sign(value[0]) * hess[0])[-1]
        c2, _, _, _, k2, _, _, e1, _ = constants[0]
        assert hess_maxes[0] == pytest.approx(top / abs(c2 * k2 * e1), rel=1e-12)

    def test_non_finite_hessian_certifies_nothing(self, monkeypatch):
        # eigvalsh of a NaN matrix returns finite numbers, so the
        # certificate itself must turn a non-finite Hessian into NaN.
        objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
        point = sweep_eta_s(TmsvSpec(0.3), [0.5], [0.0]).cells[0].report.settings

        def nan_hessians(constants, points):
            value, grad, hess = _tmsv_derivatives(constants, points)
            return value, grad, np.full_like(hess, np.nan)

        monkeypatch.setattr(search, "_tmsv_derivatives", nan_hessians)
        _, _, hess_max = search._certificates(constants_of(objective), [point.to_vector()])
        assert math.isnan(hess_max[0])

    def test_one_row_certificate_is_the_batch_row(self):
        # A row's certificate does not depend on the other rows of its batch.
        spec = TmsvSpec(0.3)
        objectives = [
            detection_objective(spec, 0.0, DetectionNoise(0.5)),
            thermal_objective(spec, -0.2, ThermalNoise(0.6, 1.0)),
            detection_objective(spec, -0.5, DetectionNoise(0.4), CLAMP_LOSS_CHANNEL),
        ]
        keys = np.concatenate([constants_of(objective) for objective in objectives])
        points = np.random.default_rng(7).uniform(-1.0, 1.0, (3, 8))
        batch = search._certificates(keys, points)
        for i in range(len(objectives)):
            alone = search._certificates(keys[i : i + 1], points[i : i + 1])
            assert [a[0] for a in alone] == [b[i] for b in batch]

    def test_each_objective_is_called_for_its_key_and_its_report(self, monkeypatch):
        # The solve and the certificate read the curve keys alone: each
        # objective is called once for its key and once for the report of
        # its point, never with grad=True, and no cell searches.
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
        assert all(calls[idx] == [(False, 0), (False, 1)] for idx in calls)

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
            lift, (c2, c1, c0, width, k2, e2, k1, e1, sh2) = objective()
            assert report.meta == {"source": "asymptote", "grad_norm": 0.0, "hess_max": 0.0}
            assert report.bell_value == c0
            x = np.array(report.settings.to_vector()) / lift
            assert np.array_equal(x, family_point(x[0], x[0], 1.0))
            assert min(e2 * (2.0 * width + sh2), e1) * x[0] ** 2 >= 800.0

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
        searched = [maximize_bell(objective, config, idx) for config in configs]
        assert report.bell_abs >= max(r.bell_abs for r in searched) - 1e-9, cells[idx]
        assert report.violated == max(searched, key=lambda r: r.bell_abs).violated, cells[idx]


def test_noise_free_wigner_cells_climb_to_the_asymptote():
    # The noise-free s = 0 cell for xi = 0, 0.25, ..., 8 in one call.  The
    # witness rises from the separable value 2 at xi = 0 towards Banaszek
    # and Wodkiewicz's limit 2.3244947811..., which it reaches by xi = 6.
    # At xi = 0 the Hessian is 0: the point reads 2 (exactly, under the
    # recorded kernels; an ulp above under others), but only a global bound
    # could certify it.
    xis = [0.25 * k for k in range(33)]
    objectives = [detection_objective(TmsvSpec(xi), 0.0, DetectionNoise(1.0)) for xi in xis]
    reports = search.optimize_cells(objectives)
    values = [report.bell_abs for report in reports]
    assert [report.meta["source"] for report in reports] == ["uncertified"] + ["curve"] * 32
    assert abs(values[0] - 2.0) <= 1e-15 and not reports[0].violated
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert max(values) <= 2.3244947811
    assert min(values[xis.index(6.0):]) >= 2.32449478


# Run in a fresh interpreter: a search, then the scipy modules it loaded,
# then the same search after importing scipy.optimize, whose _moduleTNC
# must be the core the search loaded.
CORE_LOAD_SCRIPT = """
import json, sys
from phasewitness import search
from phasewitness.noise import DetectionNoise
from phasewitness.states import TmsvSpec
from phasewitness.witness import detection_objective

objective = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))
config = search.SearchConfig(n_starts=4, seed=1)
first = search.maximize_bell(objective, config)
loaded = [m for m in ("scipy.optimize", "scipy.special") if m in sys.modules]
import scipy.optimize
print(json.dumps({
    "loaded": loaded,
    "same_core": scipy.optimize._moduleTNC.tnc_minimize is search._tnc_minimize(),
    "same_report": search.maximize_bell(objective, config) == first,
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
        assert json.loads(out.stdout) == {"loaded": [], "same_core": True, "same_report": True}

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
