"""Validation suite runner and its failure reporting."""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import phasewitness
from phasewitness import states, validate, witness
from phasewitness.noise import DetectionNoise
from phasewitness.validate import SUITE_NAMES, SuiteResult, format_report, run_suites


FULL_RUN_SCRIPT = """
import json, sys
from phasewitness import validate
results = validate.run_suites()
print(json.dumps({
    "passed": [r.name for r in results if r.passed],
    "failed": [r.line() for r in results if not r.passed],
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "random": sorted(
        m for m in sys.modules if m.startswith("numpy.random") or m == "hashlib"
    ),
}))
"""


@pytest.fixture(scope="class")
def full_run():
    """One full ``run_suites()`` in a fresh interpreter, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(phasewitness.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", FULL_RUN_SCRIPT], env=env, capture_output=True,
        text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout)


class TestRunSuites:
    def test_full_run_passes_without_scipy(self, full_run):
        assert full_run["failed"] == [] and full_run["scipy"] == []

    def test_full_run_loads_neither_numpy_random_nor_hashlib(self, full_run):
        assert full_run["passed"] == list(SUITE_NAMES)
        assert full_run["random"] == []

    def test_suites_are_timed(self, monkeypatch):
        def broken():
            time.sleep(0.01)
            raise RuntimeError("boom")

        monkeypatch.setitem(validate._SUITES, "eigenvalue_bounds", broken)
        results = run_suites(["eigenvalue_bounds", "series_reconstruction"])
        assert not results[0].passed and "boom" in results[0].detail
        assert results[0].seconds >= 0.01
        assert results[1].passed and results[1].seconds > 0.0

    @pytest.mark.parametrize(
        "residuals", [[0.0, np.nan], [0.0, np.inf], [0.0, -np.inf], []],
        ids=["nan", "inf", "-inf", "empty"],
    )
    def test_non_finite_or_missing_residuals_fail(self, monkeypatch, residuals):
        monkeypatch.setitem(
            validate._SUITES, "eigenvalue_bounds", lambda: (1e-12, residuals)
        )
        (result,) = run_suites(["eigenvalue_bounds"])
        assert not result.passed
        assert not result.worst <= result.tolerance
        assert (result.detail != "") == (residuals == [])

    def test_name_filter(self):
        results = run_suites(["eigenvalue_bounds"])
        assert len(results) == 1
        assert results[0].name == "eigenvalue_bounds"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_suites(["no_such_suite"])


class TestSettingPoints:
    def test_shape_box_and_repeat(self):
        x = validate._setting_points(1, 400)
        assert x.shape == (400, 8)
        assert np.all((x >= -2.0) & (x < 2.0))
        np.testing.assert_array_equal(x, validate._setting_points(1, 400))

    def test_consecutive_draws_share_no_rows(self):
        first = validate._setting_points(1, 400)
        second = validate._setting_points(401, 400)
        rows = {tuple(row) for row in first.tolist()}
        assert len(rows) == 400
        assert rows.isdisjoint(tuple(row) for row in second.tolist())

    def test_rows_fill_the_box(self):
        # Equidistribution, loosely: every coordinate's mean is near 0
        # and each half of every axis holds about half the rows.
        x = validate._setting_points(1, 2000)
        assert np.all(np.abs(x.mean(axis=0)) < 0.05)
        assert np.all(np.abs((x < 0.0).mean(axis=0) - 0.5) < 0.02)


def _witness_rows():
    """The witness-form suite's cells, clamp rules and batched builder rows."""
    cells, n_cold = validate._witness_cells()
    rules = np.array([rule for *_, rule in cells])
    return cells, n_cold, rules, validate._builder_keys(0.3, cells, rules)


class TestBuilderKeys:
    def test_objectives_answer_the_batched_rows(self):
        # The suite reads the builder from the batched rows alone, so each
        # probe cell's objective must answer objective() with exactly its row.
        cells, n_cold, _, (rows, lifts, keys) = _witness_rows()
        assert len(cells) == 123 and n_cold == 18
        spec = states.TmsvSpec(0.3)
        for (noise, s, rule), row, lift, key in zip(cells, rows, lifts, keys):
            if isinstance(noise, DetectionNoise):
                objective = witness.detection_objective(spec, s, noise, clamp_mode=rule)
            else:
                objective = witness.thermal_objective(spec, s, noise, clamp_mode=rule)
            assert objective() == (lift, row[0], tuple(key)), (noise, s, rule)


@pytest.mark.kernels
class TestOrderArrays:
    """An order array gives each row the scalar order's bits, on the suite's own cells."""

    N = 20

    @pytest.fixture(scope="class")
    def blocks(self):
        _, _, _, (rows, _, _) = _witness_rows()
        x = validate._setting_points(validate._WITNESS_START, self.N * len(rows))
        return rows[:, 0], x, x.view(complex).T

    def test_fields_read_an_order_per_point(self, blocks):
        s_prime, _, (a, _, b, _) = blocks
        spec, orders = states.TmsvSpec(0.3), np.repeat(s_prime, self.N)
        w2, w1 = states.tmsv_w2(spec, a, b, orders), states.tmsv_w1(spec, a, orders)
        for i, s in enumerate(s_prime.tolist()):
            rows = slice(self.N * i, self.N * (i + 1))
            assert w2[rows].tobytes() == states.tmsv_w2(spec, a[rows], b[rows], s).tobytes()
            assert w1[rows].tobytes() == states.tmsv_w1(spec, a[rows], s).tobytes()
        columns = np.column_stack(np.broadcast_arrays(*spec.gaussian(s_prime)))
        scalar = np.array([spec.gaussian(s) for s in s_prime.tolist()])
        assert columns.tobytes() == scalar.tobytes()

    def test_bell_value_reads_an_order_per_row(self, blocks):
        s_prime, x, _ = blocks
        spec = states.TmsvSpec(0.3)

        def value(settings, s):
            # The frozen rule's reading: fields at s', coefficients at -1 below it.
            def w1(a):
                return states.tmsv_w1(spec, a, s)

            def w2(a, b):
                return states.tmsv_w2(spec, a, b, s)

            return witness.bell_value(w2, w1, w1, settings, np.maximum(s, -1.0))

        batched = value(x, np.repeat(s_prime, self.N))
        for i, s in enumerate(s_prime.tolist()):
            rows = slice(self.N * i, self.N * (i + 1))
            assert batched[rows].tobytes() == value(x[rows], s).tobytes()

    @pytest.mark.parametrize("bad", [0.5, np.nan, -np.inf])
    def test_a_bad_entry_raises_the_scalar_message(self, blocks, bad):
        _, x, (a, _, b, _) = blocks
        spec, orders = states.TmsvSpec(0.3), np.array([-0.5, bad, 0.5])
        for call in (
            lambda s: states.tmsv_w2(spec, a[:3], b[:3], s),
            lambda s: states.tmsv_w1(spec, a[:3], s),
            lambda s: witness.bell_value(lambda p, q: p.real, abs, abs, x[:3], s),
        ):
            with pytest.raises(ValueError) as scalar:
                call(bad)
            with pytest.raises(ValueError, match="^" + re.escape(str(scalar.value)) + "$"):
                call(orders)
        with pytest.raises(ValueError) as scalar:
            spec.gaussian(1.0)
        with pytest.raises(ValueError, match="^" + re.escape(str(scalar.value)) + "$"):
            spec.gaussian(np.array([-0.5, 1.0, 2.0]))


class TestReporting:
    def test_line_format(self):
        ok = SuiteResult("alpha", True, 1.2e-12, 1e-10, "spot check", seconds=1.234)
        assert ok.line().startswith("PASS  alpha: worst residual 1.200e-12")
        assert ok.line().endswith("[spot check]  1234.0 ms")
        bad = SuiteResult("beta", False, 0.5, 1e-10)
        assert bad.line().startswith("FAIL  beta")

    def test_report_counts_failures(self):
        results = [
            SuiteResult("alpha", True, 0.0, 1e-10),
            SuiteResult("beta", False, 1.0, 1e-10),
        ]
        report = format_report(results)
        assert report.splitlines()[-1] == "1/2 suites passed, 1 FAILED"


class TestCorruptionIsCaught:
    def test_skewed_tmsv_field_is_detected(self, monkeypatch):
        # The objective builder does not read tmsv_w2, so a skewed field
        # shows up as a disagreement between the two witness routes.
        from phasewitness import states

        real = states.tmsv_w2
        monkeypatch.setattr(
            "phasewitness.states.tmsv_w2",
            lambda spec, a, b, s: real(spec, a, b, s) + 1e-4,
        )
        results = run_suites(["witness_form_equivalence"])
        assert not results[0].passed
        assert results[0].worst > 1e-5

    def test_perturbed_bounded_coefficients_are_detected(self, monkeypatch):
        # The field route rebuilds the bounded rule from the order -1
        # coefficients, so the builder's bounded coefficients are live.
        from phasewitness import witness

        real = witness._bounded_coefficients
        monkeypatch.setattr(
            "phasewitness.witness._bounded_coefficients",
            lambda s_prime: tuple(c * (1.0 + 1e-6) for c in real(s_prime)),
        )
        results = run_suites(["witness_form_equivalence"])
        assert not results[0].passed

    def test_scaled_smoothing_is_detected(self, monkeypatch):
        # The nested route applies the scale twice, the direct route once.
        from phasewitness import qp_core

        real = qp_core.gaussian_smooth
        monkeypatch.setattr(
            "phasewitness.qp_core.gaussian_smooth",
            lambda *args, **kwargs: real(*args, **kwargs) * (1.0 + 1e-5),
        )
        results = run_suites(["smoothing_semigroup"])
        assert not results[0].passed
        assert results[0].worst > results[0].tolerance

    def test_scaled_bell_value_breaks_the_separable_bound(self, monkeypatch):
        # The largest product-state |B| over the settings is 1.99828, so a 1 %
        # scale pushes it past 2.
        from phasewitness import witness

        real = witness.bell_value
        monkeypatch.setattr(
            "phasewitness.witness.bell_value",
            lambda *args: real(*args) * (1.0 + 1e-2),
        )
        results = run_suites(["separable_bound"])
        assert not results[0].passed
        assert results[0].worst > 0.0

    def test_separable_bound_reads_fields_per_batch(self, monkeypatch):
        # A structural guard, not a timing: one run evaluates
        # each (pair, s) block's fields as arrays, not point by point.
        from phasewitness import states

        real = states.state_w
        calls = []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr("phasewitness.states.state_w", counted)
        results = run_suites(["separable_bound"])
        assert results[0].passed, results[0].detail
        assert 0 < len(calls) <= 200

    @pytest.mark.parametrize(
        "suite, target",
        [
            ("separable_bound", "phasewitness.states.state_w"),
            ("series_reconstruction", "phasewitness.states.state_w"),
            ("eigenvalue_bounds", "phasewitness.witness.observable_eigenvalue"),
            ("witness_form_equivalence", "phasewitness.states.tmsv_w2"),
        ],
    )
    def test_one_nan_value_fails_the_suite(self, monkeypatch, suite, target):
        # One NaN in the first call's output (the first row of an array
        # block, or the one scalar) must fail the suite, not be skipped
        # by the fold.
        module, name = target.rsplit(".", 1)
        real = getattr(importlib.import_module(module), name)
        calls = []

        def nan_once(*args):
            out = np.array(real(*args), dtype=float)
            if not calls:
                out.flat[0] = np.nan
            calls.append(1)
            return out[()]

        monkeypatch.setattr(target, nan_once)
        results = run_suites([suite])
        assert calls and not results[0].passed
        assert not results[0].worst <= results[0].tolerance

    def test_scaled_environment_fails_the_convolution(self, monkeypatch):
        # The convolution places its nodes by the environment's width but
        # still evaluates the environment field at every node, so a wrong
        # field cannot hide behind the width.
        from phasewitness import states

        real = states.thermal_w
        monkeypatch.setattr(
            "phasewitness.states.thermal_w",
            lambda nbar, pts, s: real(nbar, pts, s) * 1.001,
        )
        results = run_suites(["thermal_convolution"])
        assert not results[0].passed, results[0].line()
        assert results[0].worst > 1e-4

    @pytest.mark.parametrize("suite", ["loss_rescale_identity", "multi_outcome_rescale"])
    def test_thinning_that_loses_mass_is_detected(self, monkeypatch, suite):
        # Each thinned row moves 1e-6 of its mass into its tail bound, so
        # it stays a valid distribution; only the thinned route uses it.
        # Both suites read the thinned series on the unit circle (s = 0,
        # every d-outcome order), where that tail cannot meet the series
        # tolerance, so the suite raises and fails.
        from phasewitness import noise
        from phasewitness.qp_core import PhotonDistribution

        real = noise._thin

        def leaky(pairs):
            return [
                PhotonDistribution(
                    row.probs * (1.0 - 1e-6), tail_bound=row.tail_bound + 1e-6 * row.probs.sum()
                )
                for row in real(pairs)
            ]

        monkeypatch.setattr(noise, "_thin", leaky)
        (result,) = run_suites([suite])
        assert not result.passed, result.line()

    def test_skewed_analytic_route_is_detected(self, monkeypatch):
        from phasewitness import states

        real = states.state_w
        monkeypatch.setattr(
            "phasewitness.states.state_w",
            lambda state, point, s: real(state, point, s) + 1e-4,
        )
        results = run_suites(["series_reconstruction"])
        assert not results[0].passed
        assert results[0].worst == pytest.approx(1e-4, rel=1e-3)


class TestStackedRoutes:
    """Structural guards, not timings: the suites run as array programs."""

    def test_witness_form_equivalence_builds_no_settings(self, monkeypatch):
        # The builder objectives read raw 8-vectors, so a full run builds
        # no BellSettings; the last two lines show the count is live.
        from phasewitness import witness

        real = witness.BellSettings.__post_init__
        built = []

        def counted(self):
            built.append(1)
            real(self)

        monkeypatch.setattr(witness.BellSettings, "__post_init__", counted)
        (result,) = run_suites(["witness_form_equivalence"])
        assert result.passed, result.line()
        assert built == []
        witness.BellSettings(0, 0, 0, 0)
        assert built == [1]

    def test_witness_form_equivalence_runs_as_array_passes(self, monkeypatch):
        cells, n_cold, rules, (rows, _, _) = _witness_rows()
        n_field = len(cells) - 2 * n_cold
        loss = (rows[:n_field, 0] < -1.0) & (rules[:n_field] == witness.CLAMP_LOSS_CHANNEL)
        assert loss.sum() == 13
        calls = Counter()

        def count(module, name, label=lambda *args: None):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name, label(*args)] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(witness, "_curve_keys", lambda xi, s_prime, lift, g, rule: rule)
        count(witness, "_objective")
        count(validate, "_setting_points")
        count(states, "tmsv_w2")
        (result,) = run_suites(["witness_form_equivalence"])
        assert result.passed, result.line()
        for rule in witness.CLAMP_MODES:
            assert 1 <= calls["_curve_keys", rule] <= 2
        assert calls["_objective", None] == 0
        assert calls["_setting_points", None] == 1
        assert 0 < calls["tmsv_w2", None] <= 4 * (1 + loss.sum())

    @pytest.mark.parametrize(
        "suite, n_pairs", [("loss_rescale_identity", 28), ("multi_outcome_rescale", 3)]
    )
    def test_each_loss_suite_thins_in_one_sweep(self, monkeypatch, suite, n_pairs):
        from phasewitness import noise

        real = noise._thin
        calls = []

        def counted(pairs):
            calls.append(len(pairs))
            return real(pairs)

        monkeypatch.setattr(noise, "_thin", counted)
        (result,) = run_suites([suite])
        assert result.passed, result.line()
        assert calls == [n_pairs]
