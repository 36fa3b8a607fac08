"""Validation suite runner and its failure reporting."""

from __future__ import annotations

import time

import numpy as np
import pytest

from phasewitness import validate
from phasewitness.validate import SUITE_NAMES, SuiteResult, format_report, run_suites


class TestRunSuites:
    def test_quick_pass_under_budget(self):
        start = time.perf_counter()
        results = run_suites(quick=True)
        elapsed = time.perf_counter() - start
        assert [r.name for r in results] == list(SUITE_NAMES)
        assert all(r.passed for r in results), format_report(results)
        assert all(r.worst <= r.tolerance for r in results)
        assert elapsed < 30.0

    def test_suites_are_timed(self, monkeypatch):
        def broken(quick):
            time.sleep(0.01)
            raise RuntimeError("boom")

        monkeypatch.setitem(validate._SUITES, "eigenvalue_bounds", broken)
        results = run_suites(quick=True, names=["eigenvalue_bounds", "series_reconstruction"])
        assert not results[0].passed and "boom" in results[0].detail
        assert results[0].seconds >= 0.01
        assert results[1].passed and results[1].seconds > 0.0

    def test_name_filter(self):
        results = run_suites(quick=True, names=["eigenvalue_bounds"])
        assert len(results) == 1
        assert results[0].name == "eigenvalue_bounds"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            run_suites(quick=True, names=["no_such_suite"])


class TestReporting:
    def test_line_format(self):
        ok = SuiteResult("alpha", True, 1.2e-12, 1e-10, "spot check", seconds=1.234)
        assert ok.line().startswith("PASS  alpha: worst residual 1.200e-12")
        assert ok.line().endswith("[spot check]  1.23 s")
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
        results = run_suites(quick=True, names=["witness_form_equivalence"])
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
        results = run_suites(quick=True, names=["witness_form_equivalence"])
        assert not results[0].passed

    def test_scaled_smoothing_is_detected(self, monkeypatch):
        # The nested route applies the scale twice, the direct route once.
        from phasewitness import qp_core

        real = qp_core.gaussian_smooth
        monkeypatch.setattr(
            "phasewitness.qp_core.gaussian_smooth",
            lambda *args, **kwargs: real(*args, **kwargs) * (1.0 + 1e-5),
        )
        results = run_suites(quick=True, names=["smoothing_semigroup"])
        assert not results[0].passed
        assert results[0].worst > results[0].tolerance

    def test_scaled_bell_value_breaks_the_separable_bound(self, monkeypatch):
        # The largest product-state |B| in quick mode is 1.99176, so a 1 %
        # scale pushes it past 2.
        from phasewitness import witness

        real = witness.bell_value
        monkeypatch.setattr(
            "phasewitness.witness.bell_value",
            lambda *args: real(*args) * (1.0 + 1e-2),
        )
        results = run_suites(quick=True, names=["separable_bound"])
        assert not results[0].passed
        assert results[0].worst > 0.0

    def test_separable_bound_reads_fields_per_batch(self, monkeypatch):
        # A structural guard, not a timing: one full-depth run evaluates
        # each (pair, s) block's fields as arrays, not point by point.
        from phasewitness import states

        real = states.state_w
        calls = []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr("phasewitness.states.state_w", counted)
        results = run_suites(quick=False, names=["separable_bound"])
        assert results[0].passed, results[0].detail
        assert 0 < len(calls) <= 200

    def test_one_nan_field_value_fails_the_separable_bound(self, monkeypatch):
        # One NaN row in one block must fail the suite, not be skipped by
        # the running maximum.
        from phasewitness import states

        real = states.state_w
        calls = []

        def nan_once(*args):
            out = np.array(real(*args), dtype=float)
            if not calls:
                out.flat[0] = np.nan
            calls.append(1)
            return out

        monkeypatch.setattr("phasewitness.states.state_w", nan_once)
        results = run_suites(quick=True, names=["separable_bound"])
        assert not results[0].passed
        assert not results[0].worst <= results[0].tolerance

    def test_skewed_analytic_route_is_detected(self, monkeypatch):
        from phasewitness import states

        real = states.state_w
        monkeypatch.setattr(
            "phasewitness.states.state_w",
            lambda state, point, s: real(state, point, s) + 1e-4,
        )
        results = run_suites(quick=True, names=["series_reconstruction"])
        assert not results[0].passed
        assert results[0].worst == pytest.approx(1e-4, rel=1e-3)
