"""Tests of the benchmark's own logic: checks, percentiles, spans.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import pytest

import layout

layout.use_source_tree()

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from phasewitness import qp_core, search, validate  # noqa: E402
from phasewitness.validate import SuiteResult  # noqa: E402


def _map_rows(bound):
    rows = [
        workloads.MapRow(eta, s, lower + 0.01, lower + 0.01 > 2.0, (float(i),) * 8)
        for i, (eta, s, lower) in enumerate(bound)
    ]
    values = {row.x: row.bell_abs for row in rows}
    return rows, (lambda eta, s, x: values[tuple(x)])


def test_map_check_passes_clean_rows_and_counts_a_lowered_cell():
    bound = workloads.load_bound()
    rows, evaluate = _map_rows(bound)
    assert workloads.check_map(rows, bound, evaluate) == []
    low = rows[5]
    rows[5] = workloads.MapRow(low.eta, low.s, bound[5][2] - 1e-6, low.violated, low.x)
    failures = workloads.check_map(rows, bound, evaluate)
    assert len(failures) == 1
    assert failures[0].startswith("cell 5 ") and "below grid bound" in failures[0]


def test_map_check_fails_every_cell_on_a_missing_row():
    bound = workloads.load_bound()
    rows, evaluate = _map_rows(bound)
    assert len(workloads.check_map(rows[:-1], bound, evaluate)) == len(bound)


def test_map_check_uses_the_real_objective():
    eta, s, _ = workloads.load_bound()[0]
    x = (0.1, 0.0, -0.2, 0.0, 0.3, 0.0, 0.1, 0.0)
    value = workloads.detection_value(eta, s, x)
    good = workloads.MapRow(eta, s, value, value > 2.0, x)
    bad = workloads.MapRow(eta, s, value + 1e-9, value > 2.0, x)
    assert workloads.check_map([good], [(eta, s, 0.0)]) == []
    assert "re-evaluated" in workloads.check_map([bad], [(eta, s, 0.0)])[0]


def _scan(nbar, paper, r_star):
    cell = workloads.ThermalCell(nbar, r_star, 2.1, (0.0,) * 8, 0.1, 100, 0, 8)
    return workloads.Scan(nbar, paper, r_star, (cell,))


def test_moved_threshold_fails_its_scan():
    def evaluate(nbar, r, x):
        return 2.1

    scans = [_scan(0.0, 0.80, 0.80), _scan(0.5, 0.70, 0.68), _scan(2.0, 0.50, 0.45)]
    assert workloads.check_scans(scans, evaluate) == []
    scans[1] = _scan(0.5, 0.70, 0.76)
    failures = workloads.check_scans(scans, evaluate)
    assert len(failures) == 1 and failures[0].startswith("scan nbar=0.5")
    scans[1] = workloads.Scan(0.5, 0.70, None, ())
    assert len(workloads.check_scans(scans, evaluate)) == 1


def test_failing_suite_is_counted():
    results = [
        SuiteResult("a", True, 0.0, 1e-8),
        SuiteResult("b", False, 1.0, 1e-8),
        SuiteResult("c", True, 0.0, 1e-8),
    ]
    failures = workloads.check_suites(results)
    assert len(failures) == 1 and "FAIL  b:" in failures[0]


def test_tail_percentile_picks_p75_for_45_samples():
    tail = stats.tail_percentile([float(v) for v in range(45, 0, -1)])
    assert tail == stats.Tail(75.0, 34.0, 45, 11)


def test_tail_percentile_with_few_samples():
    assert stats.tail_percentile(range(20)).percentile == 50.0
    assert stats.tail_percentile(range(10)) is None


def test_self_time_subtracts_only_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0.0],
        ["child", 1.0, 5.0, 0, 0.0],
        ["grandchild", 2.0, 4.0, 1, 0.0],
        ["child", 6.0, 7.0, 0, 0.5],
        ["other", 20.0, 21.0, -1, 0.0],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 0.5, 1.0])


def test_tracer_counts_search_and_witness_calls_and_restores():
    original = search.maximize_bell
    tracer = tracing.Tracer("test")
    config = search.SearchConfig(n_starts=1, seed=3)
    with tracing.installed(tracer):
        assert search.maximize_bell is not original
        make_objective = workloads.witness.detection_objective
        assert make_objective is not workloads.detection_objective
        objective = make_objective(workloads.TmsvSpec(0.3), 0.0, workloads.DetectionNoise(0.6))
        result = search.maximize_bell(objective, config, 0, [(0.0,) * 8])
        qp_core.plane_integral(lambda pts: abs(pts) * 0.0, radius=1.0)
    assert search.maximize_bell is original
    counts = tracer.counts
    assert counts["search.evals"] == result.meta["n_evals"]
    assert counts["search.starts"] == 2
    # Every evaluation plus the final report of the winning point.
    assert counts[tracing.OBJECTIVE] == result.meta["n_evals"] + 1
    assert counts[tracing.NODES] > 0
    _, _, calls, _ = tracing.summarize(tracer)
    assert calls["search.maximize_bell"] == 1 and calls["qp_core.plane_integral"] == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((layout.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.SUITES == validate.SUITE_NAMES
