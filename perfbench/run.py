"""Benchmark entry point: one workload, end to end or traced.

    python3 perfbench/run.py --workload eta-s-map --seed 1 --seconds 10 --trace 0

Prints a readable report, then a JSON line with the environment and
every metric, and last a JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  README.md defines them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import layout

layout.use_source_tree()

import numpy  # noqa: E402
import scipy  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = layout.ROOT / "perfbench"
SETUP_PROBES = 3
#: No further unit starts once measuring would likely pass this many seconds.
UNIT_BUDGET_S = 140.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

SUITES = (
    "series_reconstruction",
    "loss_rescale_identity",
    "smoothing_semigroup",
    "thermal_convolution",
    "witness_form_equivalence",
    "eigenvalue_bounds",
    "separable_bound",
    "multi_outcome_rescale",
)
LAYERS = ("search", "witness", "qp_core", "states", "noise", "validate")

PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.overhead_s", "s"),
    ("cli.csv_bytes", "count"),
    ("search.sweep_s", "s"),
    ("search.cpu_s", "s"),
    ("search.cell_s", "s"),
    ("search.evals", "count"),
    ("search.unconverged_frac", "ratio"),
    ("witness.calls", "count"),
    ("witness.detection_call_us", "us"),
    ("witness.thermal_call_us", "us"),
    ("witness.from_vector_call_us", "us"),
    ("qp_core.plane_integral.calls", "count"),
    ("qp_core.plane_integral.nodes", "count"),
    ("qp_core.plane_integral_s", "s"),
    ("qp_core.gaussian_smooth_s", "s"),
    ("qp_core.beamsplitter_convolve_s", "s"),
    ("qp_core.w_from_distribution_s", "s"),
    ("states.state_w.calls", "count"),
    ("states.state_w_s", "s"),
    ("states.photon_distribution_s", "s"),
    ("noise.bernoulli_detect_s", "s"),
    ("noise.lossy_w_d_s", "s"),
    *((f"validate.{suite}_s", "s") for suite in SUITES),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "search.evals",
    "witness.calls",
    "qp_core.plane_integral.nodes",
    "cli.csv_bytes",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time and import time of one fresh interpreter."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    data = json.loads(out.stdout.splitlines()[-1])
    return data["ready"] - start, data["import_s"]


def git_commit() -> str | None:
    if not (layout.ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(layout.ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((layout.SRC / "phasewitness").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(args) -> tuple[list, dict, dict]:
    """Run whole units until ``--seconds`` have passed; median over units."""
    unit_fn = workloads.UNITS[args.workload]
    units = []
    start = time.perf_counter()
    while True:
        units.append(unit_fn(args.seed))
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds or elapsed + units[-1].wall_s > UNIT_BUDGET_S:
            break
    metrics = {"wall_s": statistics.median(u.wall_s for u in units)}
    extra: dict = {}
    counts: dict = {"units": len(units)}
    if args.workload == workloads.MAP:
        counts["cells"] = units[0].attempted
        extra["cells_per_s"] = (statistics.median(u.attempted / u.wall_s for u in units), "1/s")
    elif args.workload == workloads.THERMAL:
        latencies = [c.latency_s for u in units for c in u.records]
        counts["cells"] = len(latencies)
        counts["scans"] = sum(u.extra["scans"] for u in units)
        counts["r_star"] = [u.extra["r_star"] for u in units]
        extra["cells_per_s"] = (statistics.median(len(u.records) / u.wall_s for u in units), "1/s")
        extra["cell_p50_s"] = (statistics.median(latencies), "s")
        counts["cell_p50_samples"] = len(latencies)
        tail = stats.tail_percentile(latencies)
        if tail is not None:
            extra[f"cell_p{tail.percentile:g}_s"] = (tail.value, "s")
            counts[f"cell_p{tail.percentile:g}_samples"] = tail.samples
            counts[f"cell_p{tail.percentile:g}_beyond"] = tail.beyond
    else:
        counts["suites"] = units[0].attempted
    return units, metrics, {"extra": extra, "counts": counts}


def traced(args, import_s: float) -> tuple[list, dict, dict]:
    """One traced unit, in-process and serial; per-layer metrics.

    For the map, an untraced CLI run first gives the ``cli.*`` figures
    and the pool's ``search.sweep_s`` and ``search.cpu_s``.
    """
    layer = {name: 0 for name, _ in PER_LAYER}
    layer["cli.import_s"] = import_s
    units = []
    if args.workload == workloads.MAP:
        cli = workloads.map_cli(args.seed)
        units.append(cli)
        layer["search.cpu_s"] = cli.extra["cpu_s"]
        if "manifest_wall_s" in cli.extra:
            layer["search.sweep_s"] = cli.extra["manifest_wall_s"]
            layer["cli.csv_bytes"] = cli.extra["csv_bytes"]
            layer["cli.overhead_s"] = (
                cli.extra["process_s"] - cli.extra["manifest_wall_s"] - import_s
            )
        unit_fn = workloads.map_inprocess
    else:
        unit_fn = workloads.UNITS[args.workload]
    tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    with tracing.installed(tracer):
        unit = unit_fn(args.seed)
    units.append(unit)

    own, by_layer, calls, total = tracing.summarize(tracer)
    counts = tracer.counts
    cells = [
        s[tracing.END] - s[tracing.START]
        for s in tracer.spans
        if s[tracing.NAME] == "search.maximize_bell"
    ]
    layer["search.cell_s"] = statistics.median(cells) if cells else 0.0
    layer["search.evals"] = counts["search.evals"]
    if counts["search.starts"]:
        layer["search.unconverged_frac"] = (
            counts["search.unconverged_starts"] / counts["search.starts"]
        )
    layer["witness.calls"] = counts[tracing.OBJECTIVE]
    layer.update(workloads.witness_call_us())
    layer["qp_core.plane_integral.calls"] = calls["qp_core.plane_integral"]
    layer["qp_core.plane_integral.nodes"] = counts[tracing.NODES]
    layer["states.state_w.calls"] = calls["states.state_w"]
    for name in (
        "qp_core.plane_integral", "qp_core.gaussian_smooth", "qp_core.beamsplitter_convolve",
        "qp_core.w_from_distribution", "states.state_w", "states.photon_distribution",
        "noise.bernoulli_detect", "noise.lossy_w_d",
    ):
        layer[f"{name}_s"] = own[name]
    for suite in SUITES:
        layer[f"validate.{suite}_s"] = total[f"validate.{suite}"]
    for name in LAYERS:
        layer[f"{name}.self_s"] = by_layer[name]
    per_span, per_leaf = tracing.overhead_per_call()
    layer["trace.spans"] = len(tracer.spans)
    layer["trace.wall_s"] = unit.wall_s
    layer["trace.overhead_s"] = (
        len(tracer.spans) * per_span + counts[tracing.OBJECTIVE] * per_leaf
    )

    spans_path = layout.OUT / f"trace-{args.workload}-seed{args.seed}.csv.gz"
    tracing.write_spans(tracer, spans_path)
    info = {
        "counts": {
            "cells": len(unit.records) if args.workload != workloads.VALIDATE else 0,
            "suites": len(unit.records) if args.workload == workloads.VALIDATE else 0,
            "search.cell_s_samples": len(cells),
            "spans_file": str(spans_path.relative_to(layout.ROOT)),
        },
        "exact_counts": {name: layer[name] for name in EXACT_COUNTS},
        "bypass": {
            "qp_core counts zero": not any(
                n.startswith("qp_core.") for n in calls
            ) and not counts[tracing.NODES],
            "search counts zero": not any(
                n.startswith("search.") for n in calls
            ) and not counts["search.evals"],
        },
        "wrapper_cost_us": {"span": per_span * 1e6, "objective": per_leaf * 1e6},
        "self_s_by_span": dict(sorted(own.items())),
    }
    return units, layer, info


def main(argv=None) -> int:
    args = parse_args(argv)
    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(p[0] for p in probes)
    import_s = statistics.median(p[1] for p in probes)

    if args.trace:
        units, values, info = traced(args, import_s)
        names = PER_LAYER
    else:
        units, values, info = end_to_end(args)
        values["setup_s"] = setup_s
        names = END_TO_END
    values["peak_rss_mb"] = peak_rss_mb()

    attempted = sum(u.attempted for u in units)
    failures = [f for u in units for f in u.failures]
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workloads.pool_workers() if args.workload == workloads.MAP else 1,
        "setup_probes": SETUP_PROBES,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    shown = {name: dict(m) for name, m in metrics.items()}
    for name, (value, unit) in info.pop("extra", {}).items():
        shown[name] = {"value": value, "unit": unit}
    shown["failed_frac"] = {"value": len(failures) / attempted, "unit": "ratio"}
    if not args.trace:
        shown["setup_s"]["samples"] = SETUP_PROBES

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in shown.items():
        print(f"  {name:<38} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'attempted':<38} {attempted:>16d}")
    print(f"  {'failed':<38} {len(failures):>16d}")
    for failure in failures[:20]:
        print(f"  FAIL {failure}")
    print(json.dumps({"env": env, "metrics": shown, **info, "failures": failures}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
