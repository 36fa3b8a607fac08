"""Spans and exact counts recorded around calls into the package.

``installed`` replaces the package's public functions with wrappers in
every package module that binds them.  The validate suites reach
``qp_core``, ``states``, ``noise`` and ``witness`` through attribute
lookups, and ``search`` reaches ``maximize_bell`` and
``detection_objective`` through module globals, so both kinds of call
go through the wrappers.  Nothing in the package is edited.

Objective calls are too frequent to keep one span each (about a million
per workload); they are counted and timed in aggregate, and their time
is charged to the span they ran in.
"""

from __future__ import annotations

import csv
import gzip
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Spanned public functions, by layer (module name).
SPANNED = {
    "search": ("maximize_bell", "sweep_eta_s"),
    "witness": ("detection_objective", "thermal_objective", "bell_value"),
    "qp_core": (
        "plane_integral", "gaussian_smooth", "beamsplitter_convolve", "w_from_distribution",
    ),
    "states": ("state_w", "photon_distribution", "thermal_w"),
    "noise": ("bernoulli_detect", "lossy_w", "lossy_w_d", "rescale_detection", "evolve_thermal_w"),
    "validate": ("run_suites",),
}

OBJECTIVE = "witness.objective"
NODES = "qp_core.plane_integral.nodes"

# Span record fields.
NAME, START, END, PARENT, LEAF_S = range(5)


class Tracer:
    """In-memory spans of one run: ``[name, start, end, parent index, leaf time]``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self._open: list[int] = []

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span.

        ``before(args, kwargs)`` may replace the arguments and
        ``after(result, args, kwargs)`` the result.
        """

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, 0.0]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                self._open.pop()
            return result if after is None else after(result, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn):
        """Wrap ``fn`` to count and time its calls without keeping spans."""
        spans, open_, counts, leaf_s = self.spans, self._open, self.counts, self.leaf_s

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                counts[name] += 1
                leaf_s[name] += dt
                if open_:
                    spans[open_[-1]][LEAF_S] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # Hooks for the functions whose results or arguments carry counts.

    def _count_search(self, report, args, kwargs):
        extra = kwargs.get("extra_starts", args[3] if len(args) > 3 else ())
        meta = report.meta
        self.counts["search.evals"] += int(meta["n_evals"])
        self.counts["search.unconverged_starts"] += int(meta["unconverged_starts"])
        self.counts["search.starts"] += int(meta["n_starts"]) + len(extra)
        return report

    def _wrap_objective(self, objective, args, kwargs):
        return self.leaf(OBJECTIVE, objective)

    def _count_nodes(self, args, kwargs):
        f = args[0]
        counts = self.counts

        def integrand(pts):
            counts[NODES] += int(np.size(pts))
            return f(pts)

        return (integrand, *args[1:]), kwargs

    def hooks(self, qualified: str) -> dict:
        return {
            "search.maximize_bell": {"after": self._count_search},
            "witness.detection_objective": {"after": self._wrap_objective},
            "witness.thermal_objective": {"after": self._wrap_objective},
            "qp_core.plane_integral": {"before": self._count_nodes},
        }.get(qualified, {})


@contextmanager
def installed(tracer: Tracer):
    """Wrap the spanned functions and the validate suites; restore them on exit."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "phasewitness"]
    restore: list[tuple[object, str, object]] = []
    validate = sys.modules["phasewitness.validate"]
    suites = getattr(validate, "_SUITES", {})
    saved_suites = dict(suites)
    try:
        for layer, names in SPANNED.items():
            module = sys.modules[f"phasewitness.{layer}"]
            for attr in names:
                original = getattr(module, attr)
                qualified = f"{layer}.{attr}"
                wrapped = tracer.span(qualified, original, **tracer.hooks(qualified))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
                            restore.append((m, key, original))
        for name, fn in saved_suites.items():
            suites[name] = tracer.span(f"validate.{name}", fn)
        yield tracer
    finally:
        for m, key, original in reversed(restore):
            setattr(m, key, original)
        suites.update(saved_suites)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its direct children cover, minus leaf time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered - span[LEAF_S])
    return out


def summarize(tracer: Tracer) -> tuple[Counter, Counter, Counter, Counter]:
    """Per span name: self time, call count and total time; and self time per layer.

    Returns (self by name, self by layer, calls by name, total by name).
    A layer's self time includes the aggregated objective calls.
    """
    own: Counter = Counter()
    calls: Counter = Counter()
    total: Counter = Counter()
    for span, seconds in zip(tracer.spans, self_times(tracer.spans)):
        own[span[NAME]] += seconds
        calls[span[NAME]] += 1
        total[span[NAME]] += span[END] - span[START]
    by_layer: Counter = Counter()
    for name, seconds in list(own.items()) + list(tracer.leaf_s.items()):
        by_layer[name.split(".")[0]] += seconds
    return own, by_layer, calls, total


def overhead_per_call(number: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Seconds a span wrapper and an objective (leaf) wrapper add to one call.

    Measured on a no-op function, median of ``repeats``; the tracing
    overhead of a run is these times its span and objective-call counts.
    """
    tracer = Tracer("calibration")

    def noop():
        return None

    def per_call(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(number):
                fn()
            times.append(time.perf_counter() - t0)
        return sorted(times)[repeats // 2] / number

    base = per_call(noop)
    return per_call(tracer.span("noop", noop)) - base, per_call(tracer.leaf("noop", noop)) - base


def write_spans(tracer: Tracer, path: Path) -> None:
    """Save the spans as gzip-compressed CSV, one row per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    own = self_times(tracer.spans)
    with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "id", "name", "start_s", "end_s", "parent", "self_s"])
        for i, (span, s) in enumerate(zip(tracer.spans, own)):
            writer.writerow([tracer.run_id, i, span[NAME], span[START], span[END], span[PARENT], s])
