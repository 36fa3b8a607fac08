"""The benchmark's workloads: inputs, one timed unit of work each, and checks.

A unit returns a ``Unit``: its wall time, how many operations it
attempted, one failure string per failed operation, and the records the
metrics are computed from.  Failed checks are counted, never raised.

The units call the package through module attributes (``search.X``,
``witness.X``) so that wrappers installed by ``tracing`` see the calls.
The checks use the names imported directly below; those bindings are
not wrapped, so re-evaluations are neither traced nor counted.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from layout import OUT, SRC
from phasewitness import search, validate, witness
from phasewitness.noise import DetectionNoise, ThermalNoise
from phasewitness.states import TmsvSpec
from phasewitness.witness import BellSettings, detection_objective, thermal_objective

MAP = "eta-s-map"
THERMAL = "thermal-threshold-scan"
VALIDATE = "validate-full"
WORKLOADS = (MAP, THERMAL, VALIDATE)

XI = 0.3
MAP_ETA = (0.3, 1.0, 8)
MAP_S = (-1.0, 0.0, 6)
MAP_STARTS = 8
BOUND_FILE = Path(__file__).resolve().parent / "eta_s_bound.json"

#: nbar, first r of the upward scan, and the paper's r* for that nbar.
THERMAL_SCANS = ((0.0, 0.70, 0.80), (0.5, 0.55, 0.70), (2.0, 0.35, 0.50))
THERMAL_STARTS = 8
R_STEP = 0.01
R_STAR_BAND = 0.05

#: A re-evaluated witness value must reproduce the reported one to this.
VALUE_TOL = 1e-12
#: A map cell may fall this far below the grid-oracle lower bound.
BOUND_SLACK = 1e-9
CLI_TIMEOUT_S = 150.0

SETTING_COLUMNS = (
    "a1_re", "a1_im", "a2_re", "a2_im", "b1_re", "b1_im", "b2_re", "b2_im",
)


@dataclass
class Unit:
    """Outcome of one timed unit of a workload."""

    wall_s: float
    attempted: int
    failures: list[str]
    records: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MapRow:
    eta: float
    s: float
    bell_abs: float
    violated: bool
    x: tuple[float, ...]


@dataclass(frozen=True)
class ThermalCell:
    nbar: float
    r: float
    bell_abs: float
    x: tuple[float, ...]
    latency_s: float
    n_evals: int
    unconverged_starts: int
    starts: int


@dataclass(frozen=True)
class Scan:
    nbar: float
    paper_r_star: float
    r_star: float | None
    cells: tuple[ThermalCell, ...]


def pool_workers() -> int:
    """Pool size for the map's CLI runs: two, or fewer on a smaller machine."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def map_grid() -> tuple[list[float], list[float]]:
    """The eta and s axes exactly as the CLI builds them from ``lo:hi:count``."""
    return (
        [float(v) for v in np.linspace(*MAP_ETA)],
        [float(v) for v in np.linspace(*MAP_S)],
    )


def map_cells() -> list[tuple[float, float]]:
    """(eta, s) per cell in the sweep's row order."""
    return list(itertools.product(*map_grid()))


def search_config(workload: str, seed: int) -> search.SearchConfig:
    if workload == MAP:
        return search.SearchConfig(n_starts=MAP_STARTS, seed=seed)
    # The thermal scan uses the tolerances of acceptance test A2.
    return search.SearchConfig(n_starts=THERMAL_STARTS, seed=seed, ftol=1e-9, xtol=1e-5)


def prepare(workload: str, seed: int) -> object:
    """Build what a user's process builds before its first call."""
    if workload == VALIDATE:
        return validate.SUITE_NAMES
    spec = TmsvSpec(XI)
    config = search_config(workload, seed)
    if workload == MAP:
        return spec, config, map_grid()
    nbar, r0, _ = THERMAL_SCANS[0]
    return spec, config, thermal_objective(spec, 0.0, ThermalNoise(r0, nbar))


def load_bound() -> list[tuple[float, float, float]]:
    data = json.loads(BOUND_FILE.read_text())
    return [(c["eta"], c["s"], c["bound"]) for c in data["cells"]]


def detection_value(eta: float, s: float, x: Sequence[float]) -> float:
    return detection_objective(TmsvSpec(XI), s, DetectionNoise(eta))(
        BellSettings.from_vector(x)
    ).bell_abs


def thermal_value(nbar: float, r: float, x: Sequence[float]) -> float:
    return thermal_objective(TmsvSpec(XI), 0.0, ThermalNoise(r, nbar))(
        BellSettings.from_vector(x)
    ).bell_abs


# --- checks -----------------------------------------------------------------


def check_map(
    rows: Sequence[MapRow],
    bound: Sequence[tuple[float, float, float]],
    evaluate: Callable[[float, float, Sequence[float]], float] = detection_value,
) -> list[str]:
    """One failure string per failed map cell.

    A wrong row count fails every cell.  Otherwise a cell fails when its
    axes differ from the reference, its value is not finite, ``violated``
    disagrees with the value, re-evaluation at its settings differs, or
    it falls below the grid-oracle bound.
    """
    if len(rows) != len(bound):
        return [f"cell {i}: {len(rows)} rows, want {len(bound)}" for i in range(len(bound))]
    failures = []
    for i, (row, (eta, s, lower)) in enumerate(zip(rows, bound)):
        why = []
        if (row.eta, row.s) != (eta, s):
            why.append(f"axes ({row.eta}, {row.s}) != ({eta}, {s})")
        if not math.isfinite(row.bell_abs):
            why.append(f"bell_abs {row.bell_abs}")
        else:
            if row.violated != (row.bell_abs > 2.0):
                why.append(f"violated={row.violated} at bell_abs {row.bell_abs!r}")
            again = evaluate(row.eta, row.s, row.x)
            if not abs(again - row.bell_abs) <= VALUE_TOL:
                why.append(f"re-evaluated {again!r} != {row.bell_abs!r}")
            if row.bell_abs < lower - BOUND_SLACK:
                why.append(f"bell_abs {row.bell_abs!r} below grid bound {lower!r}")
        if why:
            failures.append(f"cell {i} (eta={row.eta}, s={row.s}): " + "; ".join(why))
    return failures


def check_scans(
    scans: Sequence[Scan],
    evaluate: Callable[[float, float, Sequence[float]], float] = thermal_value,
) -> list[str]:
    """One failure string per failed scan (r* out of band) or cell (value mismatch)."""
    failures = []
    for scan in scans:
        if scan.r_star is None or abs(scan.r_star - scan.paper_r_star) > R_STAR_BAND + 1e-9:
            failures.append(
                f"scan nbar={scan.nbar}: r*={scan.r_star}, "
                f"want {scan.paper_r_star}+/-{R_STAR_BAND}"
            )
        for cell in scan.cells:
            again = evaluate(cell.nbar, cell.r, cell.x)
            if not abs(again - cell.bell_abs) <= VALUE_TOL:
                failures.append(
                    f"cell nbar={cell.nbar} r={cell.r}: re-evaluated {again!r} "
                    f"!= {cell.bell_abs!r}"
                )
    return failures


def check_suites(results) -> list[str]:
    return [r.line() for r in results if not r.passed]


# --- units ------------------------------------------------------------------


def parse_csv(text: str) -> list[MapRow]:
    return [
        MapRow(
            eta=float(r["axis1"]),
            s=float(r["axis2"]),
            bell_abs=float(r["bell_abs"]),
            violated=r["violated"] == "true",
            x=tuple(float(r[k]) for k in SETTING_COLUMNS),
        )
        for r in csv.DictReader(io.StringIO(text))
    ]


def _grid_arg(grid: tuple[float, float, int]) -> str:
    lo, hi, count = grid
    return f"{lo!r}:{hi!r}:{count}"


def map_cli(seed: int) -> Unit:
    """``phasewitness sweep`` as a subprocess with the pool, then the checks."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"map-{os.getpid()}.csv"
    manifest_path = out.with_name(out.name + ".manifest.json")
    argv = [
        sys.executable, "-m", "phasewitness", "sweep", "--mode", "eta-s",
        "--xi", repr(XI), "--eta", _grid_arg(MAP_ETA), "--s", _grid_arg(MAP_S),
        "--starts", str(MAP_STARTS), "--seed", str(seed), "--out", str(out),
    ]
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "PHASEWITNESS_THREADS": str(pool_workers())}
    bound = load_bound()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    with subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        try:
            _, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, stderr = proc.communicate()
    process_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    extra = {
        "process_s": process_s,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
    }
    rows: list[MapRow] = []
    if proc.returncode != 0:
        failures = [f"cell {i}: CLI exit {proc.returncode}" for i in range(len(bound))]
        failures[0] += f" ({stderr.strip()[-500:]})"
    else:
        text = out.read_text()
        manifest = json.loads(manifest_path.read_text())
        extra["csv_bytes"] = len(text.encode())
        extra["manifest_wall_s"] = float(manifest["wall_time_s"])
        try:
            rows = parse_csv(text)
        except (KeyError, ValueError) as exc:
            failures = [f"cell {i}: unreadable CSV ({exc})" for i in range(len(bound))]
        else:
            failures = check_map(rows, bound)
    wall_s = time.perf_counter() - start
    for path in (out, manifest_path):
        path.unlink(missing_ok=True)
    return Unit(wall_s, len(bound), failures, rows, extra)


def map_inprocess(seed: int) -> Unit:
    """The same sweep called in-process on one worker, then the checks."""
    spec, config, (eta_grid, s_grid) = prepare(MAP, seed)
    bound = load_bound()
    start = time.perf_counter()
    result = search.sweep_eta_s(spec, eta_grid, s_grid, config, max_workers=1)
    rows = [
        MapRow(
            c.axis1, c.axis2, c.report.bell_abs, c.report.violated, c.report.settings.to_vector()
        )
        for c in result.cells
    ]
    failures = check_map(rows, bound)
    return Unit(time.perf_counter() - start, len(bound), failures, rows)


def thermal_scan(seed: int) -> Unit:
    """Three warm-started upward r scans, each stopping at its first non-violating cell."""
    spec, config, _ = prepare(THERMAL, seed)
    start = time.perf_counter()
    scans = []
    for nbar, r0, paper in THERMAL_SCANS:
        cells: list[ThermalCell] = []
        warm: list[tuple[float, ...]] = []
        r_star = None
        for k in itertools.count():
            r = round(r0 + R_STEP * k, 2)
            if r >= 1.0:
                break
            objective = witness.thermal_objective(spec, 0.0, ThermalNoise(r, nbar))
            t0 = time.perf_counter()
            report = search.maximize_bell(objective, config, stream=k, extra_starts=warm)
            latency = time.perf_counter() - t0
            cells.append(
                ThermalCell(
                    nbar, r, report.bell_abs, report.settings.to_vector(), latency,
                    int(report.meta["n_evals"]), int(report.meta["unconverged_starts"]),
                    config.n_starts + len(warm),
                )
            )
            if not report.violated:
                break
            r_star = r
            warm = [report.settings.to_vector()]
        scans.append(Scan(nbar, paper, r_star, tuple(cells)))
    failures = check_scans(scans)
    wall_s = time.perf_counter() - start
    cells = [c for scan in scans for c in scan.cells]
    extra = {"scans": len(scans), "r_star": {str(s.nbar): s.r_star for s in scans}}
    return Unit(wall_s, len(cells) + len(scans), failures, cells, extra)


def validate_full(seed: int) -> Unit:
    """All self-check suites at full depth; the seed does not enter."""
    start = time.perf_counter()
    results = validate.run_suites(quick=False)
    failures = check_suites(results)
    return Unit(time.perf_counter() - start, len(results), failures, list(results))


#: The end-to-end unit of each workload.
UNITS = {MAP: map_cli, THERMAL: thermal_scan, VALIDATE: validate_full}


def witness_call_us(repeats: int = 21, number: int = 1000) -> dict[str, float]:
    """Median single-call time of the objective at fixed settings, in microseconds."""
    import timeit

    spec = TmsvSpec(XI)
    det = detection_objective(spec, 0.0, DetectionNoise(0.5))
    therm = thermal_objective(spec, 0.0, ThermalNoise(0.75, 0.5))
    x = np.array([0.3, 0.0, -0.2, 0.05, 0.25, 0.0, -0.15, -0.05])
    settings = BellSettings.from_vector(x)

    def per_call(fn) -> float:
        times = timeit.repeat(fn, repeat=repeats, number=number)
        return float(np.median(times)) / number * 1e6

    return {
        "witness.detection_call_us": per_call(lambda: det(settings)),
        "witness.thermal_call_us": per_call(lambda: therm(settings)),
        "witness.from_vector_call_us": per_call(lambda: det(BellSettings.from_vector(x))),
    }
