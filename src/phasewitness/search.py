"""Settings optimization and sweep drivers.

The witness maximum over the four complex settings (8 real coordinates)
is found by multi-start bounded truncated-Newton (TNC) ascent on the
objective's analytic gradient inside a box; an exhaustive grid oracle
provides an independent lower bound for cross-checking.  TNC runs
through scipy's C core with a callback that hands the objective a float
list: scipy's ``minimize`` layers (``MemoizeJac``, ``ScalarFunction``
and their array copies and checks) cost several times the witness
itself per evaluation.  The callback caches its last point as scipy
does, so the evaluation count is scipy's.  The core is loaded from its
extension file on the first search, not imported: importing
``scipy.optimize._moduleTNC`` runs the whole ``scipy.optimize`` package,
which costs more than a small sweep.  Sweep cells are
embarrassingly parallel; every cell draws its starts from a PRNG stream
keyed by (seed, cell index) so serial and parallel runs produce
identical output.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import os
import sysconfig
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .noise import DetectionNoise, ThermalNoise
from .states import TmsvSpec
from .witness import BellSettings, WitnessReport, detection_objective, thermal_objective

__all__ = [
    "SearchConfig",
    "SweepCell",
    "SweepResult",
    "maximize_bell",
    "grid_oracle",
    "sweep_eta_s",
    "sweep_thermal",
]

#: Cap on objective evaluations per start (TNC's ``maxfun``).
MAX_EVALS_PER_START = 2000

_EMPTY = np.array([])

MODE_ETA_S = "eta-s"
MODE_THERMAL = "thermal"


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start search parameters.

    Half the random starts (rounded up) lie on the real axis; the rest
    fill the full 8-D box [-box_radius, box_radius]^8.
    """

    n_starts: int = 16
    box_radius: float = 2.0
    ftol: float = 1e-10
    xtol: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.n_starts) < 1:
            raise ValueError("n_starts must be at least 1")
        object.__setattr__(self, "n_starts", int(self.n_starts))
        for name in ("box_radius", "ftol", "xtol"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(2.0 * self.box_radius):
            raise ValueError(
                f"box_radius {self.box_radius} is too large: the box width overflows"
            )
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@functools.cache
def _tnc_minimize() -> Callable[..., tuple]:
    """``tnc_minimize`` from scipy's ``_moduleTNC`` extension file.

    The file is found through scipy's package location and loaded under
    its own module name, which imports neither ``scipy.optimize`` nor
    scipy's special functions; a later ``import scipy.optimize`` gets the
    same function object.
    """
    spec = importlib.util.find_spec("scipy")
    locations = spec.submodule_search_locations if spec is not None else None
    if not locations:
        raise ImportError("TNC's C core needs scipy, which is not installed")
    name = "_moduleTNC" + sysconfig.get_config_var("EXT_SUFFIX")
    path = os.path.join(locations[0], "optimize", name)
    if not os.path.isfile(path):
        raise ImportError(f"TNC's C core is missing: no file {path}")
    core_spec = importlib.util.spec_from_file_location("scipy.optimize._moduleTNC", path)
    core = importlib.util.module_from_spec(core_spec)
    core_spec.loader.exec_module(core)
    return core.tnc_minimize


def _better(candidate: tuple[float, tuple[float, ...]], incumbent) -> bool:
    """Higher bell_abs wins; exact ties go to the smaller settings vector."""
    if incumbent is None:
        return True
    if candidate[0] != incumbent[0]:
        return candidate[0] > incumbent[0]
    return candidate[1] < incumbent[1]


def maximize_bell(
    objective: Callable[..., object],
    config: SearchConfig,
    stream: int = 0,
    extra_starts: Sequence[Sequence[float]] = (),
) -> WitnessReport:
    """Best witness report over multi-start bounded truncated-Newton ascent.

    ``objective(settings)`` must give a ``WitnessReport`` and
    ``objective(x, grad=True)`` the value B and gradient dB/dx at a raw
    8-vector; every evaluation of the search goes through it.  Each start
    runs TNC (Nash, SIAM J. Numer. Anal. 21, 770 (1984)) on -|B| inside
    the box, with ``config.ftol``/``config.xtol`` as its tolerances,
    through scipy's C core (``_moduleTNC.tnc_minimize``, loaded from its
    extension file by ``_tnc_minimize`` on the first call in a process)
    with the arguments ``minimize(method="TNC")`` passes for these
    options.  On the 48-cell benchmark map (one x86-64 core) a search
    evaluation cost about 44 us through ``minimize`` and 12 us this way.

    The callback keeps scipy's evaluation semantics: within a start it
    remembers the last point it evaluated and answers a repeat of exactly
    that point from the cache, without calling the objective or counting,
    and the re-evaluation at TNC's returned x goes through the same
    cache.  So ``n_evals`` equals the count scipy's public route reports.

    Deterministic given (config.seed, stream, extra_starts).  Odd random
    starts are drawn at quarter scale, since the interesting optima sit
    at small displacement amplitudes; ``extra_starts`` prepends explicit
    8-vectors (warm starts) to the random ones.  Starts that TNC does not
    report as converged are counted in the result's meta, never raised;
    the best point found is always returned, with its projected-gradient
    max-norm as ``grad_norm``.
    """
    tnc_minimize = _tnc_minimize()
    rng = np.random.default_rng((config.seed, stream))
    box = config.box_radius
    lo, hi = np.full(8, -box), np.full(8, box)
    n_real = (config.n_starts + 1) // 2
    n_evals = 0
    last_xl = last_fg = None

    def neg_abs(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal n_evals, last_xl, last_fg
        xl = x.tolist()
        if xl == last_xl:
            return last_fg
        n_evals += 1
        value, grad = objective(xl, grad=True)
        sign = -1.0 if value >= 0.0 else 1.0
        last_xl, last_fg = xl, (sign * value, sign * np.array(grad))
        return last_fg

    starts = []
    for warm in extra_starts:
        starts.append(np.clip(np.asarray(warm, dtype=float).reshape(8), -box, box))
    for i in range(config.n_starts):
        x0 = rng.uniform(-box, box, 8)
        if i % 2 == 1:
            x0 *= 0.25
        if i < n_real:
            x0[1::2] = 0.0
        starts.append(x0)

    best_key = None
    best = None
    unconverged = 0
    for x0 in starts:
        last_xl = None
        # No scale/offset, no messages, default CG, eta, step, accuracy,
        # fmin, pgtol and rescale, and no callback.
        rc, _, _, x, _, _ = tnc_minimize(
            neg_abs, x0, lo, hi, _EMPTY, _EMPTY, 0, -1, MAX_EVALS_PER_START,
            -1, 0, 0, 0, config.ftol, config.xtol, -1, -1, None,
        )
        # TNC's x, f and g may be slightly out of step; re-read them at x.
        fun, jac = neg_abs(x)
        if not -1 < rc < 3:
            unconverged += 1
        key = (-float(fun), tuple(float(v) for v in x))
        if _better(key, best_key):
            best_key = key
            best = (x, jac)
    # Projected gradient of -|B| on the box, as L-BFGS-B measures it.
    x, jac = best
    grad_norm = float(np.max(np.abs(x - np.clip(x - jac, lo, hi))))
    report = objective(BellSettings.from_vector(x))
    meta = {
        "n_evals": n_evals,
        "n_starts": config.n_starts,
        "unconverged_starts": unconverged,
        "stream": int(stream),
        "grad_norm": grad_norm,
    }
    return replace(report, meta=meta)


def grid_oracle(
    objective: Callable[[BellSettings], WitnessReport],
    box_radius: float,
    points_per_axis: int,
) -> WitnessReport:
    """Exhaustive real-axis 4-D settings scan; the anti-surprise baseline for maxima."""
    points_per_axis = int(points_per_axis)
    if points_per_axis < 3:
        raise ValueError("points_per_axis must be at least 3")
    axis = np.unique(np.linspace(-float(box_radius), float(box_radius), points_per_axis))
    best_key = None
    best_report = None
    for a1, a2, b1, b2 in itertools.product(axis, repeat=4):
        report = objective(BellSettings(a1, a2, b1, b2))
        key = (report.bell_abs, report.settings.to_vector())
        if _better(key, best_key):
            best_key = key
            best_report = report
    return best_report


@dataclass(frozen=True)
class SweepCell:
    """One optimized grid cell; axis1 is eta or r, axis2 is the base s."""

    axis1: float
    axis2: float
    nbar: float | None
    report: WitnessReport


@dataclass(frozen=True)
class SweepResult:
    mode: str
    cells: tuple[SweepCell, ...]
    config: SearchConfig
    wall_time: float


def _optimize_cell(args) -> WitnessReport:
    build, spec, s, noise, config, stream = args
    return maximize_bell(build(spec, s, noise), config, stream)


def _sweep(mode, build, spec, cells, config, max_workers) -> SweepResult:
    """Optimize every ``(axis1, axis2, nbar, noise)`` cell of ``cells``.

    ``build(spec, s, noise)`` makes the cell's objective, with s = axis2;
    each cell draws its starts from the stream keyed by its index, so the
    output does not depend on the worker count.
    """
    start = time.perf_counter()
    jobs = [
        (build, spec, s, noise, config, idx)
        for idx, (_, s, _, noise) in enumerate(cells)
    ]
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    max_workers = min(max(1, int(max_workers)), len(jobs))
    if max_workers == 1:
        reports = [_optimize_cell(job) for job in jobs]
    else:
        chunksize = max(1, len(jobs) // (4 * max_workers))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            reports = list(pool.map(_optimize_cell, jobs, chunksize=chunksize))
    swept = tuple(
        SweepCell(axis1, axis2, nbar, report)
        for (axis1, axis2, nbar, _), report in zip(cells, reports)
    )
    return SweepResult(mode, swept, config, time.perf_counter() - start)


def _validate_grid(values, lo: float, hi: float, name: str, *, closed_hi=True) -> np.ndarray:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} grid is empty")
    if np.any(np.diff(arr) < 0.0):
        raise ValueError(f"{name} grid must be non-decreasing")
    top_ok = arr[-1] <= hi if closed_hi else arr[-1] < hi
    if not (arr[0] >= lo and top_ok):
        raise ValueError(f"{name} grid must lie within [{lo}, {hi}{']' if closed_hi else ')'}")
    return arr


def sweep_eta_s(
    spec: TmsvSpec,
    eta_grid: Sequence[float],
    s_grid: Sequence[float],
    config: SearchConfig,
    max_workers: int | None = None,
) -> SweepResult:
    """Optimized witness value per (eta, s) cell, detection noise."""
    eta_grid = _validate_grid(eta_grid, 0.0, 1.0, "eta")
    if eta_grid[0] <= 0.0:
        raise ValueError("eta grid must be strictly positive")
    s_grid = _validate_grid(s_grid, -1.0, 0.0, "s")
    cells = [
        (eta, s, None, DetectionNoise(eta)) for eta, s in itertools.product(eta_grid, s_grid)
    ]
    return _sweep(MODE_ETA_S, detection_objective, spec, cells, config, max_workers)


def sweep_thermal(
    spec: TmsvSpec,
    r_grid: Sequence[float],
    s_grid: Sequence[float],
    nbar_list: Sequence[float],
    config: SearchConfig,
    max_workers: int | None = None,
) -> SweepResult:
    """Optimized witness value per (r, s) cell for each environment nbar."""
    r_grid = _validate_grid(r_grid, 0.0, 1.0, "r", closed_hi=False)
    s_grid = _validate_grid(s_grid, -1.0, 0.0, "s")
    nbar_list = np.asarray(list(nbar_list), dtype=float)
    if nbar_list.size == 0 or np.any(nbar_list < 0.0):
        raise ValueError("nbar_list must be non-empty and non-negative")
    cells = [
        (r, s, nbar, ThermalNoise(r, nbar))
        for nbar, r, s in itertools.product(nbar_list, r_grid, s_grid)
    ]
    return _sweep(MODE_THERMAL, thermal_objective, spec, cells, config, max_workers)
