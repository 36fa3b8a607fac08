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
which costs more than a small sweep.

Optimized cells do not search one by one.  ``optimize_cells`` serves
every cell, from a sweep or from ``eval --optimize``, under any clamp
rule.  Each objective names its curve key, ``objective()``: a lift and
the closed-form constants the witness reads at the lifted-down settings.
One vectorized regularized Newton solve over the real symmetric settings
a = (x, y), b = +-a gives a candidate for every distinct constant row at
once.  Each cell lifts its candidate to the 8 raw coordinates, and one
batched certificate, read from the curve keys alone, runs over all the
lifted points: the projected gradient of |B| at most
``CERT_GRAD_NORM``, and the largest eigenvalue of the analytic Hessian
of |B| off the gauge direction below ``CERT_HESS_MAX``, for every cell
in one numpy program.  A cell that passes reports its point; a cell
that fails reports ``maximize_bell`` from that point as one extra start,
never below it, with the starts stream keyed by (seed, cell index).
``_starts`` draws the random starts from the standard library's
``random.Random`` (MT19937), seeded with the Cantor pair of (seed,
stream), so a search loads no ``numpy.random``.  Everything runs in the
calling process; a certified cell's result depends on that cell alone,
and a fallback cell's on its index too.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import os
import random
import sysconfig
from dataclasses import dataclass, replace
from types import ModuleType
from typing import Callable, Sequence

import numpy as np

from .noise import DetectionNoise, ThermalNoise
from .states import TmsvSpec
from .witness import (
    BellSettings,
    WitnessReport,
    _family,
    _family_constants,
    _tmsv_derivatives,
    detection_objective,
    thermal_objective,
)

__all__ = [
    "SearchConfig",
    "SweepCell",
    "SweepResult",
    "maximize_bell",
    "optimize_cells",
    "grid_oracle",
    "sweep_eta_s",
    "sweep_thermal",
]

#: Cap on objective evaluations per start (TNC's ``maxfun``).
MAX_EVALS_PER_START = 2000

_EMPTY = np.array([])


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
        for name in ("n_starts", "seed"):
            v = getattr(self, name)
            try:
                integral = int(v) == v
            except (TypeError, ValueError, OverflowError):
                integral = False
            if not integral:
                raise ValueError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        for name in ("box_radius", "ftol", "xtol"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(2.0 * self.box_radius):
            raise ValueError(
                f"box_radius {self.box_radius} is too large: the box width overflows"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _scipy_module(what: str, name: str, *parts: str) -> ModuleType:
    """Module ``name`` run from the file ``parts`` of scipy's package.

    The file is found through scipy's package location and run under
    ``name``, not put in ``sys.modules``.  An extension file's init still
    imports the top-level ``scipy`` (with ``scipy._lib`` and ``subprocess``)
    through ``scipy._cyutility``, but not ``scipy.optimize``.  ``what`` names
    the file in the ``ImportError`` raised when scipy or the file is missing.
    """
    spec = importlib.util.find_spec("scipy")
    locations = spec.submodule_search_locations if spec is not None else None
    if not locations:
        raise ImportError(f"{what} needs scipy, which is not installed")
    path = os.path.join(locations[0], *parts)
    if not os.path.isfile(path):
        raise ImportError(f"{what} is missing: no file {path}")
    file_spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(file_spec)
    file_spec.loader.exec_module(module)
    return module


@functools.cache
def _tnc_minimize() -> Callable[..., tuple]:
    """``tnc_minimize`` from scipy's ``_moduleTNC`` extension file.

    Loading the file imports neither ``scipy.optimize`` nor scipy's
    special functions; a later ``import scipy.optimize`` gets the same
    function object.
    """
    name = "_moduleTNC" + sysconfig.get_config_var("EXT_SUFFIX")
    core = _scipy_module("TNC's C core", "scipy.optimize._moduleTNC", "optimize", name)
    return core.tnc_minimize


def _better(candidate: tuple[float, tuple[float, ...]], incumbent) -> bool:
    """Higher bell_abs wins; exact ties go to the smaller settings vector."""
    if incumbent is None:
        return True
    if candidate[0] != incumbent[0]:
        return candidate[0] > incumbent[0]
    return candidate[1] < incumbent[1]


def _starts(
    config: SearchConfig, stream: int, extra_starts: Sequence[Sequence[float]] = ()
) -> np.ndarray:
    """The starts of one multi-start search, one 8-vector per row.

    The ``extra_starts`` come first, clipped to the box, then
    ``config.n_starts`` random starts with every coordinate uniform on
    [-box, box]: the first half (rounded up) on the real axis, and every
    odd-index one scaled by 1/4, since the interesting optima sit at
    small displacement amplitudes.  The random starts come from
    ``random.Random`` (MT19937) seeded with the Cantor pair
    k (k + 1) / 2 + stream, k = seed + stream, which is injective on
    non-negative integers: each (seed, stream) has its own stream, for
    any size of seed.
    """
    box = config.box_radius
    k = config.seed + stream
    rng = random.Random(k * (k + 1) // 2 + stream)
    n_real = (config.n_starts + 1) // 2
    starts = [np.clip(np.asarray(warm, dtype=float).reshape(8), -box, box) for warm in extra_starts]
    for i in range(config.n_starts):
        scale = 0.25 if i % 2 == 1 else 1.0
        x0 = [scale * rng.uniform(-box, box) for _ in range(8)]
        if i < n_real:
            x0[1::2] = [0.0] * 4
        starts.append(x0)
    return np.array(starts)


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
    options.  Searching the 48 cells of the benchmark map one by one (one
    x86-64 Xeon core) cost about 28 us per evaluation through
    ``minimize`` and 6 us this way.

    The callback keeps scipy's evaluation semantics: within a start it
    remembers the last point it evaluated and answers a repeat of exactly
    that point from the cache, without calling the objective or counting,
    and the re-evaluation at TNC's returned x goes through the same
    cache.  So ``n_evals`` equals the count scipy's public route reports.
    It hands TNC -|B| and its gradient as plain floats, negated only
    where B >= 0, which is exact; only the best start's gradient becomes
    an array.

    Deterministic given (config.seed, stream, extra_starts): the starts
    are ``_starts``', drawn from ``random.Random`` on the Cantor pair of
    (seed, stream), with ``extra_starts`` (warm starts) first.  Starts
    that TNC does not report as converged are counted in the result's
    meta, never raised; the best point found is always returned, with its
    projected-gradient max-norm as ``grad_norm``.
    """
    tnc_minimize = _tnc_minimize()
    box = config.box_radius
    lo, hi = np.full(8, -box), np.full(8, box)
    n_evals = 0
    last_xl = last_fg = None

    def neg_abs(x: np.ndarray) -> tuple[float, Sequence[float]]:
        nonlocal n_evals, last_xl, last_fg
        xl = x.tolist()
        if xl == last_xl:
            return last_fg
        n_evals += 1
        value, grad = objective(xl, grad=True)
        if value >= 0.0:
            value, grad = -value, [-g for g in grad]
        last_xl, last_fg = xl, (value, grad)
        return last_fg

    best_key = None
    best = None
    unconverged = 0
    for x0 in _starts(config, stream, extra_starts):
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
    x, jac = best
    grad_norm = float(_projected_grad_norm(x, np.array(jac), box))
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
    cells: tuple[SweepCell, ...]


#: A cell is certified when the projected-gradient max-norm of |B| at its
#: point is at most CERT_GRAD_NORM and the largest eigenvalue of the
#: Hessian of |B|, gauge direction projected out, is below CERT_HESS_MAX.
CERT_GRAD_NORM = 1e-9
CERT_HESS_MAX = -1e-6
#: Seeds (x, y) of the curve solve: the first 13 points of the 5 x 5 grid
#: on [-1, 1]^2 in row-major order, those with x < 0, or x = 0 and y <= 0.
#: Every step of the solve commutes with (x, y) -> (-x, -y), so each
#: other grid point would retrace its mirror's path negated, with the
#: same |B| at a later index, which the solve's argmax never picks.
_CURVE_SEEDS = np.array(list(itertools.product(np.linspace(-1.0, 1.0, 5), repeat=2)))[:13]
#: Fixed iteration count of the curve solve.
_CURVE_ITERATIONS = 25
#: Curve keys per curve solve call; it bounds the solve's arrays (52 rows
#: per key: 2 sigmas x 2 signs x 13 seeds) whatever the grid size, and
#: does not change any row's bits.
_CURVE_BLOCK = 128
#: Signs that turn each setting's (im, re) pair into its gauge tangent.
_GAUGE_SIGNS = np.array([[-1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, -1.0]])


@np.errstate(all="ignore")
def _solve_curve(keys: np.ndarray, box: float) -> np.ndarray:
    """Best (x, y, sigma) on the real symmetric family per row of curve constants.

    ``keys`` holds the constants of objectives' curve keys, one row each,
    and x, y are read in the frame of those constants.  One numpy program
    over every row (key, sigma, sign of B, seed) ascends f = sign B from
    each of the 13
    ``_CURVE_SEEDS`` by regularized Newton steps (Ueda & Yamashita, Appl.
    Math. Optim. 62, 27 (2010)): the 2 x 2 Hessian of f is shifted down
    by its largest eigenvalue, if positive, plus the gradient norm, which
    keeps every step an ascent direction of length at most 1 that tends
    to the Newton step as the gradient vanishes at a maximum.  Each
    iterate is clipped to the box, and a step is kept only where it does
    not lower f beyond rounding.  Every row runs elementwise and for a fixed number of
    iterations, so the result for one key does not depend on the other
    rows of ``keys``.  Overflowing constants give NaN rows silently; the
    cell's own objective then names the overflow.  Gives the row of
    largest |B| per key, as an (n, 3) array.
    """
    n = len(keys)
    shape = (n, 2, 2, len(_CURVE_SEEDS))
    constants = keys.T.reshape(-1, n, 1, 1, 1)
    sigma = np.array([1.0, -1.0]).reshape(1, 2, 1, 1)
    terms = [np.broadcast_to(t, shape).copy() for t in _family_constants(constants, sigma)]
    sign = np.broadcast_to(np.array([1.0, -1.0]).reshape(1, 1, 2, 1), shape)
    seeds = np.clip(_CURVE_SEEDS, -box, box)
    x = np.broadcast_to(seeds[:, 0], shape)
    y = np.broadcast_to(seeds[:, 1], shape)
    state = _family(terms, x, y)
    for _ in range(_CURVE_ITERATIONS):
        value, gx, gy, hxx, hxy, hyy = state
        kxx, kxy, kyy = sign * hxx, sign * hxy, sign * hyy
        top = 0.5 * (kxx + kyy) + np.sqrt(0.25 * (kxx - kyy) ** 2 + kxy * kxy)
        shift = np.maximum(top, 0.0) + np.sqrt(gx * gx + gy * gy)
        axx, ayy = shift - kxx, shift - kyy
        det = axx * ayy - kxy * kxy
        # A flat row (zero gradient and curvature) gives 0/0: a NaN trial,
        # which the comparison below rejects.
        tx = np.clip(x + sign * (ayy * gx + kxy * gy) / det, -box, box)
        ty = np.clip(y + sign * (axx * gy + kxy * gx) / det, -box, box)
        trial = _family(terms, tx, ty)
        keep = sign * trial[0] >= sign * value - 1e-14
        x, y = np.where(keep, tx, x), np.where(keep, ty, y)
        state = [np.where(keep, t, c) for t, c in zip(trial, state)]
    best = np.abs(state[0]).reshape(n, -1).argmax(axis=1)
    rows = np.arange(n)
    columns = (x, y, np.broadcast_to(sigma, shape))
    return np.stack([c.reshape(n, -1)[rows, best] for c in columns], axis=1)


def _projected_grad_norm(x: np.ndarray, jac: np.ndarray, box: float) -> np.ndarray:
    """Max-norm over the last axis of the projected gradient of -|B| on the box, as L-BFGS-B."""
    return np.max(np.abs(x - np.clip(x - jac, -box, box)), axis=-1)


def _certificates(keys, points, box: float) -> tuple[np.ndarray, np.ndarray]:
    """(grad_norm, hess_max) of |B| per curve key at its raw 8-vector.

    ``keys`` are the objectives' curve keys ``objective()`` and ``points``
    the n raw 8-vectors; one ``_tmsv_derivatives`` call gives B, its
    gradient and its Hessian for all rows, and no objective is called.
    ``grad_norm`` is the projected-gradient max-norm that ``maximize_bell``
    reports.  ``hess_max`` is the largest eigenvalue of the Hessian of |B|
    on the complement of the gauge direction a -> a e^{i phi},
    b -> b e^{-i phi}, along which B is constant: one Householder
    reflection per row and one batched ``eigvalsh``.  A row whose Hessian
    is not finite gets a NaN ``hess_max``.
    """
    points = np.array(points, dtype=float).reshape(-1, 8)
    value, grad, hess = _tmsv_derivatives([c for _, c in keys], [lf for lf, _ in keys], points)
    sign = np.where(value >= 0.0, 1.0, -1.0)
    grad_norms = _projected_grad_norm(points, -sign[:, None] * grad, box)
    hess *= sign[:, None, None]
    # d/dphi of the settings per (re, im) pair: (-im, re) on mode A and
    # (im, -re) on mode B.  A Householder reflection maps it onto the
    # first axis, and the other seven axes span its complement.  Scaling
    # by the largest entry first keeps a point next to the origin from
    # underflowing the norm.  A point at the origin has no gauge
    # direction; its reflection is the identity, and dropping the first
    # axis leaves its largest eigenvalue unchanged, as the Hessian there
    # commutes with the gauge and so has even-dimensional eigenspaces.
    gauge = (points.reshape(-1, 4, 2)[:, :, ::-1] * _GAUGE_SIGNS).reshape(-1, 8)
    scale = np.abs(gauge).max(axis=1, keepdims=True)
    u = np.divide(gauge, scale, out=np.zeros_like(gauge), where=scale > 0.0)
    u[:, 0] += np.copysign(np.linalg.norm(u, axis=1), u[:, 0])
    uu = np.einsum("ni,ni->n", u, u)
    uu[uu == 0.0] = 1.0
    reflect = np.eye(8) - 2.0 * u[:, :, None] * u[:, None, :] / uu[:, None, None]
    hess = (reflect @ hess @ reflect)[:, 1:, 1:]
    finite = np.isfinite(hess).all(axis=(1, 2))
    hess[~finite] = 0.0
    hess_max = np.where(finite, np.linalg.eigvalsh(hess)[:, -1], np.nan)
    return grad_norms, hess_max


def optimize_cells(
    objectives: Sequence[Callable[..., object]], config: SearchConfig
) -> list[WitnessReport]:
    """The maximized witness report of each objective, one curve solve for all.

    ``objectives`` are built by ``detection_objective`` or
    ``thermal_objective`` (any clamp rule), whose ``objective()`` gives the
    curve key (lift, constants).  One curve solve runs over the distinct
    constant rows; each cell lifts its row's solution by its lift to the
    raw 8-vector, and one batched certificate runs over all the lifted
    points.  A cell is reported at its point when it certifies there, else
    reports ``maximize_bell`` from that point as its one extra start, with
    the random starts stream keyed by the cell's index in ``objectives``.
    TNC only takes ascent steps from a start, so the search never ends
    below the point; a NaN point (overflowing constants) makes the
    objective name its overflow in the search.  Each report depends only
    on its own objective and index, not on the other cells.
    """
    keys = [objective() for objective in objectives]
    rows, which = np.unique([constants for _, constants in keys], axis=0, return_inverse=True)
    curve = np.concatenate(
        [
            _solve_curve(rows[i : i + _CURVE_BLOCK], config.box_radius)
            for i in range(0, len(rows), _CURVE_BLOCK)
        ]
    )
    lifts = np.array([lift for lift, _ in keys])
    scales = np.stack([lifts, lifts, np.ones_like(lifts)], axis=1)
    x, y, sigma = (curve[which.reshape(-1)] * scales).T
    zero = np.zeros_like(x)
    points = np.stack([x, zero, y, zero, sigma * x, zero, sigma * y, zero], axis=1)
    box = config.box_radius
    grad_norms, hess_maxes = _certificates(keys, points, box)
    cells = []
    for idx, objective in enumerate(objectives):
        grad_norm, hess_max = float(grad_norms[idx]), float(hess_maxes[idx])
        meta = dict(n_evals=0, n_starts=0, unconverged_starts=0, stream=idx,
                    grad_norm=grad_norm, source="curve", hess_max=hess_max)
        if grad_norm <= CERT_GRAD_NORM and hess_max < CERT_HESS_MAX:
            report = objective(BellSettings.from_vector(points[idx]))
        else:
            report = maximize_bell(objective, config, idx, [points[idx]])
            meta.update(report.meta, source="search")
        cells.append((report, meta))
    # One more certificate gives every search point its hess_max.
    searched = [i for i, (_, meta) in enumerate(cells) if meta["source"] == "search"]
    found = [cells[i][0].settings.to_vector() for i in searched]
    for i, hess_max in zip(searched, _certificates([keys[i] for i in searched], found, box)[1]):
        cells[i][1]["hess_max"] = float(hess_max)
    return [replace(report, meta=meta) for report, meta in cells]


def _grid(values, name: str) -> np.ndarray:
    """A non-empty, non-decreasing sweep axis; each cell's objective checks its values."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} grid is empty")
    if np.any(np.diff(arr) < 0.0):
        raise ValueError(f"{name} grid must be non-decreasing")
    return arr


def sweep_eta_s(
    spec: TmsvSpec,
    eta_grid: Sequence[float],
    s_grid: Sequence[float],
    config: SearchConfig,
    max_workers: int | None = None,
) -> SweepResult:
    """Optimized witness value per (eta, s) cell, detection noise.

    Every cell's eta and s are checked as its objective is built, before
    any search runs.  ``max_workers`` is ignored: every sweep runs in the
    calling process.  It stays only because ``perfbench/workloads.py``
    passes it.
    """
    eta_grid = _grid(eta_grid, "eta")
    s_grid = _grid(s_grid, "s")
    cells = list(itertools.product(eta_grid, s_grid))
    objectives = [detection_objective(spec, s, DetectionNoise(eta)) for eta, s in cells]
    reports = optimize_cells(objectives, config)
    return SweepResult(tuple(SweepCell(eta, s, None, rep) for (eta, s), rep in zip(cells, reports)))


def sweep_thermal(
    spec: TmsvSpec,
    r_grid: Sequence[float],
    s_grid: Sequence[float],
    nbar_list: Sequence[float],
    config: SearchConfig,
) -> SweepResult:
    """Optimized witness value per (r, s) cell for each environment nbar.

    Every cell's r, nbar and s are checked as its objective is built,
    before any search runs.
    """
    r_grid = _grid(r_grid, "r")
    s_grid = _grid(s_grid, "s")
    nbar_list = np.asarray(list(nbar_list), dtype=float)
    if nbar_list.size == 0:
        raise ValueError("nbar_list must be non-empty")
    cells = list(itertools.product(nbar_list, r_grid, s_grid))
    objectives = [thermal_objective(spec, s, ThermalNoise(r, nbar)) for nbar, r, s in cells]
    reports = optimize_cells(objectives, config)
    return SweepResult(tuple(SweepCell(r, s, n, rep) for (n, r, s), rep in zip(cells, reports)))
