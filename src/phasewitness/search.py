"""Settings optimization and sweep drivers.

Optimized cells come from one curve solve, not from a search.
``optimize_cells`` serves every cell, from a sweep or from
``eval --optimize``, under any clamp rule.  Each objective names its
curve key, ``objective()``: a lift and the closed-form constants the
witness reads at the lifted-down settings.  One vectorized regularized
Newton solve over the real symmetric settings a = (x, y), b = +-a, in
the frame of those constants, gives a candidate for every distinct
constant row at once, from seeds scaled to the peak's own length.  One
batched certificate, read from the constants alone, checks each row's
candidate there: the gradient of |B| and the largest eigenvalue of its
Hessian off the gauge direction, each relative to the row's own scale.
As the settings grow B tends to the constant c0, so sup |B| >= |c0|:
a row reports its candidate where that beats |c0|, and otherwise a far
point on the family at which B is c0 to the bit.  Each cell lifts its
row's point to the 8 raw coordinates.  A cell's report depends on its
curve key alone, not on the other cells, and no cell runs a search.

``maximize_bell``, multi-start bounded truncated-Newton (TNC) ascent
inside a box, and ``grid_oracle``, an exhaustive real-axis scan, are
independent maximizers that no command calls; only ``maximize_bell``
needs scipy, for TNC's C core.
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
from typing import Callable, Sequence

import numpy as np

from .noise import DetectionNoise, ThermalNoise
from .states import TmsvSpec
from .witness import (
    BellSettings,
    WitnessReport,
    _family,
    _family_constants,
    _key_scales,
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


@functools.cache
def _tnc_minimize() -> Callable[..., tuple]:
    """``tnc_minimize`` from scipy's ``_moduleTNC`` extension file.

    The file is found through scipy's package location and run under its
    module name, not put in ``sys.modules``.  Its init imports the
    top-level ``scipy`` (with ``scipy._lib`` and ``subprocess``) through
    ``scipy._cyutility``, but neither ``scipy.optimize`` nor scipy's
    special functions; a later ``import scipy.optimize`` gets the same
    function object.
    """
    spec = importlib.util.find_spec("scipy")
    locations = spec.submodule_search_locations if spec is not None else None
    if not locations:
        raise ImportError("TNC's C core needs scipy, which is not installed")
    name = "_moduleTNC" + sysconfig.get_config_var("EXT_SUFFIX")
    path = os.path.join(locations[0], "optimize", name)
    if not os.path.isfile(path):
        raise ImportError(f"TNC's C core is missing: no file {path}")
    file_spec = importlib.util.spec_from_file_location("scipy.optimize._moduleTNC", path)
    core = importlib.util.module_from_spec(file_spec)
    file_spec.loader.exec_module(core)
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
    options: scipy's ``minimize`` layers (``MemoizeJac``,
    ``ScalarFunction`` and their array copies and checks) cost several
    times the witness itself per evaluation.

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
    # The max-norm of the projected gradient of -|B| on the box, as L-BFGS-B.
    grad_norm = float(np.max(np.abs(x - np.clip(x - np.array(jac), -box, box))))
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


#: A row is certified when the gradient max-norm of |B| at its point, in
#: units of |c2 k2| sqrt(e2 width), is at most CERT_GRAD_NORM and the
#: largest eigenvalue of the Hessian of |B|, gauge direction projected
#: out, in units of |c2 k2| e1, is below CERT_HESS_MAX.
CERT_GRAD_NORM = 1e-9
CERT_HESS_MAX = -1e-6
#: Seeds (x, y) of the curve solve, in units of a row's seed scale
#: min(1, 1/sqrt(e2 width)): the first 13 points of the 5 x 5 grid on
#: [-1, 1]^2 in row-major order, those with x < 0, or x = 0 and y <= 0.
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
def _solve_curve(keys: np.ndarray) -> np.ndarray:
    """Best point on the real symmetric family per row of curve constants.

    x, y are read in the frame of the constants ``keys``.  One numpy
    program over every row (key, sigma, sign of B, seed) ascends
    f = sign B from each of the 13 ``_CURVE_SEEDS``, scaled to the peak's
    length by min(1, 1/sqrt(e2 width)), by regularized Newton steps (Ueda
    & Yamashita, Appl. Math. Optim. 62, 27 (2010)): the 2 x 2 Hessian of f
    is shifted down by its largest eigenvalue, if positive, plus the
    gradient norm, which keeps every step an ascent direction of length
    at most 1 that tends to the Newton step as the gradient vanishes at a
    maximum.  A step is kept only where it does not lower f beyond
    rounding.  Every row runs elementwise for a fixed number of
    iterations, so one key's result does not depend on the other rows.
    Overflowing constants give NaN rows silently.  Gives the point of
    largest |B| per key as its 8-vector a = (x, y), b = sigma a, an
    (n, 8) array.
    """
    n = len(keys)
    shape = (n, 2, 2, len(_CURVE_SEEDS))
    constants = keys.T.reshape(-1, n, 1, 1, 1)
    sigma = np.array([1.0, -1.0]).reshape(1, 2, 1, 1)
    terms = [np.broadcast_to(t, shape).copy() for t in _family_constants(constants, sigma)]
    sign = np.broadcast_to(np.array([1.0, -1.0]).reshape(1, 1, 2, 1), shape)
    scale = np.minimum(1.0, _key_scales(keys)[0]).reshape(n, 1, 1, 1)
    x = np.broadcast_to(scale * _CURVE_SEEDS[:, 0], shape)
    y = np.broadcast_to(scale * _CURVE_SEEDS[:, 1], shape)
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
        tx = x + sign * (ayy * gx + kxy * gy) / det
        ty = y + sign * (axx * gy + kxy * gx) / det
        trial = _family(terms, tx, ty)
        keep = sign * trial[0] >= sign * value - 1e-14
        x, y = np.where(keep, tx, x), np.where(keep, ty, y)
        state = [np.where(keep, t, c) for t, c in zip(trial, state)]
    best = np.abs(state[0]).reshape(n, -1).argmax(axis=1)
    rows = np.arange(n)
    x, y, sigma = (c.reshape(n, -1)[rows, best] for c in (x, y, np.broadcast_to(sigma, shape)))
    zero = np.zeros_like(x)
    return np.stack([x, zero, y, zero, sigma * x, zero, sigma * y, zero], axis=1)


@np.errstate(all="ignore")
def _certificates(keys, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, grad_norm, hess_max) per row of curve constants at its 8-vector.

    ``points`` are in the frame of the constants ``keys``; one
    ``_tmsv_derivatives`` call gives B, its gradient and its Hessian for
    all rows, and no objective is called.  ``grad_norm`` is the
    gradient's max-norm and ``hess_max`` the largest eigenvalue of the
    Hessian of |B| off the gauge direction a -> a e^{i phi},
    b -> b e^{-i phi}, along which B is constant (one Householder
    reflection per row and one batched ``eigvalsh``), each in its
    ``_key_scales`` unit, so that neither changes with the scale of the
    constants.  A row whose Hessian is not finite gets a NaN ``hess_max``.
    """
    points = np.array(points, dtype=float).reshape(-1, 8)
    _, grad_unit, hess_unit, _ = _key_scales(keys)
    value, grad, hess = _tmsv_derivatives(keys, points)
    grad_norms = np.abs(grad).max(axis=1) / grad_unit
    hess *= np.where(value >= 0.0, 1.0, -1.0)[:, None, None]
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
    hess_max = np.where(finite, np.linalg.eigvalsh(hess)[:, -1], np.nan) / hess_unit
    return value, grad_norms, hess_max


def optimize_cells(objectives: Sequence[Callable[..., object]]) -> list[WitnessReport]:
    """The maximized witness report of each objective, one curve solve for all.

    ``objectives`` are built by ``detection_objective`` or
    ``thermal_objective`` (any clamp rule), whose ``objective()`` gives the
    curve key (lift, constants).  One curve solve and one certificate run
    over the distinct constant rows.  |B| tends to |c0| as the settings
    grow, so a row's point is its curve point where |B| there beats |c0|
    (``source`` ``curve`` if it certifies, else ``uncertified``) and
    otherwise its far point (``_key_scales``), where B is c0 and the
    gradient and Hessian are 0 (``asymptote``).  Each cell reports its
    objective at its row's point times its lift, with that point's
    ``grad_norm`` and ``hess_max``; a point that is not finite
    (overflowing constants) becomes the origin, where the objective names
    the overflow.  Each report depends only on its own curve key.
    """
    keys = [objective() for objective in objectives]
    rows, which = np.unique([constants for _, constants in keys], axis=0, return_inverse=True)
    curve = np.concatenate(
        [_solve_curve(rows[i : i + _CURVE_BLOCK]) for i in range(0, len(rows), _CURVE_BLOCK)]
    )
    value, grad_norms, hess_maxes = _certificates(rows, curve)
    wins = np.abs(value) > np.abs(rows[:, 2])
    certified = (grad_norms <= CERT_GRAD_NORM) & (hess_maxes < CERT_HESS_MAX)
    sources = np.where(wins, np.where(certified, "curve", "uncertified"), "asymptote")
    # The far point x = y = R, sigma = 1 of a row that |c0| wins.
    far = np.where(np.arange(8) % 2 == 0, _key_scales(rows)[3][:, None], 0.0)
    points = np.where(wins[:, None], curve, far)
    grad_norms = np.where(wins, grad_norms, 0.0)
    hess_maxes = np.where(wins, hess_maxes, 0.0)
    cells = []
    for objective, (lift, _), row in zip(objectives, keys, which.reshape(-1)):
        point = points[row] * lift
        if not np.isfinite(point).all():
            point = np.zeros(8)
        report = objective(BellSettings.from_vector(point))
        meta = {
            "source": str(sources[row]),
            "grad_norm": float(grad_norms[row]),
            "hess_max": float(hess_maxes[row]),
        }
        cells.append(replace(report, meta=meta))
    return cells


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
    config: object = None,
    max_workers: int | None = None,
) -> SweepResult:
    """Optimized witness value per (eta, s) cell, detection noise.

    Every cell's eta and s are checked as its objective is built, before
    any cell is optimized.  ``config`` and ``max_workers`` are ignored:
    no cell searches, and every sweep runs in the calling process.  They
    stay only because ``perfbench/workloads.py`` passes them.
    """
    eta_grid = _grid(eta_grid, "eta")
    s_grid = _grid(s_grid, "s")
    cells = list(itertools.product(eta_grid, s_grid))
    objectives = [detection_objective(spec, s, DetectionNoise(eta)) for eta, s in cells]
    reports = optimize_cells(objectives)
    return SweepResult(tuple(SweepCell(eta, s, None, rep) for (eta, s), rep in zip(cells, reports)))


def sweep_thermal(
    spec: TmsvSpec,
    r_grid: Sequence[float],
    s_grid: Sequence[float],
    nbar_list: Sequence[float],
) -> SweepResult:
    """Optimized witness value per (r, s) cell for each environment nbar.

    Every cell's r, nbar and s are checked as its objective is built,
    before any cell is optimized.
    """
    r_grid = _grid(r_grid, "r")
    s_grid = _grid(s_grid, "s")
    nbar_list = np.asarray(list(nbar_list), dtype=float)
    if nbar_list.size == 0:
        raise ValueError("nbar_list must be non-empty")
    cells = list(itertools.product(nbar_list, r_grid, s_grid))
    objectives = [thermal_objective(spec, s, ThermalNoise(r, nbar)) for nbar, r, s in cells]
    reports = optimize_cells(objectives)
    return SweepResult(tuple(SweepCell(r, s, n, rep) for (n, r, s), rep in zip(cells, reports)))
