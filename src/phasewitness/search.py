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

A sweep does not search cell by cell.  Under the default clamp rule a
cell reaches the witness only through its rescaled order s' (and, for
thermal noise, the frame scale 1/t), so one vectorized regularized
Newton solve over the real symmetric settings a = (x, y), b = +-a gives
a candidate for every distinct s' at once.  Each cell lifts its
candidate to the 8 raw coordinates and reports it when it passes the
certificate there (projected gradient of |B| at most ``CERT_GRAD_NORM``,
largest Hessian eigenvalue of |B| off the gauge direction below
``CERT_HESS_MAX``); a cell that fails falls back to ``maximize_bell``
with the starts stream keyed by (seed, cell index).  The sweep runs in
the calling process; a certified cell's result depends on that cell
alone, and a fallback cell's on its index too.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import os
import sysconfig
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .noise import DetectionNoise, ThermalNoise, rescale_detection, rescale_thermal
from .states import TmsvSpec
from .witness import (
    CLAMP_BOUNDED,
    BellSettings,
    WitnessReport,
    _tmsv_constants,
    detection_objective,
    thermal_objective,
)

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
    x, jac = best
    grad_norm = _projected_grad_norm(x, jac, box)
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
#: Central-difference step of the certificate's Hessian.
_HESS_STEP = 1e-5
#: Seed grid per axis and fixed iteration count of the curve solve.
_CURVE_SEEDS = np.linspace(-1.0, 1.0, 5)
_CURVE_ITERATIONS = 25
#: s' values per curve solve call; it bounds the solve's arrays (100 rows
#: per s') whatever the grid size, and does not change any row's bits.
_CURVE_BLOCK = 128
#: Signs that turn each setting's (im, re) pair into its gauge tangent.
_GAUGE_SIGNS = np.array([[-1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, -1.0]])


def _family_constants(constants, sigma):
    """Per-row constants of ``_family`` from (c2, c1, c0, width, k2, e2, k1, e1, sh2) and sigma."""
    c2, c1, c0, width, k2, e2, k1, e1, sh2 = constants
    ew, m = e2 * width, e2 * sigma * sh2
    return c2 * k2, ew, m, 2.0 * ew + m, 2.0 * c1 * k1, e1, c0


def _family(terms, x, y):
    """B, its gradient and its Hessian on the real symmetric family.

    The family is a1 = x, a2 = y, b1 = sigma x, b2 = sigma y (real, in
    the frame the fields are read in, sigma = +-1), on which
    B = c2 k2 (E11 + 2 E12 - E22) + 2 c1 k1 exp(-e1 x^2) + c0 with
    E11 = exp(-p x^2), E22 = exp(-p y^2), E12 = exp(-e2 width (x^2 + y^2)
    - m x y), m = e2 sigma sh2 and p = 2 e2 width + m.  ``terms`` comes
    from ``_family_constants``, as numbers or arrays that broadcast with x
    and y.  Gives (B, Bx, By, Bxx, Bxy, Byy).
    """
    cw, ew, m, p, d1, e1, c0 = terms
    xx, yy = x * x, y * y
    e11 = cw * np.exp(-p * xx)
    e22 = cw * np.exp(-p * yy)
    e12 = 2.0 * cw * np.exp(-(ew * (xx + yy) + m * (x * y)))
    w1 = d1 * np.exp(-e1 * xx)
    qx = 2.0 * ew * x + m * y
    qy = 2.0 * ew * y + m * x
    return (
        e11 + e12 - e22 + w1 + c0,
        -2.0 * (p * x * e11 + e1 * x * w1) - qx * e12,
        2.0 * p * y * e22 - qy * e12,
        (4.0 * p * p * xx - 2.0 * p) * e11 + (qx * qx - 2.0 * ew) * e12
        + (4.0 * e1 * e1 * xx - 2.0 * e1) * w1,
        (qx * qy - m) * e12,
        (qy * qy - 2.0 * ew) * e12 - (4.0 * p * p * yy - 2.0 * p) * e22,
    )


@np.errstate(all="ignore")
def _solve_curve(spec: TmsvSpec, s_primes: np.ndarray, box: float) -> np.ndarray:
    """Best (x, y, sigma) on the real symmetric family per s', default clamp rule.

    One numpy program over every row (s', sigma, sign of B, seed) ascends
    f = sign B from each seed of a 5 x 5 grid by regularized Newton steps
    (Ueda & Yamashita, Appl. Math. Optim. 62, 27 (2010)): the 2 x 2
    Hessian of f is shifted down by its largest eigenvalue, if positive,
    plus the gradient norm, which keeps every step an ascent direction of
    length at most 1 that tends to the Newton step as the gradient
    vanishes at a maximum.  Each iterate is clipped to the box, and a
    step is kept only where it does not lower f beyond rounding.  Every
    row runs elementwise and for a fixed number of iterations, so the
    result for one s' does not depend on the other values in
    ``s_primes``.  Overflowing constants give NaN rows silently; the
    cell's own objective then names the overflow.  Gives the row of
    largest |B| per s', as an (n, 3) array.
    """
    n = len(s_primes)
    shape = (n, 2, 2, _CURVE_SEEDS.size**2)
    constants = np.array(
        [
            [*coefficients, *gaussian]
            for _, coefficients, gaussian in (
                _tmsv_constants(spec, float(sp), 1.0, 1.0, CLAMP_BOUNDED) for sp in s_primes
            )
        ]
    ).T.reshape(9, n, 1, 1, 1)
    sigma = np.array([1.0, -1.0]).reshape(1, 2, 1, 1)
    terms = [np.broadcast_to(t, shape).copy() for t in _family_constants(constants, sigma)]
    sign = np.broadcast_to(np.array([1.0, -1.0]).reshape(1, 1, 2, 1), shape)
    seeds = np.clip(_CURVE_SEEDS, -box, box)
    x = np.broadcast_to(np.repeat(seeds, seeds.size), shape)
    y = np.broadcast_to(np.tile(seeds, seeds.size), shape)
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


def _projected_grad_norm(x: np.ndarray, jac: np.ndarray, box: float) -> float:
    """Max-norm of the projected gradient of -|B| on the box, as L-BFGS-B measures it."""
    return float(np.max(np.abs(x - np.clip(x - jac, -box, box))))


def _certificate(objective, x: Sequence[float], box: float) -> tuple[float, float]:
    """(grad_norm, hess_max) of |B| at the raw 8-vector x.

    ``grad_norm`` is the projected-gradient max-norm that ``maximize_bell``
    reports.  ``hess_max`` is the largest eigenvalue of the Hessian of |B|,
    from symmetrized central differences of the analytic gradient, on the
    complement of the gauge direction a -> a e^{i phi}, b -> b e^{-i phi},
    along which B is constant.
    """
    x = [float(v) for v in x]
    value, grad = objective(x, grad=True)
    sign = 1.0 if value >= 0.0 else -1.0
    point = np.array(x)
    grad_norm = _projected_grad_norm(point, -sign * np.array(grad), box)
    probes = []
    for step in (_HESS_STEP, -_HESS_STEP):
        for j in range(8):
            probe = list(x)
            probe[j] += step
            probes.append(objective(probe, grad=True)[1])
    probes = np.array(probes)
    diff = probes[:8] - probes[8:]
    hess = sign / (4.0 * _HESS_STEP) * (diff + diff.T)
    # d/dphi of the settings per (re, im) pair: (-im, re) on mode A and
    # (im, -re) on mode B.  A Householder reflection maps it onto the
    # first axis, and the other seven axes span its complement.  Scaling
    # by the largest entry first keeps a point next to the origin from
    # underflowing the norm.
    gauge = (point.reshape(4, 2)[:, ::-1] * _GAUGE_SIGNS).ravel()
    if gauge.any():
        u = gauge / np.abs(gauge).max()
        u[0] += math.copysign(np.linalg.norm(u), u[0])
        reflect = np.eye(8) - 2.0 * np.outer(u, u) / (u @ u)
        hess = (reflect @ hess @ reflect)[1:, 1:]
    return grad_norm, float(np.linalg.eigvalsh(hess)[-1])


def _cell_report(objective, x: Sequence[float], config: SearchConfig, stream: int) -> WitnessReport:
    """The certified report at the curve point x, else ``maximize_bell``'s."""
    grad_norm, hess_max = _certificate(objective, x, config.box_radius)
    if grad_norm <= CERT_GRAD_NORM and hess_max < CERT_HESS_MAX:
        report = objective(BellSettings.from_vector(x))
        meta = {
            "n_evals": 0,
            "n_starts": 0,
            "unconverged_starts": 0,
            "stream": stream,
            "grad_norm": grad_norm,
            "source": "curve",
            "hess_max": hess_max,
        }
        return replace(report, meta=meta)
    report = maximize_bell(objective, config, stream)
    _, hess_max = _certificate(objective, report.settings.to_vector(), config.box_radius)
    return replace(report, meta={**report.meta, "source": "search", "hess_max": hess_max})


def _sweep(build, spec, cells, config) -> SweepResult:
    """Report every ``(axis1, axis2, nbar, noise, s', lift)`` cell of ``cells``.

    ``build(spec, s, noise)`` makes the cell's objective, with s = axis2.
    Under the default clamp rule the objective depends on the cell only
    through s' and the frame scale 1/lift, so one curve solve over the
    distinct s' values serves every cell: the cell lifts its s' solution
    by ``lift`` to the raw 8-vector and reports it when it certifies there,
    else falls back to ``maximize_bell`` with the starts stream keyed by
    the cell index.  Each cell depends only on its own s', objective and
    index, not on the other cells.
    """
    objectives = [build(spec, s, noise) for _, s, _, noise, _, _ in cells]
    distinct, which = np.unique([cell[4] for cell in cells], return_inverse=True)
    curve = np.concatenate(
        [
            _solve_curve(spec, distinct[i : i + _CURVE_BLOCK], config.box_radius)
            for i in range(0, distinct.size, _CURVE_BLOCK)
        ]
    )
    swept = []
    for idx, ((axis1, axis2, nbar, _, _, lift), objective) in enumerate(zip(cells, objectives)):
        x, y, sigma = curve[which[idx]] * [lift, lift, 1.0]
        point = (x, 0.0, y, 0.0, sigma * x, 0.0, sigma * y, 0.0)
        swept.append(SweepCell(axis1, axis2, nbar, _cell_report(objective, point, config, idx)))
    return SweepResult(tuple(swept))


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
    """Optimized witness value per (eta, s) cell, detection noise.

    ``max_workers`` is ignored: every sweep runs in the calling process.
    It stays only because ``perfbench/workloads.py`` passes it.
    """
    eta_grid = _validate_grid(eta_grid, 0.0, 1.0, "eta")
    if eta_grid[0] <= 0.0:
        raise ValueError("eta grid must be strictly positive")
    s_grid = _validate_grid(s_grid, -1.0, 0.0, "s")
    cells = []
    for eta, s in itertools.product(eta_grid, s_grid):
        noise = DetectionNoise(eta)
        cells.append((eta, s, None, noise, rescale_detection(s, noise), 1.0))
    return _sweep(detection_objective, spec, cells, config)


def sweep_thermal(
    spec: TmsvSpec,
    r_grid: Sequence[float],
    s_grid: Sequence[float],
    nbar_list: Sequence[float],
    config: SearchConfig,
) -> SweepResult:
    """Optimized witness value per (r, s) cell for each environment nbar."""
    r_grid = _validate_grid(r_grid, 0.0, 1.0, "r", closed_hi=False)
    s_grid = _validate_grid(s_grid, -1.0, 0.0, "s")
    nbar_list = np.asarray(list(nbar_list), dtype=float)
    if nbar_list.size == 0 or np.any(nbar_list < 0.0):
        raise ValueError("nbar_list must be non-empty and non-negative")
    cells = []
    for nbar, r, s in itertools.product(nbar_list, r_grid, s_grid):
        noise = ThermalNoise(r, nbar)
        cells.append((r, s, nbar, noise, rescale_thermal(s, noise), noise.t))
    return _sweep(thermal_objective, spec, cells, config)
