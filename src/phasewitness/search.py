"""Settings optimization and sweep drivers.

Optimized cells come from one curve solve, not from a search.  A cell is
a lift, its order s' and its curve key, the closed-form constants the
witness reads at the lifted-down settings, all from ``witness._cells``:
a sweep forms them for its whole grid in one call, and
``optimize_cells`` (``eval --optimize``) reads them from its objectives,
each one row of the same route.  One vectorized regularized Newton solve
over the real symmetric settings a = b = (x, y), in the frame of those
constants, gives a candidate for every distinct constant row at once,
from seeds scaled to the peak's own length.  One batched certificate,
read from the constants alone, checks each row's candidate there: B, the
gradient of |B| and the largest eigenvalue of its Hessian off the gauge
direction, each relative to the row's own scale, from four closed-form
2 x 2 symmetry blocks of the Hessian on b = a.  As the settings grow B
tends to the constant c0, so sup |B| >= |c0|: a row reports its
candidate and the certificate's B where that beats |c0| by more than a
few ulps, and otherwise c0 at a far point on the family, where B is c0
to the bit.  Each cell reports its row's value at its row's point times
its lift, so its report depends on its curve key alone.  A sweep keeps
its cells as columns.

``maximize_bell``, ``optimize_cells`` for one objective with the meta
keys the benchmark reads, and ``grid_oracle``, an exhaustive real-axis
scan, are kept for ``perfbench``; no command calls them and the package
does not export them.  Nothing here needs more than numpy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .noise import DetectionNoise, ThermalNoise
from .qp_core import real_order
from .states import TmsvSpec
from .witness import (
    _WITNESS,
    CLAMP_BOUNDED,
    BellSettings,
    WitnessReport,
    _cells,
    _family,
    _family_blocks,
    _key_scales,
)

__all__ = ["SweepCell", "SweepResult", "optimize_cells", "sweep_eta_s", "sweep_thermal"]


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start search parameters, read only by the tests' TNC oracle.

    ``tests/oracles.py::tnc_maximize`` draws ``n_starts`` starts in the
    box [-box_radius, box_radius]^8 from ``seed`` and stops TNC at
    ``ftol``/``xtol``.  No package code reads the fields, so none is
    checked here.  Unexported; ``maximize_bell`` takes one and reports
    its ``n_starts``, and both stay until ``perfbench/`` stops building
    them by name.
    """

    n_starts: int = 16
    box_radius: float = 2.0
    ftol: float = 1e-10
    xtol: float = 1e-6
    seed: int = 0


def maximize_bell(
    objective: Callable[..., object],
    config: SearchConfig,
    stream: int = 0,
    extra_starts: Sequence[Sequence[float]] = (),
) -> WitnessReport:
    """``optimize_cells([objective])[0]``, with the meta keys ``perfbench`` reads.

    The report's meta gains ``n_evals`` 0 (the solve reads only the curve
    key), ``n_starts`` (``config.n_starts``), ``unconverged_starts`` (1
    for an ``uncertified`` cell, else 0) and ``stream`` (``int(stream)``).
    ``config``, ``stream`` and ``extra_starts`` change nothing else: the
    curve solve has no starts.  They stay, like ``sweep_eta_s``'s
    ``config``, until ``perfbench/`` stops passing them.  The
    multi-start TNC search this name ran before is the tests' reference
    maximizer, ``tests/oracles.py::tnc_maximize``.
    """
    (report,) = optimize_cells([objective])
    meta = {
        **report.meta,
        "n_evals": 0,
        "n_starts": config.n_starts,
        "unconverged_starts": int(report.meta["source"] == "uncertified"),
        "stream": int(stream),
    }
    return replace(report, meta=meta)


def grid_oracle(
    objective: Callable[[BellSettings], WitnessReport],
    box_radius: float,
    points_per_axis: int,
) -> WitnessReport:
    """Exhaustive real-axis 4-D settings scan; the anti-surprise baseline for maxima.

    Unexported, kept for ``perfbench/make_bound.py`` and the tests until
    ``perfbench/`` stops calling it; then it moves into the tests' oracles.
    """
    points_per_axis = int(points_per_axis)
    if points_per_axis < 3:
        raise ValueError("points_per_axis must be at least 3")
    axis = np.unique(np.linspace(-float(box_radius), float(box_radius), points_per_axis))
    reports = (objective(BellSettings(*p)) for p in itertools.product(axis, repeat=4))
    # Higher |B| wins; exact ties go to the smaller settings vector.
    return max(reports, key=lambda r: (r.bell_abs, [-v for v in r.settings.to_vector()]))


@dataclass(frozen=True)
class SweepCell:
    """One optimized grid cell; axis1 is eta or r, axis2 is the base s."""

    axis1: float
    axis2: float
    nbar: float | None
    report: WitnessReport


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's cells as columns in grid order; ``nbar`` is None for a detection sweep."""

    axis1: np.ndarray
    axis2: np.ndarray
    nbar: np.ndarray | None
    s_effective: np.ndarray
    settings: np.ndarray
    bell_value: np.ndarray
    source: np.ndarray
    grad_norm: np.ndarray
    hess_max: np.ndarray

    @cached_property
    def cells(self) -> tuple[SweepCell, ...]:
        nbar = [None] * len(self.axis1) if self.nbar is None else self.nbar.tolist()
        columns = (self.settings, self.bell_value, self.source, self.grad_norm, self.hess_max)
        reports = _reports(self.s_effective, *columns)
        return tuple(map(SweepCell, self.axis1.tolist(), self.axis2.tolist(), nbar, reports))


#: A row is certified when the gradient max-norm of |B| at its point, in
#: units of |c2 k2| sqrt(1/v- + 1/v+), is at most CERT_GRAD_NORM and the
#: largest eigenvalue of the Hessian of |B|, gauge direction projected
#: out, in units of |c2 k2| e1, is below CERT_HESS_MAX.
CERT_GRAD_NORM = 1e-9
CERT_HESS_MAX = -1e-6
#: Seeds (x, y) of the curve solve, in units of a row's seed scale
#: min(1, 1/sqrt(1/v- + 1/v+)): the first 13 points of the 5 x 5 grid on
#: [-1, 1]^2 in row-major order, those with x < 0, or x = 0 and y <= 0.
#: Every step of the solve commutes with (x, y) -> (-x, -y), so each
#: other grid point would retrace its mirror's path negated, with the
#: same |B| at a later index, which the solve's argmax never picks.
_CURVE_SEEDS = np.array(list(itertools.product(np.linspace(-1.0, 1.0, 5), repeat=2)))[:13]
#: Fixed iteration count of the curve solve.
_CURVE_ITERATIONS = 15
#: Curve keys per curve solve call; it bounds the solve's arrays (one row
#: per key and seed) whatever the grid size, and changes no row's bits.
_CURVE_BLOCK = 512
#: How far |B| at a curve point must beat |c0|, relative to |c0|: the
#: family form of B that decides it differs from the six-term sum by a
#: few ulps, and at an exact tie the exact asymptote wins.
_C0_MARGIN = 16.0 * np.finfo(float).eps


def _top_eigenvalue(hxx, hxy, hyy):
    """The larger eigenvalue of [[hxx, hxy], [hxy, hyy]], with no cancellation.

    The eigenvalue of larger magnitude is a sum of like signs, and the
    other the determinant over it, each product divided by it first, so
    that no product of two entries overflows; the zero matrix gives 0,
    through 0/0.
    """
    h = 0.5 * (hxx + hyy)
    big = h + np.copysign(np.hypot(0.5 * (hxx - hyy), hxy), h)
    return np.fmax(big, hxx * (hyy / big) - hxy * (hxy / big))


@np.errstate(all="ignore")
def _solve_curve(keys: np.ndarray) -> np.ndarray:
    """Best point on the real symmetric family b = a per row of curve constants.

    x, y are read in the frame of the constants ``keys``.  One numpy
    program over every row (key, seed) ascends B from each of the 13
    ``_CURVE_SEEDS``, scaled to the peak's length by
    min(1, 1/sqrt(1/v- + 1/v+)), by regularized Newton steps (Ueda &
    Yamashita, Appl. Math. Optim. 62, 27 (2010)): the 2 x 2 Hessian of B
    is shifted down by its largest eigenvalue, if positive, plus the
    gradient norm, which keeps every step an ascent direction of length
    at most 1 that tends to the Newton step as the gradient vanishes at a
    maximum.  A step is kept only where it does not lower B beyond
    rounding.  Every row runs elementwise for a fixed number of
    iterations, so one key's result does not depend on the other rows.
    Each 2 x 2 system is divided by its shift before any product of two
    entries is formed, so that none overflows.  Gives the point of
    largest |B| per key as its 8-vector a = b = (x, y), an (n, 8) array.
    The family b = -a and descent on B run only in the tests' oracle.
    """
    scale = np.minimum(1.0, _key_scales(keys)[0])[:, None]
    x, y = scale * _CURVE_SEEDS[:, 0], scale * _CURVE_SEEDS[:, 1]
    # Full-shape key columns keep every ufunc call on numpy's contiguous fast path.
    key = [np.broadcast_to(c, x.shape).copy() for c in keys.T[:, :, None]]
    state = _family(key, x, y)
    for _ in range(_CURVE_ITERATIONS):
        value, gx, gy, hxx, hxy, hyy = state
        shift = np.maximum(_top_eigenvalue(hxx, hxy, hyy), 0.0) + np.sqrt(gx * gx + gy * gy)
        # The system over its shift has entries of order one, whose
        # products do not overflow (from xi ~ 176.5 the raw ones do).
        axx, ayy = (shift - hxx) / shift, (shift - hyy) / shift
        hxy, gx, gy = hxy / shift, gx / shift, gy / shift
        det = axx * ayy - hxy * hxy
        # A flat row (zero gradient and curvature) gives 0/0: a NaN trial,
        # which the comparison below rejects.
        tx = x + (ayy * gx + hxy * gy) / det
        ty = y + (axx * gy + hxy * gx) / det
        trial = _family(key, tx, ty)
        keep = trial[0] >= value - 1e-14
        x, y = np.where(keep, tx, x), np.where(keep, ty, y)
        state = [np.where(keep, t, c) for t, c in zip(trial, state)]
    best = np.abs(state[0]).argmax(axis=1)
    rows = np.arange(len(keys))
    x, y = x[rows, best], y[rows, best]
    zero = np.zeros_like(x)
    return np.stack([x, zero, y, zero, x, zero, y, zero], axis=1)


@np.errstate(all="ignore")
def _certificates(keys, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, grad_norm, hess_max) per row of curve constants at its family point.

    ``points`` are 8-vectors on the real family a = b = (x, y), in the
    frame of the constants ``keys``; only x and y are read, and no
    objective is called.  ``grad_norm`` is the max-norm of the raw
    gradient, (Bx, By) / 2, and ``hess_max`` the largest eigenvalue of
    the Hessian of |B| off the gauge direction a -> a e^{i phi},
    b -> b e^{-i phi}, along which B is constant: half the largest of the
    ``_family`` and ``_family_blocks`` blocks' top eigenvalues, with the
    imaginary da = -db block read only on u = (-y, x) / |(x, y)|, off the
    gauge tangent (x, y).  At the origin, which has no gauge direction,
    that block keeps both eigenvalues; the gauge maps it onto the real
    da = db block there, so the maximum is the same either way.  Each is
    in its ``_key_scales`` unit.  A non-finite block entry gives a NaN
    ``hess_max``.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 8)
    x, y, key = points[:, 0], points[:, 2], np.asarray(keys, dtype=float).T
    _, grad_unit, hess_unit, _ = _key_scales(keys)
    value, bx, by, *plus = _family(key, x, y)
    grad_norms = 0.5 * np.maximum(np.abs(bx), np.abs(by)) / grad_unit
    sign = np.where(value >= 0.0, 1.0, -1.0)
    signed = [[sign * h for h in block] for block in (plus, *_family_blocks(key, x, y))]
    finite = np.isfinite(signed).all(axis=(0, 1))
    *blocks, (hxx, hxy, hyy) = signed
    # The gauge complement u, from (x, y) scaled by its max-norm so that a
    # point next to the origin does not underflow.
    scale = np.maximum(np.abs(x), np.abs(y))
    ux = np.divide(-y, scale, out=np.zeros_like(x), where=scale > 0.0)
    uy = np.divide(x, scale, out=np.zeros_like(x), where=scale > 0.0)
    off_gauge = (ux * ux * hxx + 2.0 * ux * uy * hxy + uy * uy * hyy) / (ux * ux + uy * uy)
    off_gauge = np.where(scale > 0.0, off_gauge, _top_eigenvalue(hxx, hxy, hyy))
    top = np.maximum.reduce([*(_top_eigenvalue(*b) for b in blocks), off_gauge])
    hess_max = np.where(finite, 0.5 * top, np.nan) / hess_unit
    return value, grad_norms, hess_max


def _row_reports(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """(point, B, source, grad_norm, hess_max) per distinct row of curve constants.

    A curve point that is not finite (an overflowing solve step) becomes the
    origin first.  |B| tends to |c0| as the settings grow, so a row reports,
    in the frame of its constants, its curve point and the family B there
    where that beats |c0| by more than ``_C0_MARGIN`` |c0| (``curve`` if it
    certifies, else ``uncertified``), else its far point (``_key_scales``),
    exactly c0 and a zero certificate (``asymptote``).
    """
    curve = np.concatenate(
        [_solve_curve(rows[i : i + _CURVE_BLOCK]) for i in range(0, len(rows), _CURVE_BLOCK)]
    )
    curve[~np.isfinite(curve).all(axis=1)] = 0.0
    value, grad_norms, hess_maxes = _certificates(rows, curve)
    c0 = np.abs(rows[:, 2])
    wins = np.abs(value) - c0 > _C0_MARGIN * c0
    certified = (grad_norms <= CERT_GRAD_NORM) & (hess_maxes < CERT_HESS_MAX)
    sources = np.where(wins, np.where(certified, "curve", "uncertified"), "asymptote")
    # The far family point x = y = R of a row that |c0| wins.
    far = np.where(np.arange(8) % 2 == 0, _key_scales(rows)[3][:, None], 0.0)
    points = np.where(wins[:, None], curve, far)
    certificate = [np.where(wins, c, 0.0) for c in (grad_norms, hess_maxes)]
    return points, np.where(wins, value, rows[:, 2]), sources, *certificate


def _optimize(lifts: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """(settings, B, source, grad_norm, hess_max) per cell: its key row's report, lifted."""
    rows, which = np.unique(keys, axis=0, return_inverse=True)
    points, *columns = (column[which.reshape(-1)] for column in _row_reports(rows))
    return points * lifts[:, None], *columns


def _reports(s_effective, settings, *columns) -> list[WitnessReport]:
    """A ``WitnessReport`` per cell from its order s' and its ``_optimize`` columns."""
    return [
        WitnessReport(
            BellSettings.from_vector(x), s_prime, value,
            {"source": source, "grad_norm": grad_norm, "hess_max": hess_max},
        )
        for x, s_prime, value, source, grad_norm, hess_max
        in zip(settings.tolist(), *(c.tolist() for c in (s_effective, *columns)))
    ]


def optimize_cells(objectives: Sequence[Callable[..., object]]) -> list[WitnessReport]:
    """The maximized witness report of each objective, one curve solve for all.

    Each objective, from ``detection_objective`` or ``thermal_objective``
    under any clamp rule, is called once, as ``objective()``, for its lift,
    s' and curve key, and reports its ``_optimize`` columns.  No objectives
    give no reports.
    """
    if not objectives:
        return []
    lifts, s_primes, keys = zip(*(objective() for objective in objectives))
    return _reports(np.array(s_primes), *_optimize(np.array(lifts), np.array(keys)))


def _grid(values, name: str) -> np.ndarray:
    """A non-empty, non-decreasing sweep axis; ``_sweep`` checks its values."""
    arr = np.asarray(list(values), dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} grid must be one-dimensional")
    if arr.size == 0:
        raise ValueError(f"{name} grid is empty")
    if np.any(np.diff(arr) < 0.0):
        raise ValueError(f"{name} grid must be non-decreasing")
    return arr


def _sweep(spec: TmsvSpec, noises, axis1, nbar, s_grid: np.ndarray) -> SweepResult:
    """The cells (noise, s) of already checked noises, noise-major, in one column pass.

    Checks every s, then ``witness._cells`` checks each noise's rescaled
    orders and the curve keys, each in cell order.
    """
    s = real_order(s_grid, _WITNESS, lo=-1.0)
    s_prime, lifts, keys = _cells(spec.xi, s, noises, CLAMP_BOUNDED)
    nbar = None if nbar is None else np.repeat(nbar, len(s))
    axes = np.repeat(axis1, len(s)), np.tile(s, len(noises)), nbar
    return SweepResult(*axes, s_prime, *_optimize(lifts, keys))


def sweep_eta_s(
    spec: TmsvSpec,
    eta_grid: Sequence[float],
    s_grid: Sequence[float],
    config: object = None,
    max_workers: int | None = None,
) -> SweepResult:
    """Optimized witness value per (eta, s) cell, detection noise.

    Before any cell is optimized, every eta is checked, then every s, then
    the rescaled orders and the curve keys in cell order; the first check
    that fails names its first bad value as ``eval`` does, so a bad eta
    wins over a bad s.  ``config`` and ``max_workers`` are ignored: no cell
    searches, and every sweep runs in the calling process.  They stay only
    because ``perfbench/workloads.py`` passes them.
    """
    eta_grid = _grid(eta_grid, "eta")
    s_grid = _grid(s_grid, "s")
    return _sweep(spec, [DetectionNoise(eta) for eta in eta_grid], eta_grid, None, s_grid)


def sweep_thermal(
    spec: TmsvSpec,
    r_grid: Sequence[float],
    s_grid: Sequence[float],
    nbar_list: Sequence[float],
) -> SweepResult:
    """Optimized witness value per (r, s) cell for each environment nbar.

    Checked as ``sweep_eta_s`` is, with the (nbar, r) pairs, nbar-major and
    r before nbar, in place of the etas.
    """
    r_grid = _grid(r_grid, "r")
    s_grid = _grid(s_grid, "s")
    nbar_list = np.asarray(list(nbar_list), dtype=float)
    if nbar_list.ndim != 1:
        raise ValueError("nbar_list must be one-dimensional")
    if nbar_list.size == 0:
        raise ValueError("nbar_list must be non-empty")
    noises = [ThermalNoise(r, nbar) for nbar in nbar_list for r in r_grid]
    return _sweep(spec, noises, [n.r for n in noises], [n.nbar for n in noises], s_grid)
