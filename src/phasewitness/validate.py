"""Self-check suites comparing independent computation routes.

Every suite recomputes a quantity along two routes that must agree
(series versus closed form, nested versus direct smoothing, convolution
versus rescaling, and so on) over one fixed set of grids, takes no
argument, and returns its tolerance and a flat list of residuals.
``run_suites`` alone judges them: the worst residual is one ``np.max``
over the list, so a NaN or infinite residual, or an empty list, fails
the suite.  The suites deliberately reach all modules
through attribute lookups so a corrupted constant or function is caught
at run time, not import time.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import noise as noise_mod
from . import qp_core, states, witness
from .noise import DetectionNoise, ThermalNoise
from .qp_core import OrderParam
from .states import SingleModeTestState

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suites", "format_report"]


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one validation suite."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (
            f"{status}  {self.name}: worst residual {self.worst:.3e} "
            f"(tolerance {self.tolerance:.1e}){extra}  {1e3 * self.seconds:.1f} ms"
        )


def _test_states() -> list[SingleModeTestState]:
    return [
        SingleModeTestState.vacuum(),
        SingleModeTestState.coherent(0.7 + 0.4j),
        SingleModeTestState.coherent(-1.6),
        SingleModeTestState.thermal(0.5),
        SingleModeTestState.thermal(2.0),
        SingleModeTestState.fock(1),
        SingleModeTestState.fock(3),
    ]


_S_GRID = (0.0, -0.25, -0.5, -1.0)
_ETA_GRID = (0.3, 0.5, 0.8, 1.0)
_N_MAX = 160

#: Fractional parts of the square roots of the first eight primes: the
#: increments of the Kronecker sequence behind ``_setting_points``.
_KRONECKER_ALPHA = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0]) % 1.0
#: Each suite's first index into that sequence; the separable bound reads
#: rows 1-20000, the witness forms rows from 30000 on.
_SEPARABLE_START = 1
_WITNESS_START = 30_000


def _setting_points(start: int, n: int) -> np.ndarray:
    """Rows ``start`` to ``start + n - 1`` of frac(k alpha), scaled to [-2, 2)^8.

    The Kronecker sequence is equidistributed and needs no generator
    state, so a suite's settings are fixed by its first index alone and
    a validate run loads neither ``numpy.random`` nor ``hashlib``.
    """
    x = np.arange(start, start + n, dtype=float)[:, None] * _KRONECKER_ALPHA
    # For x >= 0, x - floor(x) is exact and below 1: np.remainder's
    # value, which np.remainder computes several times slower.
    return 4.0 * (x - np.floor(x)) - 2.0


#: What every suite returns: its tolerance and its residuals, flat.
Residuals = tuple[float, "list[float] | np.ndarray"]


def _series_reconstruction() -> Residuals:
    """Number-basis series against the analytic values: the analytic side read per
    (state, order), the series per (state, point) over every order at once."""
    tol = 1e-8
    points = np.array([0.0, 0.3 - 0.2j, -0.9 + 0.5j])
    orders = np.array(_S_GRID)
    residuals = []
    for state in _test_states():
        want = np.array([states.state_w(state, points, s) for s in _S_GRID]).T
        for point, want_at in zip(points, want):
            p = states.photon_distribution(state, point, _N_MAX)
            got = qp_core.w_from_distribution(p, orders, tol=0.25 * tol)
            residuals.extend(np.abs(got - want_at))
    return tol, residuals


def _loss_rescale_identity() -> Residuals:
    """Thinned-series route against the rescaled-order route.

    Every (state, eta) pair is thinned in the one Pascal sweep of
    ``noise._loss_routes``, and each route reads every order of the grid
    in one series call.
    """
    tol = 1e-8
    distributions = [
        states.photon_distribution(state, 0.3 - 0.2j, _N_MAX) for state in _test_states()
    ]
    pairs = [(p, DetectionNoise(eta)) for p in distributions for eta in _ETA_GRID]
    routes = noise_mod._loss_routes(pairs, (np.array(_S_GRID),), tol)
    return tol, np.concatenate([np.abs(thinned - rescaled) for ((thinned, rescaled),) in routes])


def _smoothing_semigroup() -> Residuals:
    """Two smoothing steps against one, and both against the closed form."""
    tol = 1e-6
    quad_tol = 1e-8
    cases = [
        (SingleModeTestState.vacuum(), 0.0, -0.4, -1.0),
        (SingleModeTestState.thermal(0.8), -0.2, -0.6, -1.0),
    ]
    targets = np.array([0.0, 0.5, 0.3 + 0.4j])
    residuals = []
    for state, s0, s1, s2 in cases:

        def base(pts, _state=state, _s=s0):
            return states.state_w(_state, pts, _s)

        def once(pts, _base=base, _s0=s0, _s1=s1):
            # The inner stage runs a decade tighter so its noise stays
            # below the outer quadrature's convergence checks.
            return qp_core.gaussian_smooth(_base, _s0, _s1, pts, 0.1 * quad_tol)

        nested = qp_core.gaussian_smooth(once, s1, s2, targets, quad_tol)
        direct = qp_core.gaussian_smooth(base, s0, s2, targets, quad_tol)
        analytic = states.state_w(state, targets, s2)
        residuals.extend(np.abs(nested - direct))
        residuals.extend(np.abs(direct - analytic))
    return tol, residuals


def _thermal_convolution() -> Residuals:
    """Beam-splitter convolution against the rescaling shortcut.

    One call of each route per (state, channel) covers the whole grid.
    The environment field is ``states.thermal_w``, evaluated at every
    quadrature node; its width 1 + 2 nbar - s only places the nodes.
    """
    tol = 1e-6
    quad_tol = 1e-8
    s = 0.0
    test_states = [
        SingleModeTestState.vacuum(),
        SingleModeTestState.coherent(0.6 - 0.3j),
        SingleModeTestState.thermal(0.5),
    ]
    channels = [(math.sqrt(rsq), nbar) for rsq in (0.25, 0.5) for nbar in (0.0, 0.5)]
    axis = (-0.6, 0.0, 0.6)
    grid = np.array([complex(x, y) for x in axis for y in axis])
    residuals = []
    for state in test_states:

        def state_fam(pts, order, _state=state):
            return states.state_w(_state, pts, order)

        for r, nbar in channels:
            noise = ThermalNoise(r=r, nbar=nbar)

            def env_w(pts, _nbar=nbar):
                return states.thermal_w(_nbar, pts, s)

            conv = qp_core.beamsplitter_convolve(
                env_w, lambda pts: state_fam(pts, s), r, grid, 1.0 + 2.0 * nbar - s, quad_tol
            )
            shortcut = noise_mod.evolve_thermal_w(state_fam, s, noise, grid)
            residuals.extend(np.abs(conv - shortcut))
    return tol, residuals


def _witness_cells() -> tuple[list[tuple], int]:
    """The witness-form suite's cells, each (noise, s, clamp rule), and n_cold.

    First the probes checked against the field route, detection then
    thermal cells; then n_cold probes, each cold thermal cell (nbar = 0)
    once more; last the detection objectives at eta = 1 - r^2 that those
    are checked against, in the same order.
    """
    modes = witness.CLAMP_MODES
    etas, s_values = (0.3, 0.45, 0.5, 0.7, 1.0), (0.0, -0.5, -1.0)
    cells = [(DetectionNoise(e), s, m) for e, s in itertools.product(etas, s_values) for m in modes]
    thermal = list(itertools.product((0.3, 0.6, 0.85), (0.0, 0.5, 2.0), (0.0, -0.5)))
    cells += [
        (ThermalNoise(r, nbar), s, m)
        for r, nbar, s in thermal
        for m in modes
        if m != witness.CLAMP_LOSS_CHANNEL or nbar == 0.0
    ]
    cold = [(r, s, m) for r, s in dict.fromkeys((r, s) for r, _, s in thermal) for m in modes]
    cells += [(ThermalNoise(r), s, m) for r, s, m in cold]
    return cells + [(DetectionNoise(1.0 - r * r), s, m) for r, s, m in cold], len(cold)


def _builder_keys(xi: float, cells, rules: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each cell's (s', lift, transmission) row from ``witness._rescaled``, and its
    lift and curve key from one ``witness._curve_keys`` call per clamp rule."""
    rows = np.array([witness._rescaled(s, noise) for noise, s, _ in cells])
    lifts, keys = np.empty(len(cells)), np.empty((len(cells), 6))
    for rule in witness.CLAMP_MODES:
        at = rules == rule
        lifts[at], keys[at] = witness._curve_keys(xi, *rows[at].T, rule)
    return rows, lifts, keys


def _field_route(spec, rows: np.ndarray, rules: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The TMSV witness from one ``bell_value`` call over the closed-form fields.

    Cell i, with the (s', lift, transmission) row ``rows[i]`` and the
    clamp rule ``rules[i]``, is read at its (n, 8) settings block
    ``x[i]``; the values come out flat, block by block.  Each cell reads
    the fields at an order, in a frame and scaled by f per mode, and the
    coefficients at max(order, -1).  A cell reads the fields at s' over
    lift with f = 1, except that a clamped bounded cell scales them by
    f = (1 - s')/2 (the on-off identity behind its coefficients), and a
    clamped loss-channel cell reads the state after its cold channel
    ``ThermalNoise(r=sqrt(1 - g))`` as ``noise.evolve_thermal_w`` does:
    at the channel's rescaled order -1, in the frame 1/t, with f = 1/t^2.
    """
    n, s_prime = x.shape[1], rows[:, 0]
    order, frame = s_prime.copy(), 1.0 / rows[:, 1]
    f = np.where((s_prime < -1.0) & (rules == witness.CLAMP_BOUNDED), (1.0 - s_prime) / 2.0, 1.0)
    for i in np.flatnonzero((s_prime < -1.0) & (rules == witness.CLAMP_LOSS_CHANNEL)):
        channel = ThermalNoise(r=math.sqrt(1.0 - rows[i, 2]))
        order[i] = noise_mod.rescale_thermal(-1.0, channel)
        frame[i], f[i] = 1.0 / channel.t, 1.0 / channel.t**2
    sp, scale, f = (np.repeat(c, n) for c in (order, frame, f))

    def w2(a, b):
        return f * f * states.tmsv_w2(spec, a * scale, b * scale, sp)

    def w1(a):
        return f * states.tmsv_w1(spec, a * scale, sp)

    return witness.bell_value(w2, w1, w1, x.reshape(-1, 8), np.maximum(sp, -1.0))


def _witness_form_equivalence() -> Residuals:
    """Builder curve keys against ``bell_value`` over the closed-form fields.

    The second route, ``_field_route``, evaluates ``witness.bell_value``
    once over ``states.tmsv_w2``/``tmsv_w1`` for every field probe, the
    loss-channel rule at its channel's ``noise.rescale_thermal`` order.
    It shares s' (``witness._rescaled``) and the unclamped
    ``witness._coefficients`` with the builder, but no Gaussian constant:
    ``tmsv_w2`` forms the textbook TMSV Gaussian and ``tmsv_w1`` reads the
    thermal ``state_w`` at nbar = sinh^2 xi, the builder its own normal-mode
    constants.  It checks the clamp rules' coefficient sets, the frames and
    the builder's Gaussians.
    ``tests/test_witness.py`` checks the shared parts against Fock-basis sums
    (``TestIdealBell::test_matches_operator_sum`` and both
    ``test_unclamped_matches_rescaled_operator_sum``).  The thermal objective
    at nbar = 0 is also checked against the detection objective at eta = 1 - r^2.

    The builder is read as a sweep reads it, with no objective built:
    ``_builder_keys`` gives each cell the lift and curve key its
    objective's ``objective()`` gives, and one ``witness._bell`` call
    reads every probe row at its cell's lift and key.  Probe i reads rows
    20 i to 20 i + 19 of one ``_setting_points`` call from
    ``_WITNESS_START``; a row depends on its own index only.  The two
    routes round differently and may differ in the last bits (a few
    times 1e-15), far inside the tolerance.
    """
    tol = 1e-12
    n_settings = 20
    spec = states.TmsvSpec(0.3)
    cells, n_cold = _witness_cells()
    rules = np.array([rule for *_, rule in cells])
    rows, lifts, keys = _builder_keys(spec.xi, cells, rules)
    n_probes = len(cells) - n_cold
    n_field, n = n_probes - n_cold, n_probes * n_settings
    x = _setting_points(_WITNESS_START, n).reshape(n_probes, n_settings, 8)
    # A cold environment is detection loss at eta = t^2 = 1 - r^2, read
    # in the frame alpha/t; the clamped loss-channel rule reads both in
    # the measured frame.
    sp, lift = rows[n_field:n_probes, :2].T
    loss_frame = (sp < -1.0) & (rules[n_field:n_probes] == witness.CLAMP_LOSS_CHANNEL)
    read = np.concatenate([x, x[n_field:] * np.where(loss_frame, 1.0, 1.0 / lift)[:, None, None]])
    key_rows = np.repeat(keys, n_settings, axis=0).T
    bell = witness._bell(np.repeat(lifts, n_settings), key_rows, read.reshape(-1, 8).T)
    field = _field_route(spec, rows[:n_field], rules[:n_field], x[:n_field])
    return tol, np.abs(bell[:n] - np.concatenate([field, bell[n:]]))


def _eigenvalue_bounds() -> Residuals:
    """Plain, frozen and bounded spectra, each read once over a column of orders, stay
    in [-1, 1]; each clamped s' gives a frozen row, then a bounded row."""
    tol = 1e-12
    n, s_prime = np.arange(513), np.array([[-1.2], [-1.8], [-3.0]])
    plain = witness.observable_eigenvalue(n, np.linspace(-1.0, 0.0, 101)[:, None])
    eigs = (witness.effective_eigenvalue, witness.bounded_eigenvalue)
    clamped = np.stack([eig(n, s_prime) for eig in eigs], axis=1)
    residuals = np.concatenate([plain.ravel(), clamped.ravel()])
    # In place: another 54k-entry copy would raise a validate run's peak memory.
    return tol, np.subtract(np.abs(residuals, out=residuals), 1.0, out=residuals)


def _separable_bound() -> Residuals:
    """|B| <= 2 for product states over quasi-random settings.

    Each (pair, s) block reads its settings as the next (n, 8) block of
    the Kronecker sequence of ``_setting_points``, from
    ``_SEPARABLE_START`` on, and evaluates them in one array call of
    ``witness.bell_value`` over the ``states.state_w`` fields.
    """
    tol = 1e-9
    n_settings = 2000
    starts = itertools.count(_SEPARABLE_START, n_settings)
    s_values = (0.0, -0.25, -0.5, -0.75, -1.0)
    pairs = [
        (SingleModeTestState.coherent(0.5 + 0.2j), SingleModeTestState.coherent(-0.3 + 0.7j)),
        (SingleModeTestState.thermal(0.5), SingleModeTestState.thermal(1.2)),
    ]
    blocks = []
    for state_a, state_b in pairs:
        for s in s_values:

            def w1a(a, _st=state_a, _s=s):
                return states.state_w(_st, a, _s)

            def w1b(b, _st=state_b, _s=s):
                return states.state_w(_st, b, _s)

            def w2(a, b, _w1a=w1a, _w1b=w1b):
                return _w1a(a) * _w1b(b)

            settings = _setting_points(next(starts), n_settings)
            blocks.append(np.abs(witness.bell_value(w2, w1a, w1b, settings, s)) - 2.0)
    return tol, np.concatenate(blocks)


def _multi_outcome_rescale() -> Residuals:
    """Complex rescaling identity for the d-outcome order parameters.

    Also compares the two loss routes of the d-outcome branch: the series
    over the thinned distribution at s_d against the series at the
    rescaled complex order divided by eta.
    """
    tol = 1e-14
    residuals = []
    etas = (0.3, 0.7, 1.0)
    p = states.photon_distribution(SingleModeTestState.thermal(0.6), 0.4, _N_MAX)
    orders = [OrderParam(d) for d in (2, 3, 4, 5)]
    noises = [DetectionNoise(eta) for eta in etas]
    all_routes = noise_mod._loss_routes([(p, noise) for noise in noises], orders, 1e-8)
    for eta, noise, routes in zip(etas, noises, all_routes):
        for s_d, (thinned, closed) in zip(orders, routes):
            rescaled = noise_mod.rescale_detection(s_d, noise)
            residuals.append(abs(rescaled.ratio - (1.0 - eta + eta * s_d.ratio)))
            residuals.append(abs(thinned - closed))
    return tol, residuals


_SUITES: dict[str, Callable[[], Residuals]] = {
    "series_reconstruction": _series_reconstruction,
    "loss_rescale_identity": _loss_rescale_identity,
    "smoothing_semigroup": _smoothing_semigroup,
    "thermal_convolution": _thermal_convolution,
    "witness_form_equivalence": _witness_form_equivalence,
    "eigenvalue_bounds": _eigenvalue_bounds,
    "separable_bound": _separable_bound,
    "multi_outcome_rescale": _multi_outcome_rescale,
}

SUITE_NAMES = tuple(_SUITES)


def run_suites(names: Sequence[str] | None = None, *, quick: bool = False) -> list[SuiteResult]:
    """Run the requested suites (all by default) and judge each one.

    There is one depth.  ``quick`` is ignored; the benchmark
    (``perfbench/workloads.py``) still passes it.

    The worst residual is the ``np.max`` of the suite's residuals, so a
    NaN carries through and fails the comparison with the tolerance; a
    -inf residual counts as +inf.  A suite that raises, or returns no
    residuals, is reported as failed with the exception text; the
    remaining suites still run.
    """
    selected = tuple(names) if names is not None else SUITE_NAMES
    unknown = [n for n in selected if n not in _SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite names: {unknown}; the suites are {', '.join(SUITE_NAMES)}"
        )
    results = []
    for name in selected:
        start = time.perf_counter()
        try:
            tol, residuals = _SUITES[name]()
            values = np.asarray(residuals, dtype=float)
            worst = float(np.max(np.where(values == -np.inf, np.inf, values)))
            passed, detail = worst <= tol, ""
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            worst, tol, passed = math.inf, math.nan, False
            detail = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append(SuiteResult(name, passed, worst, tol, detail, seconds))
    return results


def format_report(results: Sequence[SuiteResult]) -> str:
    lines = [r.line() for r in results]
    n_fail = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} suites passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    return "\n".join(lines)
