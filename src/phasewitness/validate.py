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
    """Number-basis series against the analytic distribution values."""
    tol = 1e-8
    residuals = []
    for state in _test_states():
        for point in (0.0, 0.3 - 0.2j, -0.9 + 0.5j):
            p = states.photon_distribution(state, point, _N_MAX)
            for s in _S_GRID:
                got = qp_core.w_from_distribution(p, s, tol=0.25 * tol)
                want = states.state_w(state, point, s)
                residuals.append(abs(got - want))
    return tol, residuals


def _loss_rescale_identity() -> Residuals:
    """Thinned-series route against the rescaled-order route.

    Every (state, eta) pair is thinned in the one Pascal sweep of
    ``noise._loss_routes``.
    """
    tol = 1e-8
    pairs = [
        (states.photon_distribution(state, 0.3 - 0.2j, _N_MAX), DetectionNoise(eta))
        for state in _test_states()
        for eta in _ETA_GRID
    ]
    routes = noise_mod._loss_routes(pairs, _S_GRID, tol)
    return tol, [abs(thinned - rescaled) for pair in routes for thinned, rescaled in pair]


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

        def once(pts, _state=state, _s0=s0, _s1=s1):
            # The inner stage runs a decade tighter so its noise stays
            # below the outer quadrature's convergence checks.
            return qp_core.gaussian_smooth(
                lambda q: states.state_w(_state, q, _s0), _s0, _s1, pts, 0.1 * quad_tol
            )

        nested = qp_core.gaussian_smooth(once, s1, s2, targets, quad_tol)
        direct = qp_core.gaussian_smooth(base, s0, s2, targets, quad_tol)
        analytic = np.array([states.state_w(state, t, s2) for t in targets])
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
                env_w,
                lambda pts: state_fam(pts, s),
                r,
                grid,
                1.0 + 2.0 * nbar - s,
                quad_tol,
            )
            shortcut = noise_mod.evolve_thermal_w(state_fam, s, noise, grid)
            residuals.extend(np.abs(conv - shortcut))
    return tol, residuals


def _field_route(
    spec, s_prime: float, frame_scale: float, transmission: float, clamp_mode: str
) -> Callable[[np.ndarray], np.ndarray]:
    """The TMSV witness from ``bell_value`` over the closed-form fields.

    The route takes an (n, 8) settings array and gives n values from one
    array call of ``bell_value``.  Unclamped cells read the fields and
    coefficients at s'.  Clamped cells take coefficients at -1: the
    frozen rule reads the fields at s', the bounded rule scales them by
    (1 - s')/2 per mode (the on-off identity behind its coefficients),
    and the loss-channel rule reads the order -1 fields of the state
    after pure loss at ``transmission``.
    """
    if s_prime < -1.0 and clamp_mode == witness.CLAMP_LOSS_CHANNEL:
        # The channel's own 1/sqrt(g) is the whole rescale of the settings.
        loss = ThermalNoise(r=math.sqrt(1.0 - transmission))

        def w2(a, b):
            return noise_mod.evolve_thermal_w(
                lambda x, y, o: states.tmsv_w2(spec, x, y, o), -1.0, loss, a, b
            )

        def w1(a):
            return noise_mod.evolve_thermal_w(
                lambda x, o: states.tmsv_w1(spec, x, o), -1.0, loss, a
            )

    else:
        bounded = s_prime < -1.0 and clamp_mode == witness.CLAMP_BOUNDED
        f = (1.0 - s_prime) / 2.0 if bounded else 1.0

        def w2(a, b):
            return f * f * states.tmsv_w2(spec, a * frame_scale, b * frame_scale, s_prime)

        def w1(a):
            return f * states.tmsv_w1(spec, a * frame_scale, s_prime)

    order = s_prime if s_prime >= -1.0 else -1.0
    return lambda x: witness.bell_value(w2, w1, w1, x, order)


def _witness_form_equivalence() -> Residuals:
    """Builder objectives against ``bell_value`` over the closed-form fields.

    The second route, ``_field_route``, evaluates ``witness.bell_value``
    over ``states.tmsv_w2``/``tmsv_w1`` (through ``noise.evolve_thermal_w``
    for the loss-channel rule).  It shares s' (``noise.rescale_detection``,
    ``rescale_thermal``), ``TmsvSpec.gaussian`` and the unclamped
    ``witness._coefficients`` with the builder, and checks the clamp rules'
    coefficient sets, the frames and the builder's inlined Gaussians.
    ``tests/test_witness.py`` checks the shared parts against Fock-basis sums
    (``TestIdealBell::test_matches_operator_sum`` and both
    ``test_unclamped_matches_rescaled_operator_sum``).  The thermal objective
    at nbar = 0 is also checked against the detection objective at eta = 1 - r^2.

    Each probe reads its settings as the next (n, 8) block of the
    Kronecker sequence of ``_setting_points``, from ``_WITNESS_START``
    on.  The objective reads each row as a raw 8-vector,
    ``objective(row, grad=True)[0]``, which is the report's value bit for
    bit without building settings or a report.  The field route runs
    once over the array, so its fields use ``np.exp`` where the objective
    uses ``math.exp``, and the two may differ in the last bits (at most
    about 1e-15), far inside the tolerance.
    """
    tol = 1e-12
    n_settings = 20
    starts = itertools.count(_WITNESS_START, n_settings)
    spec = states.TmsvSpec(0.3)
    residuals = []

    def probe(objective, route) -> None:
        x = _setting_points(next(starts), n_settings)
        values = [objective(row, grad=True)[0] for row in x.tolist()]
        residuals.extend(np.abs(np.array(values) - route(x)))

    for eta, s in itertools.product((0.3, 0.45, 0.5, 0.7, 1.0), (0.0, -0.5, -1.0)):
        noise = DetectionNoise(eta)
        s_prime = noise_mod.rescale_detection(s, noise)
        for mode in witness.CLAMP_MODES:
            obj = witness.detection_objective(spec, s, noise, clamp_mode=mode)
            route = _field_route(spec, s_prime, 1.0, eta, mode)
            probe(obj, route)
    thermal_cells = list(itertools.product((0.3, 0.6, 0.85), (0.0, 0.5, 2.0), (0.0, -0.5)))
    for r, nbar, s in thermal_cells:
        noise = ThermalNoise(r=r, nbar=nbar)
        s_prime = noise_mod.rescale_thermal(s, noise)
        for mode in witness.CLAMP_MODES:
            if mode == witness.CLAMP_LOSS_CHANNEL and nbar > 0.0:
                continue
            obj = witness.thermal_objective(spec, s, noise, clamp_mode=mode)
            route = _field_route(spec, s_prime, 1.0 / noise.t, 1.0 - r * r, mode)
            probe(obj, route)
    # A cold environment is detection loss at eta = t^2 = 1 - r^2, read
    # in the frame alpha/t; the clamped loss-channel rule reads both in
    # the measured frame.
    for r, s in dict.fromkeys((r, s) for r, _, s in thermal_cells):
        noise = ThermalNoise(r=r)
        s_prime = noise_mod.rescale_thermal(s, noise)
        for mode in witness.CLAMP_MODES:
            obj = witness.thermal_objective(spec, s, noise, clamp_mode=mode)
            det = witness.detection_objective(
                spec, s, DetectionNoise(1.0 - r * r), clamp_mode=mode
            )
            loss_frame = mode == witness.CLAMP_LOSS_CHANNEL and s_prime < -1.0
            frame = 1.0 if loss_frame else 1.0 / noise.t

            def route(x, _det=det, _frame=frame):
                return [_det(row, grad=True)[0] for row in (x * _frame).tolist()]

            probe(obj, route)
    return tol, residuals


def _eigenvalue_bounds() -> Residuals:
    """Spectra of the plain, frozen, and bounded observables stay in [-1, 1]."""
    tol = 1e-12
    ladders = [(witness.observable_eigenvalue, float(s)) for s in np.linspace(-1.0, 0.0, 101)]
    for s_prime in (-1.2, -1.8, -3.0):
        ladders += [(witness.effective_eigenvalue, s_prime), (witness.bounded_eigenvalue, s_prime)]
    n = np.arange(513)
    return tol, np.concatenate([np.abs(eig(n, s)) - 1.0 for eig, s in ladders])


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
