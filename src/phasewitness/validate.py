"""Self-check suites comparing independent computation routes.

Every suite recomputes a quantity along two routes that must agree
(series versus closed form, nested versus direct smoothing, convolution
versus rescaling, and so on) and reports the worst residual against a
fixed tolerance.  The suites deliberately reach all modules through
attribute lookups so a corrupted constant or function is caught at run
time, not import time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import noise as noise_mod
from . import qp_core, states, witness
from .noise import DetectionNoise, ThermalNoise
from .qp_core import OrderParam
from .states import SingleModeTestState
from .witness import BellSettings

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
            f"(tolerance {self.tolerance:.1e}){extra}  {self.seconds:.2f} s"
        )


def _test_states(quick: bool) -> list[SingleModeTestState]:
    if quick:
        return [
            SingleModeTestState.vacuum(),
            SingleModeTestState.coherent(0.7 + 0.4j),
            SingleModeTestState.thermal(0.5),
            SingleModeTestState.fock(1),
        ]
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


def _series_reconstruction(quick: bool) -> SuiteResult:
    """Number-basis series against the analytic distribution values."""
    tol = 1e-8
    worst = 0.0
    points = (0.3 - 0.2j,) if quick else (0.0, 0.3 - 0.2j, -0.9 + 0.5j)
    for state in _test_states(quick):
        for point in points:
            p = states.photon_distribution(state, point, _N_MAX)
            for s in _S_GRID:
                got = qp_core.w_from_distribution(p, s, tol=0.25 * tol)
                want = states.state_w(state, point, s)
                worst = max(worst, abs(got - want))
    return SuiteResult("series_reconstruction", worst <= tol, worst, tol)


def _loss_rescale_identity(quick: bool) -> SuiteResult:
    """Thinned-series route against the rescaled-order route."""
    tol = 1e-8
    worst = 0.0
    etas = (0.3, 0.8) if quick else _ETA_GRID
    for state in _test_states(quick):
        p = states.photon_distribution(state, 0.3 - 0.2j, _N_MAX)
        for s in _S_GRID:
            for eta in etas:
                noise = DetectionNoise(eta)
                thinned = noise_mod.bernoulli_detect(p, noise)
                series = qp_core.w_from_distribution(thinned, s, tol=0.25 * tol)
                s_prime = noise_mod.rescale_detection(s, noise)
                closed = (
                    qp_core.w_from_distribution(p, s_prime, tol=0.25 * tol * eta)
                    / eta
                )
                worst = max(worst, abs(series - closed))
    return SuiteResult("loss_rescale_identity", worst <= tol, worst, tol)


def _smoothing_semigroup(quick: bool) -> SuiteResult:
    """Two smoothing steps against one, and both against the closed form."""
    tol = 1e-6
    quad_tol = 1e-8
    cases: list[tuple[SingleModeTestState, float, float, float]] = [
        (SingleModeTestState.vacuum(), 0.0, -0.4, -1.0),
    ]
    if not quick:
        cases.append((SingleModeTestState.thermal(0.8), -0.2, -0.6, -1.0))
    targets = np.array([0.4 + 0.0j]) if quick else np.array([0.0, 0.5, 0.3 + 0.4j])
    worst = 0.0
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
        worst = max(worst, float(np.max(np.abs(nested - direct))))
        worst = max(worst, float(np.max(np.abs(direct - analytic))))
    return SuiteResult("smoothing_semigroup", worst <= tol, worst, tol)


def _thermal_convolution(quick: bool) -> SuiteResult:
    """Beam-splitter convolution against the rescaling shortcut."""
    tol = 1e-6
    quad_tol = 1e-8
    s = 0.0
    if quick:
        test_states = [SingleModeTestState.coherent(0.6 - 0.3j)]
        channels = [(0.5, 0.5)]
        grid = [0.0, 0.6 - 0.6j]
    else:
        test_states = [
            SingleModeTestState.vacuum(),
            SingleModeTestState.coherent(0.6 - 0.3j),
            SingleModeTestState.thermal(0.5),
        ]
        channels = [
            (math.sqrt(rsq), nbar)
            for rsq in (0.25, 0.5)
            for nbar in (0.0, 0.5)
        ]
        axis = (-0.6, 0.0, 0.6)
        grid = [complex(x, y) for x in axis for y in axis]
    worst = 0.0
    for state in test_states:
        for r, nbar in channels:
            noise = ThermalNoise(r=r, nbar=nbar)
            t = noise.t

            def env_w(pts, _nbar=nbar, _s=s):
                return states.thermal_w(_nbar, pts, _s)

            def state_fam(pts, order, _state=state):
                return states.state_w(_state, pts, order)

            for alpha in grid:
                conv = qp_core.beamsplitter_convolve(
                    env_w,
                    lambda pts, _state=state, _s=s: states.state_w(_state, pts, _s),
                    r,
                    t,
                    alpha,
                    quad_tol,
                )
                shortcut = noise_mod.evolve_thermal_w(state_fam, s, noise, alpha)
                worst = max(worst, abs(conv - shortcut))
    return SuiteResult("thermal_convolution", worst <= tol, worst, tol)


def _field_route(
    spec, s_prime: float, frame_scale: float, transmission: float, clamp_mode: str
) -> Callable[[BellSettings], float]:
    """The TMSV witness from ``bell_value`` over the closed-form fields.

    Unclamped cells read the fields and coefficients at s'.  Clamped
    cells take coefficients at -1: the frozen rule reads the fields at
    s', the bounded rule scales them by (1 - s')/2 per mode (the on-off
    identity behind its coefficients), and the loss-channel rule reads
    the order -1 fields of the state after pure loss at ``transmission``.
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
    return lambda settings: witness.bell_value(w2, w1, w1, settings, order)


def _witness_form_equivalence(quick: bool) -> SuiteResult:
    """Builder objectives against ``bell_value`` over the closed-form fields.

    The second route shares no code with the objective builder: it takes
    s' from ``noise.rescale_*``, fields from ``states.tmsv_w2``/``tmsv_w1``
    (through ``noise.evolve_thermal_w`` for the loss-channel rule) and the
    coefficients from ``witness.bell_value``; see ``_field_route``.  The
    thermal objective at nbar = 0 is also checked against the detection
    objective at eta = 1 - r^2.
    """
    tol = 1e-12
    rng = np.random.default_rng(12345)
    n_settings = 5 if quick else 20
    spec = states.TmsvSpec(0.3)
    worst = 0.0

    def probe(objective, route) -> float:
        w = 0.0
        for _ in range(n_settings):
            settings = BellSettings.from_vector(rng.uniform(-2.0, 2.0, 8))
            w = max(w, abs(objective(settings).bell_value - route(settings)))
        return w

    detection_cells = (
        [(0.45, 0.0), (0.8, -0.5)]
        if quick
        else [(eta, s) for eta in (0.3, 0.45, 0.5, 0.7, 1.0) for s in (0.0, -0.5, -1.0)]
    )
    for eta, s in detection_cells:
        noise = DetectionNoise(eta)
        s_prime = noise_mod.rescale_detection(s, noise)
        for mode in witness.CLAMP_MODES:
            obj = witness.detection_objective(spec, s, noise, clamp_mode=mode)
            route = _field_route(spec, s_prime, 1.0, eta, mode)
            worst = max(worst, probe(obj, route))
    thermal_cells = (
        [(0.85, 0.5, 0.0)]
        if quick
        else [
            (r, nbar, s)
            for r in (0.3, 0.6, 0.85)
            for nbar in (0.0, 0.5, 2.0)
            for s in (0.0, -0.5)
        ]
    )
    for r, nbar, s in thermal_cells:
        noise = ThermalNoise(r=r, nbar=nbar)
        s_prime = noise_mod.rescale_thermal(s, noise)
        for mode in witness.CLAMP_MODES:
            if mode == witness.CLAMP_LOSS_CHANNEL and nbar > 0.0:
                continue
            obj = witness.thermal_objective(spec, s, noise, clamp_mode=mode)
            route = _field_route(spec, s_prime, 1.0 / noise.t, 1.0 - r * r, mode)
            worst = max(worst, probe(obj, route))
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

            def route(settings, _det=det, _frame=frame):
                vector = np.asarray(settings.to_vector()) * _frame
                return _det(BellSettings.from_vector(vector)).bell_value

            worst = max(worst, probe(obj, route))
    return SuiteResult("witness_form_equivalence", worst <= tol, worst, tol)


def _eigenvalue_bounds(quick: bool) -> SuiteResult:
    """Spectra of the plain, frozen, and bounded observables stay in [-1, 1]."""
    tol = 1e-12
    n_top = 128 if quick else 512
    worst = -math.inf
    for s in np.linspace(-1.0, 0.0, 101):
        for n in range(n_top + 1):
            worst = max(worst, abs(witness.observable_eigenvalue(n, float(s))) - 1.0)
    for s_prime in (-1.2, -1.8, -3.0):
        for n in range(n_top + 1):
            worst = max(worst, abs(witness.effective_eigenvalue(n, s_prime)) - 1.0)
            worst = max(worst, abs(witness.bounded_eigenvalue(n, s_prime)) - 1.0)
    return SuiteResult("eigenvalue_bounds", worst <= tol, worst, tol)


def _separable_bound(quick: bool) -> SuiteResult:
    """|B| <= 2 for product states over random settings.

    Each (pair, s) block draws its settings as one (n, 8) array and
    evaluates them in one array call of ``witness.bell_value`` over the
    ``states.state_w`` fields.  A non-finite value fails the suite.
    """
    tol = 1e-9
    rng = np.random.default_rng(20240817)
    n_settings = 400 if quick else 2000
    s_values = (0.0, -0.25, -0.5, -0.75, -1.0)
    pairs = [
        (SingleModeTestState.coherent(0.5 + 0.2j), SingleModeTestState.coherent(-0.3 + 0.7j)),
        (SingleModeTestState.thermal(0.5), SingleModeTestState.thermal(1.2)),
    ]
    worst = -math.inf
    for state_a, state_b in pairs:
        for s in s_values:

            def w1a(a, _st=state_a, _s=s):
                return states.state_w(_st, a, _s)

            def w1b(b, _st=state_b, _s=s):
                return states.state_w(_st, b, _s)

            def w2(a, b, _w1a=w1a, _w1b=w1b):
                return _w1a(a) * _w1b(b)

            settings = rng.uniform(-2.0, 2.0, (n_settings, 8))
            values = np.abs(witness.bell_value(w2, w1a, w1b, settings, s))
            if not np.isfinite(values).all():
                worst = math.inf
            worst = max(worst, float(np.max(values)) - 2.0)
    return SuiteResult("separable_bound", worst <= tol, worst, tol)


def _multi_outcome_rescale(quick: bool) -> SuiteResult:
    """Complex rescaling identity for the d-outcome order parameters.

    Also compares ``noise.lossy_w_d``'s direct series with the series at
    the rescaled complex order divided by eta.
    """
    tol = 1e-14
    worst = 0.0
    etas = (0.3, 1.0) if quick else (0.3, 0.7, 1.0)
    p = states.photon_distribution(SingleModeTestState.thermal(0.6), 0.4, _N_MAX)
    for d in (2, 3, 4, 5):
        s_d = OrderParam(d)
        for eta in etas:
            noise = DetectionNoise(eta)
            rescaled = noise_mod.rescale_detection(s_d, noise)
            direct = 1.0 - eta + eta * s_d.ratio
            worst = max(worst, abs(rescaled.ratio - direct))
            lossy = noise_mod.lossy_w_d(p, d, noise, tol=1e-8)
            closed = (
                qp_core.w_from_distribution(p, rescaled, tol=0.25e-8 * eta) / eta
            )
            worst = max(worst, abs(lossy - closed))
    return SuiteResult("multi_outcome_rescale", worst <= tol, worst, tol)


_SUITES: dict[str, Callable[[bool], SuiteResult]] = {
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


def run_suites(
    quick: bool = False, names: Sequence[str] | None = None
) -> list[SuiteResult]:
    """Run the requested suites (all by default) and collect results.

    A suite that raises is reported as failed with the exception text;
    the remaining suites still run.
    """
    selected = tuple(names) if names is not None else SUITE_NAMES
    unknown = [n for n in selected if n not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite names: {unknown}")
    results = []
    for name in selected:
        start = time.perf_counter()
        try:
            result = _SUITES[name](quick)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            result = SuiteResult(
                name,
                passed=False,
                worst=math.inf,
                tolerance=math.nan,
                detail=f"{type(exc).__name__}: {exc}",
            )
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results


def format_report(results: Sequence[SuiteResult]) -> str:
    lines = [r.line() for r in results]
    n_fail = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} suites passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    return "\n".join(lines)
