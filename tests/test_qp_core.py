"""Order parameters, series reconstruction, and plane quadrature."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from phasewitness.qp_core import (
    ConvergenceError,
    OrderParam,
    PhotonDistribution,
    as_order_param,
    gaussian_smooth,
    parity_coefficient,
    plane_integral,
    w_from_distribution,
)
from phasewitness.noise import DetectionNoise, ThermalNoise, lossy_w, rescale_thermal
from phasewitness.states import (
    SingleModeTestState,
    TmsvSpec,
    photon_distribution,
    state_w,
    thermal_w,
    tmsv_w1,
    tmsv_w2,
)
from phasewitness.witness import (
    BellSettings,
    bell_value,
    bounded_eigenvalue,
    detection_objective,
    observable_eigenvalue,
    thermal_objective,
)

orders = st.floats(min_value=-1.0, max_value=0.0, allow_nan=False)
efficiencies = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


class TestOrderParam:
    def test_real_range_is_enforced(self):
        with pytest.raises(ValueError):
            OrderParam.from_real(0.2)
        with pytest.raises(ValueError):
            OrderParam.from_real(-1.5)
        assert OrderParam.from_real(-1.5, rescaled=True).real == -1.5

    def test_rescaled_hint_only_below_minus_one(self):
        with pytest.raises(ValueError, match="tagged as rescaled"):
            OrderParam.from_real(-1.5)
        with pytest.raises(ValueError) as positive:
            OrderParam.from_real(0.5)
        assert "order parameter 0.5 outside [-1, 0]" in str(positive.value)
        assert "rescaled" not in str(positive.value)

    def test_rescaled_must_not_be_positive(self):
        with pytest.raises(ValueError):
            OrderParam.from_real(0.1, rescaled=True)

    def test_coercion_tags_deep_values_as_rescaled(self):
        s = as_order_param(-2.5)
        assert s.rescaled and s.real == -2.5
        with pytest.raises(TypeError):
            as_order_param(0.5j)

    def test_d_outcome_values(self):
        assert OrderParam.d_outcome(2).value == 0j
        s4 = OrderParam.d_outcome(4)
        assert abs(s4.value - (-1j)) < 1e-15
        with pytest.raises(ValueError):
            OrderParam(0.3j, "complex_d_outcome", d=4)
        with pytest.raises(ValueError):
            OrderParam.d_outcome(1)

    def test_ratio_endpoints(self):
        assert as_order_param(0.0).ratio == -1.0
        assert as_order_param(-1.0).ratio == 0.0

    @given(orders)
    def test_ratio_lies_in_unit_interval(self, s):
        r = as_order_param(s).ratio
        assert -1.0 <= r <= 0.0

    def test_d_outcome_ratio_equals_omega(self):
        # The weight ratio (s+1)/(s-1) at s = -i cot(pi/d) is the d-th
        # root of unity that weights each photon count.
        for d in range(2, 7):
            s = OrderParam.d_outcome(d)
            assert abs(s.ratio - s.omega) < 1e-14

    @given(orders, efficiencies)
    def test_loss_acts_on_the_ratio_as_a_contraction(self, s, eta):
        s_prime = 1.0 - (1.0 - s) / eta
        lhs = 1.0 - eta + eta * as_order_param(s).ratio
        assert abs(lhs - as_order_param(s_prime).ratio) < 1e-12


def _vacuum(q):
    return thermal_w(0.0, q, -0.5)


def _zero_bell(s):
    return bell_value(
        lambda a, b: 0.0, lambda a: 0.0, lambda b: 0.0, BellSettings(0, 0, 0, 0), s
    )


SPEC = TmsvSpec(0.3)

#: Every public real-branch consumer of the order gate, and whether it
#: admits only the witness range [-1, 0] (else any real s <= 0).
GATED = {
    "gaussian_smooth.s": (lambda s: gaussian_smooth(_vacuum, s, -3.0, 0.1), False),
    "gaussian_smooth.s_prime": (lambda s: gaussian_smooth(_vacuum, 0.0, s, 0.1), False),
    "tmsv_w2": (lambda s: tmsv_w2(SPEC, 0.1, 0.2j, s), False),
    "tmsv_w1": (lambda s: tmsv_w1(SPEC, 0.1, s), False),
    "thermal_w": (lambda s: thermal_w(0.5, 0.1, s), False),
    "state_w": (lambda s: state_w(SingleModeTestState.coherent(0.3), 0.1, s), False),
    "observable_eigenvalue": (lambda s: observable_eigenvalue(3, s), False),
    "bounded_eigenvalue": (lambda s: bounded_eigenvalue(3, s), False),
    "rescale_thermal": (lambda s: rescale_thermal(s, ThermalNoise(0.5)), False),
    "lossy_w": (
        lambda s: lossy_w(photon_distribution(SingleModeTestState.vacuum(), 0.2, 40), s,
                          DetectionNoise(0.7)),
        False,
    ),
    "bell_value": (_zero_bell, True),
    "detection_objective": (lambda s: detection_objective(SPEC, s, DetectionNoise(0.7)), True),
    "thermal_objective": (lambda s: thermal_objective(SPEC, s, ThermalNoise(0.5)), True),
}


@pytest.mark.parametrize("name", sorted(GATED))
def test_order_gate_contract(name):
    consumer, witness_range = GATED[name]
    for s in (OrderParam.d_outcome(3), 0.5):
        with pytest.raises(ValueError):
            consumer(s)
    if witness_range:
        with pytest.raises(ValueError):
            consumer(-1.5)
    else:
        consumer(-1.5)


class TestParityCoefficient:
    def test_known_values(self):
        assert parity_coefficient(0, -0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
        for n in range(6):
            assert parity_coefficient(n, 0.0) == pytest.approx((-1.0) ** n, abs=1e-15)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            parity_coefficient(-1, 0.0)

    @given(st.integers(min_value=0, max_value=200), orders)
    def test_magnitude_bounded_by_prefactor(self, n, s):
        assert abs(parity_coefficient(n, s)) <= 1.0 / (1.0 - s) + 1e-15


class TestPhotonDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhotonDistribution(np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ValueError):
            PhotonDistribution(np.array([0.5, 0.1]))
        with pytest.raises(ValueError):
            PhotonDistribution(np.array([0.9, 0.1]), tail_bound=0.2)

    def test_tail_accounting_and_immutability(self):
        p = PhotonDistribution(np.array([0.7, 0.2]), tail_bound=0.1)
        assert p.n_max == 1
        with pytest.raises(ValueError):
            p.probs[0] = 0.0


class TestWFromDistribution:
    def test_vacuum_value(self):
        p = PhotonDistribution(np.array([1.0]))
        for s in (0.0, -0.5, -1.0):
            expected = 2.0 / (math.pi * (1.0 - s))
            assert w_from_distribution(p, s) == pytest.approx(expected, abs=1e-15)

    def test_real_branch_returns_float(self):
        p = photon_distribution(SingleModeTestState.coherent(0.4), 0.2, 120)
        v = w_from_distribution(p, -0.25)
        assert isinstance(v, float)
        vd = w_from_distribution(p, OrderParam.d_outcome(3), tol=1e-6)
        assert isinstance(vd, complex)

    def test_matches_analytic_state_w(self):
        state = SingleModeTestState.coherent(0.5 + 0.2j)
        alpha = -0.3 + 0.4j
        p = photon_distribution(state, alpha, 160)
        got = w_from_distribution(p, -0.5)
        assert got == pytest.approx(state_w(state, alpha, -0.5), abs=1e-10)

    def test_heavy_tail_on_unit_circle_is_refused(self):
        # At s = 0 the series has |ratio| = 1, so truncation mass is an
        # irreducible error and must be rejected when above tol.
        p = PhotonDistribution(np.array([0.5, 0.3]), tail_bound=0.2)
        with pytest.raises(ConvergenceError):
            w_from_distribution(p, 0.0, tol=1e-8)


class TestPlaneIntegral:
    def test_normalized_gaussians(self):
        def f(pts):
            return np.stack([thermal_w(0.0, pts, -0.5), thermal_w(0.8, pts, 0.0)])

        vals = plane_integral(f, tol=1e-9)
        assert np.max(np.abs(vals - 1.0)) < 1e-8

    def test_non_decaying_integrand_fails(self):
        with pytest.raises(ConvergenceError):
            plane_integral(lambda pts: np.ones(pts.size), tol=1e-10)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            plane_integral(lambda pts: np.zeros(pts.size), tol=0.0)
        with pytest.raises(ValueError):
            plane_integral(lambda pts: np.zeros(pts.size), radius=-1.0)


class TestGaussianSmooth:
    def test_vacuum_smooths_to_lower_order(self):
        w0 = lambda pts: thermal_w(0.0, pts, 0.0)
        for alpha in (0j, 0.7 - 0.2j):
            got = gaussian_smooth(w0, 0.0, -1.0, alpha)
            assert got == pytest.approx(thermal_w(0.0, alpha, -1.0), abs=1e-8)

    def test_array_targets_match_scalars(self):
        w0 = lambda pts: thermal_w(0.3, pts, -0.2)
        targets = np.array([[0.1 + 0.2j, -0.5], [1.0j, 0.4 - 0.4j]])
        arr = gaussian_smooth(w0, -0.2, -0.9, targets)
        assert arr.shape == targets.shape
        for idx in np.ndindex(targets.shape):
            assert arr[idx] == pytest.approx(
                gaussian_smooth(w0, -0.2, -0.9, targets[idx]), abs=1e-10
            )

    def test_small_step_approaches_identity(self):
        w0 = lambda pts: thermal_w(0.0, pts, -0.3)
        got = gaussian_smooth(w0, -0.3, -0.301, 0.4 + 0.1j, quad_tol=1e-9)
        assert got == pytest.approx(thermal_w(0.0, 0.4 + 0.1j, -0.301), abs=1e-6)

    def test_fock_field_smooths_to_lower_order(self):
        # A non-Gaussian field: the Laguerre polynomial of the Fock state
        # is not part of the Gauss-Hermite weight.
        state = SingleModeTestState.fock(3)
        w0 = lambda pts: state_w(state, pts, 0.0)
        targets = np.array([0j, 0.5, 0.3 + 0.4j, -1.2 + 0.7j])
        for s_prime in (-1.0, -0.2):
            got = gaussian_smooth(w0, 0.0, s_prime, targets)
            want = np.array([state_w(state, t, s_prime) for t in targets])
            assert np.max(np.abs(got - want)) < 1e-8

    def test_unresolved_field_fails_closed(self):
        # The kernel of a unit step spreads over ~1, so no order on the
        # ladder resolves a period of 2*pi/60.
        with pytest.raises(ConvergenceError):
            gaussian_smooth(lambda pts: np.cos(60.0 * pts.real), 0.0, -1.0, 0.3 + 0.1j)

    def test_requires_decreasing_order(self):
        w0 = lambda pts: thermal_w(0.0, pts, -0.5)
        with pytest.raises(ValueError):
            gaussian_smooth(w0, -0.5, -0.5, 0j)
        with pytest.raises(ValueError):
            gaussian_smooth(w0, -0.5, 0.0, 0j)
