"""Order parameters, series reconstruction, and the quadrature rules."""

from __future__ import annotations

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import phasewitness
from phasewitness import noise as noise_mod, qp_core
from phasewitness.qp_core import (
    ConvergenceError,
    OrderParam,
    PhotonDistribution,
    _power,
    _ratio_and_gap,
    beamsplitter_convolve,
    gaussian_smooth,
    parity_coefficient,
    plane_integral,
    real_order,
    w_from_distribution,
)
from phasewitness.noise import (
    DetectionNoise,
    ThermalNoise,
    lossy_w,
    lossy_w_d,
    rescale_detection,
    rescale_thermal,
)
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
    effective_eigenvalue,
    observable_eigenvalue,
    thermal_objective,
)

orders = st.floats(min_value=-1.0, max_value=0.0, allow_nan=False)
efficiencies = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


NON_FINITE = (math.nan, math.inf, -math.inf)


def _real_ratio(s):
    return _ratio_and_gap(s, "the test")[0]


class TestRealOrder:
    def test_admits_finite_non_positive_floats(self):
        assert real_order(-2.5, "x") == -2.5
        assert real_order(np.float64(-0.5), "x") == -0.5
        assert type(real_order(0, "x")) is float
        assert real_order(-1.0, "x", lo=-1.0) == -1.0

    def test_rejects_non_numbers_with_type_error(self):
        complex_array, object_array = np.array([0j, -1 + 0j]), np.array([0.0, -1.0], dtype=object)
        for s in (0.5j, -1 + 0j, OrderParam(3), "-0.5", None, complex_array, object_array):
            with pytest.raises(TypeError, match="real branch only"):
                real_order(s, "x")

    def test_rejects_bad_values_naming_the_consumer(self):
        for s in NON_FINITE:
            with pytest.raises(ValueError, match="order parameter must be finite"):
                real_order(s, "the consumer")
        with pytest.raises(ValueError, match=r"order parameter 0.5 outside .* for the consumer"):
            real_order(0.5, "the consumer")
        with pytest.raises(ValueError, match=r"order parameter -1.5 outside \[-1.0, 0\]"):
            real_order(-1.5, "the consumer", lo=-1.0)

    def test_admits_integer_and_floating_arrays_as_float64(self):
        for s in (np.array([0, -1]), np.zeros(2, np.uint8), np.array([0, -0.5], np.float32)):
            got = real_order(s, "x")
            assert got.dtype == np.float64
            assert got.tolist() == s.astype(float).tolist()
        with pytest.raises(ValueError, match=r"order parameter 1.0 outside"):
            real_order(np.array([0, 1]), "x")


class TestChannelRecords:
    def test_noise_exports_the_qp_core_records(self):
        assert noise_mod.DetectionNoise is qp_core.DetectionNoise
        assert noise_mod.ThermalNoise is qp_core.ThermalNoise
        assert phasewitness.DetectionNoise is qp_core.DetectionNoise
        assert phasewitness.ThermalNoise is qp_core.ThermalNoise

    def test_consumers_raise_the_records_messages(self):
        # OrderParam admits eta, and beamsplitter_convolve r, only through them.
        vac = lambda pts: thermal_w(0.0, pts, 0.0)
        cases = [
            (DetectionNoise, lambda eta: OrderParam(2, eta), (0.0, 1.5),
             "detection efficiency eta must lie in (0, 1]"),
            (ThermalNoise, lambda r: beamsplitter_convolve(vac, vac, r, 0j, 1.0), (1.0, -0.1),
             "reflectivity r must lie in [0, 1)"),
        ]
        for record, consumer, out_of_range, message in cases:
            for value in (*out_of_range, *NON_FINITE):
                for gate in (record, consumer):
                    with pytest.raises(ValueError) as raised:
                        gate(value)
                    assert str(raised.value) == message


class TestOrderParam:
    def test_d_outcome_values(self):
        assert OrderParam(2).value == 0j
        assert abs(OrderParam(4).value - (-1j)) < 1e-15
        assert OrderParam(3) == OrderParam(3, 1.0)
        with pytest.raises(ValueError):
            OrderParam(1)

    def test_outcome_count_must_be_an_integer(self):
        # int() would truncate 2.9 to the d = 2 branch.
        for d in (2.9, 3.7, math.nan):
            with pytest.raises(ValueError, match="outcome count d must be an integer"):
                OrderParam(d)
        assert OrderParam(3.0) == OrderParam(3)
        assert type(OrderParam(np.int64(4)).d) is int

    def test_efficiency_is_validated(self):
        for eta in (0.0, -0.2, 1.5, math.nan):
            with pytest.raises(ValueError, match="eta"):
                OrderParam(3, eta)
        # d is checked first, then eta.
        with pytest.raises(ValueError, match="outcome count d must be >= 2"):
            OrderParam(1, 2.0)
        # (1 - s_d)/eta overflows: the order itself is not finite.
        with pytest.raises(ValueError, match="order parameter must be finite"):
            OrderParam(3, 5e-324)

    @given(st.integers(min_value=2, max_value=8), efficiencies)
    def test_value_is_the_detection_rescaling(self, d, eta):
        s_d = OrderParam(d).value
        assert abs((1.0 - OrderParam(d, eta).value) * eta - (1.0 - s_d)) < 1e-12

    def test_ratio_endpoints(self):
        assert _real_ratio(0.0) == -1.0
        assert _real_ratio(-1.0) == 0.0

    @given(orders)
    def test_ratio_lies_in_unit_interval(self, s):
        r = _real_ratio(s)
        assert isinstance(r, float)
        assert -1.0 <= r <= 0.0

    def test_d_outcome_ratio_equals_omega(self):
        # The weight ratio (s+1)/(s-1) at s = -i cot(pi/d) is the d-th
        # root of unity that weights each photon count.
        for d in range(2, 7):
            assert abs(OrderParam(d).ratio - cmath.exp(2j * math.pi / d)) < 1e-14

    @given(orders, efficiencies)
    def test_loss_acts_on_the_ratio_as_a_contraction(self, s, eta):
        s_prime = 1.0 - (1.0 - s) / eta
        lhs = 1.0 - eta + eta * _real_ratio(s)
        assert abs(lhs - _real_ratio(s_prime)) < 1e-12


def _vacuum(q):
    return thermal_w(0.0, q, -0.5)


def _zero_bell(s):
    return bell_value(
        lambda a, b: 0.0, lambda a: 0.0, lambda b: 0.0, BellSettings(0, 0, 0, 0), s
    )


SPEC = TmsvSpec(0.3)

_VACUUM_P = photon_distribution(SingleModeTestState.vacuum(), 0.2, 40)

#: Every public consumer of the order gate, and the orders it admits:
#: "witness" the range [-1, 0], "real" any real s <= 0, "either" also a
#: d-outcome ``OrderParam`` (its floats still pass the gate).
GATED = {
    "gaussian_smooth.s": (lambda s: gaussian_smooth(_vacuum, s, -3.0, 0.1), "real"),
    "gaussian_smooth.s_prime": (lambda s: gaussian_smooth(_vacuum, 0.0, s, 0.1), "real"),
    "tmsv_w2": (lambda s: tmsv_w2(SPEC, 0.1, 0.2j, s), "real"),
    "tmsv_w1": (lambda s: tmsv_w1(SPEC, 0.1, s), "real"),
    "thermal_w": (lambda s: thermal_w(0.5, 0.1, s), "real"),
    "state_w": (lambda s: state_w(SingleModeTestState.coherent(0.3), 0.1, s), "real"),
    "observable_eigenvalue": (lambda s: observable_eigenvalue(3, s), "real"),
    "bounded_eigenvalue": (lambda s: bounded_eigenvalue(3, s), "real"),
    "effective_eigenvalue": (lambda s: effective_eigenvalue(3, s), "real"),
    "rescale_thermal": (lambda s: rescale_thermal(s, ThermalNoise(0.5)), "real"),
    "lossy_w": (lambda s: lossy_w(_VACUUM_P, s, DetectionNoise(0.7)), "real"),
    "bell_value": (_zero_bell, "witness"),
    "detection_objective": (
        lambda s: detection_objective(SPEC, s, DetectionNoise(0.7)), "witness"
    ),
    "thermal_objective": (lambda s: thermal_objective(SPEC, s, ThermalNoise(0.5)), "witness"),
    "w_from_distribution": (lambda s: w_from_distribution(_VACUUM_P, s, tol=1e-6), "either"),
    "parity_coefficient": (lambda s: parity_coefficient(3, s), "either"),
    "rescale_detection": (lambda s: rescale_detection(s, DetectionNoise(0.7)), "either"),
}


@pytest.mark.parametrize("name", sorted(GATED))
def test_order_gate_contract(name):
    consumer, admits = GATED[name]
    if admits == "either":
        consumer(OrderParam(3))
    else:
        with pytest.raises(TypeError):
            consumer(OrderParam(3))
    for s in (0.5, *NON_FINITE):
        with pytest.raises(ValueError):
            consumer(s)
    if admits == "witness":
        with pytest.raises(ValueError):
            consumer(-1.5)
    else:
        consumer(-1.5)


def _vacuum_mix(tol):
    vac = lambda pts: thermal_w(0.0, pts, 0.0)
    return beamsplitter_convolve(vac, vac, 0.6, 0.1, 1.0, tol)


#: Every public tolerance, and the plane rule's radius: each check must
#: refuse NaN and infinity, not only values <= 0.
POSITIVE = {
    "w_from_distribution.tol": lambda v: w_from_distribution(_VACUUM_P, 0.0, tol=v),
    "lossy_w.tol": lambda v: lossy_w(_VACUUM_P, -0.5, DetectionNoise(0.7), tol=v),
    "lossy_w_d.tol": lambda v: lossy_w_d(_VACUUM_P, 3, DetectionNoise(0.7), tol=v),
    "gaussian_smooth.quad_tol": lambda v: gaussian_smooth(_vacuum, -0.5, -1.0, 0.1, v),
    "beamsplitter_convolve.quad_tol": _vacuum_mix,
    "plane_integral.tol": lambda v: plane_integral(_vacuum, tol=v),
    "plane_integral.radius": lambda v: plane_integral(_vacuum, radius=v),
}


@pytest.mark.parametrize("name", sorted(POSITIVE))
def test_tolerances_must_be_positive_and_finite(name):
    consumer = POSITIVE[name]
    consumer(1e-6 if name.endswith("tol") else 5.0)
    for value in (0.0, -1e-6, *NON_FINITE):
        with pytest.raises(ValueError, match="must be positive and finite"):
            consumer(value)


class TestParityCoefficient:
    def test_known_values(self):
        assert parity_coefficient(0, -0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
        for n in range(6):
            assert parity_coefficient(n, 0.0) == pytest.approx((-1.0) ** n, abs=1e-15)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            parity_coefficient(-1, 0.0)

    def test_non_integral_n_rejected(self):
        # int(1.9) would give the n = 1 value, -0.2222...
        for n in (1.9, -0.5, math.inf, np.array([1.0, 2.5]), 1 + 0j):
            with pytest.raises(ValueError, match="integer"):
                parity_coefficient(n, -0.5)
        assert parity_coefficient(2.0, -0.5) == parity_coefficient(2, -0.5)

    def test_integer_array_matches_scalars(self):
        # Python and numpy raise a complex to an integer power by different
        # algorithms, so complex powers part by ~1e-14 at n ~ 200.
        n = np.arange(200)
        for s, rtol in ((-0.3, 1e-15), (-1.7, 1e-15), (OrderParam(3, 0.6), 1e-13)):
            got = parity_coefficient(n, s)
            assert got.shape == n.shape
            want = np.array([parity_coefficient(int(k), s) for k in n])
            assert np.allclose(got, want, rtol=rtol, atol=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            parity_coefficient(np.array([3, -1]), 0.0)
        assert type(parity_coefficient(5, -0.3)) is float

    @given(st.integers(min_value=0, max_value=200), orders)
    def test_magnitude_bounded_by_prefactor(self, n, s):
        assert abs(parity_coefficient(n, s)) <= 1.0 / (1.0 - s) + 1e-15


class TestPower:
    """``_power``: |ratio|**n with the odd powers signed in place, or ``**``."""

    def test_exact_at_ratio_minus_one_and_at_order_zero(self):
        n = np.arange(9)
        assert _power(np.array([[-1.0]]), n).tolist() == [[1.0, -1.0] * 4 + [1.0]]
        assert [_power(-1.0, int(k)) for k in n] == [1.0, -1.0] * 4 + [1.0]
        ratios = np.array([[-1.0], [-0.5], [-0.0], [0.0], [0.5]])
        assert (_power(ratios, np.zeros(3, dtype=np.int64)) == 1.0).all()
        assert _power(0.0, 0) == 1.0 and _power(-0.0, 0) == 1.0

    def test_within_one_ulp_of_power_on_the_eigenvalue_grid(self):
        # The (101, 513) grid of validate's eigenvalue_bounds suite.
        s = np.linspace(-1.0, 0.0, 101)[:, None]
        ratio, n = (s + 1.0) / (s - 1.0), np.arange(513)
        got, want = _power(ratio, n), ratio**n
        assert (np.abs(got - want) <= np.spacing(np.abs(want))).all()
        assert (np.signbit(got) == np.signbit(want)).all()
        for r, k in ((-0.46, 7), (-0.46, 8), (-0.0, 3), (0.3, 5)):
            got = _power(r, k)
            assert got == r**k and math.copysign(1.0, got) == math.copysign(1.0, r**k)

    def test_complex_ratio_keeps_power(self):
        ratio, n = OrderParam(3, 0.6).ratio, np.arange(200)
        assert _power(ratio, n).tobytes() == (ratio**n).tobytes()
        assert _power(ratio, 7) == ratio**7
        column = np.array([[ratio], [OrderParam(5).ratio]])
        assert _power(column, n).tobytes() == (column**n).tobytes()


class TestPhotonDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhotonDistribution(np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ValueError):
            PhotonDistribution(np.array([0.5, 0.1]))
        with pytest.raises(ValueError):
            PhotonDistribution(np.array([0.9, 0.1]), tail_bound=0.2)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_non_finite_tail_bound_is_rejected(self, bound):
        # A NaN bound passed both comparisons, and w_from_distribution then
        # skipped its tail check.
        with pytest.raises(ValueError, match="tail_bound must be finite"):
            PhotonDistribution(np.array([0.5, 0.3]), tail_bound=bound)

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
        vd = w_from_distribution(p, OrderParam(3), tol=1e-6)
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

    def test_array_of_orders_matches_the_per_order_calls(self):
        # Each order's series is summed along its own row, so the bound
        # tested is exact equality, bit for bit, in any array shape.
        orders = np.array([0.0, -0.25, -0.5, -1.0, -1.7, -3.0])
        for state, point in [
            (SingleModeTestState.thermal(2.0), 0.3 - 0.2j),
            (SingleModeTestState.fock(3), -0.9 + 0.5j),
            (SingleModeTestState.coherent(-1.6), 0.0),
        ]:
            p = photon_distribution(state, point, 160)
            want = np.array([w_from_distribution(p, float(s)) for s in orders])
            got = w_from_distribution(p, orders)
            assert got.shape == orders.shape and got.tobytes() == want.tobytes()
            grid = w_from_distribution(p, orders.reshape(2, 3))
            assert grid.shape == (2, 3) and grid.tobytes() == want.tobytes()

    def test_tail_failure_names_the_first_failing_order(self):
        # s = -1 damps every term (ratio 0); s = -0.25 and s = 0 both
        # leave a tail far above tol, and -0.25 comes first.
        p = PhotonDistribution(np.array([0.5, 0.3]), tail_bound=0.2)
        assert w_from_distribution(p, np.array([-1.0]), tol=1e-8).shape == (1,)
        with pytest.raises(ConvergenceError, match=r"at n_max 1 for order -0\.25$"):
            w_from_distribution(p, np.array([-1.0, -0.25, 0.0]), tol=1e-8)
        with pytest.raises(ConvergenceError, match=r"for order 0\.0$"):
            w_from_distribution(p, np.array([-1.0, 0.0]), tol=1e-8)
        with pytest.raises(ConvergenceError, match=r"for order OrderParam\(d=3, eta=1\.0\)$"):
            w_from_distribution(p, OrderParam(3), tol=1e-8)

    def test_nan_tol_does_not_switch_off_the_tail_check(self):
        # The tail bound is 8.9e-2; a NaN tol used to compare False and
        # let the truncated series through.
        p = photon_distribution(SingleModeTestState.thermal(5.0), 0.3, 10)
        with pytest.raises(ConvergenceError, match="series tail bound"):
            w_from_distribution(p, 0.0, tol=1e-10)
        with pytest.raises(ValueError, match="tol must be positive and finite, got nan"):
            w_from_distribution(p, 0.0, tol=math.nan)


class TestPlaneIntegral:
    def test_normalized_gaussians(self):
        def f(pts):
            return np.stack([thermal_w(0.0, pts, -0.5), thermal_w(0.8, pts, 0.0)])

        vals = plane_integral(f, tol=1e-9)
        assert np.max(np.abs(vals - 1.0)) < 1e-8

    def test_wide_thermal_field_at_default_radius(self):
        # At nbar = 3 the field decays more slowly than the Hermite weight
        # in the default radius's coordinates, so the weight divided back
        # out makes the summed integrand grow along the nodes.
        total = plane_integral(lambda pts: thermal_w(3.0, pts, 0.0))
        assert abs(total.item() - 1.0) < 1e-9

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


class TestBeamsplitterConvolve:
    def test_vacuum_mixed_with_vacuum_stays_vacuum(self):
        vac = lambda pts: thermal_w(0.0, pts, 0.0)
        targets = np.array([0j, 0.4 - 0.3j, -1.1 + 0.6j])
        got = beamsplitter_convolve(vac, vac, math.sqrt(0.5), targets, 1.0)
        assert np.max(np.abs(got - thermal_w(0.0, targets, 0.0))) < 1e-12

    def test_array_targets_match_scalars(self):
        env = lambda pts: thermal_w(0.5, pts, 0.0)
        state = SingleModeTestState.fock(3)
        field = lambda pts: state_w(state, pts, 0.0)
        targets = np.array([[0j, 0.5 + 0.2j], [-0.7j, 1.1 - 0.4j]])
        got = beamsplitter_convolve(env, field, 0.6, targets, 2.0, quad_tol=1e-9)
        assert got.shape == targets.shape
        for idx in np.ndindex(targets.shape):
            one = beamsplitter_convolve(env, field, 0.6, complex(targets[idx]), 2.0, 1e-9)
            assert type(one) is float
            assert abs(got[idx] - one) <= 1e-9

    def test_argument_validation(self):
        vac = lambda pts: thermal_w(0.0, pts, 0.0)
        # r = 1 leaves no transmitted amplitude t = sqrt(1 - r^2).
        for r in (1.0, 1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match="reflectivity r must lie in \\[0, 1\\)"):
                beamsplitter_convolve(vac, vac, r, 0j, 1.0)
        for width in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="width"):
                beamsplitter_convolve(vac, vac, 0.6, 0j, width)


#: The two convolution laws as functions of their targets alone.
_FOCK3 = SingleModeTestState.fock(3)
CONVOLUTIONS = {
    "gaussian_smooth": lambda targets: gaussian_smooth(
        lambda pts: state_w(_FOCK3, pts, 0.0), 0.0, -1.0, targets
    ),
    "beamsplitter_convolve": lambda targets: beamsplitter_convolve(
        lambda pts: thermal_w(0.5, pts, 0.0),
        lambda pts: state_w(_FOCK3, pts, 0.0),
        0.6,
        targets,
        2.0,
    ),
}


class TestStreamedLadder:
    @pytest.mark.parametrize("name", sorted(CONVOLUTIONS))
    def test_block_size_changes_no_bit(self, name, monkeypatch):
        rng = np.random.default_rng(7)
        targets = rng.uniform(-2.0, 2.0, 60) + 1j * rng.uniform(-2.0, 2.0, 60)
        default = CONVOLUTIONS[name](targets)
        # 64 nodes hold one target per block at every order; 2**24 hold
        # all 60 targets at once, as an unblocked sum would.
        for block_nodes in (64, 1 << 24):
            monkeypatch.setattr(qp_core, "_BLOCK_NODES", block_nodes)
            assert np.array_equal(CONVOLUTIONS[name](targets), default)

    @pytest.mark.parametrize("name", sorted(CONVOLUTIONS))
    def test_no_targets_give_an_empty_array(self, name):
        for shape in ((0,), (0, 3)):
            got = CONVOLUTIONS[name](np.empty(shape, dtype=complex))
            assert got.shape == shape

    @pytest.mark.parametrize("name", sorted(CONVOLUTIONS))
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_targets_are_refused(self, name, bad):
        for target in (complex(bad, 0.0), complex(0.3, bad), np.array([0.1, 0.2, bad])):
            with pytest.raises(ValueError, match="target alpha must be finite"):
                CONVOLUTIONS[name](target)

    def test_environment_is_evaluated_once_per_order(self, monkeypatch):
        monkeypatch.setattr(qp_core, "_BLOCK_NODES", 64)
        env_sizes, field_calls = [], []

        def env(pts):
            env_sizes.append(pts.size)
            return thermal_w(0.5, pts, 0.0)

        def field(pts):
            field_calls.append(pts.size)
            return state_w(_FOCK3, pts, 0.0)

        targets = np.array([0j, 0.5 + 0.2j, -0.7j, 1.1 - 0.4j])
        beamsplitter_convolve(env, field, 0.6, targets, 2.0)
        visited = qp_core._HERMITE_ORDERS[: len(env_sizes)]
        assert len(env_sizes) >= 2
        assert env_sizes == [order * order for order in visited]
        assert len(field_calls) == len(visited) * targets.size

    def test_memory_is_bounded_by_the_block(self):
        # 1,600 targets: summing targets x nodes at once peaks near 20 MB.
        axis = np.linspace(-2.0, 2.0, 40)
        targets = axis[:, None] + 1j * axis[None, :]
        state = SingleModeTestState.thermal(0.8)
        tracemalloc.start()
        try:
            got = gaussian_smooth(lambda pts: state_w(state, pts, -0.2), -0.2, -1.0, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert np.max(np.abs(got - state_w(state, targets, -1.0))) < 1e-8
