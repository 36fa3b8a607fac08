"""Witness functional against operator-expectation references."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

import oracles as orc
from phasewitness import witness
from phasewitness.noise import DetectionNoise, ThermalNoise, rescale_detection
from phasewitness.qp_core import OrderParam
from phasewitness.states import SingleModeTestState, TmsvSpec, state_w, tmsv_w1, tmsv_w2
from phasewitness.witness import (
    CLAMP_BOUNDED,
    CLAMP_FROZEN,
    CLAMP_LOSS_CHANNEL,
    BellSettings,
    WitnessReport,
    _VIOLATION_MARGIN,
    _bell,
    bell_value,
    bounded_eigenvalue,
    detection_objective,
    effective_eigenvalue,
    observable_eigenvalue,
    thermal_objective,
)

SETTINGS = BellSettings(0.1 + 0.05j, -0.2 + 0.0j, 0.15j, 0.4 - 0.1j)

#: The loss-channel rule's refusal of a clamped cell in a warm environment.
WARM_REFUSAL = "loss-channel clamping applies to the thermal interaction only for nbar = 0"


def ideal_bell(spec: TmsvSpec, settings: BellSettings, s: float) -> float:
    return bell_value(
        lambda a, b: tmsv_w2(spec, a, b, s),
        lambda a: tmsv_w1(spec, a, s),
        lambda b: tmsv_w1(spec, b, s),
        settings,
        s,
    )


def as_tuple(settings: BellSettings) -> tuple[complex, complex, complex, complex]:
    return (settings.a1, settings.a2, settings.b1, settings.b2)


class TestEigenvalues:
    def test_endpoints_are_exact(self):
        for s in (0.0, -0.3, -0.71, -1.0):
            assert observable_eigenvalue(0, s) == 1.0
            assert observable_eigenvalue(1, s) == -1.0

    def test_alternating_at_zero_order(self):
        for n in range(8):
            assert observable_eigenvalue(n, 0.0) == pytest.approx((-1.0) ** n, abs=1e-15)

    def test_interior_value(self):
        # ratio(-1/2) = -1/3, so e_2 = (3/2)(1/9) - 1/2 = -1/3.
        assert observable_eigenvalue(2, -0.5) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            observable_eigenvalue(-1, 0.0)
        with pytest.raises(TypeError):
            observable_eigenvalue(2, OrderParam(3))

    @given(
        st.integers(min_value=0, max_value=60),
        st.floats(min_value=-1.0, max_value=0.0),
    )
    def test_spectrum_is_bounded(self, n, s):
        assert abs(observable_eigenvalue(n, s)) <= 1.0 + 1e-12

    def test_three_spectra_coincide_at_onset(self):
        for n in range(7):
            standard = observable_eigenvalue(n, -1.0)
            assert bounded_eigenvalue(n, -1.0) == pytest.approx(standard, abs=1e-15)
            assert effective_eigenvalue(n, -1.0) == pytest.approx(standard, abs=1e-15)

    @given(
        st.integers(min_value=0, max_value=512),
        st.floats(min_value=-50.0, max_value=-1.0),
    )
    def test_bounded_spectrum_stays_in_unit_interval(self, n, s_prime):
        v = bounded_eigenvalue(n, s_prime)
        assert -1.0 <= v <= 1.0 + 1e-12

    @pytest.mark.parametrize(
        "eig, s",
        [
            (observable_eigenvalue, -0.37),
            (observable_eigenvalue, -1.0),
            (effective_eigenvalue, -1.8),
            (bounded_eigenvalue, -3.0),
        ],
    )
    def test_integer_array_matches_scalars(self, eig, s):
        n = np.arange(300)
        ladder = eig(n, s)
        per_n = np.array([eig(int(k), s) for k in n])
        assert ladder.shape == n.shape and ladder.dtype == float
        assert np.allclose(ladder, per_n, rtol=1e-15, atol=0.0)
        assert type(eig(7, s)) is float and type(eig(np.int64(7), s)) is float

    @pytest.mark.parametrize("eig", [observable_eigenvalue, effective_eigenvalue, bounded_eigenvalue])
    def test_non_integral_photon_number_is_rejected(self, eig):
        # int() would truncate 2.7 to the n = 2 eigenvalue.
        s = -0.5 if eig is observable_eigenvalue else -1.5
        for n in (2.7, math.nan, np.array([0.0, 1.5]), "2"):
            with pytest.raises(ValueError, match="integer"):
                eig(n, s)
        assert eig(2.0, s) == eig(2, s)


class TestBellSettings:
    def test_vector_roundtrip(self):
        vec = SETTINGS.to_vector()
        assert BellSettings.from_vector(vec) == SETTINGS
        assert len(vec) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            BellSettings(float("nan"), 0.0, 0.0, 0.0)


class TestWitnessReport:
    def test_derived_fields(self):
        report = WitnessReport(SETTINGS, -1.5, -2.5)
        assert report.bell_abs == 2.5
        assert report.violated
        assert report.clamped


class TestIdealBell:
    def test_vacuum_at_origin_settings(self):
        spec = TmsvSpec(0.0)
        origin = BellSettings(0.0, 0.0, 0.0, 0.0)
        assert ideal_bell(spec, origin, -1.0) == pytest.approx(2.0, abs=1e-12)

    def test_expansion_identity(self):
        # <A x B> on the pair state decomposes into the quasiprobability
        # combination (1-s)^4 (pi^2/4) W2 + s(1-s)^2 (pi/2)(W1a + W1b) + s^2.
        xi, s, dim = 0.4, -0.5, 70
        spec = TmsvSpec(xi)
        c = orc.tmsv_amplitudes(xi, dim)
        eigs = orc.eig_standard(s, dim)
        for a, b in [(0.3 + 0.2j, -0.4 + 0.1j), (0.1, 0.5j)]:
            op_a = orc.displaced_diagonal(eigs, a)
            op_b = orc.displaced_diagonal(eigs, b)
            lhs = orc.pair_expectation(c, op_a, op_b).real
            rhs = (
                (1.0 - s) ** 4 * (math.pi**2 / 4.0) * tmsv_w2(spec, a, b, s)
                + s
                * (1.0 - s) ** 2
                * (math.pi / 2.0)
                * (tmsv_w1(spec, a, s) + tmsv_w1(spec, b, s))
                + s * s
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("s", [0.0, -0.5, -1.0])
    def test_matches_operator_sum(self, s):
        xi = 0.3
        value = ideal_bell(TmsvSpec(xi), SETTINGS, s)
        reference = orc.chsh_value(xi, as_tuple(SETTINGS), orc.eig_standard(s, 70))
        assert value == pytest.approx(reference, abs=1e-9)

    def test_coincident_settings_collapse_to_single_correlator(self):
        xi, s, z, w = 0.5, -0.3, 0.35 + 0.1j, -0.2 + 0.25j
        coincident = BellSettings(z, z, w, w)
        value = ideal_bell(TmsvSpec(xi), coincident, s)
        eigs = orc.eig_standard(s, 70)
        pair = orc.pair_expectation(
            orc.tmsv_amplitudes(xi, 70),
            orc.displaced_diagonal(eigs, z),
            orc.displaced_diagonal(eigs, w),
        ).real
        assert value == pytest.approx(2.0 * pair, abs=1e-12)
        assert abs(value) <= 2.0 + 1e-12

    def test_order_range_is_enforced(self):
        spec = TmsvSpec(0.3)
        with pytest.raises(ValueError):
            ideal_bell(spec, SETTINGS, 0.3)
        with pytest.raises(ValueError):
            bell_value(
                lambda a, b: 0.0, lambda a: 0.0, lambda b: 0.0, SETTINGS, -1.2
            )
        with pytest.raises(TypeError):
            bell_value(
                lambda a, b: 0.0,
                lambda a: 0.0,
                lambda b: 0.0,
                SETTINGS,
                OrderParam(3),
            )


class TestBellValueArray:
    ROWS = np.random.default_rng(31).uniform(-2.0, 2.0, (64, 8))

    def per_row(self, w2, w1a, w1b, s) -> np.ndarray:
        return np.array(
            [bell_value(w2, w1a, w1b, BellSettings.from_vector(x), s) for x in self.ROWS]
        )

    @pytest.mark.parametrize("s", [0.0, -0.5, -1.0])
    @pytest.mark.parametrize(
        "pair",
        [
            (SingleModeTestState.coherent(0.5 + 0.2j), SingleModeTestState.coherent(-0.3 + 0.7j)),
            (SingleModeTestState.thermal(0.5), SingleModeTestState.vacuum()),
        ],
    )
    def test_product_state_rows_match_bit_for_bit(self, pair, s):
        state_a, state_b = pair

        def w1a(a):
            return state_w(state_a, a, s)

        def w1b(b):
            return state_w(state_b, b, s)

        def w2(a, b):
            return w1a(a) * w1b(b)

        batch = bell_value(w2, w1a, w1b, self.ROWS, s)
        assert batch.shape == (len(self.ROWS),)
        assert np.array_equal(batch, self.per_row(w2, w1a, w1b, s))

    @pytest.mark.parametrize("s", [0.0, -0.5, -1.0])
    def test_tmsv_rows_match(self, s):
        spec = TmsvSpec(0.3)

        def w2(a, b):
            return tmsv_w2(spec, a, b, s)

        def w1(a):
            return tmsv_w1(spec, a, s)

        batch = bell_value(w2, w1, w1, self.ROWS, s)
        # tmsv_w1's |alpha|^2 (np.abs of a complex, squared) may round a
        # scalar point and an array entry apart in the last bit; fed
        # one-point arrays, each row sees the batch's field arithmetic and
        # matches exactly.
        def w2_point(a, b):
            return w2(np.array([a]), np.array([b]))[0]

        def w1_point(a):
            return w1(np.array([a]))[0]

        assert np.array_equal(batch, self.per_row(w2_point, w1_point, w1_point, s))
        assert np.allclose(batch, self.per_row(w2, w1, w1, s), rtol=0.0, atol=4e-15)

    @pytest.mark.parametrize("column", range(8))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_rejected(self, column, bad):
        rows = self.ROWS.copy()
        rows[5, column] = bad
        name = ("a1", "a2", "b1", "b2")[column // 2]
        with pytest.raises(ValueError, match=f"setting {name} must be finite"):
            bell_value(lambda a, b: a.real, np.abs, np.abs, rows, -0.5)

    @pytest.mark.parametrize(
        "rows", [np.zeros(8), np.zeros((3, 7)), np.zeros((2, 4, 2)), np.zeros((3, 8), complex)]
    )
    def test_shape_other_than_n_by_8_is_rejected(self, rows):
        with pytest.raises(ValueError, match=r"shape \(n, 8\)"):
            bell_value(lambda a, b: a.real, np.abs, np.abs, rows, -0.5)

    def test_order_is_still_gated(self):
        with pytest.raises(ValueError):
            bell_value(lambda a, b: a.real, np.abs, np.abs, self.ROWS, -1.2)

    def test_integer_and_float32_order_arrays_read_as_float64(self):
        rows = self.ROWS[:2]
        want = bell_value(lambda a, b: a.real, np.abs, np.abs, rows, np.array([0.0, -1.0]))
        for s in (np.array([0, -1]), np.array([0, -1], dtype=np.float32)):
            got = bell_value(lambda a, b: a.real, np.abs, np.abs, rows, s)
            assert np.array_equal(got, want)


class TestDetectionWitness:
    def test_unit_efficiency_reduces_to_ideal(self):
        spec = TmsvSpec(0.3)
        report = detection_objective(spec, -0.4, DetectionNoise(1.0))(SETTINGS)
        assert report.bell_value == pytest.approx(
            ideal_bell(spec, SETTINGS, -0.4), abs=1e-14
        )
        assert not report.clamped
        assert report.s_effective == pytest.approx(-0.4, abs=1e-15)

    def test_half_efficiency_reaches_onset_exactly(self):
        report = detection_objective(TmsvSpec(0.3), 0.0, DetectionNoise(0.5))(SETTINGS)
        assert report.s_effective == -1.0
        assert not report.clamped

    def test_unclamped_matches_rescaled_operator_sum(self):
        xi, s, eta = 0.3, -0.3, 0.7
        report = detection_objective(TmsvSpec(xi), s, DetectionNoise(eta))(SETTINGS)
        s_prime = 1.0 - (1.0 - s) / eta
        reference = orc.chsh_value(xi, as_tuple(SETTINGS), orc.eig_standard(s_prime, 70))
        assert not report.clamped
        assert report.bell_value == pytest.approx(reference, abs=1e-10)

    def test_bounded_rule_matches_its_operator_sum(self):
        xi, s, eta = 0.3, 0.0, 0.4
        report = detection_objective(
            TmsvSpec(xi), s, DetectionNoise(eta), CLAMP_BOUNDED
        )(SETTINGS)
        assert report.clamped
        assert report.s_effective == pytest.approx(-1.5, abs=1e-15)
        reference = orc.chsh_value(xi, as_tuple(SETTINGS), orc.eig_bounded(-1.5, 70))
        assert report.bell_value == pytest.approx(reference, abs=1e-10)

    def test_frozen_rule_matches_its_operator_sum(self):
        xi, s, eta = 0.3, 0.0, 0.4
        report = detection_objective(
            TmsvSpec(xi), s, DetectionNoise(eta), CLAMP_FROZEN
        )(SETTINGS)
        assert report.clamped
        reference = orc.chsh_value(xi, as_tuple(SETTINGS), orc.eig_frozen(-1.5, 70))
        assert report.bell_value == pytest.approx(reference, abs=1e-10)

    def test_loss_channel_rule_matches_lossy_operator_sum(self):
        # Settings are physical displacements here; the observable is the
        # on-off one and the state carries the loss.
        xi, s, eta = 0.3, 0.0, 0.4
        report = detection_objective(
            TmsvSpec(xi), s, DetectionNoise(eta), CLAMP_LOSS_CHANNEL
        )(SETTINGS)
        assert report.clamped
        reference = orc.chsh_value(
            xi, as_tuple(SETTINGS), orc.eig_standard(-1.0, 70), loss_eta=eta
        )
        assert report.bell_value == pytest.approx(reference, abs=1e-10)

    def test_unknown_clamp_mode(self):
        with pytest.raises(ValueError):
            detection_objective(
                TmsvSpec(0.3), 0.0, DetectionNoise(0.4), "nonsense"
            )(SETTINGS)

    def test_forms_agree(self):
        # The objective reads its normal-mode constants, the scalar fields
        # the textbook ones, so the unclamped objective equals bell_value
        # over the fields to rounding (16 ulps here), not bit for bit.
        spec, noise = TmsvSpec(0.45), DetectionNoise(0.6)
        report = detection_objective(spec, -0.2, noise)(SETTINGS)
        s_prime = rescale_detection(-0.2, noise)
        assert not report.clamped
        assert report.bell_value == pytest.approx(ideal_bell(spec, SETTINGS, s_prime), abs=1e-14)


class TestThermalWitness:
    def test_zero_time_reduces_to_ideal(self):
        spec = TmsvSpec(0.3)
        report = thermal_objective(spec, -0.4, ThermalNoise(0.0))(SETTINGS)
        assert report.bell_value == pytest.approx(
            ideal_bell(spec, SETTINGS, -0.4), abs=1e-14
        )
        assert not report.clamped

    def test_unclamped_matches_rescaled_operator_sum(self):
        xi, s, r, nbar = 0.3, -0.5, 0.3, 0.2
        report = thermal_objective(TmsvSpec(xi), s, ThermalNoise(r, nbar))(SETTINGS)
        t = math.sqrt(1.0 - r * r)
        s_prime = (s - r * r * (1.0 + 2.0 * nbar)) / (t * t)
        assert not report.clamped
        reference = orc.chsh_value(
            xi, as_tuple(SETTINGS), orc.eig_standard(s_prime, 70), point_scale=1.0 / t
        )
        assert report.bell_value == pytest.approx(reference, abs=1e-10)

    def test_bounded_rule_matches_its_operator_sum(self):
        xi, s, r, nbar = 0.3, 0.0, 0.75, 0.5
        report = thermal_objective(
            TmsvSpec(xi), s, ThermalNoise(r, nbar), CLAMP_BOUNDED
        )(SETTINGS)
        t_sq = 1.0 - r * r
        s_prime = (s - r * r * (1.0 + 2.0 * nbar)) / t_sq
        assert report.clamped
        reference = orc.chsh_value(
            xi,
            as_tuple(SETTINGS),
            orc.eig_bounded(s_prime, 70),
            point_scale=1.0 / math.sqrt(t_sq),
        )
        assert report.bell_value == pytest.approx(reference, abs=1e-10)

    def test_frozen_rule_matches_its_operator_sum(self):
        xi, s, r = 0.3, 0.0, 0.8
        report = thermal_objective(
            TmsvSpec(xi), s, ThermalNoise(r), CLAMP_FROZEN
        )(SETTINGS)
        t_sq = 1.0 - r * r
        s_prime = s / t_sq - r * r / t_sq
        reference = orc.chsh_value(
            xi,
            as_tuple(SETTINGS),
            orc.eig_frozen(s_prime, 70),
            point_scale=1.0 / math.sqrt(t_sq),
        )
        assert report.bell_value == pytest.approx(reference, abs=1e-10)

    def test_loss_channel_rule_matches_lossy_operator_sum(self):
        xi, s, r = 0.3, 0.0, 0.8
        report = thermal_objective(
            TmsvSpec(xi), s, ThermalNoise(r), CLAMP_LOSS_CHANNEL
        )(SETTINGS)
        reference = orc.chsh_value(
            xi,
            as_tuple(SETTINGS),
            orc.eig_standard(-1.0, 70),
            loss_eta=1.0 - r * r,
        )
        assert report.bell_value == pytest.approx(reference, abs=1e-10)

    def test_loss_channel_rule_needs_cold_environment(self):
        # Both names build through witness._cells, the refusal's one home.
        for build in (detection_objective, thermal_objective):
            with pytest.raises(ValueError, match=f"^{re.escape(WARM_REFUSAL)}$"):
                build(TmsvSpec(0.3), 0.0, ThermalNoise(0.8, 0.5), CLAMP_LOSS_CHANNEL)

    def test_warm_unclamped_loss_channel_cell_is_the_bounded_cell(self):
        # s' = -0.126 / 0.91 is above -1, so no rule replaces the order-s'
        # observable and a warm environment is not refused.
        spec, noise = TmsvSpec(0.3), ThermalNoise(0.3, 0.2)
        lift, s_prime, key = thermal_objective(spec, 0.0, noise, CLAMP_LOSS_CHANNEL)()
        assert s_prime == pytest.approx(-0.1385, abs=1e-4)
        assert (lift, s_prime, key) == thermal_objective(spec, 0.0, noise, CLAMP_BOUNDED)()

    @pytest.mark.parametrize("mode", [CLAMP_BOUNDED, CLAMP_FROZEN])
    def test_matches_detection_at_cold_environment(self, mode):
        # The nbar = 0 thermal interaction is detection loss at eta = t^2
        # up to the frame: thermal settings mu equal detection settings
        # mu / t.
        xi, s, r = 0.3, 0.0, 0.75
        t = math.sqrt(1.0 - r * r)
        thermal = thermal_objective(TmsvSpec(xi), s, ThermalNoise(r), mode)(SETTINGS)
        rescaled = BellSettings.from_vector(
            tuple(v / t for v in SETTINGS.to_vector())
        )
        detection = detection_objective(
            TmsvSpec(xi), s, DetectionNoise(t * t), mode
        )(rescaled)
        assert thermal.bell_value == pytest.approx(detection.bell_value, abs=1e-12)
        assert thermal.s_effective == pytest.approx(
            detection.s_effective, abs=1e-12
        )

    def test_matches_detection_in_loss_channel_frame(self):
        # The loss-channel rule stays in the measured frame on both
        # variants, so the settings map is the identity.
        xi, s, r = 0.3, 0.0, 0.8
        thermal = thermal_objective(
            TmsvSpec(xi), s, ThermalNoise(r), CLAMP_LOSS_CHANNEL
        )(SETTINGS)
        detection = detection_objective(
            TmsvSpec(xi), s, DetectionNoise(1.0 - r * r), CLAMP_LOSS_CHANNEL
        )(SETTINGS)
        assert thermal.bell_value == pytest.approx(detection.bell_value, abs=1e-12)

    @pytest.mark.parametrize("mode", [CLAMP_BOUNDED, CLAMP_FROZEN])
    def test_continuity_at_clamp_onset(self, mode):
        # eta = 1/2 at s = 0 lands exactly on s' = -1; the functional
        # must not jump across it.
        spec = TmsvSpec(0.3)
        eps = 1e-8
        below = detection_objective(
            spec, 0.0, DetectionNoise(0.5 - eps), mode
        )(SETTINGS)
        above = detection_objective(
            spec, 0.0, DetectionNoise(0.5 + eps), mode
        )(SETTINGS)
        assert below.clamped and not above.clamped
        assert abs(below.bell_value - above.bell_value) < 1e-6

    @hsettings(max_examples=40)
    @given(
        st.tuples(*[st.floats(min_value=-1.5, max_value=1.5) for _ in range(8)]),
        st.floats(min_value=-1.0, max_value=0.0),
        st.floats(min_value=0.3, max_value=1.0),
    )
    def test_report_invariants(self, vec, s, eta):
        report = detection_objective(
            TmsvSpec(0.3), s, DetectionNoise(eta)
        )(BellSettings.from_vector(vec))
        assert report.bell_abs == abs(report.bell_value)
        assert report.violated == (report.bell_abs > 2.0 + _VIOLATION_MARGIN)
        assert report.clamped == (report.s_effective < -1.0)


# (noise, s) pairs covering both frames of each model: detection loss at
# s' above and below -1, the thermal frame 1/t hot and cold, and the
# loss-channel frame 1/sqrt(g) once s' < -1.
GRADIENT_CELLS = [
    (DetectionNoise(0.8), 0.0),
    (DetectionNoise(0.3), -0.4),
    (ThermalNoise(0.4, 0.0), -0.3),
    (ThermalNoise(0.8, 0.0), 0.0),
    (ThermalNoise(0.7, 1.0), -0.2),
]


def _build(noise):
    return detection_objective if isinstance(noise, DetectionNoise) else thermal_objective


#: Every clamp rule over every gradient cell, but loss-channel clamping
#: needs a cold environment.
RULE_CELLS = [
    (mode, noise, s)
    for mode in (CLAMP_BOUNDED, CLAMP_FROZEN, CLAMP_LOSS_CHANNEL)
    for noise, s in GRADIENT_CELLS
    if not (mode == CLAMP_LOSS_CHANNEL and getattr(noise, "nbar", 0.0) > 0.0)
]


class TestGradient:
    @pytest.mark.parametrize("mode, noise, s", RULE_CELLS)
    def test_matches_report_path_and_central_differences(self, mode, noise, s):
        # The oracle's scalar (B, dB/dx) over the objective's lift and key,
        # against the package's report path.  math.exp and np.exp may round
        # apart, which B's cancelling terms carry up to about 2e-15.
        objective = _build(noise)(TmsvSpec(0.3), s, noise, mode)
        lift, _, constants = objective()

        def value(x):
            return objective(BellSettings.from_vector(x)).bell_value

        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(8):
            x = rng.uniform(-1.0, 1.0, 8).tolist()
            b, grad = orc.value_and_gradient(lift, constants, x)
            assert abs(b - value(x)) <= 1e-14 * max(1.0, abs(b))
            for i in range(8):
                up, down = list(x), list(x)
                up[i] += h
                down[i] -= h
                central = (value(up) - value(down)) / (2.0 * h)
                assert grad[i] == pytest.approx(central, abs=1e-7)

    def test_cells_cover_both_sides_of_the_clamp(self):
        spec = TmsvSpec(0.3)
        clamped = []
        for noise, s in GRADIENT_CELLS:
            clamped.append(_build(noise)(spec, s, noise)(SETTINGS).clamped)
        assert clamped == [False, True, False, True, True]


class TestHessian:
    """The oracle's batched B, gradient and 8 x 8 Hessian against its scalar (B, dB/dx).

    The points lie anywhere in the 8 settings coordinates, off the family
    b = a that the package's certificate reads; the blocks are checked
    against this oracle in ``test_search``.
    """

    @pytest.mark.parametrize("mode, noise, s", RULE_CELLS)
    def test_value_and_gradient_match_the_objective(self, mode, noise, s):
        objective = _build(noise)(TmsvSpec(0.3), s, noise, mode)
        lift, _, constants = objective()
        points = np.random.default_rng(6).uniform(-1.5, 1.5, (16, 8))
        # The raw settings x read the fields at x / lift, so dB/dx is the
        # gradient there divided by the lift.
        values, grads, _ = orc.tmsv_derivatives([constants] * 16, points / lift)
        for x, value, grad in zip(points, values, grads):
            b, g = orc.value_and_gradient(lift, constants, x.tolist())
            assert abs(value - b) <= 1e-13
            assert np.abs(grad / lift - np.array(g)).max() <= 1e-13

    @pytest.mark.parametrize("mode, noise, s", RULE_CELLS)
    def test_matches_central_differences_of_the_gradient(self, mode, noise, s):
        objective = _build(noise)(TmsvSpec(0.3), s, noise, mode)
        lift, _, constants = objective()
        rng = np.random.default_rng(5)
        points = rng.uniform(-1.0, 1.0, (6, 8))
        _, _, hessians = orc.tmsv_derivatives([constants] * len(points), points / lift)
        h = 1e-5

        def gradient(x):
            return orc.value_and_gradient(lift, constants, x.tolist())[1]

        for x, hess in zip(points, hessians / (lift * lift)):
            steps = h * np.eye(8)
            central = np.array(
                [
                    np.subtract(gradient(x + d), gradient(x - d))
                    for d in steps
                ]
            ) / (2.0 * h)
            assert np.abs(hess - central).max() <= 1e-6 * np.abs(hess).max()

    def test_cells_cover_the_loss_channel_lift(self):
        # Clamped loss-channel cells read the state at the lift sqrt(g),
        # g = eta or t^2, not at the noise's own lift (1 or t).
        spec = TmsvSpec(0.3)
        lifts = {
            (type(noise).__name__, s): _build(noise)(spec, s, noise, CLAMP_LOSS_CHANNEL)()[0]
            for noise, s in GRADIENT_CELLS[:4]
        }
        assert lifts[("DetectionNoise", -0.4)] == math.sqrt(0.3)
        assert lifts[("ThermalNoise", 0.0)] == math.sqrt(1.0 - 0.8 * 0.8)
        assert lifts[("DetectionNoise", 0.0)] == 1.0


@pytest.mark.kernels
@pytest.mark.parametrize("mode, noise, s", RULE_CELLS)
def test_report_is_its_row_of_one_array_call(mode, noise, s):
    # A report takes B from _bell on its one settings row, and one array
    # call over many rows gives each row the same bits.
    objective = _build(noise)(TmsvSpec(0.3), s, noise, mode)
    lift, _, constants = objective()
    x = np.random.default_rng(8).uniform(-1.5, 1.5, (400, 8))
    x[::3, 1::2] = 0.0
    values = _bell(lift, constants, x.T)
    assert values.shape == (400,)
    for row, value in zip(x.tolist(), values.tolist()):
        assert objective(BellSettings.from_vector(row)).bell_value == value


@pytest.mark.kernels
@pytest.mark.parametrize("xi", (0.0, 0.3, 1.5, 5.0))
@pytest.mark.parametrize("rule", (CLAMP_BOUNDED, CLAMP_FROZEN, CLAMP_LOSS_CHANNEL))
def test_curve_keys_are_the_scalar_reference_bit_for_bit(xi, rule):
    # The README map and the thermal gate grid (nbar 0 alone under the
    # loss-channel rule), each in one array call as a sweep makes it: every
    # row's lift and key are the Python-float reference's bits, clamped
    # rows and unclamped.  An array's ** rounds (1 - s')^4 apart from C pow
    # on numpy's X86_V4 kernels; float_power does not on any kernel.
    nbars = (0.0,) if rule == CLAMP_LOSS_CHANNEL else (0.0, 0.5, 2.0)
    grids = (
        [(s, DetectionNoise(eta)) for eta in np.linspace(0.3, 1.0, 36)
         for s in np.linspace(-1.0, 0.0, 21)],
        [(s, ThermalNoise(r, nbar)) for nbar in nbars for r in np.linspace(0.0, 0.94, 48)
         for s in np.linspace(-1.0, 0.0, 6)],
    )
    for cells in grids:
        s_prime, lift, g = (
            np.array(c) for c in zip(*(witness._rescaled(float(s), noise) for s, noise in cells))
        )
        assert (s_prime < -1.0).any() and (s_prime >= -1.0).any()
        lifts, keys = witness._curve_keys(xi, s_prime, lift, g, rule)
        cells = zip(s_prime.tolist(), lift.tolist(), g.tolist())
        expected = [orc.curve_key(xi, *cell, rule) for cell in cells]
        assert lifts.tobytes() == np.array([lift for lift, _ in expected]).tobytes()
        assert keys.tobytes() == np.array([key for _, key in expected]).tobytes()


@pytest.mark.kernels
@pytest.mark.parametrize("xi", (0.3, 5.0))
@pytest.mark.parametrize("rule", (CLAMP_BOUNDED, CLAMP_FROZEN, CLAMP_LOSS_CHANNEL))
def test_cells_rows_are_the_one_cell_objectives(xi, rule):
    # One many-row _cells call over detection and cold thermal noises,
    # interleaved, with clamped rows and unclamped: each row's lift, s' and
    # key are its one-cell objective()'s bits, whatever the other rows.
    s = np.linspace(-1.0, 0.0, 6)
    noises = [
        noise
        for eta, r in zip((0.3, 0.5, 0.8, 1.0), (0.0, 0.5, 0.8, 0.94))
        for noise in (DetectionNoise(eta), ThermalNoise(r))
    ]
    s_prime, lifts, keys = witness._cells(xi, s, noises, rule)
    assert (s_prime < -1.0).any() and (s_prime >= -1.0).any()
    rows = zip(lifts.tolist(), s_prime.tolist(), keys.tolist())
    cells = [(noise, base) for noise in noises for base in s.tolist()]
    expected = [_build(noise)(TmsvSpec(xi), base, noise, rule)() for noise, base in cells]
    assert [hex_row(*row) for row in rows] == [hex_row(*row) for row in expected]


def hex_row(lift, s_prime, key):
    return [float.hex(v) for v in (lift, s_prime, *key)]
