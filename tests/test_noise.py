"""Noise channels: order rescaling, thinning, lossy reconstruction."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles as orc
from phasewitness import noise as noise_mod
from phasewitness.noise import (
    DetectionNoise,
    ThermalNoise,
    bernoulli_detect,
    evolve_thermal_w,
    lossy_w,
    lossy_w_d,
    rescale_detection,
    rescale_thermal,
)
from phasewitness.qp_core import (
    ConsistencyError,
    ConvergenceError,
    OrderParam,
    PhotonDistribution,
    w_from_distribution,
)
from phasewitness.states import (
    SingleModeTestState,
    photon_distribution,
    thermal_w,
)


class TestNoiseModels:
    def test_detection_validation(self):
        for eta in (0.0, -0.2, 1.2, float("nan")):
            with pytest.raises(ValueError):
                DetectionNoise(eta)
        assert DetectionNoise(1.0).eta == 1.0

    def test_thermal_validation(self):
        for r in (-0.1, 1.0, float("inf")):
            with pytest.raises(ValueError):
                ThermalNoise(r)
        with pytest.raises(ValueError):
            ThermalNoise(0.5, nbar=-1.0)
        # 1 + 2 nbar overflows, which would make r^2 (1 + 2 nbar) nan at r = 0.
        for r in (0.0, 0.5):
            with pytest.raises(ValueError, match=r"nbar = 1e\+308 is too large"):
                ThermalNoise(r, nbar=1e308)
        assert ThermalNoise(0.0, nbar=8.98e307).nbar == 8.98e307

    def test_surviving_amplitude(self):
        assert ThermalNoise(0.6).t == pytest.approx(0.8, abs=1e-15)
        assert ThermalNoise(0.0).t == 1.0


class TestRescaleDetection:
    def test_half_efficiency_sends_zero_to_minus_one(self):
        out = rescale_detection(0.0, DetectionNoise(0.5))
        assert type(out) is float and out == -1.0

    @given(
        st.floats(min_value=-1.0, max_value=0.0),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_rescaling_identity(self, s, eta):
        out = rescale_detection(s, DetectionNoise(eta))
        assert (1.0 - out) * eta == pytest.approx(1.0 - s, abs=1e-12)

    def test_d_outcome_branch_preserves_kind(self):
        s3 = OrderParam(3)
        out = rescale_detection(s3, DetectionNoise(0.8))
        assert out == OrderParam(3, 0.8)
        assert out.value == pytest.approx(1.0 - (1.0 - s3.value) / 0.8, abs=1e-15)
        assert rescale_detection(out, DetectionNoise(0.5)) == OrderParam(3, 0.4)


class TestRescaleThermal:
    def test_half_reflectivity_example(self):
        out = rescale_thermal(0.0, ThermalNoise(math.sqrt(0.5)))
        assert type(out) is float
        assert out == pytest.approx(-1.0, abs=1e-15)

    @given(
        st.floats(min_value=-1.0, max_value=0.0),
        st.floats(min_value=0.0, max_value=0.95),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_rescaling_identity(self, s, r, nbar):
        out = rescale_thermal(s, ThermalNoise(r, nbar))
        t_sq = 1.0 - r * r
        assert (1.0 - out) * t_sq == pytest.approx(
            1.0 - s + 2.0 * r * r * nbar, abs=1e-10
        )

    def test_real_branch_only(self):
        with pytest.raises(TypeError):
            rescale_thermal(OrderParam(3), ThermalNoise(0.5))


class TestBernoulliDetect:
    def test_unit_efficiency_is_identity(self):
        # Every Pascal row is a unit count at eta = 1: the same bits, and
        # the same tail 1 - sum that photon_distribution gives.
        p = photon_distribution(SingleModeTestState.vacuum(), 0.7, 40)
        kept = bernoulli_detect(p, DetectionNoise(1.0))
        assert kept.probs.tobytes() == p.probs.tobytes()
        assert kept.tail_bound.hex() == p.tail_bound.hex()

    def test_poisson_thins_to_poisson(self):
        alpha = 0.9 - 0.4j
        p = photon_distribution(SingleModeTestState.vacuum(), alpha, 60)
        thinned = bernoulli_detect(p, DetectionNoise(0.6))
        target = photon_distribution(
            SingleModeTestState.coherent(math.sqrt(0.6) * alpha), 0.0, 60
        )
        np.testing.assert_allclose(thinned.probs, target.probs, atol=1e-12)

    @pytest.mark.parametrize("nbar,n_max", [(1.4, 160), (30.0, 1000)])
    def test_thermal_thins_to_thermal(self, nbar, n_max):
        p = photon_distribution(SingleModeTestState.thermal(nbar), 0.0, n_max)
        thinned = bernoulli_detect(p, DetectionNoise(0.35))
        target = photon_distribution(SingleModeTestState.thermal(0.35 * nbar), 0.0, n_max)
        np.testing.assert_allclose(thinned.probs, target.probs, atol=1e-12)

    def test_retained_mass_is_preserved(self):
        p = photon_distribution(SingleModeTestState.thermal(0.8), 0.5, 120)
        thinned = bernoulli_detect(p, DetectionNoise(0.45))
        assert thinned.probs.sum() == pytest.approx(p.probs.sum(), abs=1e-13)
        assert thinned.tail_bound <= p.tail_bound + 1e-13

    def test_stacked_rows_are_the_one_pair_rows(self):
        # The validate suites thin many (distribution, eta) pairs in one
        # sweep; each row must keep the bits it has when thinned alone,
        # and eta = 1 must give the distribution's own bits.
        test_states = [
            SingleModeTestState.vacuum(),
            SingleModeTestState.coherent(-1.6),
            SingleModeTestState.thermal(2.0),
            SingleModeTestState.fock(3),
        ]
        pairs = [
            (photon_distribution(state, point, 160), DetectionNoise(eta))
            for state in test_states
            for point in (0.0, 0.3 - 0.2j)
            for eta in (0.3, 0.8, 1.0, 0.999)
        ]
        stacked = noise_mod._thin(pairs)
        assert len(stacked) == len(pairs)
        for (p, noise), row in zip(pairs, stacked):
            alone = bernoulli_detect(p, noise)
            assert row.probs.tobytes() == alone.probs.tobytes()
            assert row.tail_bound.hex() == alone.tail_bound.hex()
            if noise.eta == 1.0:
                assert row.probs.tobytes() == p.probs.tobytes()
                assert row.tail_bound.hex() == p.tail_bound.hex()


class TestLossyW:
    def test_coherent_state_matches_lossy_fock_reference(self):
        z, eta, s, alpha = 0.5 + 0.2j, 0.7, -0.25, 0.3 - 0.1j
        p = photon_distribution(SingleModeTestState.coherent(z), alpha, 80)
        value = lossy_w(p, s, DetectionNoise(eta))
        # The thinned series reconstructs the lossy state's function at
        # the contracted point sqrt(eta) * alpha.
        reference = orc.w_value(
            orc.rho_coherent(z, 80), math.sqrt(eta) * alpha, s, eta=eta
        )
        assert isinstance(value, float)
        assert value == pytest.approx(reference, abs=1e-10)

    def test_thermal_state_matches_lossy_fock_reference(self):
        eta, s, alpha = 0.5, 0.0, 0.4
        p = photon_distribution(SingleModeTestState.thermal(1.0), alpha, 120)
        value = lossy_w(p, s, DetectionNoise(eta))
        reference = orc.w_value(
            orc.rho_thermal(1.0, 70), math.sqrt(eta) * alpha, s, eta=eta
        )
        assert value == pytest.approx(reference, abs=1e-10)

    def test_unit_efficiency_reduces_to_plain_series(self):
        p = photon_distribution(SingleModeTestState.coherent(0.4j), 0.2, 60)
        assert lossy_w(p, -0.5, DetectionNoise(1.0)) == pytest.approx(
            w_from_distribution(p, -0.5), abs=1e-14
        )

    def test_validation(self):
        p = photon_distribution(SingleModeTestState.vacuum(), 0.0, 8)
        with pytest.raises(ValueError):
            lossy_w(p, 0.2, DetectionNoise(0.8))
        with pytest.raises(TypeError):
            lossy_w(p, OrderParam(3), DetectionNoise(0.8))
        with pytest.raises(ValueError):
            lossy_w(p, -0.5, DetectionNoise(0.8), tol=0.0)

    def test_route_disagreement_is_an_error(self, monkeypatch):
        p = photon_distribution(SingleModeTestState.coherent(0.3), 0.1, 60)
        real = w_from_distribution
        monkeypatch.setattr(
            "phasewitness.noise.w_from_distribution",
            lambda dist, s, tol=1e-8: real(dist, s, tol=tol) + 0.01,
        )
        with pytest.raises(ConsistencyError):
            lossy_w(p, -0.5, DetectionNoise(0.5))
        with pytest.raises(ConsistencyError):
            lossy_w_d(p, 3, DetectionNoise(0.5))


class TestLossyWD:
    def test_two_outcome_case_reduces_to_real_branch(self):
        p = photon_distribution(SingleModeTestState.coherent(0.4 + 0.1j), 0.2, 60)
        noise = DetectionNoise(0.65)
        value = lossy_w_d(p, 2, noise)
        assert value.imag == pytest.approx(0.0, abs=1e-12)
        assert value.real == pytest.approx(lossy_w(p, 0.0, noise), abs=1e-12)

    def test_matches_rescaled_series(self):
        p = photon_distribution(SingleModeTestState.thermal(0.6), 0.3, 120)
        noise = DetectionNoise(0.6)
        value = lossy_w_d(p, 3, noise)
        s_prime = rescale_detection(OrderParam(3), noise)
        closed = w_from_distribution(p, s_prime) / noise.eta
        assert value == pytest.approx(closed, abs=1e-14)

    @given(st.integers(min_value=2, max_value=6), st.floats(min_value=0.01, max_value=1.0))
    def test_damping_base_stays_in_unit_disc(self, d, eta):
        # The series damps each count by the ratio of the rescaled order.
        ratio = OrderParam(d, eta).ratio
        assert abs(ratio) <= 1.0 + 1e-15
        assert abs(ratio - (1.0 - eta + eta * cmath.exp(2j * math.pi / d))) < 1e-12

    def test_heavy_tail_is_an_error(self):
        # The thinned series at s_d sits on the unit circle, so its tail
        # bound is the undamped tail mass, as in w_from_distribution.
        p = PhotonDistribution(np.array([0.5, 0.3]), tail_bound=0.2)
        with pytest.raises(ConvergenceError):
            lossy_w_d(p, 3, DetectionNoise(0.9))

    def test_tol_validation(self):
        p = photon_distribution(SingleModeTestState.vacuum(), 0.0, 8)
        with pytest.raises(ValueError):
            lossy_w_d(p, 3, DetectionNoise(0.9), tol=-1.0)


class TestEvolveThermalW:
    def test_zero_time_is_identity(self):
        base = lambda a, sp: thermal_w(0.3, a, sp)
        value = evolve_thermal_w(base, -0.4, ThermalNoise(0.0), 0.5 + 0.2j)
        assert value == pytest.approx(thermal_w(0.3, 0.5 + 0.2j, -0.4), abs=1e-15)

    @pytest.mark.parametrize("nbar_in,nbar_env", [(0.0, 0.0), (0.7, 0.0), (0.5, 1.2)])
    def test_thermal_state_stays_thermal(self, nbar_in, nbar_env):
        r, s, alpha = 0.6, -0.3, 0.4 - 0.2j
        t_sq = 1.0 - r * r
        nbar_out = t_sq * nbar_in + r * r * nbar_env
        value = evolve_thermal_w(
            lambda a, sp: thermal_w(nbar_in, a, sp),
            s,
            ThermalNoise(r, nbar_env),
            alpha,
        )
        assert value == pytest.approx(thermal_w(nbar_out, alpha, s), abs=1e-12)

    def test_two_mode_branch_factorizes_on_products(self):
        noise = ThermalNoise(0.5, 0.4)
        s, a, b = -0.2, 0.3 + 0.1j, -0.4j
        pair = evolve_thermal_w(
            lambda pa, pb, sp: thermal_w(0.0, pa, sp) * thermal_w(0.0, pb, sp),
            s,
            noise,
            a,
            b,
        )
        one = lambda point: evolve_thermal_w(
            lambda pa, sp: thermal_w(0.0, pa, sp), s, noise, point
        )
        assert pair == pytest.approx(one(a) * one(b), abs=1e-15)

    def test_array_points_give_the_per_point_values(self):
        base = lambda a, sp: thermal_w(0.7, a, sp)
        noise = ThermalNoise(0.6, 1.2)
        rng = np.random.default_rng(3)
        points = (rng.normal(size=40) + 1j * rng.normal(size=40)).reshape(8, 5)
        values = evolve_thermal_w(base, -0.3, noise, points)
        assert values.shape == points.shape
        per_point = [evolve_thermal_w(base, -0.3, noise, p) for p in points.ravel()]
        assert all(type(v) is float for v in per_point)
        assert np.array_equal(values.ravel(), per_point)
