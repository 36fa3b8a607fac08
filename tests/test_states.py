"""Closed-form quasiprobabilities against first-principles references."""

from __future__ import annotations

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles as orc
from phasewitness.qp_core import plane_integral
from phasewitness.states import (
    SingleModeTestState,
    TmsvSpec,
    photon_distribution,
    state_w,
    thermal_w,
    tmsv_w1,
    tmsv_w2,
)

POINTS = (0.4 + 0.2j, -0.3 + 0.5j, 0.9, -0.6 - 0.1j)


class TestTmsvSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TmsvSpec(-0.1)
        with pytest.raises(ValueError):
            TmsvSpec(float("nan"))
        # From xi ~ 9e307, 2 xi is inf and cosh does not raise: still refused.
        for xi in (400.0, 1e308, sys.float_info.max):
            with pytest.raises(ValueError, match=r"too large: cosh\(2 xi\) overflows"):
                TmsvSpec(xi)

    def test_zero_squeezing_factorizes(self):
        spec = TmsvSpec(0.0)
        for s in (0.0, -0.5, -1.0):
            for a, b in [(0.3, -0.2 + 0.4j), (0j, 0.8)]:
                assert tmsv_w2(spec, a, b, s) == pytest.approx(
                    thermal_w(0.0, a, s) * thermal_w(0.0, b, s), abs=1e-15
                )

    @given(st.floats(min_value=0.0, max_value=1.2), st.floats(min_value=-1.0, max_value=0.0))
    def test_quadratic_form_is_positive(self, xi, s):
        # At the origin W2 is k2 = 4 / (pi^2 det), so det >= 1 bounds it by 4/pi^2.
        peak = tmsv_w2(TmsvSpec(xi), 0j, 0j, s)
        assert math.isfinite(peak)
        assert 0.0 < peak <= 4.0 / math.pi**2


class TestTmsvClosedForms:
    @pytest.mark.parametrize("s", [0.0, -0.5, -1.0])
    @pytest.mark.parametrize("xi", [0.3, 0.6])
    def test_w2_matches_fock_series(self, xi, s):
        spec = TmsvSpec(xi)
        ratio = (s + 1.0) / (s - 1.0)
        eig = ratio ** np.arange(70)
        c = orc.tmsv_amplitudes(xi, 70)
        for a, b in [(0.4 + 0.2j, -0.3 + 0.5j), (0.2, -0.6)]:
            oa = orc.displaced_diagonal(eig, a)
            ob = orc.displaced_diagonal(eig, b)
            reference = (2.0 / (math.pi * (1.0 - s))) ** 2 * orc.pair_expectation(
                c, oa, ob
            ).real
            assert tmsv_w2(spec, a, b, s) == pytest.approx(reference, abs=1e-13)

    @pytest.mark.parametrize("s", [0.0, -0.5, -1.0])
    @pytest.mark.parametrize("xi", [0.3, 0.6])
    def test_w1_matches_fock_series(self, xi, s):
        # Either mode alone is diag(c_n^2), read through D(a) r^n D(a)^dagger.
        spec = TmsvSpec(xi)
        eig = ((s + 1.0) / (s - 1.0)) ** np.arange(70)
        rho = np.diag(orc.tmsv_amplitudes(xi, 70) ** 2)
        for a in POINTS:
            op = orc.displaced_diagonal(eig, a)
            reference = 2.0 / (math.pi * (1.0 - s)) * orc.single_expectation(rho, op).real
            assert tmsv_w1(spec, a, s) == pytest.approx(reference, abs=1e-13)

    @pytest.mark.parametrize("xi", [0.3, 0.6])
    def test_w1_is_the_thermal_field(self, xi):
        points = np.array(POINTS * 3)
        orders = np.repeat([0.0, -0.5, -1.0], len(POINTS))
        want = thermal_w(math.sinh(xi) ** 2, points, orders)
        assert tmsv_w1(TmsvSpec(xi), points, orders).tobytes() == want.tobytes()

    def test_husimi_closed_form(self):
        spec = TmsvSpec(0.45)
        for a, b in [(0.4 + 0.2j, -0.3 + 0.5j), (0.9, 0.7 - 0.4j)]:
            assert tmsv_w2(spec, a, b, -1.0) == pytest.approx(
                orc.husimi_q2(0.45, a, b), abs=1e-15
            )

    def test_marginalization_recovers_w1(self):
        spec = TmsvSpec(0.4)
        s = -0.5
        for alpha in (0.3 + 0.1j, -0.7):
            marg = plane_integral(
                lambda pts: tmsv_w2(spec, alpha, pts, s), tol=1e-9
            )
            assert marg.item() == pytest.approx(tmsv_w1(spec, alpha, s), abs=1e-7)

    def test_w1_is_normalized(self):
        spec = TmsvSpec(0.5)
        total = plane_integral(lambda pts: tmsv_w1(spec, pts, -0.3), tol=1e-9)
        assert total.item() == pytest.approx(1.0, abs=1e-7)


class TestSingleModeStates:
    def test_factory_validation(self):
        with pytest.raises(ValueError):
            SingleModeTestState.thermal(-0.5)
        with pytest.raises(ValueError):
            SingleModeTestState.fock(-1)
        for fields in ({"z": 0.5j}, {"nbar": 0.3}):
            with pytest.raises(ValueError, match="Fock state"):
                SingleModeTestState(n=2, **fields)

    def test_nbar_passes_the_thermal_record(self):
        message = "mean photon number nbar must be finite and non-negative"
        for nbar in (-0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                SingleModeTestState(nbar=nbar)
        # z is checked first, then nbar.
        with pytest.raises(ValueError, match="coherent amplitude must be finite"):
            SingleModeTestState(z=complex(math.nan, 0.0), nbar=-1.0)
        # 1 + 2 nbar, the thermal Gaussian's width at s = 0, must be finite.
        overflow = "mean photon number nbar = 1e+308 is too large: 1 + 2 nbar overflows"
        with pytest.raises(ValueError, match=f"^{re.escape(overflow)}$"):
            SingleModeTestState.thermal(1e308)

    def test_w1_is_finite_at_the_largest_admitted_xi(self):
        # cosh(2 xi) = 1 + 2 sinh^2 xi is finite up to xi ~ 355.2379, so the
        # marginal's nbar = sinh^2 xi passes the thermal record there.
        xi = 355.23793003697193
        with pytest.raises(ValueError, match="cosh"):
            TmsvSpec(math.nextafter(xi, math.inf))
        spec = TmsvSpec(xi)
        for s in (0.0, -0.5, -1.0):
            assert math.isfinite(tmsv_w1(spec, 0j, s))
            assert np.isfinite(tmsv_w1(spec, np.array(POINTS), s)).all()

    def test_thermal_prefactor_stays_representable_at_the_largest_xi(self):
        # Width 1 + 2 sinh^2 xi - s is about 1.8e308 here: pi * width
        # overflows, while 2/pi/width is the subnormal 3.54e-309.
        spec = TmsvSpec(355.23793003697193)
        assert tmsv_w1(spec, 0j, 0.0) == pytest.approx(3.5413e-309, rel=1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            peak = tmsv_w1(spec, np.zeros(3, dtype=complex), np.array([0.0, -0.5, -1.0]))
        assert (peak > 0.0).all()

    def test_photon_number_must_be_an_integer(self):
        # int() would truncate 3.7 to the Fock state |3>.
        for n in (2.9, 3.7, math.nan):
            for make in (SingleModeTestState.fock, lambda n: SingleModeTestState(n=n)):
                with pytest.raises(ValueError, match="photon number n must be an integer"):
                    make(n)
        assert SingleModeTestState.fock(3.0) == SingleModeTestState.fock(3)
        assert type(SingleModeTestState.fock(np.int64(2)).n) is int

    def test_vacuum_is_one_record(self):
        assert SingleModeTestState.coherent(0) == SingleModeTestState.thermal(0)
        assert SingleModeTestState.thermal(0) == SingleModeTestState.vacuum()
        assert SingleModeTestState.fock(0) == SingleModeTestState.vacuum()
        with pytest.raises(ValueError, match="nbar"):
            thermal_w(-0.1, 0j, 0.0)

    def test_coherent_is_displaced_vacuum(self):
        state = SingleModeTestState.coherent(0.6 - 0.2j)
        for alpha in POINTS:
            for s in (0.0, -0.7):
                assert state_w(state, alpha, s) == pytest.approx(
                    thermal_w(0.0, alpha - (0.6 - 0.2j), s), abs=1e-15
                )

    def test_fock_husimi_at_origin(self):
        assert state_w(SingleModeTestState.fock(0), 0j, -1.0) == pytest.approx(1.0 / math.pi)
        assert state_w(SingleModeTestState.fock(2), 0j, -1.0) == 0.0

    def test_fock_matches_series(self):
        state = SingleModeTestState.fock(3)
        for s in (-0.25, -1.0):
            for alpha in (0.5, 0.3 - 0.6j):
                p = photon_distribution(state, alpha, 200)
                reference = float(
                    2.0
                    / (math.pi * (1.0 - s))
                    * np.dot(((s + 1.0) / (s - 1.0)) ** np.arange(201), p.probs)
                )
                assert state_w(state, alpha, s) == pytest.approx(reference, abs=1e-10)

    def test_vectorized_evaluation_matches_scalar(self):
        grid = np.array([0.1 + 0.2j, -0.4, 0.9j, -0.2 - 0.7j])
        for state in (
            SingleModeTestState.vacuum(),
            SingleModeTestState.coherent(0.5 + 0.1j),
            SingleModeTestState.thermal(0.8),
            SingleModeTestState.fock(2),
        ):
            for s in (0.0, -1.0):
                arr = state_w(state, grid, s)
                assert isinstance(arr, np.ndarray) and arr.shape == grid.shape
                for z, v in zip(grid, arr):
                    assert v == pytest.approx(state_w(state, complex(z), s), abs=1e-15)

    def test_fock_normalization(self):
        total = plane_integral(
            lambda pts: state_w(SingleModeTestState.fock(2), pts, -0.5), tol=1e-9
        )
        assert total.item() == pytest.approx(1.0, abs=1e-7)

    def test_order_parameter_must_be_non_positive(self):
        with pytest.raises(ValueError):
            thermal_w(0.0, 0j, 0.3)


class TestPhotonDistributions:
    @pytest.mark.parametrize(
        "state,rho",
        [
            (SingleModeTestState.coherent(0.5 + 0.2j), orc.rho_coherent(0.5 + 0.2j, 40)),
            (SingleModeTestState.thermal(0.8), orc.rho_thermal(0.8, 40)),
            (SingleModeTestState.fock(2), orc.rho_fock(2, 40)),
            (SingleModeTestState.fock(6), orc.rho_fock(6, 40)),
        ],
    )
    def test_matches_fock_oracle(self, state, rho):
        displacement = 0.6 - 0.3j
        p = photon_distribution(state, displacement, 30)
        reference = orc.photon_pmf(rho, displacement)[:31]
        assert np.max(np.abs(p.probs - reference)) < 1e-12

    def test_displaced_vacuum_is_poisson(self):
        p = photon_distribution(SingleModeTestState.vacuum(), 0.9, 25)
        lam = 0.81
        expected = np.array(
            [math.exp(-lam) * lam**n / math.factorial(n) for n in range(26)]
        )
        assert np.max(np.abs(p.probs - expected)) < 1e-14

    def test_tail_bound_is_exact_complement(self):
        p = photon_distribution(SingleModeTestState.thermal(1.5), 0.4, 60)
        assert p.tail_bound == pytest.approx(1.0 - float(p.probs.sum()), abs=1e-15)

    def test_requires_positive_length(self):
        with pytest.raises(ValueError):
            photon_distribution(SingleModeTestState.vacuum(), 0j, 0)

    def test_length_must_be_an_integer(self):
        # int() would truncate 10.9 to 10.
        with pytest.raises(ValueError, match="n_max must be an integer"):
            photon_distribution(SingleModeTestState.vacuum(), 0.3, 10.9)

    @pytest.mark.parametrize("n_max", [10, np.int64(10), 10.0])
    def test_integral_lengths_are_admitted(self, n_max):
        p = photon_distribution(SingleModeTestState.vacuum(), 0.3, n_max)
        assert p.n_max == 10
