"""Sanity checks of the independent Fock-basis reference computations.

The oracles pin expected values elsewhere in the suite, so they get
their own first-principles checks: unitarity, known overlaps, channel
trace preservation, and closed forms derived by hand.
"""

from __future__ import annotations

import math

import numpy as np

import oracles as orc


def test_displacement_matrix_is_unitary_on_inner_block():
    dm = orc.displacement_matrix(0.7 - 0.3j, 50)
    block = (dm.conj().T @ dm)[:30, :30]
    assert np.max(np.abs(block - np.eye(30))) < 1e-11


def test_displacement_matrix_is_bit_identical_to_elements():
    for alpha, dim in ((0.0, 6), (0.7 - 0.3j, 24), (-1.3 + 0.45j, 31), (2.1j, 17)):
        dm = orc.displacement_matrix(alpha, dim)
        ref = np.array(
            [[orc.displacement_element(m, n, alpha) for n in range(dim)] for m in range(dim)]
        )
        assert np.array_equal(dm, ref)
        assert not dm.flags.writeable
        assert orc.displacement_matrix(alpha, dim) is dm


def test_displacement_of_vacuum_gives_coherent_amplitudes():
    z = 0.8 + 0.4j
    dm = orc.displacement_matrix(z, 30)
    n = np.arange(30)
    expected = np.exp(-0.5 * abs(z) ** 2) * np.array(
        [z**k / math.sqrt(math.factorial(k)) for k in n]
    )
    assert np.max(np.abs(dm[:, 0] - expected)) < 1e-14


def test_displacement_at_zero_is_identity():
    dm = orc.displacement_matrix(0.0, 12)
    assert np.max(np.abs(dm - np.eye(12))) == 0.0


def test_tmsv_amplitudes_are_normalized():
    for xi in (0.0, 0.3, 0.6):
        c = orc.tmsv_amplitudes(xi, 80)
        assert abs(np.dot(c, c) - 1.0) < 1e-14


def test_husimi_closed_form_matches_schmidt_series():
    xi = 0.45
    c = orc.tmsv_amplitudes(xi, 60)
    for a, b in [(0.4 + 0.2j, -0.3 + 0.5j), (0.9, 0.7 - 0.4j)]:
        proj = (np.arange(60) == 0).astype(float)
        pa = orc.displaced_diagonal(proj, a)
        pb = orc.displaced_diagonal(proj, b)
        series = orc.pair_expectation(c, pa, pb).real / math.pi**2
        assert abs(series - orc.husimi_q2(xi, a, b)) < 1e-14


def test_loss_kraus_preserve_trace():
    dim = 40
    for eta in (0.3, 0.7):
        total = sum(k.T @ k for k in orc.loss_kraus(eta, dim))
        assert np.max(np.abs(total - np.eye(dim))) < 1e-12


def test_heisenberg_loss_fixes_identity_and_eta_one():
    op = orc.displaced_diagonal(orc.eig_standard(-0.5, 30), 0.4 - 0.2j)
    assert orc.heisenberg_loss(op, 1.0) is op
    ident = np.eye(30, dtype=complex)
    assert np.max(np.abs(orc.heisenberg_loss(ident, 0.6) - ident)) < 1e-12


def test_photon_pmf_of_displaced_vacuum_is_poisson():
    z = 0.9 - 0.5j
    pmf = orc.photon_pmf(orc.rho_coherent(0j, 40), -z)[:15]
    lam = abs(z) ** 2
    expected = np.array([math.exp(-lam) * lam**n / math.factorial(n) for n in range(15)])
    assert np.max(np.abs(pmf - expected)) < 1e-14


def test_thinned_thermal_w_matches_analytic_width():
    # Loss at transmission eta turns a thermal state nbar into thermal
    # eta*nbar; the quasiprobability is then a Gaussian of width
    # 1 + 2*eta*nbar - s.
    nbar, eta, s, a = 1.2, 0.6, -0.4, 0.5 - 0.3j
    got = orc.w_value(orc.rho_thermal(nbar, 90), a, s, eta=eta)
    width = 1.0 + 2.0 * eta * nbar - s
    expected = (2.0 / (math.pi * width)) * math.exp(-2.0 * abs(a) ** 2 / width)
    assert abs(got - expected) < 1e-12


def test_chsh_value_of_two_mode_vacuum_at_origin():
    value = orc.chsh_value(0.0, (0j, 0j, 0j, 0j), orc.eig_standard(-1.0, 40))
    assert abs(value - 2.0) < 1e-14
