"""The package namespace: each module's ``__all__``, re-exported once."""

from __future__ import annotations

import phasewitness
from phasewitness import noise, qp_core, search, states, witness

MODULES = (qp_core, states, noise, witness, search)

#: Every name the package exported before it re-exported the modules'
#: lists; none may go missing.
EXPORTED = {
    "__version__",
    "ConsistencyError", "ConvergenceError", "OrderParam", "PhotonDistribution",
    "parity_coefficient", "w_from_distribution", "gaussian_smooth",
    "beamsplitter_convolve", "plane_integral",
    "TmsvSpec", "SingleModeTestState", "tmsv_w2", "tmsv_w1", "thermal_w", "state_w",
    "photon_distribution",
    "DetectionNoise", "ThermalNoise", "rescale_detection", "rescale_thermal",
    "bernoulli_detect", "lossy_w", "lossy_w_d", "evolve_thermal_w",
    "CLAMP_BOUNDED", "CLAMP_FROZEN", "CLAMP_LOSS_CHANNEL", "CLAMP_MODES",
    "BellSettings", "WitnessReport", "observable_eigenvalue", "effective_eigenvalue",
    "bounded_eigenvalue", "bell_value", "detection_objective", "thermal_objective",
    "SearchConfig", "SweepCell", "SweepResult", "maximize_bell", "grid_oracle",
    "sweep_eta_s", "sweep_thermal",
}


def test_all_is_the_modules_lists_in_order():
    expected = ["__version__"]
    for module in MODULES:
        expected += module.__all__
    assert phasewitness.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(phasewitness, name) is getattr(module, name), name


def test_no_exported_name_is_lost():
    assert len(EXPORTED) == 44
    assert EXPORTED <= set(phasewitness.__all__)
    assert set(phasewitness.__all__) - EXPORTED == {"NORM_TOL", "real_order"}
    assert not {"cli", "validate", "main"} & set(phasewitness.__all__)
