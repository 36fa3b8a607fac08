"""Noise-adaptive entanglement witnessing in phase space.

Generalized quasiprobability functions with a tunable order parameter,
noise channels acting as order-parameter rescalings, a bounded
CHSH-shaped witness, and search drivers that map out its violation
regions under detection loss and thermal decoherence.
"""

from .noise import (
    DetectionNoise,
    ThermalNoise,
    bernoulli_detect,
    evolve_thermal_w,
    lossy_w,
    lossy_w_d,
    rescale_detection,
    rescale_thermal,
)
from .qp_core import (
    ConsistencyError,
    ConvergenceError,
    OrderParam,
    PhotonDistribution,
    beamsplitter_convolve,
    gaussian_smooth,
    parity_coefficient,
    plane_integral,
    w_from_distribution,
)
from .search import (
    SearchConfig,
    SweepCell,
    SweepResult,
    grid_oracle,
    maximize_bell,
    sweep_eta_s,
    sweep_thermal,
)
from .states import (
    SingleModeTestState,
    TmsvSpec,
    photon_distribution,
    state_w,
    thermal_w,
    tmsv_w1,
    tmsv_w2,
)
from .witness import (
    CLAMP_BOUNDED,
    CLAMP_FROZEN,
    CLAMP_LOSS_CHANNEL,
    CLAMP_MODES,
    BellSettings,
    WitnessReport,
    bell_value,
    bounded_eigenvalue,
    detection_objective,
    effective_eigenvalue,
    observable_eigenvalue,
    thermal_objective,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConsistencyError",
    "ConvergenceError",
    "OrderParam",
    "PhotonDistribution",
    "parity_coefficient",
    "w_from_distribution",
    "gaussian_smooth",
    "beamsplitter_convolve",
    "plane_integral",
    "TmsvSpec",
    "SingleModeTestState",
    "tmsv_w2",
    "tmsv_w1",
    "thermal_w",
    "state_w",
    "photon_distribution",
    "DetectionNoise",
    "ThermalNoise",
    "rescale_detection",
    "rescale_thermal",
    "bernoulli_detect",
    "lossy_w",
    "lossy_w_d",
    "evolve_thermal_w",
    "CLAMP_BOUNDED",
    "CLAMP_FROZEN",
    "CLAMP_LOSS_CHANNEL",
    "CLAMP_MODES",
    "BellSettings",
    "WitnessReport",
    "observable_eigenvalue",
    "effective_eigenvalue",
    "bounded_eigenvalue",
    "bell_value",
    "detection_objective",
    "thermal_objective",
    "SearchConfig",
    "SweepCell",
    "SweepResult",
    "maximize_bell",
    "grid_oracle",
    "sweep_eta_s",
    "sweep_thermal",
]
