"""Noise channels as order-parameter rescalings.

Detection loss with efficiency eta and the thermal beam-splitter channel
(reflectivity r, environment occupation nbar) both act on the
quasiprobability family as a change of the order parameter; the thermal
channel additionally rescales amplitudes by 1/t.  Each loss evaluation
is carried out along two independent routes (thinned-distribution series
versus rescaled closed form) and their agreement is enforced, never
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qp_core import (
    ConsistencyError,
    OrderParam,
    PhotonDistribution,
    real_order,
    w_from_distribution,
)

__all__ = [
    "DetectionNoise",
    "ThermalNoise",
    "rescale_detection",
    "rescale_thermal",
    "bernoulli_detect",
    "lossy_w",
    "lossy_w_d",
    "evolve_thermal_w",
]


@dataclass(frozen=True)
class DetectionNoise:
    """Per-mode detection efficiency, identical on both modes."""

    eta: float

    def __post_init__(self) -> None:
        eta = float(self.eta)
        object.__setattr__(self, "eta", eta)
        if not math.isfinite(eta) or not 0.0 < eta <= 1.0:
            raise ValueError("detection efficiency eta must lie in (0, 1]")


@dataclass(frozen=True)
class ThermalNoise:
    """Thermal channel at dimensionless time r, identical and independent
    on both modes.

    r = sqrt(1 - exp(-gamma*tau)) runs from 0 (no decoherence) towards 1;
    t = sqrt(1 - r^2) is the surviving amplitude fraction.
    """

    r: float
    nbar: float = 0.0

    def __post_init__(self) -> None:
        r = float(self.r)
        nbar = float(self.nbar)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "nbar", nbar)
        if not math.isfinite(r) or not 0.0 <= r < 1.0:
            raise ValueError("reflectivity r must lie in [0, 1)")
        if not math.isfinite(nbar) or nbar < 0.0:
            raise ValueError("mean photon number nbar must be finite and non-negative")
        if not math.isfinite(1.0 + 2.0 * nbar):
            raise ValueError(f"mean photon number nbar = {nbar} is too large: 1 + 2 nbar overflows")

    @property
    def t(self) -> float:
        return math.sqrt(1.0 - self.r * self.r)


def rescale_detection(s: float | OrderParam, noise: DetectionNoise) -> float | OrderParam:
    """Order parameter seen through detectors of efficiency eta.

    Implements 1 - s' = (1 - s)/eta on both branches: a real order gives
    a float, possibly below -1 (a float array an array), and
    ``OrderParam(d, eta0)`` gives ``OrderParam(d, eta0 * eta)``.
    """
    if isinstance(s, OrderParam):
        return OrderParam(s.d, s.eta * noise.eta)
    value = 1.0 - (1.0 - real_order(s, "detection rescaling")) / noise.eta
    return real_order(value, "the detection-rescaled order")


def rescale_thermal(s, noise: ThermalNoise) -> float:
    """Order parameter after thermal evolution to dimensionless time r (arrays too)."""
    sv = real_order(s, "thermal rescaling")
    t_sq = 1.0 - noise.r * noise.r
    value = (sv - noise.r * noise.r * (1.0 + 2.0 * noise.nbar)) / t_sq
    return real_order(value, "the thermally rescaled order")


def bernoulli_detect(p: PhotonDistribution, noise: DetectionNoise) -> PhotonDistribution:
    """Thin a photon-number distribution by per-photon survival eta.

    Every input count n scatters binomially over m <= n, so the retained
    mass is unchanged and the new tail bound is exactly the old one.  The
    binomial rows come from Pascal's rule: row n+1 is (1 - eta) times
    row n plus eta times row n shifted up by one count, and the output
    accumulates p[n] times row n.  At eta = 1 every row is a unit count,
    so the result equals ``p``, as a new object.
    """
    return _thin([(p, noise)])[0]


def _thin(pairs) -> list[PhotonDistribution]:
    """``bernoulli_detect`` of every (distribution, noise) pair in one Pascal sweep.

    The pairs, which must share one length N, are swept together over
    (k, N) arrays, one row per pair at the pair's own eta.  Every
    operation is elementwise, so a row's bits do not depend on the other
    rows: a pair thinned among others gives what ``bernoulli_detect``
    gives for it alone.
    """
    probs = np.stack([p.probs for p, _ in pairs])
    eta = np.array([[noise.eta] for _, noise in pairs])
    q = 1.0 - eta
    row = np.zeros(probs.shape)
    row[:, 0] = 1.0
    out = np.zeros(probs.shape)
    for pn in probs.T[:, :, None]:
        out += pn * row
        # Row n+1 is q times row n plus eta times row n shifted up one count.
        shifted = eta * row[:, :-1]
        row *= q
        row[:, 1:] += shifted
    tails = np.maximum(0.0, 1.0 - out.sum(axis=1))
    return [PhotonDistribution(probs, tail_bound=tail) for probs, tail in zip(out, tails)]


def _loss_routes(pairs, orders, tol: float) -> list[list]:
    """The two loss routes at each order in ``orders``, per (p, noise) pair.

    For each pair and each order s, on either branch: the series over the
    Bernoulli-thinned distribution at s, and the series over p at the
    rescaled order divided by eta.  One ``_thin`` call thins every pair.
    Each series converges to a quarter of tol, so their truncation stays
    inside tol.
    """
    return [
        [
            (
                w_from_distribution(thinned, s, tol=0.25 * tol),
                w_from_distribution(p, rescale_detection(s, noise), tol=0.25 * tol * noise.eta)
                / noise.eta,
            )
            for s in orders
        ]
        for (p, noise), thinned in zip(pairs, _thin(pairs))
    ]


def _agreed_loss(p: PhotonDistribution, s, noise: DetectionNoise, tol: float):
    """The thinned route's value, once the rescaled route agrees within tol."""
    ((thinned, rescaled),) = _loss_routes([(p, noise)], (s,), tol)[0]
    if abs(thinned - rescaled) > tol:
        raise ConsistencyError(
            f"loss routes disagree: thinned {thinned!r} vs rescaled {rescaled!r} "
            f"beyond tol {tol:.2e}"
        )
    return thinned


def lossy_w(p: PhotonDistribution, s, noise: DetectionNoise, tol: float = 1e-8) -> float:
    """Quasiprobability value reconstructed by inefficient detectors.

    The series over the Bernoulli-thinned distribution at order s, checked
    within tol against (1/eta) * series at the rescaled order.  A tol
    that is not positive and finite raises ``ValueError``, a tail too
    heavy for either series ``ConvergenceError``, and disagreeing routes
    ``ConsistencyError``.
    """
    s = real_order(s, "lossy_w (lossy_w_d serves the d-outcome branch)")
    return _agreed_loss(p, s, noise, tol)


def lossy_w_d(p: PhotonDistribution, d: int, noise: DetectionNoise, tol: float = 1e-8) -> complex:
    """d-outcome quasiprobability value under detection loss.

    ``lossy_w`` on the d-outcome branch: the thinned series at
    ``OrderParam(d)``, checked against the rescaled ``OrderParam(d, eta)``
    series divided by eta, with the same errors.
    """
    return _agreed_loss(p, OrderParam(d), noise, tol)


def _contract(point, t: float):
    """point / t: a complex for a scalar point, else a complex array.

    Arrays divide the real and imaginary parts by t, which is what
    Python's complex division by a real does, so an array point gives
    the scalar point's bits.
    """
    if np.ndim(point) == 0:
        return complex(point) / t
    return (np.ascontiguousarray(point, dtype=complex).view(float) / t).view(complex)


def evolve_thermal_w(
    base_w: Callable[..., float],
    s,
    noise: ThermalNoise,
    alpha,
    beta=None,
) -> float | np.ndarray:
    """Quasiprobability after thermal evolution, from the time-zero field.

    ``base_w`` is a family evaluator called as ``base_w(point, order)``
    for one mode or ``base_w(point_a, point_b, order)`` for two modes;
    the order passed in is the rescaled one.  Amplitudes contract by t
    per mode, with prefactor 1/t^2 per mode.  Scalar points give a
    float; array points are passed to ``base_w`` as arrays and give an
    array, whose entries equal the per-point floats whenever ``base_w``
    gives the same numbers for array and scalar points.
    """
    s_prime = rescale_thermal(s, noise)
    t = noise.t
    a = _contract(alpha, t)
    if beta is None:
        value, scale = base_w(a, s_prime), t * t
    else:
        value, scale = base_w(a, _contract(beta, t), s_prime), t**4
    if np.ndim(value) == 0:
        return float(value) / scale
    return np.asarray(value, dtype=float) / scale
