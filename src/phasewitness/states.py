"""Closed-form quasiprobability functions and photon distributions.

Covers the validation corpus: the two-mode squeezed vacuum (TMSV) with
its exact two-mode and marginal Gaussians, and the single-mode test
states (displaced thermal states, which include the vacuum and the
coherent states, and Fock states) both as analytic fields and as
displaced photon-number distributions.  Laguerre polynomials come from
one three-term recurrence, ``_laguerre``, and factorials from
``math.lgamma``, so no helper here needs more than numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qp_core import PhotonDistribution, real_order

__all__ = [
    "TmsvSpec",
    "SingleModeTestState",
    "tmsv_w2",
    "tmsv_w1",
    "thermal_w",
    "state_w",
    "photon_distribution",
]


#: What the order-parameter gate names when a closed form is asked off its domain.
_CLOSED_FORM = "closed-form states"


def _as_field(alpha) -> tuple[np.ndarray, bool]:
    scalar = np.isscalar(alpha)
    return np.asarray(alpha, dtype=complex), scalar


@dataclass(frozen=True)
class TmsvSpec:
    """Two-mode squeezed vacuum with squeezing parameter xi >= 0.

    xi = 0 degenerates to the two-mode vacuum.
    """

    xi: float

    def __post_init__(self) -> None:
        xi = float(self.xi)
        if not math.isfinite(xi) or xi < 0.0:
            raise ValueError("squeezing parameter xi must be finite and non-negative")
        try:
            math.cosh(2.0 * xi)
        except OverflowError:
            raise ValueError(
                f"squeezing parameter xi = {xi} is too large: cosh(2 xi) overflows"
            ) from None
        object.__setattr__(self, "xi", xi)

    def marginal_width(self, s: float) -> float:
        """Width cosh(2 xi) - s of the reduced single-mode Gaussian."""
        return math.cosh(2.0 * self.xi) - float(s)

    def joint_det(self, s: float) -> float:
        """Determinant s^2 - 2 s cosh(2 xi) + 1 of the two-mode quadratic form."""
        s = float(s)
        return s * s - 2.0 * s * math.cosh(2.0 * self.xi) + 1.0

    def gaussian(self, s: float) -> tuple[float, float, float, float, float, float]:
        """Constants (width, k2, e2, k1, e1, sh2) of the closed forms at order s.

        W2(a, b) = k2 exp(-e2 (width (|a|^2 + |b|^2) + sh2 Re(a b))) and
        W1(a) = k1 exp(-e1 |a|^2).
        """
        det = self.joint_det(s)
        if det <= 0.0:
            raise ValueError(f"quadratic form is not positive definite (det {det})")
        width = self.marginal_width(s)
        return (
            width,
            4.0 / (math.pi * math.pi * det),
            2.0 / det,
            2.0 / (math.pi * width),
            2.0 / width,
            2.0 * math.sinh(2.0 * self.xi),
        )


def tmsv_w2(spec: TmsvSpec, alpha, beta, s) -> float | np.ndarray:
    """Two-mode quasiprobability of the TMSV at (alpha, beta)."""
    width, k2, e2, _, _, sh2 = spec.gaussian(real_order(s, _CLOSED_FORM))
    a, scalar_a = _as_field(alpha)
    b, scalar_b = _as_field(beta)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    quad = width * ((ar * ar + ai * ai) + (br * br + bi * bi)) + sh2 * (ar * br - ai * bi)
    vals = k2 * np.exp(-e2 * quad)
    return float(vals) if scalar_a and scalar_b else vals


def tmsv_w1(spec: TmsvSpec, alpha, s) -> float | np.ndarray:
    """Reduced single-mode quasiprobability of the TMSV."""
    _, _, _, k1, e1, _ = spec.gaussian(real_order(s, _CLOSED_FORM))
    a, scalar = _as_field(alpha)
    vals = k1 * np.exp(-e1 * (a.real * a.real + a.imag * a.imag))
    return float(vals) if scalar else vals


@dataclass(frozen=True)
class SingleModeTestState:
    """A single-mode test state: a displaced thermal state or a Fock state.

    With ``n`` = 0 it is the thermal state of mean photon number ``nbar``
    displaced by ``z``: the vacuum sets neither, a coherent state only
    ``z`` and a thermal state only ``nbar``.  With ``n`` > 0 it is the
    Fock state |n>, which takes neither ``z`` nor ``nbar``.
    """

    z: complex = 0j
    nbar: float = 0.0
    n: int = 0

    def __post_init__(self) -> None:
        z = complex(self.z)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "nbar", float(self.nbar))
        object.__setattr__(self, "n", int(self.n))
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("coherent amplitude must be finite")
        if not math.isfinite(self.nbar) or self.nbar < 0.0:
            raise ValueError("mean photon number nbar must be finite and non-negative")
        if self.n < 0:
            raise ValueError("photon number must be non-negative")
        if self.n > 0 and (z != 0.0 or self.nbar != 0.0):
            raise ValueError("a Fock state takes neither a displacement z nor an nbar")

    @classmethod
    def vacuum(cls) -> "SingleModeTestState":
        return cls()

    @classmethod
    def coherent(cls, z: complex) -> "SingleModeTestState":
        return cls(z=complex(z))

    @classmethod
    def thermal(cls, nbar: float) -> "SingleModeTestState":
        return cls(nbar=float(nbar))

    @classmethod
    def fock(cls, n: int) -> "SingleModeTestState":
        return cls(n=int(n))


def thermal_w(nbar: float, beta, s) -> float | np.ndarray:
    """Quasiprobability of a thermal state with mean photon number nbar."""
    return state_w(SingleModeTestState.thermal(nbar), beta, s)


def state_w(state: SingleModeTestState, alpha, s) -> float | np.ndarray:
    """Analytic quasiprobability of a test state, scalar or array points."""
    sv = real_order(s, _CLOSED_FORM)
    a, scalar = _as_field(alpha)
    if state.n == 0:
        # The displaced thermal Gaussian of width 1 + 2 nbar - s.
        width = 1.0 + 2.0 * state.nbar - sv
        vals = (2.0 / (math.pi * width)) * np.exp(-2.0 * np.abs(a - state.z) ** 2 / width)
        return float(vals) if scalar else vals
    # Fock state: Laguerre closed form, with the ratio -> 0 limit at s = -1.
    b = np.abs(a) ** 2
    n = state.n
    if sv == -1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.exp(-b + n * np.log(b) - math.lgamma(n + 1)) / math.pi
        vals = np.where(b > 0.0, vals, 0.0)
    else:
        ratio = (sv + 1.0) / (sv - 1.0)
        arg = 4.0 * b / (1.0 - sv * sv)
        vals = (
            (2.0 / (math.pi * (1.0 - sv)))
            * _laguerre(n, 0.0, arg, ratio)[n]
            * np.exp(-2.0 * b / (1.0 - sv))
        )
    return float(vals) if scalar else np.asarray(vals, dtype=float)


def _laguerre(k_max: int, alpha, x, g: float = 1.0) -> np.ndarray:
    """g^k L_k^(alpha)(x) for k = 0..k_max, stacked along a new first axis.

    Runs the three-term recurrence
    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1} with every term
    carried as g^k L_k; ``alpha`` and ``x`` broadcast against each other.
    """
    t = np.empty((k_max + 1,) + np.broadcast(alpha, x).shape)
    t[0] = 1.0
    if k_max >= 1:
        t[1] = g * (1.0 + alpha - x)
    for k in range(1, k_max):
        t[k + 1] = (g * (2 * k + 1 + alpha - x) * t[k] - g * g * (k + alpha) * t[k - 1]) / (k + 1)
    return t


def _displaced_thermal_probs(nbar: float, b: float, n_max: int) -> np.ndarray:
    if nbar == 0.0:
        # A displaced vacuum: Poisson, the m = 0 case of a displaced Fock state.
        return _displaced_fock_probs(0, b, n_max)
    # g^n L_n(x); the upward recurrence is stable because x <= 0 makes
    # every term positive.
    g = nbar / (1.0 + nbar)
    t = _laguerre(n_max, 0.0, -b / (nbar * (1.0 + nbar)), g)
    return (math.exp(-b / (1.0 + nbar)) / (1.0 + nbar)) * t


def _displaced_fock_probs(m: int, b: float, n_max: int) -> np.ndarray:
    if b == 0.0:
        p = np.zeros(n_max + 1)
        if m <= n_max:
            p[m] = 1.0
        return p
    n = np.arange(n_max + 1)
    lo = np.minimum(n, m)
    delta = np.abs(n - m)
    # Row lo of the Laguerre table with alpha = delta, picked per n.
    lag = _laguerre(min(m, n_max), delta, b)[lo, n]
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(max(n_max, m) + 1)])
    logw = log_fact[lo] - log_fact[lo + delta] + delta * math.log(b) - b
    return np.exp(logw) * lag**2


def photon_distribution(
    state: SingleModeTestState,
    displacement,
    n_max: int,
) -> PhotonDistribution:
    """Photon-number distribution of the state displaced by -displacement.

    The tail bound is exact: all omitted probabilities are non-negative
    and the full distribution is normalized, so the bound is one minus
    the retained mass.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    a = complex(displacement)
    if state.n > 0:
        probs = _displaced_fock_probs(state.n, abs(a) ** 2, n_max)
    else:
        probs = _displaced_thermal_probs(state.nbar, abs(state.z - a) ** 2, n_max)
    tail = max(0.0, 1.0 - float(probs.sum()))
    return PhotonDistribution(probs, tail_bound=tail)
