"""Bounded phase-space observable and the CHSH-shaped witness.

The observable at order s has eigenvalues in [-1, 1] for s in [-1, 0],
so separable states obey |B| <= 2 and any strictly larger magnitude
certifies entanglement (this is an entanglement witness, not a
nonlocality test).

Both noise models reach the TMSV witness through one builder: the noise
rescales the order parameter to s' and divides the settings by a lift
(1 for detection loss, t for the thermal channel).  The independent
route over the closed-form fields lives in ``validate``, off the hot
path.  Every objective also answers ``objective(x, grad=True)`` with the
value and its analytic gradient over the raw 8-vector x, for the
settings search, and ``objective()`` with its lift and closed-form
constants, the key of the search's one curve solve.  Only this module
reads the constants: ``_family`` gives B, its gradient and its Hessian
on the solve's real symmetric family b = a, and ``_family_blocks`` the
rest of the 8 x 8 Hessian there, as three closed-form 2 x 2 blocks.

When the rescaled order parameter falls below -1 the plain functional
stops being a witness, because the observable spectrum leaves [-1, 1].
Three clamping rules are provided:

* ``bounded_continuation`` (default): keep the on-off structure of the
  order -1 observable, O = 2(1-s')Pi(s') - 1.  Its eigenvalues
  2 ((s'+1)/(s'-1))^n - 1 stay in (-1, 1] for any s' <= -1, so the
  separable bound |B| <= 2 survives, and the functional is continuous
  at the onset s' = -1.
* ``frozen_coefficients``: freeze the coefficient set at -1 while the
  distributions keep the true rescaled order.
* ``loss_channel``: evaluate the order -1 witness on the noisy state
  itself (noise channel applied to the state, not to the observable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import exp, pi
from typing import Callable, Mapping

import numpy as np

from .noise import DetectionNoise, ThermalNoise, rescale_detection, rescale_thermal
from .qp_core import _photon_number, parity_coefficient, real_order
from .states import TmsvSpec

__all__ = [
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
]

#: Default clamping rule: keep the on-off observable structure
#: 2(1-s')Pi(s') - 1, which is bounded for every s' <= -1.
CLAMP_BOUNDED = "bounded_continuation"

#: Diagnostic clamping rule: freeze the coefficient set at -1, keep the
#: distributions at the true rescaled order.
CLAMP_FROZEN = "frozen_coefficients"

#: Diagnostic clamping rule: evaluate the witness at order -1 on the
#: noisy state itself (noise channel applied to the state).
CLAMP_LOSS_CHANNEL = "loss_channel"

#: All recognised clamping rules.
CLAMP_MODES = (CLAMP_BOUNDED, CLAMP_FROZEN, CLAMP_LOSS_CHANNEL)

#: What the order-parameter gate names for a witness order outside [-1, 0].
_WITNESS = "the witness"

#: How far |B| must exceed 2 to read violated: a product state rounds up to 4e-15 above.
_VIOLATION_MARGIN = 1e-12


@dataclass(frozen=True)
class BellSettings:
    """The four displacement settings (a1, a2 on mode A; b1, b2 on mode B)."""

    a1: complex
    a2: complex
    b1: complex
    b2: complex

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "b1", "b2"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"setting {name} must be finite")
            object.__setattr__(self, name, v)

    @classmethod
    def from_vector(cls, x) -> "BellSettings":
        """Build from 8 reals ordered (a1_re, a1_im, a2_re, a2_im, b1_re, b1_im, b2_re, b2_im)."""
        x0, x1, x2, x3, x4, x5, x6, x7 = (float(v) for v in x)
        return cls(
            complex(x0, x1), complex(x2, x3), complex(x4, x5), complex(x6, x7)
        )

    def to_vector(self) -> tuple[float, ...]:
        return (
            self.a1.real, self.a1.imag, self.a2.real, self.a2.imag,
            self.b1.real, self.b1.imag, self.b2.real, self.b2.imag,
        )


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of one witness evaluation.

    ``s_effective`` is the real order parameter, a float, at which the
    distributions were evaluated (the true rescaled value, possibly
    below -1).
    ``bell_abs``, ``violated`` (|B| > 2 + ``_VIOLATION_MARGIN``) and
    ``clamped`` (s' < -1, so a clamping rule replaced the order-s'
    observable) are derived.
    """

    settings: BellSettings
    s_effective: float
    bell_value: float
    meta: Mapping[str, object] | None = field(default=None, compare=False)

    @property
    def bell_abs(self) -> float:
        return abs(self.bell_value)

    @property
    def violated(self) -> bool:
        return self.bell_abs > 2.0 + _VIOLATION_MARGIN

    @property
    def clamped(self) -> bool:
        return self.s_effective < -1.0


def observable_eigenvalue(n, s) -> float | np.ndarray:
    """Eigenvalue (1-s)*((s+1)/(s-1))^n + s of the bounded observable.

    An integer n gives a float, an integer array n an array.
    """
    n = _photon_number(n)
    sv = real_order(s, "the eigenvalue spectrum")
    ratio = (sv + 1.0) / (sv - 1.0)
    # n = 0 and n = 1 are the identities 1 and -(s+1)+s; return them
    # exactly rather than through one rounding step.
    values = np.where(n == 0, 1.0, np.where(n == 1, -1.0, (1.0 - sv) * ratio**n + sv))
    return float(values) if np.ndim(n) == 0 else values


def effective_eigenvalue(n, s_prime) -> float | np.ndarray:
    """Eigenvalue 4 coeff(n, s') - 1 of the frozen-rule observable (coefficients at -1)."""
    return 4.0 * parity_coefficient(n, real_order(s_prime, "the eigenvalue spectrum")) - 1.0


def bounded_eigenvalue(n, s_prime) -> float | np.ndarray:
    """Eigenvalue 2 ((s'+1)/(s'-1))^n - 1 of the bounded-continuation observable.

    Equals 2 (1-s') coeff(n, s') - 1; the ratio lies in [0, 1) for
    s' <= -1, so the spectrum stays in (-1, 1].
    """
    sp = real_order(s_prime, "the eigenvalue spectrum")
    return 2.0 * (1.0 - sp) * parity_coefficient(n, sp) - 1.0


def _coefficients(s: float) -> tuple[float, float, float]:
    one_minus = 1.0 - s
    return (
        pi * pi * one_minus**4 / 4.0,
        pi * s * one_minus * one_minus,
        2.0 * s * s,
    )


def _bounded_coefficients(s_prime: float) -> tuple[float, float, float]:
    # Expansion of sum +/- <O x O> for O = 2(1-s')Pi(s') - 1, using
    # <Pi> = (pi/2) W1 and <Pi x Pi> = (pi^2/4) W2.
    one_minus = 1.0 - s_prime
    return (
        pi * pi * one_minus * one_minus,
        -2.0 * pi * one_minus,
        2.0,
    )


def _setting_columns(x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous complex (a1, a2, b1, b2) columns of an (n, 8) settings array."""
    x = np.asarray(x)
    if np.iscomplexobj(x) or x.ndim != 2 or x.shape[1] != 8:
        raise ValueError(
            f"settings array must be real with shape (n, 8), got {x.dtype} {x.shape}"
        )
    x = np.ascontiguousarray(x, dtype=float)
    finite = np.isfinite(x).reshape(-1, 4, 2).all(axis=(0, 2))
    if not finite.all():
        name = ("a1", "a2", "b1", "b2")[int(np.argmin(finite))]
        raise ValueError(f"setting {name} must be finite")
    # Each (re, im) pair of a row is one complex128 in memory.
    return tuple(np.ascontiguousarray(x.view(complex).T))


def bell_value(
    w2: Callable[[complex, complex], float],
    w1a: Callable[[complex], float],
    w1b: Callable[[complex], float],
    settings: BellSettings | np.ndarray,
    s,
) -> float | np.ndarray:
    """CHSH-shaped functional from fixed-order quasiprobability evaluators.

    The evaluators must already be at order s; the separable bound
    |result| <= 2 holds for s in [-1, 0] only, so other orders are
    rejected.

    ``settings`` is one ``BellSettings``, giving a float, or a real array
    of shape (n, 8) with rows ordered as ``BellSettings.to_vector``,
    giving n values.  The array form calls each evaluator with complex
    arrays of n points, so they must accept arrays; a row's value is
    bit-identical to the ``BellSettings`` call whenever the evaluators
    give the same numbers for array and scalar points.  A non-finite
    entry raises the ``ValueError`` that ``BellSettings`` raises.
    """
    sv = real_order(s, _WITNESS, lo=-1.0)
    c2, c1, c0 = _coefficients(sv)
    if isinstance(settings, BellSettings):
        a1, a2, b1, b2 = settings.a1, settings.a2, settings.b1, settings.b2
    else:
        a1, a2, b1, b2 = _setting_columns(settings)
    corr = w2(a1, b1) + w2(a1, b2) + w2(a2, b1) - w2(a2, b2)
    return c2 * corr + c1 * (w1a(a1) + w1b(b1)) + c0


def _tmsv_objective(
    spec: TmsvSpec,
    s_prime: float,
    lift: float,
    transmission: float,
    clamp_mode: str,
) -> Callable[[BellSettings], WitnessReport]:
    """Per-settings TMSV witness evaluator at the rescaled order s'.

    B = c2 (W2(a1,b1) + W2(a1,b2) + W2(a2,b1) - W2(a2,b2)) + c1 (W1(a1) +
    W1(b1)) + c0, with the fields read at the settings divided by the
    lift and ``spec.gaussian``'s constants (width, k2, e2, k1, e1, sh2).

    ``evaluate(settings)`` gives the ``WitnessReport``;
    ``evaluate(x, grad=True)`` gives (B, dB/dx) at the raw 8-vector x,
    ordered as ``BellSettings.to_vector``, with the value bit-identical to
    the report's, and the gradient carries the frame factor 1/lift.
    ``evaluate()`` gives the objective's curve key
    ``(lift, (c2, c1, c0, width, k2, e2, k1, e1, sh2))``: two objectives
    with equal constants differ only by the lift of their settings.

    ``lift`` is the noise's settings scale (1 for detection loss, t for
    the thermal interaction).  ``transmission`` is the intensity
    transmission g of the noise channel (eta for detection loss, t^2 for
    the thermal interaction); only the loss-channel rule uses it, reading
    the order -1 field of the noisy state as (1/g) W(alpha/sqrt(g); 1 - 2/g)
    per mode, so its lift is sqrt(g).
    """
    if clamp_mode not in CLAMP_MODES:
        raise ValueError(f"unknown clamp mode {clamp_mode!r}")
    s_dist, weight2, weight1 = s_prime, 1.0, 1.0
    if s_prime >= -1.0:
        c2, c1, c0 = _coefficients(s_prime)
    elif clamp_mode == CLAMP_BOUNDED:
        c2, c1, c0 = _bounded_coefficients(s_prime)
    else:
        c2, c1, c0 = _coefficients(-1.0)
        if clamp_mode == CLAMP_LOSS_CHANNEL:
            g = transmission
            s_dist, lift = 1.0 - 2.0 / g, math.sqrt(g)
            weight2, weight1 = 1.0 / (g * g), 1.0 / g
    width, k2, e2, k1, e1, sh2 = spec.gaussian(s_dist, weight2, weight1)
    key = (lift, (c2, c1, c0, width, k2, e2, k1, e1, sh2))
    f = 1.0 / lift

    def evaluate(settings=None, grad: bool = False):
        if settings is None:
            return key
        # The report path reads the same 8 coordinates as the raw vector.
        x = settings if grad else settings.to_vector()
        a1r, a1i, a2r, a2i, b1r, b1i, b2r, b2i = x
        a1r, a1i, a2r, a2i = a1r * f, a1i * f, a2r * f, a2i * f
        b1r, b1i, b2r, b2i = b1r * f, b1i * f, b2r * f, b2i * f
        na1 = a1r * a1r + a1i * a1i
        na2 = a2r * a2r + a2i * a2i
        nb1 = b1r * b1r + b1i * b1i
        nb2 = b2r * b2r + b2i * b2i
        w11 = k2 * exp(-e2 * (width * (na1 + nb1) + sh2 * (a1r * b1r - a1i * b1i)))
        w12 = k2 * exp(-e2 * (width * (na1 + nb2) + sh2 * (a1r * b2r - a1i * b2i)))
        w21 = k2 * exp(-e2 * (width * (na2 + nb1) + sh2 * (a2r * b1r - a2i * b1i)))
        w22 = k2 * exp(-e2 * (width * (na2 + nb2) + sh2 * (a2r * b2r - a2i * b2i)))
        w1a = k1 * exp(-e1 * na1)
        w1b = k1 * exp(-e1 * nb1)
        value = c2 * (w11 + w12 + w21 - w22) + c1 * (w1a + w1b) + c0
        if math.isnan(value):
            raise ValueError(
                f"witness value is NaN at s' = {s_prime!r}: the closed form overflows"
            )
        if not grad:
            return WitnessReport(settings, s_prime, value)
        # d exp(-e2 Q)/d(scaled x) = -e2 W dQ, times the frame 1/lift for
        # the measured frame; u_jk is the signed weight of W(a_j, b_k) in B.
        g2 = -e2 * f
        g1a = -2.0 * e1 * f * c1 * w1a
        g1b = -2.0 * e1 * f * c1 * w1b
        u11, u12, u21, u22 = c2 * w11, c2 * w12, c2 * w21, -c2 * w22
        wa1, wa2 = 2.0 * width * (u11 + u12), 2.0 * width * (u21 + u22)
        wb1, wb2 = 2.0 * width * (u11 + u21), 2.0 * width * (u12 + u22)
        return value, (
            g2 * (wa1 * a1r + sh2 * (u11 * b1r + u12 * b2r)) + g1a * a1r,
            g2 * (wa1 * a1i - sh2 * (u11 * b1i + u12 * b2i)) + g1a * a1i,
            g2 * (wa2 * a2r + sh2 * (u21 * b1r + u22 * b2r)),
            g2 * (wa2 * a2i - sh2 * (u21 * b1i + u22 * b2i)),
            g2 * (wb1 * b1r + sh2 * (u11 * a1r + u21 * a2r)) + g1b * b1r,
            g2 * (wb1 * b1i - sh2 * (u11 * a1i + u21 * a2i)) + g1b * b1i,
            g2 * (wb2 * b2r + sh2 * (u12 * a1r + u22 * a2r)),
            g2 * (wb2 * b2i - sh2 * (u12 * a1i + u22 * a2i)),
        )

    return evaluate


def _family_constants(constants):
    """Per-row constants of ``_family`` from the nine curve-key constants."""
    c2, c1, c0, width, k2, e2, k1, e1, sh2 = constants
    ew, m = e2 * width, e2 * sh2
    return c2 * k2, ew, m, 2.0 * ew + m, 2.0 * c1 * k1, e1, c0


#: The least Gaussian exponent at a far point: exp(-800) underflows to 0.
_FAR_EXPONENT = 800.0
#: The certificate's units as ``_key_scales`` computes them; a sweep's
#: manifest names them.
_GRAD_NORM_UNIT = "|c2*k2|*sqrt(e2*width)"
_HESS_MAX_UNIT = "|c2*k2|*e1"


@np.errstate(all="ignore")
def _key_scales(constants) -> tuple[np.ndarray, ...]:
    """Per row of curve-key constants: peak length, two units and far radius.

    In the frame the fields are read in, the peak of B has length
    1/sqrt(e2 width), and its gradient and Hessian have the units
    ``_GRAD_NORM_UNIT`` and ``_HESS_MAX_UNIT``.  As the settings grow B
    tends to c0.  At the family point x = y = R, every
    Gaussian exponent (e2 (2 width + sh2) R^2 or e1 R^2) is at least
    ``_FAR_EXPONENT``, so B is c0 there to the bit, and its gradient and
    Hessian are 0.  Overflowing constants give non-finite entries.
    """
    c2, c1, c0, width, k2, e2, k1, e1, sh2 = np.asarray(constants, dtype=float).reshape(-1, 9).T
    ew, amplitude = e2 * width, np.abs(c2 * k2)
    far = np.sqrt(_FAR_EXPONENT / np.minimum(e2 * (2.0 * width + sh2), e1))
    return 1.0 / np.sqrt(ew), amplitude * np.sqrt(ew), amplitude * e1, far


def _family_fields(terms, x, y):
    """The Gaussian terms of B at the family point (x, y), and their slopes.

    Gives E11 = c2 k2 exp(-p x^2), E22 = c2 k2 exp(-p y^2),
    E12 = 2 c2 k2 exp(-e2 width (x^2 + y^2) - m x y), W = 2 c1 k1 exp(-e1 x^2),
    qx = 2 e2 width x + m y and qy = 2 e2 width y + m x, with m = e2 sh2
    and p = 2 e2 width + m, from the ``_family_constants`` terms.
    """
    cw, ew, m, p, d1, e1, c0 = terms
    xx, yy = x * x, y * y
    return (
        cw * np.exp(-p * xx),
        cw * np.exp(-p * yy),
        2.0 * cw * np.exp(-(ew * (xx + yy) + m * (x * y))),
        d1 * np.exp(-e1 * xx),
        2.0 * ew * x + m * y,
        2.0 * ew * y + m * x,
    )


def _family(terms, x, y):
    """B, its gradient and its Hessian on the real symmetric family.

    The family is a1 = b1 = x, a2 = b2 = y (real, in the frame the
    fields are read in), on which B = E11 + E12 - E22 + W + c0 in the
    terms of ``_family_fields``.  ``terms`` comes from
    ``_family_constants``, as numbers or arrays that broadcast with x
    and y.  Gives (B, Bx, By, Bxx, Bxy, Byy).
    """
    cw, ew, m, p, d1, e1, c0 = terms
    e11, e22, e12, w1, qx, qy = _family_fields(terms, x, y)
    xx, yy = x * x, y * y
    return (
        e11 + e12 - e22 + w1 + c0,
        -2.0 * (p * x * e11 + e1 * x * w1) - qx * e12,
        2.0 * p * y * e22 - qy * e12,
        (4.0 * p * p * xx - 2.0 * p) * e11 + (qx * qx - 2.0 * ew) * e12
        + (4.0 * e1 * e1 * xx - 2.0 * e1) * w1,
        (qx * qy - m) * e12,
        (qy * qy - 2.0 * ew) * e12 - (4.0 * p * p * yy - 2.0 * p) * e22,
    )


def _family_blocks(terms, x, y):
    """The Hessian of B at a family point, off the family's own block.

    B is unchanged by swapping each a_j with b_j, and by conjugating
    every setting.  A family point is fixed by both maps, so the raw
    8 x 8 Hessian there splits into four 2 x 2 blocks over the modes
    (1, 2): real or imaginary moves, each with da = db or da = -db.  The
    real da = db block is ``_family``'s, and the gradient has no
    component off it.  A block coordinate moves two raw coordinates, so
    the raw eigenvalues are half the blocks'.  Gives the real da = -db,
    imaginary da = db and imaginary da = -db blocks as (11, 12, 22).
    """
    cw, ew, m, p, d1, e1, c0 = terms
    e11, e22, e12, w1, qx, qy = _family_fields(terms, x, y)
    k = 2.0 * (2.0 * ew - m)
    flat = -2.0 * ew * e12
    return (
        (
            -k * e11 + (qx * qx - 2.0 * ew) * e12 + (4.0 * e1 * e1 * x * x - 2.0 * e1) * w1,
            -(qx * qy - m) * e12,
            (qy * qy - 2.0 * ew) * e12 + k * e22,
        ),
        (-k * e11 + flat - 2.0 * e1 * w1, m * e12, flat + k * e22),
        (-2.0 * p * e11 + flat - 2.0 * e1 * w1, -m * e12, flat + 2.0 * p * e22),
    )


def detection_objective(
    spec: TmsvSpec,
    s,
    noise: DetectionNoise,
    clamp_mode: str = CLAMP_BOUNDED,
) -> Callable[[BellSettings], WitnessReport]:
    """Per-settings witness evaluator for the TMSV under detection loss."""
    s_prime = rescale_detection(real_order(s, _WITNESS, lo=-1.0), noise)
    return _tmsv_objective(spec, s_prime, 1.0, noise.eta, clamp_mode)


def thermal_objective(
    spec: TmsvSpec,
    s,
    noise: ThermalNoise,
    clamp_mode: str = CLAMP_BOUNDED,
) -> Callable[[BellSettings], WitnessReport]:
    """Per-settings witness evaluator for the TMSV under thermal noise.

    Settings are interpreted in the measured (unprimed) frame; the
    amplitude rescale to alpha/t happens inside.  The clamping rule is
    applied uniformly when the rescaled order falls below -1.
    """
    s_prime = rescale_thermal(real_order(s, _WITNESS, lo=-1.0), noise)
    if clamp_mode == CLAMP_LOSS_CHANNEL and s_prime < -1.0 and noise.nbar > 0.0:
        # The loss-channel reading treats the interaction as pure loss at
        # transmission t^2, which holds for a cold environment only.
        raise ValueError(
            "loss-channel clamping applies to the thermal interaction only for nbar = 0"
        )
    return _tmsv_objective(spec, s_prime, noise.t, 1.0 - noise.r * noise.r, clamp_mode)
