"""Bounded phase-space observable and the CHSH-shaped witness.

The observable at order s has eigenvalues in [-1, 1] for s in [-1, 0],
so separable states obey |B| <= 2 and any strictly larger magnitude
certifies entanglement (this is an entanglement witness, not a
nonlocality test).

Both noise models reach the TMSV witness through one route, ``_cells``:
the noise rescales the order parameter to s' and divides the settings by
a lift (1 for detection loss, t for the thermal channel), and
``_curve_keys`` forms six normal-mode constants under the clamp rule.  A
sweep reads ``_cells`` of its whole grid, and an objective its one row:
it answers ``objective()`` with its lift, its order s' and its curve
key, the key of the search's one curve solve, and ``objective(settings)``
with the report.  The independent route over the closed-form fields
lives in ``validate``, off the hot path.  Only this module reads the
constants, bar c0 (column 2), the asymptote ``search`` reports: ``_bell``
gives B at settings rows, one or many, ``_family`` gives B, its gradient
and its Hessian on the solve's real symmetric family b = a, and
``_family_blocks`` the other three 2 x 2 blocks of the Hessian there.

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
import sys
from dataclasses import dataclass, field
from math import exp, pi
from typing import Callable, Mapping

import numpy as np

from .noise import DetectionNoise, ThermalNoise, rescale_detection, rescale_thermal
from .qp_core import _photon_number, _power, parity_coefficient, real_order
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
        return _violated(self.bell_abs)

    @property
    def clamped(self) -> bool:
        return _clamped(self.s_effective)


# The report's two flags, for a float or an array of |B| or of s'.
def _violated(bell_abs):
    return bell_abs > 2.0 + _VIOLATION_MARGIN


def _clamped(s_prime):
    return s_prime < -1.0


def observable_eigenvalue(n, s) -> float | np.ndarray:
    """Eigenvalue (1-s)*((s+1)/(s-1))^n + s of the bounded observable.

    An integer n gives a float, an integer array n an array, against which
    an array of orders broadcasts.
    """
    n = _photon_number(n)
    sv = real_order(s, "the eigenvalue spectrum")
    ratio = (sv + 1.0) / (sv - 1.0)
    # n = 0 and n = 1 are the identities 1 and -(s+1)+s; return them
    # exactly rather than through one rounding step.
    values = np.where(n == 0, 1.0, np.where(n == 1, -1.0, (1.0 - sv) * _power(ratio, n) + sv))
    return float(values) if np.ndim(n) == 0 else values


def effective_eigenvalue(n, s_prime) -> float | np.ndarray:
    """Eigenvalue 4 coeff(n, s') - 1 of the frozen-rule observable (coefficients at -1);
    an array of orders s' broadcasts against n."""
    return 4.0 * parity_coefficient(n, real_order(s_prime, "the eigenvalue spectrum")) - 1.0


def bounded_eigenvalue(n, s_prime) -> float | np.ndarray:
    """Eigenvalue 2 ((s'+1)/(s'-1))^n - 1 of the bounded-continuation observable.

    Equals 2 (1-s') coeff(n, s') - 1; the ratio lies in [0, 1) for
    s' <= -1, so the spectrum stays in (-1, 1].  An array of orders s'
    broadcasts against n.
    """
    sp = real_order(s_prime, "the eigenvalue spectrum")
    return 2.0 * (1.0 - sp) * parity_coefficient(n, sp) - 1.0


def _coefficients(s):
    one_minus = 1.0 - s
    return (
        # float_power rounds like C pow on every numpy kernel; an array's ** does not.
        pi * pi * np.float_power(one_minus, 4.0) / 4.0,
        pi * s * one_minus * one_minus,
        2.0 * s * s,
    )


def _bounded_coefficients(s_prime):
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
    give the same numbers for array and scalar points.  With the array
    form ``s`` may also be a real array of n orders, one per row: a row
    then reads the coefficients of its own order, to the scalar order's
    bits, and the first entry outside [-1, 0] raises as alone.  A
    non-finite setting raises the ``ValueError`` that ``BellSettings`` raises.
    """
    sv = real_order(s, _WITNESS, lo=-1.0)
    c2, c1, c0 = _coefficients(sv)
    if isinstance(settings, BellSettings):
        a1, a2, b1, b2 = settings.a1, settings.a2, settings.b1, settings.b2
    else:
        a1, a2, b1, b2 = _setting_columns(settings)
    corr = w2(a1, b1) + w2(a1, b2) + w2(a2, b1) - w2(a2, b2)
    return c2 * corr + c1 * (w1a(a1) + w1b(b1)) + c0


def _bell(lift, key, x):
    """A cell's B from its curve key and lift at the raw settings x.

    ``x`` holds the 8 coordinates ordered as ``BellSettings.to_vector``,
    each a float or an array (``x.T`` of an (n, 8) settings array); the
    fields are read at x / lift.
    """
    cw, d1, c0, gm, gp, e1 = key
    ew, m, f = gm + gp, 2.0 * (gm - gp), 1.0 / lift
    a1r, a1i, a2r, a2i, b1r, b1i, b2r, b2i = (v * f for v in x)
    na1 = a1r * a1r + a1i * a1i
    na2 = a2r * a2r + a2i * a2i
    nb1 = b1r * b1r + b1i * b1i
    nb2 = b2r * b2r + b2i * b2i
    # |a + b*|^2/v- + |a - b*|^2/v+ = ew (|a|^2 + |b|^2) + m Re(a b).
    w11 = np.exp(-(ew * (na1 + nb1) + m * (a1r * b1r - a1i * b1i)))
    w12 = np.exp(-(ew * (na1 + nb2) + m * (a1r * b2r - a1i * b2i)))
    w21 = np.exp(-(ew * (na2 + nb1) + m * (a2r * b1r - a2i * b1i)))
    w22 = np.exp(-(ew * (na2 + nb2) + m * (a2r * b2r - a2i * b2i)))
    singles = np.exp(-e1 * na1) + np.exp(-e1 * nb1)
    return cw * (w11 + w12 + w21 - w22) + 0.5 * d1 * singles + c0


@np.errstate(all="ignore")
def _curve_keys(xi: float, s_prime, lift, transmission, clamp_mode: str):
    """Lifts (n,) and curve keys (n, 6) of the n cells the three columns broadcast to.

    A cell reads B = c2 (W2(a1,b1) + W2(a1,b2) + W2(a2,b1) - W2(a2,b2)) +
    c1 (W1(a1) + W1(b1)) + c0, with the fields read at the settings divided
    by the lift, in normal modes (Braunstein & van Loock, Rev. Mod. Phys.
    77, 513 (2005), Sec. II): W2(a, b) = k2 exp(-|a + b*|^2/v- - |a - b*|^2/v+)
    and W1(a) = k1 exp(-e1 |a|^2), with the variances v+- = e^{+-2 xi} - s
    at the order s read, k2 = 4/(pi^2 v+ v-), k1 = e1/pi and
    e1 = 4/(v+ + v-).  Its key is (c2 k2, 2 c1 k1, c0, 1/v-, 1/v+, e1):
    cells with equal keys differ only in lift and s'.

    ``lift`` is the noise's settings scale (1 for detection loss, t for
    the thermal interaction).  Only the loss-channel rule reads the
    channel's intensity ``transmission`` g (eta, or t^2): a clamped cell
    reads the order -1 field of the noisy state, (1/g) W(alpha/sqrt(g);
    1 - 2/g) per mode, so its lift is sqrt(g).  The first row whose
    constants overflow or underflow raises ``ValueError``.
    """
    if clamp_mode not in CLAMP_MODES:
        raise ValueError(f"unknown clamp mode {clamp_mode!r}")
    sp = np.array(s_prime, dtype=float, ndmin=1)
    s, lifts, weight, g = sp, lift, 1.0, transmission
    # The frozen and loss-channel rules take a clamped row's coefficients at order -1.
    c2, c1, c0 = _coefficients(np.maximum(sp, -1.0))
    clamped = _clamped(sp)
    if clamp_mode == CLAMP_BOUNDED and clamped.any():
        bounded = _bounded_coefficients(sp)
        c2, c1, c0 = (np.where(clamped, b, c) for b, c in zip(bounded, (c2, c1, c0)))
    elif clamp_mode == CLAMP_LOSS_CHANNEL and clamped.any():
        s = np.where(clamped, 1.0 - 2.0 / g, sp)
        lifts, weight = np.where(clamped, np.sqrt(g), lift), np.where(clamped, 1.0 / g, 1.0)
    # 1/v-, 1/v+ and e1 from q = e^{-2 xi}, which cannot overflow.
    q = exp(-2.0 * xi)
    gm, gp, e1 = 1.0 / (q - s), q / (1.0 - s * q), 4.0 * q / (1.0 + q * (q - 2.0 * s))
    cw, h1 = c2 * ((gm * weight) * (gp * weight)) * (4.0 / (pi * pi)), c1 * e1 / pi * weight
    keys = np.array([cw, 2.0 * h1, c0, gm, gp, e1]).T
    normal = np.minimum(np.minimum(cw, gm), np.minimum(gp, e1)) >= sys.float_info.min
    ok = np.isfinite(keys).all(axis=1) & normal
    if not ok.all():
        s_bad = float(sp[ok.argmin()])
        raise ValueError(f"the witness at xi = {xi}, s' = {s_bad} overflows or underflows")
    return np.full(sp.shape, lifts), keys


#: The least Gaussian exponent at a far point: exp(-800) underflows to 0.
_FAR_EXPONENT = 800.0
#: The certificate's units as ``_key_scales`` computes them, with
#: c2 k2 = cw and e1 read from the curve key; a sweep's manifest names them.
_GRAD_NORM_UNIT = "|c2*k2|*sqrt(1/v- + 1/v+)"
_HESS_MAX_UNIT = "|c2*k2|*e1"


@np.errstate(all="ignore")
def _key_scales(keys) -> tuple[np.ndarray, ...]:
    """Per row of curve keys: peak length, two units and far radius.

    In the frame the fields are read in, the peak of B has length
    1/sqrt(1/v- + 1/v+), and its gradient and Hessian have the units
    ``_GRAD_NORM_UNIT`` and ``_HESS_MAX_UNIT``.  As the settings grow B
    tends to c0.  At the family point x = y = R every Gaussian exponent,
    4 R^2/v- or e1 R^2 with e1 <= 4/v-, is at least ``_FAR_EXPONENT``, so
    B is c0 there to the bit, and its gradient and Hessian are 0.
    """
    cw, _, _, gm, gp, e1 = np.asarray(keys, dtype=float).reshape(-1, 6).T
    ew, amplitude = gm + gp, np.abs(cw)
    # 800 / (2^64 e1) cannot overflow, and the powers of 2 round nothing.
    far = np.sqrt(_FAR_EXPONENT / (e1 * 2.0**64)) * 2.0**32
    return 1.0 / np.sqrt(ew), amplitude * np.sqrt(ew), amplitude * e1, far


def _family_fields(key, x, y):
    """The Gaussian terms of B at the family point (x, y), and their slopes.

    Gives E11 = cw exp(-4 gm x^2), E22 = cw exp(-4 gm y^2),
    E12 = 2 cw exp(-gm u^2 - gp v^2), W = d1 exp(-e1 x^2), and the slopes
    qx = 2 (gm u + gp v) and qy = 2 (gm u - gp v) of E12's exponent, with
    u = x + y, v = x - y and the key (cw, d1, c0, gm = 1/v-, gp = 1/v+, e1).
    """
    cw, d1, _, gm, gp, e1 = key
    xx, u, v = x * x, x + y, x - y
    su, sv = gm * u, gp * v
    return (
        cw * np.exp(-4.0 * gm * xx),
        cw * np.exp(-4.0 * gm * (y * y)),
        2.0 * cw * np.exp(-(su * u + sv * v)),
        d1 * np.exp(-e1 * xx),
        2.0 * (su + sv),
        2.0 * (su - sv),
    )


def _family(key, x, y):
    """B, its gradient and its Hessian on the real symmetric family.

    The family is a1 = b1 = x, a2 = b2 = y (real, in the frame the
    fields are read in), on which B = E11 + E12 - E22 + W + c0 in the
    terms of ``_family_fields``, from the curve-key columns ``key``
    (numbers or arrays).  Gives (B, Bx, By, Bxx, Bxy, Byy).
    """
    _, _, c0, gm, gp, e1 = key
    e11, e22, e12, w1, qx, qy = _family_fields(key, x, y)
    p, r, ew = 8.0 * gm, 2.0 * e1, 2.0 * (gm + gp)
    return (
        e11 + e12 - e22 + w1 + c0,
        -x * (p * e11 + r * w1) - qx * e12,
        p * y * e22 - qy * e12,
        p * (p * (x * x) - 1.0) * e11 + (qx * qx - ew) * e12 + r * (r * (x * x) - 1.0) * w1,
        (qx * qy - 2.0 * (gm - gp)) * e12,
        (qy * qy - ew) * e12 - p * (p * (y * y) - 1.0) * e22,
    )


def _family_blocks(key, x, y):
    """The Hessian of B at a family point, off the family's own block.

    B is unchanged by swapping each a_j with b_j, and by conjugating
    every setting.  A family point is fixed by both maps, so the raw
    8 x 8 Hessian there splits into four 2 x 2 blocks: real or imaginary
    moves, each with da = db or da = -db.  The real da = db block is
    ``_family``'s, and the gradient has no component off it.  Gives the
    real da = -db and imaginary da = db blocks over the mode sum and
    difference (m1 +- m2) / sqrt 2, where no entry of order 1/v- cancels
    to their small eigenvalue, and the imaginary da = -db block over the
    modes (1, 2), each as (11, 12, 22), with twice the raw eigenvalues.
    """
    _, _, _, gm, gp, e1 = key
    e11, e22, e12, w1, _, _ = _family_fields(key, x, y)
    u, v, su, sv = x + y, x - y, gm * (x + y), gp * (x - y)
    d, s, w = e11 - e22, e11 + e22, e1 * w1
    r, soft, flat = (2.0 * e1 * (x * x) - 1.0) * w, 4.0 * gp * d, -2.0 * (gm + gp) * e12
    return (
        (
            4.0 * gp * (2.0 * sv * v - 1.0) * e12 - soft + r,
            8.0 * su * sv * e12 - 4.0 * gp * s + r,
            4.0 * gm * (2.0 * su * u - 1.0) * e12 - soft + r,
        ),
        (-4.0 * gp * e12 - soft - w, -4.0 * gp * s - w, -4.0 * gm * e12 - soft - w),
        (-8.0 * gm * e11 + flat - 2.0 * w, -2.0 * (gm - gp) * e12, flat + 8.0 * gm * e22),
    )


def _rescaled(s, noise: DetectionNoise | ThermalNoise) -> tuple:
    """(s', lift, transmission) at base orders s, a float or a float array, under the noise."""
    if isinstance(noise, DetectionNoise):
        return rescale_detection(s, noise), 1.0, noise.eta
    return rescale_thermal(s, noise), noise.t, 1.0 - noise.r * noise.r


# An order that overflows reaches the rescale gate's message, not a numpy warning.
@np.errstate(all="ignore")
def _cells(xi: float, s: np.ndarray, noises, clamp_mode: str) -> tuple[np.ndarray, ...]:
    """(s', lifts, keys) of the cells (noise, s), noise-major, for admitted base orders s.

    ``noises`` are checked; the (s', lift, transmission) table is allocated before any is
    read.  The first bad rescaled order, then the first clamped warm thermal cell under the
    loss-channel rule, then the first bad key raises ``ValueError``.
    """
    table = np.empty((3, len(noises), len(s)))
    for row, noise in zip(table.swapaxes(0, 1), noises):
        row[0], row[1], row[2] = _rescaled(s, noise)
    if clamp_mode == CLAMP_LOSS_CHANNEL:
        warm = np.array([isinstance(n, ThermalNoise) and n.nbar > 0.0 for n in noises], bool)
        if _clamped(table[0, warm]).any():
            # Pure loss at transmission t^2 is the interaction of a cold environment only.
            raise ValueError(
                "loss-channel clamping applies to the thermal interaction only for nbar = 0"
            )
    return table[0].ravel(), *_curve_keys(xi, *table.reshape(3, -1), clamp_mode)


def _objective(spec: TmsvSpec, s, noise, clamp_mode: str) -> Callable[..., object]:
    """Per-settings TMSV witness evaluator of the one cell (noise, s).

    ``evaluate()`` gives the cell's ``(lift, s', key)``, its one row of
    ``_cells``.  ``evaluate(settings)`` gives the ``WitnessReport``, with B
    from ``_bell`` of the lift and the key, so a row of settings reads the
    same value alone or in an array.
    """
    s_base = np.array([real_order(s, _WITNESS, lo=-1.0)])
    s_primes, lifts, keys = _cells(spec.xi, s_base, [noise], clamp_mode)
    s_prime, lift, key = s_primes.item(), lifts.item(), tuple(keys[0].tolist())

    def evaluate(settings=None):
        if settings is None:
            return lift, s_prime, key
        value = float(_bell(lift, key, settings.to_vector()))
        if math.isnan(value):
            raise ValueError(f"witness value is NaN at s' = {s_prime!r}: the closed form overflows")
        return WitnessReport(settings, s_prime, value)

    return evaluate


def detection_objective(
    spec: TmsvSpec, s, noise: DetectionNoise, clamp_mode: str = CLAMP_BOUNDED
) -> Callable[[BellSettings], WitnessReport]:
    """Per-settings witness evaluator for the TMSV under detection loss."""
    return _objective(spec, s, noise, clamp_mode)


def thermal_objective(
    spec: TmsvSpec, s, noise: ThermalNoise, clamp_mode: str = CLAMP_BOUNDED
) -> Callable[[BellSettings], WitnessReport]:
    """Per-settings witness evaluator for the TMSV under thermal noise.

    Settings are interpreted in the measured (unprimed) frame; the
    amplitude rescale to alpha/t happens inside.  The clamping rule is
    applied uniformly when the rescaled order falls below -1; the
    loss-channel rule refuses a clamped cell with nbar > 0.
    """
    return _objective(spec, s, noise, clamp_mode)
