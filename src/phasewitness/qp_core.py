"""Order parameters, parity-series evaluation and convolution laws.

The phase-space distributions handled here form a one-parameter family
indexed by an order parameter ``s``: ``s = 0`` is the Wigner function,
``s = -1`` the Husimi Q function, and noise maps push ``s`` below -1.
A real order is a plain float.  A second, complex branch of the
parameter (one value per outcome count ``d``) covers number-resolved
measurements binned into ``d`` complex phases; ``OrderParam(d, eta)``
is that branch, at ideal detectors or after loss at efficiency eta.

One gate, ``real_order(s, what, lo)``, admits every real order: finite,
non-positive and not below ``lo`` (the witness takes [-1, 0], the
closed-form fields any s <= 0).  The series functions take either
branch and send a float through the same gate.  The channel records
``DetectionNoise`` and ``ThermalNoise``, which ``noise`` exports, are the
one gate of eta, r and nbar: ``OrderParam``, ``beamsplitter_convolve``
and ``states.SingleModeTestState`` admit them only through it.

States enter either as photon-number distributions (series evaluation)
or as callables ``point -> value`` (closed-form evaluation), so no grid
discretization error is introduced anywhere.  Both convolution laws
integrate on one Gauss-Hermite ladder: Gaussian smoothing in its
kernel's coordinates, so the nodes follow the kernel around every
target, and the beam-splitter convolution in the Gaussian environment's
coordinates, with one node set shared by every target.  The ladder sums
its targets one fixed-size block at a time, so its memory is bounded by
the block, not by targets x nodes.  ``plane_integral``, unexported and
called only by the tests and ``perfbench``, sums a decaying field over
the plane on the same ladder.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

__all__ = [
    "NORM_TOL",
    "ConvergenceError",
    "ConsistencyError",
    "OrderParam",
    "PhotonDistribution",
    "real_order",
    "parity_coefficient",
    "w_from_distribution",
    "gaussian_smooth",
    "beamsplitter_convolve",
]

#: Tolerance on probability normalization (sum of probs plus tail bound).
NORM_TOL = 1e-10

#: Hard cap on series length; anything needing more is reported as failure.
N_MAX_CAP = 4096


class ConvergenceError(RuntimeError):
    """A series or quadrature could not reach the requested tolerance."""


class ConsistencyError(RuntimeError):
    """Two supposedly equivalent evaluation routes disagreed."""


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


@dataclass(frozen=True)
class OrderParam:
    """Order parameter of the d-outcome branch, seen at detection efficiency eta.

    Ideal detectors (eta = 1) give the one admissible value per outcome
    count ``d``, s_d = -i*cot(pi/d) (0 for d = 2); loss at efficiency eta
    moves it to 1 - (1 - s_d)/eta, eta passing ``DetectionNoise``.  The weight
    ratio (s+1)/(s-1) is 1 - eta + eta*omega, omega = exp(2*pi*i/d), inside
    the closed unit disc.  Real orders are plain floats admitted by ``real_order``.
    """

    d: int
    eta: float = 1.0

    def __post_init__(self) -> None:
        d = _photon_number(self.d, "outcome count d")
        object.__setattr__(self, "d", d)
        if d < 2:
            raise ValueError("outcome count d must be >= 2")
        object.__setattr__(self, "eta", DetectionNoise(self.eta).eta)
        if not cmath.isfinite(self.value):
            raise ValueError("order parameter must be finite")

    @property
    def value(self) -> complex:
        """The order 1 - (1 - s_d)/eta."""
        s_d = -1j / math.tan(math.pi / self.d) if self.d > 2 else 0j
        return 1.0 - (1.0 - s_d) / self.eta

    @property
    def ratio(self) -> complex:
        """Weight ratio (s+1)/(s-1) between successive number states."""
        v = self.value
        return (v + 1.0) / (v - 1.0)


def _positive(value: float, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` unless value is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be positive and finite, got {value}")


def real_order(s: float, what: str, lo: float = -math.inf) -> float:
    """The real order parameter admitted by ``what``, as a float.

    Raises ``TypeError`` unless ``s`` is a real number (an ``OrderParam``
    is not), and ``ValueError`` naming ``what`` unless it is finite,
    non-positive and not below ``lo``.  An integer or floating array is
    returned as float64 once every entry passes; its first bad entry
    raises as alone.
    """
    if isinstance(s, np.ndarray) and s.dtype.kind in "iuf":
        s = s.astype(float, copy=False)
        bad = ~(np.isfinite(s) & (s <= 0.0) & (s >= lo))
        if bad.any():
            real_order(float(s.flat[bad.argmax()]), what, lo)
        return s
    if not isinstance(s, (float, int, np.floating, np.integer)):
        raise TypeError(f"{what} is defined on the real branch only, got order {s!r}")
    s = float(s)
    if not math.isfinite(s):
        raise ValueError(f"order parameter must be finite, got {s} for {what}")
    if s > 0.0 or s < lo:
        raise ValueError(f"order parameter {s} outside [{lo}, 0] for {what}")
    return s


def _ratio_and_gap(s: Union[OrderParam, float], what: str) -> tuple:
    """Weight ratio (s+1)/(s-1) and 1 - s on either branch.

    A real order passes ``real_order`` and gives floats, the ratio in
    [-1, 1); a d-outcome order gives complex values.
    """
    if isinstance(s, OrderParam):
        return s.ratio, 1.0 - s.value
    s = real_order(s, what)
    return (s + 1.0) / (s - 1.0), 1.0 - s


@dataclass(frozen=True)
class PhotonDistribution:
    """Photon-number probabilities p(0..n_max) with a rigorous tail bound."""

    probs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        p = np.atleast_1d(np.asarray(self.probs, dtype=float)).copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "tail_bound", float(self.tail_bound))
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(p)):
            raise ValueError("probs must be finite")
        if np.any(p < 0.0):
            raise ValueError("probs must be non-negative")
        if not (math.isfinite(self.tail_bound) and self.tail_bound >= 0.0):
            raise ValueError(f"tail_bound must be finite and non-negative, got {self.tail_bound}")
        total = float(p.sum()) + self.tail_bound
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"distribution mass {total} deviates from 1 beyond {NORM_TOL}")

    @property
    def n_max(self) -> int:
        return self.probs.size - 1


def _photon_number(n, what: str = "photon number n") -> int | np.ndarray:
    """``n`` as an int, or an integer array, of non-negative counts named ``what``.

    Integral floats are accepted; any other value raises ``ValueError``
    rather than being truncated.
    """
    # A plain count skips the array round trip, which would cost each
    # OrderParam and test state several times its own construction.
    if type(n) is int and n >= 0:
        return n
    arr = np.asarray(n)
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
        raise ValueError(f"{what} must be an integer, got {n!r}")
    if np.any(arr < 0):
        raise ValueError(f"{what} must be non-negative")
    return int(arr) if arr.ndim == 0 else arr.astype(np.int64)


def _power(ratio, n):
    """ratio**n, with a real or complex ratio (or array) broadcast against integer n.

    numpy's X86_V4 ``power`` kernel is about 10x slower on a negative
    base, so a real ratio is raised as |ratio|**n, and each odd power
    then takes the ratio's sign in place, which is exact: the result has
    the magnitude and the sign bit of ``ratio**n``.  A complex ratio
    keeps ``**``.
    """
    if np.iscomplexobj(ratio):
        return ratio**n
    power = abs(ratio) ** n
    if np.ndim(power) == 0:
        return math.copysign(power, ratio) if n % 2 else power
    return np.copysign(power, np.where(n & 1, ratio, 1.0), out=power)


def parity_coefficient(n, s: Union[OrderParam, float]) -> float | complex | np.ndarray:
    """Series weight ((s+1)/(s-1))^n / (1-s) of the n-th number state.

    This is the expectation value of the bounded parity-like observable
    in the displaced number state |alpha, n> (independent of alpha).
    An integer n gives a number, an integer array n an array, against
    which an array of real orders broadcasts.
    """
    n = _photon_number(n)
    ratio, gap = _ratio_and_gap(s, "parity_coefficient")
    return _power(ratio, n) / gap


def w_from_distribution(
    p: PhotonDistribution,
    s: Union[OrderParam, float, np.ndarray],
    tol: float = 1e-10,
) -> float | complex | np.ndarray:
    """Quasiprobability value (2/pi) * sum_n coeff(n, s) p(n).

    ``s`` is one order on either branch, giving a number, or a real
    array of orders, giving an array of that shape.  Every admissible
    order has |ratio| <= 1: for |ratio| < 1 any tail is damped
    geometrically, while on the unit circle (s = 0 and every d-outcome
    value at eta = 1) the tail bound itself must be below ``tol``.  Each
    order's tail is checked on its own, and the first order whose tail
    exceeds ``tol`` raises ``ConvergenceError`` naming it.  Each order's
    series is summed along its own row, so its value does not depend on
    the other orders in the array.
    """
    _positive(tol, "tol")
    ratio, gap = _ratio_and_gap(s, "w_from_distribution")
    if p.n_max + 1 > N_MAX_CAP:
        raise ConvergenceError(f"distribution longer than the n_max cap {N_MAX_CAP}")
    ratios = np.asarray(ratio).reshape(-1, 1)
    prefactors = 2.0 / (math.pi * np.asarray(gap).ravel())
    for i, (r_abs, scale) in enumerate(
        zip(np.abs(ratios[:, 0]).tolist(), np.abs(prefactors).tolist())
    ):
        # Tail error: every omitted term is bounded by |ratio|^(n_max+1) times its
        # mass, and independently by the pure geometric sum.
        damp = min(r_abs, 1.0) ** (p.n_max + 1)
        tail_err = scale * damp * p.tail_bound
        if r_abs < 1.0:
            tail_err = min(tail_err, scale * damp / (1.0 - r_abs))
        if tail_err > tol:
            raise ConvergenceError(
                f"series tail bound {tail_err:.3e} exceeds tol {tol:.3e} "
                f"at n_max {p.n_max} for order {np.ravel(s)[i]}"
            )
    terms = _power(ratios, np.arange(p.probs.size))
    terms *= p.probs
    values = prefactors * terms.sum(axis=-1)
    return values.item() if np.ndim(ratio) == 0 else values.reshape(np.shape(ratio))


# ---------------------------------------------------------------------------
# Gauss-Hermite ladder: both convolution laws and the plane integral
# ---------------------------------------------------------------------------

_HERMITE_ORDERS = (8, 12, 16, 24, 32, 48, 64, 96)

# Nodes summed per block: a block holds max(1, _BLOCK_NODES // n) targets
# at an order with n nodes, so no transient array grows with the targets.
_BLOCK_NODES = 1 << 14

FieldEvaluator = Callable[[np.ndarray], np.ndarray]
RowEvaluator = Callable[[np.ndarray], Callable[[slice], np.ndarray]]


@lru_cache(maxsize=None)
def _hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.hermite.hermgauss(order)
    pts = x[:, None] + 1j * x[None, :]
    wts = w[:, None] * w[None, :]
    return pts.ravel(), wts.ravel()


def _hermite_ladder(
    values: RowEvaluator, n_rows: int, quad_tol: float, what: str
) -> np.ndarray:
    """Gauss-Hermite product rule (1/pi) * sum_ij w_i w_j row(x_i + i x_j).

    ``values(u)`` is called once per order with its flat complex unit
    nodes and gives ``rows``; ``rows(block)`` gives the (k, u.size)
    integrand rows of the targets in the slice ``block``.  They are summed
    one block at a time into ``n_rows`` estimates, so memory is bounded by
    the block, not by targets x nodes.  Each row's sum runs along its own
    nodes only, so the block size does not change a bit of the result.
    The ladder climbs ``_HERMITE_ORDERS`` until two consecutive orders
    agree within quad_tol/2 on every row, and raises ``ConvergenceError``
    naming ``what`` when it runs out.
    """
    prev = None
    for order in _HERMITE_ORDERS:
        pts, wts = _hermite_nodes(order)
        rows = values(pts)
        step = max(1, _BLOCK_NODES // pts.size)
        est = np.empty(n_rows)
        for lo in range(0, n_rows, step):
            block = slice(lo, lo + step)
            est[block] = (np.asarray(rows(block), dtype=float) * wts).sum(axis=-1) / math.pi
        if prev is not None and np.max(np.abs(est - prev), initial=0.0) <= 0.5 * quad_tol:
            return est
        prev = est
    raise ConvergenceError(
        f"{what} did not converge to {quad_tol:.2e} at order {_HERMITE_ORDERS[-1]}"
    )


def _targets(alpha) -> np.ndarray:
    """The flat complex targets; a non-finite one raises ``ValueError``."""
    targets = np.atleast_1d(np.asarray(alpha, dtype=complex)).ravel()
    bad = ~np.isfinite(targets)
    if bad.any():
        raise ValueError(f"target alpha must be finite, got {targets[bad][0]}")
    return targets


def _shaped(est: np.ndarray, alpha):
    """A float for a scalar target, else the targets' shape."""
    return float(est[0]) if np.isscalar(alpha) else est.reshape(np.shape(alpha))


def gaussian_smooth(
    w: FieldEvaluator,
    s: float,
    s_prime: float,
    alpha,
    quad_tol: float = 1e-8,
):
    """Lower the order parameter by Gaussian convolution.

    Evaluates (2/(pi*(s-s'))) * integral d^2 beta W(beta; s)
    exp(-2|alpha-beta|^2/(s-s')) at one point or an array of points.
    Requires strictly s > s', a finite target and a positive, finite
    quad_tol.

    In kernel coordinates beta = alpha + sqrt((s-s')/2) * u the kernel
    becomes the Gauss-Hermite weight exp(-|u|^2), so the value is
    (1/pi) * sum_ij w_i w_j W(alpha + sqrt((s-s')/2) (x_i + i x_j)).
    ``_hermite_ladder`` sums it one block of targets at a time: W is
    called with one block's nodes, so memory is bounded by the block,
    not by targets x nodes.
    """
    delta = real_order(s, "gaussian smoothing") - real_order(s_prime, "gaussian smoothing")
    if delta <= 0.0:
        raise ValueError("smoothing requires s > s_prime")
    _positive(quad_tol, "quad_tol")

    targets = _targets(alpha)
    scale = math.sqrt(0.5 * delta)

    def values(u: np.ndarray):
        offsets = scale * u

        def rows(block: slice) -> np.ndarray:
            near = targets[block]
            nodes = (near[:, None] + offsets[None, :]).ravel()
            return np.asarray(w(nodes), dtype=float).reshape(near.size, u.size)

        return rows

    est = _hermite_ladder(values, targets.size, quad_tol, "gaussian smoothing")
    return _shaped(est, alpha)


def beamsplitter_convolve(
    w_a: FieldEvaluator,
    w_b: FieldEvaluator,
    r: float,
    alpha,
    width: float,
    quad_tol: float = 1e-8,
) -> float | np.ndarray:
    """Output-mode quasiprobability after mixing two fields on a beam splitter.

    Evaluates (1/t^2) * integral d^2 beta W_a(beta) W_b((alpha - r beta)/t)
    for reflectivity r, admitted by ``ThermalNoise(r)``, and its t =
    sqrt(1 - r^2), at one finite point (giving a float) or an array of
    them (giving that shape).  The law holds at any order parameter, provided
    both fields are supplied at the same one.

    ``width`` is the Gaussian width of the environment field W_a, as in
    (2/(pi*width)) exp(-2|beta|^2/width) for a thermal environment.  In
    its coordinates beta = sqrt(width/2) * u the integral is
    (width/2) * integral d^2u exp(-|u|^2) [exp(|u|^2) W_a(beta) W_b(...)],
    which ``_hermite_ladder`` sums on one node set shared by every
    target.  W_a is evaluated at every node, once per order, never
    assumed, so a field that is not the Gaussian the width describes
    shows up in the value.  W_b is called with one block of targets'
    points at a time, so memory is bounded by the block, not by
    targets x nodes.
    """
    channel = ThermalNoise(r)
    r, t = channel.r, channel.t
    width = float(width)
    _positive(width, "environment width")
    _positive(quad_tol, "quad_tol")

    targets = _targets(alpha)
    scale = math.sqrt(0.5 * width)

    def values(u: np.ndarray):
        beta = scale * u
        env = np.asarray(w_a(beta), dtype=float) * (
            (math.pi * 0.5 * width) * np.exp(u.real * u.real + u.imag * u.imag)
        )

        def rows(block: slice) -> np.ndarray:
            near = targets[block]
            points = ((near[:, None] - r * beta[None, :]) / t).ravel()
            return env * np.asarray(w_b(points), dtype=float).reshape(near.size, u.size)

        return rows

    # The ladder's tolerance applies before the 1/t^2 prefactor.
    est = _hermite_ladder(values, targets.size, quad_tol * t * t, "beam-splitter convolution")
    return _shaped(est / (t * t), alpha)


def plane_integral(f: FieldEvaluator, *, radius: float = 5.0, tol: float = 1e-8) -> np.ndarray:
    """Integral of a decaying field over the plane, one value per row of ``f``.

    ``f`` takes a flat complex array of nodes and gives one value per
    node, or one row per integrand (shape ``(k, n_nodes)``).  In the
    coordinates beta = (radius/3) * u, which put the lowest order's
    outermost nodes near +-radius, the integral is (radius/3)^2 times
    integral d^2u exp(-|u|^2) [exp(|u|^2) f(beta)], which
    ``_hermite_ladder`` sums to ``tol``.  A field that does not decay
    raises ``ConvergenceError``.  Unexported, kept for the tests; it moves
    into their oracles once ``perfbench/`` stops calling it.
    """
    _positive(tol, "tol")
    _positive(radius, "radius")
    scale = radius / 3.0
    n_rows = np.asarray(f(np.zeros(1, dtype=complex))).size

    def values(u: np.ndarray):
        weight = (math.pi * scale * scale) * np.exp(u.real * u.real + u.imag * u.imag)
        rows = np.asarray(f(scale * u), dtype=float).reshape(n_rows, u.size) * weight
        return rows.__getitem__

    return _hermite_ladder(values, n_rows, tol, "plane integral")
