"""Independent reference computations used to pin expected test values.

Everything here is built from first principles in the Fock basis: exact
displacement matrix elements, Schmidt-form two-mode squeezed vacuum
amplitudes, a Heisenberg-picture loss channel, and Bell values as plain
sums of operator expectation values.  The reference maximizer,
``tnc_maximize``, runs a multi-start bounded truncated-Newton (TNC)
ascent on |B| over all 8 setting coordinates through scipy's TNC C
core; it reads B and its gradient from its own scalar closed form over
the objective's lift and curve key, not the family or solve.  The
reference curve solve runs the package's curve solve over both families
b = +-a and both signs of B, 52 entries per key where the package runs
13, from the package's own
family (``witness._family``), seeds, iteration count, seed scale and
2 x 2 top eigenvalue (``search._CURVE_SEEDS``, ``_CURVE_ITERATIONS``,
``witness._key_scales`` and ``search._top_eigenvalue``); it checks the
pruning, not the family.  The reference certificate forms B's gradient
and full 8 x 8 Hessian at any settings from the six Gaussian forms, and
takes the largest eigenvalue off the gauge direction with a Householder
reflection and ``eigvalsh``, in the package's own units
(``witness._key_scales``); it checks the package's four closed-form
2 x 2 blocks, which hold on b = a only.  Its ``eigvalsh`` loses the top
eigenvalue as the squeezing grows, so a second reference,
``mp_hess_max``, differentiates the textbook B (the closed forms of
``states.TmsvSpec.gaussian``, formed anew at 80 digits) numerically,
sharing no code with the package.  ``curve_key`` is the scalar key body
the objective builder ran on Python floats, the reference that
``witness._curve_keys`` must match bit for bit.
Nothing else imports the package internals, so agreement with the
package is evidence, not tautology.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import os
import random
import sys
import sysconfig
from dataclasses import replace

import mpmath
import numpy as np

from phasewitness.search import _CURVE_ITERATIONS, _CURVE_SEEDS, _top_eigenvalue
from phasewitness.witness import BellSettings, _family, _key_scales

DEFAULT_DIM = 70


def displacement_element(m: int, n: int, alpha: complex) -> complex:
    """Exact <m|D(alpha)|n> by the finite factorial sum."""
    alpha = complex(alpha)
    total = 0.0 + 0.0j
    for k in range(min(m, n) + 1):
        log_mag = (
            0.5 * (math.lgamma(m + 1) + math.lgamma(n + 1))
            - math.lgamma(k + 1)
            - math.lgamma(m - k + 1)
            - math.lgamma(n - k + 1)
        )
        total += math.exp(log_mag) * alpha ** (m - k) * (-alpha.conjugate()) ** (n - k)
    return math.exp(-0.5 * abs(alpha) ** 2) * total


def displacement_matrix(alpha: complex, dim: int = DEFAULT_DIM) -> np.ndarray:
    """<m|D(alpha)|n> for m, n < dim, as a shared read-only array.

    Every entry is ``displacement_element``'s k-ordered sum with the same
    operations, so the two agree bit for bit; the log-factorials and the
    powers of alpha and -conj(alpha) are computed once per matrix, and
    the matrix once per (alpha, dim).
    """
    return _displacement_matrix(complex(alpha), int(dim))


@functools.lru_cache(maxsize=None)
def _displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    lg = [math.lgamma(j + 1) for j in range(dim)]
    up = [alpha**j for j in range(dim)]
    down = [(-alpha.conjugate()) ** j for j in range(dim)]
    scale = math.exp(-0.5 * abs(alpha) ** 2)
    out = np.empty((dim, dim), dtype=complex)
    for m in range(dim):
        for n in range(dim):
            half = 0.5 * (lg[m] + lg[n])
            total = 0.0 + 0.0j
            for k in range(min(m, n) + 1):
                total += math.exp(half - lg[k] - lg[m - k] - lg[n - k]) * up[m - k] * down[n - k]
            out[m, n] = scale * total
    out.setflags(write=False)
    return out


def displaced_diagonal(eigs: np.ndarray, alpha: complex) -> np.ndarray:
    """D(alpha) diag(eigs) D(alpha)^dagger on the truncated Fock space."""
    dm = displacement_matrix(alpha, len(eigs))
    return dm @ np.diag(np.asarray(eigs, dtype=complex)) @ dm.conj().T


def tmsv_amplitudes(xi: float, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Schmidt coefficients c_n with |psi> = sum_n c_n |n, n>."""
    n = np.arange(dim)
    return (1.0 / math.cosh(xi)) * (-math.tanh(xi)) ** n


def pair_expectation(amplitudes: np.ndarray, op_a: np.ndarray, op_b: np.ndarray) -> complex:
    """<psi| A (x) B |psi> for |psi> = sum_n c_n |n, n>."""
    c = np.asarray(amplitudes)
    return complex(np.einsum("m,n,mn,mn->", c, c, op_a, op_b))


def single_expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    return complex(np.trace(rho @ op))


# Eigenvalue ladders of the three witness observables, as functions of
# the order parameter the distributions are evaluated at.

def eig_standard(s: float, dim: int = DEFAULT_DIM) -> np.ndarray:
    n = np.arange(dim)
    return (1.0 - s) * ((s + 1.0) / (s - 1.0)) ** n + s


def eig_bounded(s_prime: float, dim: int = DEFAULT_DIM) -> np.ndarray:
    n = np.arange(dim)
    return 2.0 * ((s_prime + 1.0) / (s_prime - 1.0)) ** n - 1.0


def eig_frozen(s_prime: float, dim: int = DEFAULT_DIM) -> np.ndarray:
    n = np.arange(dim)
    return 4.0 * ((s_prime + 1.0) / (s_prime - 1.0)) ** n / (1.0 - s_prime) - 1.0


def chsh_value(
    xi: float,
    settings: tuple[complex, complex, complex, complex],
    eigs: np.ndarray,
    point_scale: float = 1.0,
    loss_eta: float | None = None,
) -> float:
    """CHSH sum of displaced-observable expectation values on the TMSV.

    Settings are scaled by ``point_scale`` before displacing; if
    ``loss_eta`` is given, both modes first pass through a loss channel
    of that transmission (applied in the Heisenberg picture).
    """
    dim = len(eigs)
    c = tmsv_amplitudes(xi, dim)
    a1, a2, b1, b2 = (complex(z) * point_scale for z in settings)
    ops = {}
    for z in (a1, a2, b1, b2):
        if z not in ops:
            op = displaced_diagonal(np.asarray(eigs, dtype=float), z)
            if loss_eta is not None:
                op = heisenberg_loss(op, loss_eta)
            ops[z] = op

    def term(a: complex, b: complex) -> float:
        return pair_expectation(c, ops[a], ops[b]).real

    return term(a1, b1) + term(a1, b2) + term(a2, b1) - term(a2, b2)


def loss_kraus(eta: float, dim: int) -> list[np.ndarray]:
    """Kraus operators of the single-mode loss channel, E_k |n> ~ |n-k>."""
    ops = []
    for k in range(dim):
        mat = np.zeros((dim, dim))
        for n in range(k, dim):
            log_c = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            mat[n - k, n] = math.sqrt(
                math.exp(log_c) * eta ** (n - k) * (1.0 - eta) ** k
            )
        ops.append(mat)
    return ops


def heisenberg_loss(op: np.ndarray, eta: float) -> np.ndarray:
    """Adjoint loss channel sum_k E_k^dag O E_k (exact on the truncation
    because every E_k only references lower Fock indices of O)."""
    if eta == 1.0:
        return op
    dim = op.shape[0]
    out = np.zeros_like(op)
    for kraus in loss_kraus(eta, dim):
        out += kraus.conj().T @ op @ kraus
    return out


# Density matrices of the single-mode reference states.

def rho_coherent(z: complex, dim: int = DEFAULT_DIM) -> np.ndarray:
    n = np.arange(dim)
    log_mag = -0.5 * abs(z) ** 2 + n * np.log(abs(z)) if z != 0 else None
    if z == 0:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
    else:
        phase = np.exp(1j * n * np.angle(z))
        vec = np.exp(log_mag - 0.5 * np.array([math.lgamma(k + 1) for k in n])) * phase
    return np.outer(vec, vec.conj())


def rho_thermal(nbar: float, dim: int = DEFAULT_DIM) -> np.ndarray:
    n = np.arange(dim)
    probs = (nbar / (1.0 + nbar)) ** n / (1.0 + nbar) if nbar > 0 else (n == 0).astype(float)
    return np.diag(probs.astype(complex))


def rho_fock(k: int, dim: int = DEFAULT_DIM) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[k, k] = 1.0
    return rho


def photon_pmf(rho: np.ndarray, displacement: complex) -> np.ndarray:
    """Probabilities <n| D(-d) rho D(-d)^dag |n> of the displaced state."""
    dim = rho.shape[0]
    dm = displacement_matrix(-displacement, dim)
    rotated = dm @ rho @ dm.conj().T
    return np.real(np.diag(rotated))


def w_value(rho: np.ndarray, alpha: complex, s: float, eta: float = 1.0) -> float:
    """Quasiprobability of the (optionally lossy) state straight from the
    series (2 / (pi (1-s))) sum_n ratio^n p_n(alpha)."""
    if eta != 1.0:
        dim = rho.shape[0]
        out = np.zeros_like(rho)
        for kraus in loss_kraus(eta, dim):
            out += kraus @ rho @ kraus.conj().T
        rho = out
    probs = photon_pmf(rho, alpha)
    ratio = (s + 1.0) / (s - 1.0)
    powers = ratio ** np.arange(len(probs))
    return float(2.0 / (math.pi * (1.0 - s)) * np.dot(powers, probs))


def husimi_q2(xi: float, alpha: complex, beta: complex) -> float:
    """Closed-form two-mode Husimi function from the Schmidt series."""
    mag = (
        (1.0 / math.cosh(xi) ** 2)
        * math.exp(-abs(alpha) ** 2 - abs(beta) ** 2 - 2.0 * math.tanh(xi) * (alpha * beta).real)
    )
    return mag / math.pi**2


#: Cap on objective evaluations per start (TNC's ``maxfun``).
MAX_EVALS_PER_START = 2000

_EMPTY = np.array([])


@functools.cache
def _tnc_minimize():
    """``tnc_minimize`` from scipy's ``_moduleTNC`` extension file.

    The file is found through scipy's package location and run under its
    module name, not put in ``sys.modules``.  Its init imports the
    top-level ``scipy`` (with ``scipy._lib`` and ``subprocess``) through
    ``scipy._cyutility``, but neither ``scipy.optimize`` nor scipy's
    special functions; a later ``import scipy.optimize`` gets the same
    function object.
    """
    spec = importlib.util.find_spec("scipy")
    locations = spec.submodule_search_locations if spec is not None else None
    if not locations:
        raise ImportError("TNC's C core needs scipy, which is not installed")
    name = "_moduleTNC" + sysconfig.get_config_var("EXT_SUFFIX")
    path = os.path.join(locations[0], "optimize", name)
    if not os.path.isfile(path):
        raise ImportError(f"TNC's C core is missing: no file {path}")
    file_spec = importlib.util.spec_from_file_location("scipy.optimize._moduleTNC", path)
    core = importlib.util.module_from_spec(file_spec)
    file_spec.loader.exec_module(core)
    return core.tnc_minimize


def _starts(config, stream, extra_starts=()):
    """The starts of one multi-start search, one 8-vector per row.

    The ``extra_starts`` come first, clipped to the box, then
    ``config.n_starts`` random starts with every coordinate uniform on
    [-box, box]: the first half (rounded up) on the real axis, and every
    odd-index one scaled by 1/4, since the interesting optima sit at
    small displacement amplitudes.  The random starts come from
    ``random.Random`` (MT19937) seeded with the Cantor pair
    k (k + 1) / 2 + stream, k = seed + stream, which is injective on
    non-negative integers: each (seed, stream) has its own stream, for
    any size of seed.
    """
    box = config.box_radius
    k = config.seed + stream
    rng = random.Random(k * (k + 1) // 2 + stream)
    n_real = (config.n_starts + 1) // 2
    starts = [np.clip(np.asarray(warm, dtype=float).reshape(8), -box, box) for warm in extra_starts]
    for i in range(config.n_starts):
        scale = 0.25 if i % 2 == 1 else 1.0
        x0 = [scale * rng.uniform(-box, box) for _ in range(8)]
        if i < n_real:
            x0[1::2] = [0.0] * 4
        starts.append(x0)
    return np.array(starts)


def value_and_gradient(lift, key, x):
    """(B, dB/dx) at the raw 8-vector x from an objective's lift and curve key.

    The scalar form of ``witness._bell``, which reads the fields at
    x / lift, so the gradient carries the frame factor 1/lift.  With
    h1 = d1 / 2 (exact), u_jk is the signed weight of exp(-Q_jk) in B,
    and d exp(-Q)/d(x / lift) = -exp(-Q) dQ.
    """
    cw, d1, c0, gm, gp, e1 = key
    h1, ew, m, f, g2 = 0.5 * d1, gm + gp, 2.0 * (gm - gp), 1.0 / lift, -1.0 / lift
    ew2, g1 = 2.0 * ew, -2.0 * e1 * f * h1
    a1r, a1i, a2r, a2i, b1r, b1i, b2r, b2i = x
    a1r, a1i, a2r, a2i = a1r * f, a1i * f, a2r * f, a2i * f
    b1r, b1i, b2r, b2i = b1r * f, b1i * f, b2r * f, b2i * f
    na1 = a1r * a1r + a1i * a1i
    na2 = a2r * a2r + a2i * a2i
    nb1 = b1r * b1r + b1i * b1i
    nb2 = b2r * b2r + b2i * b2i
    w11 = math.exp(-(ew * (na1 + nb1) + m * (a1r * b1r - a1i * b1i)))
    w12 = math.exp(-(ew * (na1 + nb2) + m * (a1r * b2r - a1i * b2i)))
    w21 = math.exp(-(ew * (na2 + nb1) + m * (a2r * b1r - a2i * b1i)))
    w22 = math.exp(-(ew * (na2 + nb2) + m * (a2r * b2r - a2i * b2i)))
    w1a = math.exp(-e1 * na1)
    w1b = math.exp(-e1 * nb1)
    value = cw * (w11 + w12 + w21 - w22) + h1 * (w1a + w1b) + c0
    if math.isnan(value):
        raise ValueError("witness value is NaN: the closed form overflows")
    g1a, g1b = g1 * w1a, g1 * w1b
    u11, u12, u21, u22 = cw * w11, cw * w12, cw * w21, -cw * w22
    wa1, wa2 = ew2 * (u11 + u12), ew2 * (u21 + u22)
    wb1, wb2 = ew2 * (u11 + u21), ew2 * (u12 + u22)
    return value, (
        g2 * (wa1 * a1r + m * (u11 * b1r + u12 * b2r)) + g1a * a1r,
        g2 * (wa1 * a1i - m * (u11 * b1i + u12 * b2i)) + g1a * a1i,
        g2 * (wa2 * a2r + m * (u21 * b1r + u22 * b2r)),
        g2 * (wa2 * a2i - m * (u21 * b1i + u22 * b2i)),
        g2 * (wb1 * b1r + m * (u11 * a1r + u21 * a2r)) + g1b * b1r,
        g2 * (wb1 * b1i - m * (u11 * a1i + u21 * a2i)) + g1b * b1i,
        g2 * (wb2 * b2r + m * (u12 * a1r + u22 * a2r)),
        g2 * (wb2 * b2i - m * (u12 * a1i + u22 * a2i)),
    )


def curve_key(xi, s_prime, lift, transmission, clamp_mode):
    """(lift, key) of one cell on Python floats: the reference for ``witness._curve_keys``.

    The scalar key body the objective builder ran before the keys were
    formed as arrays, kept as it was: every step is a Python float
    operation, and (1 - s)^4 is Python's ``**``, which calls C ``pow``.
    Constants that overflow or underflow raise ``ValueError``.
    """
    pi = math.pi

    def coefficients(s):
        one_minus = 1.0 - s
        return pi * pi * one_minus**4 / 4.0, pi * s * one_minus * one_minus, 2.0 * s * s

    s, weight = s_prime, 1.0
    if s_prime >= -1.0:
        c2, c1, c0 = coefficients(s_prime)
    elif clamp_mode == "bounded_continuation":
        one_minus = 1.0 - s_prime
        c2, c1, c0 = pi * pi * one_minus * one_minus, -2.0 * pi * one_minus, 2.0
    else:
        c2, c1, c0 = coefficients(-1.0)
        if clamp_mode == "loss_channel":
            g = transmission
            s, lift, weight = 1.0 - 2.0 / g, math.sqrt(g), 1.0 / g
    q = math.exp(-2.0 * xi)
    gm, gp, e1 = 1.0 / (q - s), q / (1.0 - s * q), 4.0 * q / (1.0 + q * (q - 2.0 * s))
    cw, h1 = c2 * ((gm * weight) * (gp * weight)) * (4.0 / (pi * pi)), c1 * e1 / pi * weight
    key = (cw, 2.0 * h1, c0, gm, gp, e1)
    if not (all(map(math.isfinite, key)) and min(cw, gm, gp, e1) >= sys.float_info.min):
        raise ValueError(f"the witness at xi = {xi}, s' = {s_prime} overflows or underflows")
    return lift, key


def tnc_maximize(objective, config, stream=0, extra_starts=()):
    """Best witness report over multi-start bounded truncated-Newton ascent.

    ``objective()`` must give (lift, s', curve key) and
    ``objective(settings)`` a ``WitnessReport``; every evaluation of the
    search is one ``value_and_gradient`` call on that lift and key.
    ``config`` is a ``search.SearchConfig`` (n_starts, box_radius, ftol,
    xtol, seed).  Each start runs TNC (Nash, SIAM J. Numer. Anal. 21, 770
    (1984)) on -|B| inside the box, with ``config.ftol``/``config.xtol``
    as its tolerances, through scipy's C core (``_tnc_minimize``) with
    the arguments ``minimize(method="TNC")`` passes for these options:
    scipy's ``minimize`` layers (``MemoizeJac``, ``ScalarFunction`` and
    their array copies and checks) cost several times the witness itself
    per evaluation.

    Within a start the callback answers a repeat of exactly the last
    point it evaluated from a cache, without calling the objective or
    counting, as scipy's public route does, and the re-evaluation at
    TNC's returned x goes through the same cache.  It hands TNC -|B| and
    its gradient as plain floats, negated only where B >= 0, which is
    exact.

    Deterministic given (config.seed, stream, extra_starts): the starts
    are ``_starts``', with ``extra_starts`` (warm starts) first.  Starts
    that TNC does not report as converged are counted in the result's
    meta (n_evals, n_starts, unconverged_starts, stream, grad_norm),
    never raised; the best point found is always returned, higher |B|
    first and exact ties to the smaller settings vector, with its
    projected-gradient max-norm as ``grad_norm``.
    """
    tnc_minimize = _tnc_minimize()
    lift, _, constants = objective()
    box = config.box_radius
    lo, hi = np.full(8, -box), np.full(8, box)
    n_evals = 0
    last_xl = last_fg = None

    def neg_abs(x):
        nonlocal n_evals, last_xl, last_fg
        xl = x.tolist()
        if xl == last_xl:
            return last_fg
        n_evals += 1
        value, grad = value_and_gradient(lift, constants, xl)
        if value >= 0.0:
            value, grad = -value, [-g for g in grad]
        last_xl, last_fg = xl, (value, grad)
        return last_fg

    best_key = None
    best = None
    unconverged = 0
    for x0 in _starts(config, stream, extra_starts):
        last_xl = None
        # No scale/offset, no messages, default CG, eta, step, accuracy,
        # fmin, pgtol and rescale, and no callback.
        rc, _, _, x, _, _ = tnc_minimize(
            neg_abs, x0, lo, hi, _EMPTY, _EMPTY, 0, -1, MAX_EVALS_PER_START,
            -1, 0, 0, 0, config.ftol, config.xtol, -1, -1, None,
        )
        # TNC's x, f and g may be slightly out of step; re-read them at x.
        fun, jac = neg_abs(x)
        if not -1 < rc < 3:
            unconverged += 1
        key = (-float(fun), tuple(float(v) for v in x))
        if best_key is None or key[0] > best_key[0] or (
            key[0] == best_key[0] and key[1] < best_key[1]
        ):
            best_key = key
            best = (x, jac)
    x, jac = best
    # The max-norm of the projected gradient of -|B| on the box, as L-BFGS-B.
    grad_norm = float(np.max(np.abs(x - np.clip(x - np.array(jac), -box, box))))
    report = objective(BellSettings.from_vector(x))
    meta = {
        "n_evals": n_evals,
        "n_starts": config.n_starts,
        "unconverged_starts": unconverged,
        "stream": int(stream),
        "grad_norm": grad_norm,
    }
    return replace(report, meta=meta)


def family_terms(constants, sigma):
    """``_family``'s key columns on the family b = sigma a, sigma = +-1.

    The curve key (cw, d1, c0, 1/v-, 1/v+, e1) gives the b = a family.
    b = -a turns |a + b*|^2 into |a - b*|^2 and back, so it swaps 1/v-
    and 1/v+.
    """
    cw, d1, c0, gm, gp, e1 = constants
    return (cw, d1, c0, gm, gp, e1) if sigma > 0.0 else (cw, d1, c0, gp, gm, e1)


@np.errstate(all="ignore")
def curve_solve_52(keys):
    """The curve solve over both families b = +-a and both signs of B.

    Every row (key, sigma, sign of B, seed) ascends f = sign B on the
    family b = sigma a (``family_terms``) from the 13 seeds by the
    package's regularized Newton step, with the 2 x 2 Hessian and the
    step carried through the sign, each system divided by its shift
    first, for the same fixed number of iterations.  Gives the point of
    largest |B| per key, the first of equal ones in (sigma, sign, seed)
    order, as its 8-vector a = (x, y), b = sigma a, an (n, 8) array.  The
    package's solve runs the sigma = +1, sign +1 entries alone, which come
    first, so the two agree bit for bit wherever none of the other 39
    entries beats them.
    """
    keys = np.asarray(keys, dtype=float)
    n = len(keys)
    shape = (n, 2, 2, len(_CURVE_SEEDS))
    constants = keys.T.reshape(-1, n, 1, 1, 1)
    families = zip(family_terms(constants, 1.0), family_terms(constants, -1.0))
    terms = [np.concatenate(t, axis=1) for t in families]
    sigma = np.array([1.0, -1.0]).reshape(1, 2, 1, 1)
    sign = np.broadcast_to(np.array([1.0, -1.0]).reshape(1, 1, 2, 1), shape)
    scale = np.minimum(1.0, _key_scales(keys)[0]).reshape(n, 1, 1, 1)
    x = np.broadcast_to(scale * _CURVE_SEEDS[:, 0], shape)
    y = np.broadcast_to(scale * _CURVE_SEEDS[:, 1], shape)
    state = _family(terms, x, y)
    for _ in range(_CURVE_ITERATIONS):
        value, gx, gy, hxx, hxy, hyy = state
        kxx, kxy, kyy = sign * hxx, sign * hxy, sign * hyy
        shift = np.maximum(_top_eigenvalue(kxx, kxy, kyy), 0.0) + np.sqrt(gx * gx + gy * gy)
        axx, ayy = (shift - kxx) / shift, (shift - kyy) / shift
        kxy, gx, gy = kxy / shift, gx / shift, gy / shift
        det = axx * ayy - kxy * kxy
        tx = x + sign * (ayy * gx + kxy * gy) / det
        ty = y + sign * (axx * gy + kxy * gx) / det
        trial = _family(terms, tx, ty)
        keep = sign * trial[0] >= sign * value - 1e-14
        x, y = np.where(keep, tx, x), np.where(keep, ty, y)
        state = [np.where(keep, t, c) for t, c in zip(trial, state)]
    best = np.abs(state[0]).reshape(n, -1).argmax(axis=1)
    rows = np.arange(n)
    x, y, sigma = (c.reshape(n, -1)[rows, best] for c in (x, y, np.broadcast_to(sigma, shape)))
    zero = np.zeros_like(x)
    return np.stack([x, zero, y, zero, sigma * x, zero, sigma * y, zero], axis=1)


def _gaussian_forms() -> tuple[np.ndarray, np.ndarray]:
    """Forms D, S of B's six Gaussian exponents q = x (s_D D + s_S S) x / 2.

    Terms in the order W(a1,b1), W(a1,b2), W(a2,b1), W(a2,b2), W1(a1),
    W1(b1), over the raw 8-vector order of ``BellSettings.to_vector``.
    D holds each term's |.|^2 parts (s_D = 1/v- + 1/v+ for a pair, e1 for
    a single mode) and S the pair's a_re b_re - a_im b_im part
    (s_S = 2 (1/v- - 1/v+)), from |a +- b*|^2 = |a|^2 + |b|^2 +- 2 Re(a b).
    """
    d, s = np.zeros((6, 8, 8)), np.zeros((6, 8, 8))
    for t, modes in enumerate([(0, 2), (0, 3), (1, 2), (1, 3), (0,), (2,)]):
        for m in modes:
            d[t, 2 * m, 2 * m] = d[t, 2 * m + 1, 2 * m + 1] = 2.0
        if len(modes) == 2:
            a, b = 2 * modes[0], 2 * modes[1]
            s[t, a, b] = s[t, b, a] = 1.0
            s[t, a + 1, b + 1] = s[t, b + 1, a + 1] = -1.0
    return d, s


_FORM_D, _FORM_S = _gaussian_forms()


@np.errstate(all="ignore")
def tmsv_derivatives(constants, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B, its gradient and its 8 x 8 Hessian at 8-vectors, one row per curve key.

    ``constants`` is the (n, 6) array of curve keys (cw, d1, c0, 1/v-,
    1/v+, e1) and ``points`` the (n, 8) settings in the frame the fields
    are read in (raw settings divided by the lift), ordered as
    ``BellSettings.to_vector``.  B is c0 plus six Gaussian terms
    T = k exp(-q), q a quadratic form of the settings, each adding
    -T grad q to the gradient and T (grad q grad q^T - hess q) to the
    Hessian.  Overflowing constants give non-finite rows silently.
    Gives (n,), (n, 8), (n, 8, 8) arrays.
    """
    cw, d1, c0, gm, gp, e1 = np.asarray(constants, dtype=float).reshape(-1, 6).T
    x = np.asarray(points, dtype=float).reshape(-1, 8)
    ew, m, zero = gm + gp, 2.0 * (gm - gp), np.zeros_like(cw)
    d_scale = np.stack([ew, ew, ew, ew, e1, e1], axis=1)
    s_scale = np.stack([m, m, m, m, zero, zero], axis=1)
    forms = d_scale[:, :, None, None] * _FORM_D + s_scale[:, :, None, None] * _FORM_S
    grad_q = np.einsum("ntij,nj->nti", forms, x)
    q = 0.5 * np.einsum("nti,ni->nt", grad_q, x)
    terms = np.stack([cw, cw, cw, -cw, 0.5 * d1, 0.5 * d1], axis=1) * np.exp(-q)
    grad = -np.einsum("nt,nti->ni", terms, grad_q)
    hess = np.einsum("nt,nti,ntj->nij", terms, grad_q, grad_q)
    hess -= np.einsum("nt,ntij->nij", terms, forms)
    return terms.sum(axis=1) + c0, grad, hess


#: Signs that turn each setting's (im, re) pair into its gauge tangent.
_GAUGE_SIGNS = np.array([[-1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, -1.0]])


@np.errstate(all="ignore")
def certificates(keys, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, grad_norm, hess_max) per row of curve constants at its 8-vector.

    ``points`` are in the frame of the constants ``keys``; one
    ``tmsv_derivatives`` call gives B, its gradient and its Hessian for
    all rows, and no objective is called.  ``grad_norm`` is the
    gradient's max-norm and ``hess_max`` the largest eigenvalue of the
    Hessian of |B| off the gauge direction a -> a e^{i phi},
    b -> b e^{-i phi}, along which B is constant (one Householder
    reflection per row and one batched ``eigvalsh``), each in its
    ``_key_scales`` unit, so that neither changes with the scale of the
    constants.  A row whose Hessian is not finite gets a NaN ``hess_max``.
    """
    points = np.array(points, dtype=float).reshape(-1, 8)
    _, grad_unit, hess_unit, _ = _key_scales(keys)
    value, grad, hess = tmsv_derivatives(keys, points)
    grad_norms = np.abs(grad).max(axis=1) / grad_unit
    hess *= np.where(value >= 0.0, 1.0, -1.0)[:, None, None]
    # d/dphi of the settings per (re, im) pair: (-im, re) on mode A and
    # (im, -re) on mode B.  A Householder reflection maps it onto the
    # first axis, and the other seven axes span its complement.  Scaling
    # by the largest entry first keeps a point next to the origin from
    # underflowing the norm.  A point at the origin has no gauge
    # direction; its reflection is the identity, and dropping the first
    # axis leaves its largest eigenvalue unchanged, as the Hessian there
    # commutes with the gauge and so has even-dimensional eigenspaces.
    gauge = (points.reshape(-1, 4, 2)[:, :, ::-1] * _GAUGE_SIGNS).reshape(-1, 8)
    scale = np.abs(gauge).max(axis=1, keepdims=True)
    u = np.divide(gauge, scale, out=np.zeros_like(gauge), where=scale > 0.0)
    u[:, 0] += np.copysign(np.linalg.norm(u, axis=1), u[:, 0])
    uu = np.einsum("ni,ni->n", u, u)
    uu[uu == 0.0] = 1.0
    reflect = np.eye(8) - 2.0 * u[:, :, None] * u[:, None, :] / uu[:, None, None]
    hess = (reflect @ hess @ reflect)[:, 1:, 1:]
    finite = np.isfinite(hess).all(axis=(1, 2))
    hess[~finite] = 0.0
    hess_max = np.where(finite, np.linalg.eigvalsh(hess)[:, -1], np.nan) / hess_unit
    return value, grad_norms, hess_max


def mp_hess_max(xi, s, point, digits=80):
    """``hess_max`` of the noise-free witness at order s, from 80-digit differences.

    B is the textbook sum c2 (W2(a1,b1) + W2(a1,b2) + W2(a2,b1) -
    W2(a2,b2)) + c1 (W1(a1) + W1(b1)) + c0 over the closed forms of
    ``states.TmsvSpec.gaussian``, with the unclamped coefficients at s in
    [-1, 0], each constant formed from xi and s at ``digits`` digits.  Its
    8 x 8 Hessian at the raw 8-vector ``point`` comes from central
    differences with a step 1e-20 times the peak length
    1/sqrt(e2 width).  The Hessian of |B| is projected off the gauge
    tangent a -> a e^{i phi}, b -> b e^{-i phi} and pushed far down along
    it, so its largest eigenvalue is the largest off the gauge direction;
    it is returned in units of |c2 k2| e1, as a float.  ``point`` must not
    be the origin, which has no gauge direction.
    """
    mp = mpmath.mp.clone()
    mp.dps = digits
    xi, s = mp.mpf(xi), mp.mpf(s)
    ch, sh2 = mp.cosh(2 * xi), 2 * mp.sinh(2 * xi)
    width, det = ch - s, s * s - 2 * s * ch + 1
    k2, e2, k1, e1 = 4 / (mp.pi**2 * det), 2 / det, 2 / (mp.pi * width), 2 / width
    c2, c1, c0 = mp.pi**2 * (1 - s) ** 4 / 4, mp.pi * s * (1 - s) ** 2, 2 * s * s

    def w2(ar, ai, br, bi):
        quad = width * (ar * ar + ai * ai + br * br + bi * bi) + sh2 * (ar * br - ai * bi)
        return k2 * mp.exp(-e2 * quad)

    def bell(p):
        a1, a2, b1, b2 = p[0:2], p[2:4], p[4:6], p[6:8]
        corr = w2(*a1, *b1) + w2(*a1, *b2) + w2(*a2, *b1) - w2(*a2, *b2)
        singles = mp.exp(-e1 * (a1[0] ** 2 + a1[1] ** 2)) + mp.exp(-e1 * (b1[0] ** 2 + b1[1] ** 2))
        return c2 * corr + c1 * k1 * singles + c0

    x = [mp.mpf(float(v)) for v in point]
    h = mp.mpf(10) ** -20 / mp.sqrt(e2 * width)

    def moved(i, di, j, dj):
        p = list(x)
        p[i] += di
        p[j] += dj
        return bell(p)

    hess = mp.matrix(8, 8)
    for i, j in itertools.combinations_with_replacement(range(8), 2):
        diff = moved(i, h, j, h) - moved(i, h, j, -h) - moved(i, -h, j, h) + moved(i, -h, j, -h)
        hess[i, j] = hess[j, i] = diff / (4 * h * h)
    if bell(x) < 0:
        hess = -hess
    gauge = mp.matrix([-x[1], x[0], -x[3], x[2], x[5], -x[4], x[7], -x[6]])
    along = gauge * gauge.T / mp.fsum(g * g for g in gauge)
    off = mp.eye(8) - along
    eigenvalues, _ = mp.eigsy(off * hess * off - 2 * (1 + mp.mnorm(hess, 1)) * along)
    return float(max(eigenvalues) / (abs(c2 * k2) * e1))
