"""Independent reference computations used to pin expected test values.

Everything here is built from first principles in the Fock basis: exact
displacement matrix elements, Schmidt-form two-mode squeezed vacuum
amplitudes, a Heisenberg-picture loss channel, and Bell values as plain
sums of operator expectation values.  The reference maximizer runs the
multi-start TNC search through scipy's public ``minimize`` route, from
the starts of the package's own ``search._starts``: the starts are a
draw, not a computation to check.  Nothing else imports the package
internals, so agreement with the package is evidence, not tautology.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.optimize import Bounds, minimize

from phasewitness.search import _starts

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


def scipy_tnc_maximize(objective, config, maxfun, stream=0, extra_starts=()):
    """Multi-start TNC ascent on |B| through ``scipy.optimize.minimize``.

    The package's starts (``search._starts``) and the same -|B|
    objective and tie rule as its search, with scipy's own wrappers
    caching and counting the evaluations.
    ``objective(x, grad=True)`` gives (B, dB/dx) at a raw 8-vector and
    ``config`` carries n_starts, box_radius, ftol, xtol and seed.
    Returns the best 8-vector and the search meta (n_evals, n_starts,
    unconverged_starts, stream, grad_norm).
    """
    box = config.box_radius
    lo, hi = np.full(8, -box), np.full(8, box)
    n_evals = 0

    def neg_abs(x):
        nonlocal n_evals
        n_evals += 1
        value, grad = objective(x.tolist(), grad=True)
        sign = -1.0 if value >= 0.0 else 1.0
        return sign * value, sign * np.array(grad)

    best_key = None
    best = None
    unconverged = 0
    for x0 in _starts(config, stream, extra_starts):
        res = minimize(
            neg_abs,
            x0,
            method="TNC",
            jac=True,
            bounds=Bounds(lo, hi),
            options={"maxfun": maxfun, "ftol": config.ftol, "xtol": config.xtol},
        )
        if not res.success:
            unconverged += 1
        key = (-float(res.fun), tuple(float(v) for v in res.x))
        # Higher |B| wins; exact ties go to the smaller settings vector.
        if best_key is None or key[0] > best_key[0] or (
            key[0] == best_key[0] and key[1] < best_key[1]
        ):
            best_key = key
            best = res
    grad_norm = float(np.max(np.abs(best.x - np.clip(best.x - best.jac, lo, hi))))
    meta = {
        "n_evals": n_evals,
        "n_starts": config.n_starts,
        "unconverged_starts": unconverged,
        "stream": int(stream),
        "grad_norm": grad_norm,
    }
    return best.x, meta
