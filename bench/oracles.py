"""Reference computations the benchmark checks the program against.

Everything here is written from the definitions, independently of the
package's own routines:

* moments ``<a^dag^k a^l>`` as traces with dense powers of the ladder matrix;
* displacement matrix elements from the closed form
  ``<m|D(beta)|n> = sqrt(n!/m!) beta^(m-n) e^(-|beta|^2/2) L_n^(m-n)(|beta|^2)``;
* the Husimi function from coherent-state overlaps;
* quadrature and photon-number moments written out in ``<a^dag^k a^l>``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

# Relative tolerances, each measured against max(1, Cauchy-Schwarz scale).
TABLE_RTOL = 1e-9       # dense powers vs ladder products: same truncated state
ANALYTIC_RTOL = 1e-6    # truncated ASS state vs truncation-free closed form
ROUND_TRIP_RTOL = 1e-8  # noise-free measurement record -> recovered moments
BOCHNER_RTOL = 1e-7     # closed-form D(beta) vs truncated dense exponential
CLASSICAL_FLOOR = 1e-9  # Bochner determinants of classical states stay above -this
Q_ATOL = 1e-10


def density(state) -> np.ndarray:
    """Density matrix of a package state (pure or mixed)."""
    if hasattr(state, "amplitudes"):
        psi = np.asarray(state.amplitudes)
        return np.outer(psi, psi.conj())
    return np.asarray(state.matrix)


def dense_moments(state, order: int) -> np.ndarray:
    """``M[k, l] = Tr(rho a^dag^k a^l)`` from dense matrix powers of ``a``."""
    rho = density(state)
    dim = rho.shape[0]
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    powers = [np.eye(dim, dtype=complex)]
    for _ in range(order):
        powers.append(powers[-1] @ a)
    # Tr(rho A_k^H A_l) = sum_ij conj(A_k)_ij (A_l rho)_ij
    left = np.array(powers).reshape(order + 1, -1).conj()
    right = np.array([p @ rho for p in powers]).reshape(order + 1, -1)
    return left @ right.T


def scale(ref: np.ndarray) -> np.ndarray:
    """Cauchy-Schwarz bound ``sqrt(<n_k> <n_l>)`` on ``|<a^dag^k a^l>|``, floored at 1."""
    diag = np.abs(np.diag(ref))
    return np.maximum(1.0, np.sqrt(np.outer(diag, diag)))


def table_error(values: np.ndarray, ref: np.ndarray, mask=None) -> float:
    """Largest entry error of a moment table relative to ``scale(ref)``."""
    err = np.abs(np.asarray(values) - ref) / scale(ref)
    if mask is not None:
        err = err[mask]
    return float(np.max(err))


def displacement_elements(beta: complex, dim: int) -> np.ndarray:
    """Matrix of ``<m|D(beta)|n>`` for ``m, n < dim`` from the Laguerre form."""
    from scipy.special import eval_genlaguerre, gammaln

    if beta == 0:
        return np.eye(dim, dtype=complex)
    x = abs(beta) ** 2
    m = np.arange(dim)[:, None]
    n = np.arange(dim)[None, :]
    lo = np.minimum(m, n)
    hi = np.maximum(m, n)
    gap = hi - lo
    log_mag = 0.5 * (gammaln(lo + 1) - gammaln(hi + 1)) + gap * math.log(abs(beta)) - x / 2
    lag = eval_genlaguerre(lo, gap, x)
    # beta^(m-n) below the diagonal, (-conj(beta))^(n-m) above it
    phase = np.where(m >= n, np.exp(1j * gap * np.angle(beta)),
                     np.exp(1j * gap * np.angle(-np.conj(beta))))
    return np.exp(log_mag) * lag * phase


def char_function(state, beta: complex) -> complex:
    """``e^{|beta|^2/2} Tr(rho D(beta))`` with closed-form ``D``."""
    rho = density(state)
    disp = displacement_elements(complex(beta), rho.shape[0])
    return math.exp(abs(beta) ** 2 / 2) * complex(np.sum(rho * disp.T))


def bochner_det(state, points) -> float:
    """Determinant of ``[Phi(beta_i - beta_j)]`` with closed-form ``Phi``."""
    pts = [complex(p) for p in points]
    k = len(pts)
    mat = np.eye(k, dtype=complex)
    for i in range(k):
        for j in range(i + 1, k):
            mat[i, j] = char_function(state, pts[i] - pts[j])
            mat[j, i] = np.conj(mat[i, j])
    return float(np.linalg.det(mat).real)


def husimi(state, grid: np.ndarray) -> np.ndarray:
    """``Q(alpha) = <alpha|rho|alpha> / pi`` with truncated coherent vectors."""
    from scipy.special import gammaln

    rho = density(state)
    dim = rho.shape[0]
    pts = np.asarray(grid, dtype=complex).reshape(-1)
    n = np.arange(dim)
    logfact = gammaln(n + 1)
    mag = np.abs(pts)[:, None]
    log_amp = n * np.log(np.where(mag > 0, mag, 1.0)) - 0.5 * logfact - 0.5 * mag**2
    coh = np.exp(log_amp) * np.exp(1j * n * np.angle(pts)[:, None])
    coh[(mag[:, 0] == 0)[:, None] & (n > 0)] = 0.0
    q = np.einsum("pm,mn,pn->p", coh.conj(), rho, coh).real / math.pi
    return q.reshape(np.shape(grid))


def quadrature_moments(ref: np.ndarray, theta: float) -> dict[str, float]:
    """Normally ordered moments of ``x_theta``, ``p_theta`` and ``n``.

    ``x = u + u^dag`` and ``p = i(u^dag - u)`` with ``u = a e^{-i theta}``.
    """
    e = np.exp(-1j * theta)
    a1, a2 = ref[0, 1] * e, ref[0, 2] * e**2
    n = ref[1, 1].real
    a_dag_a2 = ref[1, 2] * e  # <a^dag u^2> carries e^{-2i theta} e^{+i theta}
    return {
        "n": n,
        "x": 2 * a1.real,
        "p": 2 * a1.imag,
        "xx": 2 * a2.real + 2 * n,
        "pp": -2 * a2.real + 2 * n,
        "xp": 2 * a2.imag,
        "nn": ref[2, 2].real,
        "nx": 2 * a_dag_a2.real,
    }


def state_from_spec(spec: dict) -> SimpleNamespace:
    """A state spec as used on the command line, built from its definition."""
    from scipy.linalg import expm
    from scipy.special import gammaln

    dim = spec.get("dim", 64)
    n = np.arange(dim)
    kind = spec["type"]
    if kind == "thermal":
        nbar = spec["nbar"]
        probs = (nbar / (1 + nbar)) ** n
        return SimpleNamespace(matrix=np.diag(probs / probs.sum()).astype(complex))
    if kind == "fock":
        psi = (n == spec["n"]).astype(complex)
    elif kind == "coherent":
        alpha = complex(*spec["alpha"]) if isinstance(spec["alpha"], list) else spec["alpha"]
        with np.errstate(divide="ignore"):
            log_mag = n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1)
        psi = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha)) if alpha else (n == 0) * 1.0
    elif kind == "squeezed_vacuum":
        z = complex(*spec["z"])
        a = np.diag(np.sqrt(n[1:].astype(float)), k=1)
        psi = expm(0.5 * (np.conj(z) * a @ a - z * a.T @ a.T))[:, 0]
    else:
        raise ValueError(kind)
    psi = np.asarray(psi, dtype=complex)
    return SimpleNamespace(amplitudes=psi / np.linalg.norm(psi))


def scheme_a_coincidence(ref: np.ndarray, n: int, phi: float, alpha: complex,
                         depth: int, t0: float = math.sqrt(0.5)) -> float:
    """Sum of all n-detector coincidences behind a depth-``depth`` splitter tree.

    Every detector sees ``b = (t0 a + r0 alpha e^{i phi}) / sqrt(2^depth)`` with
    ``r0 = -i sqrt(1 - t0^2)``, so the sum is ``C(2^d, n) <b^dag^n b^n>``,
    expanded binomially in ``a``.
    """
    c = -1j * math.sqrt(1 - t0**2) * alpha * np.exp(1j * phi)
    coeff = np.array([math.comb(n, l) * t0**l * c ** (n - l) for l in range(n + 1)])
    value = coeff.conj() @ ref[: n + 1, : n + 1] @ coeff
    return float((math.comb(2**depth, n) / 2.0 ** (n * depth) * value).real)
