"""Shared fixtures-by-hand: random states and brute-force moment oracles."""

import math

import numpy as np

from nclmoments import DensityState, FockState, MonomialBasis, build_matrix
from nclmoments.operators import create, destroy

Array = np.ndarray


def random_pure_state(dim: int, seed: int) -> FockState:
    """Random normalized ket with an exponentially decaying envelope.

    The decay keeps high-order moments finite-dimension friendly so that
    dim-32 truncation artifacts stay far below the test tolerances.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    raw *= np.exp(-0.35 * np.arange(dim))
    return FockState(raw / np.linalg.norm(raw))


def random_density_state(dim: int, seed: int, rank: int = 3) -> DensityState:
    """Random low-rank mixed state built from decaying random kets."""
    rng = np.random.default_rng(seed)
    weights = rng.random(rank)
    weights /= weights.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for i, w in enumerate(weights):
        ket = random_pure_state(dim, seed * 101 + 7 * i + 1).amplitudes
        rho += w * np.outer(ket, ket.conj())
    rho = 0.5 * (rho + rho.conj().T)
    return DensityState(rho / np.trace(rho).real)


def dense_moment(state, k: int, l: int) -> complex:
    """<a^dag^k a^l> by explicit dense matrix products (oracle)."""
    if isinstance(state, FockState):
        dim = state.dim
        a = destroy(dim)
        left = np.linalg.matrix_power(a, k) @ state.amplitudes
        right = np.linalg.matrix_power(a, l) @ state.amplitudes
        return complex(np.vdot(left, right))
    dim = state.dim
    op = np.linalg.matrix_power(create(dim), k) @ np.linalg.matrix_power(
        destroy(dim), l
    )
    return complex(np.trace(state.matrix @ op))


def normal_moments(source, kind, size: int = 6, phi: float = 0.0) -> dict:
    """``{pair: <:f:>}`` over the first ``size`` graded monomials of ``kind``.

    Row 0 of the library's moment matrix: ``M[0, j] = <:1 f_j:>``, since
    the graded basis starts with ``1``.  For ``quad`` the first six pairs
    are ``1, x, p, x^2, x p, p^2``; for ``xn`` ``1, x, n, x^2, n x, n^2``.
    """
    matrix = build_matrix(source, MonomialBasis.graded(kind, size), phi)
    return dict(zip(matrix.basis.pairs, matrix.values[0]))


def quad_expectation(table, x_pow: int, p_pow: int, phi: float = 0.0) -> complex:
    """``<:x_phi^x_pow p_phi^p_pow:>`` as a binomial sum over table entries.

    With ``x = a e^{-i phi} + a^dag e^{i phi}`` and
    ``p = i a^dag e^{i phi} - i a e^{-i phi}``, the term with ``i`` creators
    from ``x`` and ``j`` from ``p`` reads ``<a^dag^{i+j} a^{x_pow+p_pow-i-j}>``.
    """
    total = 0j
    for i in range(x_pow + 1):
        for j in range(p_pow + 1):
            k, l = i + j, x_pow + p_pow - i - j
            coeff = math.comb(x_pow, i) * math.comb(p_pow, j) * 1j**j * (-1j) ** (p_pow - j)
            total += coeff * np.exp(1j * phi * (k - l)) * table.values[k, l]
    return total


def xn_expectation(table, x_pow: int, n_pow: int, phi: float = 0.0) -> complex:
    """``<:x_phi^x_pow n^n_pow:>`` as a binomial sum over table entries."""
    total = 0j
    for i in range(x_pow + 1):
        k, l = i + n_pow, x_pow - i + n_pow
        total += math.comb(x_pow, i) * np.exp(1j * phi * (2 * i - x_pow)) * table.values[k, l]
    return total


def long_hand_matrix(table, basis, phi: float) -> Array:
    """``<:f_i^dag w f_j:>`` entry by entry from the binomial sums above.

    An oracle for ``build_matrix`` that shares none of its code: ``aa``
    entries are ``<a^dag^{q_i + p_j} a^{p_i + q_j}>``; a ``quad`` entry is
    ``<:x^{q_i + q_j} p^{p_i + p_j}:>``, an ``xn`` entry
    ``<:x^{q_i + q_j} n^{p_i + p_j}:>``, and a ``d2`` entry
    ``4 <:x^kappa n^{sigma+1}:> - <:x^{kappa+2} n^sigma:>``.
    """
    n = basis.size
    vals = np.zeros((n, n), dtype=complex)
    kind = basis.kind.value
    for i, (pi, qi) in enumerate(basis.pairs):
        for j, (pj, qj) in enumerate(basis.pairs):
            kappa, sigma = qi + qj, pi + pj
            if kind == "aa":
                vals[i, j] = table.values[qi + pj, pi + qj]
            elif kind == "quad":
                vals[i, j] = quad_expectation(table, kappa, sigma, phi)
            elif kind == "xn":
                vals[i, j] = xn_expectation(table, kappa, sigma, phi)
            else:
                vals[i, j] = 4.0 * xn_expectation(
                    table, kappa, sigma + 1, phi
                ) - xn_expectation(table, kappa + 2, sigma, phi)
    return vals
