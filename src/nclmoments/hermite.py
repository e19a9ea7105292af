"""Closed-form moments of amplitude-squared squeezed states.

The states built by :func:`nclmoments.states.make_ass_state` have the form
``U H_m(i gamma a^dag)|0>`` (normalized), where ``U`` squeezes with
Bogoliubov coefficients ``U^dag a U = mu a + nu a^dag``.  Their normally
ordered moments admit an exact expression through a four-variable Hermite
polynomial of a quadratic form: with

    F(x, y, u, v) = <0| e^{-x^2 - 2 i conj(gamma) x a}
                       U^dag e^{u a^dag} e^{v a} U
                       e^{-y^2 + 2 i gamma y a^dag} |0>
                  = exp(-(1/2) w^T A w),      w = (x, y, u, v),

every moment is a coefficient of the Taylor expansion of F around 0:

    <a^dag^k a^l>  =  |c_m|^2 * H_{m m k l}(0),

where ``H_beta(0)`` obeys the standard Hermite recursion of the coupling
matrix ``A`` and ``|c_m|^2`` is the seed normalization.  This module
evaluates that recursion with memoization; it never touches a truncated
Fock basis, which makes it an independent cross-check on the numerical
state constructors and on :func:`nclmoments.moments.ass_moment_tables`, the
exact stacked table that ``sweep`` reads.  Nothing in the package routes its
results through this module, so it stays an independent oracle.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, _check_count
from .states import AssParams, ass_params


def _coupling_matrix(gamma: complex, mu: complex, nu: complex) -> np.ndarray:
    """The symmetric quadratic-form matrix of the generating function."""
    g = complex(gamma)
    gc = np.conj(g)
    nc = np.conj(nu)
    return np.array(
        [
            [2.0, -4.0 * abs(g) ** 2, -2j * nc * g, -2j * mu * g],
            [-4.0 * abs(g) ** 2, 2.0, 2j * mu * gc, 2j * nu * gc],
            [-2j * nc * g, 2j * mu * gc, -mu * nc, -abs(nu) ** 2],
            [-2j * mu * g, 2j * nu * gc, -abs(nu) ** 2, -mu * nu],
        ],
        dtype=complex,
    )


@dataclass
class HermiteOracle:
    """Memoized four-index Hermite recursion for one parameter set.

    ``value(i, j, k, l)`` returns ``H_{i j k l}(0)`` for the coupling matrix
    ``A``: ``H_0 = 1`` and, lowering the first positive index,

        H_{beta + e_i}(0) = - sum_j A[i, j] * beta_j * H_{beta - e_j}(0),

    with any negative index giving 0.  Odd total degree always yields 0.
    """

    coupling: np.ndarray
    _memo: dict[tuple[int, int, int, int], complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        mat = np.array(self.coupling, dtype=complex)
        if mat.shape != (4, 4):
            raise ValidationError("coupling matrix must be 4x4")
        if not np.allclose(mat, mat.T):
            raise ValidationError("coupling matrix must be symmetric")
        self.coupling = mat
        self._memo[(0, 0, 0, 0)] = 1.0 + 0.0j

    @classmethod
    def for_ass(cls, params: AssParams) -> HermiteOracle:
        return cls(_coupling_matrix(params.gamma, params.mu, params.nu))

    def value(self, i: int, j: int, k: int, l: int) -> complex:
        beta = (i, j, k, l)
        if min(beta) < 0:
            return 0.0 + 0.0j
        cached = self._memo.get(beta)
        if cached is not None:
            return cached
        # Lower along the first positive index.
        axis = next(ax for ax in range(4) if beta[ax] > 0)
        base = list(beta)
        base[axis] -= 1
        total = 0.0 + 0.0j
        for other in range(4):
            if base[other] == 0:
                continue
            reduced = list(base)
            reduced[other] -= 1
            total -= self.coupling[axis, other] * base[other] * self.value(*reduced)
        self._memo[beta] = total
        return total


# Least recently used last; at most _ORACLE_CACHE_SIZE parameter sets are kept.
_ORACLE_CACHE: OrderedDict[AssParams, HermiteOracle] = OrderedDict()
_ORACLE_CACHE_SIZE = 32


def ass_moment_analytic(params: AssParams, k: int, l: int) -> complex:
    """Exact ``<a^dag^k a^l>`` of the amplitude-squared squeezed state.

    Evaluates ``|c_m|^2 * H_{m m k l}(0)`` through the memoized recursion;
    oracles of the most recently used parameter sets are cached, so sweeps
    over ``(k, l)`` reuse all intermediate polynomial values.
    """
    _check_count(k, "a moment order")
    _check_count(l, "a moment order")
    return params.c_m_sq * _oracle_for(params).value(params.m, params.m, k, l)


def _oracle_for(params: AssParams) -> HermiteOracle:
    oracle = _ORACLE_CACHE.get(params)
    if oracle is None:
        oracle = HermiteOracle.for_ass(params)
        _ORACLE_CACHE[params] = oracle
        if len(_ORACLE_CACHE) > _ORACLE_CACHE_SIZE:
            _ORACLE_CACHE.popitem(last=False)
    else:
        _ORACLE_CACHE.move_to_end(params)
    return oracle


def gegenbauer_c_m_sq(m: int, gamma: complex) -> float:
    """Seed normalization ``|c_m|^2`` via the Gegenbauer closed form.

    ``|c_m|^2 = (-1)^m / (m! * C_m^{(-m)}(2 |gamma|^2))`` where the
    degenerate ultraspherical polynomial is evaluated by its terminating
    hypergeometric series with the Pochhammer limit
    ``(alpha)_{m-k} -> (-1)^{m-k} m!/k!`` at ``alpha = -m``.  Kept as an
    independent rewrite of the closed sum in :func:`ass_params`.
    """
    _check_count(m, "m")
    x = 2.0 * abs(gamma) ** 2
    poly = 0.0
    for k in range(m // 2 + 1):
        poch = (-1.0) ** (m - k) * math.factorial(m) / math.factorial(k)
        poly += (
            (-1.0) ** k
            * poch
            / (math.factorial(k) * math.factorial(m - 2 * k))
            * (2.0 * x) ** (m - 2 * k)
        )
    return (-1.0) ** m / (math.factorial(m) * poly)


def ass_oracle(m: int, lam: float) -> tuple[AssParams, HermiteOracle]:
    """Convenience pairing of analytic parameters and their (cached) oracle."""
    params = ass_params(m, lam)
    return params, _oracle_for(params)
