"""Closed-form generating-function oracle for the eigenstate family.

The oracle is validated three independent ways: hand-derived low-order
values, operator (Bogoliubov) algebra for the m=1 member, and direct
Fock-space numerics at higher orders.  It in turn checks the exact
Bogoliubov-image tables of ``ass_moment_table``.
"""

import dataclasses
import math

import numpy as np
import pytest

from nclmoments import (
    TruncationError,
    ValidationError,
    ass_moment_analytic,
    ass_moment_table,
    ass_moment_tables,
    ass_oracle,
    ass_params,
    gegenbauer_c_m_sq,
    make_ass_state,
    moment_table,
)
from nclmoments import hermite
from nclmoments.hermite import HermiteOracle


def test_hand_computed_seed_values():
    params = ass_params(1, 1.8)
    oracle = HermiteOracle.for_ass(params)
    mu, nu, gam = params.mu, params.nu, params.gamma
    assert oracle.value(0, 0, 0, 0) == 1.0
    # squeezed vacuum (m=0): <n> = |nu|^2 and <a^2> = mu nu
    assert oracle.value(0, 0, 1, 1) == pytest.approx(abs(nu) ** 2, rel=1e-12)
    assert oracle.value(0, 0, 0, 2) == pytest.approx(mu * nu, rel=1e-12)
    # normalization of the m=1 seed: H_{1100} = 4|gamma|^2
    assert oracle.value(1, 1, 0, 0) == pytest.approx(
        4.0 * abs(gam) ** 2, rel=1e-12
    )


@pytest.mark.parametrize("lam", [1.5, 2.0, 0.5])
def test_m1_moments_match_bogoliubov_algebra(lam):
    """m=1 member is a squeezed single photon; its low moments are textbook.

    With a -> mu a + nu a^dag acting on |1>:
      <n> = mu^2 + 2|nu|^2,  <a^2> = 3 mu nu.
    """
    params, oracle = ass_oracle(1, lam)
    mu, nu = params.mu, params.nu
    n_mean = ass_moment_analytic(params, 1, 1)
    assert n_mean == pytest.approx(abs(mu) ** 2 + 2 * abs(nu) ** 2, rel=1e-12)
    a_sq = ass_moment_analytic(params, 0, 2)
    assert a_sq == pytest.approx(3.0 * mu * nu, rel=1e-12)


@pytest.mark.parametrize("m,lam", [(0, 1.5), (1, 2.0), (2, 1.2), (3, 0.5)])
def test_oracle_matches_fock_numerics(m, lam):
    state, params = make_ass_state(m, lam, 96)
    table = moment_table(state, 3)
    for k in range(4):
        for l in range(4):
            analytic = ass_moment_analytic(params, k, l)
            numeric = table.entry(k, l)
            assert abs(analytic - numeric) < 1e-9 * (1.0 + abs(analytic))


def test_oracle_moments_conjugate_symmetric():
    params, _ = ass_oracle(2, 1.7)
    for k in range(4):
        for l in range(4):
            lhs = ass_moment_analytic(params, k, l)
            rhs = np.conj(ass_moment_analytic(params, l, k))
            assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))


@pytest.mark.parametrize("lam", [1.3, 0.6])
def test_gegenbauer_normalization_identity(lam):
    """The seed norm collapses to a Gegenbauer polynomial of 2|gamma|^2."""
    for m in range(1, 6):
        params = ass_params(m, lam)
        assert gegenbauer_c_m_sq(m, params.gamma) == pytest.approx(
            params.c_m_sq, rel=1e-12
        )


@pytest.mark.parametrize("bad", [1.5, True, -1, "2"])
def test_oracle_orders_are_integers(bad):
    """``m``, ``k`` and ``l`` are counts: a fraction had given ``0j`` or a
    raw ``TypeError``, and ``True`` had been read as 1."""
    params = ass_params(2, 1.5)
    for call in (
        lambda: ass_moment_analytic(params, bad, 0),
        lambda: ass_moment_analytic(params, 0, bad),
        lambda: gegenbauer_c_m_sq(bad, 0.5),
    ):
        with pytest.raises(ValidationError):
            call()
    assert ass_moment_analytic(params, np.int64(2), np.int64(1)) == (
        ass_moment_analytic(params, 2, 1)
    )
    assert gegenbauer_c_m_sq(np.int64(2), 0.5) == gegenbauer_c_m_sq(2, 0.5)


def test_oracle_cache_reuses_instances():
    _, first = ass_oracle(2, 1.5)
    _, second = ass_oracle(2, 1.5)
    assert first is second


def test_oracle_cache_is_bounded():
    bound = hermite._ORACLE_CACHE_SIZE
    _, kept = ass_oracle(2, 1.25)
    for i in range(bound + 5):
        ass_oracle(2, 1.3 + 0.01 * i)
        ass_oracle(2, 1.25)  # recently used, so never evicted
        assert len(hermite._ORACLE_CACHE) <= bound
    assert len(hermite._ORACLE_CACHE) == bound
    assert ass_oracle(2, 1.25)[1] is kept
    params = ass_params(3, 1.7)
    assert ass_moment_analytic(params, 2, 2) == pytest.approx(
        ass_oracle(3, 1.7)[1].value(3, 3, 2, 2) * params.c_m_sq, rel=1e-14
    )


def test_ass_state_carries_the_analytic_params():
    """One ``|c_m|^2`` per ``(m, lam)``: the state and the oracle share a key."""
    params = ass_params(3, 1.7)
    _, built = make_ass_state(3, 1.7, 64)
    assert built == params
    hermite._ORACLE_CACHE.clear()
    ass_moment_analytic(params, 2, 2)
    ass_moment_analytic(built, 2, 2)
    assert len(hermite._ORACLE_CACHE) == 1


def test_recursion_agrees_with_direct_quartic():
    """<a^dag^2 a^2> of the squeezed vacuum from operator algebra.

    (mu a + nu a^dag)^2 |0> = mu nu |0> + sqrt(2) nu^2 |2>, so
    <a^dag^2 a^2> = mu^2 |nu|^2 + 2 |nu|^4; equivalently
    Var(n) = 2 sinh^2 r cosh^2 r for the squeezed vacuum.
    """
    params, oracle = ass_oracle(1, 1.9)  # oracle coupling, any m works
    mu, nu = abs(params.mu), abs(params.nu)
    want = mu**2 * nu**2 + 2 * nu**4
    got = oracle.value(0, 0, 2, 2)
    assert got == pytest.approx(want, rel=1e-12)


TABLE_LAMBDAS = (0.1, 0.2, 0.6, 0.9, 1.05, 1.5, 3.0)


def _relative_error(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


@pytest.mark.parametrize("m", range(6))
def test_ass_moment_table_matches_oracle(m):
    for lam in TABLE_LAMBDAS:
        params = ass_params(m, lam)
        want = np.array(
            [[ass_moment_analytic(params, k, l) for l in range(5)] for k in range(5)]
        )
        got = ass_moment_table(m, lam).values
        assert _relative_error(got, want) <= 1e-13, (m, lam)
        assert np.array_equal(got, got.conj().T)


# The default sweep grids of the command line, below and above lambda = 1.
SWEEP_LAMBDAS = tuple(np.round(np.arange(0.1, 0.951, 0.05), 10)) + tuple(
    np.round(np.arange(1.05, 2.001, 0.05), 10)
)


@pytest.mark.parametrize("m", (0, 1, 2, 3, 4, 5, 9))
def test_ass_moment_tables_batch_matches_oracle(m):
    """Every lambda slice of one batched call against the closed-form recursion."""
    tables = ass_moment_tables(m, SWEEP_LAMBDAS).values
    assert tables.shape == (len(SWEEP_LAMBDAS), 5, 5)
    for lam, table in zip(SWEEP_LAMBDAS, tables):
        params = ass_params(m, lam)
        want = np.array(
            [[ass_moment_analytic(params, k, l) for l in range(5)] for k in range(5)]
        )
        assert _relative_error(table, want) <= 1e-13, (m, lam)
        assert table.tobytes() == ass_moment_table(m, lam).values.tobytes(), (m, lam)


def test_ass_moment_tables_checks_each_seed_norm(monkeypatch):
    """A closed-form |c_m|^2 that disagrees with one seed's norm is refused for that lambda."""
    def skewed(m, lam):
        params = ass_params(m, lam)
        if lam == 1.5:
            params = dataclasses.replace(params, c_m_sq=params.c_m_sq * (1 + 1e-6))
        return params

    monkeypatch.setattr("nclmoments.moments.ass_params", skewed)
    assert ass_moment_tables(2, [1.2, 1.4]).values.shape == (2, 5, 5)
    with pytest.raises(ValidationError, match="lam=1.5"):
        ass_moment_tables(2, [1.2, 1.5, 1.8])


@pytest.mark.parametrize("m", range(6))
def test_ass_moment_table_matches_fock_route(m):
    """Equal to the squeezed Fock state's table wherever truncation is negligible.

    The dim-96 route passes its tail check at some points while its order-4
    moments still carry truncation error (5e-6 relative at m 0, lambda 0.2);
    there the dim-192 route, which has converged, is the reference, and the
    exact table must sit no farther from the dim-96 table than it does.
    """
    for lam in TABLE_LAMBDAS:
        try:
            coarse = moment_table(make_ass_state(m, lam, 96)[0], 4).values
        except TruncationError:
            continue
        fine = moment_table(make_ass_state(m, lam, 192)[0], 4).values
        exact = ass_moment_table(m, lam).values
        assert _relative_error(exact, fine) <= 1e-12, (m, lam)
        truncation = _relative_error(coarse, fine)
        assert _relative_error(exact, coarse) <= 1e-12 + 1.01 * truncation, (m, lam)
        if truncation <= 1e-13:
            assert _relative_error(exact, coarse) <= 1e-12, (m, lam)
