"""Moment evaluation against independent oracles.

Every moment is read from a moment table, directly or as an entry
``M[0, j] = <:f_j:>`` of a moment matrix whose basis starts with the
constant monomial.  Oracles used here:
  * explicit dense-matrix products for <a^dag^k a^l>,
  * the coherent-state eigenvalue property (normally ordered expectations
    of coherent states are the classical monomials in alpha),
  * closed forms for Fock and thermal factorial moments,
  * Laguerre / Gaussian characteristic functions, and the dense matrix
    exponential of the displacement generator.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, eval_laguerre, gammaln

from helpers import (
    dense_moment,
    normal_moments,
    quad_expectation,
    random_density_state,
    random_pure_state,
    sliced_char_values,
    traced_peak,
    uncut_offset_diagonals,
)
from nclmoments import (
    BasisKind,
    DensityState,
    FockState,
    InsufficientOrderError,
    LOConfig,
    MomentTable,
    MonomialBasis,
    NumericConsistencyError,
    OrderAccuracyWarning,
    ValidationError,
    apply_squeeze,
    as_real,
    ass_moment_table,
    ass_moment_tables,
    bochner_det,
    build_matrix,
    char_function,
    char_values,
    determinant_hierarchy,
    make_coherent,
    make_fock,
    make_thermal,
    moment_table,
    resolve_table,
    s3,
    scheme_a_forward,
    scheme_b_forward,
    witnesses,
)
from nclmoments import moments
from nclmoments.moments import _CharKernel
from nclmoments.serialize import table_to_json
from nclmoments.operators import displacement_matrix


# ---------------------------------------------------------------------------
# <a^dag^k a^l> from moment_table


def assert_table_matches_dense_products(state, max_order: int) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderAccuracyWarning)
        table = moment_table(state, max_order)
    for k in range(max_order + 1):
        for l in range(max_order + 1):
            want = dense_moment(state, k, l)
            assert abs(table.entry(k, l) - want) < 1e-11 * (1.0 + abs(want)), (k, l)


@pytest.mark.parametrize("seed", range(6))
def test_moment_aa_matches_dense_products_pure(seed):
    state = random_pure_state(32, seed)
    for max_order in (0, 4, 12):
        assert_table_matches_dense_products(state, max_order)


@pytest.mark.parametrize("seed", range(4))
def test_moment_aa_matches_dense_products_density(seed):
    state = random_density_state(24, seed + 1)
    for max_order in (0, 3, 12):
        assert_table_matches_dense_products(state, max_order)


def test_moment_aa_fock_closed_form():
    # <a^dag^k a^k> = n!/(n-k)!; off-diagonal moments vanish
    table = moment_table(make_fock(4, 16), 4)
    for k in range(5):
        want = math.factorial(4) / math.factorial(4 - k)
        assert abs(table.entry(k, k) - want) < 1e-12 * (1 + want)
    assert table.entry(2, 1) == 0.0
    with pytest.warns(OrderAccuracyWarning):
        assert moment_table(make_fock(4, 16), 5).entry(5, 5) == 0.0


def test_moment_aa_warns_near_truncation_order():
    with pytest.warns(OrderAccuracyWarning):
        moment_table(make_coherent(0.3, 8), 3)


@pytest.mark.parametrize("max_order", [2.0, True, np.float64(3), "2", -1, None])
def test_moment_orders_must_be_nonnegative_integers(max_order):
    """One integer rule for ``moment_table`` and exact tables; a ``MomentTable``
    reads its order from its shape."""
    state = make_fock(1, 16)
    with pytest.raises(ValidationError, match="max_order must be a nonnegative integer"):
        moment_table(state, max_order)
    with pytest.raises(ValidationError, match="max_order must be a nonnegative integer"):
        ass_moment_tables(2, [1.5], max_order)


@pytest.mark.parametrize("k,l", [(1.0, 1), (True, 0), (0, -1), (np.float64(1), 0)])
def test_table_entry_indices_must_be_nonnegative_integers(k, l):
    table = moment_table(make_fock(1, 16), 2)
    with pytest.raises(ValidationError, match="a moment order must be a nonnegative integer"):
        table.entry(k, l)


def test_moment_orders_accept_numpy_integers():
    table = moment_table(make_fock(1, 16), np.int64(2))
    assert table.max_order == 2
    assert MomentTable(table.values).max_order == 2


# ---------------------------------------------------------------------------
# MomentTable


def test_moment_table_round_trip_entries():
    state = random_pure_state(32, 11)
    table = moment_table(state, 4)
    assert table.max_order == 4
    for k in range(5):
        for l in range(5):
            assert table.entry(k, l) == complex(table.values[k, l])
            want = dense_moment(state, k, l)
            assert abs(table.entry(k, l) - want) < 1e-11 * (1.0 + abs(want))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, math.inf)])
@pytest.mark.parametrize("validate", [True, False])
def test_moment_table_refuses_non_finite_entries(bad, validate):
    values = np.eye(3, dtype=complex)
    values[1, 1] = bad
    with pytest.raises(ValidationError, match="finite"):
        MomentTable(values, validate=validate)


def test_moment_table_warns_once_past_half_dim():
    """One warning per table once ``2 max_order`` exceeds ``dim / 2``, none below."""
    state = random_density_state(24, 5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        moment_table(state, 6)
    assert caught == []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        moment_table(state, 7)
    assert [w.category for w in caught] == [OrderAccuracyWarning]
    assert caught[0].filename == __file__


@pytest.mark.parametrize("build, order", [
    (lambda: make_thermal(0.5, 64), 146),
    (lambda: apply_squeeze(make_fock(0, 64), 0.5), 150),
], ids=["thermal", "squeezed-vacuum"])
def test_moment_table_past_the_float_range_of_unread_factorials(build, order):
    """The rising factorials are taken only up to the state's last offset.
    Taken up to ``max_order``, the unread ones overflowed from these orders
    on, and numpy's overflow warning is an error in this suite."""
    state = build()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderAccuracyWarning)
        table = moment_table(state, order)
        low = moment_table(state, 10)
    assert np.isfinite(table.values).all()
    np.testing.assert_allclose(table.values[:11, :11], low.values, rtol=1e-12, atol=0)


def test_moment_table_refuses_factorial_weights_beyond_the_float_range():
    """At dim 1024 the weights ``n!/(n-l)!`` of a thermal state's high rows
    overflow by order 120.  Numpy's overflow and invalid-value warnings once
    escaped and the table was refused as invalid input; it is now a
    consistency error that names the order and the dim.  The exact moment
    ``120! 0.5^120``, about 5e172, is finite: a scaled evaluation would give
    it."""
    state = make_thermal(0.5, 1024)
    with pytest.raises(NumericConsistencyError, match="order 120 at dim 1024"):
        moment_table(state, 120)
    want = math.factorial(100) * 0.5**100
    got = moment_table(state, 100).values[100, 100]
    assert abs(got - want) <= 1e-12 * want


ORDER_WARNING_CALLS = {
    "build_matrix": lambda: build_matrix(
        make_fock(1, 6), MonomialBasis.graded(BasisKind.QUAD, 4), 0.3
    ),
    "char_function": lambda: char_function(make_fock(0, 16), 2.5),
    "bochner_det": lambda: bochner_det(make_fock(0, 16), [0.0, 2.5]),
    "determinant_hierarchy": lambda: determinant_hierarchy(make_fock(1, 6), "aa", 2),
    "s3": lambda: s3(make_fock(1, 6)),
    "scheme_a_forward": lambda: scheme_a_forward(
        make_fock(1, 12), 4, 0.0, LOConfig(3.0), 2
    ),
}


@pytest.mark.parametrize("name", sorted(ORDER_WARNING_CALLS))
def test_order_warning_points_at_the_caller(name):
    """Every entry point attributes ``OrderAccuracyWarning`` to its caller."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ORDER_WARNING_CALLS[name]()
    assert caught and all(w.category is OrderAccuracyWarning for w in caught)
    assert [w.filename for w in caught] == [__file__] * len(caught)


def test_moment_table_conjugate_symmetry_enforced():
    vals = np.zeros((2, 2), dtype=complex)
    vals[0, 0] = 1.0
    vals[0, 1] = 0.5 + 0.5j
    vals[1, 0] = 0.5 - 0.4j  # breaks conj(vals[0, 1])
    vals[1, 1] = 1.0
    with pytest.raises(ValidationError):
        MomentTable(vals)


def test_moment_table_requires_unit_zeroth_moment():
    vals = np.full((1, 1), 0.5, dtype=complex)
    with pytest.raises(ValidationError):
        MomentTable(vals, validate=False)


def test_moment_table_negative_diagonal_rejected_unless_unvalidated():
    vals = np.array([[1.0, 0.0], [0.0, -0.2]], dtype=complex)
    with pytest.raises(ValidationError):
        MomentTable(vals)
    table = MomentTable(vals, validate=False)
    assert table.entry(1, 1) == -0.2


def test_moment_table_entry_beyond_order_raises():
    table = moment_table(make_fock(1, 8), 2)
    with pytest.raises(InsufficientOrderError):
        table.entry(3, 0)
    with pytest.raises(InsufficientOrderError):
        table.entry(0, 3)


# ---------------------------------------------------------------------------
# quadrature and photon-number moments: row 0 of a moment matrix


def test_polynomial_quadrature_identity_on_random_state():
    """<:x^2:> + <:p^2:> = 4 <n> for any state and any phase."""
    state = random_pure_state(32, 3)
    n_mean = moment_table(state, 1).entry(1, 1).real
    for phi in (0.0, 0.3, 1.1):
        quad = normal_moments(state, "quad", 6, phi)
        total = quad[(0, 2)] + quad[(2, 0)]
        assert math.isclose(total.real, 4.0 * n_mean, rel_tol=1e-12, abs_tol=1e-12)
        assert abs(total.imag) < 1e-12


def test_polynomial_expectation_accepts_table_and_state():
    state = make_coherent(0.4 + 0.1j, 48)
    basis = MonomialBasis.graded(BasisKind.QUAD, 6)
    from_table = build_matrix(moment_table(state, 4), basis, 0.2)
    from_state = build_matrix(state, basis, 0.2)
    assert np.array_equal(from_state.values, from_table.values)


def test_polynomial_expectation_warns_once_on_a_state():
    """Every entry of a state's matrix comes from one table: one warning.

    ``M[1, 1] = <:x^2 p^2:>`` over ``{1, x p}`` is checked against the
    binomial sum over dense-product moments.
    """
    state = make_fock(1, 6)
    basis = MonomialBasis(BasisKind.QUAD, ((0, 0), (1, 1)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        matrix = build_matrix(state, basis, 0.3)
    assert [w.category for w in caught] == [OrderAccuracyWarning]
    dense = np.array([[dense_moment(state, k, l) for l in range(5)] for k in range(5)])
    want = quad_expectation(MomentTable(dense), 2, 2, 0.3)
    assert matrix.values[1, 1] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# quad / xn moments vs coherent-state oracle


def _coherent_classical(alpha, phi):
    x = alpha * np.exp(-1j * phi) + np.conj(alpha) * np.exp(1j * phi)
    p = alpha * np.exp(-1j * (phi + math.pi / 2)) + np.conj(alpha) * np.exp(
        1j * (phi + math.pi / 2)
    )
    return x.real, p.real


@pytest.mark.parametrize("phi", [0.0, 0.4, 1.9])
def test_quad_moment_coherent_eigenvalue_oracle(phi):
    """``<:p^b x^a:> = p_c^b x_c^a`` for every graded pair with ``a + b <= 3``."""
    alpha = 0.6 - 0.45j
    state = make_coherent(alpha, 64)
    x_c, p_c = _coherent_classical(alpha, phi)
    quad = normal_moments(state, "quad", 10, phi)
    assert max(p + q for p, q in quad) == 3
    for (b, a), got in quad.items():
        want = x_c**a * p_c**b
        assert abs(got - want) < 1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize("phi", [0.0, 0.8])
def test_xn_moment_coherent_eigenvalue_oracle(phi):
    """``<:n^kappa x^sigma:> = |alpha|^{2 kappa} x_c^sigma``."""
    alpha = 0.7 + 0.2j
    state = make_coherent(alpha, 64)
    x_c, _ = _coherent_classical(alpha, phi)
    xn = normal_moments(state, "xn", 10, phi)
    for (kappa, sigma), got in xn.items():
        want = x_c**sigma * abs(alpha) ** (2 * kappa)
        assert abs(got - want) < 1e-10 * (1.0 + abs(want))


def test_factorial_moments_fock_and_thermal():
    """``<:n^u:> = <a^dag^u a^u>``, read from the table and from ``M[0, u]``."""
    chain = MonomialBasis(BasisKind.XN, tuple((u, 0) for u in range(4)))
    for source, want_u, rel in (
        (make_fock(5, 16), lambda u: math.factorial(5) / math.factorial(5 - u), 1e-12),
        (make_thermal(0.8, 96), lambda u: math.factorial(u) * 0.8**u, 1e-9),
    ):
        with warnings.catch_warnings():
            # exact for |5> at any dim above 5
            warnings.simplefilter("ignore", OrderAccuracyWarning)
            table = moment_table(source, 6)
        row = build_matrix(table, chain).values[0]
        for u in range(4):
            assert table.entry(u, u).real == pytest.approx(want_u(u), rel=rel)
            assert row[u] == pytest.approx(want_u(u), rel=rel)


def test_squeezed_vacuum_quadrature_variances():
    r = 0.5
    state = apply_squeeze(make_fock(0, 64), r)
    quad = normal_moments(state, "quad", 6, 0.0)
    assert quad[(0, 2)] == pytest.approx(math.exp(-2 * r) - 1.0, rel=1e-10)
    assert quad[(2, 0)] == pytest.approx(math.exp(2 * r) - 1.0, rel=1e-10)


def test_as_real_rejects_complex_residue():
    with pytest.raises(NumericConsistencyError):
        as_real(1.0 + 1e-3j, "unit test")
    assert as_real(2.0 + 1e-12j, "unit test") == 2.0


def _as_real_outcome(value):
    try:
        return repr(np.atleast_1d(as_real(value, "unit test")).tolist())
    except NumericConsistencyError as exc:
        return str(exc)


def test_as_real_on_an_array_is_the_scalar_rule_per_value():
    """Each value of an array passes or fails as it does alone, on both sides
    of the ``1e-8 max(1, |v|)`` bound, and the first failure is reported."""
    rng = np.random.default_rng(3)
    reals = np.append(10.0 ** rng.uniform(-12, 12, 400), [0.0, 1.0, math.inf])
    bounds = 1e-8 * np.maximum(1.0, np.abs(reals))
    for factor in (1 - 1e-15, 1.0, 1 + 1e-15, 1 - 1e-7, 1 + 1e-7):
        values = np.append(reals.astype(complex), complex(math.nan, 1.0))
        values.imag[:-1] = bounds * factor
        scalars = [_as_real_outcome(complex(v)) for v in values]
        assert [_as_real_outcome(values[i:i + 1]) for i in range(len(values))] == scalars
        failures = [s for s in scalars if not s.startswith("[")]
        whole = _as_real_outcome(values)
        assert whole == (failures[0] if failures else repr(values.real.tolist()))


def test_resolve_table_passthrough_and_growth():
    state = random_pure_state(24, 5)
    table = resolve_table(state, 3)
    assert table.max_order == 3
    assert resolve_table(table, 2) is table
    with pytest.raises(InsufficientOrderError):
        resolve_table(table, 4)
    with pytest.raises(ValidationError, match="expected a MomentTable or a state"):
        resolve_table(table.values, 2)



# ---------------------------------------------------------------------------
# stacked tables


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (0, 0), (2, 0, 0), (3, 2, 2, 3)])
def test_moment_table_refuses_a_shape_that_is_not_square(shape):
    with pytest.raises(ValidationError, match="not square tables"):
        MomentTable(np.ones(shape))


def test_moment_table_reads_its_order_from_its_shape():
    stack = ass_moment_tables(2, [1.2, 1.4, 1.6]).values.reshape(3, 1, 5, 5)
    table = MomentTable(stack)
    assert table.max_order == 4 and table.values.shape == (3, 1, 5, 5)
    assert MomentTable(np.eye(1)).max_order == 0


def _coherent_values(alpha: float) -> np.ndarray:
    k = np.arange(5)
    return alpha ** (k[:, None] + k[None, :]) + 0j


def test_moment_table_holds_each_table_of_a_stack_to_its_own_scale():
    """A defect of one unit-scale table stays visible next to a table of
    ``max|T| = 1e8``, whose scale lets the same defect through."""
    bright, dim = _coherent_values(10.0), _coherent_values(0.5)
    assert MomentTable(np.stack([bright, dim])).values.shape == (2, 5, 5)
    for defect, match in ((_skew, "conjugate-symmetric"), (_negative, "is negative")):
        MomentTable(defect(bright))
        with pytest.raises(ValidationError, match=match):
            MomentTable(defect(dim))
        with pytest.raises(ValidationError, match=match):
            MomentTable(np.stack([bright, defect(dim)]))
    MomentTable(np.stack([bright, _negative(dim)]), validate=False)


def test_moment_table_holds_each_entry_pair_to_its_diagonal_scale():
    """The coherent table ``alpha = 10`` with ``1e-6j`` on ``<a^dag^2 a^2>``
    (``1e4``) is refused, although its whole-table scale ``max|T| = 1e8``
    would let the residue ``2e-6`` through; ``1e-7j`` is within the entry's
    tolerance ``1e-6``."""
    for residue, refused in ((1e-6j, True), (1e-7j, False), (0.0, False)):
        values = _coherent_values(10.0)
        values[2, 2] += residue
        if refused:
            with pytest.raises(ValidationError, match="residue 2.000e-06"):
                MomentTable(values)
            with pytest.raises(ValidationError, match="conjugate-symmetric"):
                MomentTable(np.stack([_coherent_values(10.0), values]))
        else:
            MomentTable(values)


def _skew(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    out[1, 2] += 1e-9
    return out


def _negative(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    out[3, 3] = -1e-9
    return out


@pytest.mark.parametrize("entry, value, match", [
    ((1, 1), math.nan, "finite"),
    ((1, 2), 0.3, "conjugate-symmetric"),
    ((2, 2), -0.5, "is negative"),
    ((0, 0), 0.5, "zeroth moment must be 1"),
])
def test_moment_table_refuses_a_stack_with_one_bad_table(entry, value, match):
    """Each check raises the one-table exception, on a lone table and in a stack."""
    stack = np.array(ass_moment_tables(2, [1.2, 1.4, 1.6]).values)
    stack[1][entry] = value
    with pytest.raises(ValidationError, match=match):
        MomentTable(stack[1])
    with pytest.raises(ValidationError, match=match):
        MomentTable(stack)


STACK_READERS = {
    "resolve_table": lambda t: resolve_table(t, 2),
    "entry": lambda t: t.entry(1, 1),
    "build_matrix": lambda t: build_matrix(t, MonomialBasis.graded("quad", 3)),
    "determinant_hierarchy": lambda t: determinant_hierarchy(t, "aa", 3),
    "witnesses": witnesses,
    "table_to_json": table_to_json,
    "scheme_b_forward": lambda t: scheme_b_forward(t, LOConfig(alpha=1.5)),
}


@pytest.mark.parametrize("name", sorted(STACK_READERS))
def test_single_table_readers_refuse_a_stack(name):
    read = STACK_READERS[name]
    for lams in ([1.2, 1.6], [1.2]):
        with pytest.raises(ValidationError, match="expected one table"):
            read(ass_moment_tables(2, lams))
    read(ass_moment_table(2, 1.2))


def test_replace_builds_a_validated_table():
    """``dataclasses.replace`` runs the checks again, ``validate`` included."""
    table = moment_table(make_coherent(0.5, 32), 3)
    values = np.array(table.values)
    values[1, 1] = -0.1
    with pytest.raises(ValidationError, match="is negative"):
        dataclasses.replace(table, values=values)
    relaxed = dataclasses.replace(table, values=values, validate=False)
    assert relaxed.max_order == 3 and relaxed.entry(1, 1) == -0.1


def test_table_corner_is_the_smaller_table_bit_for_bit():
    """The ``criteria`` verb tabulates once, at its largest order, and reads
    every smaller order from the corner.  Order 0 is left out: its ``1 x 1``
    product takes another summation path and can differ in the last bit."""
    states = [random_pure_state(32, seed) for seed in range(3)]
    states += [random_density_state(32, seed) for seed in range(3)]
    states += [make_coherent(0.7 + 0.3j, 64), make_thermal(0.8, 64),
               apply_squeeze(make_fock(0, 64), 0.5), make_fock(2, 64)]
    for state in states:
        big = moment_table(state, 8).values
        for k in (1, 2, 4, 6):
            assert big[: k + 1, : k + 1].tobytes() == moment_table(state, k).values.tobytes()


# ---------------------------------------------------------------------------
# characteristic function


def test_char_function_coherent_is_pure_phase():
    alpha = 0.8 + 0.3j
    state = make_coherent(alpha, 64)
    for beta in (0.5, -0.3 + 0.7j, 1.2j):
        want = np.exp(2j * (np.conj(alpha) * beta).imag)
        got = char_function(state, beta)
        assert abs(got - want) < 1e-9


def test_char_function_thermal_gaussian():
    nbar = 0.7
    state = make_thermal(nbar, 96)
    for beta in (0.4, 0.9j, -0.6 - 0.5j):
        want = math.exp(-abs(beta) ** 2 * nbar)
        assert abs(char_function(state, beta) - want) < 1e-9


def test_char_function_fock_laguerre():
    n = 3
    state = make_fock(n, 64)
    for beta in (0.3, 1.1, 0.7 - 0.4j):
        want = eval_laguerre(n, abs(beta) ** 2)
        assert abs(char_function(state, beta) - want) < 1e-9


def test_char_function_warns_for_large_displacement():
    state = make_fock(0, 16)
    with pytest.warns(OrderAccuracyWarning):
        char_function(state, 2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        char_function(state, 0.5)


def density_matrix(state) -> np.ndarray:
    if isinstance(state, DensityState):
        return state.matrix
    return np.outer(state.amplitudes, state.amplitudes.conj())


def laguerre_char(state, beta: complex) -> complex:
    """``e^{|beta|^2/2} Tr(rho D(beta))`` with every element of ``D`` from
    ``sqrt(n!/m!) beta^{m-n} e^{-|beta|^2/2} L_n^{(m-n)}(|beta|^2)``."""
    rho = density_matrix(state)
    dim = rho.shape[0]
    x = abs(beta) ** 2
    m = np.arange(dim)[:, None]
    n = np.arange(dim)[None, :]
    lo = np.minimum(m, n)
    gap = np.abs(m - n)
    magnitude = (
        np.exp(0.5 * (gammaln(lo + 1) - gammaln(lo + gap + 1)) + gap * math.log(abs(beta)))
        * eval_genlaguerre(lo, gap, x)
    )
    unit = beta / abs(beta)
    phase = np.where(m >= n, unit**gap, (-np.conj(unit)) ** gap)
    # e^{|beta|^2/2} cancels the e^{-|beta|^2/2} of every element
    return complex(np.sum(rho.T * magnitude * phase))


CHAR_STATES = {
    "thermal nbar 3, dim 128": lambda: make_thermal(3.0, 128),
    "rank-5 rho, dim 128": lambda: random_density_state(128, 5, rank=5),
    "squeezed vacuum r 0.5, dim 64": lambda: apply_squeeze(make_fock(0, 64), 0.5),
}


@pytest.mark.parametrize("name", sorted(CHAR_STATES))
def test_char_function_matches_laguerre_elements(name):
    """Closed-form Phi to 1e-12 relative, out to |beta| = 4.

    Thermal nbar 3 at dim 128 is where the shortcut
    ``<e^{conj(beta) a} psi|e^{-conj(beta) a} psi>`` loses all digits.
    """
    state = CHAR_STATES[name]()
    rng = np.random.default_rng(3)
    radii = np.concatenate([[4.0, 0.05], 4.0 * np.sqrt(rng.random(22))])
    betas = radii * np.exp(2j * np.pi * rng.random(radii.size))
    want = np.array([laguerre_char(state, b) for b in betas])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderAccuracyWarning)
        batch = char_values(state, betas)
        single = np.array([char_function(state, b) for b in betas])
    bound = 1e-12 * np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(batch - want) <= bound)
    assert np.all(np.abs(single - want) <= bound)


# One unit roundoff: the total weight the kernel may leave out.  Written out
# here, not read from the module, so that a changed budget fails the pins.
UNIT_ROUNDOFF = 2.0**-53


def assert_within_trim_bound(state, betas) -> None:
    """The kernel against the untrimmed Laguerre sum over every entry of rho:
    the dropped part adds at most ``e^{|beta|^2/2} 2^-53`` to the tolerance
    of :func:`test_char_function_matches_laguerre_elements`."""
    want = np.array([laguerre_char(state, b) for b in betas])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderAccuracyWarning)
        got = char_values(state, betas)
    bound = np.exp(np.abs(betas) ** 2 / 2) * UNIT_ROUNDOFF
    bound += 1e-12 * np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(got - want) <= bound)


# The decaying random states keep ~55 of their rows at dim 64 and 128.
TRIMMED_STATES = {
    **{
        f"pure, dim {dim}": (lambda dim=dim: random_pure_state(dim, dim))
        for dim in (16, 64, 128)
    },
    **{
        f"rank-4 rho, dim {dim}": (
            lambda dim=dim: random_density_state(dim, dim + 1, rank=4)
        )
        for dim in (16, 64, 128)
    },
    "coherent 0.9, dim 64": lambda: make_coherent(0.9 * np.exp(0.3j), 64),
    "squeezed vacuum r 0.5, dim 128": lambda: apply_squeeze(make_fock(0, 128), 0.5),
}


@pytest.mark.parametrize("name", sorted(TRIMMED_STATES))
def test_char_trim_stays_within_roundoff_bound(name):
    state = TRIMMED_STATES[name]()
    rng = np.random.default_rng(5)
    radii = np.concatenate([[4.0, 0.05], 4.0 * np.sqrt(rng.random(14))])
    betas = radii * np.exp(2j * np.pi * rng.random(radii.size))
    assert_within_trim_bound(state, betas)


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(16, 128),
    seed=st.integers(0, 2**16),
    rank=st.integers(0, 4),
    radius=st.floats(0.05, 4.0),
    angle=st.floats(0.0, 2 * np.pi),
)
def test_char_trim_bound_on_random_states(dim, seed, rank, radius, angle):
    """Rank 0 draws a pure state, higher ranks a mixture of decaying kets."""
    state = (
        random_density_state(dim, seed, rank=rank) if rank
        else random_pure_state(dim, seed)
    )
    betas = radius * np.exp(1j * (angle + np.array([0.0, 2.0])))
    assert_within_trim_bound(state, np.concatenate([betas, [radius / 3]]))


def test_char_kernel_keeps_only_rows_above_the_budget():
    """Rows and offsets whose total weight fits in one unit roundoff are
    dropped: far fewer rows than ``dim`` for states with decaying tails."""
    coherent = _CharKernel(make_coherent(0.9, 64))
    assert len(coherent.rows) <= 20 and len(coherent.offsets) <= 32
    squeezed = _CharKernel(apply_squeeze(make_fock(0, 128), 0.5))
    assert len(squeezed.rows) <= 50
    # exact zeros fall under the same rule: |n> keeps n + 1 rows, one offset
    fock = _CharKernel(make_fock(3, 64))
    assert (len(fock.rows), list(fock.offsets)) == (4, [0])


def _tail_state(dim: int, tail: float) -> DensityState:
    """Vacuum plus ``tail`` of population on the top level."""
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0], rho[-1, -1] = 1.0 - tail, tail
    return DensityState(rho)


def _coherence_state(dim: int, weight: float) -> DensityState:
    """A coherence ``rho[0, 5]`` of total weight ``2 |rho[0, 5]| = weight``."""
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0], rho[5, 5] = 1.0 - 1e-3, 1e-3
    rho[0, 5] = rho[5, 0] = weight / 2
    return DensityState(rho)


def test_char_kernel_keeps_weight_just_above_the_budget():
    """A tail or an offset just above one unit roundoff is kept; at half of
    it, it is dropped."""
    assert len(_CharKernel(_tail_state(32, 1.5 * UNIT_ROUNDOFF)).rows) == 32
    assert len(_CharKernel(_tail_state(32, 0.5 * UNIT_ROUNDOFF)).rows) == 1
    above = _CharKernel(_coherence_state(32, 1.5 * UNIT_ROUNDOFF))
    assert list(above.offsets) == [0, 5]
    below = _CharKernel(_coherence_state(32, 0.5 * UNIT_ROUNDOFF))
    assert list(below.offsets) == [0]


def _padded_density(sub_dim: int, dim: int, seed: int) -> DensityState:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:sub_dim, :sub_dim] = random_density_state(sub_dim, seed).matrix
    return DensityState(rho)


# Support well below the cutoff: the truncated generator's exponential is
# exact to roundoff only on levels far from the top of the basis.
DENSE_D_STATES = {
    "thermal nbar 0.7": lambda: make_thermal(0.7, 40),
    "rank-3 rho on 20 levels": lambda: _padded_density(20, 40, 7),
    "fock 3": lambda: make_fock(3, 40),
}


@pytest.mark.parametrize("name", sorted(DENSE_D_STATES))
def test_char_function_matches_dense_displacement(name):
    """Phi against ``e^{|beta|^2/2} Tr(rho D(beta))`` with the dense
    ``displacement_matrix`` reference, at dim 40 and ``|beta| <= 1.8``."""
    state = DENSE_D_STATES[name]()
    rho = density_matrix(state)
    rng = np.random.default_rng(4)
    radii = np.concatenate([[1.8, 0.05], 1.8 * np.sqrt(rng.random(10))])
    for beta in radii * np.exp(2j * np.pi * rng.random(radii.size)):
        dense = displacement_matrix(beta, state.dim)
        want = np.exp(abs(beta) ** 2 / 2) * np.trace(rho @ dense)
        assert abs(char_function(state, beta) - want) <= 1e-12 * max(1.0, abs(want))


def test_char_values_edge_points():
    state = random_pure_state(24, 2)
    assert char_values(state, []).shape == (0,)
    assert char_values(state, [0.0])[0] == pytest.approx(1.0, abs=1e-15)
    # Phi(-beta) = conj(Phi(beta))
    got = char_values(state, [0.7 - 0.2j, -0.7 + 0.2j])
    assert abs(got[1] - np.conj(got[0])) < 1e-14


DEDUP_STATES = {
    "squeezed vacuum (zero rows)": lambda: apply_squeeze(make_fock(0, 64), 0.45j),
    "fock 3": lambda: make_fock(3, 64),
    "thermal nbar 0.5": lambda: make_thermal(0.5, 64),
    "rank-3 rho": lambda: random_density_state(48, 6),
}


@pytest.mark.parametrize("name", sorted(DEDUP_STATES))
def test_char_values_shared_modulus_is_exact(name):
    """The recurrence runs once per distinct ``|beta|^2`` and is shared by
    every point with that modulus; each value equals a one-point call bit
    for bit."""
    state = DEDUP_STATES[name]()
    base = [0.0, 0.4 + 0.3j, 1.1 - 0.2j, 0.9j, 1.7]
    # The eight sign and swap images of (re, im) share |beta| exactly.
    betas = np.array(
        [
            complex(sr * b.real, si * b.imag) if not swap
            else complex(si * b.imag, sr * b.real)
            for b in map(complex, base)
            for sr in (1, -1)
            for si in (1, -1)
            for swap in (False, True)
        ]
    )
    assert len(np.unique(np.abs(betas) ** 2)) == len(base) < len(betas)
    batch = char_values(state, betas)
    single = np.array([char_function(state, b) for b in betas])
    assert np.array_equal(batch.view(np.uint64), single.view(np.uint64))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.nan)])
def test_char_values_rejects_non_finite_points(bad):
    state = make_coherent(0.5, 16)
    with pytest.raises(ValidationError, match="finite"):
        char_values(state, [0.5, bad])
    with pytest.raises(ValidationError, match="finite"):
        char_function(state, bad)


def test_char_values_warns_once_per_call():
    state = make_fock(0, 16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        char_values(state, [2.5, 3.0, -2.5j, 0.5])
        char_values(state, [0.5, 1.0j])
    assert [w.category for w in caught] == [OrderAccuracyWarning]


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(
        got.view(np.uint64), want.view(np.uint64)
    )


# The origin (the 0^0 = 1 branch) and points sharing |beta|^2 = 0.25,
# 1.25 and 2.89 at different phases.
PIN_POINTS = np.array(
    [0.0, 0.4 + 0.3j, -0.3 - 0.4j, 0.5j, 0.3 - 0.4j, 1.1 - 0.2j, -0.2 + 1.1j, 1.7, -1.7j]
)
PIN_STATES = {
    # every row narrows: n + d leaves the basis
    "rank-3 rho, dim 5": lambda: random_density_state(5, 2),
    "rank-4 rho, dim 12": lambda: random_density_state(12, 9, rank=4),
    # rows 0-2 carry no weight
    "fock 3": lambda: make_fock(3, 16),
    # the odd rows carry no weight
    "squeezed vacuum": lambda: apply_squeeze(make_fock(0, 32), 0.45 + 0.1j),
    "coherent": lambda: make_coherent(0.9 * np.exp(0.3j), 24),
    "thermal nbar 0.5": lambda: make_thermal(0.5, 32),
}


@pytest.mark.parametrize("name", sorted(PIN_STATES))
def test_char_kernel_matches_the_sliced_row_loop(name):
    """The padded rows updated in place give the sliced loop's values bit
    for bit: a column past its row's width only adds +-0."""
    state = PIN_STATES[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderAccuracyWarning)
        got = char_values(state, PIN_POINTS)
    assert same_bits(got, sliced_char_values(state, PIN_POINTS))


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(2, 24),
    seed=st.integers(0, 2**16),
    rank=st.integers(0, 3),
    count=st.integers(1, 12),
)
def test_char_kernel_matches_the_sliced_row_loop_on_random_states(dim, seed, rank, count):
    """Rank 0 draws a pure state, higher ranks a mixture; the points reach
    past the ``dim / 4`` warning."""
    state = (
        random_density_state(dim, seed, rank=rank) if rank
        else random_pure_state(dim, seed)
    )
    rng = np.random.default_rng(seed)
    betas = 2.0 * rng.random(count) * np.exp(2j * np.pi * rng.random(count))
    betas = np.concatenate([betas, [0.0], -betas[:2], betas[:2].conj()])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderAccuracyWarning)
        got = char_values(state, betas)
    assert same_bits(got, sliced_char_values(state, betas))


def test_char_kernel_matches_the_sliced_row_loop_past_the_warning():
    state = random_density_state(8, 5)
    betas = [0.5, 2.0j, -1.5 + 1.0j]  # |beta|^2 reaches 4 > dim / 4
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = char_values(state, betas)
    assert [w.category for w in caught] == [OrderAccuracyWarning]
    assert same_bits(got, sliced_char_values(state, betas))


def zero_row_density(dim: int) -> DensityState:
    """A state whose last two diagonal entries are zero, while
    ``rho[dim-2, dim-1]`` and its mirror are 1e-12: row ``dim - 2`` reads
    past the last nonzero diagonal entry."""
    rho = np.diag(np.linspace(1.0, 0.0, dim - 1)).astype(complex)
    rho = np.pad(rho, (0, 1)) / np.trace(rho).real
    rho[dim - 2, dim - 1] = rho[dim - 1, dim - 2] = 1e-12
    return DensityState(rho)


def fock_mixture(levels, dim: int) -> DensityState:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[levels, levels] = 1.0 / len(levels)
    return DensityState(rho)


CUT_STATES = {
    "fock 3, dim 128": lambda: make_fock(3, 128),
    "fock 0, dim 1": lambda: make_fock(0, 1),
    "fock 15, dim 16": lambda: make_fock(15, 16),
    # amplitudes at 0 and 40 only; |c_40|^2 underflows to zero
    "sparse ket": lambda: FockState(np.eye(64)[0] + 1e-170 * np.eye(64)[40]),
    "coherent, dim 24": lambda: make_coherent(0.9 * np.exp(0.3j), 24),
    "squeezed vacuum": lambda: apply_squeeze(make_fock(0, 32), 0.45 + 0.1j),
    "fock mixture 2, 3": lambda: fock_mixture([2, 3], 64),
    "fock mixture 0, 9": lambda: fock_mixture([0, 9], 12),
    "vacuum rho": lambda: make_thermal(0.0, 16),
    "thermal nbar 0.5": lambda: make_thermal(0.5, 32),
    "zero last diagonal": lambda: zero_row_density(16),
    "rank-3 rho, dim 5": lambda: random_density_state(5, 2),
}


@pytest.mark.parametrize("name", sorted(CUT_STATES))
def test_offset_diagonals_cut_before_building_match_the_whole_basis(name):
    """Cutting the basis at the last nonzero amplitude or row drops exact
    zeros only: offsets and diagonals are the whole-basis ones, bit for bit,
    at a moment table's counts and at the kernel's."""
    state = CUT_STATES[name]()
    for count in sorted({1, 2, 5, 9, state.dim, state.dim + 3}):
        offsets, diagonals = moments._offset_diagonals(state, count)
        want_offsets, want_diagonals = uncut_offset_diagonals(state, count)
        np.testing.assert_array_equal(offsets, want_offsets)
        assert same_bits(np.ascontiguousarray(diagonals),
                         np.ascontiguousarray(want_diagonals)), count


def test_fock_kernel_builds_only_the_populated_rows(monkeypatch):
    """``|3>`` at dim 128 builds its diagonals on four rows, not 128."""
    shapes = []
    concatenate = np.concatenate

    def record(arrays, *args, **kwargs):
        shapes.append(np.shape(arrays[0]))
        return concatenate(arrays, *args, **kwargs)

    monkeypatch.setattr(moments.np, "concatenate", record)
    moments._offset_diagonals(make_fock(3, 128), 128)
    assert shapes == [(4,)]


def test_char_kernel_memory_stays_at_points_times_offsets():
    """A call holds a few points x offsets buffers, never one per row: a
    float array per row of 40 or more would add 20 units of points x
    offsets complex values."""
    kernel = _CharKernel(apply_squeeze(make_fock(0, 64), 0.45 + 0.1j))
    rng = np.random.default_rng(0)
    betas = 1.9 * np.sqrt(rng.random(4096)) * np.exp(2j * np.pi * rng.random(4096))
    assert len(kernel.rows) >= 40
    unit = betas.size * len(kernel.offsets) * 16
    assert traced_peak(lambda: kernel(betas)) < 10 * unit
