"""Determinant hierarchies, scalar witnesses and Bochner determinants.

Key oracles:
  * a symbolic fake moment table that makes every index of the matrix
    builder visible in the entry values,
  * coherent states, whose normally ordered moment matrices factorize into
    rank-one outer products of classical monomial vectors,
  * closed forms for thermal and squeezed-vacuum witnesses.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    long_hand_matrix,
    quad_expectation,
    random_density_state,
    random_pure_state,
)
from nclmoments import (
    DEFAULT_TOLERANCE,
    BasisKind,
    BochnerResult,
    DensityState,
    DuplicatePointError,
    InsufficientOrderError,
    MomentTable,
    MonomialBasis,
    NumericConsistencyError,
    OrderAccuracyWarning,
    ValidationError,
    apply_squeeze,
    as_real,
    ass_moment_tables,
    asq_min_max,
    asq_variance,
    bochner_det,
    bochner_search,
    build_matrix,
    build_matrix_d2,
    determinant_hierarchy,
    make_ass_state,
    make_coherent,
    make_fock,
    make_thermal,
    moment_table,
    principal_minor,
    s2_witnesses,
    s3,
    witnesses,
)
from nclmoments import criteria, moments
from nclmoments.criteria import MomentMatrix


def symbolic_table(max_order: int) -> MomentTable:
    """Fake table whose entries encode their own indices.

    entry(k, l) = 7 (min+1) + 13 (max+1) + 3i (k - l), except entry(0, 0) = 1
    to satisfy the unit-trace check.  Conjugate-symmetric by construction,
    so any index transposition in a matrix builder changes the result.
    """
    n = max_order + 1
    vals = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            lo, hi = min(k, l), max(k, l)
            vals[k, l] = 7.0 * (lo + 1) + 13.0 * (hi + 1) + 3j * (k - l)
    vals[0, 0] = 1.0
    return MomentTable(vals)


def fake_entry(k: int, l: int) -> complex:
    if k == 0 and l == 0:
        return 1.0 + 0.0j
    return 7.0 * (min(k, l) + 1) + 13.0 * (max(k, l) + 1) + 3j * (k - l)


# ---------------------------------------------------------------------------
# bases and index maps


def test_graded_pairs_order():
    assert MonomialBasis.graded(BasisKind.AA, 10).pairs == (
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
        (0, 3),
        (1, 2),
        (2, 1),
        (3, 0),
    )
    with pytest.raises(ValidationError):
        MonomialBasis.graded("quad", 0)


@pytest.mark.parametrize("make", [
    lambda: MonomialBasis(BasisKind.AA, ((1.5, 0),)),
    lambda: MonomialBasis(BasisKind.AA, ((0, 0), (True, 1))),
    lambda: MonomialBasis.graded(BasisKind.AA, 2.5),
    lambda: MonomialBasis.number_chain(2.5),
    lambda: build_matrix_d2(symbolic_table(6), size=2.5),
])
def test_basis_sizes_and_exponents_must_be_integers(make):
    """``(1.5, 0)`` once became ``(1, 0)``, ``graded(kind, 2.5)`` gave three
    monomials, and a fractional chain size raised a bare ``TypeError``."""
    with pytest.raises(ValidationError, match="nonnegative integer"):
        make()
    assert MonomialBasis.graded("aa", np.int64(3)) == MonomialBasis.graded("aa", 3)


def test_basis_validation_and_required_order():
    assert MonomialBasis.graded(BasisKind.AA, 6).required_order() == 4
    assert MonomialBasis.graded("quad", 3).required_order() == 2
    assert MonomialBasis.number_chain(3).required_order() == 6
    with pytest.raises(ValidationError):
        MonomialBasis(BasisKind.AA, ((0, 0), (0, 0)))
    with pytest.raises(ValidationError):
        MonomialBasis(BasisKind.AA, ((0, -1),))


def test_aa_matrix_index_map_via_symbolic_table():
    """Pin the exact index arithmetic of the 6x6 aa moment matrix.

    Basis order 1, a, a^dag, a^2, a^dag a, a^dag^2 as exponent pairs
    (p, q) = (creation, annihilation); entry must be
    <a^dag^{q_i + p_j} a^{p_i + q_j}>.
    """
    table = symbolic_table(4)
    basis = MonomialBasis.graded(BasisKind.AA, 6)
    matrix = build_matrix(table, basis)
    pairs = basis.pairs
    for i, (pi, qi) in enumerate(pairs):
        for j, (pj, qj) in enumerate(pairs):
            assert matrix.values[i, j] == fake_entry(qi + pj, pi + qj), (i, j)


def test_aa_matrix_row_pattern_explicit():
    """Spell the six rows out long-hand as a second, independent statement."""
    table = symbolic_table(4)
    matrix = build_matrix(table, MonomialBasis.graded(BasisKind.AA, 6))
    pairs = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    rows = [
        [fake_entry(pj, qj) for pj, qj in pairs],
        [fake_entry(1 + pj, qj) for pj, qj in pairs],
        [fake_entry(pj, 1 + qj) for pj, qj in pairs],
        [fake_entry(2 + pj, qj) for pj, qj in pairs],
        [fake_entry(1 + pj, 1 + qj) for pj, qj in pairs],
        [fake_entry(pj, 2 + qj) for pj, qj in pairs],
    ]
    assert np.array_equal(matrix.values, np.array(rows))


def test_coherent_matrices_are_rank_one():
    """All four kinds factorize on a coherent state.

    Normally ordered expectations of |alpha> are the classical monomials,
    so M = conj(w) w^T with w the monomial vector — the strongest easy
    statement of entry-level correctness for quad/xn/d2 builders.
    """
    alpha = 0.6 - 0.3j
    phi = 0.35
    state = make_coherent(alpha, 64)
    table = moment_table(state, 8)
    x_c = 2.0 * (alpha * np.exp(-1j * phi)).real
    p_c = 2.0 * (alpha * np.exp(-1j * (phi + math.pi / 2))).real
    n_c = abs(alpha) ** 2

    aa = build_matrix(table, MonomialBasis.graded(BasisKind.AA, 6))
    w = np.array(
        [np.conj(alpha) ** p * alpha**q for p, q in aa.basis.pairs]
    )
    assert np.allclose(aa.values, np.outer(np.conj(w), w), atol=1e-10)

    quad = build_matrix(table, MonomialBasis.graded(BasisKind.QUAD, 6), phi)
    w = np.array([p_c**p * x_c**q for p, q in quad.basis.pairs])
    assert np.allclose(quad.values, np.outer(w, w), atol=1e-10)

    xn = build_matrix(table, MonomialBasis.graded(BasisKind.XN, 6), phi)
    w = np.array([n_c**p * x_c**q for p, q in xn.basis.pairs])
    assert np.allclose(xn.values, np.outer(w, w), atol=1e-10)

    d2 = build_matrix_d2(table, size=3, phi=phi)
    w = np.array([n_c**p * x_c**q for p, q in d2.basis.pairs])
    weight = 4.0 * n_c - x_c**2
    assert np.allclose(d2.values, weight * np.outer(w, w), atol=1e-9)


PER_ENTRY_BASES = [
    MonomialBasis.graded(BasisKind.AA, 10),
    MonomialBasis.graded(BasisKind.QUAD, 10),
    MonomialBasis.graded(BasisKind.XN, 10),
    MonomialBasis.number_chain(6),
    MonomialBasis(BasisKind.XN_WEIGHTED, ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2))),
]


@pytest.mark.parametrize("basis", PER_ENTRY_BASES, ids=lambda b: f"{b.kind.value}-{b.size}")
@pytest.mark.parametrize("seed", range(3))
def test_build_matrix_matches_per_entry_formulas(seed, basis):
    phi = 0.37
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderAccuracyWarning)
        table = moment_table(random_density_state(32, seed), basis.required_order())
    got = build_matrix(table, basis, phi).values
    want = long_hand_matrix(table, basis, phi)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_build_matrix_expansion_follows_the_angle():
    """One basis at alternating angles: the one expansion of the basis, with
    the angle applied as a phase on the table, gives each angle's matrix."""
    basis = MonomialBasis.graded(BasisKind.QUAD, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderAccuracyWarning)
        table = moment_table(random_density_state(32, 5), basis.required_order())
    for phi in (0.0, 0.37, 0.0):
        got = build_matrix(table, basis, phi)
        want = long_hand_matrix(table, basis, phi)
        assert got.phi == phi
        assert np.max(np.abs(got.values - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("seed", range(3))
def test_witnesses_match_long_hand_formulas(seed):
    phi = 0.37
    table = moment_table(random_density_state(32, seed), 4)
    e = table.entry
    mat = np.array(
        [
            [1.0, e(2, 0), e(0, 2)],
            [e(0, 2), e(2, 2), e(0, 4)],
            [e(2, 0), e(4, 0), e(2, 2)],
        ]
    )
    q20, q22, q21, q11 = (
        quad_expectation(table, x, p, phi).real
        for x, p in ((2, 0), (2, 2), (2, 1), (1, 1))
    )
    wants = (np.linalg.det(mat).real, q20 * q22 - q21**2, q22 - q11**2)
    gots = (s3(table),) + s2_witnesses(table, phi)
    for got, want in zip(gots, wants):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_build_matrix_kind_routing():
    table = symbolic_table(6)
    phi = 0.4
    assert np.array_equal(
        build_matrix(table, MonomialBasis.number_chain(3), phi).values,
        build_matrix_d2(table, size=3, phi=phi).values,
    )
    with pytest.raises(ValidationError):
        build_matrix_d2(table, size=0)


def test_build_matrix_insufficient_order():
    state = make_coherent(0.3, 32)
    small = moment_table(state, 2)
    with pytest.raises(InsufficientOrderError):
        build_matrix(small, MonomialBasis.graded(BasisKind.AA, 6))


def test_build_matrix_expands_a_basis_once_for_every_angle():
    """The expansion is cached per basis; an angle is a phase on the table."""
    # a basis no other test builds, so its one expansion is this test's miss
    basis = MonomialBasis(BasisKind.XN, ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 3)))
    table = moment_table(make_thermal(1.0, 64), basis.required_order())
    misses = criteria._expansion.cache_info().misses
    for phi in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False):
        build_matrix(table, basis, float(phi))
    assert criteria._expansion.cache_info().misses == misses + 1


@pytest.mark.parametrize("top", [2, 4, 8, 20, 30])
def test_rotation_equals_the_full_phase_grid(top):
    """The ``2K + 1`` distinct phases, indexed by ``k - l``, give the bits of
    ``e^{i (k - l) phi}`` exponentiated over the whole ``(K + 1)^2`` grid."""
    rng = np.random.default_rng(top)
    values = rng.standard_normal((2, top + 1, top + 1, 2)).view(complex)[..., 0]
    k = np.arange(top + 1)
    for phi in (0.37, 1.3, -2.9, 1e-300, 40.0):
        grid = np.exp(1j * phi * (k[:, None] - k[None, :]))
        assert np.array_equal(criteria._rotate(values, phi), values * grid), phi


def test_aa_matrices_have_no_angle():
    basis = MonomialBasis.graded(BasisKind.AA, 10)
    table = moment_table(random_density_state(32, 2), basis.required_order())
    want = build_matrix(table, basis).values
    for phi in (0.37, -1.2, 3.0, 100.0):
        got = build_matrix(table, basis, phi)
        assert got.phi == phi
        assert np.array_equal(got.values, want)
    assert criteria._rotate(table.values, 0.0) is table.values


@settings(max_examples=40, deadline=None)
@given(
    nbar=st.floats(0.5, 1.5),
    weight=st.floats(0.0, 0.5),
    ket=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=4, max_size=4),
    phi=st.floats(-math.pi, math.pi),
)
def test_quad_complete_degree_determinants_are_angle_free(nbar, weight, ket, phi):
    """A rotation acts with determinant 1 on each degree of the quadrature
    monomials, so ``d_N`` at complete degrees ``N = 1, 3, 6, 10`` is the
    same at every angle.  The states are thermal states mixed with a low
    Fock ket, kept where every block is well conditioned once equilibrated
    (a mixture can be nonclassical, and a block of an indefinite matrix
    can be near singular where the whole is not)."""
    ket = np.array(ket + [0.0] * 60, dtype=complex)
    assume(np.linalg.norm(ket) > 0.1)
    ket /= np.linalg.norm(ket)
    rho = (1.0 - weight) * make_thermal(nbar, 64).matrix + weight * np.outer(ket, ket.conj())
    basis = MonomialBasis.graded(BasisKind.QUAD, 10)
    table = moment_table(DensityState(rho), basis.required_order())
    at_zero = build_matrix(table, basis).values
    scale = 1.0 / np.sqrt(np.diag(at_zero).real)
    equilibrated = scale[:, None] * at_zero * scale
    orders = (1, 3, 6, 10)
    assume(all(np.linalg.cond(equilibrated[:n, :n]) < 1e4 for n in orders))
    at_phi = build_matrix(table, basis, phi).values
    for n in orders:
        want = np.linalg.det(at_zero[:n, :n]).real
        got = np.linalg.det(at_phi[:n, :n]).real
        assert abs(got - want) <= 1e-12 * abs(want), n


def test_moment_matrix_rejects_non_hermitian():
    basis = MonomialBasis.graded(BasisKind.AA, 2)
    with pytest.raises(ValidationError):
        MomentMatrix(basis, 0.0, np.array([[1.0, 1j], [1j, 1.0]]))
    with pytest.raises(ValidationError, match=r"shape \(3, 3\) does not match basis size 2"):
        MomentMatrix(basis, 0.0, np.eye(3))


# ---------------------------------------------------------------------------
# witnesses


def test_s3_thermal_closed_form():
    # diag(1, 2 nbar^2, 2 nbar^2) at nbar = 1 -> determinant 4
    state = make_thermal(1.0, 128)
    assert s3(state) == pytest.approx(4.0, rel=1e-8)


def test_s3_coherent_vanishes():
    assert abs(s3(make_coherent(0.8 + 0.2j, 64))) < 1e-10


def test_s2_witnesses_closed_forms():
    # coherent: both vanish identically; thermal: 8 nbar^3 and 4 nbar^2
    for phi in (0.0, 0.7):
        s2a, s2b = s2_witnesses(make_coherent(0.5 - 0.4j, 64), phi)
        assert abs(s2a) < 1e-10 and abs(s2b) < 1e-10
    nbar = 0.5
    s2a, s2b = s2_witnesses(make_thermal(nbar, 96), 0.3)
    assert s2a == pytest.approx(8 * nbar**3, rel=1e-8)
    assert s2b == pytest.approx(4 * nbar**2, rel=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_s3_equals_quarter_product_of_asq_extrema(seed):
    state = random_pure_state(32, seed + 40)
    amin, amax = asq_min_max(state)
    assert s3(state) == pytest.approx(0.25 * amin * amax, rel=1e-9)


def test_asq_variance_angle_sweep_respects_extrema():
    state = random_pure_state(32, 77)
    amin, amax = asq_min_max(state)
    sweep = [asq_variance(state, phi) for phi in np.linspace(0, math.pi, 64)]
    assert min(sweep) >= amin - 1e-12
    assert max(sweep) <= amax + 1e-12
    # the scan brackets the true extrema tightly at this resolution
    assert min(sweep) == pytest.approx(amin, abs=1e-2 * (1 + abs(amin)))


def test_squeezed_vacuum_quadrature_determinant_value():
    state = apply_squeeze(make_fock(0, 64), 0.5)
    report = determinant_hierarchy(state, "quad", 2)
    n, value = report.determinants[0]
    assert n == 2
    assert value == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-10)
    assert report.first_negative_order == 2


def test_principal_minor_fock_number_direction():
    state = make_fock(1, 16)
    matrix = build_matrix(
        moment_table(state, 4), MonomialBasis.graded(BasisKind.AA, 6)
    )
    # {1, a^dag a} minor: <:n^2:> - <n>^2 = -n for a Fock state
    assert principal_minor(matrix, [0, 4]) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        principal_minor(matrix, [])
    with pytest.raises(ValidationError):
        principal_minor(matrix, [0, 0])
    with pytest.raises(ValidationError):
        principal_minor(matrix, [0, 6])


# ---------------------------------------------------------------------------
# hierarchy reports


def test_hierarchy_thermal_all_kinds_stay_classical():
    state = make_thermal(0.8, 96)
    for kind in ("aa", "quad", "xn", "d2"):
        report = determinant_hierarchy(state, kind, 3)
        assert report.first_negative_order is None
        assert not report.nonclassical


def test_hierarchy_aa_reports_but_never_classifies_order_two():
    state = make_thermal(0.6, 96)
    report = determinant_hierarchy(state, "aa", 3)
    orders = [n for n, _ in report.determinants]
    assert orders == [2, 3]
    # d_2 = <n> - |<a>|^2, a variance that is nonnegative for every state
    assert report.determinants[0][1] == pytest.approx(0.6, rel=1e-9)


def test_hierarchy_validates_inputs():
    state = make_thermal(0.5, 64)
    with pytest.raises(ValidationError):
        determinant_hierarchy(state, "aa", 1)
    with pytest.raises(ValidationError):
        determinant_hierarchy(state, "quad", 2, tolerance=0.0)
    with pytest.raises(ValueError):
        determinant_hierarchy(state, "bogus", 2)


def test_hierarchy_refuses_a_determinant_beyond_the_float_range():
    """The d2 matrix of thermal nbar 0.5 at n_max 24 reads moments of order
    48 at dim 64; one of its leading determinants overflows, and a report
    holding it once reached the JSON writer."""
    with pytest.warns(OrderAccuracyWarning):
        table = moment_table(make_thermal(0.5, 64), 48)
    with pytest.raises(NumericConsistencyError, match=r"^d2 determinant d_\d+ is "
                       r"(-?inf|nan): it leaves the float range$"):
        determinant_hierarchy(table, "d2", 24)


def overflowing_table() -> MomentTable:
    """A finite table whose ``quad`` matrix leaves the float range:
    ``<:x^2 p^2:>`` is ``2 <a^dag^2 a^2> = 2e308`` plus finite terms."""
    values = np.zeros((5, 5), dtype=complex)
    values[0, 0] = 1.0
    values[2, 2] = 1e308
    return MomentTable(values)


def test_hierarchy_refuses_a_matrix_beyond_the_float_range():
    """The table is finite and its matrix is not: refused, without a numpy
    warning, with the message build_matrix gives."""
    table = overflowing_table()
    with pytest.raises(ValidationError, match="^moment matrix entries must be finite$"):
        determinant_hierarchy(table, "quad", 6)
    with pytest.raises(ValidationError, match="^moment matrix entries must be finite$"):
        build_matrix(table, MonomialBasis.graded(BasisKind.QUAD, 6))


def test_hierarchy_builds_no_moment_matrix(monkeypatch):
    """The hierarchy reads the gathered matrix itself; its report is the
    one of the matrix build_matrix wraps."""
    table = moment_table(random_density_state(64, 3), 8)
    want = [determinant_hierarchy(table, kind, 4, phi=0.37) for kind in ("aa", "quad", "xn", "d2")]

    def refuse(*args, **kwargs):
        raise AssertionError("determinant_hierarchy built a MomentMatrix")

    monkeypatch.setattr(criteria, "MomentMatrix", refuse)
    got = [determinant_hierarchy(table, kind, 4, phi=0.37) for kind in ("aa", "quad", "xn", "d2")]
    assert got == want


def test_hierarchy_basis_is_built_once_per_checked_order():
    assert criteria._hierarchy_basis("aa", 7) is criteria._hierarchy_basis(BasisKind.AA, 7)
    assert criteria._hierarchy_basis("d2", np.int64(5)) is criteria._hierarchy_basis("d2", 5)
    # 1 and 4 are cached now; True and 4.0 hash like them and are refused
    criteria._hierarchy_basis("d2", 1)
    criteria._hierarchy_basis("d2", 4)
    for n_max in (True, 4.0):
        with pytest.raises(ValidationError):
            criteria._hierarchy_basis("d2", n_max)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_moment_matrix_refuses_non_finite_entries(bad):
    """The Hermitian check reads ``residue > tol``, which NaN passes."""
    basis = MonomialBasis.graded(BasisKind.AA, 2)
    for entries in ([(0, 1), (1, 0)], [(1, 1)]):
        values = np.eye(2, dtype=complex)
        for entry in entries:
            values[entry] = bad
        with pytest.raises(ValidationError, match="finite"):
            MomentMatrix(basis, 0.0, values)


def test_witnesses_of_a_state_sit_beside_its_report():
    """A report holds its hierarchy alone; the witnesses are a call of their own."""
    state = apply_squeeze(make_fock(0, 64), 0.5)
    report = determinant_hierarchy(state, "quad", 3, phi=0.0)
    assert "witnesses" not in {f.name for f in dataclasses.fields(report)}
    values = witnesses(state)
    assert set(values) == {"s3", "s2A", "s2B", "asq_min", "asq_max"}
    assert values["asq_min"] <= values["asq_max"]


def test_a_report_reads_no_moment_beyond_its_basis():
    """An order-4 defect fails the witnesses but not an order-2 report.

    The exact table of the real coherent state ``alpha = 10`` with an
    imaginary residue ``1e-7`` on the real moment ``<a^dag^2 a^2>``, the
    order-4 entry whose imaginary part a witness checks unsymmetrized: the
    symmetry check lets it pass at the entry's scale ``1e4``, and the
    witnesses' covariance check refuses it.  ``quad`` n_max 3 reads only
    moments ``<a^dag^k a^l>`` with ``k + l <= 2``.
    """
    k = np.arange(5)
    exact = 10.0 ** (k[:, None] + k[None, :]) + 0j
    values = exact.copy()
    values[2, 2] += 1e-7j
    table = MomentTable(values)
    report = determinant_hierarchy(table, "quad", 3)
    assert report == determinant_hierarchy(MomentTable(exact), "quad", 3)
    assert not report.nonclassical
    with pytest.raises(NumericConsistencyError, match="amplitude-squared covariance"):
        witnesses(table)


def test_fock_state_number_hierarchy_flags():
    """Leading aa determinants flag |2> at N = 5; |1> needs the minor.

    For |1> the a^2 row of the moment matrix vanishes, so every leading
    determinant from N = 4 on is exactly zero even though the {1, a^dag a}
    principal minor is -1 — the leading hierarchy alone is not exhaustive.
    """
    one = determinant_hierarchy(make_fock(1, 32), "aa", 5)
    assert not one.nonclassical
    assert dict(one.determinants) == pytest.approx(
        {2: 1.0, 3: 1.0, 4: 0.0, 5: 0.0}, abs=1e-12
    )
    two = determinant_hierarchy(make_fock(2, 32), "aa", 5)
    assert two.nonclassical
    assert two.first_negative_order == 5
    assert dict(two.determinants)[5] == pytest.approx(-16.0, rel=1e-9)


# ---------------------------------------------------------------------------
# the witness kernel against the matrix-by-matrix route

_S3_BASIS = MonomialBasis(BasisKind.AA, ((0, 0), (2, 0), (0, 2)))
_S2_BASIS = MonomialBasis(BasisKind.QUAD, ((0, 0), (0, 1), (1, 1)))
# (first reported, first classified) order of each kind
_STARTS = {"aa": (2, 3), "quad": (2, 2), "xn": (2, 2), "d2": (1, 1)}


def matrix_by_matrix_witnesses(table, phi):
    """The five witnesses with one ``MomentMatrix`` and one ``det`` each.

    Read in the order of a report: the asq covariance, ``s2A``, ``s2B``,
    ``s3``.  ``criteria.as_real`` is looked up at call time so that a test
    can record the checks.
    """
    e = table.entry
    b = e(0, 4) - e(0, 2) ** 2
    c = criteria.as_real(e(2, 2) - abs(e(0, 2)) ** 2, "amplitude-squared covariance")
    s2 = build_matrix(table, _S2_BASIS, phi)
    s2a, s2b = principal_minor(s2, (1, 2)), principal_minor(s2, (0, 2))
    return {
        "s3": principal_minor(build_matrix(table, _S3_BASIS), (0, 1, 2)),
        "s2A": s2a,
        "s2B": s2b,
        "asq_min": 2.0 * (c - abs(b)),
        "asq_max": 2.0 * (c + abs(b)),
    }


def kernel_rows(found: dict) -> list[dict]:
    """The witness kernel's arrays as one dict of floats per table."""
    count = len(found["s3"])
    assert all(values.shape == (count,) for values in found.values())
    return [{name: float(values[i]) for name, values in found.items()}
            for i in range(count)]


def matrix_by_matrix_report(table, kind, n_max, phi):
    """``(determinants, first_negative_order)`` of a hierarchy.

    The hierarchy as one ``det`` of each leading block.
    """
    report_start, classify_start = _STARTS[kind]
    if kind == "d2":
        basis = MonomialBasis.number_chain(n_max)
    else:
        basis = MonomialBasis.graded(kind, n_max)
    matrix = build_matrix(table, basis, phi)
    tol_eff = DEFAULT_TOLERANCE * max(1.0, float(np.max(np.abs(matrix.values))))
    determinants = tuple(
        (n, criteria.as_real(
            complex(np.linalg.det(matrix.values[:n, :n])), f"leading {n}x{n} determinant"
        ))
        for n in range(report_start, n_max + 1)
    )
    first = next(
        (n for n, v in determinants if n >= classify_start and v < -tol_eff), None
    )
    return determinants, first


def _coherent_mixture(amp: float) -> DensityState:
    """The classical mixture of ``|A>, |-A>, |iA>, |-iA/2>`` at dim 200."""
    kets = [make_coherent(a, 200).amplitudes for a in (amp, -amp, 1j * amp, -0.5j * amp)]
    return DensityState(sum(np.outer(k, k.conj()) for k in kets) / len(kets))


_STANDARD = [(kind, n) for kind in ("aa", "quad", "xn", "d2") for n in (4, 10)]
ORACLE_CASES = {
    "fock": (lambda: make_fock(3, 64), _STANDARD),
    "coherent": (lambda: make_coherent(0.9 - 0.5j, 64), _STANDARD),
    "thermal": (lambda: make_thermal(1.2, 64), _STANDARD),
    "squeezed": (lambda: apply_squeeze(make_fock(0, 64), 0.4 + 0.2j), _STANDARD),
    "ass": (lambda: make_ass_state(3, 1.4, 64)[0], _STANDARD),
    "lowrank": (lambda: random_density_state(64, 3), _STANDARD),
    "mixture-A2": (lambda: _coherent_mixture(2.0), _STANDARD + [("d2", 13)]),
    "mixture-A3": (lambda: _coherent_mixture(3.0), _STANDARD + [("d2", 15)]),
    "mixture-A4": (lambda: _coherent_mixture(4.0), _STANDARD + [("d2", 14)]),
}


def oracle_table(case: str) -> MomentTable:
    """The table of an ``ORACLE_CASES`` state, at the order its hierarchies need."""
    make, hierarchies = ORACLE_CASES[case]
    order = max(
        2 * n if kind == "d2" else MonomialBasis.graded(kind, n).required_order()
        for kind, n in hierarchies
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderAccuracyWarning)
        return moment_table(make(), order)


@pytest.mark.parametrize("phi", [0.0, 0.37])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_hierarchy_equals_the_matrix_by_matrix_route(case, phi):
    """Bit for bit: the same determinants and verdict."""
    table = oracle_table(case)
    for kind, n in ORACLE_CASES[case][1]:
        report = determinant_hierarchy(table, kind, n, phi=phi)
        determinants, first = matrix_by_matrix_report(table, kind, n, phi)
        assert report.determinants == determinants, (kind, n)
        assert report.first_negative_order == first, (kind, n)


@pytest.mark.parametrize("phi", [0.0, 0.37])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_witnesses_equal_the_matrix_by_matrix_route(case, phi):
    """Bit for bit and in the same key order, on the hierarchies' tables."""
    table = oracle_table(case)
    got, want = witnesses(table, phi), matrix_by_matrix_witnesses(table, phi)
    assert got == want
    assert list(got) == list(want)


def test_witness_kernel_slices_equal_one_table_calls():
    """Each table of a stack gets the bits of its one-table calls."""
    stack = ass_moment_tables(3, [0.5, 0.8, 1.3, 1.7, 2.4, 3.1]).values
    tables = [MomentTable(values) for values in stack]
    got = kernel_rows(criteria._witnesses(stack.reshape(2, 3, 5, 5), 0.37))
    assert len(got) == len(tables)
    for table, witnesses in zip(tables, got):
        assert [witnesses] == kernel_rows(criteria._witnesses(table.values, 0.37))
        assert witnesses == matrix_by_matrix_witnesses(table, 0.37)
        assert witnesses["s3"] == s3(table)
        assert (witnesses["s2A"], witnesses["s2B"]) == s2_witnesses(table, 0.37)
        assert (witnesses["asq_min"], witnesses["asq_max"]) == asq_min_max(table)
    # tables above the witness order: the kernel reads only orders <= 4
    tables = [moment_table(random_density_state(64, seed), 8) for seed in range(4)]
    got = kernel_rows(criteria._witnesses(np.stack([t.values for t in tables]), 0.0))
    assert got == [matrix_by_matrix_witnesses(t, 0.0) for t in tables]


def test_witness_checks_run_in_the_matrix_by_matrix_order(monkeypatch):
    """Every imaginary-residue check sees the same value, in the same order."""
    calls = []

    def record(value, context):
        # the witness kernel checks arrays, here of one table
        calls.append((context, np.ravel(value).tolist()))
        return value.real

    monkeypatch.setattr(criteria, "as_real", record)
    table = moment_table(random_density_state(64, 7), 8)
    for kind, n in (("aa", 6), ("quad", 4), ("d2", 3)):
        determinant_hierarchy(table, kind, n, phi=0.37)
        got = list(calls)
        calls.clear()
        matrix_by_matrix_report(table, kind, n, 0.37)
        assert got == calls
        assert all(c.startswith("leading") for c, _ in got)
        calls.clear()
    witnesses(table, 0.37)
    got = list(calls)
    calls.clear()
    matrix_by_matrix_witnesses(table, 0.37)
    assert got == calls
    assert [c for c, _ in got] == [
        "amplitude-squared covariance", "principal minor", "principal minor",
        "principal minor",
    ]


def tampered_coherent_table(seed: int, covariance_residue: complex = 0.0) -> MomentTable:
    """A bright coherent table with one entry pair nudged by ~1e-9.

    Its moment matrices are nearly singular with entries up to ~1e13, so
    their determinants carry imaginary roundoff beyond ``as_real``'s bound.
    ``covariance_residue`` is added to ``<a^dag^2 a^2>``; that entry's own
    scale, ``|alpha|^4`` (above ``2.6e10`` for every seed used), lets the
    symmetry check pass a residue of ``1j``.
    """
    rng = np.random.default_rng(seed)
    alpha = complex(*rng.normal(size=2)) * 10 ** rng.uniform(0, 3)
    k = np.arange(5)
    values = np.conj(alpha) ** k[:, None] * alpha ** k[None, :]
    i, j = sorted(rng.choice(5, 2, replace=False))
    values[i, j] *= 1 + 1e-9 * complex(*rng.normal(size=2))
    values[j, i] = np.conj(values[i, j])
    values[2, 2] += covariance_residue
    return MomentTable(values)


def _outcome(route):
    try:
        return "value", route()
    except NumericConsistencyError as exc:
        return "raised", str(exc)


def test_tampered_tables_raise_what_the_matrix_by_matrix_route_raises():
    raised = []
    for seed in (10, 202, 225, 249, 406, 420, 423, 464):
        for residue in (0.0, 1j):
            table = tampered_coherent_table(seed, residue)
            for kind, n in (("aa", 6), ("quad", 3), ("d2", 1)):
                report = _outcome(lambda: determinant_hierarchy(table, kind, n))
                want = _outcome(lambda: matrix_by_matrix_report(table, kind, n, 0.0))
                if want[0] == "value":
                    assert report[0] == "value"
                    r = report[1]
                    assert (r.determinants, r.first_negative_order) == want[1]
                else:
                    assert report == want, (seed, residue, kind)
                    raised.append(want[1].split(" should")[0])
            got = _outcome(lambda: witnesses(table))
            want = _outcome(lambda: matrix_by_matrix_witnesses(table, 0.0))
            assert got == want, (seed, residue)
            if want[0] == "raised":
                raised.append(want[1].split(" should")[0])
    assert "amplitude-squared covariance" in raised
    assert any(c == "principal minor" or c.startswith("leading") for c in raised)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_and_tolerances_are_refused(bad):
    table = moment_table(make_thermal(0.5, 64), 8)
    basis = MonomialBasis.graded(BasisKind.QUAD, 3)
    misses = criteria._expansion.cache_info().misses
    calls = [
        lambda: determinant_hierarchy(table, "quad", 3, phi=bad),
        lambda: determinant_hierarchy(table, "quad", 3, tolerance=bad),
        lambda: build_matrix(table, basis, bad),
        lambda: s2_witnesses(table, bad),
        lambda: asq_variance(table, bad),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()
    assert criteria._expansion.cache_info().misses == misses


@pytest.mark.parametrize("n_max", [4.0, True, "4", -1])
def test_hierarchy_order_must_be_an_integer(n_max):
    table = moment_table(make_thermal(0.5, 64), 8)
    with pytest.raises(ValidationError):
        determinant_hierarchy(table, "d2", n_max)
    assert determinant_hierarchy(table, "d2", np.int64(4)) == determinant_hierarchy(
        table, "d2", 4
    )


@pytest.mark.parametrize("indices", [[0, 1.7], [True, 2], [0, "1"], [-1, 0]])
def test_principal_minor_indices_must_be_integers(indices):
    matrix = build_matrix(
        moment_table(make_fock(1, 16), 4), MonomialBasis.graded(BasisKind.AA, 6)
    )
    with pytest.raises(ValidationError):
        principal_minor(matrix, indices)
    assert principal_minor(matrix, np.array([0, 4])) == principal_minor(matrix, [0, 4])


# ---------------------------------------------------------------------------
# Bochner


def test_bochner_rejects_duplicates():
    """The error names the first coinciding pair in row-major order."""
    state = make_fock(0, 8)
    with pytest.raises(DuplicatePointError, match=r"^points 0 and 1 coincide at 0j$"):
        bochner_det(state, [0.0, 1e-13])
    with pytest.raises(DuplicatePointError, match=r"^points 0 and 3 coincide at 0j$"):
        bochner_det(state, [0.0, 1.0, 0.5j, 1e-13, 1.0])
    with pytest.raises(
        DuplicatePointError, match=r"^points 1 and 3 coincide at \(1\+0j\)$"
    ):
        bochner_det(state, [0.0, 1.0, 0.5j, 1.0 + 1e-13j])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, 0.3)])
def test_bochner_det_rejects_non_finite_points(bad):
    state = make_coherent(0.5, 16)
    with pytest.raises(ValidationError, match="finite"):
        bochner_det(state, [0.0, bad])
    with pytest.raises(ValidationError, match="finite"):
        bochner_det(state, [bad, 0.3, -0.2j])
    with pytest.raises(ValidationError, match="need at least one point"):
        bochner_det(state, [])


def test_bochner_fock_one_laguerre_sign():
    state = make_fock(1, 32)
    # Phi(beta) = 1 - |beta|^2; order-2 determinant 1 - (1 - |b|^2)^2
    for b in (0.5, 1.6, 2.0):
        want = 1.0 - (1.0 - b * b) ** 2
        assert bochner_det(state, [0.0, b]) == pytest.approx(want, abs=1e-9)
    assert bochner_det(state, [0.0, 1.8]) < -1.0


def test_bochner_thermal_nonnegative():
    state = make_thermal(1.0, 96)
    rng = np.random.default_rng(1)
    for _ in range(5):
        pts = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert bochner_det(state, list(pts)) >= -1e-10


def test_bochner_scorer_computes_mirror_pairs_once():
    """The search's scorer computes each pair ``±beta`` of a call once, in
    one kernel call, and reads the mirrors as conjugates."""
    kernel = moments._CharKernel(make_fock(0, 16))
    calls = []

    def evaluate(betas):
        calls.append(len(betas))
        return kernel(betas)

    # differences -0.7, -0.4j, 0.7 - 0.4j and their mirrors 0.7, 0.4j, -0.7 + 0.4j
    points = np.array([[0.0, 0.7, 0.4j], [0.0, -0.7, -0.4j]])
    close, dets, computed = criteria._bochner_dets(evaluate, points)
    assert calls == [3] and computed == 3
    assert not close.any() and dets[1] == dets[0].conj()


def test_bochner_separation_boundary_is_shared():
    """Points exactly ``1e-12`` apart are scored, ``0.9e-12`` apart are not,
    in ``bochner_det`` and in the scorer of the search alike."""
    state = make_fock(1, 16)
    assert math.isfinite(bochner_det(state, [0.0, 1e-12]))
    with pytest.raises(DuplicatePointError, match="points 0 and 1"):
        bochner_det(state, [0.0, 0.9e-12])
    points = np.array([[0.0, 1e-12], [0.0, 0.9e-12], [0.0, 1e-12j]])
    close, dets, computed = criteria._bochner_dets(moments._CharKernel(state), points)
    assert close.tolist() == [[False], [True], [False]]
    assert dets.shape == (2,) and computed == 2


def test_bochner_search_lattice_skips_coinciding_tuples(monkeypatch):
    """With a separation wider than the lattice spacing, some tuples are
    skipped, and the lattice minimum is still the determinant of its own
    points."""
    monkeypatch.setattr(criteria, "_MIN_SEPARATION", 0.6)
    state = make_fock(1, 72)
    result = bochner_search(state, k=3, radius=2.0, grid_n=9, refine_iters=0)
    pts = np.array(result.points)
    assert np.abs(pts[:, None] - pts[None, :])[np.triu_indices(3, 1)].min() >= 0.6
    assert result.value == bochner_det(state, result.points)
    with pytest.raises(DuplicatePointError):
        bochner_det(state, [0.0, 0.5])


def test_bochner_search_refuses_a_lattice_of_coinciding_points():
    """A lattice finer than the separation has no tuple ``bochner_det``
    accepts, so the search refuses it instead of returning such points."""
    with pytest.raises(DuplicatePointError, match="lattice"):
        bochner_search(make_fock(1, 16), k=2, radius=1e-13)


def test_bochner_det_values_belong_to_its_state():
    """``bochner_det`` once took a ``cache`` keyed by argument alone, so a
    cache shared across states returned the first state's ``Phi``: thermal
    nbar 0.5 read -4.0176 after Fock |1>, a classical state flagged
    nonclassical.  No ``Phi`` outlives a scorer call now."""
    fock, thermal = make_fock(1, 32), make_thermal(0.5, 32)
    with pytest.raises(TypeError):
        bochner_det(fock, [0.0, 1.8], cache={})
    assert bochner_det(fock, [0.0, 1.8]) < -1.0
    # Phi(beta) = exp(-nbar |beta|^2) for a thermal state
    want = 1.0 - math.exp(-2 * 0.5 * 1.8**2)
    assert bochner_det(thermal, [0.0, 1.8]) == pytest.approx(want, abs=1e-12)


def test_bochner_search_squeezed_vacuum_finds_violation():
    state = apply_squeeze(make_fock(0, 64), 0.5)
    result = bochner_search(state, k=2, radius=2.0, grid_n=9)
    assert isinstance(result, BochnerResult)
    assert result.value < -1.0
    assert result.points[0] == 0.0
    assert len(result.points) == 2
    assert result.evaluations > 0


def test_bochner_search_classical_states_stay_nonnegative():
    coherent = make_coherent(0.7, 48)
    assert bochner_search(coherent, k=2, radius=1.5, grid_n=5).value >= -1e-9
    assert bochner_search(coherent, k=3, radius=1.5, grid_n=5).value >= -1e-9
    vacuum = make_fock(0, 16)
    assert bochner_search(vacuum, k=4, radius=1.0, grid_n=4).value >= -1e-9


def test_bochner_search_validates():
    state = make_fock(0, 8)
    with pytest.raises(ValidationError):
        bochner_search(state, k=1)
    with pytest.raises(ValidationError):
        bochner_search(state, radius=-1.0)
    # the 2x2 lattice has its four corners outside the disc
    with pytest.raises(ValidationError):
        bochner_search(state, grid_n=2)
    with pytest.raises(ValidationError, match="grid_n must be at least 2"):
        bochner_search(state, grid_n=1)
    for bad in (-5, 2.5, True):
        with pytest.raises(ValidationError, match="refine_iters"):
            bochner_search(state, refine_iters=bad)
    for bad in (-2, 1.0, None):
        with pytest.raises(ValidationError, match="seed"):
            bochner_search(state, seed=bad)
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValidationError, match="k must"):
            bochner_search(state, k=bad)
    for bad in (5.5, 9.0):
        with pytest.raises(ValidationError, match="grid_n must"):
            bochner_search(state, grid_n=bad)
    for bad in (0.0, -1.0, math.inf, -math.inf, math.nan, True, "2", None, 1j):
        with pytest.raises(ValidationError, match="radius must"):
            bochner_search(state, radius=bad)


def test_bochner_search_readme_example():
    """The README's squeezed-vacuum search, pinned bit for bit."""
    state = apply_squeeze(make_fock(0, 64), 0.5)
    result = bochner_search(state, k=2, radius=2.0, grid_n=16)
    assert result.evaluations == 267
    assert result.points == (0j, complex(0.003239632816828821, -1.9998286388641595))
    assert result.value == bochner_det(state, result.points)
    assert result.value == pytest.approx(-11.5288118, abs=1e-6)


def seeding_lattice(radius: float, grid_n: int) -> list[complex]:
    axis = np.linspace(-radius, radius, grid_n)
    return [
        complex(re, im)
        for re in axis
        for im in axis
        if 0.0 < abs(complex(re, im)) <= radius
    ]


@pytest.mark.parametrize(
    "radius, grid_n", [(2.0, 2), (2.0, 3), (2.0, 9), (2.0, 16), (2.0, 17), (1.5, 9), (2.0, 11)]
)
def test_bochner_lattice_is_the_comprehension(radius, grid_n):
    """The array lattice holds the comprehension's points, in its order,
    bit for bit, the origin first."""
    got = criteria._lattice(radius, grid_n)
    want = np.array([0j] + seeding_lattice(radius, grid_n))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_bochner_lattice_keeps_points_on_the_circle():
    """At radius 2 and side 11, twelve lattice points, -1.2 + 1.6i among
    them, have a modulus of 2.0 exactly: they stay in, as ``abs()`` of a
    Python complex keeps them."""
    lattice = criteria._lattice(2.0, 11)
    rim = [complex(b) for b in lattice if abs(complex(b)) == 2.0]
    assert complex(-1.2, 1.6) in rim and len(rim) == 12


SEEDING_STATES = {
    "squeezed": lambda: apply_squeeze(make_fock(0, 40), 0.3 * np.exp(0.4j)),
    "rank-3 rho": lambda: random_density_state(40, 4),
}


@pytest.mark.parametrize("name", sorted(SEEDING_STATES))
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("grid_n", [5, 9])
def test_bochner_lattice_minimum_matches_brute_force(name, k, grid_n):
    """The batched lattice pass finds the minimum of a loop of bochner_det.

    At dim 40 every difference (|beta| <= 3) stays below the warning limit.
    """
    state = SEEDING_STATES[name]()
    lattice = seeding_lattice(1.5, grid_n)
    if k == 2:
        tuples = [[0.0, b] for b in lattice]
    else:
        tuples = [
            [0.0, b2, b3] for i, b2 in enumerate(lattice) for b3 in lattice[i + 1 :]
        ]
    brute = min(bochner_det(state, pts) for pts in tuples)
    seeded = bochner_search(state, k=k, radius=1.5, grid_n=grid_n, refine_iters=0)
    assert seeded.value == pytest.approx(brute, abs=1e-10)
    assert seeded.value == bochner_det(state, seeded.points)
    refined = bochner_search(state, k=k, radius=1.5, grid_n=grid_n, seed=2)
    assert refined.value <= seeded.value
    assert refined.value == bochner_det(state, refined.points)


def test_bochner_search_counts_distinct_arguments():
    state = random_pure_state(16, 1)
    lattice = seeding_lattice(1.0, 5)
    # The lattice is symmetric and Phi(-beta) = conj(Phi(beta)): each pair
    # {beta, -beta} of arguments is computed once.
    seeded = bochner_search(state, k=2, radius=1.0, grid_n=5, refine_iters=0)
    assert seeded.evaluations == len(lattice) // 2
    # The walk scores proposals in blocks: step i is scored at most once per
    # block starting at or before it, so 10 steps add at most 10*11/2 = 55.
    refined = bochner_search(state, k=2, radius=1.0, grid_n=5, refine_iters=10)
    assert len(lattice) // 2 < refined.evaluations <= len(lattice) // 2 + 55


@pytest.mark.parametrize("k, grid_n", [(2, 9), (3, 5)])
def test_bochner_search_evaluations_count_kernel_points(monkeypatch, k, grid_n):
    """``evaluations`` is the number of points the kernel receives, summed
    over every scorer call of the search."""
    received = []
    real = moments._CharKernel.__call__

    def counted(kernel, betas):
        received.append(len(betas))
        return real(kernel, betas)

    monkeypatch.setattr(moments._CharKernel, "__call__", counted)
    state = apply_squeeze(make_fock(0, 40), 0.3 * np.exp(0.4j))
    result = bochner_search(state, k=k, radius=1.5, grid_n=grid_n, refine_iters=40)
    assert len(received) > 1 and result.evaluations == sum(received)


def test_bochner_search_warns_once_per_batched_call():
    state = make_fock(1, 16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # |beta|^2 reaches 4 = dim / 4 on the lattice
        bochner_search(state, k=2, radius=2.0, grid_n=5, refine_iters=0)
    assert [w.category for w in caught] == [OrderAccuracyWarning]


def sequential_walk(state, k, radius, grid_n, seed, refine_iters):
    """The refinement walk scored one step at a time (reference oracle).

    Starts from the lattice minimum and proposes, skips and accepts as the
    greedy walk does, with one public ``bochner_det`` call per scored step.
    Returns the value, the points, the steps whose proposal left the disc
    and the accepted steps.
    """
    seeded = bochner_search(
        state, k=k, radius=radius, grid_n=grid_n, seed=seed, refine_iters=0
    )
    best_value, best_points = seeded.value, list(seeded.points)
    rng = np.random.default_rng(seed + 1)
    outside, accepted = [], []
    for it in range(refine_iters):
        scale = 0.25 * radius * 0.97**it
        proposal = [0.0 + 0.0j] + [
            b + scale * complex(rng.standard_normal(), rng.standard_normal())
            for b in best_points[1:]
        ]
        if any(abs(b) > radius for b in proposal):
            outside.append(it)
            continue
        try:
            value = bochner_det(state, proposal)
        except DuplicatePointError:
            continue
        if value < best_value:
            best_value, best_points = value, proposal
            accepted.append(it)
    return best_value, tuple(best_points), outside, accepted


def unscored_blocks(refine_iters, outside, accepted):
    """First steps of the walk's blocks in which every proposal left the disc."""
    block, start, found = criteria._WALK_BLOCK, 0, []
    while start < refine_iters:
        stop = min(start + block, refine_iters)
        steps = range(start, stop)
        if all(it in outside for it in steps):
            found.append(start)
        hits = [it for it in steps if it in accepted]
        start = hits[0] + 1 if hits else stop
    return found


def loop_refine(kernel, best_value, best_points, radius, seed, refine_iters):
    """The walk with each block's determinants read one at a time
    (reference): ``as_real`` on each in turn, up to the first that improves."""
    k = len(best_points)
    rng = np.random.default_rng(seed + 1)
    noise = rng.standard_normal((refine_iters, k - 1, 2)).view(complex)[..., 0]
    scales = np.array([0.25 * radius * 0.97**it for it in range(refine_iters)])
    start = evaluations = 0
    while start < refine_iters:
        stop = min(start + criteria._WALK_BLOCK, refine_iters)
        proposals = np.zeros((stop - start, k), dtype=complex)
        proposals[:, 1:] = (
            np.array(best_points[1:]) + scales[start:stop, None] * noise[start:stop]
        )
        inside = np.flatnonzero((np.abs(proposals) <= radius).all(axis=1))
        close, dets, computed = criteria._bochner_dets(kernel, proposals[inside])
        evaluations += computed
        for step, det in zip(inside[~close.any(axis=1)], dets):
            value = as_real(complex(det), "Bochner determinant")
            if value < best_value:
                best_value = value
                best_points = [complex(b) for b in proposals[step]]
                stop = start + int(step) + 1
                break
        start = stop
    return best_value, best_points, evaluations


def crafted_scorer(blocks):
    """A stand-in for ``criteria._bochner_dets`` on two-point rows: every
    third row is close, and the other rows read the next crafted block's
    values in turn (10.0, which never improves, past its end and after the
    last block)."""
    blocks = iter(blocks)

    def score(kernel, points):
        close = np.zeros((len(points), 1), dtype=bool)
        close[1::3] = True
        scored = int(np.count_nonzero(~close.any(axis=1)))
        dets = (list(next(blocks, [])) + [10.0] * scored)[:scored]
        return close, np.array(dets, dtype=complex), 7 * len(points) + 1

    return score


WALK_START = (0.0, [0j, 0.1 + 0.2j])


def test_bochner_walk_raises_on_a_residue_before_the_first_improvement(monkeypatch):
    """A residue ahead of the first improving determinant raises what the
    one-at-a-time loop raises, naming that determinant."""
    block = [1.0, 2.0 + 1e-3j, -1.0]
    with pytest.raises(NumericConsistencyError) as scalar:
        as_real(complex(block[1]), "Bochner determinant")
    for walk in (criteria._refine, loop_refine):
        monkeypatch.setattr(criteria, "_bochner_dets", crafted_scorer([block]))
        with pytest.raises(NumericConsistencyError) as raised:
            walk(None, *WALK_START, 1.5, 0, 40)
        assert str(raised.value) == str(scalar.value)


def test_bochner_walk_reads_nothing_behind_the_accepted_determinant(monkeypatch):
    """A residue behind the first improving determinant is never read: the
    step before it is accepted, and the walk and the loop agree."""
    blocks = [[1.0, -1.0, 2.0 + 1e-3j], [3.0, -2.0], [0.5, 0.5, -2.5, -9.0 + 1.0j]]
    results = []
    for walk in (criteria._refine, loop_refine):
        monkeypatch.setattr(criteria, "_bochner_dets", crafted_scorer(blocks))
        results.append(walk(None, *WALK_START, 1.5, 0, 40))
    assert results[0] == results[1]
    assert results[0][0] == -2.5


@pytest.mark.parametrize("k", [2, 3])
def test_bochner_walk_accepts_what_the_loop_accepts(monkeypatch, k):
    """Over a whole walk, with determinants drawn from the proposals, the
    accepted steps, the value and the count of arguments are the loop's."""

    def score(kernel, points):
        close = np.abs(points[:, 1:].real).min(axis=1) < 0.05
        free = points[~close, 1:]
        dets = np.sin(7 * free.real).sum(axis=1) + np.cos(5 * free.imag).sum(axis=1)
        pairs = k * (k - 1) // 2
        return (
            np.repeat(close[:, None], pairs, axis=1),
            dets + 1e-12j * dets,
            3 * len(points),
        )

    monkeypatch.setattr(criteria, "_bochner_dets", score)
    start = (0.5, [0j] + [0.3 + 0.1j * i for i in range(1, k)])
    got = criteria._refine(None, *start, 1.5, 4, 120)
    want = loop_refine(None, *start, 1.5, 4, 120)
    assert got == want and got[0] < start[0]


WALK_STATES = {
    **SEEDING_STATES,
    "fock 1": lambda: make_fock(1, 40),
    "thermal": lambda: make_thermal(0.5, 40),
}
WALK_GRID = {2: 9, 3: 5, 4: 5}


@pytest.mark.parametrize("name", sorted(WALK_STATES))
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("refine_iters", [0, 1, 10, 120, 300])
def test_bochner_walk_replays_sequential_walk(name, k, refine_iters):
    """The blocked walk returns the one-at-a-time walk's value and points bit for bit.

    At seed 0 several walks accept a step whose ``0.97**it`` differs in the
    last ulp from ``0.97 ** np.arange(...)``, and the difference reaches the
    result, so the step scale must be computed as the oracle does.
    """
    state = WALK_STATES[name]()
    want_value, want_points, _, _ = sequential_walk(
        state, k, 1.5, WALK_GRID[k], 0, refine_iters
    )
    got = bochner_search(
        state, k=k, radius=1.5, grid_n=WALK_GRID[k], seed=0, refine_iters=refine_iters
    )
    assert got.value == want_value
    assert got.points == want_points


def test_bochner_walk_replays_skipped_blocks():
    """Fock |1> pins all three free points to the rim: most proposals leave
    the disc, whole blocks go unscored, and nothing is accepted."""
    state = make_fock(1, 40)
    value, points, outside, accepted = sequential_walk(state, 4, 1.5, 5, 0, 120)
    assert len(outside) > 100 and not accepted
    assert unscored_blocks(120, outside, accepted)
    got = bochner_search(state, k=4, radius=1.5, grid_n=5, seed=0, refine_iters=120)
    assert (got.value, got.points) == (value, points)


@pytest.mark.parametrize(
    "make, k, grid_n",
    [
        (lambda: apply_squeeze(make_fock(0, 64), 0.5), 2, 16),
        (lambda: make_thermal(0.5, 64), 2, 16),
        (lambda: make_coherent(0.7, 48), 3, 9),
    ],
    ids=["squeezed", "thermal", "coherent"],
)
def test_bochner_search_scores_walk_in_blocks(monkeypatch, make, k, grid_n):
    """Far fewer kernel evaluations than the 120 walk steps: one per block."""
    state = make()
    calls = []
    real = moments._CharKernel.__call__

    def counted(kernel, betas):
        calls.append(len(betas))
        return real(kernel, betas)

    monkeypatch.setattr(moments._CharKernel, "__call__", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderAccuracyWarning)
        bochner_search(state, k=k, radius=2.0, grid_n=grid_n)
    assert 1 <= len(calls) <= 20
