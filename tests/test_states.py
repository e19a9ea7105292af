"""State constructors, invariants and the Husimi distribution."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from helpers import random_density_state

from nclmoments import (
    DensityState,
    DimensionError,
    FockState,
    TruncationError,
    ValidationError,
    apply_squeeze,
    ass_params,
    make_ass_state,
    make_coherent,
    make_fock,
    make_thermal,
    q_function,
)
from nclmoments.operators import create, destroy, number, squeeze_matrix
from nclmoments.states import State, _hermite_seeds, _squeeze_amplitudes


def test_fock_state_is_unit_vector():
    state = make_fock(3, 8)
    assert state.dim == 8
    assert state.amplitudes[3] == 1.0
    assert np.sum(np.abs(state.amplitudes) ** 2) == 1.0


def test_fock_rejects_out_of_range():
    with pytest.raises(DimensionError):
        make_fock(8, 8)
    with pytest.raises(ValidationError):
        make_fock(-1, 8)


def test_fock_state_normalization_enforced():
    with pytest.raises(ValidationError):
        FockState(np.array([1.0, 1.0]))


def test_fock_state_amplitudes_immutable():
    state = make_fock(0, 4)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_coherent_amplitudes_match_closed_form():
    alpha = 0.7 + 0.3j
    state = make_coherent(alpha, 64)
    ns = np.arange(64)
    factorials = np.array([math.factorial(int(n)) for n in ns], dtype=float)
    expected = np.exp(-abs(alpha) ** 2 / 2) * alpha**ns / np.sqrt(factorials)
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_coherent_truncation_error_suggests_dim():
    with pytest.raises(TruncationError) as excinfo:
        make_coherent(4.0, 8)
    assert excinfo.value.suggested_dim > 8


def plain_coherent(alpha: complex, dim: int) -> np.ndarray:
    """The recurrence from ``exp(-|alpha|^2/2)``, normalized after truncation."""
    amps = np.zeros(dim, dtype=complex)
    amps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps / math.sqrt(float(np.vdot(amps, amps).real))


def test_coherent_amplitudes_are_the_plain_recurrence_bit_for_bit():
    """Wherever ``exp(-|alpha|^2/2)`` is a normal float nothing changes, not even an ulp."""
    for alpha, dim in [(0.5, 64), (1.3 - 0.4j, 64), (-2.5j, 200), (3 + 1j, 200),
                       (26.0, 1200), (37.5 * np.exp(2.1j), 1800)]:
        assert np.array_equal(make_coherent(alpha, dim).amplitudes, plain_coherent(alpha, dim))


def decimal_coherent(alpha: complex, dim: int) -> np.ndarray:
    """Normalized ``<n|alpha>`` for ``alpha`` on an axis, in the log domain.

    ``log|<n|alpha>| = -|alpha|^2/2 + n log|alpha| - log(n!)/2`` in 40-digit
    decimal arithmetic; ``alpha`` must be real or imaginary, so that its
    phase ``(alpha/|alpha|)^n`` is exact.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        mag = Decimal(abs(alpha))
        log_mag, log_fact = mag.ln(), Decimal(0)
        logs = []
        for n in range(dim):
            if n:
                log_fact += Decimal(n).ln()
            logs.append(-mag * mag / 2 + n * log_mag - log_fact / 2)
        mags = [x.exp() for x in logs]
        norm = sum(x * x for x in mags).sqrt()
        mags = np.array([float(x / norm) for x in mags])
    return mags * (alpha / abs(alpha)) ** np.arange(dim)


@pytest.mark.parametrize("alpha", [39.0, -39j], ids=["real", "imaginary"])
def test_coherent_state_beyond_the_exponent_range(alpha):
    """|alpha| = 39: exp(-|alpha|^2/2) underflows, yet dim 1800 holds the state."""
    state = make_coherent(alpha, 1800)
    assert np.max(np.abs(state.amplitudes - decimal_coherent(alpha, 1800))) <= 1e-13


def test_coherent_refuses_non_finite_alpha():
    for bad in (np.nan, complex(np.inf, 0.0)):
        with pytest.raises(ValidationError, match="finite"):
            make_coherent(bad, 8)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_states_refuse_non_finite_entries(bad):
    """The tolerance checks read ``x > tol``, which NaN passes: a NaN thermal
    state was once built, and its hierarchies reported no negativity."""
    with pytest.raises(ValidationError, match="finite"):
        make_thermal(bad, 16)
    with pytest.raises(ValidationError, match="finite"):
        FockState([1.0, bad])
    for entry in [(0, 0), (1, 1), (0, 1)]:
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[entry] = bad
        with pytest.raises(ValidationError, match="finite"):
            DensityState(rho)


@pytest.mark.parametrize("bad", [40.5, 8.0, True, "8", -1])
def test_state_constructors_take_integer_counts(bad):
    """A float dim once built a state of ``int(dim) + 1`` levels, a float
    ``n`` or ``m`` raised a raw ``IndexError`` or ``TypeError``, and
    ``m = True`` was taken as 1."""
    calls = [
        lambda: make_fock(bad, 64),
        lambda: make_fock(1, bad),
        lambda: make_coherent(0.5, bad),
        lambda: make_thermal(0.5, bad),
        lambda: make_ass_state(bad, 1.5, 64),
        lambda: make_ass_state(1, 1.5, bad),
        lambda: ass_params(bad, 1.5),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="must be a nonnegative integer"):
            call()


def test_state_constructors_accept_numpy_integers_and_refuse_dim_zero():
    assert np.array_equal(make_fock(np.int64(2), np.int64(5)).amplitudes, make_fock(2, 5).amplitudes)
    assert make_thermal(0.5, np.int32(40)).dim == 40
    assert ass_params(np.int64(2), 1.5) == ass_params(2, 1.5)
    for call in (
        lambda: make_coherent(0.5, 0),
        lambda: make_thermal(0.5, 0),
        lambda: make_ass_state(1, 1.5, 0),
    ):
        with pytest.raises(DimensionError):
            call()


def test_thermal_moments_and_trace():
    state = make_thermal(1.0, 128)
    assert isinstance(state, DensityState)
    probs = np.diag(state.matrix).real
    assert math.isclose(probs.sum(), 1.0, abs_tol=1e-12)
    n_mean = float(np.sum(probs * np.arange(128)))
    assert math.isclose(n_mean, 1.0, rel_tol=1e-9)


def test_thermal_zero_temperature_is_vacuum():
    """The general formula, ``0 ** 0 = 1`` included, gives the exact vacuum."""
    vacuum = np.zeros((4, 4), dtype=complex)
    vacuum[0, 0] = 1.0
    np.testing.assert_array_equal(make_thermal(0.0, 4).matrix, vacuum)


def test_thermal_truncation_error():
    with pytest.raises(TruncationError):
        make_thermal(5.0, 8)


def test_density_state_validation():
    good = np.diag([0.5, 0.5]).astype(complex)
    DensityState(good)
    with pytest.raises(ValidationError):
        DensityState(np.array([[0.5, 0.3], [0.2, 0.5]], dtype=complex))
    with pytest.raises(ValidationError):
        DensityState(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValidationError):
        DensityState(np.diag([1.5, -0.5]).astype(complex))


def density_with_min_eigenvalue(lowest: float, dim: int, seed: int) -> np.ndarray:
    """Unit-trace Hermitian matrix whose smallest eigenvalue is ``lowest``."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    eigs = rng.random(dim)
    eigs[0] = 0.0
    eigs *= (1.0 - lowest) / eigs.sum()
    eigs[0] = lowest
    rho = (basis * eigs) @ basis.conj().T
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("dim", [2, 9, 200])
def test_density_state_negativity_bound(dim):
    """Eigenvalues down to -1e-10 are roundoff; below that the matrix is refused."""
    for seed in range(3):
        DensityState(density_with_min_eigenvalue(-5e-11, dim, seed))
        DensityState(density_with_min_eigenvalue(0.0, dim, seed))
        with pytest.raises(ValidationError, match="negative eigenvalue -2.0"):
            DensityState(density_with_min_eigenvalue(-2e-10, dim, seed))


def test_squeeze_operator_is_unitary_on_truncation():
    mat = squeeze_matrix(0.4 - 0.2j, 48)
    assert np.allclose(mat.conj().T @ mat, np.eye(48), atol=1e-12)


def test_squeezed_vacuum_photon_number():
    r = 0.5
    state = apply_squeeze(make_fock(0, 64), r)
    n_mean = float(
        np.vdot(state.amplitudes, number(64) @ state.amplitudes).real
    )
    assert math.isclose(n_mean, math.sinh(r) ** 2, rel_tol=1e-12)


def test_squeeze_bogoliubov_action():
    """S(z)^dag a S(z) = cosh(r) a - e^{i theta} sinh(r) a^dag."""
    z = 0.3 * np.exp(0.7j)
    dim = 60
    s = squeeze_matrix(z, dim)
    lhs = s.conj().T @ destroy(dim) @ s
    rhs = math.cosh(abs(z)) * destroy(dim) - np.exp(1j * np.angle(z)) * math.sinh(
        abs(z)
    ) * create(dim)
    # conjugation by the truncated squeeze is only faithful well inside the
    # cutoff; compare the lowest third of the ladder
    keep = dim // 3
    assert np.allclose(lhs[:keep, :keep], rhs[:keep, :keep], atol=1e-7)


def test_squeeze_truncation_error_for_tiny_dim():
    with pytest.raises(TruncationError) as excinfo:
        apply_squeeze(make_fock(0, 6), 1.5)
    assert excinfo.value.suggested_dim == 12


SQUEEZE_DIMS = [1, 2, 3, 7, 32, 64, 96, 128]
SQUEEZE_ZS = [0.0, 0.9, -1.5, 1.2j, -0.7j, 1.5 * np.exp(0.4j), 1.1 * np.exp(-2.3j), 0.3 + 0.2j]


def squeeze_inputs(dim: int) -> list:
    """|0>, ass seeds of the orders that fit, and random complex kets."""
    vacuum = np.zeros(dim, dtype=complex)
    vacuum[0] = 1.0
    inputs = [vacuum]
    for m, lam in [(2, 1.5), (3, 0.7), (5, 1.2)]:
        if m < dim:
            inputs.append(_hermite_seeds(m, [ass_params(m, lam)], dim)[0])
    rng = np.random.default_rng(dim)
    for _ in range(2):
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        inputs.append(raw / np.linalg.norm(raw))
    return inputs


@pytest.mark.parametrize("dim", SQUEEZE_DIMS)
def test_squeeze_matches_dense_expm(dim):
    """The parity-block map equals the dense ``expm`` of the same truncated generator."""
    for z in SQUEEZE_ZS:
        dense = squeeze_matrix(z, dim)
        for psi in squeeze_inputs(dim):
            want = dense @ psi
            assert np.max(np.abs(_squeeze_amplitudes(psi, z) - want)) <= 1e-13, z
            try:
                got = apply_squeeze(FockState(psi), z).amplitudes
            except TruncationError:
                band = max(2, dim // 8)
                assert np.sum(np.abs(want[dim - band :]) ** 2) > 1e-8
                continue
            assert np.max(np.abs(got - want / np.linalg.norm(want))) <= 1e-13, z


def test_ass_state_is_the_dense_squeeze_of_its_seed():
    for m, lam, dim in [(2, 1.5, 64), (3, 0.7, 96), (4, 1.8, 128)]:
        state, params = make_ass_state(m, lam, dim)
        seed = _hermite_seeds(m, [params], dim)[0]
        want = squeeze_matrix(-params.z, dim) @ seed
        assert np.max(np.abs(state.amplitudes - want / np.linalg.norm(want))) <= 1e-13


def test_squeeze_refuses_non_finite_z():
    for bad in (complex(np.nan, 0.0), np.inf, complex(0.0, -np.inf)):
        with pytest.raises(ValidationError, match="finite"):
            apply_squeeze(make_fock(0, 8), bad)


def test_ass_params_branches():
    above = ass_params(2, 2.0)
    assert above.z.imag == 0.0
    assert above.gamma.imag == 0.0
    assert math.isclose(above.beta.real, math.sqrt(3.0) * 5, rel_tol=1e-12)
    assert math.isclose(
        math.tanh(abs(above.z)) ** 2, 1.0 / 3.0, rel_tol=1e-12
    )
    below = ass_params(1, 0.5)
    assert math.isclose(np.angle(below.z), math.pi / 2, rel_tol=1e-12)
    assert math.isclose(np.angle(below.gamma), math.pi / 4, rel_tol=1e-12)
    assert math.isclose(below.beta.imag, math.sqrt(0.75) * 3, rel_tol=1e-12)
    for params in (above, below):
        assert math.isclose(
            abs(params.mu) ** 2 - abs(params.nu) ** 2, 1.0, abs_tol=1e-12
        )


def test_ass_params_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        ass_params(0, 1.0)
    with pytest.raises(ValidationError):
        ass_params(0, -0.5)
    with pytest.raises(ValidationError):
        ass_params(-1, 2.0)


def test_ass_state_has_parity_of_m():
    for m in range(4):
        state, _ = make_ass_state(m, 1.5, 96)
        wrong_parity = state.amplitudes[(np.arange(96) + m) % 2 == 1]
        assert np.max(np.abs(wrong_parity)) < 1e-14


def test_ass_state_is_eigenstate_of_x_plus_ilambda_y():
    dim = 96
    a, ad = destroy(dim), create(dim)
    x_op = a @ a + ad @ ad
    y_op = 1j * (ad @ ad - a @ a)
    for m, lam in [(0, 1.5), (2, 2.0), (1, 0.5)]:
        state, params = make_ass_state(m, lam, dim)
        op = x_op + 1j * lam * y_op
        residual = np.linalg.norm(
            op @ state.amplitudes - params.beta * state.amplitudes
        )
        assert residual < 1e-7


def test_ass_normalization_matches_closed_form():
    state, params = make_ass_state(3, 1.7, 96)
    # H_3(x) = 8x^3 - 12x, so || H_3(i gamma a^dag)|0> ||^2 expands to
    # 8^2 gamma^6 3! + 12^2 gamma^2, and c_m_sq must be its reciprocal.
    gam = abs(params.gamma)
    total = 64.0 * gam**6 * math.factorial(3) + 144.0 * gam**2
    assert math.isclose(params.c_m_sq, 1.0 / total, rel_tol=1e-12)
    assert math.isclose(
        float(np.sum(np.abs(state.amplitudes) ** 2)), 1.0, abs_tol=1e-12
    )


def test_q_function_vacuum_peak_and_mass():
    vac = make_fock(0, 32)
    axis = np.linspace(-4.0, 4.0, 81)
    grid = axis[:, None] + 1j * axis[None, :]
    values = q_function(vac, grid)
    assert values.shape == grid.shape
    assert math.isclose(values.max(), 1.0 / math.pi, rel_tol=1e-12)
    cell = (axis[1] - axis[0]) ** 2
    assert math.isclose(float(values.sum() * cell), 1.0, abs_tol=1e-3)


def test_q_function_bounded_by_inverse_pi():
    state = make_coherent(1.0, 48)
    axis = np.linspace(-3.0, 3.0, 31)
    grid = axis[:, None] + 1j * axis[None, :]
    values = q_function(state, grid)
    assert values.min() >= 0.0
    assert values.max() <= 1.0 / math.pi + 1e-12


def test_q_function_density_matches_pure():
    pure = make_coherent(0.8 - 0.2j, 40)
    rho = DensityState(np.outer(pure.amplitudes, pure.amplitudes.conj()))
    pts = np.array([0.0, 0.5 + 0.5j, -1.0j])
    assert np.allclose(q_function(pure, pts), q_function(rho, pts), atol=1e-13)


def log_domain_q(state: State, grid) -> np.ndarray:
    """Reference Husimi function in the log-domain form.

    Every ``<n|alpha>`` is ``exp(n log|alpha| - log(n!)/2 - |alpha|^2/2)``
    times ``exp(i n arg alpha)``, evaluated independently, and a density
    matrix is contracted by one three-operand ``einsum``.
    """
    pts = np.asarray(grid, dtype=complex)
    flat = pts.reshape(-1)
    ns = np.arange(state.dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, state.dim)))))
    mag_flat = np.abs(flat)
    safe = np.where(mag_flat > 0.0, mag_flat, 1.0)
    log_mag = ns[None, :] * np.log(safe)[:, None]
    mag = np.exp(log_mag - 0.5 * log_fact[None, :] - 0.5 * (mag_flat**2)[:, None])
    mag[(mag_flat == 0.0)[:, None] & (ns > 0)[None, :]] = 0.0
    coh = mag * np.exp(1j * ns[None, :] * np.angle(flat)[:, None])
    if isinstance(state, FockState):
        vals = np.abs(coh.conj() @ state.amplitudes) ** 2 / math.pi
    else:
        vals = np.einsum("pn,nm,pm->p", coh.conj(), state.matrix, coh).real / math.pi
    return np.maximum(vals, 0.0).reshape(pts.shape)


def exact_q(kets, weights, beta: complex) -> float:
    """``sum_k w_k |<beta|ket_k>|^2 / pi`` in 40-digit decimal arithmetic.

    The float amplitudes and ``beta`` are taken exactly; ``<n|beta>`` runs
    the recurrence from ``exp(-|beta|^2/2)``, which decimal numbers hold
    without underflow.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        b_re, b_im = Decimal(beta.real), Decimal(beta.imag)
        total = Decimal(0)
        for ket, weight in zip(kets, weights):
            t_re, t_im = (-(b_re * b_re + b_im * b_im) / 2).exp(), Decimal(0)
            s_re = s_im = Decimal(0)
            for n, amp in enumerate(ket):
                if n:
                    root = Decimal(n).sqrt()
                    t_re, t_im = (t_re * b_re - t_im * b_im) / root, (
                        t_re * b_im + t_im * b_re
                    ) / root
                a_re, a_im = Decimal(float(amp.real)), Decimal(float(amp.imag))
                s_re += t_re * a_re + t_im * a_im
                s_im += t_re * a_im - t_im * a_re
            total += Decimal(weight) * (s_re * s_re + s_im * s_im)
        return float(total / Decimal(math.pi))


Q_STATES = {
    "coherent": lambda: make_coherent(1.2 - 0.7j, 64),
    "squeezed": lambda: apply_squeeze(make_fock(0, 64), 0.5j),
    "ass": lambda: make_ass_state(3, 1.4, 96)[0],
    "fock-7": lambda: make_fock(7, 200),
    "thermal": lambda: make_thermal(1.5, 128),
    "rank-3 rho": lambda: random_density_state(40, 5),
}


@pytest.mark.parametrize("name", sorted(Q_STATES))
def test_q_function_matches_log_domain_reference(name):
    state = Q_STATES[name]()
    axis = np.linspace(-6.0, 6.0, 25)
    grid = axis[:, None] + 1j * axis[None, :]
    got = q_function(state, grid)
    assert np.max(np.abs(got - log_domain_q(state, grid))) <= 1e-13


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Normalized ``<n|alpha>`` from the log-domain formula (no underflow)."""
    ns = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
    amps = np.exp(
        ns * np.log(abs(alpha)) - 0.5 * log_fact - 0.5 * abs(alpha) ** 2
        + 1j * ns * np.angle(alpha)
    )
    return amps / np.linalg.norm(amps)


# |beta|^2/2 runs from 741 to 800 at these points, so exp(-|beta|^2/2)
# underflows to a subnormal or to zero.
FAR_POINTS = np.array([36 + 15j, 36.5 + 14.5j, 35 + 16.5j, 38.5 + 4j, 15 + 36j, 40j])


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "density"])
def test_q_function_keeps_precision_where_the_gaussian_underflows(mixed):
    """|alpha| about 39 on dim 1800: exact to 1e-13 where exp(-|alpha|^2/2) underflows.

    The log-domain reference rounds its exponent (terms up to 1e4) and is
    itself about 3e-12 off here, so it is required to agree only to within
    its own distance from the exact value, plus 1e-13.
    """
    dim = 1800
    kets = [_coherent_amplitudes(36 + 15j, dim)]
    weights = [1.0]
    if mixed:
        kets.append(_coherent_amplitudes(39j, dim))
        weights = [0.6, 0.4]
        state = DensityState(sum(w * np.outer(k, k.conj()) for w, k in zip(weights, kets)))
    else:
        state = FockState(kets[0])
    got = q_function(state, FAR_POINTS)
    reference = log_domain_q(state, FAR_POINTS)
    exact = np.array([exact_q(kets, weights, complex(b)) for b in FAR_POINTS])
    assert exact.max() > 0.1
    assert np.max(np.abs(got - exact)) <= 1e-13
    assert np.all(np.abs(got - reference) <= np.abs(reference - exact) + 1e-13)


def test_q_function_is_zero_far_beyond_the_basis():
    """No overflow into NaN where |alpha|^n/sqrt(n!) leaves the float range."""
    points = np.array([100.0, -3e4j, 1e7 + 1e7j, 1e13, 1e150])
    for state in (make_fock(5, 64), FockState(_coherent_amplitudes(36 + 15j, 1800))):
        with np.errstate(over="ignore"):
            assert np.array_equal(q_function(state, points), np.zeros(5))


def test_q_function_refuses_non_finite_points():
    for bad in (np.inf, np.nan, complex(0.0, -np.inf)):
        with pytest.raises(ValidationError, match="finite"):
            q_function(make_fock(0, 8), np.array([0.0, bad]))
