"""Measurement simulation and inversion: exact round trips and noise."""

import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    quad_expectation,
    random_density_state,
    random_pure_state,
    scan_harmonics,
    scheme_a_least_squares,
    xn_expectation,
)
from nclmoments import (
    DetectionRecord,
    FockState,
    FourierRecord,
    LOConfig,
    MomentTable,
    NumericConsistencyError,
    SingularInversionError,
    ValidationError,
    WeakOscillatorWarning,
    add_shot_noise,
    apply_squeeze,
    determinant_hierarchy,
    make_fock,
    make_thermal,
    moment_table,
    scheme_a_forward,
    scheme_a_invert,
    scheme_a_phases,
    scheme_a_sample_and_fourier,
    scheme_b_extract,
    scheme_b_forward,
    scheme_c_extract,
    scheme_c_forward,
)
from nclmoments.cli import main
from nclmoments import measurement
from nclmoments.measurement import GAMMA_KEYS
from nclmoments.moments import as_real
from nclmoments.operators import destroy
from nclmoments.serialize import (
    fourier_record_from_json,
    fourier_record_to_json,
    write_json,
)


# ---------------------------------------------------------------------------
# configuration objects


def test_lo_config_default_reflectance():
    lo = LOConfig(alpha=2.0)
    assert lo.t0 == pytest.approx(math.sqrt(0.5))
    assert lo.r0 == pytest.approx(-1j * math.sqrt(0.5))
    blocked = lo.blocked()
    assert blocked.alpha == 0.0
    assert blocked.t0 == lo.t0 and blocked.r0 == lo.r0


def test_lo_config_validation():
    with pytest.raises(ValidationError):
        LOConfig(alpha=1.0, t0=0.0)
    with pytest.raises(ValidationError):
        LOConfig(alpha=1.0, t0=1.0)
    with pytest.raises(ValidationError):
        LOConfig(alpha=1.0, t0=0.6, r0=0.9)  # 0.36 + 0.81 != 1


def test_detection_record_validation():
    lo = LOConfig(alpha=1.0)
    gammas = {k: 0.0 for k in
              ("g1", "g2", "g3", "g4", "g12", "g13", "g14", "g23", "g24", "g34")}
    DetectionRecord(scheme="b", lo=lo, gammas=gammas)
    with pytest.raises(ValidationError):
        DetectionRecord(scheme="a", lo=lo, gammas=gammas)
    with pytest.raises(ValidationError):
        DetectionRecord(scheme="b", lo=lo, gammas={"g1": 0.0})


def test_records_reject_non_finite_values():
    with pytest.raises(ValidationError):
        LOConfig(alpha=complex(math.nan, 0.0))
    with pytest.raises(ValidationError):
        LOConfig(alpha=1.0, t0=0.6, r0=complex(math.inf, 0.0))
    record = scheme_b_forward(make_thermal(0.5, 32), LOConfig(2.0))
    with pytest.raises(ValidationError):
        DetectionRecord(
            scheme="b", lo=record.lo, gammas=dict(record.gammas, g13=math.inf)
        )
    scan = scheme_a_sample_and_fourier(make_thermal(0.5, 32), 2, LOConfig(2.0), 1)
    with pytest.raises(ValidationError):
        FourierRecord(
            depth=1, lo=scan.lo, n_max=2, samples={**scan.samples, (2, 3): math.nan}
        )


def test_fourier_record_detector_count_bound():
    state = random_pure_state(24, 0)
    with pytest.raises(ValidationError):
        scheme_a_sample_and_fourier(state, n_max=5, lo=LOConfig(3.0), depth=2)
    record = scheme_a_sample_and_fourier(state, n_max=4, lo=LOConfig(3.0), depth=2)
    assert record.n_max == 4
    with pytest.raises(ValidationError):
        FourierRecord(
            depth=2, lo=LOConfig(3.0), n_max=1,
            samples={(1, 0): 1.0},  # needs 2n+2 = 4 phases
        )
    # C(2^18, n) leaves the float range from n = 79 on: the record and the
    # scan refuse such a tree before any order is computed
    with pytest.raises(ValidationError, match="incomplete"):
        FourierRecord(depth=18, lo=LOConfig(3.0), n_max=78, samples={})
    with pytest.raises(ValidationError, match=r"C\(2\^18, 79\).*float range"):
        FourierRecord(depth=18, lo=LOConfig(3.0), n_max=79, samples={})
    with pytest.raises(ValidationError, match=r"C\(2\^11, 230\).*float range"):
        scheme_a_sample_and_fourier(state, 230, LOConfig(3.0), 11)


def test_fourier_record_is_its_samples():
    """Harmonics are derived from the samples, never given beside them,
    so a record inverts exactly like its JSON round trip."""
    lo = LOConfig(3.0)
    one = scheme_a_sample_and_fourier(make_fock(1, 8), 2, lo, 1)
    half = scheme_a_sample_and_fourier(make_thermal(0.5, 48), 2, lo, 1)
    fields = [f.name for f in dataclasses.fields(FourierRecord)]
    assert fields == ["depth", "lo", "n_max", "samples"]
    with pytest.raises(TypeError):
        FourierRecord(
            depth=1, lo=lo, n_max=2, samples=one.samples,
            coefficients=scan_harmonics(half),
        )
    records = [
        one,
        FourierRecord(depth=1, lo=lo, n_max=2, samples=dict(one.samples)),
        add_shot_noise(one, 1e4, seed=3),
        scheme_a_sample_and_fourier(
            random_density_state(24, 4), 4, LOConfig(2.0 + 1.0j), 3
        ),
    ]
    for record in records:
        back = fourier_record_from_json(fourier_record_to_json(record))
        assert back == record
        assert scan_harmonics(back) == scan_harmonics(record)
        assert np.array_equal(
            scheme_a_invert(back).values, scheme_a_invert(record).values
        )


def test_fourier_coefficients_conjugate_symmetric():
    state = random_pure_state(24, 1)
    record = scheme_a_sample_and_fourier(state, 3, LOConfig(2.0 + 1.0j), 2)
    harmonics = scan_harmonics(record)
    for n in range(1, 4):
        for m in range(n + 1):
            assert harmonics[(n, -m)] == pytest.approx(np.conj(harmonics[(n, m)]))


# ---------------------------------------------------------------------------
# scheme A


def test_scheme_a_forward_validation():
    state = random_pure_state(16, 2)
    with pytest.raises(ValidationError):
        scheme_a_forward(state, 0, 0.0, LOConfig(1.0), 1)
    with pytest.raises(ValidationError):
        scheme_a_forward(state, 3, 0.0, LOConfig(1.0), 1)


@pytest.mark.parametrize("bad", [1.5, True, -1, "2"])
def test_scheme_a_depth_and_order_are_integers(bad):
    """``depth`` and ``n_max`` are counts wherever a scan or record takes them."""
    lo = LOConfig(3.0)
    table = moment_table(make_thermal(0.5, 32), 4)
    scan = scheme_a_sample_and_fourier(table, 2, lo, 2)
    calls = [
        lambda: scheme_a_forward(table, 1, 0.0, lo, bad),
        lambda: scheme_a_forward(table, bad, 0.0, lo, 2),
        lambda: scheme_a_sample_and_fourier(table, bad, lo, 2),
        lambda: scheme_a_sample_and_fourier(table, 2, lo, bad),
        lambda: FourierRecord(depth=bad, lo=lo, n_max=2, samples=scan.samples),
        lambda: FourierRecord(depth=2, lo=lo, n_max=bad, samples=scan.samples),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()
    assert scheme_a_sample_and_fourier(table, np.int64(2), lo, np.int64(2)) == scan
    assert scheme_a_forward(table, np.int64(1), 0.0, lo, np.int64(2)) == (
        scheme_a_forward(table, 1, 0.0, lo, 2)
    )


def normal_count(state, op) -> float:
    """``<:Q^dag Q:>`` for a product ``op`` of detector modes ``u a + v``.

    Lowering-only products are exact on the truncated space: the norm
    ``||Q psi||^2`` for a pure state, ``Tr(Q rho Q^dag)`` for a density state.
    """
    if isinstance(state, FockState):
        vec = op @ state.amplitudes
        return float(np.vdot(vec, vec).real)
    return float(np.trace(op @ state.matrix @ op.conj().T).real)


@pytest.mark.parametrize("seed", range(3))
def test_scheme_a_forward_matches_operator_route(seed):
    """F_n from the moment expansion vs the single-detector-mode operator.

    Every detector sees M = (t0 a + r0 alpha e^{i phi}) / sqrt(2^d),
    so the n-fold coincidence sum is C(2^d, n) <:M^dag^n M^n:>, on a pure
    and on a density state.
    """
    lo = LOConfig(alpha=1.5 - 0.5j, t0=0.75)
    depth = 2
    for state in (random_pure_state(24, seed + 10),
                  random_density_state(24, seed + 10)):
        dim = state.dim
        a = destroy(dim)
        for n in (1, 2, 3):
            for phi in (0.0, 0.9, 2.4):
                mode = (
                    lo.t0 * a + lo.r0 * lo.alpha * np.exp(1j * phi) * np.eye(dim)
                ) / (2.0 ** (depth / 2.0))
                power = np.linalg.matrix_power(mode, n)
                want = math.comb(2**depth, n) * normal_count(state, power)
                got = scheme_a_forward(state, n, phi, lo, depth)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


FOUR_DETECTOR_STATES = {
    "pure-31": random_pure_state(24, 31),
    "pure-32": random_pure_state(24, 32),
    "thermal": make_thermal(0.7, 48),
}


@pytest.mark.parametrize("name", sorted(FOUR_DETECTOR_STATES))
@pytest.mark.parametrize("scheme", ["b", "c"])
def test_four_detector_forward_matches_operator_route(scheme, name):
    """Every B and C gamma from dense detector-mode operators.

    Scheme B's detectors see ``(a +- i alpha)/2`` and ``(a +- alpha)/2``;
    scheme C's splitter sends ``t0 a + r0 alpha`` and ``-conj(r0) a + t0 alpha``
    to its two outputs, each halved onto two detectors.  ``g_i`` is the
    count of ``b_i`` and ``g_ij`` that of ``b_i b_j``.
    """
    state = FOUR_DETECTOR_STATES[name]
    lo = LOConfig(alpha=1.5 - 0.5j, t0=0.8)
    dim = state.dim
    a, one = destroy(dim), np.eye(dim)
    if scheme == "b":
        modes = [(a + sign * lo.alpha * one) / 2.0 for sign in (1j, -1j, 1, -1)]
        record = scheme_b_forward(state, lo)
    else:
        out1 = (lo.t0 * a + lo.r0 * lo.alpha * one) / math.sqrt(2.0)
        out2 = (-np.conj(lo.r0) * a + lo.t0 * lo.alpha * one) / math.sqrt(2.0)
        modes = [out1, out1, out2, out2]
        record = scheme_c_forward(state, lo)
    for key in GAMMA_KEYS:
        op = one
        for ch in key[1:]:
            op = modes[int(ch) - 1] @ op
        assert record.gammas[key] == pytest.approx(
            normal_count(state, op), rel=1e-12
        ), key


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_scheme_a_round_trip_exact(seed):
    state = random_pure_state(32, seed)
    lo = LOConfig(alpha=3.0)
    record = scheme_a_sample_and_fourier(state, 4, lo, depth=2)
    table = scheme_a_invert(record)
    truth = moment_table(state, 4)
    for k in range(5):
        for l in range(5):
            want = truth.entry(k, l)
            assert abs(table.entry(k, l) - want) < 1e-10 * (1.0 + abs(want))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 40),
    n_max=st.integers(1, 4),
    magnitude=st.floats(0.5, 3.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    t0=st.floats(0.6, 0.95),
    r0_phase=st.floats(0.0, 2.0 * math.pi),
)
def test_scheme_a_round_trip_over_oscillators(seed, n_max, magnitude, phase, t0, r0_phase):
    """Every oscillator phase and reflectance phase leaves the inversion exact.

    The worst corner is ``|alpha| = 3``, ``t0 = 0.6``, ``n_max = 4``: over 800
    draws of state and phases there the entry error reached 7.6e-10 (1.5e-9
    with the earlier per-harmonic solve).
    """
    truth = moment_table(random_pure_state(24, seed), n_max)
    lo = LOConfig(
        alpha=magnitude * np.exp(1j * phase),
        t0=t0,
        r0=math.sqrt(1.0 - t0**2) * np.exp(1j * r0_phase),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakOscillatorWarning)
        table = scheme_a_invert(scheme_a_sample_and_fourier(truth, n_max, lo, 2))
    err = np.abs(table.values - truth.values) / (1.0 + np.abs(truth.values))
    assert err.max() < 1e-8


@pytest.mark.parametrize("samples", [1e4, 1e6])
@pytest.mark.parametrize("n_max, depth, alpha", [(4, 2, 3.0), (8, 3, 0.7)])
def test_noisy_scheme_a_records_take_the_least_squares_map(n_max, depth, alpha, samples):
    """A noisy record inverts to the dense least-squares fit of all its samples.

    Both are the same linear map of the samples: the order-by-order solve
    is square and triangular once each scan's Nyquist harmonic, which no
    moment enters, is set aside.  Shot noise leaves the record outside the
    forward model's range, so this checks more than a noise-free round trip.
    The worst of these sixteen records differs by 4.4e-10 of the scale.
    """
    for seed in range(4):
        clean = scheme_a_sample_and_fourier(
            random_pure_state(32, seed), n_max, LOConfig(alpha), depth
        )
        record = add_shot_noise(clean, samples, seed)
        want = scheme_a_least_squares(record)
        diag = np.abs(np.diag(want))
        scale = np.maximum(1.0, np.sqrt(np.outer(diag, diag)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakOscillatorWarning)
            got = scheme_a_invert(record).values
        assert (np.abs(got - want) / scale).max() < 1e-8, seed


def test_scheme_a_corner_coefficients_isolate_extreme_moments():
    """The m = +-n harmonics carry <a^dag^n> / <a^n> alone."""
    state = random_pure_state(32, 5)
    lo = LOConfig(alpha=2.5 + 1.0j)
    depth = 2
    record = scheme_a_sample_and_fourier(state, 4, lo, depth)
    amp = abs(lo.r0 * lo.alpha)
    truth = moment_table(state, 4)
    harmonics = scan_harmonics(record)
    for n in range(1, 5):
        pref = math.comb(2**depth, n) / 2.0 ** (n * depth)
        denom = pref * lo.t0**n * amp**n
        dag = harmonics[(n, n)] / denom
        ann = harmonics[(n, -n)] / denom
        assert abs(dag - truth.entry(n, 0)) < 1e-10
        assert abs(ann - truth.entry(0, n)) < 1e-10


def test_scheme_a_order_two_loop_classifies_squeezed_vacuum():
    """Record -> moments -> verdict: an ``n_max`` 2 scan of the r = 0.5
    squeezed vacuum gives an order-2 table, which is all ``quad`` n_max 3
    reads; its ``d_2 = e^{-1} - 1`` flags the state."""
    state = apply_squeeze(make_fock(0, 64), 0.5)
    record = scheme_a_sample_and_fourier(state, 2, LOConfig(alpha=3.0), depth=1)
    table = scheme_a_invert(record)
    assert table.max_order == 2
    report = determinant_hierarchy(table, "quad", 3)
    assert report.first_negative_order == 2
    assert dict(report.determinants)[2] == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-12)


def test_scheme_a_invert_blocked_and_weak_oscillator():
    state = random_pure_state(16, 3)
    blocked = scheme_a_sample_and_fourier(state, 2, LOConfig(3.0).blocked(), 1)
    with pytest.raises(SingularInversionError):
        scheme_a_invert(blocked)
    weak = scheme_a_sample_and_fourier(state, 2, LOConfig(0.3), 1)
    with pytest.warns(WeakOscillatorWarning):
        table = scheme_a_invert(weak)
    # weak, but still exact without noise
    assert abs(table.entry(1, 1) - moment_table(state, 1).entry(1, 1)) < 1e-9


def test_scheme_a_phases_layout():
    phases = scheme_a_phases(2)
    assert len(phases) == 6
    assert phases[0] == 0.0
    assert phases[-1] == pytest.approx(2 * math.pi * 5 / 6)


# ---------------------------------------------------------------------------
# scheme B


@pytest.mark.parametrize("seed", range(4))
def test_scheme_b_round_trip(seed):
    state = random_pure_state(32, seed + 50)
    lo = LOConfig(alpha=2.0 * np.exp(0.4j))
    out = scheme_b_extract(scheme_b_forward(state, lo))
    theta = out["theta"]
    assert theta == pytest.approx(0.4)
    want = reference_moments(moment_table(state, 2), "b", theta)
    for key, value in want.items():
        assert out[key] == pytest.approx(value, abs=1e-10), key


def test_scheme_b_round_trip_density_state():
    nbar = 0.8
    state = make_thermal(nbar, 96)
    out = scheme_b_extract(scheme_b_forward(state, LOConfig(alpha=1.5)))
    assert out["n"] == pytest.approx(nbar, rel=1e-9)
    assert out["x"] == pytest.approx(0.0, abs=1e-10)
    assert out["xx"] == pytest.approx(2 * nbar, rel=1e-9)
    assert out["xp"] == pytest.approx(0.0, abs=1e-9)


def test_scheme_b_extract_validation():
    state = random_pure_state(16, 9)
    with pytest.raises(SingularInversionError):
        scheme_b_extract(scheme_b_forward(state, LOConfig(alpha=0.0)))
    with pytest.warns(WeakOscillatorWarning):
        scheme_b_extract(scheme_b_forward(state, LOConfig(alpha=0.2)))
    record = scheme_c_forward(state, LOConfig(alpha=2.0))
    with pytest.raises(ValidationError):
        scheme_b_extract(record)


# ---------------------------------------------------------------------------
# scheme C


@pytest.mark.parametrize("seed", range(4))
def test_scheme_c_round_trip(seed):
    state = random_pure_state(32, seed + 80)
    lo = LOConfig(alpha=2.0 + 1.0j, t0=0.8)
    out = scheme_c_extract(
        scheme_c_forward(state, lo), scheme_c_forward(state, lo.blocked())
    )
    theta = out["theta"]
    want = reference_moments(moment_table(state, 2), "c", theta)
    for key, value in want.items():
        assert out[key] == pytest.approx(value, abs=1e-10), key


def test_scheme_c_balanced_splitter_round_trip():
    state = random_pure_state(24, 99)
    lo = LOConfig(alpha=3.0)
    out = scheme_c_extract(
        scheme_c_forward(state, lo), scheme_c_forward(state, lo.blocked())
    )
    # <:n^2:> = <a^dag^2 a^2>
    assert out["nn"] == pytest.approx(
        moment_table(state, 2).entry(2, 2).real, abs=1e-10
    )


def test_scheme_c_extract_validation():
    state = random_pure_state(16, 4)
    lo = LOConfig(alpha=2.0, t0=0.8)
    main = scheme_c_forward(state, lo)
    with pytest.raises(ValidationError):
        scheme_c_extract(main, main)  # blocked record must have alpha = 0
    other = scheme_c_forward(state, LOConfig(alpha=0.0, t0=0.6))
    with pytest.raises(ValidationError):
        scheme_c_extract(main, other)  # different splitters
    blocked_main = scheme_c_forward(state, lo.blocked())
    with pytest.raises(SingularInversionError):
        scheme_c_extract(blocked_main, blocked_main)
    weak = scheme_c_forward(state, LOConfig(alpha=0.3, t0=0.8))
    with pytest.warns(WeakOscillatorWarning):
        scheme_c_extract(weak, scheme_c_forward(state, lo.blocked()))


# ---------------------------------------------------------------------------
# schemes B and C: least-squares inversion


def four_detector_records(source, scheme, lo):
    if scheme == "b":
        return [scheme_b_forward(source, lo)]
    return [scheme_c_forward(source, lo), scheme_c_forward(source, lo.blocked())]


def extract(scheme, records):
    return (scheme_b_extract if scheme == "b" else scheme_c_extract)(*records)


def stacked_counts(records):
    return np.array([r.gammas[key] for r in records for key in GAMMA_KEYS])


def reference_moments(table, scheme, theta):
    """The extracted keys as binomial sums over the table's entries."""
    if scheme == "b":
        pairs = {"x": (1, 0), "p": (0, 1), "xx": (2, 0), "pp": (0, 2), "xp": (1, 1)}
        ref = {k: quad_expectation(table, *xp, theta).real for k, xp in pairs.items()}
    else:
        pairs = {"x": (1, 0), "nn": (0, 2), "nx": (1, 1), "xx": (2, 0)}
        ref = {k: xn_expectation(table, *xn, theta).real for k, xn in pairs.items()}
    return dict(ref, n=table.entry(1, 1).real)


@pytest.mark.parametrize("scheme", ["b", "c"])
def test_extraction_is_the_least_squares_inverse(scheme):
    """Counts moved within the left null space of the row-scaled design leave
    the extracted moments unchanged.

    The design ``A`` is read off the public forward model: column ``j`` is
    the count change caused by the ``j``-th real parameter of the order-2
    table.  With ``D`` its row norms, a perturbation ``D u`` with
    ``u^T D^-1 A = 0`` is invisible to the row-scaled least-squares solve,
    whereas a left inverse other than that one moves the answer.
    """
    lo = LOConfig(alpha=2.0 + 1.0j, t0=0.8)
    base = np.diag([1.0, 0.0, 0.0]).astype(complex)
    origin = stacked_counts(four_detector_records(MomentTable(base), scheme, lo))
    columns = []
    for k, l in [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]:
        for part in (1.0,) if k == l else (1.0, 1.0j):
            unit = np.zeros((3, 3), dtype=complex)
            unit[k, l], unit[l, k] = part, np.conj(part)
            records = four_detector_records(MomentTable(base + unit), scheme, lo)
            columns.append(stacked_counts(records) - origin)
    design = np.array(columns).T
    norms = np.linalg.norm(design, axis=1)
    left, sing, _ = np.linalg.svd(design / norms[:, None])
    null = left[:, np.sum(sing > 1e-10 * sing[0]):]
    assert null.shape[1] == (2 if scheme == "b" else 15)

    records = four_detector_records(random_pure_state(24, 61), scheme, lo)
    want = extract(scheme, records)
    rng = np.random.default_rng(5)
    for _ in range(3):
        shift = norms * (null @ rng.standard_normal(null.shape[1]))
        moved, offset = [], 0
        for record in records:
            gammas = {k: record.gammas[k] + shift[offset + i]
                      for i, k in enumerate(GAMMA_KEYS)}
            moved.append(DetectionRecord(scheme=scheme, lo=record.lo, gammas=gammas))
            offset += len(GAMMA_KEYS)
        got = extract(scheme, moved)
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * max(1.0, abs(value)), key


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(["b", "c"]),
    parts=st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8),
    magnitude=st.floats(0.5, 5.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    t0=st.floats(0.2, 0.95),
)
def test_four_detector_round_trip_over_oscillators(scheme, parts, magnitude, phase, t0):
    """Any Hermitian order-2 table survives forward model and extraction."""
    values = np.zeros((3, 3), dtype=complex)
    values[0, 0], values[1, 1], values[2, 2] = 1.0, parts[0], parts[1]
    values[0, 1] = complex(parts[2], parts[3])
    values[0, 2] = complex(parts[4], parts[5])
    values[1, 2] = complex(parts[6], parts[7])
    values += np.triu(values, 1).conj().T
    table = MomentTable(values, validate=False)
    lo = LOConfig(alpha=magnitude * np.exp(1j * phase), t0=t0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakOscillatorWarning)
        out = extract(scheme, four_detector_records(table, scheme, lo))
    ref = reference_moments(table, scheme, out["theta"])
    assert set(out) == set(ref) | {"theta"}
    for key, value in ref.items():
        assert abs(out[key] - value) <= 1e-9 * max(1.0, abs(value)), key


def _invert_weak_record_file(tmp_path):
    record = scheme_a_sample_and_fourier(make_fock(1, 16), 2, LOConfig(0.3), 1)
    path = tmp_path / "weak.json"
    write_json(path, fourier_record_to_json(record))
    assert main(["invert", "--record", str(path), "--out", str(tmp_path / "i.json")]) == 0


WEAK_OSCILLATOR_CALLS = {
    "scheme_a_invert": lambda tmp_path: scheme_a_invert(
        scheme_a_sample_and_fourier(make_fock(1, 16), 2, LOConfig(0.3), 1)
    ),
    "scheme_b_extract": lambda tmp_path: scheme_b_extract(
        scheme_b_forward(make_fock(1, 16), LOConfig(0.3))
    ),
    # |t0 r0 alpha| = 0.48: the amplitude scheme C divides by is weak
    "scheme_c_extract": lambda tmp_path: scheme_c_extract(
        *four_detector_records(make_fock(1, 16), "c", LOConfig(1.0, t0=0.8))
    ),
    "cli_invert": _invert_weak_record_file,
}


@pytest.mark.parametrize("name", sorted(WEAK_OSCILLATOR_CALLS))
def test_weak_oscillator_warning_points_at_the_caller(name, tmp_path):
    """Every inversion attributes ``WeakOscillatorWarning`` to its caller."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        WEAK_OSCILLATOR_CALLS[name](tmp_path)
    assert caught and all(w.category is WeakOscillatorWarning for w in caught)
    assert [w.filename for w in caught] == [__file__] * len(caught)


# ---------------------------------------------------------------------------
# shot noise


def test_add_shot_noise_validates_and_dispatches():
    state = random_pure_state(16, 6)
    record = scheme_b_forward(state, LOConfig(alpha=1.5))
    with pytest.raises(ValidationError):
        add_shot_noise(record, 0)
    with pytest.raises(ValidationError):
        add_shot_noise("not a record", 100)


@pytest.mark.parametrize("samples", [math.inf, math.nan, -math.inf])
def test_add_shot_noise_refuses_a_non_finite_budget(samples):
    """An infinite budget would return the counts unchanged; NaN would
    surface later as non-finite counts."""
    state = random_pure_state(16, 6)
    records = [
        scheme_b_forward(state, LOConfig(alpha=1.5)),
        scheme_a_sample_and_fourier(state, 2, LOConfig(3.0), 1),
    ]
    for record in records:
        with pytest.raises(ValidationError, match="samples must be finite"):
            add_shot_noise(record, samples)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.float64(2), "3", None])
def test_add_shot_noise_refuses_a_seed_that_is_not_a_count(seed):
    """``-1`` once raised NumPy's ``ValueError``, ``1.5`` a ``TypeError``, and
    ``True`` was taken as 1."""
    state = random_pure_state(16, 6)
    records = [
        scheme_b_forward(state, LOConfig(alpha=1.5)),
        scheme_a_sample_and_fourier(state, 2, LOConfig(3.0), 1),
    ]
    for record in records:
        with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
            add_shot_noise(record, 100, seed)
    assert add_shot_noise(records[0], 100, np.int64(3)) == add_shot_noise(
        records[0], 100, 3
    )


def test_add_shot_noise_deterministic_and_seed_sensitive():
    state = random_pure_state(16, 7)
    record = scheme_b_forward(state, LOConfig(alpha=1.5))
    first = add_shot_noise(record, 1e6, seed=42)
    second = add_shot_noise(record, 1e6, seed=42)
    third = add_shot_noise(record, 1e6, seed=43)
    assert first.gammas == second.gammas
    assert first.gammas != third.gammas


def test_add_shot_noise_relative_scale():
    state = random_pure_state(16, 8)
    record = scheme_b_forward(state, LOConfig(alpha=1.5))
    for samples in (1e4, 1e8):
        noisy = add_shot_noise(record, samples, seed=0)
        rels = [
            abs(noisy.gammas[k] - v) / max(abs(v), 1e-6)
            for k, v in record.gammas.items()
        ]
        assert max(rels) < 5.0 / math.sqrt(samples)
        assert max(rels) > 0.01 / math.sqrt(samples)


@pytest.mark.parametrize("scan", [False, True])
def test_add_shot_noise_equals_the_per_value_loop(scan):
    """One vector draw is the noise of one scalar draw per value, in key order."""
    state = random_pure_state(16, 10)
    record = (scheme_a_sample_and_fourier(state, 3, LOConfig(3.0), 2) if scan
              else scheme_b_forward(state, LOConfig(alpha=1.5)))
    values = record.samples if scan else record.gammas
    rng = np.random.default_rng(11)
    want = {
        key: v + rng.standard_normal() * max(abs(v), 1e-6) / math.sqrt(1e4)
        for key, v in sorted(values.items())
    }
    noisy = add_shot_noise(record, 1e4, seed=11)
    assert (noisy.samples if scan else noisy.gammas) == want


def test_coincidence_stack_reports_its_first_residue():
    """A row stack is checked in one pass, and its first value with an
    imaginary residue raises what :func:`as_real` raises on that value."""
    skew = types.SimpleNamespace(values=np.array([[1.0, 1e-3], [0.0, 1.0]]))
    rows = np.array([[1.0, 0.0], [1.0, 1.0j], [1.0, 2.0j]])
    values = measurement._quadratic_forms(rows, skew.values)
    assert values[0].imag == 0 and 0 < values[1].imag < values[2].imag
    with pytest.raises(NumericConsistencyError) as scalar:
        as_real(complex(values[1]), "count")
    with pytest.raises(NumericConsistencyError) as stack:
        measurement._coincidences(skew, rows, "count")
    assert str(stack.value) == str(scalar.value)
    assert np.array_equal(
        measurement._coincidences(skew, rows[:1], "count"), [1.0]
    )


def test_add_shot_noise_fourier_recomputes_coefficients():
    state = random_pure_state(16, 9)
    clean = scheme_a_sample_and_fourier(state, 2, LOConfig(3.0), 1)
    noisy = add_shot_noise(clean, 1e4, seed=5)
    assert noisy.samples != clean.samples
    assert scan_harmonics(noisy)[(2, 1)] != scan_harmonics(clean)[(2, 1)]
    # noisy record still inverts, with errors at the noise scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = scheme_a_invert(noisy)
    want = moment_table(state, 1).entry(1, 1)
    assert abs(table.entry(1, 1) - want) < 0.3
