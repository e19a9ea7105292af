"""Acceptance gate: one test per shipped guarantee, with pinned tolerances.

Each test prints one ``[PASS]/[FAIL] criterion N`` line (repeated in the
terminal summary) and asserts every sub-check, so a red criterion names the
exact state, order and value that broke.
"""

import math

import numpy as np

from conftest import record_verdict
from helpers import normal_moments, random_pure_state, scan_harmonics
from nclmoments import (
    BasisKind,
    LOConfig,
    MonomialBasis,
    add_shot_noise,
    apply_squeeze,
    ass_moment_analytic,
    ass_params,
    asq_min_max,
    asq_variance,
    bochner_search,
    build_matrix,
    determinant_hierarchy,
    make_ass_state,
    make_coherent,
    make_fock,
    make_thermal,
    moment_table,
    principal_minor,
    s3,
    scheme_a_forward,
    scheme_a_invert,
    scheme_a_sample_and_fourier,
    scheme_b_extract,
    scheme_b_forward,
    scheme_c_extract,
    scheme_c_forward,
    witnesses,
)
from nclmoments.cli import main as cli_main
from nclmoments.operators import create, destroy

HIERARCHY_KINDS = ("aa", "quad", "xn", "d2")
ASS_GRID = [(m, lam) for m in (0, 1, 2, 3) for lam in (1.2, 1.5, 2.0)]


def test_criterion_01_classical_states_show_no_negativity():
    """Coherent and thermal states pass every hierarchy, witness and Bochner."""
    floor = -1e-9
    failures = []
    states = [
        (f"coherent({alpha})", make_coherent(alpha, 128))
        for alpha in (0.5, 0.7 + 0.3j, 1.0)
    ] + [
        (f"thermal({nbar})", make_thermal(nbar, 128))
        for nbar in (0.5, 1.0, 3.0)
    ]
    for label, state in states:
        for kind in HIERARCHY_KINDS:
            report = determinant_hierarchy(state, kind, 4)
            for n, value in report.determinants:
                if value < floor:
                    failures.append(f"{label} {kind} d_{n} = {value:.3e}")
        for name, value in witnesses(state).items():
            if name != "asq_min" and value < floor:
                failures.append(f"{label} witness {name} = {value:.3e}")
        amin, _ = asq_min_max(state)
        if amin < floor:
            failures.append(f"{label} asq_min = {amin:.3e}")
        bochner = bochner_search(state, k=2, radius=2.0, grid_n=16)
        if bochner.value < floor:
            failures.append(f"{label} bochner min = {bochner.value:.3e}")
    record_verdict(
        1, "coherent/thermal states clear all criteria above -1e-9", failures
    )


def test_criterion_02_squeezed_vacuum_quadrature_determinants():
    """d~_2 of the r=0.5 squeezed vacuum is e^{-1}-1; d2_1(pi/2) matches."""
    failures = []
    state = apply_squeeze(make_fock(0, 64), 0.5)
    want = math.exp(-1.0) - 1.0
    quad_report = determinant_hierarchy(state, "quad", 2)
    d_tilde_2 = quad_report.determinants[0][1]
    if abs(d_tilde_2 - want) > 1e-6:
        failures.append(f"d~_2 = {d_tilde_2!r}, want {want!r}")
    d2_report = determinant_hierarchy(state, "d2", 1, phi=math.pi / 2)
    d2_1 = d2_report.determinants[0][1]
    if abs(d2_1 - d_tilde_2) > 1e-6:
        failures.append(f"d2_1(pi/2) = {d2_1!r} != d~_2 = {d_tilde_2!r}")
    if not (quad_report.nonclassical and d2_report.nonclassical):
        failures.append("squeezed vacuum not flagged")
    record_verdict(
        2, "squeezed vacuum: d~_2 = e^-1 - 1 and d2_1(pi/2) agree", failures
    )


def test_criterion_03_squeezed_vacuum_bochner_violation():
    failures = []
    state = apply_squeeze(make_fock(0, 64), 0.5)
    result = bochner_search(state, k=2, radius=2.0, grid_n=16)
    if result.value >= -1e-3:
        failures.append(f"Bochner minimum only {result.value:.3e}")
    record_verdict(
        3, "squeezed vacuum: order-2 Bochner determinant dips below -1e-3",
        failures,
    )


def test_criterion_04_ass_variances_hit_closed_forms():
    """Var(X) = lambda (4<n>+2) and Var(Y) = (4<n>+2)/lambda on the grid."""
    failures = []
    for m, lam in ASS_GRID:
        state, _ = make_ass_state(m, lam, 96)
        n_mean = moment_table(state, 1).entry(1, 1).real
        base = 4.0 * n_mean + 2.0
        var_x = asq_variance(state, 0.0) + base
        var_y = asq_variance(state, math.pi / 2) + base
        if abs(var_x - lam * base) > 1e-4 * lam * base:
            failures.append(f"(m={m}, lam={lam}) Var(X) = {var_x!r}")
        if abs(var_y - base / lam) > 1e-4 * base / lam:
            failures.append(f"(m={m}, lam={lam}) Var(Y) = {var_y!r}")
    record_verdict(
        4, "eigenstate family variances match lambda(4<n>+2) closed forms",
        failures,
    )


def test_criterion_05_ass_eigenvalue_equation():
    """(X + i lambda Y)|psi> = beta |psi> with beta = sqrt(lambda^2-1)(2m+1)."""
    failures = []
    dim = 96
    a = destroy(dim)
    x_op = a @ a + create(dim) @ create(dim)
    y_op = 1j * (create(dim) @ create(dim) - a @ a)
    for m, lam in ASS_GRID:
        state, params = make_ass_state(m, lam, dim)
        beta = math.sqrt(lam**2 - 1.0) * (2 * m + 1)
        if abs(params.beta - beta) > 1e-12 * (1 + beta):
            failures.append(f"(m={m}, lam={lam}) beta = {params.beta!r}")
        op = x_op + 1j * lam * y_op
        residual = float(
            np.linalg.norm(op @ state.amplitudes - beta * state.amplitudes)
        )
        if residual > 1e-5:
            failures.append(f"(m={m}, lam={lam}) residual = {residual:.3e}")
    record_verdict(
        5, "eigenvalue equation residual below 1e-5 across the (m, lambda) grid",
        failures,
    )


def test_criterion_06_s3_factorization_and_angle_scan():
    """s3 = min*max/4 and the extrema bound a 64-point angle scan."""
    failures = []
    angles = np.linspace(0.0, math.pi, 64)
    for seed in range(100):
        state = random_pure_state(32, seed)
        table = moment_table(state, 4)
        amin, amax = asq_min_max(table)
        value = s3(table)
        product = 0.25 * amin * amax
        if abs(value - product) > 1e-9 * max(abs(value), 1e-12):
            failures.append(f"seed {seed}: s3 {value!r} vs product {product!r}")
        eps = 1e-9 * (1.0 + abs(amax))
        sweep = [asq_variance(table, phi) for phi in angles]
        if min(sweep) < amin - eps or max(sweep) > amax + eps:
            failures.append(f"seed {seed}: scan escapes [{amin}, {amax}]")
    record_verdict(
        6, "s3 factorizes into asq extrema on 100 random states", failures
    )


def test_criterion_07_sweep_negative_and_monotone(tmp_path):
    """CLI sweep: s3 < 0 on the grid and |s3| shrinks toward lambda = 1."""
    failures = []
    out = tmp_path / "sweep.csv"
    rc = cli_main([
        "sweep", "--m-list", "2,3,4", "--lambda-range", "1.05,2.0,0.05",
        "--dim", "96", "--out", str(out),
    ])
    if rc != 0:
        failures.append(f"sweep exit code {rc}")
    else:
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if len(rows) != 3 * 20:
            failures.append(f"expected 60 rows, got {len(rows)}")
        by_m: dict[float, list[tuple[float, float]]] = {}
        for row in rows:
            by_m.setdefault(float(row["m"]), []).append(
                (float(row["lambda"]), float(row["s3"]))
            )
        for m, pairs in sorted(by_m.items()):
            pairs.sort()
            if any(value >= 0.0 for _, value in pairs):
                failures.append(f"m={m}: nonnegative s3 in sweep")
            magnitudes = [abs(value) for _, value in pairs]
            if any(
                magnitudes[i] >= magnitudes[i + 1]
                for i in range(len(magnitudes) - 1)
            ):
                failures.append(f"m={m}: |s3| not increasing with lambda")
    record_verdict(
        7, "sweep CSV: s3 negative, |s3| decreasing toward lambda = 1", failures
    )


def test_criterion_08_analytic_moments_match_numerics():
    """Generating-function moments vs Fock-space numerics, k,l <= 4."""
    failures = []
    for m in range(4):
        for lam in (0.5, 1.2, 2.0):
            state, params = make_ass_state(m, lam, 96)
            table = moment_table(state, 4)
            for k in range(5):
                for l in range(5):
                    analytic = ass_moment_analytic(params, k, l)
                    numeric = table.entry(k, l)
                    if abs(analytic - numeric) > 1e-6 * (1.0 + abs(analytic)):
                        failures.append(
                            f"(m={m}, lam={lam}, k={k}, l={l}): "
                            f"{analytic!r} vs {numeric!r}"
                        )
    record_verdict(
        8, "analytic eigenstate moments match numerics to 1e-6 relative",
        failures,
    )


def test_criterion_09_measurement_round_trips():
    """All three schemes recover moments of 50 random states within 1e-8."""
    failures = []
    lo_a = LOConfig(alpha=3.0)
    lo_b = LOConfig(alpha=2.0 * np.exp(0.4j))
    lo_c = LOConfig(alpha=2.0 + 1.0j, t0=0.8)
    depth = 2
    amp = abs(lo_a.r0 * lo_a.alpha)
    dim = 32
    a_mat = destroy(dim)
    for seed in range(50):
        state = random_pure_state(dim, seed)
        truth = moment_table(state, 4)

        record = scheme_a_sample_and_fourier(state, 4, lo_a, depth)
        table = scheme_a_invert(record)
        for k in range(5):
            for l in range(5):
                err = abs(table.entry(k, l) - truth.entry(k, l))
                if err > 1e-8:
                    failures.append(f"seed {seed} A entry({k},{l}) err {err:.3e}")
        harmonics = scan_harmonics(record)
        for n in range(1, 5):
            pref = math.comb(2**depth, n) / 2.0 ** (n * depth)
            denom = pref * lo_a.t0**n * amp**n
            dag = harmonics[(n, n)] / denom
            ann = harmonics[(n, -n)] / denom
            if abs(dag - truth.entry(n, 0)) > 1e-10:
                failures.append(f"seed {seed} corner <adag^{n}>")
            if abs(ann - truth.entry(0, n)) > 1e-10:
                failures.append(f"seed {seed} corner <a^{n}>")
        for n in (1, 4):
            for phi in (0.0, 1.1):
                mode = (
                    lo_a.t0 * a_mat
                    + lo_a.r0 * lo_a.alpha * np.exp(1j * phi) * np.eye(dim)
                ) / 2.0 ** (depth / 2.0)
                vec = state.amplitudes.copy()
                for _ in range(n):
                    vec = mode @ vec
                want = math.comb(2**depth, n) * float(np.vdot(vec, vec).real)
                got = scheme_a_forward(truth, n, phi, lo_a, depth)
                if abs(got - want) > 1e-10 * (1.0 + abs(want)):
                    failures.append(f"seed {seed} two-route n={n} phi={phi}")

        out_b = scheme_b_extract(scheme_b_forward(truth, lo_b))
        quad = normal_moments(truth, BasisKind.QUAD, phi=out_b["theta"])
        want_b = {
            "n": truth.entry(1, 1).real,
            "x": quad[(0, 1)],
            "p": quad[(1, 0)],
            "xx": quad[(0, 2)],
            "pp": quad[(2, 0)],
            "xp": quad[(1, 1)],
        }
        for key, want in want_b.items():
            if abs(out_b[key] - want) > 1e-8:
                failures.append(f"seed {seed} B {key}")

        out_c = scheme_c_extract(
            scheme_c_forward(truth, lo_c), scheme_c_forward(truth, lo_c.blocked())
        )
        xn = normal_moments(truth, BasisKind.XN, phi=out_c["theta"])
        want_c = {
            "n": truth.entry(1, 1).real,
            "x": xn[(0, 1)],
            "nn": xn[(2, 0)],
            "nx": xn[(1, 1)],
            "xx": xn[(0, 2)],
        }
        for key, want in want_c.items():
            if abs(out_c[key] - want) > 1e-8:
                failures.append(f"seed {seed} C {key}")
    record_verdict(
        9, "schemes A/B/C round-trip 50 random states within 1e-8", failures
    )


def test_criterion_10_fock_principal_minor():
    failures = []
    state = make_fock(1, 32)
    matrix = build_matrix(
        moment_table(state, 4), MonomialBasis.graded(BasisKind.AA, 6)
    )
    value = principal_minor(matrix, [0, 4])
    if abs(value - (-1.0)) > 1e-12:
        failures.append(f"minor = {value!r}")
    record_verdict(
        10, "Fock |1>: principal minor over {1, a^dag a} equals -1", failures
    )


def test_criterion_11_noise_scaling_of_inversion():
    """Mean |<a^2>| inversion error follows samples^{-1/2} within factor 3."""
    failures = []
    state = random_pure_state(32, 0)
    truth = moment_table(state, 2).entry(0, 2)
    record = scheme_a_sample_and_fourier(state, 2, LOConfig(alpha=3.0), 2)
    means = []
    for decade, samples in enumerate((1e4, 1e6, 1e8)):
        errors = []
        for i in range(24):
            noisy = add_shot_noise(record, samples, seed=1000 * decade + i)
            errors.append(abs(scheme_a_invert(noisy).entry(0, 2) - truth))
        means.append(float(np.mean(errors)))
    for low, high in ((0, 1), (1, 2)):
        ratio = means[low] / means[high]
        if not (10.0 / 3.0 <= ratio <= 30.0):
            failures.append(
                f"error ratio {means[low]:.3e}/{means[high]:.3e} = {ratio:.2f} "
                "outside [10/3, 30]"
            )
    record_verdict(
        11, "scheme-A inversion error scales as samples^-1/2 (factor 3)",
        failures,
    )
