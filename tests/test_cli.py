"""End-to-end CLI behavior: verbs, file composition, exit codes."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import nclmoments
from nclmoments import cli, moments
from nclmoments import (
    BasisKind,
    LOConfig,
    MomentTable,
    NclError,
    NumericConsistencyError,
    ValidationError,
    add_shot_noise,
    asq_min_max,
    ass_moment_table,
    determinant_hierarchy,
    make_ass_state,
    make_thermal,
    moment_table,
    q_function,
    s3,
    scheme_a_sample_and_fourier,
    scheme_b_forward,
    scheme_c_forward,
    witnesses,
)
from nclmoments.cli import build_parser, main
from nclmoments.moments import as_real
from nclmoments.serialize import (
    read_json,
    report_to_json,
    records_from_json,
    records_to_json,
    state_from_spec,
    write_json,
)

SQUEEZED = '{"type": "squeezed_vacuum", "z": 0.5}'
THERMAL = '{"type": "thermal", "nbar": 1.0}'


def test_moments_verb_writes_table(tmp_path, capsys):
    out = tmp_path / "m.json"
    rc = main([
        "moments", "--state", '{"type": "coherent", "alpha": 0.5}',
        "--order", "2", "--out", str(out),
    ])
    assert rc == 0
    doc = read_json(out)
    assert doc["max_order"] == 2
    printed = capsys.readouterr().out
    assert "n_mean = 0.25" in printed


def test_criteria_single_kind_flags_squeezing(tmp_path):
    out = tmp_path / "c.json"
    rc = main([
        "criteria", "--state", SQUEEZED, "--kind", "quad", "--out", str(out),
    ])
    assert rc == 10
    doc = read_json(out)
    assert doc["kind"] == "quad"
    assert doc["first_negative_order"] == 2


def test_criteria_all_kinds_order_and_exit(tmp_path):
    out = tmp_path / "all.json"
    rc = main(["criteria", "--state", SQUEEZED, "--out", str(out)])
    assert rc == 10
    doc = read_json(out)
    assert [r["kind"] for r in doc] == ["aa", "quad", "xn", "d2"]
    # every report object carries the state's witnesses, at the report's angle
    for phi in (0.0, 0.37):
        rc = main(["criteria", "--state", SQUEEZED, "--phi", str(phi), "--out", str(out)])
        want = witnesses(state_from_spec(json.loads(SQUEEZED)), phi)
        assert set(want) == {"s3", "s2A", "s2B", "asq_min", "asq_max"}
        assert [r["witnesses"] for r in read_json(out)] == [want] * 4

    rc = main(["criteria", "--state", THERMAL, "--out", str(out)])
    assert rc == 0
    doc = read_json(out)
    assert all(r["first_negative_order"] is None for r in doc)


def test_sweep_verb_single_point_closed_form(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--m-list", "0", "--lambda-range", "2.0,2.0,0.1",
        "--dim", "64", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,m,s3,asq_min,asq_max,n_mean"
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["lambda"]) == 2.0
    assert float(row["s3"]) == pytest.approx(-2.0, abs=1e-9)
    assert float(row["asq_min"]) < 0.0 < float(row["asq_max"])


def test_sweep_tables_need_no_truncation(tmp_path, capsys):
    """At lambda 0.2 the squeezed Fock state overflows dim 96; the exact table does not."""
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--m-list", "2", "--lambda-range", "0.2,0.2,0.1",
        "--dim", "96", "--out", str(out),
    ])
    assert rc == 0, capsys.readouterr().err
    header, row = out.read_text().splitlines()
    assert float(dict(zip(header.split(","), row.split(",")))["s3"]) < 0.0


def test_sweep_equals_fock_route_on_acceptance_grid(tmp_path):
    """Criterion 7's grid, row by row against the dim-96 squeezed Fock states."""
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--m-list", "2,3,4", "--lambda-range", "1.05,2.0,0.05",
        "--dim", "96", "--out", str(out),
    ])
    assert rc == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (60, 6)
    for lam, m, *values in rows:
        table = moment_table(make_ass_state(int(m), lam, 96)[0], 4)
        want = (s3(table), *asq_min_max(table), table.entry(1, 1).real)
        for got, exp in zip(values, want):
            assert abs(got - exp) <= 1e-12 * max(1.0, abs(exp)), (m, lam)


def test_sweep_runs_without_scipy(tmp_path):
    script = (
        "import sys; sys.modules['scipy'] = None; "
        "from nclmoments.cli import main; "
        f"sys.exit(main(['sweep', '--m-list', '2,5', '--out', {str(tmp_path / 's.csv')!r}]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert "(40 rows)" in result.stdout


def test_squeezing_verbs_run_without_scipy(tmp_path):
    """criteria, qfunc, simulate and invert on squeezed specs never import SciPy."""
    script = f"""
import sys
sys.modules["scipy"] = None
from nclmoments.cli import main
work = {str(tmp_path)!r}
codes = []
for spec in ('{{"type": "squeezed_vacuum", "z": [0.4, 0.3]}}',
             '{{"type": "ass", "m": 3, "lambda": 1.5, "dim": 96}}'):
    codes.append(main(["criteria", "--state", spec, "--kind", "all",
                       "--out", work + "/c.json"]))
    codes.append(main(["qfunc", "--state", spec, "--grid-bound", "2",
                       "--grid-n", "9", "--out", work + "/q.csv"]))
    codes.append(main(["simulate", "--state", spec, "--scheme", "b",
                       "--out", work + "/r.json"]))
    codes.append(main(["invert", "--record", work + "/r.json",
                       "--out", work + "/t.json"]))
print(codes, [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod])
"""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[10, 0, 0, 0, 10, 0, 0, 0] []"


def test_sweep_rejects_classical_lambda(tmp_path):
    rc = main([
        "sweep", "--m-list", "1", "--lambda-range", "1.0,1.0,0.1",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 2


def test_qfunc_verb_vacuum_peak(tmp_path):
    out = tmp_path / "q.csv"
    rc = main([
        "qfunc", "--state", '{"type": "fock", "n": 0}', "--dim", "16",
        "--grid-bound", "2.0", "--grid-n", "11", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re_alpha,im_alpha,q_value"
    assert len(lines) == 1 + 121
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(values) == pytest.approx(1.0 / math.pi, rel=1e-12)


def _csv_text(header, rows):
    """The CSV a per-value ``format(v, ".17g")`` writer produces."""
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_qfunc_csv_lists_the_grid_row_by_row(tmp_path):
    """A thermal state (density-matrix path): rows (re, im, Q) with re outer, byte for byte."""
    out = tmp_path / "q.csv"
    rc = main([
        "qfunc", "--state", '{"type": "thermal", "nbar": 0.7}', "--dim", "48",
        "--grid-bound", "2.5", "--grid-n", "9", "--out", str(out),
    ])
    assert rc == 0
    axis = np.linspace(-2.5, 2.5, 9)
    values = q_function(make_thermal(0.7, 48), axis[:, None] + 1j * axis[None, :])
    rows = [(axis[i], axis[j], values[i, j]) for i in range(9) for j in range(9)]
    assert out.read_text() == _csv_text(["re_alpha", "im_alpha", "q_value"], rows)


def test_sweep_rows_equal_the_one_lambda_tables(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--m-list", "3,1", "--lambda-range", "0.5,1.7,0.3",
        "--out", str(out),
    ])
    assert rc == 0
    rows = []
    for m in (1, 3):
        for lam in (0.5 + i * 0.3 for i in range(5)):
            table = ass_moment_table(m, lam)
            rows.append((lam, m, s3(table), *asq_min_max(table), table.entry(1, 1).real))
    header = ["lambda", "m", "s3", "asq_min", "asq_max", "n_mean"]
    assert out.read_text() == _csv_text(header, rows)


def test_sweep_builds_one_table_per_m(tmp_path, monkeypatch):
    """Each m's lambda grid is one stacked table, and the CSV is byte for byte
    that of the one-lambda route: ``ass_moment_table`` and ``witnesses`` per
    lambda."""
    lams = [1.05 + i * 0.05 for i in range(20)]
    rows = []
    for m in (2, 3, 4):
        for lam in lams:
            table = ass_moment_table(m, lam)
            w = witnesses(table)
            rows.append((lam, m, w["s3"], w["asq_min"], w["asq_max"],
                         table.entry(1, 1).real))
    shapes = []
    check = MomentTable.__post_init__

    def counting(table):
        shapes.append(np.shape(table.values))
        check(table)

    monkeypatch.setattr(MomentTable, "__post_init__", counting)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--m-list", "4,2,3", "--lambda-range", "1.05,2.0,0.05",
                 "--out", str(out)]) == 0
    assert shapes == [(20, 5, 5)] * 3
    header = ["lambda", "m", "s3", "asq_min", "asq_max", "n_mean"]
    assert out.read_text() == _csv_text(header, rows)


CRITERIA_SPECS = [
    '{"type": "fock", "n": 2}',
    '{"type": "coherent", "alpha": [0.7, 0.3]}',
    '{"type": "thermal", "nbar": 0.8}',
    SQUEEZED,
    '{"type": "ass", "m": 2, "lambda": 1.5}',
]


@pytest.mark.parametrize("spec", CRITERIA_SPECS)
def test_criteria_tabulates_once_and_answers_as_each_kind_alone(
    spec, tmp_path, monkeypatch, capsys
):
    """One ``moment_table`` call per run, at the largest order read; the file,
    stdout and exit code are those of ``determinant_hierarchy(state, kind)``
    per kind and ``witnesses(state, phi)``, each tabulating for itself.  This
    pins that a table's low-order corner is the smaller table bit for bit."""
    state = state_from_spec(json.loads(spec))
    runs = []
    for kind in ("all", "aa", "d2"):
        for nmax in (2, 4, 7):
            for phi in (0.0, 0.37):
                kinds = list(BasisKind) if kind == "all" else [BasisKind(kind)]
                reports = [determinant_hierarchy(state, k, nmax, phi) for k in kinds]
                state_witnesses = witnesses(state, phi)
                docs = [dict(report_to_json(r), witnesses=state_witnesses)
                        for r in reports]
                want = tmp_path / f"want-{kind}-{nmax}-{phi}.json"
                write_json(want, docs[0] if len(docs) == 1 else docs)
                out = tmp_path / f"got-{kind}-{nmax}-{phi}.json"
                lines = [f"wrote {out}"] + [
                    f"kind={r.kind.value}: " + (
                        f"first negative at N={r.first_negative_order}"
                        if r.nonclassical else "no negativity"
                    )
                    for r in reports
                ]
                code = 10 if any(r.nonclassical for r in reports) else 0
                argv = ["criteria", "--state", spec, "--kind", kind, "--nmax",
                        str(nmax), "--phi", str(phi), "--out", str(out)]
                runs.append((argv, want, out, "".join(f"{x}\n" for x in lines), code))
    capsys.readouterr()

    calls = []
    tabulate = moments.moment_table

    def counting(source, order):
        calls.append(order)
        return tabulate(source, order)

    monkeypatch.setattr(moments, "moment_table", counting)
    monkeypatch.setattr(cli, "moment_table", counting)
    for argv, want, out, stdout, code in runs:
        calls.clear()
        assert main(argv) == code, argv
        assert len(calls) == 1, argv
        assert capsys.readouterr().out == stdout
        assert out.read_bytes() == want.read_bytes(), argv


def test_simulate_refuses_a_negative_seed(tmp_path, capsys):
    """``--seed -1`` once reached NumPy and ended in a traceback."""
    out = tmp_path / "r.json"
    argv = ["simulate", "--state", THERMAL, "--scheme", "b", "--samples", "100",
            "--seed", "-1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: seed must be a nonnegative integer, got -1\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("value", [
    "1.1,1.5,nan", "nan,1.5,0.1", "1.1,nan,0.1", "1.1,inf,0.1", "-inf,1.5,0.1",
    "1.1,1.5,inf",
])
def test_sweep_refuses_a_non_finite_lambda_range(value, tmp_path, capsys):
    """NaN fields once ended in ``ValueError`` and infinite ones in
    ``OverflowError``, both with a traceback."""
    out = tmp_path / "s.csv"
    assert main(["sweep", f"--lambda-range={value}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --lambda-range must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("option, value", [
    ("--grid-n", "-1"),
    ("--grid-n", "0"),
    ("--grid-bound", "inf"),
    ("--grid-bound", "nan"),
    ("--grid-bound", "0"),
    ("--grid-bound", "-2"),
])
def test_qfunc_refuses_bad_grid_before_any_work(option, value, tmp_path, capsys):
    out = tmp_path / "q.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([
            "qfunc", "--state", '{"type": "fock", "n": 1}', option, value,
            "--out", str(out),
        ])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"error: {option} must")


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--lambda-range", "1.1,1.5,1e-300"],
     "--lambda-range asks for 4e+299 values of lambda"),
    (["sweep", "--lambda-range", "1.1,1.5,5e-324"],
     "--lambda-range asks for inf values of lambda"),
    (["sweep", "--lambda-range", "0,262144,1"],
     "--lambda-range asks for 262145 values of lambda"),
    (["qfunc", "--state", THERMAL, "--grid-n", "40000"],
     "--grid-n 40000 asks for 40000^2 grid points"),
    (["qfunc", "--state", THERMAL, "--grid-n", "513"],
     "--grid-n 513 asks for 513^2 grid points"),
], ids=["tiny-step", "subnormal-step", "cap-and-one", "grid-40000", "grid-513"])
def test_grid_verbs_refuse_grids_above_the_cap(argv, message):
    """The grid size is checked while the arguments are parsed, before any
    allocation."""
    with pytest.raises(ValidationError) as info:
        build_parser().parse_args(argv)
    assert str(info.value) == f"{message}, above the cap of {cli.MAX_GRID_POINTS}"


@pytest.mark.parametrize("argv", [
    ["sweep", "--m-list", "2", "--lambda-range", "2,262145,1"],
    # (stop - start) / step is 262143.0000000001: still 262144 lambdas
    ["sweep", "--m-list", "2", "--lambda-range", "0.286,0.548143,1e-6"],
    ["sweep", "--m-list", "2,3", "--lambda-range", "2,131073,1"],
    ["qfunc", "--state", THERMAL, "--grid-n", "512"],
])
def test_grid_verbs_take_grids_at_the_cap(argv, tmp_path, capsys, monkeypatch):
    """A grid at the cap passes every count and reaches the first table."""
    assert cli.MAX_GRID_POINTS == 512**2
    args = build_parser().parse_args(argv)
    if args.verb == "sweep":
        assert len(args.m_list) * len(args.lambda_range) == cli.MAX_GRID_POINTS

        def tables(m, lams):
            raise ValidationError("reached the first table")

        monkeypatch.setattr(cli, "ass_moment_tables", tables)
        assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == "error: reached the first table\n"


@pytest.mark.parametrize("m_list, lambda_range, rows", [
    (",".join(["2"] * 1000), "1.05,263.193,0.001", 262144000),
    ("2,3", "2,131074,1", 262146),
], ids=["repeated-m", "cap-and-two"])
def test_sweep_refuses_rows_above_the_cap(
    m_list, lambda_range, rows, tmp_path, capsys, monkeypatch
):
    """The rows are counted before the first table; 1000 copies of one m at
    the lambda cap once asked for 262,144,000 rows."""
    def tables(m, lams):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cli, "ass_moment_tables", tables)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--m-list", m_list, "--lambda-range", lambda_range,
            "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: --m-list and --lambda-range ask for {rows} rows, "
        f"above the cap of {cli.MAX_GRID_POINTS}\n"
    )
    assert not out.exists()


def test_sweep_builds_the_lambda_count_it_checked(tmp_path, monkeypatch):
    """``verb_sweep`` reads the grid that ``--lambda-range`` counted."""
    seen = []

    def tables(m, lams):
        seen.append(list(lams))
        raise ValidationError("stop")

    monkeypatch.setattr(cli, "ass_moment_tables", tables)
    argv = ["sweep", "--m-list", "2", "--lambda-range", "1.1,1.5,0.1",
            "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 2
    assert seen[0] == build_parser().parse_args(argv).lambda_range
    assert seen[0] == [1.1 + i * 0.1 for i in range(5)]


@pytest.mark.parametrize("state, grid_n", [
    (THERMAL, "512"),
    ('{"type": "fock", "n": 1, "dim": 4096}', "100"),
], ids=["dim-option", "spec-dim"])
def test_qfunc_refuses_overlaps_above_the_cap(
    state, grid_n, tmp_path, capsys, monkeypatch
):
    """``--grid-n`` squared times the state's dim is checked before the state
    is built: a dim-4096 thermal state once took 3.5 s to build and then
    exit 2."""
    from nclmoments import serialize

    def refuse(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(serialize, "make_thermal", refuse)
    monkeypatch.setattr(serialize, "make_fock", refuse)
    out = tmp_path / "q.csv"
    argv = ["qfunc", "--state", state, "--grid-n", grid_n, "--out", str(out)]
    if state == THERMAL:
        argv += ["--dim", "65"]
    assert main(argv) == 2
    dim = 65 if state == THERMAL else 4096
    overlaps = int(grid_n) ** 2 * dim
    assert capsys.readouterr().err == (
        f"error: --grid-n {grid_n} at dim {dim} asks for {overlaps} coherent-state "
        f"overlaps, above the cap of {cli.MAX_GRID_POINTS * cli.DEFAULT_DIM}\n"
    )
    assert not out.exists()


def test_simulate_then_invert_scheme_a(tmp_path, capsys):
    record = tmp_path / "rec.json"
    rc = main([
        "simulate", "--state", '{"type": "fock", "n": 2}', "--scheme", "a",
        "--nmax", "3", "--out", str(record),
    ])
    assert rc == 0
    inverted = tmp_path / "inv.json"
    rc = main(["invert", "--record", str(record), "--out", str(inverted)])
    assert rc == 0
    assert "n_mean = 2" in capsys.readouterr().out
    doc = read_json(inverted)
    entries = {(e["k"], e["l"]): complex(e["re"], e["im"]) for e in doc["entries"]}
    assert entries[(1, 1)] == pytest.approx(2.0)
    assert entries[(2, 2)] == pytest.approx(2.0)  # <:n^2:> = n(n-1) = 2
    assert entries[(1, 0)] == pytest.approx(0.0, abs=1e-12)


def test_simulate_then_invert_scheme_b(tmp_path):
    record = tmp_path / "rec.json"
    main([
        "simulate", "--state", '{"type": "coherent", "alpha": 0.8}',
        "--scheme", "b", "--lo-alpha", "3,0", "--out", str(record),
    ])
    out = tmp_path / "ext.json"
    rc = main(["invert", "--record", str(record), "--out", str(out)])
    assert rc == 0
    got = read_json(out)
    assert got["n"] == pytest.approx(0.64, abs=1e-10)
    assert got["x"] == pytest.approx(1.6, abs=1e-10)
    assert got["xx"] == pytest.approx(1.6**2, abs=1e-10)
    assert got["theta"] == pytest.approx(0.0)


def test_simulate_then_invert_scheme_c(tmp_path):
    record = tmp_path / "rec.json"
    main([
        "simulate", "--state", '{"type": "fock", "n": 2}', "--scheme", "c",
        "--out", str(record),
    ])
    doc = read_json(record)
    assert doc["scheme"] == "c" and "blocked" in doc
    out = tmp_path / "ext.json"
    rc = main(["invert", "--record", str(record), "--out", str(out)])
    assert rc == 0
    got = read_json(out)
    assert got["n"] == pytest.approx(2.0, abs=1e-10)
    assert got["nn"] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("scheme", ["a", "b", "c"])
def test_record_file_round_trip(scheme, tmp_path):
    """A simulated file reads back as its records; record i has the noise of seed + i."""
    path = tmp_path / "rec.json"
    assert main([
        "simulate", "--state", THERMAL, "--scheme", scheme, "--nmax", "2",
        "--samples", "1e4", "--seed", "7", "--out", str(path),
    ]) == 0
    doc = read_json(path)
    records = records_from_json(doc)
    assert records_to_json(records) == doc
    state, lo = state_from_spec(json.loads(THERMAL)), LOConfig(alpha=3.0)
    clean = {
        "a": [scheme_a_sample_and_fourier(state, 2, lo, 2)],
        "b": [scheme_b_forward(state, lo)],
        "c": [scheme_c_forward(state, lo), scheme_c_forward(state, lo.blocked())],
    }[scheme]
    noisy = [add_shot_noise(r, 1e4, 7 + i) for i, r in enumerate(clean)]
    assert records_to_json(noisy) == doc


def test_simulate_with_noise_is_deterministic(tmp_path):
    args = [
        "simulate", "--state", '{"type": "coherent", "alpha": 1.0}',
        "--scheme", "a", "--nmax", "2", "--samples", "1e6", "--seed", "7",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    clean = tmp_path / "clean.json"
    assert main(args[:-4] + ["--out", str(clean)]) == 0
    assert clean.read_bytes() != first.read_bytes()


def test_exit_code_truncation_with_hint(tmp_path, capsys):
    rc = main([
        "moments", "--state", '{"type": "coherent", "alpha": 4.0}',
        "--dim", "8", "--out", str(tmp_path / "m.json"),
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert "hint: retry with --dim" in err
    assert err.endswith(
        'hint: retry with --dim 76 (or "dim": 76 in the state spec, '
        "which overrides --dim)\n"
    )


def test_truncation_hint_names_no_dim_above_the_cap(tmp_path, capsys):
    """A retry dim above ``MAX_DIM`` would only exit 2, so none is suggested."""
    spec = '{"type": "coherent", "alpha": 70, "dim": 4096}'
    assert main(["moments", "--state", spec, "--out", str(tmp_path / "m.json")]) == 3
    assert capsys.readouterr().err.endswith(
        "hint: the retry dim 8192 is above the cap of 4096: "
        "no dim within the cap is enough\n"
    )


def test_exit_code_singular_inversion(tmp_path, capsys):
    record = tmp_path / "rec.json"
    rc = main([
        "simulate", "--state", '{"type": "fock", "n": 1}', "--scheme", "a",
        "--nmax", "2", "--lo-alpha", "0,0", "--out", str(record),
    ])
    assert rc == 0
    rc = main(["invert", "--record", str(record), "--out", str(tmp_path / "i.json")])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def _error_classes(base=NclError):
    return [base] + [c for sub in base.__subclasses__() for c in _error_classes(sub)]


EXIT_CODES = {
    "NclError": 2, "ValidationError": 2, "DimensionError": 2, "DuplicatePointError": 2,
    "TruncationError": 3, "InsufficientOrderError": 3, "NumericConsistencyError": 3,
    "SingularInversionError": 4,
}


def test_exit_codes_cover_every_error_class():
    assert sorted(c.__name__ for c in _error_classes()) == sorted(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_main_exits_with_the_code_of_the_error_raised(
    name, tmp_path, capsys, monkeypatch
):
    """``main`` returns the ``exit_code`` of whichever error a verb raises."""
    error = getattr(nclmoments, name)

    def table(*args):
        raise error("raised by the verb")

    monkeypatch.setattr(cli, "moment_table", table)
    argv = ["moments", "--state", '{"type": "fock", "n": 1}',
            "--out", str(tmp_path / "m.json")]
    assert main(argv) == error.exit_code == EXIT_CODES[name]
    assert capsys.readouterr().err == "error: raised by the verb\n"


def test_exit_code_validation_errors(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["moments", "--state", "{bad json", "--out", out]) == 2
    assert main(["moments", "--state", '{"type": "fock", "n": 1}',
                 "--dim", "-3", "--out", out]) == 2
    assert main(["criteria", "--state", THERMAL, "--tolerance", "-1",
                 "--out", out]) == 2
    assert main(["invert", "--record", str(tmp_path / "missing.json"),
                 "--out", out]) == 2
    capsys.readouterr()


def test_invert_rejects_non_numeric_record_value(tmp_path, capsys):
    record = tmp_path / "rec.json"
    assert main([
        "simulate", "--state", THERMAL, "--scheme", "b", "--out", str(record),
    ]) == 0
    doc = read_json(record)
    doc["record"]["gammas"][0]["value"] = "abc"
    record.write_text(json.dumps(doc))
    rc = main(["invert", "--record", str(record), "--out", str(tmp_path / "i.json")])
    assert rc == 2
    assert "malformed detection record" in capsys.readouterr().err


def test_invert_rejects_record_file_without_record(tmp_path, capsys):
    record = tmp_path / "rec.json"
    record.write_text(json.dumps({"scheme": "b"}))
    rc = main(["invert", "--record", str(record), "--out", str(tmp_path / "i.json")])
    assert rc == 2
    assert "lacks ['record']" in capsys.readouterr().err


def test_invert_rejects_fractional_and_string_integers(tmp_path, capsys):
    record = tmp_path / "rec.json"
    assert main([
        "simulate", "--state", THERMAL, "--scheme", "a", "--nmax", "2",
        "--out", str(record),
    ]) == 0
    doc = read_json(record)
    doc["depth"] = 2.7
    doc["samples"][0]["j"] = "0"
    record.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["invert", "--record", str(record), "--out", str(tmp_path / "i.json")])
    assert rc == 2
    assert "must be an integer" in capsys.readouterr().err


HUGE = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("verb", ["invert-sample", "criteria-nbar", "criteria-alpha"])
def test_integers_beyond_the_float_range_exit_2(verb, tmp_path, capsys):
    """Such an integer once raised ``OverflowError`` out of ``main``."""
    out = str(tmp_path / "x.json")
    if verb == "invert-sample":
        record = tmp_path / "rec.json"
        assert main([
            "simulate", "--state", THERMAL, "--scheme", "a", "--nmax", "2",
            "--out", str(record),
        ]) == 0
        doc = read_json(record)
        doc["samples"][0]["value"] = int(HUGE)
        record.write_text(json.dumps(doc))
        argv = ["invert", "--record", str(record)]
    elif verb == "criteria-nbar":
        argv = ["criteria", "--state", '{"type": "thermal", "nbar": %s}' % HUGE]
    else:
        argv = ["criteria", "--state", '{"type": "coherent", "alpha": %s}' % HUGE]
    capsys.readouterr()
    assert main(argv + ["--out", out]) == 2
    assert "too large for a float" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["criteria", "qfunc"])
@pytest.mark.parametrize("where", ["spec", "--dim"])
def test_state_dim_above_the_cap_exits_2_before_any_state(
    verb, where, tmp_path, capsys, monkeypatch
):
    """A dim-100000 thermal state once asked for 74.5 GiB; the cap refuses it
    before a constructor runs."""
    from nclmoments import serialize

    def refuse(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(serialize, "make_thermal", refuse)
    spec = {"type": "thermal", "nbar": 0.5}
    argv = [verb, "--out", str(tmp_path / "x")]
    if where == "spec":
        spec["dim"] = 100000
    else:
        argv += ["--dim", "100000"]
    assert main(argv + ["--state", json.dumps(spec)]) == 2
    assert capsys.readouterr().err == (
        f"error: state spec dim 100000 exceeds the cap {serialize.MAX_DIM}\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["moments", "--order", "100000"], "--order 100000 is above the cap of 2047"),
    (["moments", "--order", "2048"], "--order 2048 is above the cap of 2047"),
    (["criteria", "--nmax", "3000"], "--nmax 3000 is above the cap of 256"),
    (["criteria", "--nmax", "257"], "--nmax 257 is above the cap of 256"),
    (["simulate", "--scheme", "a", "--nmax", "200000", "--depth", "18"],
     "--nmax 200000 is above the cap of 256"),
    (["simulate", "--scheme", "a", "--nmax", "257", "--depth", "8"],
     "--nmax 257 is above the cap of 256"),
    (["simulate", "--scheme", "a", "--nmax", "1", "--depth", "100000000"],
     "--depth 100000000 is above the cap of 18"),
    (["simulate", "--scheme", "a", "--nmax", "1", "--depth", "19"],
     "--depth 19 is above the cap of 18"),
], ids=["order", "order-cap-and-one", "nmax", "nmax-cap-and-one", "scan-nmax",
        "scan-nmax-cap-and-one", "depth", "depth-cap-and-one"])
def test_sizes_above_their_caps_exit_2_before_any_state(
    argv, message, tmp_path, capsys, monkeypatch
):
    """Each of these once ended in a traceback: a 74.5 GiB table, a 275 MiB
    index array, a 298 GiB scan and an ``OverflowError``."""
    from nclmoments import serialize

    def refuse(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(serialize, "make_fock", refuse)
    state = ["--state", '{"type": "fock", "n": 1}', "--out", str(tmp_path / "x")]
    assert main(argv + state) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["moments", "--order", "2047"],
    ["criteria", "--nmax", "256"],
    ["simulate", "--scheme", "a", "--nmax", "256", "--depth", "18"],
])
def test_sizes_at_their_caps_are_accepted(argv):
    from nclmoments.criteria import _hierarchy_basis

    assert (cli.MAX_ORDER, cli.MAX_NMAX) == (2047, 256)
    assert 2**cli.MAX_DEPTH == cli.MAX_GRID_POINTS
    assert _hierarchy_basis("d2", cli.MAX_NMAX).required_order() <= cli.MAX_ORDER
    build_parser().parse_args(argv + ["--state", "{}"])


def test_criteria_refuses_a_determinant_beyond_the_float_range(tmp_path, capsys):
    """This once ended in a ``ValueError`` from the JSON writer (exit 1)."""
    out = tmp_path / "c.json"
    with pytest.warns(nclmoments.OrderAccuracyWarning):
        rc = main(["criteria", "--state", '{"type": "thermal", "nbar": 0.5}',
                   "--nmax", "24", "--kind", "d2", "--out", str(out)])
    assert rc == 3
    assert re.fullmatch(r"error: d2 determinant d_\d+ is (-?inf|nan): it leaves "
                        r"the float range\n", capsys.readouterr().err)
    assert not out.exists()


def test_simulate_refuses_subset_counts_beyond_the_float_range(
    tmp_path, capsys, monkeypatch
):
    """``C(2^18, 79)`` leaves the float range; scheme A once computed every
    order before its ``OverflowError`` (exit 1)."""
    from nclmoments import measurement

    def refuse(*args):
        raise AssertionError("an order was computed")

    monkeypatch.setattr(measurement, "_tree_rows", refuse)
    out = tmp_path / "r.json"
    assert main(["simulate", "--scheme", "a", "--nmax", "79", "--depth", "18",
                 "--state", '{"type": "fock", "n": 1, "dim": 16}',
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: C(2^18, 79), the number of 79-detector subsets of a depth-18 "
        "tree, leaves the float range\n"
    )
    assert not out.exists()


def test_state_dim_at_the_cap_is_accepted(monkeypatch):
    from nclmoments import serialize

    monkeypatch.setattr(serialize, "make_fock", lambda n, dim: dim)
    assert serialize.MAX_DIM == 2**12
    assert state_from_spec({"type": "fock", "n": 0, "dim": 2**12}) == 2**12
    with pytest.raises(ValidationError, match="exceeds the cap"):
        state_from_spec({"type": "fock", "n": 0, "dim": 2**12 + 1})


def _set_sample(doc):
    doc["samples"][0]["value"] = math.nan


def _set_gamma(doc):
    doc["record"]["gammas"][0]["value"] = math.inf


def _set_alpha(doc):
    doc["record"]["lo"]["alpha"] = [math.nan, 0.0]


@pytest.mark.parametrize("scheme, corrupt", [
    ("a", _set_sample), ("b", _set_gamma), ("c", _set_alpha),
])
def test_invert_rejects_non_finite_record_values(tmp_path, capsys, scheme, corrupt):
    """JSON admits NaN and Infinity; a record carrying them is invalid input."""
    record = tmp_path / "rec.json"
    rc = main([
        "simulate", "--state", THERMAL, "--scheme", scheme, "--nmax", "2",
        "--out", str(record),
    ])
    assert rc == 0
    doc = read_json(record)
    corrupt(doc)
    record.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["invert", "--record", str(record), "--out", str(tmp_path / "i.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err


def _set_alpha_true(doc):
    doc["record"]["lo"]["alpha"] = True


def _set_count_string(doc):
    doc["record"]["gammas"][0]["value"] = "0.5"


def _set_sample_true(doc):
    doc["samples"][3]["value"] = True


def _set_sample_string(doc):
    doc["samples"][3]["value"] = "1"


NON_NUMBERS = [
    ("b", _set_alpha_true), ("b", _set_count_string),
    ("a", _set_sample_true), ("a", _set_sample_string),
]


@pytest.mark.parametrize(
    "scheme, corrupt", NON_NUMBERS, ids=[c.__name__ for _, c in NON_NUMBERS]
)
def test_invert_rejects_json_non_numbers(tmp_path, capsys, scheme, corrupt):
    """JSON ``true`` and numeric strings are not numbers."""
    record = tmp_path / "rec.json"
    assert main([
        "simulate", "--state", THERMAL, "--scheme", scheme, "--nmax", "2",
        "--out", str(record),
    ]) == 0
    doc = read_json(record)
    corrupt(doc)
    record.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["invert", "--record", str(record), "--out", str(tmp_path / "i.json")])
    assert rc == 2
    assert "must be a number" in capsys.readouterr().err


def _repeat_sample(doc):
    doc["samples"][1] = dict(doc["samples"][0])


def _drop_sample(doc):
    del doc["samples"][-1]


def _add_sample(doc):
    doc["samples"].append(dict(doc["samples"][0], j=99))


@pytest.mark.parametrize("corrupt", [_repeat_sample, _drop_sample, _add_sample])
def test_invert_rejects_incomplete_phase_scans(tmp_path, capsys, corrupt):
    """A scan needs each ``(n, j)`` of its orders once."""
    record = tmp_path / "rec.json"
    assert main([
        "simulate", "--state", THERMAL, "--scheme", "a", "--nmax", "2",
        "--out", str(record),
    ]) == 0
    doc = read_json(record)
    corrupt(doc)
    record.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["invert", "--record", str(record), "--out", str(tmp_path / "i.json")])
    assert rc == 2
    assert "phase samples are incomplete for n_max" in capsys.readouterr().err


VERB_ARGV = {
    "moments": ["--state", THERMAL],
    "criteria": ["--state", THERMAL],
    "sweep": [],
    "qfunc": ["--state", THERMAL],
    "simulate": ["--state", THERMAL, "--scheme", "b"],
    "invert": ["--record", "rec.json"],
}

VERB_DEFAULTS = {
    "moments": dict(dim=64, out="moments.json", order=4),
    "criteria": dict(dim=64, out="criteria.json", kind="all", nmax=4, phi=0.0,
                     tolerance=1e-9),
    "sweep": dict(dim=None, out="sweep.csv", m_list=(2, 3, 4),
                  lambda_range=[1.05 + i * 0.05 for i in range(20)]),
    "qfunc": dict(dim=64, out="qfunc.csv", grid_bound=2.0, grid_n=41),
    "simulate": dict(dim=64, out="record.json", depth=2, nmax=4, lo_alpha=3 + 0j,
                     t0=math.sqrt(0.5), samples=None, seed=0),
    "invert": dict(out="inverted.json"),
}


@pytest.mark.parametrize("verb", sorted(VERB_ARGV))
def test_config_carries_parser_defaults(verb):
    """A verb's parsed configuration holds its own options, parsed and at
    their declared defaults where omitted, plus ``verb`` and ``run``; it holds
    no option of another verb."""
    argv = VERB_ARGV[verb]
    given = {opt[2:]: value for opt, value in zip(argv[::2], argv[1::2])}
    args = build_parser().parse_args([verb] + argv)
    assert vars(args) == dict(
        VERB_DEFAULTS[verb], **given, verb=verb, run=getattr(cli, f"verb_{verb}")
    )


def test_each_verb_accepts_only_the_options_it_reads():
    parser = build_parser()
    verbs = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    accepted = {
        verb: sorted(
            opt for a in p._actions for opt in a.option_strings
            if opt not in ("-h", "--help")
        )
        for verb, p in verbs.items()
    }
    assert accepted == {
        "moments": ["--dim", "--order", "--out", "--state"],
        "criteria": ["--dim", "--kind", "--nmax", "--out", "--phi", "--state",
                     "--tolerance"],
        "sweep": ["--dim", "--lambda-range", "--m-list", "--out"],
        "qfunc": ["--dim", "--grid-bound", "--grid-n", "--out", "--state"],
        "simulate": ["--depth", "--dim", "--lo-alpha", "--nmax", "--out",
                     "--samples", "--scheme", "--seed", "--state", "--t0"],
        "invert": ["--out", "--record"],
    }
    assert sum(map(len, accepted.values())) == 32


@pytest.mark.parametrize("argv", [
    ["moments", "--state", THERMAL, "--tolerance", "1e-3"],
    ["invert", "--record", "rec.json", "--dim", "8"],
])
def test_verbs_refuse_options_they_do_not_read(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verbs_without_a_state_ignore_default_dim(tmp_path, capsys):
    record = tmp_path / "rec.json"
    assert main(["simulate", "--state", THERMAL, "--scheme", "b",
                 "--out", str(record)]) == 0
    assert main(["invert", "--record", str(record),
                 "--out", str(tmp_path / "i.json")]) == 0
    assert main(["sweep", "--m-list", "1", "--lambda-range", "1.5,1.5,0.1",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["sweep", "--m-list", "1", "--dim", "0",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "--dim must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--m-list", "100", "--lambda-range", "1.5,1.5,0.1"],
    ["moments", "--state", '{"type": "ass", "m": 100, "lambda": 1.5, "dim": 128}'],
])
def test_large_ass_order_is_invalid_input(argv, tmp_path, capsys):
    """``m!^2`` overflows a float from m = 99 on; that is exit 2, not a traceback."""
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "float range" in err


def test_config_takes_given_options():
    parser = build_parser()
    config = parser.parse_args([
        "simulate", "--state", THERMAL, "--scheme", "a", "--nmax", "6",
        "--depth", "3", "--lo-alpha", "1,2", "--samples", "100", "--seed", "5",
    ])
    assert (config.nmax, config.depth, config.lo_alpha) == (6, 3, 1 + 2j)
    assert (config.samples, config.seed) == (100.0, 5)


def test_package_import_leaves_scipy_linalg_unloaded():
    """Importing the package loads no part of SciPy, which it does not use."""
    result = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, nclmoments; print('scipy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_module_entry_point(tmp_path):
    result = subprocess.run(
        [
            sys.executable, "-m", "nclmoments.cli",
            "criteria", "--state", SQUEEZED, "--kind", "quad",
            "--out", str(tmp_path / "c.json"),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 10
    assert "first negative at N=2" in result.stdout


@pytest.mark.parametrize("option,value", [
    ("--phi", "nan"), ("--phi", "inf"), ("--phi", "-inf"),
    ("--tolerance", "nan"), ("--tolerance", "inf"),
])
def test_criteria_refuses_non_finite_phi_and_tolerance(option, value, tmp_path, capsys):
    out = tmp_path / "c.json"
    argv = ["criteria", "--state", THERMAL, f"{option}={value}", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {option} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("nbar", ["NaN", "Infinity"])
def test_criteria_refuses_a_non_finite_state_spec(nbar, tmp_path, capsys):
    """A NaN thermal state once ran through the hierarchies and failed in
    ``write_json`` with a traceback and exit 1."""
    out = tmp_path / "c.json"
    spec = f'{{"type": "thermal", "nbar": {nbar}}}'
    assert main(["criteria", "--state", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-inf", "0.5"])
def test_simulate_refuses_a_non_finite_or_small_sample_budget(value, tmp_path, capsys):
    """``--samples inf`` would write a noise-free record and exit 0."""
    out = tmp_path / "r.json"
    argv = ["simulate", "--state", THERMAL, "--scheme", "b", f"--samples={value}",
            "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: --samples must be finite and at least 1"
    )
    assert not out.exists()


def _bright_table(alpha: complex, covariance_residue: complex) -> MomentTable:
    """A coherent table whose ``<a^dag^2 a^2>`` carries an imaginary residue."""
    k = np.arange(5)
    values = np.conj(alpha) ** k[:, None] * alpha ** k[None, :]
    values[2, 2] += covariance_residue
    return MomentTable(values)


def test_sweep_raises_at_the_first_inconsistent_lambda(tmp_path, monkeypatch, capsys):
    """The first λ whose witnesses fail their check is the one reported."""
    bad = {1: _bright_table(30 + 20j, 1j), 3: _bright_table(25 + 10j, 3j)}
    exact = cli.ass_moment_tables

    def tampered(m, lams):
        values = np.array(exact(m, lams).values)
        for i, table in bad.items():
            values[i] = table.values
        return MomentTable(values)

    monkeypatch.setattr(cli, "ass_moment_tables", tampered)
    e = bad[1].entry
    with pytest.raises(NumericConsistencyError) as want:
        as_real(e(2, 2) - abs(e(0, 2)) ** 2, "amplitude-squared covariance")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--m-list", "2,3", "--lambda-range", "1.1,1.5,0.1",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {want.value}\n"
    assert not out.exists()


FRESH_RUNS = [
    ["criteria", "--state", SQUEEZED, "--phi", "0.37", "--out", "c.json"],
    ["sweep", "--m-list", "2,3", "--lambda-range", "1.1,1.5,0.1", "--out", "s.csv"],
    ["simulate", "--state", THERMAL, "--scheme", "c", "--samples", "1000",
     "--out", "r.json"],
    ["invert", "--record", "r.json", "--out", "i.json"],
    ["criteria", "--state", THERMAL, "--kind", "d2", "--nmax", "3", "--out", "t.json"],
    ["criteria", "--state", THERMAL, "--phi", "nan", "--out", "n.json"],
]


def test_main_builds_one_parser_and_answers_as_fresh_interpreters(
    tmp_path, monkeypatch, capsys
):
    """Repeated in-process calls share one parser and give a fresh process's
    exit codes, output lines and files."""
    builds = []

    def counting_build_parser():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    got = []
    for argv in FRESH_RUNS:
        code = main(argv)
        printed = capsys.readouterr()
        got.append((code, printed.out, printed.err))
    assert len(builds) == 1

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(nclmoments.__file__))
    want = []
    for argv in FRESH_RUNS:
        result = subprocess.run(
            [sys.executable, "-m", "nclmoments.cli"] + argv,
            capture_output=True, text=True, cwd=fresh, env=env,
        )
        want.append((result.returncode, result.stdout, result.stderr))
    assert got == want
    assert [c for c, _, _ in got] == [10, 0, 0, 0, 0, 2]
    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in here.iterdir())
    for name in names:
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
