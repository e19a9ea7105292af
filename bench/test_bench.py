"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

They show that each checker rejects a corrupted output, that one seed always
yields the same inputs, that the traced counts repeat exactly, and that the
benchmark refuses to run without the program's sources.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from worker import PINS  # noqa: E402  (pins BLAS threads before numpy loads)

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import (KINDS, KNOWN_FAILURES, WORKLOADS, Ctx,  # noqa: E402
                       cycle_inputs, known_cause)

assert all(os.environ[k] == v for k, v in PINS.items())


@pytest.fixture
def ctx(tmp_path):
    return Ctx(Tracer(), tmp_path)


def op_of(workload, label, seed=3):
    return next(op for op in cycle_inputs(workload, seed, 0) if op.label == label)


def execute(ctx, op):
    """Run one op and return (check, prepared, output); the output must pass."""
    prepare, run_op, check = KINDS[op.kind]
    prepared = prepare(ctx, op.inputs)
    out = run_op(ctx, op.inputs, prepared)
    assert check(ctx, op.inputs, prepared, out) is None
    return check, prepared, out


def rejected(ctx, op, prepared, out, check, fragment):
    reason = check(ctx, op.inputs, prepared, out)
    assert reason is not None and fragment in reason, reason


# -- checkers reject corrupted outputs ---------------------------------------


def test_classify_rejects_flipped_verdicts(ctx):
    op = op_of("classify", "coherent")
    check, prepared, out = execute(ctx, op)
    reports = list(out["reports"])
    reports[0] = dataclasses.replace(reports[0], first_negative_order=3)
    rejected(ctx, op, prepared, dict(out, reports=reports), check, "classical state flagged")

    op = op_of("classify", "fock")
    check, prepared, out = execute(ctx, op)
    cleared = [dataclasses.replace(r, first_negative_order=None) for r in out["reports"]]
    rejected(ctx, op, prepared, dict(out, reports=cleared), check, "not detected")


def test_classify_rejects_perturbed_moments(ctx):
    op = op_of("classify", "squeezed")
    check, prepared, out = execute(ctx, op)
    table = out["table"]
    values = np.array(table.values)
    values[2, 1] += 1e-6
    values[1, 2] = np.conj(values[2, 1])
    bad = dataclasses.replace(table, values=values)
    rejected(ctx, op, prepared, dict(out, table=bad), check, "dense powers")


def test_classify_rejects_perturbed_analytic_moments(ctx):
    op = op_of("classify", "ass")
    check, prepared, out = execute(ctx, op)
    analytic = np.array(out["analytic"])
    analytic[2, 2] *= 1 + 1e-4
    rejected(ctx, op, prepared, dict(out, analytic=analytic), check, "ass_moment_analytic")


def test_bochner_rejects_wrong_value_and_points(ctx):
    op = op_of("bochner", "squeezed-d64-k2-g16")
    check, prepared, res = execute(ctx, op)
    off = dataclasses.replace(res, value=res.value + 1e-4 * max(1.0, abs(res.value)))
    rejected(ctx, op, prepared, off, check, "closed form")
    moved = dataclasses.replace(res, points=(0j, res.points[1] * 0.9))
    rejected(ctx, op, prepared, moved, check, "closed form")

    op = op_of("bochner", "thermal-d64-k2-g16")
    check, prepared, res = execute(ctx, op)
    flipped = dataclasses.replace(res, value=-1.0)
    reason = check(ctx, op.inputs, prepared, flipped)
    assert reason is not None


def test_measure_rejects_corrupted_round_trips(ctx):
    op = op_of("measure", "scheme-a-n4-d2-a3-clean")
    check, prepared, out = execute(ctx, op)
    table = out["result"]
    values = np.array(table.values)
    values[1, 1] += 1e-6
    bad = dataclasses.replace(table, values=values, validate=False)
    rejected(ctx, op, prepared, dict(out, result=bad), check, "round trip error")

    back = out["back"]
    samples = dict(back.samples)
    samples[(1, 0)] += 1e-9
    changed = dataclasses.replace(back, samples=samples)
    rejected(ctx, op, prepared, dict(out, back=changed), check, "JSON round trip")

    op = op_of("measure", "scheme-b-a3-clean")
    check, prepared, out = execute(ctx, op)
    result = dict(out["result"], n=out["result"]["n"] + 1e-6)
    rejected(ctx, op, prepared, dict(out, result=result), check, "extracted n")


def test_measure_rejects_noise_outside_its_model(ctx):
    op = op_of("measure", "scheme-c-a3-1e6")
    check, prepared, out = execute(ctx, op)
    rec = out["noisy"][0]
    loud = dataclasses.replace(rec, gammas={k: 2 * v for k, v in rec.gammas.items()})
    out = dict(out, noisy=[loud, out["noisy"][1]], back=[loud, out["back"][1]])
    rejected(ctx, op, prepared, out, check, "8 sigma")


def test_cli_checks_reject_corrupted_files(ctx):
    ops = cycle_inputs("cli", 3, 0)
    for op in ops:
        check, argv, code = execute(ctx, op)
        verb = op.inputs["argv"][0]
        if verb == "criteria":
            rejected(ctx, op, argv, 10 - code, check, "exit code")
            continue
        path = Path(argv[argv.index("--out") + 1])
        text = path.read_text()
        if verb in ("sweep", "qfunc"):
            lines = text.splitlines()
            cells = lines[5].split(",")
            cells[-1] = repr(float(cells[-1]) * (1 + 1e-5) + 1e-9)
            lines[5] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
        elif verb == "simulate" and op.inputs["scheme"] != "a":
            continue  # b and c records are checked through their inversion
        else:
            doc = json.loads(text)
            if verb == "simulate":
                doc["samples"][3]["value"] *= 1 + 1e-6
            elif "entries" in doc:
                doc["entries"][4]["re"] += 1e-6
            else:
                doc["n"] += 1e-6
            path.write_text(json.dumps(doc))
        assert check(ctx, op.inputs, argv, code) is not None, verb
        path.write_text(text)


def test_known_defects_are_told_apart_from_failures():
    flagged = "classical state flagged: d2 n_max 15 at N=15"
    assert known_cause("mixture-A3-d2n15", flagged) is not None
    # the same input failing another check, or another input with that answer
    assert known_cause("mixture-A3-d2n15", "moment table differs from dense "
                                           "powers by 1.00e-03") is None
    assert known_cause("mixture-A2-d2n13", flagged) is None
    assert known_cause("scheme-a-n8-d3-a3-1e4", "shot noise exceeds 8 sigma "
                                                "of its model") is None
    raised = ("raised NumericConsistencyError: scheme A coincidence F_8 should be "
              "real but has imaginary part 1.397e-08")
    assert known_cause("scheme-a-n8-d3-a3-clean", raised) is not None
    assert known_cause("scheme-a-n4-d2-a3-clean", raised) is None
    labels = {op.label for w in WORKLOADS for op in cycle_inputs(w, 1, 0)}
    assert set(KNOWN_FAILURES) <= labels


# -- inputs -------------------------------------------------------------------


def canonical(ops):
    return json.dumps([(op.kind, op.label, op.inputs) for op in ops], sort_keys=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_always_yields_identical_inputs(workload):
    for cycle in (0, 1):
        first = canonical(cycle_inputs(workload, 5, cycle))
        assert canonical(cycle_inputs(workload, 5, cycle)) == first
        assert canonical(cycle_inputs(workload, 6, cycle)) != first
    labels = [[op.label for op in cycle_inputs(workload, s, 0)] for s in (5, 6)]
    assert labels[0] == labels[1]  # the seed draws parameters, not the op mix


# -- traced counts --------------------------------------------------------------

COUNTS = ("operators.dense_exp_calls", "moments.table_entries",
          "criteria.matrix_entries", "criteria.bochner_char_evals",
          "hermite.memo_entries", "serialize.bytes")


def traced_layers(workload, workdir):
    env = dict(os.environ, **PINS, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--mode", "fixed", "--trace", "1",
         "--workload", workload, "--seed", "4", "--workdir", str(workdir)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["layers"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = traced_layers(workload, tmp_path)
    second = traced_layers(workload, tmp_path)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    self_sum = sum(v for k, v in first.items() if k.endswith("busy_s"))
    self_sum += first["trace.harness_remainder_s"]
    assert self_sum == pytest.approx(first["trace.op_wall_s"], rel=1e-9)


# -- contract -------------------------------------------------------------------


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
