"""One workload in a fresh interpreter; started by ``run.py``.

Modes:

* ``probe``  — import ``nclmoments``, run the warm-up op, exit.  ``run.py``
  times the whole process to get ``setup_s``.
* ``timed``  — warm up, then run whole cycles until the next cycle would
  end past ``--seconds``; report every op latency.
* ``fixed``  — run exactly the workload's ``trace_cycles`` cycles, with or
  without span wrappers, so two traced runs of one seed do identical work.
* ``check``  — the checker process that ``timed`` and ``fixed`` start: it
  checks one op's output at a time, sent pickled over its standard input,
  so checking neither overlaps an op nor counts in the measuring process's
  peak memory.

The last line of standard output is one JSON object for ``run.py``.
"""

import os

PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINS)  # must precede the first numpy import

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import nclmoments  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import (KINDS, WORKLOADS, Ctx, cycle_inputs,  # noqa: E402
                       known_cause, serve_checks)


def run_one(ctx, op, op_id, checker):
    """Prepare, run (timed) and check one op; returns (latency, failure or None).

    ``checker`` is the checker process, or None to skip the check (set-up
    probes).
    """
    prepare, run, _ = KINDS[op.kind]
    prepared = prepare(ctx, op.inputs)
    start = time.perf_counter()
    try:
        with ctx.tracer.op(op_id, op.label):
            out = run(ctx, op.inputs, prepared)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if checker is None:
        return latency, None
    pickle.dump((op.kind, op.inputs, prepared, out), checker.stdin)
    checker.stdin.flush()
    return latency, pickle.load(checker.stdout)


def memo_entries(hermite) -> int:
    """Entries in the Hermite oracles' memo tables (0 if the cache is gone)."""
    cache = getattr(hermite, "_ORACLE_CACHE", {})
    return sum(len(getattr(o, "_memo", ())) for o in cache.values())


def measure(args, checker) -> dict:
    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    ctx = Ctx(tracer, args.workdir)
    _, reason = run_one(ctx, workload.warmup, -1, checker)
    if reason is not None:
        raise RuntimeError(f"warm-up op failed: {reason}")
    if args.trace:  # the warm-up op stays out of the spans
        tracer.record = True
        tracer.install(nclmoments)

    latencies, labels = [], []
    failures, defects = {}, {}  # label -> {count, example, cause}
    memo, cycle_s = 0, []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for op in cycle_inputs(args.workload, args.seed, len(cycle_s)):
            before = memo_entries(ctx.hermite)
            latency, reason = run_one(ctx, op, len(latencies), checker)
            memo += memo_entries(ctx.hermite) - before
            latencies.append(latency)
            labels.append(op.label)
            if reason is not None:
                cause = known_cause(op.label, reason)
                entry = (defects if cause else failures).setdefault(
                    op.label, {"count": 0, "example": reason, "cause": cause})
                entry["count"] += 1
                if op.kind == "measure":
                    tracer.counts["measurement.inversion_failures"] += 1
        cycle_s.append(time.perf_counter() - cycle_start)
        if args.mode == "fixed":
            if len(cycle_s) >= workload.trace_cycles:
                break
        elif time.perf_counter() - start + sum(cycle_s) / len(cycle_s) > args.seconds:
            break
    loop_s = time.perf_counter() - start
    tracer.uninstall()

    result = {
        "latencies": latencies,
        "labels": labels,
        "cycle_s": cycle_s,
        "loop_s": loop_s,
        "harness_s": loop_s - sum(latencies),  # input generation and checks
        "failures": dict(sorted(failures.items())),
        "defects": dict(sorted(defects.items())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "nclmoments": nclmoments.__version__},
        "package_path": str(Path(nclmoments.__file__).resolve().parent),
    }
    if args.trace:
        layers = tracer.summary()
        layers["hermite.memo_entries"] = memo
        layers["measurement.inversion_failures"] = tracer.counts[
            "measurement.inversion_failures"]
        result["layers"] = layers
        if args.spans is not None:
            tracer.dump(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["probe", "timed", "fixed", "check"],
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.mode == "probe":
        run_one(Ctx(Tracer(), args.workdir), WORKLOADS[args.workload].warmup, -1, None)
        return 0

    if args.mode == "check":
        answers = os.fdopen(os.dup(1), "wb")
        os.dup2(2, 1)  # stray prints must not corrupt the answer stream
        serve_checks(sys.stdin.buffer, answers, args.workdir)
        return 0

    checker = subprocess.Popen(
        [sys.executable, __file__, "--mode", "check", "--workload", args.workload,
         "--workdir", str(args.workdir)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        result = measure(args, checker)
    finally:
        checker.stdin.close()
        try:
            checker.wait(timeout=30)
        except subprocess.TimeoutExpired:
            checker.kill()
            checker.wait()
        checker.stdout.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
