"""nclmoments benchmark: one command, four seeded closed-loop workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay.  Every workload runs in fresh interpreters
(``bench/worker.py``) with BLAS pinned to one thread; the program is
imported from ``src/`` of the checkout.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``bench/README.md`` for the metrics, workloads and known failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("classify", "bochner", "measure", "cli")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "operators.busy_s": "s",
    "operators.dense_exp_calls": "count",
    "operators.dense_exp_dim3": "count",
    "moments.char_busy_s": "s",
    "moments.char_calls": "count",
    "criteria.bochner_busy_s": "s",
    "criteria.bochner_det_calls": "count",
    "criteria.bochner_char_evals": "count",
    "criteria.bochner_cache_hit_ratio": "ratio",
    "states.busy_s": "s",
    "states.calls": "count",
    "moments.table_busy_s": "s",
    "moments.table_calls": "count",
    "moments.table_entries": "count",
    "moments.order_warnings": "count",
    "criteria.hierarchy_busy_s": "s",
    "criteria.hierarchy_calls": "count",
    "criteria.matrix_entries": "count",
    "hermite.busy_s": "s",
    "hermite.calls": "count",
    "hermite.memo_entries": "count",
    "measurement.forward_busy_s": "s",
    "measurement.noise_busy_s": "s",
    "measurement.invert_busy_s": "s",
    "measurement.calls": "count",
    "measurement.inversion_failures": "count",
    "serialize.encode_busy_s": "s",
    "serialize.decode_busy_s": "s",
    "serialize.bytes": "byte",
    "cli.criteria_busy_s": "s",
    "cli.sweep_busy_s": "s",
    "cli.qfunc_busy_s": "s",
    "cli.simulate_busy_s": "s",
    "cli.invert_busy_s": "s",
    "trace.op_wall_s": "s",
    "trace.harness_remainder_s": "s",
    "trace.operators_char_share": "ratio",
    "trace.overhead_share": "ratio",
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def git_commit(root: Path):
    """HEAD commit read from ``.git`` without running git; None outside a repo."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Runner:
    """Starts workers in fresh interpreters and collects their results."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float) -> None:
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.bench = root / "bench"
        self.workdir = self.bench / ".work" / f"{workload}-{seed}-{os.getpid()}"
        path = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p]
        self.env = dict(os.environ, **PINS, PYTHONPATH=os.pathsep.join(path))

    def worker(self, mode: str, trace: int = 0, spans: Path | None = None) -> dict:
        cmd = [sys.executable, str(self.bench / "worker.py"), "--mode", mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", str(self.seconds), "--trace", str(trace),
               "--workdir", str(self.workdir)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n"
                               f"{proc.stderr[-3000:]}")
        if mode == "probe":
            return {}
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expected = (self.root / "src" / "nclmoments").resolve()
        if Path(result["package_path"]) != expected:
            raise RuntimeError(f"imported nclmoments from {result['package_path']}, "
                               f"not {expected}")
        return result

    def setup_seconds(self) -> list[float]:
        times = []
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            self.worker("probe")
            times.append(time.perf_counter() - start)
        return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def summarize_failures(result: dict) -> tuple[int, int, list[str]]:
    """(failed ops, known-defect ops, one line per failing input).

    A known defect is a listed input giving its documented wrong answer
    (``workloads.KNOWN_FAILURES``); it counts in ``fail_share`` but not in
    ``failed``.  Every other failing op counts in ``failed``.
    """
    lines = []
    for label, info in result["defects"].items():
        lines.append(f"failing input: {label} x{info['count']} (known defect: "
                     f"{info['cause']}); first: {info['example']}")
    for label, info in result["failures"].items():
        lines.append(f"failing input: {label} x{info['count']} (UNEXPECTED); "
                     f"first: {info['example']}")
    failed = sum(info["count"] for info in result["failures"].values())
    known = sum(info["count"] for info in result["defects"].values())
    return failed, known, lines


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    setups = runner.setup_seconds()
    result = runner.worker("timed")
    lat = result["latencies"]
    n = len(lat)
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if n > 1 else lat * 9
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    failed, known, lines = summarize_failures(result)
    beyond = sum(1 for x in lat if x > deciles[8])
    print(f"setup_s = {metrics['setup_s']['value']:.4f} s "
          f"(median of {len(setups)} fresh interpreters: "
          + ", ".join(f"{s:.3f}" for s in setups) + ")")
    print(f"ops_per_s = {metrics['ops_per_s']['value']:.4f} 1/s "
          f"({n} ops, {sum(lat):.2f} s in ops, {len(result['cycle_s'])} whole cycles, "
          f"{result['harness_s']:.2f} s generating inputs and checking outputs)")
    print(f"op_p50_ms = {metrics['op_p50_ms']['value']:.3f} ms (n={n})")
    print(f"op_p90_ms = {metrics['op_p90_ms']['value']:.3f} ms "
          f"(n={n}, {beyond} samples beyond p90)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"fail_share = {(failed + known) / n:.4f} ({known} of {n} ops gave a known "
          f"wrong answer, {failed} failed otherwise)")
    for line in lines:
        print(line)
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": metrics}, result


def traced(runner: Runner) -> tuple[dict, dict]:
    plain = runner.worker("fixed")
    spans = runner.bench / ".work" / f"spans-{runner.workload}-seed{runner.seed}.json"
    result = runner.worker("fixed", trace=1, spans=spans)
    layers = result["layers"]
    layers["trace.overhead_share"] = sum(result["latencies"]) / sum(plain["latencies"]) - 1
    metrics = {name: metric(layers[name], unit) for name, unit in PER_LAYER.items()}
    failed, _, lines = summarize_failures(result)
    for name in PER_LAYER:
        print(f"{name} = {layers[name]:.6g} {PER_LAYER[name]}")
    self_sum = sum(v for k, v in layers.items()
                   if k.endswith("busy_s")) + layers["trace.harness_remainder_s"]
    print(f"layer self times + harness remainder = {self_sum:.4f} s; "
          f"traced op wall = {layers['trace.op_wall_s']:.4f} s; "
          f"{layers['trace.spans']} spans in {spans.relative_to(runner.root)}")
    for line in lines:
        print(line)
    n = len(result["latencies"])
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": metrics}, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "nclmoments" / "__init__.py").is_file():
        return fail(f"{root} holds no src/nclmoments; run from the repository root")
    if not (root / "bench" / "worker.py").is_file():
        return fail(f"{root} holds no bench/worker.py; run from the repository root")

    runner = Runner(root, args.workload, args.seed, args.seconds)
    runner.workdir.mkdir(parents=True, exist_ok=True)
    try:
        summary, result = (traced if args.trace else end_to_end)(runner)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (runner.bench / ".work" / name).write_text(json.dumps(result))
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "pins": PINS,
        "commit": git_commit(root), "src_sha256": source_digest(root / "src"),
        **result["versions"],
    }
    print("env = " + json.dumps(env, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
