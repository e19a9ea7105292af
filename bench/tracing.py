"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of the boundary: ``install``
replaces each listed public function of ``nclmoments`` by a timing wrapper,
under every module-level name that refers to it, so a caller that did
``from .moments import char_function`` reaches the wrapper too.  Nothing
under ``src/`` is edited.  Spans live in memory as
``[name, layer, start, end, parent, op]`` rows and are written out once,
when the run ends.

A span's self time is its duration minus the time covered by its children.
Each layer's ``busy_s`` is the sum of the self times of its spans; the op
span's own self time is the harness remainder (benchmark code inside an op).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

# (module, function name) -> layer.  Counted-but-cheap helpers such as
# ``lowered`` or ``quad_moment`` are left to the layer of their caller, so a
# span is opened per call of a routine, not per moment entry.
LAYERS = {
    ("operators", "squeeze_matrix"): "operators",
    ("operators", "displacement_matrix"): "operators",
    ("states", "make_fock"): "states",
    ("states", "make_coherent"): "states",
    ("states", "make_thermal"): "states",
    ("states", "apply_squeeze"): "states",
    ("states", "make_ass_state"): "states",
    ("states", "ass_params"): "states",
    ("states", "q_function"): "states",
    ("moments", "moment_table"): "moments.table",
    ("moments", "char_function"): "moments.char",
    ("criteria", "determinant_hierarchy"): "criteria.hierarchy",
    ("criteria", "build_matrix"): "criteria.hierarchy",
    ("criteria", "build_matrix_d2"): "criteria.hierarchy",
    ("criteria", "s3"): "criteria.hierarchy",
    ("criteria", "s2_witnesses"): "criteria.hierarchy",
    ("criteria", "asq_min_max"): "criteria.hierarchy",
    ("criteria", "asq_variance"): "criteria.hierarchy",
    ("criteria", "principal_minor"): "criteria.hierarchy",
    ("criteria", "bochner_search"): "criteria.bochner",
    ("criteria", "bochner_det"): "criteria.bochner",
    ("hermite", "ass_moment_analytic"): "hermite",
    ("hermite", "ass_oracle"): "hermite",
    ("hermite", "gegenbauer_c_m_sq"): "hermite",
    ("measurement", "scheme_a_forward"): "measurement.forward",
    ("measurement", "scheme_a_sample_and_fourier"): "measurement.forward",
    ("measurement", "scheme_b_forward"): "measurement.forward",
    ("measurement", "scheme_c_forward"): "measurement.forward",
    ("measurement", "add_shot_noise"): "measurement.noise",
    ("measurement", "scheme_a_invert"): "measurement.invert",
    ("measurement", "scheme_b_extract"): "measurement.invert",
    ("measurement", "scheme_c_extract"): "measurement.invert",
    ("serialize", "table_to_json"): "serialize.encode",
    ("serialize", "report_to_json"): "serialize.encode",
    ("serialize", "detection_record_to_json"): "serialize.encode",
    ("serialize", "fourier_record_to_json"): "serialize.encode",
    ("serialize", "write_json"): "serialize.encode",
    ("serialize", "write_csv"): "serialize.encode",
    ("serialize", "read_json"): "serialize.decode",
    ("serialize", "table_from_json"): "serialize.decode",
    ("serialize", "detection_record_from_json"): "serialize.decode",
    ("serialize", "fourier_record_from_json"): "serialize.decode",
    ("serialize", "parse_state_argument"): "serialize.decode",
    ("cli", "main"): "cli",
}

MODULES = ("operators", "states", "moments", "criteria", "hermite",
           "measurement", "serialize", "cli")
CLI_VERBS = ("criteria", "sweep", "qfunc", "simulate", "invert")
OP_LAYER = "harness.op"


class Tracer:
    """In-memory span recorder; ``enabled`` gates recording inside ops only."""

    def __init__(self, record: bool = False) -> None:
        self.record = record
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self._op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Span around benchmark-side code, such as a constructor call."""
        if not self.enabled:
            yield
            return
        idx = self._open(name, layer)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def op(self, op_id: int, label: str):
        """Root span of one op; only spans opened inside an op are recorded."""
        if not self.record:
            yield
            return
        self._op = op_id
        self.enabled = True
        idx = self._open(label, OP_LAYER)
        try:
            yield
        finally:
            self._close(idx)
            self.enabled = False

    def _count(self, name: str, args, kwargs, result) -> None:
        counts = self.counts
        if name in ("squeeze_matrix", "displacement_matrix"):
            dim = int(args[1] if len(args) > 1 else kwargs["dim"])
            counts["operators.dense_exp_calls"] += 1
            counts["operators.dense_exp_dim3"] += dim ** 3
        elif name == "moment_table":
            counts["moments.table_entries"] += result.values.size
        elif name in ("build_matrix", "build_matrix_d2"):
            counts["criteria.matrix_entries"] += result.values.size
        elif name == "bochner_det":
            k = len(args[1] if len(args) > 1 else kwargs["betas"])
            counts["criteria.bochner_phi_requested"] += k * (k - 1) // 2
        elif name in ("write_json", "write_csv"):
            counts["serialize.bytes"] += Path(args[0]).stat().st_size

    # -- installation ----------------------------------------------------
    def install(self, package) -> None:
        """Wrap every function in ``LAYERS`` under all names that bind it."""
        import importlib

        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}") for m in MODULES
        ]
        for (mod_name, fn_name), layer in LAYERS.items():
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            original = getattr(mod, fn_name)
            wrapper = self._wrap(original, fn_name, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_layer = layer
            if name == "main":
                argv = args[0] if args else kwargs.get("argv")
                span_layer = f"cli.{argv[0]}"
            idx = tracer._open(name, span_layer)
            try:
                if name == "moment_table":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "moment_table":
                for w in caught:
                    if type(w.message).__name__ == "OrderAccuracyWarning":
                        tracer.counts["moments.order_warnings"] += 1
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            tracer._count(name, args, kwargs, result)
            return result

        return wrapper

    # -- aggregation -----------------------------------------------------
    def self_times(self) -> list[float]:
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def summary(self) -> dict[str, float]:
        """Per-layer busy time and counts over all recorded spans."""
        own = self.self_times()
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for s, t in zip(self.spans, own):
            busy[s[1]] += t
            calls[s[1]] += 1
        names = Counter((s[0], s[1]) for s in self.spans)

        def under(idx: int, layer: str) -> bool:
            parent = self.spans[idx][4]
            while parent >= 0:
                if self.spans[parent][1] == layer:
                    return True
                parent = self.spans[parent][4]
            return False

        char_in_bochner = sum(
            1 for i, s in enumerate(self.spans)
            if s[0] == "char_function" and under(i, "criteria.bochner")
        )
        requested = self.counts["criteria.bochner_phi_requested"]
        op_wall = sum(s[3] - s[2] for s in self.spans if s[1] == OP_LAYER)
        c = self.counts
        out = {
            "operators.busy_s": busy["operators"],
            "operators.dense_exp_calls": c["operators.dense_exp_calls"],
            "operators.dense_exp_dim3": c["operators.dense_exp_dim3"],
            "moments.char_busy_s": busy["moments.char"],
            "moments.char_calls": calls["moments.char"],
            "criteria.bochner_busy_s": busy["criteria.bochner"],
            "criteria.bochner_det_calls": names[("bochner_det", "criteria.bochner")],
            "criteria.bochner_char_evals": char_in_bochner,
            "criteria.bochner_cache_hit_ratio": (
                1.0 - char_in_bochner / requested if requested else 0.0
            ),
            "states.busy_s": busy["states"],
            "states.calls": calls["states"],
            "moments.table_busy_s": busy["moments.table"],
            "moments.table_calls": calls["moments.table"],
            "moments.table_entries": c["moments.table_entries"],
            "moments.order_warnings": c["moments.order_warnings"],
            "criteria.hierarchy_busy_s": busy["criteria.hierarchy"],
            "criteria.hierarchy_calls": names[
                ("determinant_hierarchy", "criteria.hierarchy")
            ],
            "criteria.matrix_entries": c["criteria.matrix_entries"],
            "hermite.busy_s": busy["hermite"],
            "hermite.calls": calls["hermite"],
            "measurement.forward_busy_s": busy["measurement.forward"],
            "measurement.noise_busy_s": busy["measurement.noise"],
            "measurement.invert_busy_s": busy["measurement.invert"],
            "measurement.calls": sum(
                calls[k] for k in ("measurement.forward", "measurement.noise",
                                   "measurement.invert")
            ),
            "serialize.encode_busy_s": busy["serialize.encode"],
            "serialize.decode_busy_s": busy["serialize.decode"],
            "serialize.bytes": c["serialize.bytes"],
        }
        for verb in CLI_VERBS:
            out[f"cli.{verb}_busy_s"] = busy[f"cli.{verb}"]
        out["trace.op_wall_s"] = op_wall
        out["trace.harness_remainder_s"] = busy[OP_LAYER]
        out["trace.spans"] = len(self.spans)
        out["trace.operators_char_share"] = (
            (busy["operators"] + busy["moments.char"]) / op_wall if op_wall else 0.0
        )
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
