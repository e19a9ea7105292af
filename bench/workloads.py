"""Seeded workloads: input generators, the ops that drive the program, and
the checks that judge each op's output against ``oracles``.

A workload is a fixed schedule of op kinds (the *cycle*); the seed only
draws the continuous parameters inside each kind, so every seed runs the
same mix of work.  An op's inputs are plain data (``Op.inputs``); anything
built from them before timing starts happens in ``prepare``.  ``run`` is the
timed part and calls the program only through module attributes such as
``ctx.criteria.determinant_hierarchy``, which is where the traced run puts
its span wrappers.  ``check`` runs after the op, untimed and untraced.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracles


@dataclass(frozen=True)
class Op:
    kind: str    # selects prepare/run/check
    label: str   # the input's family; names known failures
    inputs: dict


@dataclass(frozen=True)
class Workload:
    cycle: Callable[[np.random.Generator, int], list]
    warmup: Op
    trace_cycles: int  # whole cycles replayed by the traced run


class Ctx:
    """What an op may touch: the program's modules, the tracer, a work dir."""

    def __init__(self, tracer, workdir: Path) -> None:
        from nclmoments import (cli, criteria, hermite, measurement, moments,
                                serialize, states)

        self.states, self.moments, self.criteria = states, moments, criteria
        self.hermite, self.measurement = hermite, measurement
        self.serialize, self.cli = serialize, cli
        self.tracer = tracer
        self.workdir = workdir


# -- known defects at the seed commit ---------------------------------------
# Inputs kept in the workloads although the program gets them wrong.  Each
# maps to (documented cause, starts of the check's messages for its wrong
# answers).  An op of a listed input whose check fails with that message is a
# known defect: it counts in fail_share and is printed by name, but not in
# `failed`.  Any other failure of any op counts in `failed` and makes the run
# incorrect.
A_N8_MESSAGES = ("noise-free round trip error",
                 "raised NumericConsistencyError: scheme A coincidence F_")
KNOWN_FAILURES = {
    "mixture-A3-d2n15": ("d2 flags the classical coherent mixture {A,-A,iA,-iA/2} "
                         "at N=15: degree-N determinant vs degree-1 threshold "
                         "(ROADMAP item 4)", ("classical state flagged: d2 ",)),
    "mixture-A4-d2n14": ("d2 flags the classical coherent mixture at N=13 "
                         "(ROADMAP item 4)", ("classical state flagged: d2 ",)),
    "thermal-nbar1.5-d2n10": ("d2 flags thermal nbar=1.5 at N=9 on dim 64 "
                              "(ROADMAP item 4)", ("classical state flagged: d2 ",)),
    "scheme-a-n8-d3-a3-clean": ("scheme A is ill-conditioned at n_max 8, alpha 3: the "
                                "peeling inversion's error is 1e-5..1, and on some "
                                "states the forward model's F_8 keeps an imaginary "
                                "roundoff above its fixed 1e-8 tolerance and raises "
                                "(ROADMAP item 5)", A_N8_MESSAGES),
    "scheme-a-n8-d3-a3-1e4": ("same ill-conditioned scheme A, under 1e4-sample noise",
                              A_N8_MESSAGES),
    "scheme-a-n8-d3-a3-1e6": ("same ill-conditioned scheme A, under 1e6-sample noise",
                              A_N8_MESSAGES),
}


def known_cause(label: str, reason: str) -> Optional[str]:
    """The documented cause if ``reason`` is a listed wrong answer of ``label``."""
    cause, messages = KNOWN_FAILURES.get(label, (None, ()))
    return cause if reason.startswith(messages) else None


def _phase(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))


def _c(z: complex) -> list:
    return [z.real, z.imag]


def _table_order(hierarchies) -> int:
    """Moment order a set of (kind, n_max) hierarchies needs, at least 4."""
    order = 4
    for kind, n in hierarchies:
        if kind == "d2":
            order = max(order, 2 * n)
        else:
            degree = 0
            while (degree + 1) * (degree + 2) // 2 < n:
                degree += 1
            order = max(order, 2 * degree)
    return order


# -- state specs shared by the workloads ------------------------------------


def _seeded_spec(family: str, rng, dim: int) -> dict:
    """A state spec of one family with seeded parameters, plus its label."""
    if family == "fock":
        return {"type": "fock", "n": int(rng.integers(1, 5)), "dim": dim,
                "label": "nonclassical"}
    if family == "coherent":
        return {"type": "coherent", "alpha": _c(rng.uniform(0.3, 2.5) * _phase(rng)),
                "dim": dim, "label": "classical"}
    if family == "thermal":
        return {"type": "thermal", "nbar": float(rng.uniform(0.2, 0.9)), "dim": dim,
                "label": "classical"}
    if family == "squeezed":
        return {"type": "squeezed_vacuum", "z": _c(rng.uniform(0.2, 0.6) * _phase(rng)),
                "dim": dim, "label": "nonclassical"}
    if family == "ass":
        lam = float(rng.uniform(1.1, 1.8) if rng.random() < 0.7 else rng.uniform(0.6, 0.9))
        return {"type": "ass", "m": int(rng.integers(2, 5)), "lambda": lam, "dim": dim,
                "label": "nonclassical"}
    raise ValueError(family)


def _build_state(ctx: Ctx, spec: dict):
    """The program's constructor for a spec; returns (state, ass params or None)."""
    st = ctx.states
    kind = spec["type"]
    if kind == "fock":
        return st.make_fock(spec["n"], spec["dim"]), None
    if kind == "coherent":
        return st.make_coherent(complex(*spec["alpha"]), spec["dim"]), None
    if kind == "thermal":
        return st.make_thermal(spec["nbar"], spec["dim"]), None
    if kind == "squeezed_vacuum":
        return st.apply_squeeze(st.make_fock(0, spec["dim"]), complex(*spec["z"])), None
    if kind == "ass":
        return st.make_ass_state(spec["m"], spec["lambda"], spec["dim"])
    raise ValueError(kind)


def _verdict_failure(label: Optional[str], flagged: list) -> Optional[str]:
    if label == "classical" and flagged:
        return "classical state flagged: " + ", ".join(flagged)
    if label == "nonclassical" and not flagged:
        return "nonclassical state not detected"
    return None


# ============================================================================
# classify: state -> moment_table -> determinant_hierarchy (+ hermite on ASS)
# ============================================================================

STANDARD = [(kind, n) for kind in ("aa", "quad", "xn", "d2") for n in (4, 10)]
CLASSIFY_SEEDED = ("fock", "coherent", "ass", "thermal", "squeezed", "fock_mix",
                   "lowrank")
ANALYTIC_ORDER = 8


def _classify_op(family: str, rng) -> Op:
    hier = list(STANDARD)
    if family in ("fock", "coherent", "thermal", "squeezed", "ass"):
        spec = _seeded_spec(family, rng, 64)
        label = spec.pop("label")
    elif family == "fock_mix":
        n = int(rng.integers(1, 4))
        p = float(rng.uniform(0.3, 0.7))
        spec = {"type": "fock_mix", "levels": [n, n + 1], "weights": [p, 1 - p], "dim": 64}
        label = "nonclassical"  # adjacent Fock levels: sub-Poissonian
    elif family == "lowrank":
        rank = int(rng.integers(2, 4))
        kets = rng.standard_normal((rank, 64)) + 1j * rng.standard_normal((rank, 64))
        kets *= np.exp(-0.6 * np.arange(64))
        spec = {"type": "lowrank", "kets": [kets.real.tolist(), kets.imag.tolist()],
                "weights": rng.dirichlet(np.ones(rank)).tolist(), "dim": 64}
        label = None  # no verdict is known by construction
    elif family.startswith("mixture-A"):
        amp, n_max = family[len("mixture-A"):].split("-d2n")
        amp = float(amp)
        spec = {"type": "mixture", "alphas": [_c(a) for a in
                                              (amp, -amp, 1j * amp, -0.5j * amp)],
                "dim": 200}
        hier.append(("d2", int(n_max)))
        label = "classical"
    elif family == "thermal-nbar1.5-d2n10":
        spec = {"type": "thermal", "nbar": 1.5, "dim": 64}
        label = "classical"
    else:
        raise ValueError(family)
    return Op("classify", family, {"spec": spec, "hierarchies": hier,
                                   "order": _table_order(hier), "label": label})


def classify_cycle(rng, index: int) -> list:
    """18 ops: the seeded families twice, plus the fixed inputs.  The three
    mixtures, the top sixth of the cycle where p90 falls, tabulate to orders
    26, 28 and 30 (costs about 1 : 1.2 : 1.4).  With three equal costs, p90
    would jump between the machine's fast and slow speeds instead of moving
    smoothly with how much of the run each speed took."""
    fixed = iter(["mixture-A2-d2n13", "mixture-A3-d2n15", "thermal-nbar1.5-d2n10",
                  "mixture-A4-d2n14"])
    ops = []
    for i, family in enumerate(CLASSIFY_SEEDED * 2):
        ops.append(_classify_op(family, rng))
        if i % 4 == 1:
            ops.append(_classify_op(next(fixed), rng))
    return ops


def _prepare_classify(ctx, inputs):
    spec = inputs["spec"]
    if spec["type"] == "lowrank":
        kets = np.array(spec["kets"][0]) + 1j * np.array(spec["kets"][1])
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        return np.einsum("r,ri,rj->ij", np.array(spec["weights"]), kets, kets.conj())
    if spec["type"] == "fock_mix":
        rho = np.zeros((spec["dim"], spec["dim"]), dtype=complex)
        for n, w in zip(spec["levels"], spec["weights"]):
            rho[n, n] = w
        return rho
    return None


def _run_classify(ctx, inputs, rho):
    spec = inputs["spec"]
    params = None
    if rho is not None:
        with ctx.tracer.span("DensityState", "states"):
            state = ctx.states.DensityState(rho)
    elif spec["type"] == "mixture":
        kets = [ctx.states.make_coherent(complex(*a), spec["dim"]).amplitudes
                for a in spec["alphas"]]
        mix = sum(np.outer(k, k.conj()) for k in kets) / len(kets)
        with ctx.tracer.span("DensityState", "states"):
            state = ctx.states.DensityState(mix)
    else:
        state, params = _build_state(ctx, spec)
    table = ctx.moments.moment_table(state, inputs["order"])
    reports = [ctx.criteria.determinant_hierarchy(table, kind, n)
               for kind, n in inputs["hierarchies"]]
    analytic = None
    if params is not None:
        analytic = np.array([[ctx.hermite.ass_moment_analytic(params, k, l)
                              for l in range(ANALYTIC_ORDER + 1)]
                             for k in range(ANALYTIC_ORDER + 1)])
    return {"state": state, "table": table, "reports": reports, "analytic": analytic}


def _check_classify(ctx, inputs, rho, out) -> Optional[str]:
    order = inputs["order"]
    ref = oracles.dense_moments(out["state"], order)
    err = oracles.table_error(out["table"].values, ref)
    if err > oracles.TABLE_RTOL:
        return f"moment table differs from dense powers by {err:.2e}"
    if out["analytic"] is not None:
        k = np.add.outer(np.arange(ANALYTIC_ORDER + 1), np.arange(ANALYTIC_ORDER + 1))
        err = oracles.table_error(out["analytic"], ref[:ANALYTIC_ORDER + 1,
                                                       :ANALYTIC_ORDER + 1],
                                  mask=k <= ANALYTIC_ORDER)
        if err > oracles.ANALYTIC_RTOL:
            return f"ASS table differs from ass_moment_analytic by {err:.2e}"
    flagged = []
    for (kind, n), rep in zip(inputs["hierarchies"], out["reports"]):
        orders = [N for N, _ in rep.determinants]
        if rep.kind.value != kind or not orders or orders[-1] != n:
            return f"report for {kind} n_max {n} has orders {orders}"
        if rep.nonclassical:
            flagged.append(f"{kind} n_max {n} at N={rep.first_negative_order}")
    return _verdict_failure(inputs["label"], flagged)


# ============================================================================
# bochner: one bochner_search per op (dense expm inside char_function)
# ============================================================================

BOCHNER_FAMILIES = ("squeezed", "fock", "thermal", "coherent")
# Both shapes at dim 64, plus the two pure-state k=2 searches at dim 128,
# whose costs are alike.  A dim-128 op costs six to eight dim-64 ops, so more
# of them would leave too few samples per run for the percentiles.  The
# k=3 thermal search is left out: at twice the cost of any other dim-64 op
# it would sit alone between the clusters and move the percentiles.
BOCHNER_PLAN = ([(64, 2, 16, f) for f in BOCHNER_FAMILIES]
                + [(64, 3, 9, f) for f in ("squeezed", "fock", "coherent")]
                + [(128, 2, 16, "squeezed"), (128, 2, 16, "fock")])
RADIUS = 2.0


def bochner_cycle(rng, index: int) -> list:
    ops = []
    for dim, k, grid_n, family in BOCHNER_PLAN:
        if family == "squeezed":
            spec = {"type": "squeezed_vacuum",
                    "z": _c(rng.uniform(0.4, 0.5) * _phase(rng))}
            label = "nonclassical"
        elif family == "fock":
            # L_1 and L_3 exceed 1 in modulus inside |beta| <= 2; L_2 does not.
            spec = {"type": "fock", "n": int(rng.choice([1, 3]))}
            label = "nonclassical"
        elif family == "thermal":
            spec = {"type": "thermal", "nbar": float(rng.uniform(0.4, 0.6))}
            label = "classical"
        else:
            spec = {"type": "coherent", "alpha": _c(rng.uniform(0.6, 0.9) * _phase(rng))}
            label = "classical"
        spec["dim"] = dim
        ops.append(Op("bochner", f"{family}-d{dim}-k{k}-g{grid_n}",
                      {"spec": spec, "k": k, "grid_n": grid_n,
                       "search_seed": int(rng.integers(0, 2**31)), "label": label}))
    return ops


def _prepare_bochner(ctx, inputs):
    return _build_state(ctx, inputs["spec"])[0]


def _run_bochner(ctx, inputs, state):
    return ctx.criteria.bochner_search(state, k=inputs["k"], radius=RADIUS,
                                       grid_n=inputs["grid_n"],
                                       seed=inputs["search_seed"])


def _check_bochner(ctx, inputs, state, res) -> Optional[str]:
    pts = [complex(p) for p in res.points]
    if len(pts) != inputs["k"] or pts[0] != 0:
        return f"bad point set {pts}"
    if max(abs(p) for p in pts) > RADIUS + 1e-12:
        return "a point leaves the search disc"
    ref = oracles.bochner_det(state, pts)
    if abs(ref - res.value) > oracles.BOCHNER_RTOL * max(1.0, abs(ref)):
        return f"Bochner value {res.value:.6e} vs closed form {ref:.6e}"
    if inputs["label"] == "classical" and ref < -oracles.CLASSICAL_FLOOR:
        return f"classical state has Bochner determinant {ref:.3e}"
    if inputs["label"] == "nonclassical" and not ref < -oracles.CLASSICAL_FLOOR:
        return f"nonclassical state not detected (min {ref:.3e})"
    return None


# ============================================================================
# measure: forward model -> shot noise -> JSON file -> inversion -> hierarchy
# ============================================================================

MEASURE_FAMILIES = ("fock", "coherent", "thermal", "squeezed")


def measure_cycle(rng, index: int) -> list:
    plan = []
    for n_max, depth in ((4, 2), (8, 3)):
        for alpha in (0.7, 3.0):
            for samples in (None, 1e4, 1e6):
                plan.append(("a", n_max, depth, alpha, samples))
    # B and C run at alpha 3 only: with them at both amplitudes, half the
    # ops would be the cheap B/C ones and the median would sit on the edge
    # between two cost groups.
    for scheme in ("b", "c"):
        for samples in (None, 1e4, 1e6):
            plan.append((scheme, None, None, 3.0, samples))
    # n_max 5, 6 and 7 fill the cost gap between n_max 4 (about 4 ms) and 8
    # (about 15 ms) in steps of about 1.4x, so the median falls on a ladder
    # of costs rather than inside one group of equal ones, where it would
    # jump between the machine's fast and slow speeds.
    for n_max in (5, 6, 7):
        for samples in (None, 1e4):
            plan.append(("a", n_max, 3, 0.7, samples))
    ops = []
    for i, (scheme, n_max, depth, alpha, samples) in enumerate(plan):
        spec = _seeded_spec(MEASURE_FAMILIES[i % len(MEASURE_FAMILIES)], rng, 32)
        if spec["type"] == "fock":
            spec["n"] = min(spec["n"], 3)
        label = spec.pop("label")
        noise = "clean" if samples is None else f"{samples:.0e}".replace("+0", "")
        name = (f"scheme-a-n{n_max}-d{depth}-a{alpha:g}-{noise}" if scheme == "a"
                else f"scheme-{scheme}-a{alpha:g}-{noise}")
        ops.append(Op("measure", name, {
            "spec": spec, "label": label, "scheme": scheme, "n_max": n_max,
            "depth": depth, "alpha": alpha, "samples": samples,
            "noise_seed": int(rng.integers(0, 2**31))}))
    return ops


def _prepare_measure(ctx, inputs):
    return _build_state(ctx, inputs["spec"])[0]


def _run_measure(ctx, inputs, state):
    ms, ser = ctx.measurement, ctx.serialize
    lo = ms.LOConfig(alpha=inputs["alpha"])
    samples, seed = inputs["samples"], inputs["noise_seed"]
    path = ctx.workdir / "record.json"
    out = {}
    if inputs["scheme"] == "a":
        clean = ms.scheme_a_sample_and_fourier(state, inputs["n_max"], lo, inputs["depth"])
        noisy = clean if samples is None else ms.add_shot_noise(clean, samples, seed)
        ser.write_json(path, ser.fourier_record_to_json(noisy))
        back = ser.fourier_record_from_json(ser.read_json(path))
        table = ms.scheme_a_invert(back)
        out["reports"] = [ctx.criteria.determinant_hierarchy(table, kind, 4)
                          for kind in ("aa", "xn")]
        out["result"] = table
    else:
        forward = ms.scheme_b_forward if inputs["scheme"] == "b" else ms.scheme_c_forward
        clean = [forward(state, lo)]
        if inputs["scheme"] == "c":
            clean.append(forward(state, lo.blocked()))
        noisy = (clean if samples is None else
                 [ms.add_shot_noise(r, samples, seed + i) for i, r in enumerate(clean)])
        doc = {"scheme": inputs["scheme"]}
        for key, rec in zip(("record", "blocked"), noisy):
            doc[key] = ser.detection_record_to_json(rec)
        ser.write_json(path, doc)
        doc = ser.read_json(path)
        back = [ser.detection_record_from_json(doc[key])
                for key in ("record", "blocked")[:len(noisy)]]
        extract = ms.scheme_b_extract if inputs["scheme"] == "b" else ms.scheme_c_extract
        out["result"] = extract(*back)
    out.update(clean=clean, noisy=noisy, back=back)
    return out


def _records_equal(a, b) -> bool:
    if (a.lo.alpha, a.lo.t0, a.lo.r0) != (b.lo.alpha, b.lo.t0, b.lo.r0):
        return False
    if hasattr(a, "samples"):
        return (a.depth, a.n_max, dict(a.samples)) == (b.depth, b.n_max, dict(b.samples))
    return a.scheme == b.scheme and dict(a.gammas) == dict(b.gammas)


def _record_values(rec) -> np.ndarray:
    if hasattr(rec, "samples"):
        return np.array([rec.samples[k] for k in sorted(rec.samples)])
    return np.array([rec.gammas[k] for k in sorted(rec.gammas)])


def _check_measure(ctx, inputs, state, out) -> Optional[str]:
    clean, noisy, back = out["clean"], out["noisy"], out["back"]
    if inputs["scheme"] == "a":
        clean, noisy, back = [clean], [noisy], [back]
    for n, b in zip(noisy, back):
        if not _records_equal(n, b):
            return "JSON round trip changed the record"
    samples = inputs["samples"]
    if samples is not None:
        for c, n in zip(clean, noisy):
            v, w = _record_values(c), _record_values(n)
            sigma = np.maximum(np.abs(v), 1e-6) / math.sqrt(samples)
            if not np.all(np.abs(w - v) <= 8 * sigma):
                return "shot noise exceeds 8 sigma of its model"
    ms = ctx.measurement
    if inputs["scheme"] == "a":
        result = out["result"]
        if not np.all(np.isfinite(result.values)):
            return "recovered table is not finite"
        clean_result = result if samples is None else ms.scheme_a_invert(clean[0])
        ref = oracles.dense_moments(state, inputs["n_max"])
        err = oracles.table_error(clean_result.values, ref)
        if err > oracles.ROUND_TRIP_RTOL:
            return f"noise-free round trip error {err:.2e}"
        if samples is None:
            flagged = [f"{r.kind.value} at N={r.first_negative_order}"
                       for r in out["reports"] if r.nonclassical]
            return _verdict_failure(inputs["label"], flagged)
        return None
    extract = ms.scheme_b_extract if inputs["scheme"] == "b" else ms.scheme_c_extract
    result = out["result"] if samples is None else extract(*clean)
    ref = oracles.quadrature_moments(oracles.dense_moments(state, 2), result["theta"])
    for key, value in result.items():
        if key == "theta":
            continue
        if abs(value - ref[key]) > oracles.ROUND_TRIP_RTOL * max(1.0, abs(ref[key])):
            return f"extracted {key} = {value!r}, expected {ref[key]!r}"
    return None


# ============================================================================
# cli: in-process nclmoments.cli.main(argv) calls writing into a work dir
# ============================================================================

CLI_CRITERIA_FAMILIES = ("fock", "coherent", "thermal", "squeezed", "ass")


def _spec_arg(spec: dict) -> str:
    return json.dumps({k: v for k, v in spec.items() if k != "label"})


def cli_cycle(rng, index: int) -> list:
    """18 calls: the cheap simulate/invert pairs are two thirds of the cycle
    and the sweeps the top sixth, so that p50 and p90 each fall inside a
    group of similar calls rather than on the edge between two groups.  The
    three sweeps take 2, 3 and 4 values of m (costs about 1 : 1.4 : 1.9), for
    the reason given in ``classify_cycle``.  The state families rotate with the cycle index, not with the seed."""
    ops = []
    for j in range(2):
        family = CLI_CRITERIA_FAMILIES[(2 * index + j) % len(CLI_CRITERIA_FAMILIES)]
        spec = _seeded_spec(family, rng, 64)
        ops.append(Op("cli", "criteria", {"argv": [
            "criteria", "--state", _spec_arg(spec), "--kind", "all",
            "--out", "{work}/criteria.json"], "spec": spec}))
    for size in (2, 3, 4):
        m_list = sorted(int(m) for m in rng.choice([2, 3, 4, 5], size=size, replace=False))
        start = round(float(rng.uniform(1.05, 1.1)), 4)
        ops.append(Op("cli", "sweep", {"argv": [
            "sweep", "--dim", "96", "--m-list", ",".join(map(str, m_list)),
            "--lambda-range", f"{start},{start + 0.95:.4f},0.05",
            "--out", "{work}/sweep.csv"], "m_list": m_list, "start": start}))
    spec = _seeded_spec(MEASURE_FAMILIES[index % len(MEASURE_FAMILIES)], rng, 64)
    bound = round(float(rng.uniform(2.0, 3.0)), 3)
    ops.append(Op("cli", "qfunc", {"argv": [
        "qfunc", "--state", _spec_arg(spec), "--grid-bound", str(bound),
        "--grid-n", "61", "--out", "{work}/qfunc.csv"], "spec": spec, "bound": bound}))
    for j, scheme in enumerate(("a", "b", "c") * 2):
        family = MEASURE_FAMILIES[(index + j) % len(MEASURE_FAMILIES)]
        spec = _seeded_spec(family, rng, 32)
        if spec["type"] == "fock":
            spec["n"] = min(spec["n"], 3)
        ops.append(Op("cli", "simulate", {"argv": [
            "simulate", "--state", _spec_arg(spec), "--scheme", scheme,
            "--out", f"{{work}}/record-{scheme}.json"], "spec": spec, "scheme": scheme}))
        ops.append(Op("cli", "invert", {"argv": [
            "invert", "--record", f"{{work}}/record-{scheme}.json",
            "--out", f"{{work}}/inverted-{scheme}.json"], "spec": spec, "scheme": scheme}))
    return ops


def _prepare_cli(ctx, inputs):
    return [a.replace("{work}", str(ctx.workdir)) for a in inputs["argv"]]


def _run_cli(ctx, inputs, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = ctx.cli.main(argv)
    return code


def _read_csv(path) -> tuple[list, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _check_cli(ctx, inputs, argv, code) -> Optional[str]:
    verb = inputs["argv"][0]
    out_path = Path(argv[argv.index("--out") + 1])
    if verb == "criteria":
        label = inputs["spec"]["label"]
        want = 10 if label == "nonclassical" else 0
        if code != want:
            return f"exit code {code} for a {label} state"
        doc = json.loads(out_path.read_text())
        if [r["kind"] for r in doc] != ["aa", "quad", "xn", "d2"]:
            return "report kinds out of order"
        if any(r["first_negative_order"] is not None for r in doc) != (code == 10):
            return "exit code disagrees with the reports"
        return None
    if code != 0:
        return f"exit code {code}"
    if verb == "sweep":
        header, rows = _read_csv(out_path)
        lams = np.arange(20) * 0.05 + inputs["start"]
        if header != ["lambda", "m", "s3", "asq_min", "asq_max", "n_mean"]:
            return f"unexpected header {header}"
        want = [(m, lam) for m in inputs["m_list"] for lam in lams]
        if len(rows) != len(want):
            return f"{len(rows)} rows, expected {len(want)}"
        for row, (m, lam) in zip(rows, want):
            if row[1] != m or abs(row[0] - lam) > 1e-9:
                return f"row ({row[1]}, {row[0]}) out of order"
            params = ctx.states.ass_params(m, float(row[0]))
            an = np.array([[ctx.hermite.ass_moment_analytic(params, k, l)
                            for l in range(5)] for k in range(5)])
            s3 = np.linalg.det(np.array([[1, an[0, 2], an[2, 0]],
                                         [an[2, 0], an[2, 2], an[4, 0]],
                                         [an[0, 2], an[0, 4], an[2, 2]]])).real
            b = an[0, 4] - an[0, 2] ** 2
            c = an[2, 2].real - abs(an[0, 2]) ** 2
            ref = (s3, 2 * (c - abs(b)), 2 * (c + abs(b)), an[1, 1].real)
            for got, exp in zip(row[2:], ref):
                if abs(got - exp) > oracles.ANALYTIC_RTOL * max(1.0, abs(exp)):
                    return f"sweep m={m} lambda={row[0]}: {got!r} vs analytic {exp!r}"
        return None
    if verb == "qfunc":
        header, rows = _read_csv(out_path)
        axis = np.linspace(-inputs["bound"], inputs["bound"], 61)
        if rows.shape != (61 * 61, 3):
            return f"qfunc grid shape {rows.shape}"
        grid = axis[:, None] + 1j * axis[None, :]
        if not (np.array_equal(rows[:, 0], np.repeat(axis, 61))
                and np.array_equal(rows[:, 1], np.tile(axis, 61))):
            return "qfunc grid coordinates are wrong"
        ref = oracles.husimi(oracles.state_from_spec(inputs["spec"]), grid).reshape(-1)
        err = float(np.max(np.abs(rows[:, 2] - ref)))
        return None if err <= oracles.Q_ATOL else f"Q differs from overlaps by {err:.2e}"
    doc = json.loads(out_path.read_text())
    state = oracles.state_from_spec(inputs["spec"])
    ref = oracles.dense_moments(state, 4)
    scheme = inputs["scheme"]
    if verb == "simulate":
        if doc.get("scheme") != scheme:
            return f"record scheme {doc.get('scheme')!r}"
        if scheme == "a":  # the verb's defaults: --lo-alpha 3,0 --depth 2 --nmax 4
            for item in doc["samples"]:
                want = oracles.scheme_a_coincidence(ref, item["n"], item["phi"], 3.0, 2)
                if abs(item["value"] - want) > oracles.ROUND_TRIP_RTOL * max(1.0, abs(want)):
                    return f"F_{item['n']}({item['phi']:.3f}) = {item['value']!r} vs {want!r}"
        return None
    if scheme == "a":
        vals = np.zeros((5, 5), dtype=complex)
        for e in doc["entries"]:
            vals[e["k"], e["l"]] = complex(e["re"], e["im"])
            vals[e["l"], e["k"]] = complex(e["re"], -e["im"])
        err = oracles.table_error(vals, ref)
        return None if err <= oracles.ROUND_TRIP_RTOL else f"round trip error {err:.2e}"
    want = oracles.quadrature_moments(ref, doc["theta"])
    for key, value in doc.items():
        if key != "theta" and abs(value - want[key]) > oracles.ROUND_TRIP_RTOL * max(1.0, abs(want[key])):
            return f"extracted {key} = {value!r}, expected {want[key]!r}"
    return None


# ============================================================================

KINDS = {
    "classify": (_prepare_classify, _run_classify, _check_classify),
    "bochner": (_prepare_bochner, _run_bochner, _check_bochner),
    "measure": (_prepare_measure, _run_measure, _check_measure),
    "cli": (_prepare_cli, _run_cli, _check_cli),
}

WORKLOADS = {
    "classify": Workload(classify_cycle, Op("classify", "warmup", {
        "spec": {"type": "coherent", "alpha": [0.5, 0.0], "dim": 64},
        "hierarchies": STANDARD, "order": _table_order(STANDARD),
        "label": "classical"}), trace_cycles=3),
    "bochner": Workload(bochner_cycle, Op("bochner", "warmup", {
        "spec": {"type": "squeezed_vacuum", "z": [0.4, 0.0], "dim": 64}, "k": 2,
        "grid_n": 16, "search_seed": 0, "label": "nonclassical"}), trace_cycles=1),
    "measure": Workload(measure_cycle, Op("measure", "warmup", {
        "spec": {"type": "fock", "n": 1, "dim": 32}, "label": "nonclassical",
        "scheme": "a", "n_max": 4, "depth": 2, "alpha": 3.0, "samples": None,
        "noise_seed": 0}), trace_cycles=12),
    "cli": Workload(cli_cycle, Op("cli", "warmup", {"argv": [
        "criteria", "--state", '{"type": "coherent", "alpha": 0.5}', "--kind", "all",
        "--out", "{work}/criteria.json"],
        "spec": {"type": "coherent", "alpha": 0.5, "label": "classical"}}),
        trace_cycles=3),
}


def serve_checks(reader, writer, workdir: Path) -> None:
    """Check loop of the checker process.

    Reads pickled ``(kind, inputs, prepared, output)`` tuples from the
    measuring worker until end of input and answers each with the failure
    reason, or None.  Running the checks in their own process keeps their
    arrays out of the measured process's peak memory.
    """
    from tracing import Tracer

    ctx = Ctx(Tracer(), workdir)
    while True:
        try:
            kind, inputs, prepared, out = pickle.load(reader)
        except EOFError:
            break
        try:
            reason = KINDS[kind][2](ctx, inputs, prepared, out)
        except Exception as exc:  # a crashing check is a failed op
            reason = f"check raised {type(exc).__name__}: {exc}"
        pickle.dump(reason, writer)
        writer.flush()


def cycle_inputs(workload: str, seed: int, index: int) -> list:
    """The ops of cycle ``index``; a function of (workload, seed, index) only."""
    code = sorted(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, code, index])
    return WORKLOADS[workload].cycle(rng, index)
