"""Command-line interface.

One verb produces one artifact; verbs compose through files:

* ``moments``  — moment table of a state (JSON).
* ``criteria`` — determinant hierarchies and witnesses of one moment table.
* ``sweep``    — amplitude-squared squeezing witnesses over an
  ``(m, lambda)`` grid (CSV), from one exact stacked table per ``m``
  (:func:`~nclmoments.moments.ass_moment_tables`) and one witness-kernel
  call per ``m``; it accepts ``--dim`` but uses no Fock truncation.
* ``qfunc``    — Husimi distribution on a square grid (CSV).
* ``simulate`` — forward measurement record for scheme a, b or c (JSON),
  optionally with seeded shot noise.
* ``invert``   — moment table (scheme a) or extracted moments (b, c)
  from a record produced by ``simulate``.

Each verb accepts only the options it reads: ``--tolerance`` is
``criteria``'s, and ``--dim`` is taken by the verbs that build a state
(``moments``, ``criteria``, ``qfunc``, ``simulate``) and defaults to
:data:`~nclmoments.serialize.DEFAULT_DIM` (64).  A state's ``dim``, from its
spec or ``--dim``, is at most :data:`~nclmoments.serialize.MAX_DIM` (4096);
a larger one exits 2 before the state is built.  ``--phi``, ``--tolerance``
and ``--lambda-range`` must be finite, ``--samples`` finite and at least 1.
A grid verb computes at most :data:`MAX_GRID_POINTS` points: ``sweep``'s
lambda values per ``m`` and ``qfunc``'s ``--grid-n`` squared; ``qfunc`` also
holds at most ``MAX_GRID_POINTS * DEFAULT_DIM`` coherent-state overlaps,
``--grid-n`` squared times the state's ``dim``.  A larger grid exits 2
before it is allocated.
Record files are :func:`~nclmoments.serialize.records_to_json` documents.

:func:`main` builds the argument parser on its first call and reuses it for
every later call in the process.

Exit codes: 0 success; 2 invalid input; 3 truncation or insufficient
moment order; 4 singular inversion; 10 (``criteria`` only) nonclassicality
witnessed by a negative classified determinant.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .criteria import (
    _WITNESS_ORDER, BasisKind, DEFAULT_TOLERANCE, _hierarchy_basis, _witnesses,
    determinant_hierarchy, witnesses,
)
from .errors import (
    InsufficientOrderError,
    NclError,
    NumericConsistencyError,
    SingularInversionError,
    TruncationError,
    ValidationError,
)
from .measurement import (
    FourierRecord,
    LOConfig,
    add_shot_noise,
    scheme_a_invert,
    scheme_a_sample_and_fourier,
    scheme_b_extract,
    scheme_b_forward,
    scheme_c_extract,
    scheme_c_forward,
)
from .moments import ass_moment_tables, moment_table
from .serialize import (
    DEFAULT_DIM,
    parse_state_argument,
    read_json,
    records_from_json,
    records_to_json,
    report_to_json,
    table_to_json,
    write_csv,
    write_json,
)

_DEFAULT_OUT = {
    "moments": "moments.json",
    "criteria": "criteria.json",
    "sweep": "sweep.csv",
    "qfunc": "qfunc.csv",
    "simulate": "record.json",
    "invert": "inverted.json",
}


_STATE_VERBS = ("moments", "criteria", "qfunc", "simulate")

# The most points a grid verb computes: lambda values per m for ``sweep``,
# ``--grid-n`` squared for ``qfunc``.  Checked from the parsed arguments
# before anything is allocated.  ``qfunc`` also holds ``--grid-n`` squared
# times dim coherent-state overlaps, at most ``MAX_GRID_POINTS * DEFAULT_DIM``
# (2^24 complex values, 268 MB): a grid at the cap at the default dim 64.
MAX_GRID_POINTS = 2**18


def _parse_complex_pair(text: str, context: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValidationError(f"{context} must be 're' or 're,im', got {text!r}")


def _parse_int_list(text: str, context: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"{context} must be comma-separated integers") from None
    if not values:
        raise ValidationError(f"{context} must not be empty")
    return values

def _parse_range(text: str, context: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"{context} must be 'start,stop,step'")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"{context} must contain numbers") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError(f"{context} must be finite")
    if step <= 0 or stop < start:
        raise ValidationError(f"{context} needs step > 0 and stop >= start")
    return start, stop, step


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; every option's default is declared once, here.

    The defaults sit on the top-level parser and the verb parsers suppress
    their own, so every verb's namespace carries every option, whether or
    not the verb takes it.
    """
    parser = argparse.ArgumentParser(
        prog="nclmoments",
        description="Moment-based nonclassicality tests and homodyne-"
        "correlation measurement simulation for single-mode states.",
    )
    parser.set_defaults(
        state=None, dim=None, out=None, tolerance=DEFAULT_TOLERANCE,
        order=4, phi=0.0, kind="all", nmax=4, scheme="a", depth=2,
        lo_alpha="3,0", t0=math.sqrt(0.5), samples=None, seed=0, record=None,
        m_list="2,3,4", lambda_range="1.05,2.0,0.05", grid_bound=2.0, grid_n=41,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_verb(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        if name in _STATE_VERBS:
            p.add_argument(
                "--state",
                required=True,
                help="state spec: inline JSON or path to a JSON file",
            )
            p.add_argument("--dim", type=int, help="Fock truncation")
        p.add_argument("--out", help="output file path")
        return p

    p = add_verb("moments", "tabulate <a^dag^k a^l>")
    p.add_argument("--order", type=int, help="largest k and l")

    p = add_verb("criteria", "determinant hierarchies and witnesses")
    p.add_argument("--kind", choices=["aa", "quad", "xn", "d2", "all"])
    p.add_argument("--nmax", type=int, help="largest hierarchy order")
    p.add_argument("--phi", type=float, help="quadrature angle")
    p.add_argument(
        "--tolerance", type=float,
        help="negativity threshold (scaled by matrix magnitude)",
    )

    p = add_verb("sweep", "witness sweep over (m, lambda)")
    p.add_argument(
        "--dim", type=int, help="accepted and unused: the sweep's moment "
        "tables are exact and need no Fock truncation",
    )
    p.add_argument("--m-list", help="comma-separated orders m")
    p.add_argument("--lambda-range", help="'start,stop,step' grid for lambda")

    p = add_verb("qfunc", "Husimi distribution on a grid")
    p.add_argument("--grid-bound", type=float, help="half-width")
    p.add_argument("--grid-n", type=int, help="points per axis")

    p = add_verb("simulate", "forward measurement record")
    p.add_argument("--scheme", choices=["a", "b", "c"], required=True)
    p.add_argument("--depth", type=int, help="scheme-a tree depth")
    p.add_argument("--nmax", type=int, help="scheme-a largest order")
    p.add_argument("--lo-alpha", help="oscillator amplitude 're,im'")
    p.add_argument("--t0", type=float)
    p.add_argument("--samples", type=float, help="shot-noise samples")
    p.add_argument("--seed", type=int)

    p = add_verb("invert", "recover moments from a record")
    p.add_argument("--record", required=True, help="record JSON from 'simulate'")

    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """Check and parse the options of ``args`` in place; the verbs read it."""
    if args.verb in _STATE_VERBS and args.dim is None:
        args.dim = DEFAULT_DIM
    if args.dim is not None and args.dim < 1:
        raise ValidationError("--dim must be positive")
    if args.out is None:
        args.out = _DEFAULT_OUT[args.verb]
    if args.samples is not None and not (
        math.isfinite(args.samples) and args.samples >= 1
    ):
        raise ValidationError("--samples must be finite and at least 1")
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ValidationError("--tolerance must be finite and positive")
    if not math.isfinite(args.phi):
        raise ValidationError("--phi must be finite")
    args.lo_alpha = _parse_complex_pair(args.lo_alpha, "--lo-alpha")
    args.m_list = _parse_int_list(args.m_list, "--m-list")
    args.lambda_range = _parse_range(args.lambda_range, "--lambda-range")
    start, stop, step = args.lambda_range
    steps = (stop - start) / step
    if not math.isfinite(steps) or round(steps) + 1 > MAX_GRID_POINTS:
        raise ValidationError(
            f"--lambda-range asks for {steps + 1:.6g} values of lambda, "
            f"above the cap of {MAX_GRID_POINTS}"
        )
    args.lambda_count = round(steps) + 1
    if args.grid_n < 1:
        raise ValidationError("--grid-n must be at least 1")
    if args.grid_n**2 > MAX_GRID_POINTS:
        raise ValidationError(
            f"--grid-n {args.grid_n} asks for {args.grid_n}^2 grid points, "
            f"above the cap of {MAX_GRID_POINTS}"
        )
    if not (math.isfinite(args.grid_bound) and args.grid_bound > 0):
        raise ValidationError("--grid-bound must be finite and positive")
    return args


def verb_moments(args: argparse.Namespace) -> int:
    state = parse_state_argument(args.state, args.dim)
    table = moment_table(state, args.order)
    write_json(args.out, table_to_json(table))
    n_mean = table.entry(1, 1).real
    a_mean = table.entry(0, 1)
    print(f"wrote {args.out}")
    print(f"n_mean = {n_mean:.12g}")
    print(f"a_mean = {a_mean.real:.12g}{a_mean.imag:+.12g}j")
    return 0


def verb_criteria(args: argparse.Namespace) -> int:
    state = parse_state_argument(args.state, args.dim)
    kinds = list(BasisKind) if args.kind == "all" else [BasisKind(args.kind)]
    bases = [_hierarchy_basis(kind, args.nmax) for kind in kinds]
    order = max(_WITNESS_ORDER, *(basis.required_order() for basis in bases))
    table = moment_table(state, order)
    reports = [
        determinant_hierarchy(
            table, kind, args.nmax, phi=args.phi, tolerance=args.tolerance
        )
        for kind in kinds
    ]
    state_witnesses = witnesses(table, args.phi)
    docs = [dict(report_to_json(r), witnesses=state_witnesses) for r in reports]
    doc = docs[0] if len(docs) == 1 else docs
    write_json(args.out, doc)
    print(f"wrote {args.out}")
    verdict = False
    for report in reports:
        mark = (
            f"first negative at N={report.first_negative_order}"
            if report.nonclassical
            else "no negativity"
        )
        print(f"kind={report.kind.value}: {mark}")
        verdict = verdict or report.nonclassical
    return 10 if verdict else 0


def verb_sweep(args: argparse.Namespace) -> int:
    start, stop, step = args.lambda_range
    lambdas = [
        start + i * step
        for i in range(args.lambda_count)
        if start + i * step <= stop + 1e-12
    ]
    if any(lam <= 0 or abs(lam - 1.0) < 1e-12 for lam in lambdas):
        raise ValidationError("lambda grid must avoid 0 and the classical point 1")
    rows = []
    for m in sorted(args.m_list):
        values = ass_moment_tables(m, lambdas).values
        n_means = values[:, 1, 1].real
        for lam, w, n_mean in zip(lambdas, _witnesses(values, 0.0), n_means):
            rows.append((lam, float(m), w["s3"], w["asq_min"], w["asq_max"], n_mean))
    write_csv(args.out, ["lambda", "m", "s3", "asq_min", "asq_max", "n_mean"], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def verb_qfunc(args: argparse.Namespace) -> int:
    from .states import q_function

    state = parse_state_argument(args.state, args.dim)
    overlaps = args.grid_n**2 * state.dim
    if overlaps > MAX_GRID_POINTS * DEFAULT_DIM:
        raise ValidationError(
            f"--grid-n {args.grid_n} at dim {state.dim} asks for {overlaps} "
            f"coherent-state overlaps, above the cap of "
            f"{MAX_GRID_POINTS * DEFAULT_DIM}"
        )
    axis = np.linspace(-args.grid_bound, args.grid_bound, args.grid_n)
    grid = axis[:, None] + 1j * axis[None, :]
    values = q_function(state, grid)
    columns = np.column_stack([
        np.repeat(axis, args.grid_n), np.tile(axis, args.grid_n), values.reshape(-1)
    ])
    write_csv(args.out, ["re_alpha", "im_alpha", "q_value"], columns)
    print(f"wrote {args.out} ({len(columns)} rows)")
    return 0


def verb_simulate(args: argparse.Namespace) -> int:
    state = parse_state_argument(args.state, args.dim)
    lo = LOConfig(alpha=args.lo_alpha, t0=args.t0)
    if args.scheme == "a":
        records = [scheme_a_sample_and_fourier(state, args.nmax, lo, args.depth)]
    elif args.scheme == "b":
        records = [scheme_b_forward(state, lo)]
    else:
        records = [scheme_c_forward(state, lo), scheme_c_forward(state, lo.blocked())]
    if args.samples is not None:
        records = [
            add_shot_noise(record, args.samples, args.seed + i)
            for i, record in enumerate(records)
        ]
    write_json(args.out, records_to_json(records))
    print(f"wrote {args.out}")
    return 0


def verb_invert(args: argparse.Namespace) -> int:
    records = records_from_json(read_json(args.record))
    if isinstance(records[0], FourierRecord):
        table = scheme_a_invert(*records)
        out, n_mean = table_to_json(table), table.entry(1, 1).real
    else:
        extract = scheme_b_extract if records[0].scheme == "b" else scheme_c_extract
        out = extract(*records)
        n_mean = out["n"]
    write_json(args.out, out)
    print(f"wrote {args.out}")
    print(f"n_mean = {n_mean:.12g}")
    return 0


_VERBS = {
    "moments": verb_moments,
    "criteria": verb_criteria,
    "sweep": verb_sweep,
    "qfunc": verb_qfunc,
    "simulate": verb_simulate,
    "invert": verb_invert,
}


# The parser of every main() call in this process: built by the first call,
# since building it costs twenty parses and it is the same for every argv.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        config = config_from_args(args)
        return _VERBS[args.verb](config)
    except SingularInversionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (TruncationError, InsufficientOrderError, NumericConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, TruncationError) and exc.suggested_dim:
            print(f"hint: retry with --dim {exc.suggested_dim}", file=sys.stderr)
        return 3
    except NclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
