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

Each verb accepts only the options it reads.  :func:`build_parser` declares
each option once: its flag, its default and the ``type`` that parses and
checks it, so a value outside its range or cap exits 2 before any state is
built.  The two caps that span two options, ``sweep``'s rows and ``qfunc``'s
coherent-state overlaps, are checked by their verbs, also before any state
or table is built.  The caps are the constants below; the README's
"Command line" section lists every rule.  Record files are
:func:`~nclmoments.serialize.records_to_json` documents.

:func:`main` builds the argument parser on its first call and reuses it for
every later call in the process.

Exit codes: 0 success; 10 (``criteria`` only) nonclassicality witnessed
by a negative classified determinant; otherwise the ``exit_code`` of the
:class:`~nclmoments.errors.NclError` raised: 2 invalid input; 3 truncation,
insufficient moment order or a result that fails its consistency check (a
determinant beyond the float range, say); 4 singular inversion.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from .criteria import (
    _WITNESS_ORDER, BasisKind, DEFAULT_TOLERANCE, _hierarchy_basis, _witnesses,
    determinant_hierarchy, witnesses,
)
from .errors import NclError, TruncationError, ValidationError
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
    MAX_DIM,
    _read_spec,
    _spec_dim,
    parse_state_argument,
    read_json,
    records_from_json,
    records_to_json,
    report_to_json,
    state_from_spec,
    table_to_json,
    write_csv,
    write_json,
)

# The most points a grid verb computes: rows (values of m times values of
# lambda) for ``sweep``, ``--grid-n`` squared for ``qfunc``.  ``qfunc`` also
# holds ``--grid-n`` squared times dim coherent-state overlaps, at most
# ``MAX_GRID_POINTS * DEFAULT_DIM`` (2^24 complex values, 268 MB): a grid at
# the cap at the default dim 64.  Each count is checked before any state is
# built and before what it counts is allocated.
MAX_GRID_POINTS = 2**18

# The largest ``moments --order``.  Under a 1.5 GB address-space limit on a
# 2-vCPU VM, a thermal state's table and its JSON ran out of memory at
# orders 4095 and 3071 and took 10 s at 2047.
MAX_ORDER = 2047

# The largest ``criteria --nmax`` and scheme-A ``simulate --nmax``; both
# cost O(nmax^4).  On a 2-vCPU VM ``criteria --kind all`` on a coherent
# state took 0.6 s at nmax 256 and 7.0 s at 512, and scheme A 3.0 s at
# nmax 256 (depth 8) and 153 s at 1024 (depth 10).
MAX_NMAX = 256

# The deepest scheme-A tree: 2^MAX_DEPTH = MAX_GRID_POINTS detectors.
MAX_DEPTH = MAX_GRID_POINTS.bit_length() - 1


def _checked(convert: Callable, test: Callable, message: str) -> Callable:
    """An argparse ``type``: ``convert`` the text, then refuse a value that
    fails ``test`` with ``message.format(value)``.

    A :class:`ValidationError` passes through argparse to :func:`main`
    (exit 2, ``error: message``); text that ``convert`` cannot read stays
    argparse's usage error, named after ``convert`` (``invalid int value``).
    """
    def check(text: str):
        value = convert(text)
        if not test(value):
            raise ValidationError(message.format(value))
        return value

    check.__name__ = convert.__name__
    return check


def _capped(option: str, cap: int) -> Callable:
    return _checked(int, lambda n: n <= cap, f"{option} {{}} is above the cap of {cap}")


def _finite(option: str, test: Callable = lambda x: x > 0,
            rule: str = "finite and positive") -> Callable:
    return _checked(float, lambda x: math.isfinite(x) and test(x),
                    f"{option} must be {rule}")


def _complex_pair(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValidationError(f"--lo-alpha must be 're' or 're,im', got {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError("--m-list must be comma-separated integers") from None


def _lambda_grid(text: str) -> list[float]:
    """The lambdas of ``'start,stop,step'``, counted against the cap first."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError("--lambda-range must be 'start,stop,step'")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError("--lambda-range must contain numbers") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError("--lambda-range must be finite")
    if step <= 0 or stop < start:
        raise ValidationError("--lambda-range needs step > 0 and stop >= start")
    steps = (stop - start) / step
    if not math.isfinite(steps) or round(steps) + 1 > MAX_GRID_POINTS:
        raise ValidationError(
            f"--lambda-range asks for {steps + 1:.6g} values of lambda, "
            f"above the cap of {MAX_GRID_POINTS}"
        )
    lambdas = [
        start + i * step
        for i in range(round(steps) + 1)
        if start + i * step <= stop + 1e-12
    ]
    if any(lam <= 0 or abs(lam - 1.0) < 1e-12 for lam in lambdas):
        raise ValidationError("lambda grid must avoid 0 and the classical point 1")
    return lambdas


_dim = _checked(int, lambda n: n >= 1, "--dim must be positive")
_grid_n = _checked(
    _checked(int, lambda n: n >= 1, "--grid-n must be at least 1"),
    lambda n: n**2 <= MAX_GRID_POINTS,
    f"--grid-n {{0}} asks for {{0}}^2 grid points, above the cap of {MAX_GRID_POINTS}",
)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; each option's default and check are declared
    once, at its ``add_argument``, so a verb's namespace holds its own
    options, ``verb`` and the ``run`` function of the verb."""
    parser = argparse.ArgumentParser(
        prog="nclmoments",
        description="Moment-based nonclassicality tests and homodyne-"
        "correlation measurement simulation for single-mode states.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_verb(name: str, run: Callable, out: str, summary: str,
                 state: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if state:
            p.add_argument(
                "--state",
                required=True,
                help="state spec: inline JSON or path to a JSON file",
            )
            p.add_argument("--dim", type=_dim, default=DEFAULT_DIM,
                           help="Fock truncation")
        p.add_argument("--out", default=out, help="output file path")
        return p

    p = add_verb("moments", verb_moments, "moments.json", "tabulate <a^dag^k a^l>")
    p.add_argument("--order", type=_capped("--order", MAX_ORDER), default=4,
                   help="largest k and l")

    p = add_verb("criteria", verb_criteria, "criteria.json",
                 "determinant hierarchies and witnesses")
    p.add_argument("--kind", choices=["aa", "quad", "xn", "d2", "all"], default="all")
    p.add_argument("--nmax", type=_capped("--nmax", MAX_NMAX), default=4,
                   help="largest hierarchy order")
    p.add_argument("--phi", type=_finite("--phi", math.isfinite, "finite"), default=0.0,
                   help="quadrature angle")
    p.add_argument(
        "--tolerance", type=_finite("--tolerance"), default=DEFAULT_TOLERANCE,
        help="negativity threshold (scaled by matrix magnitude)",
    )

    p = add_verb("sweep", verb_sweep, "sweep.csv", "witness sweep over (m, lambda)",
                 state=False)
    p.add_argument(
        "--dim", type=_dim, help="accepted and unused: the sweep's moment "
        "tables are exact and need no Fock truncation",
    )
    p.add_argument("--m-list", type=_int_list, default="2,3,4",
                   help="comma-separated orders m")
    p.add_argument("--lambda-range", type=_lambda_grid, default="1.05,2.0,0.05",
                   help="'start,stop,step' grid for lambda")

    p = add_verb("qfunc", verb_qfunc, "qfunc.csv", "Husimi distribution on a grid")
    p.add_argument("--grid-bound", type=_finite("--grid-bound"), default=2.0,
                   help="half-width")
    p.add_argument("--grid-n", type=_grid_n, default=41, help="points per axis")

    p = add_verb("simulate", verb_simulate, "record.json", "forward measurement record")
    p.add_argument("--scheme", choices=["a", "b", "c"], required=True)
    p.add_argument("--depth", type=_capped("--depth", MAX_DEPTH), default=2,
                   help="scheme-a tree depth")
    p.add_argument("--nmax", type=_capped("--nmax", MAX_NMAX), default=4,
                   help="scheme-a largest order")
    p.add_argument("--lo-alpha", type=_complex_pair, default="3,0",
                   help="oscillator amplitude 're,im'")
    p.add_argument("--t0", type=float, default=math.sqrt(0.5))
    p.add_argument(
        "--samples",
        type=_finite("--samples", lambda x: x >= 1, "finite and at least 1"),
        help="shot-noise samples",
    )
    p.add_argument("--seed", type=int, default=0)

    p = add_verb("invert", verb_invert, "inverted.json",
                 "recover moments from a record", state=False)
    p.add_argument("--record", required=True, help="record JSON from 'simulate'")

    return parser


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
    lambdas = args.lambda_range
    count = len(args.m_list) * len(lambdas)
    if count > MAX_GRID_POINTS:
        raise ValidationError(
            f"--m-list and --lambda-range ask for {count} rows, "
            f"above the cap of {MAX_GRID_POINTS}"
        )
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

    spec = _read_spec(args.state)
    dim = _spec_dim(spec, args.dim)
    overlaps = args.grid_n**2 * dim
    if overlaps > MAX_GRID_POINTS * DEFAULT_DIM:
        raise ValidationError(
            f"--grid-n {args.grid_n} at dim {dim} asks for {overlaps} "
            f"coherent-state overlaps, above the cap of "
            f"{MAX_GRID_POINTS * DEFAULT_DIM}"
        )
    state = state_from_spec(spec, args.dim)
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


def _dim_hint(dim: int) -> str:
    """The retry hint of a :class:`TruncationError` that suggests ``dim``."""
    if dim > MAX_DIM:
        return (f"hint: the retry dim {dim} is above the cap of {MAX_DIM}: "
                f"no dim within the cap is enough")
    return (f'hint: retry with --dim {dim} (or "dim": {dim} in the state spec, '
            f"which overrides --dim)")


# The parser of every main() call in this process: built by the first call,
# since building it costs twenty parses and it is the same for every argv.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
        return args.run(args)
    except NclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, TruncationError) and exc.suggested_dim:
            print(_dim_hint(exc.suggested_dim), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
