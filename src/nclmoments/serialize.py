"""Flat-file exchange formats: state specs, tables, reports, records.

All JSON documents are emitted on one compact line with sorted keys, so
rerunning a deterministic computation on the same machine produces
byte-identical files.  Byte identity holds per machine only: NumPy picks
its SIMD kernels by CPU feature, and on x86-64 a ``qfunc`` CSV has other
bytes at the AVX-512, AVX2 and baseline levels (``sweep`` CSVs have kept
theirs).  Complex numbers are serialized as two-element ``[re, im]``
arrays, and a scheme-B/C record's counts as one array in detector-subset
order.  CSV files use a comma separator, ``.`` decimal point, a header row
and 17 significant digits (enough for a lossless float round trip).  A
file that cannot be written raises
:class:`~nclmoments.errors.ValidationError`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping, Sequence, Union

import numpy as np

from .criteria import CriterionReport
from .errors import ValidationError
from .measurement import (
    _DETECTOR_SUBSETS,
    DetectionRecord,
    FourierRecord,
    LOConfig,
    scheme_a_phases,
)
from .moments import MomentTable, resolve_table
from .states import (
    State,
    make_coherent,
    make_fock,
    make_thermal,
    make_ass_state,
    apply_squeeze,
)

STATE_TYPES = ("fock", "coherent", "thermal", "squeezed_vacuum", "ass")
# Fock truncation of a state spec that gives no "dim".
DEFAULT_DIM = 64
# Largest Fock truncation of a state spec: a density matrix of 2^24 entries.
MAX_DIM = 2**12
# write_csv formats and writes this many rows at a time.
_CSV_ROWS = 1024


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _is_number(value: Any) -> bool:
    """JSON numbers only: ``true`` decodes to a ``bool``, an ``int`` subclass."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value: Any, context: str) -> float:
    """A decoded JSON number as a float; booleans, strings and integers
    beyond the float range are refused."""
    if not _is_number(value):
        raise ValidationError(f"{context} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{context} is too large for a float") from None


def _integer(value: Any, context: str) -> int:
    """A decoded JSON integer; booleans, strings and fractions are refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{context} must be an integer, got {value!r}")
    return value


def complex_from_json(value: Any, context: str) -> complex:
    if _is_number(value):
        parts = [value]
    elif (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_number(v) for v in value)
    ):
        parts = value
    else:
        raise ValidationError(f"{context} must be a number or an [re, im] pair")
    try:
        return complex(*parts)
    except OverflowError:
        raise ValidationError(f"{context} is too large for a float") from None


def _spec_dim(spec: Any, default_dim: int) -> int:
    """Check that ``spec`` is an object of a known type; return its checked ``dim``."""
    if not isinstance(spec, Mapping):
        raise ValidationError("state spec must be a JSON object")
    kind = spec.get("type")
    if kind not in STATE_TYPES:
        raise ValidationError(
            f"state spec type must be one of {STATE_TYPES}, got {kind!r}"
        )
    dim = _integer(spec.get("dim", default_dim), "state spec field 'dim'")
    if dim < 1:
        raise ValidationError("state spec dim must be a positive integer")
    if dim > MAX_DIM:
        raise ValidationError(f"state spec dim {dim} exceeds the cap {MAX_DIM}")
    return dim


def state_from_spec(spec: Mapping[str, Any], default_dim: int = DEFAULT_DIM) -> State:
    """Construct a state from its JSON specification.

    ``{"type": "fock"|"coherent"|"thermal"|"squeezed_vacuum"|"ass",
    parameters per type, "dim": integer}``; parameters are ``n`` (fock),
    ``alpha`` (coherent), ``nbar`` (thermal), ``z`` (squeezed vacuum) and
    ``m``/``lambda`` (amplitude-squared squeezed).  ``dim`` is optional and
    defaults to ``default_dim``; either way it is at most :data:`MAX_DIM`,
    checked before any state is built.
    """
    dim = _spec_dim(spec, default_dim)
    kind = spec["type"]
    if kind == "fock":
        return make_fock(_integer(spec.get("n"), "state spec field 'n'"), dim)
    if kind == "coherent":
        alpha = complex_from_json(spec.get("alpha"), "coherent alpha")
        return make_coherent(alpha, dim)
    if kind == "thermal":
        return make_thermal(_number(spec.get("nbar"), "state spec field 'nbar'"), dim)
    if kind == "squeezed_vacuum":
        z = complex_from_json(spec.get("z"), "squeeze parameter z")
        return apply_squeeze(make_fock(0, dim), z)
    m = _integer(spec.get("m"), "state spec field 'm'")
    lam = _number(spec.get("lambda"), "state spec field 'lambda'")
    state, _ = make_ass_state(m, lam, dim)
    return state


def parse_state_argument(arg: str, default_dim: int = DEFAULT_DIM) -> State:
    """Resolve a ``--state`` value: a JSON file path or an inline JSON object."""
    return state_from_spec(_read_spec(arg), default_dim)


def _read_spec(arg: str) -> Any:
    """The decoded JSON of a ``--state`` value: the value itself if it starts
    with ``{``, else the file it names, read by :func:`read_json`."""
    text = arg.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"state spec is not valid JSON: {exc}") from exc
    # os.path.isfile, unlike Path.is_file, answers False for a name the
    # system refuses (too long, or holding a null byte) instead of raising.
    if not os.path.isfile(text):
        raise ValidationError(
            f"state argument {arg!r} is neither inline JSON nor an existing file"
        )
    return read_json(text)


# -- moment tables -----------------------------------------------------------


def table_to_json(table: MomentTable) -> dict[str, Any]:
    """The lower wedge ``k >= l`` of one table, row by row."""
    values = resolve_table(table, table.max_order).values
    ks, ls = np.tril_indices(table.max_order + 1)
    wedge = values[ks, ls]
    entries = [
        {"k": k, "l": l, "re": re, "im": im}
        for k, l, re, im in zip(
            ks.tolist(), ls.tolist(), wedge.real.tolist(), wedge.imag.tolist()
        )
    ]
    return {"max_order": table.max_order, "entries": entries}


def table_from_json(doc: Mapping[str, Any]) -> MomentTable:
    """The table of a :func:`table_to_json` document.

    The entries are checked and counted before the table is allocated.
    """
    try:
        max_order = _integer(doc["max_order"], "moment-table max_order")
        if max_order < 0:
            raise ValidationError("moment-table max_order must be nonnegative")
        entries = {}
        for item in doc["entries"]:
            k = _integer(item["k"], "table entry k")
            l = _integer(item["l"], "table entry l")
            if not 0 <= l <= k <= max_order:
                raise ValidationError(
                    f"table entry ({k}, {l}) is outside 0 <= l <= k <= max_order"
                )
            if (k, l) in entries:
                raise ValidationError(f"duplicate table entry ({k}, {l})")
            entries[k, l] = complex(
                _number(item["re"], f"table entry ({k}, {l}) re"),
                _number(item["im"], f"table entry ({k}, {l}) im"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed moment-table document: {exc!r}") from exc
    if len(entries) != (max_order + 1) * (max_order + 2) // 2:
        raise ValidationError("table document is missing entries")
    vals = np.zeros((max_order + 1, max_order + 1), dtype=complex)
    for (k, l), value in entries.items():
        vals[k, l] = value
        vals[l, k] = np.conj(value)
    return MomentTable(vals, validate=False)


# -- reports -----------------------------------------------------------------


def report_to_json(report: CriterionReport) -> dict[str, Any]:
    """A report's fields; the ``criteria`` verb adds the state's ``witnesses``."""
    return {
        "kind": report.kind.value,
        "phi": report.phi,
        "determinants": [
            {"N": n, "value": value} for n, value in report.determinants
        ],
        "first_negative_order": report.first_negative_order,
        "tolerance": report.tolerance,
    }


# -- LO config and measurement records ---------------------------------------


def lo_to_json(lo: LOConfig) -> dict[str, Any]:
    return {
        "alpha": complex_to_json(lo.alpha),
        "t0": lo.t0,
        "r0": complex_to_json(lo.r0),
    }


def lo_from_json(doc: Mapping[str, Any]) -> LOConfig:
    try:
        alpha = complex_from_json(doc["alpha"], "lo alpha")
        t0 = _number(doc["t0"], "lo t0")
        r0 = complex_from_json(doc["r0"], "lo r0")
    except KeyError as exc:
        raise ValidationError(f"LO config is missing field {exc}") from exc
    lo = LOConfig(alpha, t0)
    if r0 != lo.r0:
        raise ValidationError(f"lo r0 is {r0!r}, but t0 = {lo.t0!r} gives {lo.r0!r}")
    return lo


# A scheme-B/C record's "gammas", as the reader's messages name it.
_GAMMAS = "gammas ({} numbers: the counts of detector subsets {}, in order)".format(
    len(_DETECTOR_SUBSETS),
    ", ".join("(%s)" % ", ".join(map(str, s)) for s in _DETECTOR_SUBSETS),
)


def detection_record_to_json(record: DetectionRecord) -> dict[str, Any]:
    gammas = [record.gammas[subset] for subset in _DETECTOR_SUBSETS]
    return {"scheme": record.scheme, "lo": lo_to_json(record.lo), "gammas": gammas}


def detection_record_from_json(doc: Mapping[str, Any]) -> DetectionRecord:
    """The record of a document whose ``"gammas"`` lists one count per subset."""
    try:
        counts = doc["gammas"]
        if not isinstance(counts, list) or len(counts) != len(_DETECTOR_SUBSETS):
            raise ValidationError(f"{_GAMMAS} must be a list")
        gammas = {subset: _number(value, f"{_GAMMAS} entry {i}")
                  for i, (subset, value) in enumerate(zip(_DETECTOR_SUBSETS, counts))}
        return DetectionRecord(
            scheme=str(doc["scheme"]), lo=lo_from_json(doc["lo"]), gammas=gammas
        )
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"malformed detection record: {exc}") from exc


def fourier_record_to_json(record: FourierRecord) -> dict[str, Any]:
    samples = []
    for n in range(1, record.n_max + 1):
        samples += [
            {"n": n, "j": j, "phi": phi, "value": record.samples[(n, j)]}
            for j, phi in enumerate(scheme_a_phases(n).tolist())
        ]
    return {
        "scheme": "a",
        "depth": record.depth,
        "n_max": record.n_max,
        "lo": lo_to_json(record.lo),
        "samples": samples,
    }


def fourier_record_from_json(doc: Mapping[str, Any]) -> FourierRecord:
    """The record of a :func:`fourier_record_to_json` document.

    Each sample's ``phi`` must be the phase :func:`scheme_a_phases` scans
    for its ``(n, j)``; the record itself keeps only the values.
    """
    try:
        samples, phis = {}, {}
        for item in doc["samples"]:
            key = (_integer(item["n"], "sample n"), _integer(item["j"], "sample j"))
            samples[key] = _number(item["value"], "phase-scan sample")
            phis[key] = _number(item["phi"], "sample phi")
        record = FourierRecord(
            depth=_integer(doc["depth"], "record depth"),
            lo=lo_from_json(doc["lo"]),
            n_max=_integer(doc["n_max"], "record n_max"),
            samples=samples,
        )
        # The record holds each (n, j) of its orders once, so more entries
        # than keys means a repeated sample.
        if len(doc["samples"]) != len(samples):
            raise ValidationError(
                f"the record lists {len(doc['samples'])} samples for "
                f"{len(samples)} distinct (n, j)"
            )
        for n in range(1, record.n_max + 1):
            for j, phi in enumerate(scheme_a_phases(n).tolist()):
                if phis[n, j] != phi:
                    raise ValidationError(
                        f"sample ({n}, {j}) has phi {phis[n, j]!r}, but order {n} "
                        f"scans phi {phi!r} there"
                    )
        return record
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"malformed phase-scan record: {exc}") from exc


_RECORD_KEYS = {"b": ("record",), "c": ("record", "blocked")}
Record = Union[FourierRecord, DetectionRecord]


def records_to_json(records: Sequence[Record]) -> dict[str, Any]:
    """The record file of one simulated measurement.

    A scheme-A scan is its one :class:`FourierRecord`.  Schemes B and C wrap
    their detection records as ``{"scheme": "b", "record": ...}`` and
    ``{"scheme": "c", "record": ..., "blocked": ...}``, the blocked pass
    second.
    """
    first = records[0]
    if isinstance(first, FourierRecord):
        (scan,) = records
        return fourier_record_to_json(scan)
    keys = _RECORD_KEYS[first.scheme]
    doc: dict[str, Any] = {"scheme": first.scheme}
    for key, record in zip(keys, records, strict=True):
        doc[key] = detection_record_to_json(record)
    return doc


def records_from_json(doc: Any) -> list[Record]:
    """The records of a file written by :func:`records_to_json`."""
    if not isinstance(doc, Mapping) or "scheme" not in doc:
        raise ValidationError("record file lacks a scheme tag")
    scheme = doc["scheme"]
    if scheme == "a":
        return [fourier_record_from_json(doc)]
    if scheme not in ("b", "c"):
        raise ValidationError(f"unknown scheme tag {scheme!r} in record")
    missing = [key for key in _RECORD_KEYS[scheme] if key not in doc]
    if missing:
        raise ValidationError(f"scheme-{scheme} record file lacks {missing}")
    return [detection_record_from_json(doc[key]) for key in _RECORD_KEYS[scheme]]


# -- files -------------------------------------------------------------------


def write_json(path: Union[str, Path], doc: Any) -> None:
    """Write a JSON document deterministically: one compact line, sorted keys.

    Without ``indent``, ``json`` runs its C encoder.  Non-finite floats are
    refused, and a file that cannot be written raises :class:`ValidationError`.
    """
    text = json.dumps(doc, separators=(",", ":"), sort_keys=True, allow_nan=False)
    try:
        Path(path).write_text(text + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def read_json(path: Union[str, Path]) -> Any:
    """The decoded JSON of a UTF-8 file; a file that cannot be read, decoded
    or parsed raises :class:`ValidationError`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from exc


def write_csv(
    path: Union[str, Path],
    header: Sequence[str],
    rows: Any,
) -> None:
    """Comma-separated table with a header and 17-significant-digit floats.

    ``rows`` is a 2-D array of floats with one column per header field.
    Every value is written as ``format(v, ".17g")`` would write it, which
    round-trips losslessly; non-finite values are refused.  The whole array
    is checked before the file is opened.  The rows are then formatted and
    written ``_CSV_ROWS`` (1024) at a time, each block by one ``%`` on a
    repeated line template, so the memory held beyond ``rows`` is one
    block's values and text (under 0.2 MB for three columns), whatever the
    number of rows.  A file that cannot be written raises
    :class:`ValidationError`.
    """
    try:
        values = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"CSV rows are not a table of floats: {exc}") from None
    if values.ndim != 2 or values.shape[1] != len(header):
        raise ValidationError(
            f"CSV rows have shape {values.shape}, expected {len(header)} fields a row"
        )
    if not np.isfinite(values).all():
        raise ValidationError("cannot serialize non-finite values to CSV")
    line = ",".join(["%.17g"] * len(header)) + "\n"
    try:
        with Path(path).open("w") as out:
            out.write(",".join(header) + "\n")
            for start in range(0, len(values), _CSV_ROWS):
                block = values[start : start + _CSV_ROWS]
                out.write((line * len(block)) % tuple(block.ravel().tolist()))
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
