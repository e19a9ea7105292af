"""JSON/CSV round trips for states, tables, records and reports."""

import json
import math
import re

import numpy as np
import pytest

from helpers import random_pure_state
from nclmoments import (
    DensityState,
    FockState,
    LOConfig,
    ValidationError,
    determinant_hierarchy,
    make_thermal,
    moment_table,
    scheme_a_invert,
    scheme_a_sample_and_fourier,
    scheme_b_forward,
)
from nclmoments.serialize import (
    DEFAULT_DIM,
    complex_from_json,
    complex_to_json,
    detection_record_from_json,
    detection_record_to_json,
    fourier_record_from_json,
    fourier_record_to_json,
    lo_from_json,
    lo_to_json,
    parse_state_argument,
    read_json,
    records_from_json,
    records_to_json,
    report_to_json,
    state_from_spec,
    table_from_json,
    table_to_json,
    write_csv,
    write_json,
)


def test_complex_round_trip():
    for z in (0.0, 1.5, -2.0 + 0.5j, 1j):
        assert complex_from_json(complex_to_json(z), "t") == complex(z)
    assert complex_from_json(3.0, "t") == 3.0 + 0.0j
    with pytest.raises(ValidationError):
        complex_from_json([1.0], "t")
    with pytest.raises(ValidationError):
        complex_from_json("nope", "t")


def test_state_from_spec_all_types():
    fock = state_from_spec({"type": "fock", "n": 2})
    assert isinstance(fock, FockState) and fock.amplitudes[2] == 1.0
    coherent = state_from_spec({"type": "coherent", "alpha": [0.5, 0.2]})
    assert coherent.dim == DEFAULT_DIM
    assert abs(moment_table(coherent, 1).entry(0, 1) - (0.5 + 0.2j)) < 1e-10
    thermal = state_from_spec({"type": "thermal", "nbar": 0.5, "dim": 48})
    assert isinstance(thermal, DensityState) and thermal.dim == 48
    squeezed = state_from_spec({"type": "squeezed_vacuum", "z": 0.5})
    assert moment_table(squeezed, 1).entry(1, 1).real == pytest.approx(math.sinh(0.5) ** 2)
    ass = state_from_spec({"type": "ass", "m": 1, "lambda": 1.5, "dim": 96})
    assert ass.dim == 96


def test_state_from_spec_validation():
    with pytest.raises(ValidationError):
        state_from_spec({"type": "wigner"})
    with pytest.raises(ValidationError):
        state_from_spec({"n": 1})
    with pytest.raises(ValidationError):
        state_from_spec({"type": "fock"})
    with pytest.raises(ValidationError):
        state_from_spec({"type": "fock", "n": 1, "dim": "big"})


def test_parse_state_argument_inline_and_file(tmp_path):
    inline = parse_state_argument('{"type": "fock", "n": 1}', 32)
    assert inline.dim == 32
    path = tmp_path / "state.json"
    path.write_text('{"type": "thermal", "nbar": 1.0}\n')
    from_file = parse_state_argument(str(path), 96)
    assert from_file.dim == 96
    with pytest.raises(ValidationError):
        parse_state_argument(str(tmp_path / "missing.json"), 32)


def test_table_json_round_trip():
    table = moment_table(random_pure_state(32, 12), 4)
    doc = table_to_json(table)
    assert doc["max_order"] == 4
    # only the lower wedge k >= l is stored
    assert all(e["k"] >= e["l"] for e in doc["entries"])
    back = table_from_json(doc)
    for k in range(5):
        for l in range(5):
            assert back.entry(k, l) == pytest.approx(table.entry(k, l))


def test_table_from_json_rejects_incomplete():
    table = moment_table(random_pure_state(16, 13), 2)
    doc = table_to_json(table)
    doc["entries"] = doc["entries"][:-1]
    with pytest.raises(ValidationError):
        table_from_json(doc)
    # the entries are counted before the (10^6 + 1)^2 table is allocated
    with pytest.raises(ValidationError, match="missing entries"):
        table_from_json({"max_order": 10**6, "entries": doc["entries"]})


def test_table_from_json_rejects_entry_without_value():
    doc = table_to_json(moment_table(random_pure_state(16, 13), 2))
    del doc["entries"][1]["re"]
    with pytest.raises(ValidationError):
        table_from_json(doc)


def test_table_from_json_rejects_order_beyond_max_order():
    doc = table_to_json(moment_table(random_pure_state(16, 13), 2))
    doc["entries"][-1]["k"] = 3
    with pytest.raises(ValidationError):
        table_from_json(doc)


@pytest.mark.parametrize("field", ["re", "im"])
def test_table_from_json_rejects_non_finite_entries(field):
    """``json.loads`` reads ``NaN``, and the table once passed it through."""
    doc = table_to_json(moment_table(random_pure_state(16, 13), 2))
    doc["entries"][-1][field] = math.nan
    with pytest.raises(ValidationError, match="finite"):
        table_from_json(json.loads(json.dumps(doc)))


def _integer_field_docs():
    """Decoders and documents whose named integer field holds 1."""
    scan = scheme_a_sample_and_fourier(random_pure_state(16, 13), 1, LOConfig(3.0), 1)
    return {
        "table": (table_from_json, table_to_json(moment_table(random_pure_state(16, 13), 1))),
        "scan": (fourier_record_from_json, fourier_record_to_json(scan)),
        "fock": (state_from_spec, {"type": "fock", "n": 1, "dim": 16}),
        "thermal": (state_from_spec, {"type": "thermal", "nbar": 0.0, "dim": 1}),
        "ass": (state_from_spec, {"type": "ass", "m": 1, "lambda": 1.5, "dim": 32}),
    }


@pytest.mark.parametrize("name, path", [
    ("table", ("max_order",)), ("table", ("entries", 2, "k")),
    ("table", ("entries", 2, "l")), ("scan", ("depth",)), ("scan", ("n_max",)),
    ("scan", ("samples", 1, "n")), ("scan", ("samples", 1, "j")),
    ("fock", ("n",)), ("thermal", ("dim",)), ("ass", ("m",)),
], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v)
def test_integer_fields_refuse_bools_strings_and_fractions(name, path):
    decode, doc = _integer_field_docs()[name]
    item = doc
    for key in path[:-1]:
        item = item[key]
    assert item[path[-1]] == 1
    decode(doc)
    item[path[-1]] = 1.0  # an integral JSON float is the integer
    decode(doc)
    for bad in (True, "1", 1.9):
        item[path[-1]] = bad
        with pytest.raises(ValidationError, match="must be an integer"):
            decode(doc)


def test_report_to_json_schema():
    report = determinant_hierarchy(make_thermal(0.5, 64), "aa", 3)
    doc = report_to_json(report)
    assert doc["kind"] == "aa"
    assert doc["first_negative_order"] is None
    assert [d["N"] for d in doc["determinants"]] == [2, 3]
    # the witnesses are the criteria verb's to add (tests/test_cli.py)
    assert set(doc) == {"kind", "phi", "determinants", "first_negative_order", "tolerance"}
    json.dumps(doc)  # must be JSON-clean


def test_lo_round_trip():
    lo = LOConfig(alpha=1.0 - 2.0j, t0=0.8)
    back = lo_from_json(lo_to_json(lo))
    assert back.alpha == lo.alpha
    assert back.t0 == lo.t0
    assert back.r0 == pytest.approx(lo.r0)


def test_detection_record_round_trip():
    record = scheme_b_forward(random_pure_state(24, 14), LOConfig(alpha=1.5))
    doc = detection_record_to_json(record)
    assert doc["scheme"] == "b"
    assert [item["subset"] for item in doc["gammas"]] == [
        [1], [2], [3], [4], [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]
    ]
    back = detection_record_from_json(doc)
    assert back.gammas == record.gammas


@pytest.mark.parametrize("subset", [[12], [5], [2, 1], [1, 2, 3], []])
def test_detection_record_refuses_unknown_subsets(subset):
    """Only the ten subsets a record is written with are read back; ``[12]``
    was once read as ``[1, 2]``."""
    record = scheme_b_forward(random_pure_state(24, 14), LOConfig(alpha=1.5))
    doc = detection_record_to_json(record)
    doc["gammas"][4]["subset"] = subset
    message = re.escape(f"unknown detector subset {subset}")
    with pytest.raises(ValidationError, match=message):
        detection_record_from_json(doc)


def test_fourier_record_round_trip_preserves_inversion():
    state = random_pure_state(24, 15)
    record = scheme_a_sample_and_fourier(state, 3, LOConfig(3.0), 2)
    back = fourier_record_from_json(fourier_record_to_json(record))
    assert back.samples == record.samples
    t1, t2 = scheme_a_invert(record), scheme_a_invert(back)
    for k in range(4):
        for l in range(4):
            assert t1.entry(k, l) == pytest.approx(t2.entry(k, l), abs=1e-12)


@pytest.mark.parametrize("doc, message", [
    ([], "lacks a scheme tag"),
    ({"record": {}}, "lacks a scheme tag"),
    ({"scheme": "d"}, "unknown scheme tag 'd'"),
    ({"scheme": ["b"]}, "unknown scheme tag"),
    ({"scheme": "c", "record": {}}, "lacks ['blocked']"),
])
def test_records_from_json_rejects_malformed_files(doc, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        records_from_json(doc)


def test_write_json_deterministic(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": 1, "a": [1.0, 2.0]})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')  # sorted keys
    assert read_json(path) == {"b": 1, "a": [1.0, 2.0]}
    with pytest.raises(ValueError):
        write_json(path, {"x": float("nan")})


def test_write_json_is_one_compact_line_of_sorted_keys(tmp_path):
    """The compact layout parses to what the indented one did."""
    scan = scheme_a_sample_and_fourier(random_pure_state(16, 13), 2, LOConfig(3.0), 1)
    table = moment_table(random_pure_state(16, 13), 2)
    for doc in (records_to_json([scan]), table_to_json(table), [{"b": -0.0, "a": 1}]):
        path = tmp_path / "doc.json"
        write_json(path, doc)
        text = path.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        orders = []
        json.loads(text, object_pairs_hook=lambda pairs: orders.append(
            [key for key, _ in pairs]) or dict(pairs))
        assert orders and all(keys == sorted(keys) for keys in orders)
        assert json.loads(text) == json.loads(json.dumps(doc, indent=2, sort_keys=True))


CSV_EDGE_VALUES = (
    -0.0, 0.0, 1e-300, 5e-324, 2.5e-310, -2.2250738585072014e-308,
    0.1, -1.0 / 3.0, 2.0**-40, 12345.678, 1.7976931348623157e308,
    9007199254740993.0, 0.30000000000000004, 1.0 / math.pi,
)


def test_write_csv_bytes_equal_per_value_format(tmp_path):
    """Row-at-a-time formatting writes what ``format(v, ".17g")`` writes, value by value."""
    rows = np.array(CSV_EDGE_VALUES[:12]).reshape(4, 3)
    rows = np.vstack([rows, [CSV_EDGE_VALUES[12:] + (-5e-324,)]])
    path = tmp_path / "edge.csv"
    write_csv(path, ["a", "b", "c"], rows)
    want = "a,b,c\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows
    )
    assert path.read_bytes() == want.encode()
    read_back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(read_back, rows)
    assert np.array_equal(np.signbit(read_back), np.signbit(rows))


@pytest.mark.parametrize("rows, message", [
    ([[1.0, float("inf")]], "non-finite"),
    ([[float("nan"), 0.0]], "non-finite"),
    ([[1.0, 2.0, 3.0]], "expected 2 fields"),
    ([1.0, 2.0], "expected 2 fields"),
    ([[1.0, 2.0], [3.0]], "not a table of floats"),
])
def test_write_csv_refuses_non_finite_and_misshapen_rows(tmp_path, rows, message):
    with pytest.raises(ValidationError, match=message):
        write_csv(tmp_path / "bad.csv", ["x", "y"], rows)


def test_write_csv(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["x", "y"], [[1.0, 2.5], [0.1, -3.0]])
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y"
    assert lines[1].split(",")[1] == "2.5"
    assert float(lines[2].split(",")[0]) == 0.1
