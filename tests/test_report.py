import csv
import hashlib
import io
import json
import math
import sys
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ramseystats import __version__, report


class Point(NamedTuple):
    x: Fraction


def test_jsonable_conversions():
    doc = report.jsonable(
        {
            "p": Point(Fraction(1, 4)),
            "seq": (1, 2),
            "inf": math.inf,
            "neg": -math.inf,
            "nan": math.nan,
        }
    )
    assert doc == {
        "p": {"x": 0.25},
        "seq": [1, 2],
        "inf": "inf",
        "neg": "-inf",
        "nan": "nan",
    }


def test_write_json_sorted_and_streamed(tmp_path):
    path = tmp_path / "doc.json"
    want = json.dumps({"a": [0.5], "b": 1}, sort_keys=True, indent=2) + "\n"
    for doc in ({"b": 1, "a": [Fraction(1, 2)]}, {"a": [Fraction(1, 2)], "b": 1}):
        report.write_json(path, doc)
        assert path.read_bytes() == want.encode()


def test_write_csv_full_precision(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(Fraction(1, 3), 0.1), (None, math.inf), ("a, b", 'say "x"\n')]
    report.write_csv(path, ["x", "y"], rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([["x", "y"], [repr(1 / 3), "0.1"], ["", "inf"], ["a, b", 'say "x"\n']])
    assert path.read_bytes() == buf.getvalue().encode()


def test_jsonable_record_inside_list_and_tuple():
    # a record is a tuple: read as a list it would lose its field names
    doc = report.jsonable({"rows": [Point(Fraction(1, 2))], "pair": (Point(3), (4, 5))})
    assert doc == {"rows": [{"x": 0.5}], "pair": [{"x": 3}, [4, 5]]}


def test_flatten_order_and_values():
    doc = {"b": [{"y": None, "x": Fraction(1, 4)}, Point(Fraction(1, 2))], "a": 1,
           "c": {}, "d": (), "e": {"z": math.inf}}
    assert report.flatten(doc) == [
        ("a", 1), ("b.0.x", 0.25), ("b.0.y", None), ("b.1.x", 0.5), ("e.z", "inf"),
    ]


def test_format_table_alignment():
    out = report.format_table(["a", "long"], [[1, 2], [333, 4]])
    lines = out.splitlines()
    assert lines[0] == "a    long"
    assert lines[1] == "1    2"
    assert lines[2] == "333  4"


def test_write_and_hash(tmp_path):
    p = tmp_path / "t.csv"
    report.write_csv(p, ["a"], [(1,)])
    assert p.read_bytes() == b"a\n1\n"
    digest = report.sha256_file(p)
    assert len(digest) == 64

    manifest = report.write_manifest(tmp_path, "sweep", {"k": 1}, {"input": p})
    doc = json.loads(manifest.read_text())
    assert doc["command"] == "sweep"
    assert doc["config"] == {"k": 1}
    assert doc["inputs"]["input"]["sha256"] == digest
    assert doc["version"] == __version__


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary())
@example(data=b"")
@example(data=b"\x00")
@example(data=bytes(range(256)) * 4097)  # more than 1 MiB
def test_sha256_file_is_hashlibs_digest(tmp_path, data):
    p = tmp_path / "input"
    p.write_bytes(data)
    assert report.sha256_file(p) == hashlib.sha256(data).hexdigest()


def test_sha256_file_falls_back_on_hashlib(tmp_path, monkeypatch):
    data = bytes(range(256)) * 3
    p = tmp_path / "input"
    p.write_bytes(data)
    for name in ("_sha256", "_sha2"):  # the built-in SHA-256 of 3.11; of 3.12 and later
        monkeypatch.setitem(sys.modules, name, None)  # now an import of it fails
    assert report.sha256_file(p) == hashlib.sha256(data).hexdigest()
