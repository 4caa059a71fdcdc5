import json
import math
from dataclasses import dataclass
from fractions import Fraction

from ramseystats import __version__, report


def test_jsonable_conversions():
    @dataclass(frozen=True)
    class Point:
        x: Fraction

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


def test_dumps_json_deterministic():
    a = report.dumps_json({"b": 1, "a": [Fraction(1, 2)]})
    b = report.dumps_json({"a": [Fraction(1, 2)], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [0.5], "b": 1}


def test_csv_text_full_precision():
    text = report.csv_text(["x", "y"], [(Fraction(1, 3), 0.1), (None, math.inf)])
    lines = text.splitlines()
    assert lines[0] == "x,y"
    assert lines[1] == f"{1 / 3!r},0.1"
    assert lines[2] == ",inf"
    assert text.endswith("\n")


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
