"""Deterministic emission of tables and run manifests.

Output bytes must be reproducible run to run: JSON keys are sorted,
floats carry full repr precision, newlines are always LF, and exact
rationals are converted to floats only here at the boundary. Human
tables round half to even at 3 decimals; machine files do not round.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

from . import __version__


def _scalar(x):
    """A Fraction as a float and a non-finite float as its name ("inf",
    "-inf" or "nan"), for JSON and CSV alike; any other value as is."""
    if isinstance(x, Fraction):
        x = float(x)
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def jsonable(obj):
    """Convert nested values into JSON-safe structures.

    Fractions become floats, records (NamedTuples) dicts, other tuples
    lists; non-finite floats become strings since strict JSON has no
    spelling for them. A record is a tuple, so it is matched first.
    """
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return _scalar(obj)


def write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(jsonable(obj), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _cell(x) -> str:
    # str of a float is its full-precision repr
    return "" if x is None else str(_scalar(x))


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)


def flatten(doc) -> list[tuple[str, object]]:
    """The (dotted key, value) rows of a JSON-able document, in the order
    its JSON text lists them: dict keys sorted, list items by index, so
    {"a": [{"b": 1}]} gives [("a.0.b", 1)]. Values are converted as by
    jsonable; None stays None, which write_csv leaves empty. An empty
    dict or list gives no rows."""
    rows = []

    def walk(key: str, obj) -> None:
        if isinstance(obj, dict):
            items = sorted(obj.items())
        elif isinstance(obj, list):
            items = [(str(i), item) for i, item in enumerate(obj)]
        else:
            rows.append((key, obj))
            return
        for sub, item in items:
            walk(f"{key}.{sub}" if key else sub, item)

    walk("", jsonable(doc))
    return rows


def format_table(headers, rows) -> str:
    """Plain-text aligned table for terminal output."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join(lines)


def sha256_file(path: Path) -> str:
    """The hex SHA-256 of the file's bytes, from CPython's built-in
    SHA-256, the one hashlib itself falls back on, so no run loads
    OpenSSL; hashlib only where that module is missing."""
    data = path.read_bytes()
    for name in ("_sha256", "_sha2"):  # CPython 3.11; 3.12 and later
        try:
            return __import__(name).sha256(data).hexdigest()
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256(data).hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict, inputs) -> Path:
    """Record what produced this output directory.

    inputs is a mapping of role name to file path; each gets hashed so
    reported numbers stay traceable to exact input bytes.
    """
    doc = {
        "command": command,
        "config": config,
        "inputs": {
            name: {"path": str(p), "sha256": sha256_file(Path(p))}
            for name, p in inputs.items()
        },
        "version": __version__,
    }
    path = out_dir / "manifest.json"
    write_json(path, doc)
    return path
