"""Golden outputs: every file and stdout the CLI writes on tests/data.

For each case in CASES, run in both --formats, golden.json pins the
sha256 of every csv/json file written to --out-dir, the command's
stdout (with the out dir spelled "<out>"), and manifest.json less the
input paths and the out dir, which depend on the machine, and the
library version, which changes with each release. Any change to output
bytes shows here.

Regenerate golden.json only after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import CliRunner
from ramseystats import cli, report
from ramseystats.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden.json"

VOTES = str(DATA / "house-votes-84-sample.csv")
SMALL = str(DATA / "trade-small.csv")
RING = str(DATA / "trade-ring.csv")

CASES = {
    "sweep": ["sweep", "--input", VOTES, "--subgroup", "G", "--subgroup", "D"],
    "chi2-votes": ["chi2", "--input", VOTES, "--df", "2"],
    "chi2-trade": ["chi2", "--input", SMALL, "--kind", "trade", "--k", "2"],
    "trade-small": ["trade", "--input", SMALL, "--k", "2"],
    "trade-orders": ["trade", "--input", SMALL, "--k", "2", "--orders", "4,5",
                     "--density-vertex", "Alpha", "--density-vertex", "Foxtrot"],
    "trade-k1": ["trade", "--input", SMALL, "--k", "1", "--density-vertex", "Bravo"],
    "trade-ring": ["trade", "--input", RING, "--k", "5", "--density-vertex", "C0"],
    "simulate-exhaustive": ["simulate", "--exhaustive", "--n", "5"],
    "simulate-exhaustive-2": ["simulate", "--exhaustive", "--n", "2"],
    "simulate-exhaustive-7": ["simulate", "--exhaustive", "--n", "7"],
    "simulate": ["simulate", "--n", "8", "--t-step", "0.25", "--samples", "40",
                 "--seed", "3"],
    "simulate-grid": ["simulate", "--n", "20", "--samples", "25", "--seed", "7"],
    "bounds": ["bounds"],
    "bounds-small": ["bounds", "--n-min", "3", "--n-max", "10", "--orders", "4,5"],
}
FORMATS = ("csv", "json")
MACHINE_FIELDS = ("out_dir",)


def observe(args: list[str], out: Path) -> dict:
    """Run one command into out and digest everything it wrote."""
    result = CliRunner().invoke(main, [*args, "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.name != "manifest.json"
    }
    return {
        "stdout": result.stdout.replace(str(out), "<out>"),
        "files": files,
        "manifest": {
            "command": manifest["command"],
            "config": {k: v for k, v in manifest["config"].items()
                       if k not in MACHINE_FIELDS},
            "inputs": {k: v["sha256"] for k, v in manifest["inputs"].items()},
        },
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, fmt, tmp_path):
    want = _golden()[f"{case}/{fmt}"]
    got = observe([*CASES[case], "--format", fmt], tmp_path)
    assert got["stdout"] == want["stdout"]
    assert got["files"] == want["files"]
    assert got["manifest"] == want["manifest"]
    # the manifest records each option the command declares, and only
    # those; the input path is hashed under inputs instead
    options = {dest for _, dest, *_ in cli._COMMANDS[CASES[case][0]][1]}
    assert set(got["manifest"]["config"]) == options - {"input_path", *MACHINE_FIELDS}


@pytest.mark.parametrize("case", sorted(c for c, args in CASES.items() if args[0] == "trade"))
def test_trade_summary_is_flat_trade_json(case, tmp_path):
    for fmt in FORMATS:
        observe([*CASES[case], "--format", fmt], tmp_path / fmt)
    doc = json.loads((tmp_path / "json" / "trade.json").read_text())
    del doc["census"]  # trade_census.csv
    with open(tmp_path / "csv" / "trade_summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    assert rows[1:] == [[key, "" if value is None else str(value)]
                        for key, value in report.flatten(doc)]


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(f"{c}/{f}" for c in CASES for f in FORMATS)


if __name__ == "__main__":
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, args in sorted(CASES.items()):
            for fmt in FORMATS:
                out = Path(tmp) / case / fmt
                golden[f"{case}/{fmt}"] = observe([*args, "--format", fmt], out)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)
