import csv
import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from math import comb, fsum, sqrt
from pathlib import Path
from statistics import fmean, stdev

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import ramseystats as rs
from conftest import CliRunner, assert_no_child_left
from ramseystats import census, cli, cores, report
from ramseystats.cli import OUT_DIR_ENV, main
from ramseystats.commands import bounds as bounds_command
from ramseystats.commands import simulate as simulate_command


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args, **kw):
    result = runner.invoke(main, args, catch_exceptions=False, **kw)
    assert result.exit_code == 0, result.output
    return result


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_sweep_outputs(runner, sample_votes_path, tmp_path):
    result = run_ok(runner, [
        "sweep", "--input", str(sample_votes_path),
        "--subgroup", "G", "--subgroup", "D",
        "--out-dir", str(tmp_path),
    ])
    assert "[0.200]" in result.output  # boxed minimum for the full sample
    rows = read_csv(tmp_path / "sweep_G.csv")
    assert rows[0][0] == "t"
    # t=0..7 plus the goodman reference row
    assert len(rows) == 1 + 9 + 1
    assert rows[-1][0] == "goodman"
    assert float(rows[-1][6]) == 0.1
    by_t = {r[0]: r for r in rows[1:-1]}
    assert float(by_t["5"][6]) == 0.2

    # the curves to plot against t are columns; the floor is the goodman row
    col = {name: rows[0].index(name) for name in
           ("mono_fraction", "red_fraction", "blue_fraction", "transitivity")}
    for row in rows[1:-1]:
        mono, red, blue = (float(row[col[name]]) for name in list(col)[:3])
        assert mono == pytest.approx(red + blue)
        assert 0 <= float(row[col["transitivity"]]) <= 1
    assert rows[-1][col["mono_fraction"]] == "0.1"

    # subgroup file has its own goodman floor (n=4 -> 0)
    d_rows = read_csv(tmp_path / "sweep_D.csv")
    assert float(d_rows[-1][6]) == 0.0

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["config"]["t_max"] == 8
    assert manifest["inputs"]["votes"]["sha256"] == report.sha256_file(sample_votes_path)
    assert manifest["config"]["subgroups"] == ["G", "D"]
    assert manifest["config"]["out_dir"] == str(tmp_path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_writes_only_its_tables(runner, sample_votes_path, tmp_path, fmt):
    result = run_ok(runner, [
        "sweep", "--input", str(sample_votes_path), "--subgroup", "G", "--subgroup", "D",
        "--format", fmt, "--out-dir", str(tmp_path),
    ])
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "manifest.json", f"sweep_D.{fmt}", f"sweep_G.{fmt}"]
    assert f"wrote 3 files to {tmp_path}" in result.output


def test_sweep_json_format(runner, sample_votes_path, tmp_path):
    run_ok(runner, [
        "sweep", "--input", str(sample_votes_path), "--format", "json",
        "--out-dir", str(tmp_path),
    ])
    doc = json.loads((tmp_path / "sweep_G.json").read_text())
    assert doc["n"] == 6
    assert doc["rows"][5]["mono_fraction"] == 0.2
    assert doc["goodman"]["forced_count"] == 2
    for row in doc["rows"]:
        for key in ("mono_fraction", "red_fraction", "blue_fraction"):
            assert 0.0 <= row[key] <= 1.0


def test_sweep_missing_input_exit_2(runner, tmp_path):
    result = runner.invoke(main, [
        "sweep", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path),
    ])
    assert result.exit_code == 2


def test_sweep_parse_error_exit_3(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("democrat,y,n\n")
    result = runner.invoke(main, ["sweep", "--input", str(bad), "--out-dir", str(tmp_path)])
    assert result.exit_code == 3


def test_sweep_unknown_subgroup_exit_1(runner, sample_votes_path, tmp_path):
    result = runner.invoke(main, [
        "sweep", "--input", str(sample_votes_path), "--subgroup", "Z",
        "--out-dir", str(tmp_path),
    ])
    assert result.exit_code == 1


@pytest.mark.parametrize("command", ["sweep", "chi2"])
def test_header_layout_writes_the_same_files(runner, sample_votes_path, tmp_path, command):
    headed = tmp_path / "headed.csv"
    header = ",".join(["party", *(f"v{j}" for j in range(1, 17))])
    headed.write_text(header + "\n" + sample_votes_path.read_text())
    outputs = {}
    for path in (sample_votes_path, headed):
        out = tmp_path / path.stem
        result = run_ok(runner, [command, "--input", str(path), "--out-dir", str(out)])
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        outputs[path] = result.stdout.replace(str(out), "<out>"), files
    assert outputs[headed] == outputs[sample_votes_path]


def _run_all(runner, path, runs, out):
    """Exit code, stdout and stderr (out dir masked) and written files,
    less the manifest, of each run on one input."""
    seen = []
    for i, args in enumerate(runs):
        where = out / str(i)
        result = runner.invoke(main, [*args, "--input", str(path), "--out-dir", str(where)])
        files = {p.name: p.read_bytes() for p in where.glob("*") if p.name != "manifest.json"}
        seen.append((result.exit_code, result.output.replace(str(where), "<out>"), files))
    return seen


@pytest.mark.parametrize("fixture, runs", [
    ("sample_votes_path", [["sweep", "--subgroup", "G", "--subgroup", "D"],
                           ["chi2", "--format", "json"],
                           ["sweep", "--subgroup", "R"]]),  # fails, naming the record count
    ("trade_small_path", [["trade", "--k", "2"], ["chi2", "--kind", "trade", "--k", "2"]]),
], ids=["votes", "trade"])
def test_byte_order_mark_writes_the_same_files(runner, tmp_path, request, fixture, runs):
    plain = request.getfixturevalue(fixture)
    marked = tmp_path / plain.name
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want = _run_all(runner, plain, runs, tmp_path / "plain")
    assert _run_all(runner, marked, runs, tmp_path / "marked") == want
    assert want[0][0] == 0


@pytest.mark.parametrize("fixture, command", [
    ("sample_votes_path", ["sweep"]), ("trade_small_path", ["trade", "--k", "2"]),
], ids=["votes", "trade"])
def test_input_not_in_utf8_exit_3(runner, tmp_path, request, fixture, command):
    latin1 = tmp_path / "latin1.csv"
    text = request.getfixturevalue(fixture).read_text()
    latin1.write_bytes(text.replace("a", "\xe9", 1).encode("latin-1"))
    result = runner.invoke(main, [*command, "--input", str(latin1),
                                  "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error: {latin1}: 'utf-8' codec can't decode byte 0xe9")
    assert not (tmp_path / "out").exists()


# characters str.splitlines breaks at but csv keeps inside a field
LINE_SEPARATORS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("sep", LINE_SEPARATORS, ids=lambda sep: f"U+{ord(sep):04X}")
def test_line_separator_inside_a_trade_label(runner, trade_small_path, tmp_path, sep):
    marked = tmp_path / "marked.csv"
    marked.write_text(trade_small_path.read_text().replace("Alpha", f"A{sep}x"))
    for path in (trade_small_path, marked):
        run_ok(runner, ["trade", "--input", str(path), "--k", "2", "--format", "json",
                        "--out-dir", str(tmp_path / path.stem)])
    got = (tmp_path / "marked" / "trade.json").read_text()
    label = json.dumps(f"A{sep}x")[1:-1]  # as trade.json escapes it
    assert label in got
    assert got.replace(label, "Alpha") == \
        (tmp_path / trade_small_path.stem / "trade.json").read_text()


def test_line_separator_inside_a_votes_id(runner, sample_votes_path, tmp_path):
    headed = tmp_path / "headed.csv"
    header = ",".join(["id", "party", *(f"v{j}" for j in range(1, 17))])
    records = sample_votes_path.read_text().splitlines()
    headed.write_text("\n".join([header, *(f"r\u2028{i},{r}" for i, r in enumerate(records))]))
    outputs = []
    for path in (sample_votes_path, headed):
        out = tmp_path / path.stem
        result = run_ok(runner, ["sweep", "--input", str(path), "--out-dir", str(out)])
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        outputs.append((result.stdout.replace(str(out), "<out>"), files))
    assert outputs[1] == outputs[0]


# Modules each command loads from src/ besides its own command module; the
# rest load only where called. `import ramseystats.cli` loads just the dispatcher.
_CLI = "ramseystats.cli"
_STARTUP = {_CLI, *(f"ramseystats.{m}" for m in ("bounds", "commands", "errors", "report"))}
# Checked modules from outside src/; _ALWAYS must not load for any command,
# and `import ramseystats.cli` loads none of them.
_CHECKED = ("_hashlib", "click", "dataclasses", "fractions", "hashlib", "inspect", "random",
            "statistics")
_ALWAYS = {"click", "dataclasses", "inspect", "statistics"}
# hashlib's _hashlib loads OpenSSL; a manifest's input hash takes the built-in
# SHA-256 instead, where the interpreter was built with one
if any(importlib.util.find_spec(m) for m in ("_sha256", "_sha2")):
    _ALWAYS |= {"_hashlib", "hashlib"}
_LOADED = f"""
import json, sys
if sys.argv[1:]:
    from ramseystats.cli import main
    try:
        main(sys.argv[1:], standalone_mode=False)
    except SystemExit as exc:  # --help exits 0; any other exit fails the run
        if exc.code not in (0, None):
            raise
else:
    import ramseystats.cli
print(json.dumps([sorted(m for m in sys.modules if m.startswith("ramseystats.")),
                  {{m: m in sys.modules for m in {_CHECKED}}}]))
"""
_STDLIB = f"""
import json, sys
print(json.dumps({{m: m in sys.modules for m in {_CHECKED}}}))
"""


@pytest.fixture(scope="module")
def bare_stdlib():
    """Which of the checked stdlib modules `python -c pass` loads."""
    proc = subprocess.run([sys.executable, "-c", _STDLIB], capture_output=True, text=True,
                          timeout=60, check=True)
    return json.loads(proc.stdout)


def _loaded(args, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _LOADED, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


_VOTES = str(Path(__file__).parent / "data" / "house-votes-84-sample.csv")
_TRADE = str(Path(__file__).parent / "data" / "trade-small.csv")
_TRADE_MODULES = ("census", "coloring", "cores", "ingest", "stats")


def _run_loads(command, *extra):
    """The modules a run of command loads from src/: the startup ones, extra,
    and one command module, its own."""
    return _STARTUP | {f"ramseystats.{m}" for m in (*extra, f"commands.{command}")}


@pytest.mark.parametrize("args, want", [
    (["bounds"], _run_loads("bounds")),
    (["simulate", "--exhaustive", "--n", "4"], _run_loads("simulate", "census", "cores")),
    (["simulate", "--n", "4", "--samples", "2"], _run_loads("simulate", "census", "cores")),
    (["sweep", "--input", _VOTES], _run_loads("sweep", "census", "cores", "ingest")),
    (["chi2", "--kind", "votes", "--input", _VOTES],
     _run_loads("chi2", "census", "cores", "ingest", "stats")),
    (["trade", "--input", _TRADE], _run_loads("trade", *_TRADE_MODULES)),
    (["chi2", "--kind", "trade", "--input", _TRADE], _run_loads("chi2", *_TRADE_MODULES)),
    ([], {_CLI}),
], ids=["bounds", "exhaustive", "monte-carlo", "sweep", "chi2-votes", "trade", "chi2-trade",
        "import-cli"])
def test_command_loads_only_what_it_runs(tmp_path, bare_stdlib, args, want):
    modules, stdlib = _loaded([*args, "--out-dir", str(tmp_path / "out")] if args else [],
                              tmp_path)
    assert set(modules) == want
    # loaded only if a bare interpreter loads it, as a site may
    for name in _ALWAYS if args else _CHECKED:
        assert not stdlib[name] or bare_stdlib[name], name


@pytest.mark.parametrize("args", [["--help"], *([c, "--help"] for c in cli._COMMANDS)],
                         ids=lambda args: args[0])
def test_help_loads_no_command_module(tmp_path, bare_stdlib, args):
    modules, stdlib = _loaded(args, tmp_path)
    assert modules == [_CLI]
    for name in _CHECKED:
        assert not stdlib[name] or bare_stdlib[name], name


def test_votes_format_option_is_gone(runner, sample_votes_path, tmp_path):
    for command in ("sweep", "chi2"):
        result = runner.invoke(main, [
            command, "--input", str(sample_votes_path), "--votes-format", "generic-csv",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2
        assert "--votes-format" in result.output
    assert not (tmp_path / "out").exists()


# Command-line parsing: each case checks the exit code and that a usage
# error names the option, not the wording of the error.


def test_option_names_are_not_abbreviated(runner, tmp_path):
    result = runner.invoke(main, ["bounds", "--n-mi", "3", "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "--n-mi" in result.output
    assert not (tmp_path / "out").exists()


def test_one_subgroup_replaces_the_default(runner, sample_votes_path, tmp_path):
    run_ok(runner, ["sweep", "--input", str(sample_votes_path), "--subgroup", "D",
                    "--out-dir", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "sweep_D.csv"]
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["subgroups"] == ["D"]


@pytest.mark.parametrize("args, option, context", [
    (["chi2", "--input", "absent.csv", "--kind", "votes", "--k", "5"], "--k", "--kind votes"),
    (["simulate", "--exhaustive", "--seed", "0"], "--seed", "--exhaustive"),
], ids=["chi2-k", "exhaustive-seed"])
def test_option_given_at_its_default_still_excluded(runner, tmp_path, args, option, context):
    result = runner.invoke(main, [*args, "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.output == f"error: {option} does not apply to {context}\n"
    assert not (tmp_path / "out").exists()


def test_repeated_option_takes_the_last_value(runner, tmp_path):
    run_ok(runner, ["bounds", "--n-max", "4", "--n-max", "5", "--out-dir", str(tmp_path)])
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["n_max"] == 5
    assert len(read_csv(tmp_path / "bounds_goodman.csv")) == 1 + 3
    # only the last value is checked
    run_ok(runner, ["bounds", "--format", "xml", "--n-max", "x", "--format", "json",
                    "--n-max", "5", "--out-dir", str(tmp_path / "json")])
    assert (tmp_path / "json" / "bounds.json").is_file()


def test_option_joined_to_its_value(runner, sample_votes_path, tmp_path):
    for out, args in ((tmp_path / "joined", [f"--input={sample_votes_path}", "--subgroup=D",
                                             "--format=json", f"--out-dir={tmp_path / 'joined'}"]),
                      (tmp_path / "split", ["--input", str(sample_votes_path), "--subgroup", "D",
                                            "--format", "json", "--out-dir",
                                            str(tmp_path / "split")])):
        run_ok(runner, ["sweep", *args])
    assert (tmp_path / "joined" / "sweep_D.json").read_bytes() == \
        (tmp_path / "split" / "sweep_D.json").read_bytes()


@pytest.mark.parametrize("args, message", [
    (["simulate", "--n", "-3"], "vertex count must be >= 1, got -3"),
    (["simulate", "--t-min", "-inf"], "bad t grid values"),
    (["bounds", "--orders", "-1,5"], "order -1 below the supported minimum 4"),
    (["bounds", "--orders", "--n-max"], "bad orders list '--n-max'"),
], ids=["n", "t-min", "orders", "option-name"])
def test_value_starting_with_a_dash_reaches_the_program_check(runner, tmp_path, args, message):
    result = runner.invoke(main, [*args, "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.output == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, named", [
    ([], None),
    (["census"], "census"),
    (["sweep"], "--input"),
    (["bounds", "--n-max", "ten"], "--n-max"),
    (["bounds", "--format", "xml"], "--format"),
], ids=["no-command", "unknown-command", "missing-input", "not-an-integer", "bad-format"])
def test_usage_errors_exit_2(runner, tmp_path, monkeypatch, args, named):
    out = tmp_path / "out"
    monkeypatch.setenv(OUT_DIR_ENV, str(out))
    result = runner.invoke(main, [*args, "--out-dir", str(out)] if args else [])
    assert result.exit_code == 2
    assert named is None or named in result.output
    assert not out.exists()


# The --help text of ramseystats and of each command, as written before the
# commands moved into modules of their own, at the 80 columns argparse falls
# back to when the output is not a terminal: CPython 3.11's argparse, which
# 3.12 matches, and the texts 3.13's argparse writes otherwise (it widens the
# command column to fit "simulate")
_HELP_TEXTS = json.loads((Path(__file__).parent / "data" / "help.json").read_text())
_HELP = {**_HELP_TEXTS["3.11"], **(_HELP_TEXTS["3.13"] if sys.version_info >= (3, 13) else {})}


@pytest.mark.parametrize("command", [[], *([c] for c in cli._COMMANDS)],
                         ids=lambda c: c[0] if c else "main")
def test_help_exits_0(runner, tmp_path, monkeypatch, command):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "out"))
    monkeypatch.setenv("COLUMNS", "80")
    result = runner.invoke(main, [*command, "--help"])
    assert result.exit_code == 0
    assert result.output == _HELP[command[0] if command else "ramseystats"]
    assert not (tmp_path / "out").exists()


def test_help_has_no_stale_entry():
    assert sorted(_HELP_TEXTS) == ["3.11", "3.13"]
    for texts in _HELP_TEXTS.values():
        assert set(texts) <= {"ramseystats", *cli._COMMANDS}


@pytest.mark.parametrize("command", ["sweep", "chi2"])
@pytest.mark.parametrize("extra", [
    ["--subgroup", "G", "--subgroup", "X"],  # X matches no records
    ["--subgroup", "G", "--subgroup", "R"],  # R has 2 records
    ["--t-min", "5", "--t-max", "2"],
    ["--t-min", "-1"],
    ["--t-max", "18"],  # the sample has 16 votes per record
], ids=["no-match", "two-records", "empty-range", "negative-t", "t-max-past-votes"])
def test_bad_subgroup_or_range_writes_nothing(runner, sample_votes_path, tmp_path,
                                              command, extra):
    result = runner.invoke(main, [
        command, "--input", str(sample_votes_path), *extra, "--out-dir", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1
    assert result.output.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "chi2"])
def test_t_max_one_past_votes_runs(runner, sample_votes_path, tmp_path, command):
    run_ok(runner, [command, "--input", str(sample_votes_path), "--t-max", "17",
                    "--out-dir", str(tmp_path)])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["t_max"] == 17


def test_late_failures_write_nothing(runner, sample_votes_path, trade_small_path, tmp_path):
    votes, two, ring = str(sample_votes_path), tmp_path / "two.csv", tmp_path / "ring.csv"
    two.write_text("exporter,importer,volume\nA,B,3\n")
    ring.write_text("exporter,importer,volume\nA,B,1\nB,C,1\nC,D,1\nD,A,1\n")
    floor_zero = "forced fraction is 0 at n=4; need n >= 6 for a usable reference"
    for args, message in (
        (["chi2", "--input", votes, "--subgroup", "G", "--subgroup", "D"], floor_zero),
        (["chi2", "--input", votes, "--df", "0"],
         "degrees of freedom must lie in [1, 10**7], got 0"),
        (["chi2", "--input", votes, "--t-min", "0", "--t-max", "0"],
         "need a positive t-max to normalize thresholds"),
        (["trade", "--input", str(two)], "need n >= 3, got 2"),
        (["trade", "--input", str(ring), "--k", "1"], floor_zero),
        (["trade", "--input", str(trade_small_path), "--orders", ","], "orders list is empty"),
        (["bounds", "--orders", " , "], "orders list is empty"),
        (["simulate", "--n", "6", "--samples", "0"], "samples must be >= 1, got 0"),
        (["simulate", "--n", "30", "--exhaustive"], "exhaustive n=30 exceeds the cap of 11"),
        (["simulate", "--t-min", "0.6", "--t-max", "0.2"], "need 0 <= t-min <= t-max <= 1"),
        (["simulate", "--t-step", "0"], "t-step must be positive, got 0.0"),
        (["simulate", "--t-step", "-0.05"], "t-step must be positive, got -0.05"),
        (["bounds", "--n-min", "9", "--n-max", "3"], "empty n range [9, 3]"),
    ):
        result = runner.invoke(main, [*args, "--out-dir", str(tmp_path / "out")])
        # an uncaught exception exits 1 too, so the message is checked
        assert result.exit_code == 1, args
        assert result.output == f"error: {message}\n", args
        assert not (tmp_path / "out").exists(), args


def test_out_dir_env_var(runner, sample_votes_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # a set variable names the out dir; an empty one means the working directory
    for value, where in ((str(tmp_path / "from-env"), tmp_path / "from-env"), ("", tmp_path)):
        monkeypatch.setenv(OUT_DIR_ENV, value)
        run_ok(runner, ["sweep", "--input", str(sample_votes_path)])
        assert (where / "sweep_G.csv").is_file()
        manifest = json.loads((where / "manifest.json").read_text())
        assert manifest["config"]["out_dir"] == (value or ".")


def test_out_dir_naming_a_file_exit_1(runner, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for out in (taken, taken / "below"):
        result = runner.invoke(main, ["bounds", "--n-max", "8", "--out-dir", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: cannot use --out-dir {out}: "), result.output
    assert taken.read_text() == "keep"


def test_chi2_votes(runner, sample_votes_path, tmp_path):
    result = run_ok(runner, [
        "chi2", "--input", str(sample_votes_path), "--out-dir", str(tmp_path),
        "--format", "json",
    ])
    doc = json.loads((tmp_path / "chi2_G.json").read_text())
    assert doc["n"] == 6
    assert doc["df"] == 1
    assert doc["significance"] == 0.01
    comparisons = {(r["comparison"], r["series"]) for r in doc["reports"]}
    assert comparisons == {
        (comp, series)
        for comp in ("observed-vs-goodman", "expectation-vs-goodman",
                     "observed-vs-expectation", "deviation")
        for series in ("mono", "red", "blue")
    }
    # expectation at tau=0 has zero red reference, so one skipped point
    vs_exp_red = next(
        r for r in doc["reports"]
        if r["comparison"] == "observed-vs-expectation" and r["series"] == "red"
    )
    assert vs_exp_red["skipped_points"] == 1
    # deviation statistic is the absolute difference of the two vs-goodman rows
    for series in ("mono", "red", "blue"):
        rows = {r["comparison"]: r for r in doc["reports"] if r["series"] == series}
        assert rows["deviation"]["statistic"] == pytest.approx(
            abs(rows["observed-vs-goodman"]["statistic"]
                - rows["expectation-vs-goodman"]["statistic"])
        )
    assert "note:" in result.output


def test_chi2_identical_series_statistic_zero(runner, tmp_path):
    # observed == expected when the coloring is exactly the expectation:
    # not constructible from votes, so check the trade branch's math via
    # the library instead and the CLI end to end for shape only.
    obs = [0.3, 0.4]
    rep = rs.chi2(obs, obs)
    assert rep.statistic == 0.0 and rep.p_value == 1.0


def test_chi2_trade_kind(runner, trade_small_path, tmp_path):
    result = run_ok(runner, [
        "chi2", "--input", str(trade_small_path), "--kind", "trade",
        "--k", "2", "--out-dir", str(tmp_path), "--format", "json",
    ])
    doc = json.loads((tmp_path / "chi2_trade.json").read_text())
    assert doc["subgroup"] == "trade"
    assert doc["n"] == 6
    assert doc["thresholds"] == pytest.approx([2 / 6])
    assert any("k/n" in note for note in doc["notes"])


def test_chi2_missing_and_bad_inputs(runner, trade_small_path, tmp_path):
    assert runner.invoke(main, [
        "chi2", "--input", str(tmp_path / "x.csv"), "--out-dir", str(tmp_path),
    ]).exit_code == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("exporter,importer\nA,B\n")
    assert runner.invoke(main, [
        "chi2", "--input", str(bad), "--kind", "trade", "--out-dir", str(tmp_path),
    ]).exit_code == 3
    two = tmp_path / "two.csv"
    two.write_text("exporter,importer,volume\nA,B,3\n")
    result = runner.invoke(main, [
        "chi2", "--input", str(two), "--kind", "trade", "--out-dir", str(tmp_path),
    ])
    assert result.exit_code == 1
    assert result.output.startswith("error: ")
    # tau = k/n must stay a probability
    result = runner.invoke(main, [
        "chi2", "--input", str(trade_small_path), "--kind", "trade", "--k", "7",
        "--out-dir", str(tmp_path / "unused"),
    ])
    assert result.exit_code == 1
    assert result.output == "error: --k 7 above the 6 countries of the trade graph\n"
    # an option of the other --kind fails before the input is read, even
    # when its value equals the default
    for kind, extra in (
        ("trade", ["--subgroup", "Z"]), ("trade", ["--t-max", "-3"]), ("trade", ["--t-min", "0"]),
        ("votes", ["--k", "5"]),
    ):
        result = runner.invoke(main, [
            "chi2", "--input", str(tmp_path / "absent.csv"), "--kind", kind, *extra,
            "--out-dir", str(tmp_path / "unused"),
        ])
        assert result.exit_code == 1, (kind, extra)
        assert f"{extra[0]} does not apply to --kind {kind}" in result.output
    # a significance level outside (0, 1) would mark every row, or none,
    # and fails before the input is read
    for level in ("7", "nan", "0", "1", "-0.5", "inf"):
        result = runner.invoke(main, [
            "chi2", "--input", str(tmp_path / "absent.csv"), "--significance", level,
            "--out-dir", str(tmp_path / "unused"),
        ])
        assert result.exit_code == 1, level
        assert result.output.startswith("error: --significance"), level
    assert not (tmp_path / "unused").exists()


def test_trade_command(runner, trade_ring_path, tmp_path):
    result = run_ok(runner, [
        "trade", "--input", str(trade_ring_path), "--k", "5",
        "--density-vertex", "C0", "--out-dir", str(tmp_path), "--format", "json",
    ])
    doc = json.loads((tmp_path / "trade.json").read_text())
    assert doc["n"] == 6
    assert doc["blue_edges"] == 6
    assert doc["max_blue_clique"]["size"] == 2
    assert doc["max_blue_clique"]["witness"] == ["C0", "C1"]
    assert doc["max_blue_independent_set"]["size"] == 3
    assert doc["max_blue_independent_set"]["witness"] == ["C0", "C2", "C4"]
    census3 = next(c for c in doc["census"] if c["m"] == 3)
    assert census3["mono"] == 2
    assert census3["reference_kind"] == "goodman"
    census4 = next(c for c in doc["census"] if c["m"] == 4)
    assert census4["reference_kind"] == "thomason"
    # ring blue degree is 2 everywhere; neighbors C1,C5 are not partners
    assert doc["densities"] == [{"label": "C0", "density": 0.0}]
    assert doc["transitivity"]["mono_paths2"] == 24
    assert "max blue clique 2" in result.output


def test_trade_csv_outputs(runner, trade_small_path, tmp_path):
    run_ok(runner, [
        "trade", "--input", str(trade_small_path), "--k", "2",
        "--out-dir", str(tmp_path),
    ])
    summary = dict(read_csv(tmp_path / "trade_summary.csv")[1:])
    assert summary["n"] == "6"
    assert summary["blue_edges"] == "9"
    census_rows = read_csv(tmp_path / "trade_census.csv")
    assert [r[0] for r in census_rows[1:]] == ["3", "4", "5"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["k"] == 2


def test_trade_summary_round_trips_labels(runner, tmp_path):
    names = ["New Zealand", "South Africa", "United States", "Korea, Republic of",
             "x=1", 'Say "hi"', "Zed", "St. Lucia", "U.S."]
    flows = tmp_path / "flows.csv"
    with open(flows, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["exporter", "importer", "volume"])
        writer.writerows((a, b, (3 * i + 5 * j) % 11 + 1)
                         for i, a in enumerate(names) for j, b in enumerate(names) if a != b)
    densities = ["--density-vertex", "U.S.", "--density-vertex", "St. Lucia",
                 "--density-vertex", "U.S."]
    for fmt in ("csv", "json"):
        run_ok(runner, ["trade", "--input", str(flows), "--k", "2", *densities,
                        "--format", fmt, "--out-dir", str(tmp_path / fmt)])
    doc = json.loads((tmp_path / "json" / "trade.json").read_text())
    summary = dict(read_csv(tmp_path / "csv" / "trade_summary.csv")[1:])
    # every key is a path into trade.json: labels are values, never keys
    for key, value in summary.items():
        node = doc
        for part in key.split("."):
            node = node[int(part)] if isinstance(node, list) else node[part]
        assert value == ("" if node is None else str(node)), key
    assert [row["label"] for row in doc["densities"]] == ["U.S.", "St. Lucia"]
    for key in ("max_blue_clique", "max_blue_independent_set"):
        witness = doc[key]["witness"]
        assert len(witness) >= 2
        assert [summary[f"{key}.witness.{i}"] for i in range(len(witness))] == witness
        assert f"{key}.witness.{len(witness)}" not in summary
    top = [(summary[f"top_blue_degrees.{i}.label"], int(summary[f"top_blue_degrees.{i}.degree"]))
           for i in range(5)]
    assert top == [(entry["label"], entry["degree"]) for entry in doc["top_blue_degrees"]]
    assert {label for label, _ in top} <= set(names)


def test_trade_budget_exhausted_exit_4(runner, trade_small_path, tmp_path):
    result = runner.invoke(main, [
        "trade", "--input", str(trade_small_path), "--k", "2",
        "--clique-budget", "1", "--out-dir", str(tmp_path),
    ])
    assert result.exit_code == 4


def test_trade_clique_deeper_than_recursion_limit_exit_1(runner, tmp_path):
    # 700 countries in trading pairs: the blue graph is a perfect
    # matching, so the red maximum clique has 350 vertices
    flows = tmp_path / "pairs.csv"
    flows.write_text("exporter,importer,volume\n" + "".join(
        f"C{v:03d},C{v ^ 1:03d},1.0\n" for v in range(700)
    ))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        result = runner.invoke(main, [
            "trade", "--input", str(flows), "--k", "1", "--orders", "3",
            "--out-dir", str(tmp_path / "out"),
        ])
    finally:
        sys.setrecursionlimit(limit)
    assert result.exit_code == 1, result.output
    assert "error:" in result.output and "recursion limit of 300" in result.output
    assert not (tmp_path / "out").exists()


def test_trade_bad_budget_exit_1(runner, trade_small_path, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(census, "clique_census", lambda *a, **kw: calls.append(a))
    for budget in ("0", "-5"):
        result = runner.invoke(main, [
            "trade", "--input", str(trade_small_path), "--k", "2",
            "--clique-budget", budget, "--out-dir", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1
        assert result.output == f"error: clique budget must be >= 1, got {budget}\n"
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_trade_unknown_density_vertex_fails_before_census(
    runner, trade_small_path, tmp_path, monkeypatch
):
    calls = []
    monkeypatch.setattr(census, "max_clique", lambda *a, **kw: calls.append(a))
    monkeypatch.setattr(census, "clique_census", lambda *a, **kw: calls.append(a))
    result = runner.invoke(main, [
        "trade", "--input", str(trade_small_path), "--k", "2",
        "--density-vertex", "Nowhere", "--out-dir", str(tmp_path),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Nowhere" in result.output
    assert calls == []


def test_trade_order_above_5_fails_before_census(
    runner, trade_small_path, tmp_path, monkeypatch
):
    calls = []
    monkeypatch.setattr(census, "clique_census", lambda *a, **kw: calls.append(a))
    result = runner.invoke(main, [
        "trade", "--input", str(trade_small_path), "--k", "2", "--orders", "3,6",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1
    assert "order 6 above the supported maximum 5" in result.output
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "chi2"])
@pytest.mark.parametrize("tokens", [("G", "G"), ("a/b", "a_b")],
                         ids=["repeated", "same-file-name"])
def test_subgroups_sharing_a_file_name_exit_1(runner, sample_votes_path, tmp_path,
                                              command, tokens):
    result = runner.invoke(main, [
        command, "--input", str(sample_votes_path),
        *(arg for token in tokens for arg in ("--subgroup", token)),
        "--out-dir", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1
    assert ", ".join(map(repr, tokens)) in result.output
    assert not (tmp_path / "out").exists()


def test_trade_bad_orders_exit_1(runner, trade_small_path, tmp_path):
    result = runner.invoke(main, [
        "trade", "--input", str(trade_small_path), "--orders", "2,3",
        "--out-dir", str(tmp_path),
    ])
    assert result.exit_code == 1


def test_simulate_grid(runner, tmp_path):
    run_ok(runner, [
        "simulate", "--n", "8", "--t-min", "0", "--t-max", "1", "--t-step", "0.5",
        "--samples", "40", "--seed", "3", "--out-dir", str(tmp_path),
        "--format", "json",
    ])
    doc = json.loads((tmp_path / "simulate.json").read_text())
    assert [row["t"] for row in doc["rows"]] == [0.0, 0.5, 1.0]
    ends = [doc["rows"][0], doc["rows"][-1]]
    for row in ends:
        # degenerate probabilities have zero variance
        assert row["stderr"] == 0.0
        assert row["empirical"] == row["analytic"] == 56.0
    assert doc["goodman_floor"] == rs.goodman_min(8)


@settings(deadline=None)
@given(
    n=st.integers(3, 9),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 25),
    step=st.sampled_from(["0.2", "0.25", "0.5", "1"]),
)
def test_simulate_monte_carlo_matches_census_oracle(n, seed, samples, step):
    with tempfile.TemporaryDirectory() as tmp:
        run_ok(CliRunner(), [
            "simulate", "--n", str(n), "--seed", str(seed), "--samples", str(samples),
            "--t-min", "0", "--t-max", "1", "--t-step", step,
            "--out-dir", tmp, "--format", "json",
        ])
        rows = json.loads((Path(tmp) / "simulate.json").read_text())["rows"]
    master = random.Random(seed)
    seeds = [master.getrandbits(63) for _ in range(samples)]
    grid = [k * Fraction(step) for k in range(int(1 / Fraction(step)) + 1)]
    assert [row["t"] for row in rows] == [float(t) for t in grid]
    for row, t in zip(rows, grid):
        counts = [rs.triangle_census(rs.random_coloring(n, float(t), s)).mono for s in seeds]
        assert row["empirical"] == fmean(counts)
        want = stdev(counts) / sqrt(samples) if samples > 1 else 0.0
        assert row["stderr"] == want


def test_simulate_seeds_are_drawn_anew_each_pass():
    seeds = simulate_command._Seeds(3, 5)
    master = random.Random(3)
    assert len(seeds) == 5
    assert list(seeds) == list(seeds) == [master.getrandbits(63) for _ in range(5)]


@pytest.mark.parametrize("args", [
    ["sweep", "--subgroup", "G", "--subgroup", "D", "--subgroup", "R"],
    ["chi2", "--kind", "votes", "--subgroup", "D", "--subgroup", "R", "--format", "json"],
    ["simulate", "--n", "20", "--samples", "200", "--seed", "4"],
], ids=["sweep", "chi2-votes", "monte-carlo"])
def test_forked_commands_reap_their_child_and_match_inline(runner, tmp_path, monkeypatch,
                                                            forks, args):
    if args[0] != "simulate":  # 435 records of 16 votes, as the house-votes file has
        rnd = random.Random(11)
        votes = tmp_path / "votes.data"
        votes.write_text("".join(
            ",".join([rnd.choice(["democrat", "republican"]), *rnd.choices("yn?", k=16)]) + "\n"
            for _ in range(435)))
        args = [*args, "--input", str(votes)]
    outputs = []
    for mode in ("forked", "inline"):
        out = tmp_path / mode
        result = run_ok(runner, [*args, "--out-dir", str(out)])
        assert_no_child_left()
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        outputs.append((result.stdout.replace(str(out), "<out>"), files))
        monkeypatch.setattr(cores, "_forks", lambda work: False)
    assert forks == [1]
    assert outputs[0] == outputs[1]


# Monte Carlo counts: at most C(5632,3), the count at the cap's largest n
_COUNTS = st.integers(0, comb(5632, 3))


@st.composite
def _count_lists(draw):
    """2-600 counts: drawn freely, all equal, or equal but one far outlier."""
    size = draw(st.integers(2, 600))
    shape = draw(st.sampled_from(["free", "constant", "outlier"]))
    if shape == "free":
        return draw(st.lists(_COUNTS, min_size=size, max_size=size))
    xs = [draw(_COUNTS)] * size
    if shape == "outlier":
        xs[draw(st.integers(0, size - 1))] = draw(st.sampled_from([0, comb(5632, 3)]))
    return xs


@settings(deadline=None)
@given(xs=_count_lists())
@example(xs=[0, 0])
@example(xs=[1, 2])
@example(xs=[comb(5632, 3)] * 599 + [0])
@example(xs=[0, 2**60])  # variance >= 2**109: _stdev shifts den, not num
def test_simulate_mean_and_stderr_match_statistics(xs):
    assert simulate_command._stdev(xs).hex() == stdev(xs).hex()
    assert fsum(xs) / len(xs) == fmean(xs)


def test_simulate_exhaustive(runner, tmp_path):
    run_ok(runner, [
        "simulate", "--n", "5", "--exhaustive", "--out-dir", str(tmp_path),
        "--format", "json",
    ])
    doc = json.loads((tmp_path / "simulate_exhaustive.json").read_text())
    assert doc["min_mono"] == 0
    assert doc["colorings"] == 2**10
    assert sum(d["colorings"] for d in doc["distribution"]) == 2**10


@pytest.mark.parametrize("n", range(1, 7))
def test_simulate_exhaustive_matches_oracle(runner, tmp_path, n):
    run_ok(runner, [
        "simulate", "--n", str(n), "--exhaustive", "--out-dir", str(tmp_path),
        "--format", "json",
    ])
    doc = json.loads((tmp_path / "simulate_exhaustive.json").read_text())
    want = Counter(rs.triangle_census(c).mono for c in oracles.enumerate_colorings(n))
    assert doc["distribution"] == [{"mono": m, "colorings": k} for m, k in sorted(want.items())]
    assert doc["colorings"] == 2 ** comb(n, 2)


@pytest.mark.parametrize("extra", [
    ["--samples", "2000"], ["--seed", "3"], ["--t-min", "0"], ["--t-max", "0.5"],
    ["--t-step", "0.1"],
], ids=lambda extra: extra[0])
def test_simulate_exhaustive_rejects_sampling_options(runner, tmp_path, extra):
    result = runner.invoke(main, [
        "simulate", "--exhaustive", "--n", "4", *extra, "--out-dir", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1
    assert result.output == f"error: {extra[0]} does not apply to --exhaustive\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (["--t-step", "1e-12", "--samples", "1"],
     "n=20 with 1000000000001 densities x 1 samples needs 1023000000001239 units of work"),
    (["--n", "10000", "--samples", "1"],
     "n=10000 with 21 densities x 1 samples needs 50226089 units of work"),
    # the per-sample cost bounds small-n grids: 10^6 samples of one density
    (["--n", "3", "--t-min", "0.5", "--t-max", "0.5", "--samples", "1000000"],
     "n=3 with 1 densities x 1000000 samples needs 35001000 units of work"),
    (["--n", "7", "--t-min", "0.5", "--t-max", "0.5", "--samples", "1000000"],
     "n=7 with 1 densities x 1000000 samples needs 57001000 units of work"),
], ids=["t-step", "n", "n3-samples", "n7-samples"])
def test_simulate_work_cap_exit_1(runner, tmp_path, monkeypatch, args, message):
    def no_draws(*args):
        raise AssertionError("drew before checking the cap")

    monkeypatch.setattr(census, "random_mono_counts", no_draws)
    start = time.perf_counter()
    result = runner.invoke(main, ["simulate", *args, "--out-dir", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 1
    assert result.output == f"error: {message}, above the cap of 16000000\n"
    assert not (tmp_path / "out").exists()


def test_simulate_work_cap_inclusive(runner, tmp_path, monkeypatch):
    # one sample at n=700 is 244650 draws
    run_ok(runner, ["simulate", "--n", "700", "--samples", "1", "--t-step", "1",
                    "--out-dir", str(tmp_path / "out")])
    # at n=4, 3 densities x 2 samples need 2 x (6 + 26 + 3 x (4 + 3)) + 3 x 1000 = 3106
    monkeypatch.setattr(simulate_command, "MAX_SIMULATED_WORK", 3106)
    grid = ["simulate", "--n", "4", "--t-step", "0.5", "--out-dir", str(tmp_path / "out")]
    run_ok(runner, grid + ["--samples", "2"])
    result = runner.invoke(main, grid + ["--samples", "3"])
    assert result.exit_code == 1
    assert result.output == (
        "error: n=4 with 3 densities x 3 samples needs 3159 units of work, "
        "above the cap of 3106\n")


def test_simulate_exhaustive_cap_exit_1(runner, tmp_path, monkeypatch):
    def no_count(n):
        raise AssertionError("counted before checking the cap")

    monkeypatch.setattr(census, "mono_distribution", no_count)
    for n in ("12", "30"):
        result = runner.invoke(main, [
            "simulate", "--exhaustive", "--n", n, "--out-dir", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1
        assert result.output == f"error: exhaustive n={n} exceeds the cap of 11\n"
        assert not (tmp_path / "out").exists()
    monkeypatch.undo()
    # inclusive: a cap of 4 takes n=4 and refuses n=5
    monkeypatch.setattr(simulate_command, "MAX_EXHAUSTIVE_N", 4)
    exhaustive = ["simulate", "--exhaustive", "--out-dir", str(tmp_path / "out")]
    run_ok(runner, exhaustive + ["--n", "4"])
    assert runner.invoke(main, exhaustive + ["--n", "5"]).exit_code == 1


def test_simulate_validation(runner, tmp_path):
    assert runner.invoke(main, [
        "simulate", "--n", "6", "--samples", "0", "--out-dir", str(tmp_path),
    ]).exit_code == 1
    assert runner.invoke(main, [
        "simulate", "--n", "30", "--exhaustive", "--out-dir", str(tmp_path),
    ]).exit_code == 1
    for n in ("2", "0"):
        result = runner.invoke(main, ["simulate", "--n", n, "--out-dir", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")


def test_bounds_row_cap_exit_1(runner, tmp_path, monkeypatch):
    result = runner.invoke(main, ["bounds", "--n-max", "100000000", "--out-dir", str(tmp_path)])
    assert result.exit_code == 1
    assert result.output == (
        "error: 99999998 rows in n range [3, 100000000] exceed the cap of 10000\n")
    assert not list(tmp_path.iterdir())
    # inclusive: n from 3 to 10 is 8 rows
    monkeypatch.setattr(bounds_command, "MAX_BOUNDS_ROWS", 8)
    run_ok(runner, ["bounds", "--n-max", "10", "--out-dir", str(tmp_path / "ok")])
    result = runner.invoke(main, ["bounds", "--n-max", "11", "--out-dir", str(tmp_path / "no")])
    assert result.exit_code == 1
    assert result.output == "error: 9 rows in n range [3, 11] exceed the cap of 8\n"


def test_bounds_command(runner, tmp_path):
    run_ok(runner, [
        "bounds", "--n-min", "3", "--n-max", "10", "--orders", "4,5",
        "--out-dir", str(tmp_path),
    ])
    rows = read_csv(tmp_path / "bounds_goodman.csv")
    by_n = {r[0]: r for r in rows[1:]}
    assert by_n["6"][1] == "2"
    assert by_n["7"][1] == "4"
    thomason = read_csv(tmp_path / "bounds_thomason.csv")
    assert thomason[1][0] == "4"
    assert float(thomason[1][1]) == pytest.approx(0.02925)
    assert runner.invoke(main, [
        "bounds", "--n-min", "2", "--out-dir", str(tmp_path),
    ]).exit_code == 1
    # the bound underflows to 0.0 for a huge order instead of overflowing
    huge = 10**200
    result = run_ok(runner, [
        "bounds", "--n-max", "8", "--orders", f"4,{huge}", "--out-dir", str(tmp_path / "huge"),
    ])
    assert read_csv(tmp_path / "huge" / "bounds_thomason.csv")[2] == [str(huge), "0.0"]
    assert f"K{huge} upper bound 0.00000" in result.output


# CLI fuzz: small generated inputs (0-10 vote records over 1-16 bills,
# 1-9 countries) and option values, valid or not, for every command.
_FORMATS = ["csv", "json", "xml"]
_VOTES_VALUES = {"--subgroup": ["G", "D", "R", "X", "a/b"], "--t-min": ["-1", "0", "2", "x"],
                 "--t-max": ["-2", "0", "3", "17"], "--format": _FORMATS}
_FUZZ_OPTIONS = {
    "sweep": _VOTES_VALUES,
    "chi2": {**_VOTES_VALUES, "--kind": ["votes", "trade"], "--df": ["0", "1", "3"],
             "--k": ["0", "1", "3", "9"], "--significance": ["0.01", "0.5", "1", "nan"]},
    "trade": {"--k": ["0", "1", "2", "5", "9"], "--orders": ["3", "3,4,5", "4,5", "2,3", "6", ""],
              "--density-vertex": ["C0", "C3", "Nowhere"],
              "--clique-budget": ["0", "1", "5", "1000"], "--format": _FORMATS},
    "simulate": {"--n": ["-1", "0", "2", "3", "5", "8"], "--t-min": ["0", "0.25", "-0.5", "nan"],
                 "--t-max": ["1", "0.5", "2"], "--t-step": ["0.25", "0.5", "0", "-1", "inf"],
                 "--samples": ["0", "1", "2", "20"], "--seed": ["0", "7"], "--exhaustive": None,
                 "--format": _FORMATS},
    "bounds": {"--n-min": ["-1", "2", "3", "7"], "--n-max": ["2", "6", "40"],
               "--orders": ["4", "4,5,6", "3", "x", "4,200"], "--format": _FORMATS},
}
_VOTE_ROWS = st.integers(1, 16).flatmap(lambda bills: st.lists(st.tuples(
    st.sampled_from(["democrat", "republican"] * 4 + ["whig"]),
    st.text("yn?", min_size=bills, max_size=bills)), max_size=10))
_FLOWS = st.integers(1, 9).flatmap(lambda n: st.lists(st.tuples(
    st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([0, 1, 2.5, 1e300])),
    min_size=1, max_size=40))


@st.composite
def _command_lines(draw):
    """(command line less --input and --out-dir, input file text or None)"""
    command = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    options = _FUZZ_OPTIONS[command]
    args = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=5)):
        args += [flag] if options[flag] is None else [flag, draw(st.sampled_from(options[flag]))]
    if command == "simulate" and "--exhaustive" not in args:
        args += ["--samples", draw(st.sampled_from(options["--samples"]))]  # the default is slow
    if command in ("simulate", "bounds"):
        return args, None
    kinds = [value for flag, value in zip(args, args[1:]) if flag == "--kind"]
    if command == "trade" or kinds[-1:] == ["trade"]:  # the last --kind counts
        text = "exporter,importer,volume\n" + "".join(
            f"C{a},C{b},{volume}\n" for a, b, volume in draw(_FLOWS) if a != b)
    else:
        rows = draw(_VOTE_ROWS)  # under a header, any number of bills is one layout
        header = ["party", *(f"v{j}" for j in range(len(rows[0][1]) if rows else 1))]
        text = "".join(",".join(row) + "\n" for row in [header, *((p, *v) for p, v in rows)])
    return args, text


def _outputs(args, text, where: Path):
    """One run's result, then its output and the files it wrote with the
    run's directory spelled <w>."""
    full = [*args, "--out-dir", str(where / "out")]
    if text is not None:
        (where / "input.csv").write_text(text)
        full += ["--input", str(where / "input.csv")]
    result = CliRunner().invoke(main, full)
    files = {p.name: p.read_bytes().replace(str(where).encode(), b"<w>")
             for p in sorted((where / "out").glob("*"))}
    return result, result.output.replace(str(where), "<w>"), files


@settings(deadline=None, max_examples=150)
@given(_command_lines())
def test_cli_fuzz(command_line):
    args, text = command_line
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        result, output, files = _outputs(args, text, Path(first))
        assert result.exception is None or isinstance(result.exception, SystemExit), output
        assert result.exit_code in (0, 1, 2, 3, 4)  # README's exit-code table
        if result.exit_code in (1, 3):
            assert len([line for line in output.splitlines() if line.startswith("error: ")]) == 1
        for name, data in files.items():
            assert b"nan" not in data, name
            for line in data.splitlines():
                assert b"inf" not in line or b"bias_ratio" in line, (name, line)
        # the same arguments again give the same bytes
        again = _outputs(args, text, Path(second))
        assert (again[0].exit_code, again[1], again[2]) == (result.exit_code, output, files)
