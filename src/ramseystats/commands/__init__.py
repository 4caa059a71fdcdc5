"""The CLI's subcommands, one module each, whose main(run, **params)
runs the command, and the helpers that two or more of them share.

Every output table is declared once, as a list of row dicts: the csv
header is the row keys, and the json document embeds the same rows.
trade's key/value summary table is its json document flattened.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

from .. import report
from ..errors import ParseError


def _fail(code: int, message: str):
    sys.stdout.flush()  # what the command printed comes first, also on a shared terminal
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _resolve_out_dir(opt: str) -> Path:
    path = Path(opt)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(1, f"cannot use --out-dir {path}: {exc.strerror}")
    return path


def _load(path: Path, parse, what: str) -> list:
    """Parse a UTF-8 input file (BOM optional) into a non-empty list of `what`."""
    if not path.is_file():
        _fail(2, f"input file not found: {path}")
    try:
        # newline="": split rows only where csv does, not at U+2028 and the like
        items = parse(io.StringIO(path.read_text(encoding="utf-8-sig"), newline=""))
    except (ParseError, UnicodeDecodeError) as exc:
        _fail(3, f"{path}: {exc}")
    if not items:
        _fail(3, f"{path}: no {what}")
    return items


def _safe_name(token: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in token) or "_"


def _parse_orders(text: str, minimum: int, maximum: int | None = None) -> tuple[int, ...]:
    try:
        orders = tuple(sorted({int(tok) for tok in text.split(",") if tok.strip()}))
    except ValueError:
        _fail(1, f"bad orders list {text!r}")
    if not orders:
        _fail(1, "orders list is empty")
    if orders[0] < minimum:
        _fail(1, f"order {orders[0]} below the supported minimum {minimum}")
    if maximum is not None and orders[-1] > maximum:
        _fail(1, f"order {orders[-1]} above the supported maximum {maximum}")
    return orders


def _reject_options(run, names: set[str], context: str) -> None:
    """Fail if any of the named options was given on the command line."""
    for flag, dest, *_ in run.options:
        if dest in names and dest in run.given:
            _fail(1, f"{flag} does not apply to {context}")


def _report(out: Path, fmt: str, stem: str, doc: dict, tables: dict[str, list[dict]]):
    """Write each table (a non-empty list of row dicts) to <name>.csv
    under a header of its row keys, or write doc, which holds the same
    data, to <stem>.json. Fractions become floats in either format."""
    if fmt == "json":
        path = out / f"{stem}.json"
        report.write_json(path, doc)
        return [path]
    written = []
    for name, rows in tables.items():
        path = out / f"{name}.csv"
        report.write_csv(path, list(rows[0]), [row.values() for row in rows])
        written.append(path)
    return written


def _finish(run, out: Path, written: list[Path], inputs: dict[str, Path], **resolved) -> None:
    """Write the run manifest and say how many files the command wrote.

    The manifest config is the command's parameters, less the input path
    (hashed under inputs), with out_dir and the values the command
    resolves itself (resolved) in their place.
    """
    config = {key: value for key, value in run.params.items() if key != "input_path"}
    config.update(out_dir=str(out), **resolved)
    written.append(report.write_manifest(out, run.command, config, inputs))
    print(f"wrote {len(written)} files to {out}")


def _votes_sweeps(path: Path, subgroups, t_min: int, t_max: int | None):
    """Load a votes file and sweep every subgroup in one pass. Returns
    the resolved t_max and a list of (subgroup token, sweep table), all
    computed, so a bad token or range fails before any output. A t_max
    above the vote count + 1 only repeats the all-red row, so it fails."""
    names = [_safe_name(token) for token in subgroups]
    clash = [token for token, name in zip(subgroups, names) if names.count(name) > 1]
    if clash:
        _fail(1, f"subgroups {', '.join(map(repr, clash))} would share output files")
    from .. import ingest

    records = _load(path, ingest.parse_votes, "records")
    votes = len(records[0].votes)
    if t_max is not None and t_max > votes + 1:
        _fail(1, f"t-max {t_max} above {votes + 1}: no distance exceeds the {votes} votes "
                 "per record")
    tables = ingest.vote_sweeps(records, (t_min, t_max), subgroups)
    return tables[0].rows[-1][0], list(zip(subgroups, tables))
