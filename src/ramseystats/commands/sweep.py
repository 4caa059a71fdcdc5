"""sweep: census every threshold graph of a votes dataset."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .. import bounds as bounds_lib, report
from . import _finish, _report, _resolve_out_dir, _safe_name, _votes_sweeps

# curve -> the sweep column it draws on screen
_CURVES = {"mono": "mono_fraction", "red": "red_fraction", "blue": "blue_fraction",
           "transitivity": "transitivity"}


def _sweep_report(out: Path, token: str, table, fmt: str) -> list[Path]:
    """Print one subgroup's sweep (an ingest.SweepTable) and write its table."""
    name, goodman = _safe_name(token), bounds_lib.goodman_fraction(table.n)
    rows = [
        {
            "t": t,
            "total": census.total,
            "red_triangles": census.red_count,
            "blue_triangles": census.blue_count,
            "mono": census.mono,
            "mono_fraction": census.mono_fraction,
            "red_fraction": Fraction(census.red_count, census.total),
            "blue_fraction": Fraction(census.blue_count, census.total),
            "mono_paths2": census.mono_paths2,
            "transitivity": census.completion_ratio,
        }
        for t, census in table.rows
    ]
    print(f"sweep {token}: n={table.n}, goodman floor {float(goodman.forced_fraction):.4f}")
    body = [[row["t"], *(f"{float(row[col]):.3f}" for col in _CURVES.values())] for row in rows]
    lowest = min(row["mono_fraction"] for row in rows)
    for cells, row in zip(body, rows):
        if row["mono_fraction"] == lowest:
            cells[1] = f"[{cells[1]}]"
    print(report.format_table(["t", *_CURVES], body))

    # the csv repeats n on every row and ends with the floor as a reference row
    floor = {**dict.fromkeys(rows[0]), "t": "goodman", "mono": goodman.forced_count,
             "mono_fraction": goodman.forced_fraction}
    csv_rows = [{"t": row["t"], "n": table.n, **row} for row in rows + [floor]]
    doc = {"command": "sweep", "subgroup": token, "n": table.n, "goodman": goodman,
           "rows": rows}
    return _report(out, fmt, f"sweep_{name}", doc, {f"sweep_{name}": csv_rows})


def main(run, input_path, subgroups, t_min, t_max, fmt, out_dir):
    t_max, tables = _votes_sweeps(input_path, subgroups, t_min, t_max)
    out = _resolve_out_dir(out_dir)
    written = [path for token, table in tables for path in _sweep_report(out, token, table, fmt)]
    _finish(run, out, written, {"votes": input_path}, t_max=t_max)
