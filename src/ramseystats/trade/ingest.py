"""Directed weighted trade flows -> a two-colored complete graph on the
countries: blue edges to each country's top-k import and export
partners, red elsewhere.

Parsing is strict, as in ramseystats.ingest, with the same CSV reader:
wrong field counts and bad volumes fail with the line the offending row
starts on.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from ..coloring import TwoColoring, from_blue_edges
from ..errors import InputError, ParseError, _csv_rows


class TradeFlow(NamedTuple("TradeFlow", [("exporter", str), ("importer", str),
                                         ("volume", float)])):
    """One directed flow: exporter ships `volume` worth to importer."""

    __slots__ = ()

    def __init__(self, exporter, importer, volume):
        if not exporter or not importer:
            raise InputError("country labels must be non-empty")
        if exporter == importer:
            raise InputError(f"self-flow for {exporter!r}")
        if not math.isfinite(volume) or volume < 0:
            raise InputError(f"volume must be finite and >= 0, got {volume}")


def parse_trade_flows(lines: Iterable[str]) -> list[TradeFlow]:
    """Read directed flows from CSV with header exporter,importer,volume.

    Lines must keep their terminators, as ingest.parse_votes says."""
    rows = _csv_rows(lines)
    _, header = next(rows, (1, None))
    if header is None:
        return []
    if [h.strip().lower() for h in header] != ["exporter", "importer", "volume"]:
        raise ParseError("expected header 'exporter,importer,volume'", line=1)
    flows = []
    for lineno, row in rows:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
        try:
            volume = float(row[2])
        except ValueError:
            raise ParseError(f"bad volume {row[2].strip()!r}", line=lineno) from None
        try:
            flows.append(TradeFlow(row[0].strip(), row[1].strip(), volume))
        except InputError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return flows


def build_trade_graph(flows: Sequence[TradeFlow], k: int) -> TwoColoring:
    """Blue edges to each country's top-k partners, red everywhere else.

    Duplicate (exporter, importer) rows are summed before ranking.
    Import and export rankings are separate, ties break alphabetically,
    and a country with fewer than k partners keeps them all. The blue
    set is the union over countries, so a popular country's blue degree
    can far exceed 2k. Vertices are the alphabetically sorted labels.
    """
    if k < 1:
        raise InputError(f"partner count must be >= 1, got {k}")
    if not flows:
        raise InputError("no flows supplied")
    volume: dict[tuple[str, str], float] = {}
    for f in flows:
        pair = (f.exporter, f.importer)
        volume[pair] = volume.get(pair, 0.0) + f.volume
    # ranked[(c, 0 | 1)]: c's export (0) or import (1) partners as (-volume, label),
    # so a plain sort ranks by volume descending, ties alphabetically
    ranked: dict[tuple[str, int], list[tuple[float, str]]] = {}
    for (exp, imp), v in volume.items():
        ranked.setdefault((exp, 0), []).append((-v, imp))
        ranked.setdefault((imp, 1), []).append((-v, exp))
    countries = sorted({c for c, _ in ranked})
    index = {c: i for i, c in enumerate(countries)}
    top_k = ((index[c], index[partner]) for (c, _), partners in ranked.items()
             for _, partner in sorted(partners)[:k])
    return from_blue_edges(len(countries), top_k, labels=countries)
