"""The three workloads: their inputs, CLI command sequences and checks.

Each run of a workload covers `instances` inputs made from the run's
seed (instance 0 uses the seed itself, instance i the string
"<seed>.<i>"). An instance is a list of Commands; a command's check
takes its output directory and exit code and returns error strings.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

REFS = Path(__file__).with_name("refs.json")
SUBGROUPS = ("G", "D", "R")
TRADE_K = 5
CLIQUE_BUDGET = 30000
SIM_N = 20
# A quarter of the CLI's default 2000 samples per density: the Monte
# Carlo command then takes ~1.6 s instead of ~6.5 s, so a 50-second run
# holds 14-15 command sequences instead of 6-7, and the exhaustive and
# bounds commands, which vary most from call to call, run twice as often.
SIM_SAMPLES = 500
EXHAUSTIVE_N = 6


@dataclass
class Command:
    key: str                  # command name in the run record
    metric: str               # its time feeds <metric>_rel and <metric>_s
    args: list[str]           # CLI arguments, program name excluded
    out: Path                 # its --out-dir
    check: Callable[[Path, int], list[str]]


def instance_seed(seed: int, i: int) -> str:
    return str(seed) if i == 0 else f"{seed}.{i}"


def load_refs() -> dict:
    return json.loads(REFS.read_text()) if REFS.is_file() else {}


def _subgroup_args() -> list[str]:
    return [a for g in SUBGROUPS for a in ("--subgroup", g)]


def votes(seed: str, tmp: Path, refs: dict, text=gen.votes_text) -> list[Command]:
    data = tmp / "votes.data"
    data.write_text(text(seed))
    expect = checks.VotesExpect(data.read_text())

    def check_sweep(out: Path, code: int) -> list[str]:
        errors = [] if code == 0 else [f"sweep exited {code}"]
        for g in SUBGROUPS:
            errors += checks.sweep_csv_errors(out / f"sweep_{g}.csv", g, expect)
        return errors

    def check_chi2(out: Path, code: int) -> list[str]:
        errors = [] if code == 0 else [f"chi2 exited {code}"]
        for g in SUBGROUPS:
            errors += checks.votes_chi2_errors(out / f"chi2_{g}.json", g, expect)
        return errors

    return [
        Command("sweep", "main",
                ["sweep", "--input", str(data), *_subgroup_args(),
                 "--out-dir", str(tmp / "sweep")],
                tmp / "sweep", check_sweep),
        Command("chi2", "follow",
                ["chi2", "--input", str(data), *_subgroup_args(), "--format", "json",
                 "--out-dir", str(tmp / "chi2")],
                tmp / "chi2", check_chi2),
    ]


def trade(seed: str, tmp: Path, refs: dict, text=gen.trade_text) -> list[Command]:
    data = tmp / "flows.csv"
    data.write_text(text(seed))
    expect = checks.TradeExpect(data.read_text(), TRADE_K, refs.get("trade", {}).get(seed))

    def check_trade(out: Path, code: int) -> list[str]:
        if code not in (0, 4):
            return [f"trade exited {code}"]
        return checks.trade_json_errors(out / "trade.json", expect, code)

    def check_chi2(out: Path, code: int) -> list[str]:
        errors = [] if code == 0 else [f"chi2 exited {code}"]
        return errors + checks.trade_chi2_errors(out / "chi2_trade.json", expect)

    return [
        Command("trade", "main",
                ["trade", "--input", str(data), "--k", str(TRADE_K), "--orders", "3,4,5",
                 "--clique-budget", str(CLIQUE_BUDGET), "--format", "json",
                 "--out-dir", str(tmp / "trade")],
                tmp / "trade", check_trade),
        Command("chi2", "follow",
                ["chi2", "--input", str(data), "--kind", "trade", "--k", str(TRADE_K),
                 "--format", "json", "--out-dir", str(tmp / "chi2")],
                tmp / "chi2", check_chi2),
    ]


def simulate(seed: str, tmp: Path, refs: dict, n: int = SIM_N,
             exhaustive_n: int = EXHAUSTIVE_N) -> list[Command]:
    sim_seed = zlib.crc32(seed.encode())

    def check_sim(out: Path, code: int) -> list[str]:
        errors = [] if code == 0 else [f"simulate exited {code}"]
        return errors + checks.simulate_csv_errors(out / "simulate.csv", n)

    def check_exhaustive(out: Path, code: int) -> list[str]:
        errors = [] if code == 0 else [f"simulate --exhaustive exited {code}"]
        return errors + checks.exhaustive_csv_errors(out / "simulate_exhaustive.csv",
                                                     exhaustive_n)

    def check_bounds(out: Path, code: int) -> list[str]:
        errors = [] if code == 0 else [f"bounds exited {code}"]
        return errors + checks.bounds_csv_errors(out)

    return [
        Command("simulate", "main",
                ["simulate", "--n", str(n), "--samples", str(SIM_SAMPLES),
                 "--seed", str(sim_seed),
                 "--out-dir", str(tmp / "simulate")],
                tmp / "simulate", check_sim),
        Command("exhaustive", "follow",
                ["simulate", "--exhaustive", "--n", str(exhaustive_n),
                 "--out-dir", str(tmp / "exhaustive")],
                tmp / "exhaustive", check_exhaustive),
        Command("bounds", "follow",
                ["bounds", "--out-dir", str(tmp / "bounds")],
                tmp / "bounds", check_bounds),
    ]


@dataclass(frozen=True)
class Workload:
    make: Callable[[str, Path, dict], list[Command]]
    instances: int


WORKLOADS = {
    "votes": Workload(votes, instances=3),
    "trade": Workload(trade, instances=3),
    "simulate": Workload(simulate, instances=2),
}
