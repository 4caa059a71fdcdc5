"""Fast self-check of the benchmark itself, at tiny sizes.

    python3 perfbench/selfcheck.py

Run from the repository root. Checks that the generators are
deterministic, that every workload's checks pass on correct output and
report a corrupted count, and that the workloads and metric names in
BENCHMARK.json are the ones run.py has. Exits non-zero on any failure.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import gen
import run
import tracing
import workloads

TINY_VOTES = (("democrat", 20), ("republican", 13))
TINY_COUNTRIES = 30


def tiny_instances(tmp: Path) -> dict[str, list]:
    def votes_text(seed):
        return gen.votes_text(seed, parties=TINY_VOTES)

    def trade_text(seed):
        return gen.trade_text(seed, countries=TINY_COUNTRIES)

    made = {}
    for name, make in (
        ("votes", lambda s, d: workloads.votes(s, d, {}, text=votes_text)),
        ("trade", lambda s, d: workloads.trade(s, d, {}, text=trade_text)),
        ("simulate", lambda s, d: workloads.simulate(s, d, {}, n=8, exhaustive_n=4)),
    ):
        d = tmp / name
        d.mkdir()
        made[name] = make("7", d)
    return made


def corrupt_csv(path: Path, column: str) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[1][column] = str(int(rows[1][column]) + 1)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def corrupt_trade(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc["census"][1]["blue_count"] += 1
    path.write_text(json.dumps(doc))


CORRUPTIONS = {
    ("votes", "sweep"): lambda out: corrupt_csv(out / "sweep_G.csv", "red_triangles"),
    ("trade", "trade"): lambda out: corrupt_trade(out / "trade.json"),
    ("simulate", "exhaustive"):
        lambda out: corrupt_csv(out / "simulate_exhaustive.csv", "colorings"),
}


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for text in (gen.votes_text, gen.trade_text):
        expect(text(3) == text(3) and text(3) != text(4),
               f"{text.__name__} is deterministic and seed-dependent")

    end_to_end, per_layer = run.bench_metrics()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS),
           "every BENCHMARK.json workload exists")
    for name, wl in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=".") as tmp:
            cmds = wl.make("0", Path(tmp), {})
            produced = ({"wall_rel", "setup_s", "peak_rss_mb"}
                        | {f"{c.metric}_rel" for c in cmds})
        expect(produced == set(end_to_end), f"{name}: end-to-end metric names match")
    expect(set(per_layer) <= set(run.layer_metrics(tracing.Tracer(), 0, 0)),
           "per-layer metric names are all computed")

    src = Path.cwd() / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    tmp = Path(tempfile.mkdtemp(dir="."))
    try:
        instances = tiny_instances(tmp)
        for name, cmds in instances.items():
            for c in cmds:
                code = subprocess.run([sys.executable, *run.CLI, *c.args], env=env,
                                      stdout=subprocess.DEVNULL).returncode
                errors = c.check(c.out, code)
                expect(not errors, f"{name} {c.key}: checks pass {errors[:2]}")
                corrupt = CORRUPTIONS.get((name, c.key))
                if corrupt:
                    corrupt(c.out)
                    expect(bool(c.check(c.out, code)), f"{name} {c.key}: corruption detected")
        metrics, detail = run.run_traced([instances["votes"]], src, tmp / "spans.gz", print)
        expect(not detail["errors"] and set(per_layer) <= set(metrics),
               "traced run checks pass and computes every per-layer metric")
        expect(metrics["ingest.thresholds"] > 0 and metrics["coloring.constructions"] > 0,
               "traced run sees calls made inside the package")
    finally:
        shutil.rmtree(tmp)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
