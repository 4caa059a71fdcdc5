"""Record dense-color reference values for the trade workload's inputs.

    python3 perfbench/record_refs.py 0 20     # run seeds 0..20 inclusive

For every instance of every run seed in the range, stores the red K4
and K5 counts and the red maximum clique size (when the search finishes
within the workload's node budget) in perfbench/refs.json, computed by
the ramseystats under ./src. Existing entries are kept. The benchmark
checks later versions of the program against these values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import ramseystats as rs  # noqa: E402

import gen  # noqa: E402
from workloads import CLIQUE_BUDGET, REFS, TRADE_K, WORKLOADS, instance_seed, load_refs  # noqa: E402


def record(seed: str) -> dict:
    flows = rs.parse_trade_flows(gen.trade_text(seed).splitlines())
    graph = rs.build_trade_graph(flows, TRADE_K)
    ref = {f"red_k{m}": rs.clique_census(graph, m).red_count for m in (4, 5)}
    best = rs.max_clique(graph, rs.Color.RED, CLIQUE_BUDGET)
    ref["red_max_clique"] = None if best.is_lower_bound else best.size
    return ref


def main() -> None:
    lo, hi = int(sys.argv[1]), int(sys.argv[2])
    refs = load_refs()
    trade = refs.setdefault("trade", {})
    for seed in range(lo, hi + 1):
        for i in range(WORKLOADS["trade"].instances):
            key = instance_seed(seed, i)
            if key not in trade:
                trade[key] = record(key)
                REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
                print(key, trade[key], flush=True)


if __name__ == "__main__":
    main()
