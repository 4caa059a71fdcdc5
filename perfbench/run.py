"""Benchmark of the ramseystats CLI.

    python3 perfbench/run.py --workload votes --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
./src, so nothing needs installing. Inputs are generated from the seed
into .perfbench_tmp/ (removed at exit); a full record of each run, and
the spans of a traced run, go to .perfbench_out/.

--trace 0 runs every CLI command as a subprocess in a fresh
interpreter, one at a time (a closed loop with one client), cycling
through the run's inputs until --seconds have gone by, and reports
medians of raw seconds. A fixed reference loop (calibrate.py) runs
before every command; the reported *_rel metrics are a command's mean
time over the run divided by the loop's mean time, which cancels the
drift in host speed. The raw seconds are logged and kept in the run
record. --trace 1 makes one pass over the inputs in-process with
spans around every public call and reports per-layer numbers; it
computes more than BENCHMARK.json lists (the trade workload's clique
metrics), and logs them all.

The last line of stdout is the result: {"correct", "attempted",
"failed", "metrics"}. A command fails when it exits non-zero (a clique
search that runs out of budget exits 4) or its outputs fail a check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import calibrate
import tracing
from workloads import WORKLOADS, instance_seed, load_refs

SETUP_PER_SEQUENCE = 2
HARD_LIMIT_S = 170.0          # the whole run, checks and set-up included
TMP_DIR = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"
CLI = ["-m", "ramseystats.cli"]


def bench_metrics() -> tuple[dict, dict]:
    """name -> unit of the end-to-end and the per-layer metrics."""
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Verifier:
    """Full checks the first time a command runs on an input; after
    that, the output bytes and exit code must repeat exactly."""

    def __init__(self):
        self.first: dict[tuple, tuple[int, dict]] = {}

    def __call__(self, inst: int, cmd, code: int) -> list[str]:
        files = {p.relative_to(cmd.out).as_posix(): p.read_bytes()
                 for p in sorted(cmd.out.rglob("*")) if p.is_file()}
        key = (inst, cmd.key)
        if key not in self.first:
            errors = cmd.check(cmd.out, code)
            if not errors:
                self.first[key] = (code, files)
            return errors
        if self.first[key] != (code, files):
            return [f"{cmd.key}: outputs differ from the first run on this input"]
        return []


def source_info(root: Path, workload: str, seed: int, trace: int, instances) -> dict:
    digest = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        digest.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    sha = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError):
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True)
            sha = res.stdout.strip() or None
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commands": [[c.args for c in cmds] for cmds in instances],
    }


def reset(cmds) -> None:
    for c in cmds:
        shutil.rmtree(c.out, ignore_errors=True)


def run_cli(args, env, deadline) -> tuple[int, float, str]:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *CLI, *args], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        return -1, time.perf_counter() - t0, "timed out"
    return proc.returncode, time.perf_counter() - t0, proc.stderr[-500:]


def measure(instances, env, seconds: float, deadline: float, log) -> tuple[dict, dict]:
    """Closed loop over subprocess commands, cycling through the inputs
    until `seconds` have gone by (at least once each); medians of raw
    seconds over all sequences, and mean times relative to the mean of
    the reference loop, which runs before every command. Set-up samples
    are taken before every sequence."""
    setup = []
    verify = Verifier()
    samples = defaultdict(list)
    per_command = defaultdict(list)
    tally = {"attempted": 0, "failed": 0, "errors": []}
    start = time.monotonic()
    sequences = 0
    for i, cmds in itertools.cycle(enumerate(instances)):
        for _ in range(SETUP_PER_SEQUENCE):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import ramseystats.cli"], env=env, check=True)
            setup.append(time.perf_counter() - t0)
        reset(cmds)
        parts = defaultdict(float)
        codes = []
        for c in cmds:
            samples["reference_s"].append(calibrate.reference_s())
            code, dt, err = run_cli(c.args, env, deadline)
            parts["wall_s"] += dt
            parts[f"{c.metric}_s"] += dt
            per_command[c.key].append(dt)
            codes.append((code, err))
        for metric, value in parts.items():
            samples[metric].append(value)
        for c, (code, err) in zip(cmds, codes):
            if code != 0:
                log(f"{c.key} exited {code}: {err.strip()}")
            count(tally, c, code, verify(i, c, code) if code >= 0 else [err], log)
        sequences += 1
        spent = time.monotonic() - start
        if sequences >= len(instances) and (
                spent >= seconds or time.monotonic() + spent / sequences > deadline):
            break
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    reference = statistics.mean(samples["reference_s"])
    for part in ("wall", "main", "follow"):
        metrics[f"{part}_rel"] = statistics.mean(samples[f"{part}_s"]) / reference
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    detail = {"sequences": sequences, "setup_samples": setup,
              "command_s": {k: statistics.median(v) for k, v in per_command.items()},
              "samples": dict(samples)}
    return metrics, {**tally, **detail}


def count(tally: dict, cmd, code: int, errors: list[str], log) -> None:
    tally["attempted"] += 1
    if code != 0 or errors:
        tally["failed"] += 1
        if code == 4 and not errors:
            log(f"{cmd.key}: clique search exceeded its node budget (exit 4)")
    for e in errors:
        log(f"check failed: {e}")
    tally["errors"] += errors


def run_traced(instances, src: Path, trace_file: Path, log) -> tuple[dict, dict]:
    """One in-process pass with spans around every public call."""
    sys.path.insert(0, str(src))
    import ramseystats
    import ramseystats.cli as cli

    tracer = tracing.Tracer()
    verify = Verifier()
    tally = {"attempted": 0, "failed": 0, "errors": []}
    files = nbytes = 0
    with tracing.instrument(tracer, ramseystats):
        for i, cmds in enumerate(instances):
            reset(cmds)
            for c in cmds:
                code, errors = 0, []
                with tracer.span(f"cli.{c.key}"), contextlib.redirect_stdout(io.StringIO()):
                    try:
                        cli.main(c.args, standalone_mode=False)
                    except SystemExit as exc:
                        code = 0 if exc.code is None else exc.code
                    except Exception as exc:  # a crash is this command's failure
                        code, errors = 1, [f"{c.key}: {exc!r}"]
                count(tally, c, code, errors or verify(i, c, code), log)
                outputs = [p for p in c.out.rglob("*") if p.is_file()]
                files += len(outputs)
                nbytes += sum(p.stat().st_size for p in outputs)
    tracer.write(trace_file)
    metrics = layer_metrics(tracer, files, nbytes)
    per_call = largest_n_means(tracer)
    for name, (n, mean) in per_call.items():
        log(f"{name}: {mean * 1e3:.2f} ms per call at n={n}")
    return metrics, {**tally, "spans": len(tracer.spans), "trace_file": str(trace_file),
                     "per_call_at_largest_n": per_call}


def largest_n_means(tracer: tracing.Tracer) -> dict:
    """Mean seconds per call at the largest vertex count each function saw."""
    sums: dict = defaultdict(lambda: [0, 0.0])
    for name, tag, start, end, _ in tracer.spans:
        if tag.startswith("n"):
            acc = sums[(name, int(tag[1:]))]
            acc[0] += 1
            acc[1] += (end - start) / 1e9
    out = {}
    for (name, n), (calls, secs) in sorted(sums.items()):
        out[name] = (n, secs / calls)
    return out


def layer_metrics(tracer: tracing.Tracer, files: int, nbytes: int) -> dict:
    total, self_time = tracing.summarize(tracer.spans)
    c = tracer.counters

    def incl(name: str, tag: str | None = None) -> float:
        return sum((v for (n, t), v in total.items() if n == name and tag in (None, t)), 0.0)

    def layer_self(prefix: str) -> float:
        return sum((v for (n, _), v in self_time.items() if n.startswith(prefix)), 0.0)

    nodes = c["census.max_clique.red_nodes"] + c["census.max_clique.blue_nodes"]
    searches = c["census.max_clique.searches"]
    return {
        "ingest.parse_votes_s": incl("ingest.parse_votes"),
        "ingest.hamming_matrix_s": incl("ingest.hamming_matrix"),
        "ingest.pairs": c["ingest.pairs"],
        "ingest.sweep_s": incl("ingest.sweep"),
        "ingest.thresholds": c["ingest.thresholds"],
        "ingest.threshold_coloring_s": incl("ingest.threshold_coloring"),
        "coloring.validate_s": incl("coloring.TwoColoring"),
        "ingest.distance_matrix_s": incl("ingest.DistanceMatrix"),
        "census.triangle_census_s": incl("census.triangle_census"),
        "census.triangle_census.calls": c["census.triangle_census.calls"],
        "ingest.parse_trade_flows_s": incl("ingest.parse_trade_flows"),
        "ingest.build_trade_graph_s": incl("ingest.build_trade_graph"),
        "census.k4_s": incl("census.clique_census", "k4"),
        "census.k5_s": incl("census.clique_census", "k5"),
        "census.k5.counted": c["census.k5.counted"],
        "census.transitivity_s": incl("census.transitivity"),
        "census.max_clique.red_s": incl("census.max_clique", "red"),
        "census.max_clique.red_nodes": c["census.max_clique.red_nodes"],
        "census.max_clique.blue_nodes": c["census.max_clique.blue_nodes"],
        "census.max_clique.us_per_node":
            incl("census.max_clique") / nodes * 1e6 if nodes else 0.0,
        "census.max_clique.exact_frac":
            c["census.max_clique.exact"] / searches if searches else 1.0,
        "ingest.random_coloring_s": incl("ingest.random_coloring"),
        "ingest.colorings": c["ingest.colorings"],
        "coloring.enumerate_colorings_s": incl("coloring.enumerate_colorings"),
        "coloring.constructions": c["coloring.TwoColoring.calls"],
        "ingest.self_s": layer_self("ingest."),
        "coloring.self_s": layer_self("coloring."),
        "census.self_s": layer_self("census."),
        "bounds_s": layer_self("bounds."),
        "stats.chi2_s": layer_self("stats."),
        "stats.p_value.calls": c["stats.p_value.calls"],
        "report.emit_s": layer_self("cli."),
        "report.files": files,
        "report.bytes": nbytes,
        "trace.overhead_s": len(tracer.spans) * tracing.span_cost_s(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "ramseystats" / "cli.py").is_file():
        print(f"error: no ramseystats source under {src}", file=sys.stderr)
        return 2
    end_to_end, per_layer = bench_metrics()

    def log(msg: str) -> None:
        print(f"[perfbench] {msg}", file=sys.stderr)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = Path(TMP_DIR) / f"{tag}-{os.getpid()}"
    out = root / OUT_DIR
    workload = WORKLOADS[args.workload]
    refs = load_refs()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    try:
        instances = []
        for i in range(workload.instances):
            d = tmp / str(i)
            d.mkdir(parents=True)
            instances.append(workload.make(instance_seed(args.seed, i), d, refs))
        if args.trace:
            metrics, detail = run_traced(instances, src, out / f"spans-{tag}.jsonl.gz", log)
            names = per_layer
        else:
            metrics, detail = measure(instances, env, args.seconds, deadline, log)
            names = end_to_end
        info = source_info(root, args.workload, args.seed, args.trace, instances)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            Path(TMP_DIR).rmdir()

    result = {
        "correct": not detail["errors"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names.items()},
    }
    out.mkdir(exist_ok=True)
    (out / f"result-{tag}.json").write_text(json.dumps(
        {**info, **detail, "all_metrics": metrics, "result": result}, indent=1, default=str))
    for n, value in metrics.items():
        log(f"{n} = {value:.6g} {names.get(n, '')}")
    for k, v in detail.get("command_s", {}).items():
        log(f"command {k}: median {v:.4g} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
