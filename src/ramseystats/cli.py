"""Command line surface for the census, bounds, and deviation reports.

Five subcommands: sweep (threshold censuses of a votes dataset), chi2
(deviation statistics for votes or trade inputs), trade (census and
extremal structure of a top-k partner graph), simulate (Monte Carlo
against the analytic expectation), and bounds (closed-form reference
tables). Outputs land in --out-dir (or $RAMSEYSTATS_OUT_DIR, or the
working directory) as csv/json plus a manifest.json recording input
hashes, the resolved config, and the library version.

This module is the dispatcher: it holds each subcommand's name, help
line and options, parses the command line, and only then imports the
one module that runs the command, ramseystats.commands.<name>. So
parsing and --help load no command module, and `import ramseystats.cli`
loads nothing else from the package. No module of the package imports
this one (the `ramseystats` console script, the tests and the benchmark
do): under `python -m ramseystats.cli` it runs as __main__, and an
import would compile and run it a second time.

Both process entries, the console script and `python -m`, go through
run(), which calls main() and then gc.freeze(): the frozen heap of
classes, functions and module dicts moves to the permanent generation,
which the interpreter's collections at shutdown skip, while atexit
handlers, stream flushes and module teardown still run. Every command
closes the files it writes before main returns, so nothing is left for
those collections to finish. In-process callers of main keep their
collector as it was.

Exit codes: 0 success, 2 missing input file (or a usage error: an
option argparse rejects), 3 parse failure, 4 clique search budget
exceeded. Other errors exit 1.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

OUT_DIR_ENV = "RAMSEYSTATS_OUT_DIR"

# Options, in --help order: (flag, parameter name, default, type or choices,
# help). The parameter names are the manifest's config keys. A tuple default
# makes the option repeatable, a default of ... required, and type bool a
# flag. main reads --out-dir's default from the environment.
_INPUT = (("--input", "input_path", ..., Path, "Input file."),)
_VOTES = (
    ("--subgroup", "subgroups", ("G",), str,
     "G (the default) for all records, or a party token (D, R); repeatable."),
    ("--t-min", "t_min", 0, int, None),
    ("--t-max", "t_max", None, int, "Default: largest observed distance + 1."),
)
_OUTPUT = (
    ("--format", "fmt", "csv", ("csv", "json"), None),
    ("--out-dir", "out_dir", None, str, f"Default: ${OUT_DIR_ENV} or the working directory."),
)
# name -> (help line, options); ramseystats.commands.<name> runs the command
_COMMANDS = {
    "sweep": ("Census every threshold graph of a votes dataset.",
              (*_INPUT, *_VOTES, *_OUTPUT)),
    "chi2": ("Chi-squared deviation reports for a votes sweep or a trade graph.",
             (*_INPUT, ("--kind", "kind", "votes", ("votes", "trade"), None), *_VOTES,
              ("--df", "df", 1, int, None),
              ("--k", "k", 5, int, "Partner count for --kind trade."),
              ("--significance", "significance", 0.01, float, None), *_OUTPUT)),
    "trade": ("Census and extremal structure of a top-k trade partner graph.",
              (*_INPUT, ("--k", "k", 5, int, None),
               ("--orders", "orders", "3,4,5", str,
                "Comma-separated clique orders to census (3..5)."),
               ("--density-vertex", "density_vertex", (), str,
                "Country label to report blue neighborhood density for; repeatable."),
               ("--clique-budget", "clique_budget", 10**8, int, None), *_OUTPUT)),
    "simulate": ("Monte Carlo monochromatic counts against the analytic expectation.",
                 (("--n", "n", 20, int, None), ("--t-min", "t_min", 0.0, float, None),
                  ("--t-max", "t_max", 1.0, float, None),
                  ("--t-step", "t_step", 0.05, float, None),
                  ("--samples", "samples", 2000, int, None), ("--seed", "seed", 0, int, None),
                  ("--exhaustive", "exhaustive", False, bool,
                   "Enumerate all colorings instead of sampling (small n only)."), *_OUTPUT)),
    "bounds": ("Forced-floor and minimal-fraction reference tables.",
               (("--n-min", "n_min", 3, int, None), ("--n-max", "n_max", 30, int, None),
                ("--orders", "orders", "4,5,6", str,
                 "Clique orders for the upper-bound table (each >= 4)."), *_OUTPUT)),
}


def _parser(args: list[str]) -> argparse.ArgumentParser:
    """The parser of every command, with the options of those named in
    args: only they can run or print their help. No option has a default
    of its own (argument_default=SUPPRESS), so a parse holds just the
    options given on the command line."""
    common = {"allow_abbrev": False, "add_help": False, "argument_default": argparse.SUPPRESS}
    parser = argparse.ArgumentParser(
        prog="ramseystats",
        description="Monochromatic clique censuses and Ramsey deviation statistics.", **common)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (doc, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=doc, description=doc, **common)
        if name not in args:
            continue
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        for flag, dest, default, kind, note in options:
            if not isinstance(default, (bool, tuple)) and default not in (None, ...):
                note = f"{note or ''} (default: {default})".lstrip()
            how = ({"action": "store_true"} if kind is bool else {"choices": kind}
                   if isinstance(kind, tuple) else {"type": kind})
            if isinstance(default, tuple):
                how["action"] = "append"
            sub.add_argument(flag, dest=dest, required=default is ..., help=note, **how)
    return parser


def _last_values(args: list[str]) -> list[str]:
    """args as the parser is to read them. An option takes the argument
    after it as its value, even "-1,2" or "-inf" ("--t-min=-inf"). Given
    twice, an option that is not repeatable keeps just its last value,
    so only that one is checked."""
    options = _COMMANDS[args[0]][1] if args and args[0] in _COMMANDS else ()
    joined, last, rest = [], {}, iter(args)
    for arg in rest:
        for flag, _, default, kind, _ in options:
            if kind is not bool and arg.partition("=")[0] == flag:
                if arg == flag and (value := next(rest, None)) is not None:
                    arg += "=" + value
                if not isinstance(default, tuple):  # drop the value given before
                    if flag in last:
                        joined.remove(last[flag])
                    last[flag] = arg
                break
        joined.append(arg)
    return joined


def main(args=None, standalone_mode=True) -> None:
    """Run one command line (default: sys.argv[1:]). Returns on success;
    every other outcome raises SystemExit with its exit code, whatever
    standalone_mode, which is accepted for callers that pass it.

    The command module's main gets the command's parameters, and first
    job: the command, its options, its parameters, and given, the
    options given on the command line."""
    args = _last_values(sys.argv[1:] if args is None else args)
    given = vars(_parser(args).parse_args(args))
    command = given.pop("command")
    options = _COMMANDS[command][1]
    params = {}
    for _, dest, default, *_ in options:
        params[dest] = default
    params["out_dir"] = os.environ.get(OUT_DIR_ENV) or "."  # an empty variable counts as unset
    params.update(given)
    job = argparse.Namespace(command=command, options=options, params=params, given=given)
    name = f"{__package__}.commands.{command}"
    __import__(name)  # not importlib.import_module, whose imports -X importtime omits
    module = sys.modules[name]
    from .commands import _fail
    from .errors import InputError

    try:
        module.main(job, **params)
    except InputError as exc:
        _fail(1, str(exc))


def run() -> None:
    """The process entry: main(), then gc.freeze() however it ends."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
