"""bounds: forced-floor and minimal-fraction reference tables."""

from .. import bounds as bounds_lib, report
from . import _fail, _finish, _parse_orders, _report, _resolve_out_dir

# bounds builds its whole table before writing; rows beyond this many
# only creep toward the 1/4 limit.
MAX_BOUNDS_ROWS = 10_000


def main(run, n_min, n_max, orders, fmt, out_dir):
    orders = _parse_orders(orders, minimum=4)
    if n_min > n_max:
        _fail(1, f"empty n range [{n_min}, {n_max}]")
    rows = n_max - n_min + 1
    if rows > MAX_BOUNDS_ROWS:
        _fail(1, f"{rows} rows in n range [{n_min}, {n_max}] exceed the cap of {MAX_BOUNDS_ROWS}")
    floors = [bounds_lib.goodman_fraction(n)._asdict() for n in range(n_min, n_max + 1)]
    uppers = [{"m": m, "upper_bound": bounds_lib.thomason_bound(m)} for m in orders]
    out = _resolve_out_dir(out_dir)
    written = _report(
        out, fmt, "bounds", {"command": "bounds", "goodman": floors, "thomason": uppers},
        {"bounds_goodman": floors, "bounds_thomason": uppers},
    )
    body = [
        [b["n"], b["forced_count"], f"{float(b['forced_fraction']):.4f}",
         f"{float(b['asymptotic_fraction']):.4f}"]
        for b in floors[:20]
    ]
    print(report.format_table(["n", "forced", "fraction", "asymptotic"], body))
    print(", ".join(f"K{u['m']} upper bound {u['upper_bound']:.5f}" for u in uppers))
    _finish(run, out, written, {}, orders=orders)
