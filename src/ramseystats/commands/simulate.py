"""simulate: Monte Carlo monochromatic counts against the analytic expectation."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, fsum, isqrt, ldexp, sqrt
from operator import mul

from .. import bounds as bounds_lib, census as census_lib, report
from . import _fail, _finish, _reject_options, _report, _resolve_out_dir

# Monte Carlo simulate's work in units of one draw as fitted (0.34-0.37 us): a sample
# is charged C(n,2) + 26 (its seed and call cost 36-40), each of its counts n + 3 (one
# costs 1.7-6 units at n <= 20), and each density's row 1000 for the ~2 KB it holds
# until written (it takes ~140). CLI runs at the cap's corners took 0.5-6.8 s and at
# most 49 MB on one core, and 0.6-2.9 s and at most 51 MB with the seeds split over
# two (2 cores, CPython 3.11.7).
MAX_SIMULATED_WORK = 16_000_000
# simulate --exhaustive takes about 0.2 s at n=11 and 3.5 times more per n.
MAX_EXHAUSTIVE_N = 11


class _Seeds:
    """The samples' seeds, 63 random bits each from random.Random(seed),
    drawn anew each time they are iterated and never held in a list;
    sized, so random_mono_counts can split them in halves."""

    def __init__(self, seed: int, samples: int):
        self.seed, self.samples = seed, samples

    def __len__(self) -> int:
        return self.samples

    def __iter__(self):
        master = random.Random(self.seed)
        return (master.getrandbits(63) for _ in range(self.samples))


def _stdev(xs: list[int]) -> float:
    """statistics.stdev of two or more integers, bit for bit, from their
    exact sums: the sample variance is (k Sxx - Sx^2) / (k (k-1)) for k
    values, and its square root is rounded to odd on 55 or more bits
    before the one rounding to a float, so it is correctly rounded."""
    k, sx = len(xs), sum(xs)
    num, den = k * sum(map(mul, xs, xs)) - sx * sx, k * (k - 1)
    q = (num.bit_length() - den.bit_length() - 109) // 2  # scale so the root has >= 55 bits
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = isqrt(num // den)
    return ldexp(root | (root * root * den != num), q)


def main(run, n, t_min, t_max, t_step, samples, seed, exhaustive, fmt, out_dir):
    if exhaustive:
        _reject_options(run, {"t_min", "t_max", "t_step", "samples", "seed"}, "--exhaustive")
    floor = bounds_lib.goodman_min(n)
    doc = {"command": "simulate", "n": n, "goodman_floor": floor}
    stem = "simulate_exhaustive" if exhaustive else "simulate"
    if exhaustive:
        if n > MAX_EXHAUSTIVE_N:
            _fail(1, f"exhaustive n={n} exceeds the cap of {MAX_EXHAUSTIVE_N}")
        rows = [{"mono": m, "colorings": c} for m, c in census_lib.mono_distribution(n).items()]
        lo, hi = rows[0]["mono"], rows[-1]["mono"]
        colorings = 2 ** comb(n, 2)
        doc.update(mode="exhaustive", colorings=colorings, min_mono=lo, max_mono=hi,
                   distribution=rows)
        print(
            f"exhaustive n={n}: {colorings} colorings, "
            f"mono range [{lo}, {hi}], goodman floor {floor}"
        )
    else:
        if n < 3:
            _fail(1, f"need n >= 3 for the analytic expectation, got {n}")
        if samples < 1:
            _fail(1, f"samples must be >= 1, got {samples}")
        try:
            step, lo, hi = (Fraction(str(x)) for x in (t_step, t_min, t_max))
        except ValueError:
            _fail(1, "bad t grid values")
        if step <= 0:
            _fail(1, f"t-step must be positive, got {t_step}")
        if not (0 <= lo <= hi <= 1):
            _fail(1, "need 0 <= t-min <= t-max <= 1")
        points = (hi - lo) // step + 1
        work = samples * (comb(n, 2) + 26 + points * (n + 3)) + points * 1000
        if work > MAX_SIMULATED_WORK:
            _fail(1, f"n={n} with {points} densities x {samples} samples needs {work} "
                     f"units of work, above the cap of {MAX_SIMULATED_WORK}")
        grid = [lo + k * step for k in range(points)]
        ts = [float(tau) for tau in grid]
        counts = census_lib.random_mono_counts(n, ts, _Seeds(seed, samples))
        rows = [{
            "t": t,
            "analytic": float(bounds_lib.expected_mono(n, 3, tau).mono),
            "empirical": fsum(at_t) / samples,
            "stderr": _stdev(at_t) / sqrt(samples) if samples > 1 else 0.0,
        } for tau, t, at_t in zip(grid, ts, counts)]
        doc.update(mode="monte-carlo", samples=samples, seed=seed, rows=rows)
        body = [
            [f"{r['t']:.3f}", f"{r['analytic']:.2f}", f"{r['empirical']:.2f}",
             f"{r['stderr']:.3f}"]
            for r in rows
        ]
        print(report.format_table(["t", "analytic", "empirical", "stderr"], body))
        print(f"goodman floor {floor} monochromatic triangles at n={n}")
    out = _resolve_out_dir(out_dir)
    written = _report(out, fmt, stem, doc, {stem: rows})
    _finish(run, out, written, {})
