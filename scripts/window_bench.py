#!/usr/bin/env python3
"""Time and count the window search of ``rpt decide`` and ``settling_index``.

Usage: python scripts/window_bench.py [tail] [repeats]

Two inputs:

* ``long``: ``rpt decide --a '{"prefix":["1/2","9/16"],"tail":{"kind":
  "constant","value":TAIL}}' --p identity --n 2 --m 1``, TAIL defaulting
  to 10900, whose last split block has 1,046,347 entries.  It records the
  median wall time of each step (the split, the exact modulus and the
  window search) over ``repeats`` runs (default 3) and the verdict.
* ``settle``: the shapes of the benchmark's ``settle`` ops, with fixed
  grids in place of the seeded ones: eight of its increasing sequences,
  one shuffle of each size 2, 8, 16 and 23 (seeded by the size), and the
  exponents 1 to 6, each through ``split_series_for``, ``exact_modulus``
  and ``settling_index``.  It records the median wall time of the whole
  grid over ``repeats`` runs.

For each input it also records the window steps the search charged and
the prefix entries its max/min index read, counted on one more run.  It
prints all of it as one JSON document.
"""

import json
import random
import statistics
import sys
import time
from fractions import Fraction

from baire import cauchy

SETTLE_DELTAS = [("1/2", "1/32"), ("1/3", "1/16"), ("1/2", "0", "1/32"), ("1", "1/16"),
                 ("3/4", "0", "3/32"), ("1/3", "1/5"), ("1",), ("3/2", "1/5")]
SHUFFLE_SIZES = (2, 8, 16, 23)
EXPONENTS = range(1, 7)


class CountingScan(cauchy._WindowScan):
    """A window scan that lists itself in ``scans``, so that its counts
    can be read once the searches are done."""

    scans: list = []

    def __init__(self, *args):
        super().__init__(*args)
        CountingScan.scans.append(self)


def counted(run) -> dict:
    """Window steps and index reads of one more run of ``run``."""
    CountingScan.scans = []
    cauchy._WindowScan, plain = CountingScan, cauchy._WindowScan
    try:
        run()
    finally:
        cauchy._WindowScan = plain
    return {"scans": len(CountingScan.scans),
            "window_steps": sum(s.steps for s in CountingScan.scans),
            "prefix_entries_visited": sum(s.index.visited for s in CountingScan.scans)}


def median_s(run, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        run()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def long_input(tail: int, repeats: int) -> dict:
    a = cauchy.parse_seq_spec({"prefix": ["1/2", "9/16"],
                               "tail": {"kind": "constant", "value": tail}})
    p = cauchy.PermutationSpec.identity()
    series = cauchy.split_series_for(a)
    f = cauchy.exact_modulus(a, len(a.prefix) + 4)
    steps = {
        "split_ms": lambda: cauchy.split_series_for(a),
        "modulus_ms": lambda: cauchy.exact_modulus(a, len(a.prefix) + 4),
        # a new series each time, so its scaled entries are built again
        "search_ms": lambda: cauchy.classify_windows(cauchy.SplitSeries(series.ledger),
                                                    p, 1, 2, f),
    }
    doc = {"tail": tail, "entries": series.built_end,
           "last_block": series.ledger.stages[-1].k}
    doc.update((name, round(1000 * median_s(run, repeats), 3))
               for name, run in steps.items())
    verdict = cauchy.classify_windows(series, p, 1, 2, f)
    doc["verdict"] = {"case": "tail", "n0": verdict.n0, "n1": verdict.n1,
                      "k0": verdict.k0}
    doc.update(counted(steps["search_ms"]))
    return doc


def shuffle(size: int) -> cauchy.PermutationSpec:
    idx = list(range(size))
    random.Random(size).shuffle(idx)
    return cauchy.PermutationSpec.from_mapping(dict(enumerate(idx)))


def settle_grid(repeats: int) -> dict:
    perms = [shuffle(size) for size in SHUFFLE_SIZES]

    def run():
        for deltas in SETTLE_DELTAS:
            prefix = [sum(map(Fraction, deltas[:k + 1])) for k in range(len(deltas))]
            a = cauchy.RationalSeq.make(prefix, "constant", prefix[-1])
            series = cauchy.split_series_for(a)
            f = cauchy.exact_modulus(a, len(prefix) + 4)
            for p in perms:
                for n in EXPONENTS:
                    cauchy.settling_index(series, p, n, f)

    return {"sequences": len(SETTLE_DELTAS), "shuffle_sizes": list(SHUFFLE_SIZES),
            "exponents": list(EXPONENTS),
            "calls": len(SETTLE_DELTAS) * len(perms) * len(EXPONENTS),
            "median_ms": round(1000 * median_s(run, repeats), 3), **counted(run)}


def main() -> None:
    tail = int(sys.argv[1]) if len(sys.argv) > 1 else 10900
    repeats = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    print(json.dumps({"repeats": repeats, "long": long_input(tail, repeats),
                      "settle": settle_grid(repeats)}, indent=1))


if __name__ == "__main__":
    main()
