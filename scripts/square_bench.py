#!/usr/bin/env python3
"""Time the squaring kernel behind every sequence code against int squaring.

Usage: python scripts/square_bench.py [max_exp]

For each size 2^14 .. 2^max_exp bits (default 22) it squares one random
int of that size and records the best of 3 times of ``a * a``, of
``k2._square(a)``, and of one Toom-3 level over builtin limb squares
(``k2._square`` with its cutoff set to the size).  The cutoff that ships
is the smallest size where that one level wins.  It then records the time
and the tracemalloc peak of ``k2.bar`` at depth max_exp on the lead values
of the benchmark's ``stream`` workload, whose code then has about
2^max_exp bits.  It prints all of it as one JSON document.
"""

import json
import random
import sys
import time
import tracemalloc

from baire import k2

# the benchmark stream workload's K2_LEAD; later entries repeat its tail
LEAD = (2, 1, 3, 1, 2, 2, 0, 3, 1, 2)
REPEATS = 3


def best_of(fn, a) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn(a)
        best = min(best, time.perf_counter() - t)
    return best


def one_level(a: int) -> int:
    saved = k2._SQUARE_CUTOFF
    k2._SQUARE_CUTOFF = a.bit_length()
    try:
        return k2._square(a)
    finally:
        k2._SQUARE_CUTOFF = saved


def main() -> None:
    max_exp = int(sys.argv[1]) if len(sys.argv) > 1 else 22
    rng = random.Random(7)
    sizes = []
    for e in range(14, max_exp + 1):
        bits = 1 << e
        a = rng.getrandbits(bits) | 1 << bits - 1
        assert k2._square(a) == one_level(a) == a * a
        builtin = best_of(lambda x: x * x, a)
        kernel = best_of(k2._square, a)
        level = best_of(one_level, a)
        del a
        sizes.append({"bits": bits, "builtin_ms": round(builtin * 1e3, 4),
                      "kernel_ms": round(kernel * 1e3, 4),
                      "one_level_ms": round(level * 1e3, 4),
                      "kernel_ratio": round(kernel / builtin, 3),
                      "one_level_ratio": round(level / builtin, 3)})

    g = k2.TableOracle(dict(enumerate(LEAD)), LEAD[-1])
    t = time.perf_counter()
    code_bits = k2.bar(g, max_exp).bit_length()
    seconds = time.perf_counter() - t
    tracemalloc.start()
    k2.bar(g, max_exp)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    print(json.dumps({
        "python": sys.version.split()[0],
        "cutoff_bits": k2._SQUARE_CUTOFF,
        "repeats": REPEATS,
        "square": sizes,
        "bar": {"depth": max_exp, "code_bits": code_bits,
                "seconds": round(seconds, 4),
                "tracemalloc_peak_kb": round(peak / 1024)},
    }, indent=2))


if __name__ == "__main__":
    main()
