#!/usr/bin/env python3
"""Time the squaring kernel behind every sequence code against int squaring.

Usage: python scripts/square_bench.py [max_exp]

For each size 2^14 .. 2^max_exp bits (default 22) it squares one random
int of that size and records the best of 3 times of ``a * a`` and of
``k2._ssa_square``, the ratio of the second to the first, and the
tracemalloc peak of each.  ``ssa_cutoff_bits`` is ``k2._SSA_CUTOFF``, the
least size where ``_ssa_square`` beats ``a * a``.  It then records the best of 3 times of
``k2.bar`` at depth max_exp on the lead values of the benchmark's
``stream`` workload, whose code then has about 2^max_exp bits, with the
kernel as shipped and with the builtin alone, and the tracemalloc peak as
shipped.  It prints all of it as one JSON document.
"""

import contextlib
import json
import random
import sys
import time
import tracemalloc

from baire import k2

# the benchmark stream workload's K2_LEAD; later entries repeat its tail
LEAD = (2, 1, 3, 1, 2, 2, 0, 3, 1, 2)
REPEATS = 3
OFF = 1 << 62  # a cutoff that no int here reaches


def best_of(fn, a) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn(a)
        best = min(best, time.perf_counter() - t)
    return best


def peak_kb(fn, a) -> int:
    tracemalloc.start()
    fn(a)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return round(peak / 1024)


@contextlib.contextmanager
def ssa_cutoff(bits: int):
    saved = k2._SSA_CUTOFF
    k2._SSA_CUTOFF = bits
    try:
        yield
    finally:
        k2._SSA_CUTOFF = saved


def main() -> None:
    max_exp = int(sys.argv[1]) if len(sys.argv) > 1 else 22
    rng = random.Random(7)
    kernels = {"builtin": lambda x: x * x, "ssa": k2._ssa_square}
    sizes = []
    for e in range(14, max_exp + 1):
        bits = 1 << e
        a = rng.getrandbits(bits) | 1 << bits - 1
        square = a * a
        assert all(fn(a) == square for fn in kernels.values())
        del square
        ms = {name: best_of(fn, a) * 1e3 for name, fn in kernels.items()}
        row = {"bits": bits}
        row.update((f"{name}_ms", round(t, 4)) for name, t in ms.items())
        row["ssa_ratio"] = round(ms["ssa"] / ms["builtin"], 3)
        row.update((f"{name}_peak_kb", peak_kb(fn, a))
                   for name, fn in kernels.items())
        del a
        sizes.append(row)

    g = k2.TableOracle(dict(enumerate(LEAD)), LEAD[-1])
    bar = {"depth": max_exp, "code_bits": k2.bar(g, max_exp).bit_length()}
    for key, cutoff in (("seconds", k2._SSA_CUTOFF), ("builtin_seconds", OFF)):
        with ssa_cutoff(cutoff):
            bar[key] = round(best_of(lambda d: k2.bar(g, d), max_exp), 4)
    bar["tracemalloc_peak_kb"] = peak_kb(lambda d: k2.bar(g, d), max_exp)

    print(json.dumps({
        "python": sys.version.split()[0],
        "ssa_cutoff_bits": k2._SSA_CUTOFF,
        "repeats": REPEATS,
        "square": sizes,
        "bar": bar,
    }, indent=2))


if __name__ == "__main__":
    main()
