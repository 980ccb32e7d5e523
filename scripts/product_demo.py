#!/usr/bin/env python3
"""Build a product realizer from two factor realizers and exercise it.

Probes both factors back to compactness bases, combines the bases, and
compares the rebuilt realizer's settling indices against the direct scan
on a batch of random eventually-star sequences.
"""

import random
import time

from baire import antispecker as aspk
from baire import k2, naming


def main() -> None:
    rng = random.Random(2024)
    mc, mf = naming.CantorSpace(), naming.FiniteSpace(2)
    prod = naming.ProductSpace(mc, mf)

    t0 = time.time()
    combined = aspk.product_anti_specker(
        aspk.realizer_from_base(aspk.builtin_base(mc)),
        aspk.realizer_from_base(aspk.builtin_base(mf)),
        prod)
    print(f"probed and combined in {time.time() - t0:.1f}s")

    oracle = aspk.direct_scan_realizer(prod)
    agreements = 0
    for i in range(20):
        entries = tuple(
            k2.star_name() if rng.random() < 0.4
            else prod.canonical_name(prod.sample_point(rng))
            for _ in range(rng.randrange(0, 8)))
        seq = naming.NameSequence(entries, "star")
        h = aspk.make_avoidance_name(seq, answer_depth=i % 4)
        want = oracle.evaluate(seq, h, 10).result.value
        out = combined.evaluate(seq, h, 60000)
        mark = "ok" if out.result.value == want else "MISMATCH"
        print(f"  seq {i:2d}: settle={out.result.value} "
              f"(scan {want}, fuel {out.result.spent}, "
              f"member {out.member_index}) {mark}")
        agreements += out.result.value == want
    print(f"{agreements}/20 agree with the direct scan")


if __name__ == "__main__":
    main()
