#!/usr/bin/env python3
"""Walk the protected splitting stage by stage and narrate the ledger.

For each positive stage it prints the subset-sum classes the splitter
classified next to the (mask, n) pairs they stand for: the splitter's
work goes with the first number, the pair views' with the second.

Usage: python scripts/splitter_trace.py [stages]
"""

import sys
from fractions import Fraction

from baire import cauchy


def main() -> None:
    stages = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    x = cauchy.RationalSeq.make([1, 0, Fraction(1, 16)])
    b = cauchy.dyadic_targets()
    print(f"source x = {x.to_json()}")
    print(f"targets b_n = 2^-n, {stages} stages\n")
    ledger = cauchy.protected_split(x, b, stages)
    for rec in ledger.stages:
        t = "inf" if rec.t is None else rec.t
        pieces = ", ".join(str(v) for v in rec.y)
        print(f"stage {rec.stage}: x = {rec.x}  "
              f"{'positive' if rec.positive else 'zero'}  floor t = {t}")
        print(f"  k = {rec.k}  block = ({pieces})")
        if rec.case2 or rec.case3:
            print(f"  protections set: {len(rec.case2)} by gap, "
                  f"{len(rec.case3)} by fresh block; "
                  f"{rec.checked} clearances re-checked")
            classes = sum(len(g.by_gap) + len(g.on_target) for g in rec.ranges)
            pairs = sum(g.hi - g.lo for g in rec.ranges)
            print(f"  classified {classes} subset-sum classes for {pairs} pairs")
    report = cauchy.verify_clearances(ledger, Fraction(0))
    print(f"\nindependent recomputation: ok={report.ok} "
          f"pairs={report.pairs_checked} limit-certified={report.limit_certified}")


if __name__ == "__main__":
    main()
