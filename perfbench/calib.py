"""Calibration loops: fixed work, in the style of each workload, that the
benchmark runs between schedule cycles to measure how fast the host is
running right now.

On a shared host the speed of this process drifts by ±20% over tens of
seconds, and code heavy in calls and allocation slows more than a tight
integer loop. A calibration therefore has to do the same kind of work as
the workload it calibrates. None of it touches ``baire``, so no change to
the program can speed it up or slow it down.

``REFERENCE_S`` is each calibration's median time on the machine the
benchmark was written on (2 vCPU Intel Xeon at 2.1 GHz, Python 3.11.7).
Op times are reported as ``measured * REFERENCE_S / calibration``, which
is milliseconds at that reference speed.
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction

import refs


def fraction_subset_sums(width: int = 11) -> int:
    """The splitter's inner loop: every subset sum of ``width`` rationals,
    each compared against a target."""
    vals = [Fraction((-1) ** i, 3 + i) for i in range(width)]
    sums = [Fraction(0)] * (1 << width)
    for idx, v in enumerate(vals):
        bit = 1 << idx
        for mask in range(bit):
            sums[bit | mask] = sums[mask] + v
    target = Fraction(1, 7)
    return sum(1 for s in sums if abs(abs(s) - target) > Fraction(1, 100))


def prefix_codes(rounds: int = 200) -> int:
    """The probe's codec work: every prefix code of short sequences, built
    from scratch, decoded back and looked up."""
    seen = {}
    for a in range(rounds):
        seq = [(a * 7 + i * 3) % 4 + 1 for i in range(11)]
        for n in range(len(seq) + 1):
            code = refs.code_of(seq[:n])
            seen[code] = refs.seq_len(code)
    return len(seen)


def command_lines(rounds: int = 6) -> int:
    """A command line's fixed costs: build a parser with nine subcommands,
    parse one invocation and print a JSON document."""
    total = 0
    for i in range(rounds):
        top = argparse.ArgumentParser(prog="calibration")
        sub = top.add_subparsers(dest="command", required=True)
        for name in "abcdefghi":
            p = sub.add_parser(name)
            p.add_argument("op", choices=["x", "y", "z"])
            for flag in ("--f", "--g", "--n", "--prec", "--fuel"):
                p.add_argument(flag, default="0")
        args = top.parse_args(["e", "y", "--n", str(i)])
        doc = {"schema_version": "1", "result": {"n": args.n, "digits": [i % 3 - 1] * 30}}
        total += len(json.dumps(doc, indent=2))
    return total


def long_paths() -> int:
    """The stream's mix: one long chain of big-integer squarings, as deep
    sequence codes grow, the rational sums of signed-digit reals, and the
    fixed costs of command lines."""
    code = 0
    for a in (2, 1, 3, 1, 2, 2, 0, 3, 1, 2, 1, 0, 2, 3, 1, 2, 0, 1, 2):
        code = refs.code_append(code, a)
    return code.bit_length() + fraction_subset_sums(10) + command_lines()


CALIBRATIONS = {"probe": prefix_codes, "split": fraction_subset_sums,
                "stream": long_paths}
REFERENCE_S = {"probe": 0.018, "split": 0.018, "stream": 0.040}
