"""``split``: exact rational work in ``cauchy``, with no sequence codec.

Three op kinds follow a fixed cycle:

* ``split``: ``protected_split`` then ``verify_clearances``.  Its cost is
  2^width per classified stage, width being the number of flattened entries
  so far, so the cycle fixes one width class per op: 8 to 11 bits, since
  each bit doubles the cost; the 22-bit abort is never reached.  Each class
  is a list of vetted templates; the seed picks one and scales entries and
  targets by a power of two, which changes every number but not the
  construction's shape (block sizes and protection counts are scale
  invariant).
* ``settle``: ``split_series_for`` then ``settling_index`` under seeded
  permutations and exponents, against a brute-force window scan.
* ``modulus``: ``modulus_from_abs_sums`` checked by a brute-force
  oscillation scan, and ``partially_cauchy_index`` against brute force.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

import refs

DYADIC = ("geometric", Q(1), Q(1, 2))
CONST_THIRD = ("constant", Q(1, 3))
CONST_TWO = ("constant", Q(2))
GEO_THIRDS = ("geometric", Q(1), Q(1, 3))
GEO_QUARTERS = ("geometric", Q(3, 2), Q(1, 4))

# width -> [(x prefix, targets)].  The templates of one class have the same
# protection count and, measured, costs within a few percent of each other
SPLIT_CLASSES = {
    8: [(("2", "1/5", "1/32"), CONST_TWO), (("2", "1/5", "1/64"), CONST_TWO),
        (("1/3", "1/16", "1/32"), GEO_QUARTERS), (("1/3", "1/8", "1/32"), GEO_THIRDS),
        (("1/3", "1/16", "1/32"), CONST_THIRD), (("1/3", "1/16", "1/64"), CONST_THIRD)],
    9: [(("2", "0", "1/5", "1/32"), CONST_TWO), (("2", "0", "1/5", "1/64"), CONST_TWO),
        (("1/3", "0", "1/16", "1/64"), CONST_THIRD), (("1/3", "0", "1/16", "1/32"), CONST_THIRD),
        (("2", "0", "0", "1/8"), GEO_QUARTERS), (("2", "0", "0", "1/5"), GEO_QUARTERS)],
    10: [(("3/2", "1/16", "1/64"), GEO_QUARTERS), (("2", "0", "1/16"), DYADIC),
         (("1", "1/16", "1/64"), GEO_QUARTERS), (("1", "1/16", "1/32"), GEO_QUARTERS),
         (("1/2", "1/16", "1/32"), GEO_QUARTERS)],
    11: [(("1", "0", "1/16", "1/64"), GEO_QUARTERS), (("1/2", "0", "1/16", "1/32"), GEO_QUARTERS),
         (("1", "0", "1/16", "1/32"), GEO_QUARTERS), (("1/3", "0", "1/8", "1/64"), CONST_THIRD)],
}
# powers of two: scaling by them leaves the cost of the exact arithmetic
# nearly unchanged, where other factors move it by up to 2x
SCALES = ("1/4", "1/2", "1", "2", "4")

# increasing sequences given by their differences, with two positive steps;
# each splits in a few milliseconds into at most 20 flattened entries
SETTLE_DELTAS = [
    ("1/2", "1/32"), ("1/3", "1/16"), ("1/3", "1/32"), ("1/2", "1/16"), ("1/2", "3/32"),
    ("1/3", "1/5"), ("1/3", "1/8"), ("1/3", "3/32"), ("1/2", "0", "1/32"), ("1", "1/16"),
    ("1", "1/32"), ("1/2", "1/5"), ("1/2", "1/8"), ("1/3", "1/4"), ("3/4", "1/32"),
    ("1", "0", "1/32"), ("1/2", "0", "1/16"), ("1/2", "0", "3/32"), ("1/3", "0", "1/32"),
    ("3/4", "0", "1/32"), ("1", "3/32"), ("1/2", "1/4"), ("1/2", "0", "1/8"), ("1", "1/8"),
    ("3/4", "1/16"), ("5/4", "1/32"), ("1", "0", "1/16"), ("3/4", "0", "1/16"), ("1", "1/5"),
    ("3/4", "3/32"), ("1", "0", "3/32"), ("1/2", "0", "1/5"), ("1/3", "0", "1/16"),
    ("3/4", "0", "3/32"), ("1", "1/4"), ("3/2", "1/8"), ("3/4", "1/8"), ("1", "0", "1/8"),
    ("1/2", "0", "1/4"), ("3/4", "0", "1/8"), ("5/4", "3/32"), ("1/3", "0", "3/32"),
    ("3/2", "1/5"),
]

# fifteen shapes, cheapest first: the median falls in the middle of the
# three width-8 splits and the 90th percentile in the middle of the three
# width-11 ones
SCHEDULE = ([("modulus", None)] * 3 + [("settle", None)] * 3
            + [("split", w) for w in (8, 8, 8, 9, 9, 10, 11, 11, 11)])

CLEARANCE_SAMPLE = 256


def _scaled_tail(tail, c):
    if tail[0] == "constant":
        return ("constant", tail[1] * c)
    return ("geometric", tail[1] * c, tail[2])


def _increasing(deltas):
    acc, prefix = Q(0), []
    for d in deltas:
        acc += Q(d)
        prefix.append(acc)
    return tuple(prefix)


def make(rng, shape) -> dict:
    kind, width = shape
    if kind == "split":
        xs, tail = rng.choice(SPLIT_CLASSES[width])
        c = Q(rng.choice(SCALES))
        return {"kind": "split", "x": tuple(Q(v) * c for v in xs),
                "b": _scaled_tail(tail, c), "sample_seed": rng.randrange(2 ** 32)}
    a = _increasing(rng.choice(SETTLE_DELTAS))
    if kind == "settle":
        perms = []
        for _ in range(4):
            size = rng.randrange(2, 24)
            idx = list(range(size))
            rng.shuffle(idx)
            perms.append({i: v for i, v in enumerate(idx) if i != v})
        return {"kind": "settle", "a": a, "perms": tuple(perms),
                "exponents": tuple(rng.sample(range(1, 7), 3))}
    # partially Cauchy inputs: a rational prefix with a constant tail, or a
    # geometric sequence, with a window map a little above the identity
    if rng.random() < 0.5:
        prefix = tuple(Q(rng.randrange(-8, 9), rng.randrange(1, 6))
                       for _ in range(rng.randrange(1, 10)))
        x = (prefix, ("constant", prefix[-1]))
    else:
        x = ((), ("geometric", Q(rng.randrange(1, 6), rng.randrange(1, 4)),
                  Q(1, rng.randrange(2, 5))))
    return {"kind": "modulus", "a": a, "x": x,
            "jitter": tuple(rng.randrange(0, 4) for _ in range(48)),
            "exponents": tuple(rng.sample(range(0, 8), 4))}


def _seq(api, prefix, tail):
    mk = api.cauchy.RationalSeq.make
    if tail[0] == "constant":
        return mk(prefix, "constant", tail[1])
    return mk(prefix, "geometric", tail[1], tail[2])


# -- split -------------------------------------------------------------------


def run_split(api, calls, p):
    cauchy = api.cauchy
    x = api.cauchy.RationalSeq.make(p["x"])
    ledger = calls.call("cauchy", cauchy.protected_split, x, _seq(api, (), p["b"]),
                        len(p["x"]))
    report = calls.call("cauchy", cauchy.verify_clearances, ledger, Q(0))
    return ledger, report


def check_split(api, p, out, counts):
    ledger, report = out
    counts["cauchy.protections"] += len(ledger.protections)
    counts["cauchy.clearances_checked"] += (
        sum(s.checked for s in ledger.stages) + report.pairs_checked)
    counts["cauchy.subset_states"] += sum(
        2 ** ledger.block_start[i] for i, s in enumerate(ledger.stages) if s.positive)
    if not report.ok or report.pairs_checked != len(ledger.protections):
        return f"verify_clearances: {report.to_json()['failures'][:1]}"
    flat = []
    for s, rec in enumerate(ledger.stages):
        xs = p["x"][s]
        if rec.k % 2 != 1 or len(rec.y) != rec.k:
            return f"stage {s}: block of {len(rec.y)} entries, k = {rec.k}"
        piece = xs / rec.k
        if rec.y != tuple(piece if j % 2 == 0 else -piece for j in range(rec.k)):
            return f"stage {s}: block is not the alternating split of {xs}"
        flat.extend(rec.y)
    if tuple(flat) != tuple(ledger.flat):
        return "flattened entries disagree with the stage blocks"
    total = sum(flat, Q(0))
    keys = sorted(ledger.protections)
    rng = random.Random(p["sample_seed"])
    for mask, n in rng.sample(keys, min(CLEARANCE_SAMPLE, len(keys))):
        clear = abs(abs(total - refs.subset_sum(flat, mask)) - refs.seq_value((), p["b"], n))
        if not clear > ledger.protections[(mask, n)]:
            return f"pair ({mask}, {n}) clears by {clear} only"
    return None


# -- settle ------------------------------------------------------------------


def run_settle(api, calls, p):
    cauchy = api.cauchy
    a = cauchy.RationalSeq.make(p["a"], "constant", p["a"][-1])
    series = calls.call("cauchy", cauchy.split_series_for, a)
    f = cauchy.exact_modulus(a, len(p["a"]) + 4)
    got = []
    for perm in p["perms"]:
        spec = cauchy.PermutationSpec.from_mapping(perm)
        for n in p["exponents"]:
            got.append(calls.call("cauchy", cauchy.settling_index, series, spec, n, f))
    return series, got


def check_settle(api, p, out, counts):
    series, got = out
    ledger = series.ledger
    counts["cauchy.protections"] += len(ledger.protections)
    counts["cauchy.subset_states"] += sum(
        2 ** ledger.block_start[i] for i, s in enumerate(ledger.stages) if s.positive)
    flat = list(ledger.flat)
    if sum(abs(v) for v in flat) != p["a"][-1]:
        return "split entries do not carry the sequence's mass"
    it = iter(got)
    for perm in p["perms"]:
        for n in p["exponents"]:
            want = refs.brute_settling(flat, perm, n)
            value = next(it)
            if value != want:
                return f"settling_index {value} != brute force {want} (n={n})"
    return None


# -- modulus -----------------------------------------------------------------


def _x_modulus(x):
    """A valid Cauchy modulus of the generated sequence, from its shape."""
    prefix, tail = x
    if tail[0] == "geometric":
        c, r = tail[1], tail[2]

        def geometric(n: int) -> int:
            m = 0
            while c * r ** m >= Q(1, 2 ** n):
                m += 1
            return m
        return geometric
    # constant tail: past the last index whose value differs from the tail
    # by 2^-n or more, every pair stays within 2^-n
    values = list(prefix)

    def constant(n: int) -> int:
        start = 0
        for i, v in enumerate(values):
            if abs(v - tail[1]) * 2 >= Q(1, 2 ** n):
                start = i + 1
        return start
    return constant


def run_modulus(api, calls, p):
    cauchy, k2 = api.cauchy, api.k2
    a = cauchy.RationalSeq.make(p["a"], "constant", p["a"][-1])
    series = calls.call("cauchy", cauchy.split_series_for, a)
    g_abs = cauchy.abs_sum_modulus(series.ledger)
    transferred = calls.call("cauchy", cauchy.modulus_from_abs_sums, series.ledger, g_abs)
    horizon = len(p["a"]) + 24
    fvals = [transferred(n) for n in range(13)]
    x = _seq(api, *p["x"])
    f = cauchy.Modulus(_x_modulus(p["x"]))
    jitter = p["jitter"]
    g, meter = k2.with_usage_tracking(
        k2.Oracle(lambda m: m + (jitter[m] if m < len(jitter) else 0), label="bench-g"))
    idx = [calls.call("cauchy", cauchy.partially_cauchy_index, x, f, g, n)
           for n in p["exponents"]]
    return fvals, horizon, idx, meter


def check_modulus(api, p, out, counts):
    fvals, horizon, idx, meter = out
    counts["k2.oracle_queries"] += meter.count
    prefix = p["a"]

    def a_val(i):
        return refs.seq_value(prefix, ("constant", prefix[-1]), i)

    bad = refs.modulus_holds(a_val, lambda n: fvals[n], horizon, len(fvals) - 1)
    if bad is not None:
        return f"transferred modulus fails at (n, i, j) = {bad}"
    xp, xt = p["x"]
    modulus = _x_modulus(p["x"])
    jitter = p["jitter"]

    def top(m):
        return m + (jitter[m] if m < len(jitter) else 0)

    for n, got in zip(p["exponents"], idx):
        want = refs.brute_pc_index(lambda i: refs.seq_value(xp, xt, i), top,
                                   modulus(n + 1), n)
        if got != want:
            return f"partially_cauchy_index {got} != brute force {want} (n={n})"
    return None


KINDS = {"split": (run_split, check_split), "settle": (run_settle, check_settle),
         "modulus": (run_modulus, check_modulus)}
