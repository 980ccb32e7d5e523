"""Independent references the benchmark checks every op against.

Nothing here imports ``baire``: each reference is coded from the contract
it checks, so it never calls the function under test.  Inputs are the
benchmark's own plain-data descriptions of what it handed the program.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product

# ---------------------------------------------------------------------------
# Sequence codes: code(<>) = 0, code(s + [a]) = T(code(s) + a) + a + 1 with
# T the triangular numbers, i.e. Cantor pairing plus one.
# ---------------------------------------------------------------------------


def code_append(code: int, a: int) -> int:
    s = code + a
    return ((s * s + s) >> 1) + a + 1


def code_of(values) -> int:
    code = 0
    for a in values:
        code = code_append(code, a)
    return code


def decode(code: int) -> tuple[int, ...]:
    out = []
    while code:
        z = code - 1
        w = (math.isqrt(8 * z + 1) - 1) >> 1
        a = z - ((w * w + w) >> 1)
        out.append(a)
        code = w - a
    return tuple(reversed(out))


def seq_len(code: int) -> int:
    n = 0
    while code:
        z = code - 1
        w = (math.isqrt(8 * z + 1) - 1) >> 1
        code = w - (z - ((w * w + w) >> 1))
        n += 1
    return n


def star(f, g, fuel: int):
    """(value, spent, fired_at), value None when the scan exhausts."""
    code = 0
    for n in range(fuel):
        v = f(code)
        if v > 0:
            return v - 1, n + 1, n
        code = code_append(code, g(n))
    return None, fuel, None


def extract_bound(h, fuel: int):
    """First answer of h on identity prefixes: max(length, answer - 1)."""
    code = 0
    for t in range(fuel):
        v = h(code)
        if v > 0:
            return max(t, v - 1)
        code = code_append(code, t)
    return None


# ---------------------------------------------------------------------------
# Registry points, described as plain data:
#   ("cantor", word, tail)   bits, constant tail bit
#   ("finite", n, c)         point c of {1..n}
#   ("product", p, q)
# ---------------------------------------------------------------------------


def cantor_bit(word, tail, i: int) -> int:
    return word[i] if i < len(word) else tail


def dist(p, q) -> Fraction:
    """Exact point-level metric (max metric on products)."""
    if p[0] == "cantor":
        for i in range(max(len(p[1]), len(q[1])) + 1):
            if cantor_bit(p[1], p[2], i) != cantor_bit(q[1], q[2], i):
                return Fraction(1, 2 ** i)
        return Fraction(0)
    if p[0] == "finite":
        return Fraction(0) if p[2] == q[2] else Fraction(1)
    return max(dist(p[1], q[1]), dist(p[2], q[2]))


def name_value(point, i: int) -> int:
    """Value at index i of the canonical name of a point."""
    if point[0] == "cantor":
        return cantor_bit(point[1], point[2], i) + 1
    if point[0] == "finite":
        return point[2]
    return name_value(point[1] if i % 2 == 0 else point[2], i // 2)


def _in_atom(space, point, sigma: dict, n: int) -> bool:
    """Whether the point lies within 2^-n of a point named by an extension
    of sigma, for a registry space described as plain data."""
    kind = space[0]
    if kind == "cantor":
        if any(v not in (1, 2) for v in sigma.values()):
            return False
        # within 2^-n means agreeing on indices 0..n
        return all(name_value(point, i) == v for i, v in sigma.items() if i <= n)
    if kind == "finite":
        vals = set(sigma.values())
        if len(vals) > 1 or any(not 1 <= v <= space[1] for v in vals):
            return False
        return not vals or point[2] in vals
    left = {i // 2: v for i, v in sigma.items() if i % 2 == 0}
    right = {i // 2: v for i, v in sigma.items() if i % 2 == 1}
    return (_in_atom(space[1], point[1], left, n)
            and _in_atom(space[2], point[2], right, n))


def _points(space, depth: int):
    """Representatives of every class of points that atoms of radius
    exponent below ``depth`` can tell apart."""
    kind = space[0]
    if kind == "cantor":
        return [("cantor", w, 0) for w in product((0, 1), repeat=depth)]
    if kind == "finite":
        return [("finite", space[1], c) for c in range(1, space[1] + 1)]
    return [("product", p, q) for p in _points(space[1], depth)
            for q in _points(space[2], depth)]


def covers(space, atoms) -> bool:
    """Whether the atoms [(sigma dict, n)] cover the whole registry space."""
    if not atoms:
        return False
    depth = max(n for _, n in atoms) + 1
    return all(any(_in_atom(space, p, sigma, n) for sigma, n in atoms)
               for p in _points(space, depth))


def star_onset(entries) -> int:
    """Settling index of an eventually-star sequence: one past the last
    entry that is a real point (None marks the added point)."""
    onset = 0
    for i, e in enumerate(entries):
        if e is not None:
            onset = i + 1
    return onset


# ---------------------------------------------------------------------------
# Rational sequences, described as (prefix, tail) with tail
# ("zero",) | ("constant", c) | ("geometric", base, ratio)
# ---------------------------------------------------------------------------


def seq_value(prefix, tail, i: int) -> Fraction:
    if i < len(prefix):
        return prefix[i]
    if tail[0] == "zero":
        return Fraction(0)
    if tail[0] == "constant":
        return tail[1]
    return tail[1] * tail[2] ** (i - len(prefix))


def brute_settling(flat, perm: dict, n: int) -> int:
    """Least m such that every window [i, j] with i >= m of the rearranged
    series has |sum| < 2^-n, by scanning every window of the finite support."""
    bound = Fraction(1, 2 ** n)
    support = max([len(flat)] + [max(k, v) + 1 for k, v in perm.items()])
    vals = [flat[perm.get(k, k)] if perm.get(k, k) < len(flat) else Fraction(0)
            for k in range(support + 1)]
    last_bad = -1
    for i in range(len(vals)):
        acc = Fraction(0)
        for j in range(i, len(vals)):
            acc += vals[j]
            if abs(acc) >= bound:
                last_bad = i
                break
    return last_bad + 1


def brute_pc_index(values, top, cap: int, n: int) -> int:
    """Least k with every window {x_m..x_top(m)}, m >= k, below 2^-n in
    diameter; windows past ``cap`` are small by the modulus."""
    bound = Fraction(1, 2 ** n)
    last_bad = -1
    for m in range(cap + 1):
        w = [values(i) for i in range(m, top(m) + 1)]
        if max(w) - min(w) >= bound:
            last_bad = m
    return last_bad + 1


def modulus_holds(values, modulus, horizon: int, exponents: int):
    """First (n, i, j) with i, j >= modulus(n) and |x_i - x_j| >= 2^-n,
    scanning up to the horizon; None when the modulus holds there."""
    for n in range(exponents + 1):
        start = modulus(n)
        if start > horizon:
            continue
        w = [values(i) for i in range(start, horizon + 1)]
        if max(w) - min(w) >= Fraction(1, 2 ** n):
            return n, start, horizon
    return None


def subset_sum(flat, mask: int) -> Fraction:
    total = Fraction(0)
    for idx, v in enumerate(flat):
        if mask >> idx & 1:
            total += v
    return total


# ---------------------------------------------------------------------------
# CLI documents
# ---------------------------------------------------------------------------


def cli_document(stdout: str):
    """The single JSON document a CLI call printed, or an error string."""
    try:
        doc = json.loads(stdout)
    except ValueError as e:
        return None, f"stdout is not one JSON document: {e}"
    if not isinstance(doc, dict) or doc.get("schema_version") != "1":
        return None, "document lacks schema_version 1"
    return doc, None
