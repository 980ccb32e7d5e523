"""Baire-space oracles and the partial application operators.

The universe is the set of total functions from naturals to naturals,
presented as queryable deterministic oracles.  On top of that sit the
sequence codec, finite partial functions, prefix extraction, cons, and
the fuel-bounded star / bullet application operators that make the
space a partial applicative structure.

Partiality is finitized: a search that the classical definition leaves
undefined is an exhausted ``PartialResult`` here, never nontermination,
and a bounded search of a later layer that stops raises ``Exhausted``
with its reason.  All arithmetic is exact (arbitrary-precision ints);
each appended element squares a sequence code (its bit length doubles),
so prefix scans must stay shallow: depth ~22 is the practical ceiling
(README, "A note on scale", has the timings); ``code_size`` bounds the
bit length of a code without building it.  A pairing is one squaring
of the sum of its arguments, by ``_square``: CPython's own below 2^15
bits, Toom-3 up to 2^18 and one Schonhage-Strassen level, an exact FFT
modulo 2^K + 1, from there.  A scan that runs out of fuel still reads
its argument at the last index but does not build the code of that
prefix, which no query would read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence


class SpecError(ValueError):
    """A malformed input document (oracle spec, sequence spec, ...)."""


class Exhausted(Exception):
    """A bounded search stopped before it found an answer.  ``reason``
    names the bound it met: ``fuel``, ``depth`` (a resolution or a code
    size), ``state`` (a state cap) or ``budget`` (a step budget), and
    ``amounts`` the numbers that go with it, such as a ``width``."""

    def __init__(self, message: str, reason: str, **amounts: int):
        assert reason in ("fuel", "depth", "state", "budget"), reason
        super().__init__(message)
        self.reason = reason
        self.amounts = amounts

    def to_json(self) -> dict:
        return {"error": str(self), "reason": self.reason, **self.amounts}


# ---------------------------------------------------------------------------
# Sequence codec
#
# code(<>) = 0 and code(s + [a]) = pair(code(s), a) + 1 with the Cantor
# pairing pair(x, y) = (x+y)(x+y+1)/2 + y.  Every natural decodes, and the
# code strictly dominates every value that occurs in the sequence.
# ---------------------------------------------------------------------------


def cantor_pair(x: int, y: int) -> int:
    # a square rather than s * (s + 1): CPython squares faster than it
    # multiplies, and _square beats its squaring on long codes
    s = x + y
    return (_square(s) + s >> 1) + y


# Below _SQUARE_CUTOFF bits _square is CPython's own (Karatsuba) squaring;
# from there one Toom-3 level over builtin limb squares is faster, and from
# _SSA_CUTOFF on one Schonhage-Strassen level is faster still, on CPython
# 3.11 (both measured by scripts/square_bench.py).
_SQUARE_CUTOFF = 1 << 15
_SSA_CUTOFF = 1 << 18


def _square(a: int) -> int:
    """a * a, by Toom-3 from ``_SQUARE_CUTOFF`` bits and by ``_ssa_square``
    from ``_SSA_CUTOFF`` bits on.

    |a| = a0 + a1 X + a2 X^2 with X = 2^k splits into three k-bit limbs,
    the limb polynomial is squared at 0, 1, -1, -2 and infinity by
    recursion, and the five coefficients of the square are interpolated
    with Bodrato's sequence ("Towards optimal Toom-Cook multiplication",
    WAIFI 2007): shifts, adds and one exact division by 3.  Each limb,
    value and product is dropped as soon as it is used, and the result is
    built one coefficient at a time, not as a sum of five shifted terms.
    """
    n = a.bit_length()
    if n < _SQUARE_CUTOFF:
        return a * a
    if n >= _SSA_CUTOFF:
        return _ssa_square(a)
    if a < 0:
        a = -a
    k = (n + 2) // 3
    mask = (1 << k) - 1
    a0 = a & mask
    a1 = (a >> k) & mask
    a2 = a >> 2 * k
    del a
    t = a0 + a2
    p1 = t + a1                   # the value at 1
    pm1 = t - a1                  # at -1
    del t, a1
    pm2 = (pm1 + a2 << 1) - a0    # at -2
    r1 = _square(p1)              # r(1)
    del p1
    r3 = (_square(pm2) - r1) // 3  # (r(-2) - r(1)) / 3
    del pm2
    r2 = _square(pm1)             # r(-1)
    del pm1
    r1 = r1 - r2 >> 1             # (r(1) - r(-1)) / 2
    r0 = _square(a0)              # r(0)
    del a0
    r2 -= r0                      # r(-1) - r(0)
    r4 = _square(a2)              # r(infinity)
    del a2
    r3 = (r2 - r3 >> 1) + (r4 << 1)
    r2 += r1 - r4
    r1 -= r3
    # r0 + r1 X + r2 X^2 + r3 X^3 + r4 X^4, highest coefficient first
    r4 = (r4 << k) + r3
    del r3
    r4 = (r4 << k) + r2
    del r2
    r4 = (r4 << k) + r1
    del r1
    return (r4 << k) + r0


def _ssa_shape(n: int) -> tuple[int, int, int]:
    """(k, bytes per piece, K) of ``_ssa_square`` on an n-bit square, n >= 16:
    2^k pieces of whole bytes cover n bits, and K is the least multiple of
    2^k with K >= 2M + k + 1 for M bits per piece."""
    k = (n.bit_length() + 1) // 2 - (3 if n < 1 << 20 else 2)
    mb = -(-n // (8 << k))
    return k, mb, -(-(16 * mb + k + 1) >> k) << k


def _ssa_square(a: int) -> int:
    """a * a by one Schonhage-Strassen level over builtin squares, for a of
    16 bits or more (Schonhage and Strassen, Computing 7, 1971; Brent and
    Zimmermann, Modern Computer Arithmetic, 2010, section 2.3).

    |a| splits into N = 2^k pieces of M bits, whose polynomial is squared
    by a cyclic convolution of length 2N modulo p = 2^K + 1.  With
    K >= 2M + k + 1 each coefficient of the square, at most N (2^M - 1)^2,
    is below p, so the convolution is exact; K is a multiple of N, so
    w = 2^(K/N) is a 2N-th root of unity mod p and every twiddle is a shift
    and a fold (lo + 2^K hi is lo - hi mod p).  The forward transform
    decimates in frequency and leaves its values in bit-reversed order, and
    the inverse decimates in time and takes them back, so no permutation
    runs.  Both work in place on one list, and the coefficients are
    carried into the result byte chunk by chunk, each dropped once used.
    """
    if a < 0:
        a = -a
    k, mb, K = _ssa_shape(a.bit_length())
    N = 1 << k
    L = 2 * N
    M = 8 * mb
    p = (1 << K) + 1
    mask = (1 << K) - 1
    raw = a.to_bytes(N * mb, "little")
    A = [int.from_bytes(raw[i:i + mb], "little") for i in range(0, N * mb, mb)]
    del raw
    # the first forward stage: the top half is zero, so it is the bottom
    # half times w^j
    s = K // N
    for j in range(N):
        t = A[j] << j * s
        t = (t & mask) - (t >> K)
        A.append(t + p if t < 0 else t)
    h = N >> 1
    while h:            # (u, v) -> (u + v, (u - v) w^(jN/h))
        s = K // h
        for j in range(h):
            e = j * s                     # w^(jN/h) is 2^e
            for i in range(j, L, 2 * h):
                u = A[i]
                v = A[i + h]
                x = u + v
                A[i] = x - p if x >= p else x
                t = u - v << e
                t = (t & mask) - (t >> K)
                if t < 0:
                    t += p
                elif t >= p:
                    t -= p
                A[i + h] = t
        h >>= 1
    for i in range(L):
        x = A[i]
        x *= x
        x = (x & mask) - (x >> K)
        A[i] = x + p if x < 0 else x
    h = 1
    while h < L:        # (u, v) -> (u + v w^-(jN/h), u - v w^-(jN/h))
        s = K // h
        for j in range(h):
            e = K - j * s                 # w^-(jN/h) is -2^e
            for i in range(j, L, 2 * h):
                t = A[i + h] << e
                t = (t & mask) - (t >> K)
                u = A[i]
                x = u - t
                A[i] = x + p if x < 0 else x - p if x >= p else x
                x = u + t
                A[i + h] = x + p if x < 0 else x - p if x >= p else x
        h <<= 1
    # divide by 2N: times 2^(2K - k - 1), which is -2^(K - k - 1) mod p
    e = K - k - 1
    low = (1 << M) - 1
    out = bytearray()
    carry = 0
    for i in range(L):
        t = A[i] << e
        A[i] = None
        t = (t >> K) - (t & mask)
        carry += t + p if t < 0 else t
        out += (carry & low).to_bytes(mb, "little")
        carry >>= M
    return int.from_bytes(out, "little")


def cantor_unpair(z: int) -> tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def encode_seq(values: Iterable[int]) -> int:
    code = 0
    for a in values:
        if a < 0:
            raise ValueError("sequence entries must be naturals")
        code = cantor_pair(code, a) + 1
    return code


# the mantissa bits of the bounds of code_size
_SIZE_PRECISION = 128


def _rounded(m: int, e: int, up: bool) -> tuple[int, int]:
    """m 2^e as m' 2^e' with m' of at most ``_SIZE_PRECISION`` bits, rounded
    down or up."""
    t = m.bit_length() - _SIZE_PRECISION
    if t <= 0:
        return m, e
    m = -(-m >> t) if up else m >> t
    if m.bit_length() > _SIZE_PRECISION:  # rounded up to 2^_SIZE_PRECISION
        m >>= 1
        t += 1
    return m, e + t


def _next_code_bound(m: int, e: int, a: int, up: bool) -> tuple[int, int]:
    """A bound m' 2^e' on pair(code, a) + 1, below it or above it as ``up``
    says, from the like bound m 2^e on the code: the new code is monotone
    in the old one."""
    # s = code + a: exact while a reaches the exponent, else a only
    # moves the upper bound, by at most one unit of 2^e
    if e <= a.bit_length():
        s, e = _rounded((m << e) + a, 0, up)
    else:
        s, e = _rounded(m + (1 if up and a else 0), e, up)
    if e == 0:
        return _rounded((_square(s) + s >> 1) + a + 1, 0, up)
    # (s^2 2^2e + s 2^e) / 2 + a + 1: the last three terms come to at most
    # 2^(2e-1) once e passes both the precision and a's bits, since
    # s < 2^_SIZE_PRECISION; below that they are rounded up exactly
    if not up:
        return _rounded(_square(s), 2 * e - 1, False)
    if e > max(_SIZE_PRECISION, a.bit_length()):
        rest = 1
    else:
        rest = -(-((s << e - 1) + a + 1) >> 2 * e - 1)
    return _rounded(_square(s) + rest, 2 * e - 1, True)


def code_size(values: Iterable[int]) -> tuple[int, int]:
    """The least and the greatest bit length that ``encode_seq(values)``
    can have, found without building the code: equal where the size is
    decided.

    The code is held between m 2^e below and m' 2^e' above, each mantissa
    rounded outward to ``_SIZE_PRECISION`` bits after every step (Brent
    and Zimmermann, Modern Computer Arithmetic, 2010, ch. 1 and 3, on
    truncated products).  A step is monotone in the code, so the bounds
    hold whatever the rounding.  They are exact while the code and the
    entries have at most ``_SIZE_PRECISION`` bits; after that each step
    doubles their relative width, so they part where the code lies near a
    power of two, and from about 120 entries on, where the bit count is
    still known to about 100 of its leading bits.  A step squares two
    mantissas and doubles two exponents, whose bits grow by one a step."""
    lo = hi = (0, 0)
    for a in values:
        if a < 0:
            raise ValueError("sequence entries must be naturals")
        lo = _next_code_bound(*lo, a, False)
        hi = _next_code_bound(*hi, a, True)
    return (lo[0].bit_length() + lo[1] if lo[0] else 0,
            hi[0].bit_length() + hi[1] if hi[0] else 0)


def decode_seq(code: int) -> tuple[int, ...]:
    if code < 0:
        raise ValueError("codes are naturals")
    out: list[int] = []
    while code > 0:
        code, a = cantor_unpair(code - 1)
        out.append(a)
    out.reverse()
    return tuple(out)


def encode_pair(n: int, m: int) -> int:
    """Code of the two-element sequence (n, m)."""
    return encode_seq((n, m))


def decode_pair(code: int) -> Optional[tuple[int, int]]:
    """Decode a code as a two-element sequence, or None if it has another length."""
    s = decode_seq(code)
    if len(s) != 2:
        return None
    return s[0], s[1]


# ---------------------------------------------------------------------------
# Finite partial functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinPartialFn:
    """A finite partial function from naturals to naturals.

    ``entries`` is kept sorted by index; the subfunction order ``extends``
    is containment of graphs.  A finite sequence is the special case whose
    domain is an initial segment.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = -1
        try:
            for k, v in self.entries:
                if k <= last or v < 0:
                    break
                last = k
            else:
                return  # strictly increasing naturals, in one pass
        except TypeError:
            pass
        idxs = [k for k, _ in self.entries]
        if any(k < 0 for k in idxs) or any(v < 0 for _, v in self.entries):
            raise ValueError("finite partial functions map naturals to naturals")
        if len(set(idxs)) != len(idxs):
            raise ValueError("duplicate indices")
        if list(idxs) != sorted(idxs):
            object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @classmethod
    def from_dict(cls, d: Mapping[int, int]) -> "FinPartialFn":
        return cls(tuple(sorted(d.items())))

    @classmethod
    def from_seq(cls, values: Sequence[int]) -> "FinPartialFn":
        return cls(tuple(enumerate(values)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    @cached_property
    def initial_run(self) -> int:
        """Largest L with [0, L) contained in the domain."""
        run = 0
        for k, _ in self.entries:
            if k == run:
                run += 1
            elif k > run:
                break
        return run

    def prefix_code(self, length: int) -> int:
        """Code of the length-``length`` initial restriction (must exist)."""
        if not 0 <= length <= self.initial_run:
            raise ValueError("not defined on that initial segment")
        return encode_seq(v for _, v in self.entries[:length])

    # Pairing of partial functions by even/odd interleaving.  The pair of
    # two finite sequences is a finite partial function, possibly with a
    # gap when the lengths differ.

    @classmethod
    def interleave(cls, left: "FinPartialFn", right: "FinPartialFn") -> "FinPartialFn":
        d = {2 * k: v for k, v in left.entries}
        d.update({2 * k + 1: v for k, v in right.entries})
        return cls.from_dict(d)

    def split(self) -> tuple["FinPartialFn", "FinPartialFn"]:
        left = {k // 2: v for k, v in self.entries if k % 2 == 0}
        right = {k // 2: v for k, v in self.entries if k % 2 == 1}
        return FinPartialFn.from_dict(left), FinPartialFn.from_dict(right)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class Oracle:
    """A deterministic total function from naturals to naturals.

    An oracle is anything with a ``label`` and ``__call__(k)``.  This class,
    the opaque-rule kind, runs its rule on every query and checks that each
    answer is a natural; like every oracle here it keeps nothing, and a
    caller that reads one code again (the base realizer) keeps the answer
    itself.  The table, pair and recording kinds answer from their
    description; they subclass this class for its name and ``repr`` only.
    """

    def __init__(self, fn: Callable[[int], int], label: str = "oracle"):
        self._fn = fn
        self.label = label

    def __call__(self, k: int) -> int:
        if k < 0:
            raise ValueError("oracle indices are naturals")
        v = self._fn(k)
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"{self.label} returned a non-natural at {k}: {v!r}")
        return v

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class TableOracle(Oracle):
    """Finite table plus a constant tail; the finitely-described oracle kind.

    A query is one lookup, and no code it was asked about is kept.  The
    description (``table``, ``tail_value``) is exposed so that exact
    point-level computations (metrics, projections) can use it.
    """

    def __init__(self, table: Mapping[int, int], tail_value: int, label: str = "table"):
        self.table = dict(table)
        self.tail_value = tail_value
        self.label = label
        if any(k < 0 or v < 0 for k, v in self.table.items()) or tail_value < 0:
            raise ValueError("table oracles map naturals to naturals")

    def __call__(self, k: int) -> int:
        if k < 0:
            raise ValueError("oracle indices are naturals")
        return self.table.get(k, self.tail_value)

    @property
    def support_end(self) -> int:
        return max(self.table) + 1 if self.table else 0


class PairOracle(Oracle):
    """Even/odd interleaving of two oracles, kept structural for projection;
    a query is answered by one query of ``left`` or ``right``."""

    def __init__(self, left: Oracle, right: Oracle, label: str = "pair"):
        self.left = left
        self.right = right
        self.label = label

    def __call__(self, k: int) -> int:
        if k < 0:
            raise ValueError("oracle indices are naturals")
        return self.left(k // 2) if k % 2 == 0 else self.right(k // 2)


def constant(v: int, label: Optional[str] = None) -> TableOracle:
    return TableOracle({}, v, label=label or f"const:{v}")


def identity_oracle() -> Oracle:
    return Oracle(lambda k: k, label="identity")


def star_name() -> TableOracle:
    """The distinguished added-point name: the constant zero function."""
    return constant(0, label="star")


def from_values(values: Sequence[int], tail_value: int = 0,
                label: str = "vals") -> TableOracle:
    return TableOracle({i: v for i, v in enumerate(values)}, tail_value, label=label)


def pair_names(f: Oracle, g: Oracle) -> Oracle:
    """Interleave two oracles: result(2n) = f(n), result(2n+1) = g(n)."""
    if isinstance(f, TableOracle) and isinstance(g, TableOracle) \
            and f.tail_value == g.tail_value:
        table = {2 * k: v for k, v in f.table.items()}
        table.update({2 * k + 1: v for k, v in g.table.items()})
        return TableOracle(table, f.tail_value, label=f"<{f.label},{g.label}>")
    return PairOracle(f, g, label=f"<{f.label},{g.label}>")


def project_names(h: Oracle) -> tuple[Oracle, Oracle]:
    """Invert pair_names: the even part and the odd part."""
    if isinstance(h, PairOracle):
        return h.left, h.right
    if isinstance(h, TableOracle):
        left = {k // 2: v for k, v in h.table.items() if k % 2 == 0}
        right = {k // 2: v for k, v in h.table.items() if k % 2 == 1}
        return (TableOracle(left, h.tail_value, label=f"{h.label}.L"),
                TableOracle(right, h.tail_value, label=f"{h.label}.R"))
    return (Oracle(lambda k: h(2 * k), label=f"{h.label}.L"),
            Oracle(lambda k: h(2 * k + 1), label=f"{h.label}.R"))


# ---------------------------------------------------------------------------
# Usage tracking
# ---------------------------------------------------------------------------


class RecordingOracle(Oracle):
    """An oracle read through a transcript of its (index, value) reads in
    query order; the transcript is the oracle's usage record, and every
    read goes to ``inner``."""

    def __init__(self, inner: Oracle):
        self.inner = inner
        self.transcript: list[tuple[int, int]] = []

    @property
    def label(self) -> str:
        return f"recorded({self.inner.label})"

    def __call__(self, k: int) -> int:
        if k < 0:
            raise ValueError("oracle indices are naturals")
        v = self.inner(k)
        self.transcript.append((k, v))
        return v

    @property
    def count(self) -> int:
        return len(self.transcript)

    @property
    def max_index(self) -> int:
        """The largest index read, 0 before any read."""
        return max((k for k, _ in self.transcript), default=0)


def with_usage_tracking(f: Oracle) -> tuple[RecordingOracle, RecordingOracle]:
    """f read through a recording oracle, and that oracle again as its own
    usage meter."""
    rec = RecordingOracle(f)
    return rec, rec


# ---------------------------------------------------------------------------
# Application operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialResult:
    """Outcome of a fuel-bounded search: a value or exhaustion.

    ``fired_at`` records the scan index that produced a star value, when
    one applies.  Exhausted results never carry a value.
    """

    value: Optional[int]
    spent: int
    fired_at: Optional[int] = None

    @classmethod
    def of(cls, value: int, spent: int, fired_at: Optional[int] = None) -> "PartialResult":
        return cls(value=value, spent=spent, fired_at=fired_at)

    @classmethod
    def exhausted(cls, spent: int) -> "PartialResult":
        return cls(value=None, spent=spent)

    @property
    def is_value(self) -> bool:
        return self.value is not None

    def to_json(self) -> dict:
        if self.is_value:
            return {"kind": "value", "value": self.value, "fired_at": self.fired_at,
                    "spent": self.spent}
        return {"kind": "exhausted", "spent": self.spent}


def bar(f: Oracle, n: int) -> int:
    """Code of the length-n prefix of f; bar(f, 0) = 0."""
    return encode_seq(f(k) for k in range(n))


def cons(n: int, g: Oracle) -> Oracle:
    """Prepend a value: result(0) = n, result(k+1) = g(k)."""
    # the head can be an enormous sequence code; keep it out of the label
    return Oracle(lambda k: n if k == 0 else g(k - 1), label=f"cons(.,{g.label})")


class Fuel:
    """A fuel budget that nested scans draw on: each scan round takes one
    unit from ``left``."""

    def __init__(self, left: int):
        self.left = left


def star(f: Oracle, g: Oracle, fuel: int | Fuel,
         max_depth: Optional[int] = None) -> PartialResult:
    """Apply a function name to an argument: f(prefix-code of g) - 1 at the
    least prefix length where f answers positively.

    Each round draws one unit of fuel, stops the scan if its prefix is
    longer than ``max_depth``, then queries f.  ``fuel`` is a count or a
    shared ``Fuel`` that the oracles f and g may draw on too.  The round
    that reads g(n) builds the code of the next prefix only when the next
    round will pass both checks, so an exhausted scan reads g at every
    index it reached but builds only the codes f is queried on: with a
    count and no depth bound, fuel-1 pairings, not fuel.  ``spent`` is the
    number of draws this scan made."""
    if not isinstance(fuel, Fuel):
        if fuel < 0:
            raise ValueError("fuel must be a natural")
        fuel = Fuel(fuel)
    code = 0
    n = 0
    while fuel.left > 0:
        fuel.left -= 1
        if max_depth is not None and n > max_depth:
            return PartialResult.exhausted(n + 1)
        v = f(code)
        if v > 0:
            return PartialResult.of(v - 1, spent=n + 1, fired_at=n)
        a = g(n)
        n += 1
        if fuel.left > 0 and (max_depth is None or n <= max_depth):
            code = cantor_pair(code, a) + 1
    return PartialResult.exhausted(n)


class FueledOracle:
    """Lazy oracle whose every query carries its own fuel budget.

    ``query(k, fuel)`` is a PartialResult; totality is the caller's
    contract, not checked here.
    """

    def __init__(self, query: Callable[[int, int], PartialResult], label: str = "fueled"):
        self._query = query
        self.label = label

    def query(self, k: int, fuel: int) -> PartialResult:
        return self._query(k, fuel)


def bullet(f: Oracle, g: Oracle) -> FueledOracle:
    """Partial application f applied to g index by index:
    query(k, fuel) = star(f, cons(k, g), fuel)."""
    return FueledOracle(lambda k, fuel: star(f, cons(k, g), fuel),
                        label=f"({f.label} . {g.label})")


# ---------------------------------------------------------------------------
# Oracle spec documents
#
# JSON form: {"table": [[i, v], ...],
#             "tail": {"kind": "constant", "value": v}
#                   | {"kind": "registry", "name": "...", "params": {...}}}
# plus the CLI shorthands "const:N", "identity" and "star".
# ---------------------------------------------------------------------------


def spec_int(value) -> int:
    """An integer field of a spec document: a JSON integer or a numeric
    string.  A float or a bool raises ValueError, where ``int`` would
    truncate the one and read the other as 0 or 1."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _eval_arg(recode: Callable[[int], int]) -> Callable[[int], int]:
    # Name of the identity operation on oracles, read through a digitwise
    # recoding: once the argument prefix (k, f(0), ..., f(k)) is long
    # enough, answer recode(f(k)) + 1.
    def fn(code: int) -> int:
        s = decode_seq(code)
        if len(s) >= 1 and len(s) >= s[0] + 2:
            return recode(s[s[0] + 1]) + 1
        return 0
    return fn


def _depth_rule(answer: int, depth: int) -> Callable[[int], int]:
    def rule(code: int) -> int:
        for _ in range(depth):
            if code == 0:
                return 0
            code = cantor_unpair(code - 1)[0]
        return answer
    return rule


def depth_answer(answer: int, depth: int, label: str) -> Oracle:
    """The name answering ``answer`` on every sequence of length at least
    ``depth`` and 0 on every shorter one; a query unpairs at most ``depth``
    times, however long the code."""
    return Oracle(_depth_rule(answer, depth), label=label)


def _registry_depth_answer(params: dict) -> Callable[[int], int]:
    # Answer the fixed pair (n, m) on every sequence of length >= depth.
    depth = spec_int(params.get("depth", 0))
    if depth < 0:
        raise ValueError(f"depth must be a natural: {depth}")
    n = spec_int(params.get("n", 0))
    m = spec_int(params.get("m", 0))
    return _depth_rule(encode_pair(n, m) + 1, depth)


# Each entry returns a plain rule, which the spec's ``Oracle`` checks.
ORACLE_REGISTRY: dict[str, Callable[[dict], Callable[[int], int]]] = {
    "identity": lambda params: lambda k: k,
    "eval_arg": lambda params: _eval_arg(lambda v: v),
    # the digitwise recoding 1 <-> 2 of the argument, other values fixed
    "eval_arg_swap12": lambda params: _eval_arg(lambda v: {1: 2, 2: 1}.get(v, v)),
    "depth_answer": _registry_depth_answer,
}


def parse_oracle_spec(spec) -> Oracle:
    if isinstance(spec, str):
        if spec.startswith("const:"):
            return constant(int(spec.split(":", 1)[1]))
        if spec == "identity":
            return identity_oracle()
        if spec == "star":
            return star_name()
        raise SpecError(f"unknown oracle shorthand: {spec!r}")
    if not isinstance(spec, dict):
        raise SpecError("oracle spec must be a string shorthand or an object")
    table_pairs = spec.get("table", [])
    try:
        table = {spec_int(i): spec_int(v) for i, v in table_pairs}
    except (TypeError, ValueError) as e:
        raise SpecError(f"bad oracle table: {e}")
    tail = spec.get("tail", {"kind": "constant", "value": 0})
    if not isinstance(tail, dict):
        raise SpecError("oracle tail must be an object")
    kind = tail.get("kind")
    if kind == "constant":
        try:
            value = spec_int(tail.get("value", 0))
        except (TypeError, ValueError) as e:
            raise SpecError(f"bad constant tail: {e}")
        return TableOracle(table, value, label="spec")
    if kind == "registry":
        name = tail.get("name")
        if not isinstance(name, str) or name not in ORACLE_REGISTRY:
            raise SpecError(f"unknown registry formula: {name!r}")
        params = tail.get("params", {})
        if not isinstance(params, dict):
            raise SpecError("registry params must be an object")
        try:
            base = ORACLE_REGISTRY[name](params)
        except (TypeError, ValueError) as e:
            raise SpecError(f"bad registry params: {e}")
        return Oracle(lambda k: table[k] if k in table else base(k),
                      label=f"spec:{name}")
    raise SpecError(f"unknown tail kind: {kind!r}")


def oracle_spec_json(f: Oracle) -> dict:
    """Serialize a finitely-described oracle (best effort for others)."""
    if isinstance(f, TableOracle):
        return {"table": sorted([k, v] for k, v in f.table.items()),
                "tail": {"kind": "constant", "value": f.tail_value}}
    raise SpecError(f"oracle {f.label} has no finite description")
