"""Rational sequences with moduli, protected splitting, and rearrangement.

The inputs here are exact rational sequences given by a finite prefix
plus a tail rule, together with Cauchy moduli.  On top of them sit:

* the protected splitting construction, which splits a non-negative
  sequence into signed blocks whose partial rearranged sums stay
  strictly clear of a forbidden target sequence, with the clearance
  certified stage by stage;

* the window classification and settling index for a finitely-supported
  permutation of the flattened blocks, which together compute the least
  index past which every window of the rearranged series is small;

* the transfer of a modulus for the absolute partial sums back to a
  modulus for the original increasing sequence;

* the window-diameter realizer for partially Cauchy sequences.

Everything is exact rational arithmetic; nothing here approximates.  The
hot loops run on integers: the splitter, its clearance check and the
window search hold every rational multiplied by a common denominator,
and the window search answers its queries from a block max/min index of
the rearranged partial sums.  The splitter also works by class: a
protected pair's gap, clearance floor and stage-end clearance depend only
on its subset sum, its target index and its protection, so each is
computed once per class and counted with the class's size.  The sizes
are counted without a table of the 2^width subset sums: a block of k
alternating entries has k + 1 subset sums, so they are a small
convolution.  Its ledger stores the classes, too; the (mask, n) pairs, and
the table they need, are expanded only for a reader that asks for them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

from .k2 import Exhausted, Oracle, SpecError, spec_int
from .reals import format_rational, parse_rational


# ---------------------------------------------------------------------------
# Sequences and moduli
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalSeq:
    """Exact rational sequence: finite prefix plus a tail rule.

    Tail rules: zero; constant c; geometric with |ratio| < 1 starting at
    ``base`` right after the prefix.  The declared shape flags are
    computed, not trusted.
    """

    prefix: tuple[Fraction, ...]
    tail_kind: str = "zero"
    tail_value: Fraction = Fraction(0)
    tail_ratio: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if self.tail_kind not in ("zero", "constant", "geometric"):
            raise ValueError(f"unknown tail kind {self.tail_kind!r}")
        if self.tail_kind == "geometric" and not abs(self.tail_ratio) < 1:
            raise ValueError("geometric tails need |ratio| < 1")

    @classmethod
    def make(cls, prefix: Iterable, tail_kind: str = "zero",
             tail_value=0, tail_ratio=Fraction(1, 2)) -> "RationalSeq":
        return cls(tuple(Fraction(p) for p in prefix), tail_kind,
                   Fraction(tail_value), Fraction(tail_ratio))

    def value_at(self, i: int) -> Fraction:
        if i < 0:
            raise ValueError("indices are naturals")
        if i < len(self.prefix):
            return self.prefix[i]
        if self.tail_kind == "zero":
            return Fraction(0)
        if self.tail_kind == "constant":
            return self.tail_value
        return self.tail_value * self.tail_ratio ** (i - len(self.prefix))

    @property
    def is_nonneg(self) -> bool:
        if any(p < 0 for p in self.prefix):
            return False
        if self.tail_kind == "zero":
            return True
        return self.tail_value >= 0 and (self.tail_kind == "constant"
                                         or self.tail_ratio >= 0)

    @property
    def has_finite_support(self) -> bool:
        return self.tail_kind == "zero" or self.tail_value == 0

    @property
    def support_end(self) -> int:
        """First index past which the sequence is identically zero, when
        that is a tail-rule fact."""
        if not self.has_finite_support:
            raise ValueError("sequence does not have finite support")
        end = len(self.prefix)
        while end > 0 and self.prefix[end - 1] == 0:
            end -= 1
        return end

    def to_json(self) -> dict:
        tail: dict = {"kind": self.tail_kind}
        if self.tail_kind == "constant":
            tail["value"] = format_rational(self.tail_value)
        if self.tail_kind == "geometric":
            tail["base"] = format_rational(self.tail_value)
            tail["ratio"] = format_rational(self.tail_ratio)
        return {"prefix": [format_rational(p) for p in self.prefix], "tail": tail}


def dyadic_targets() -> RationalSeq:
    """The target sequence b with b_n = 2^-n."""
    return RationalSeq.make([], "geometric", tail_value=1, tail_ratio=Fraction(1, 2))


def parse_seq_spec(spec) -> RationalSeq:
    if spec == "dyadic":
        return dyadic_targets()
    if not isinstance(spec, dict):
        raise SpecError("sequence spec must be an object or 'dyadic'")
    try:
        prefix = [parse_rational(p) for p in spec.get("prefix", [])]
        tail = spec.get("tail", {"kind": "zero"})
        kind = tail["kind"]
        if kind == "zero":
            return RationalSeq.make(prefix)
        if kind == "constant":
            return RationalSeq.make(prefix, "constant",
                                    tail_value=parse_rational(tail.get("value", 0)))
        if kind == "geometric":
            base = tail.get("base")
            if base is None:
                base = prefix[-1] * parse_rational(tail.get("ratio", "1/2")) \
                    if prefix else 1
            return RationalSeq.make(prefix, "geometric",
                                    tail_value=parse_rational(base),
                                    tail_ratio=parse_rational(tail.get("ratio", "1/2")))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise SpecError(f"bad sequence spec: {e}")
    raise SpecError(f"unknown sequence tail kind: {kind!r}")


@dataclass(frozen=True)
class Modulus:
    """A monotone map from precision exponents to start indices."""

    fn: Callable[[int], int]

    def __call__(self, n: int) -> int:
        v = self.fn(n)
        if v < 0:
            raise ValueError("modulus values are naturals")
        return v


@dataclass(frozen=True)
class ModulusReport:
    ok: bool
    counterexample: Optional[tuple[int, int, int]] = None  # (n, i, j)
    checked: int = 0    # exponents whose start lies within the horizon


def is_modulus(f: Modulus, x: RationalSeq, horizon: int) -> ModulusReport:
    """Exhaustive check up to the horizon: |x_i - x_j| < 2^-n whenever
    i, j >= f(n), for all n <= horizon.  An exponent whose start lies past
    the horizon is skipped, and ``checked`` counts the others."""
    checked = 0
    for n in range(horizon + 1):
        start = f(n)
        if start > horizon:
            continue
        checked += 1
        bound = Fraction(1, 2 ** n)
        window = [x.value_at(i) for i in range(start, horizon + 1)]
        hi = max(window)
        lo = min(window)
        if hi - lo >= bound:
            i = start + window.index(hi)
            j = start + window.index(lo)
            return ModulusReport(False, (n, i, j), checked)
    return ModulusReport(True, checked=checked)


def _held(values: list[Fraction], starts: Iterable[int] = (0,)
          ) -> tuple[list[int], int]:
    """The values as integers over the lcm of their denominators, and that
    lcm.

    ``starts`` cut the values into runs, the first starting at 0.  A run
    that alternates between two values, as every block of a split does, is
    scaled from its first two entries; any other run entry by entry.
    """
    runs = [values[a:b] for a, b in itertools.pairwise([*starts, len(values)])]
    # a run alternates when shifting it by two leaves it as it is
    firsts = [run[:2] if run[2:] == run[:-2] else run for run in runs]
    scale = math.lcm(*(v.denominator for first in firsts for v in first))
    held: list[int] = []
    for run, first in zip(runs, firsts):
        scaled = [v.numerator * (scale // v.denominator) for v in first]
        held += scaled if first is run else \
            scaled * (len(run) // 2) + scaled[:len(run) % 2]
    return held, scale


def exact_modulus(x: RationalSeq, horizon: int) -> Modulus:
    """The least valid modulus of an eventually-constant sequence, computed
    from the prefix (requires a zero or constant tail).

    Its value at n is the least start whose suffix x_start, ..., x_end (end
    being the prefix length, where the tail begins) has diameter below 2^-n.
    The values rise with n to the least start of diameter 0 and stay there;
    past n = 65 they stay at their value there.  ``horizon`` is not read.
    """
    if x.tail_kind == "geometric" and x.tail_value != 0:
        raise ValueError("use a hand-built modulus for geometric tails")
    held, scale = _held([x.value_at(i) for i in range(len(x.prefix) + 1)])
    held.reverse()
    diam = [hi - lo for hi, lo in zip(itertools.accumulate(held, max),
                                      itertools.accumulate(held, min))]
    diam.reverse()   # diam[s]: diameter of x_s, ..., x_end, over the scale
    settled = diam.index(0)
    values: list[int] = []
    start = 0
    for n in range(66):
        while diam[start] << n >= scale:
            start += 1
        values.append(start)
        if start == settled:
            break
    last = values[-1]
    return Modulus(lambda m: values[m] if m < len(values) else last)


# ---------------------------------------------------------------------------
# Partially Cauchy realizer
# ---------------------------------------------------------------------------


def partially_cauchy_index(x: RationalSeq, f: Modulus, g: Oracle, n: int) -> int:
    """The least k such that every window {x_m, ..., x_g(m)} with m >= k has
    diameter < 2^-n.

    Past K = f(n+1) every such window is small because all entries are
    within 2^-(n+1) of each other, so scanning m in [0, K] is exhaustive;
    the scan runs down from K and returns one past the first window whose
    max - min reaches 2^-n.  Rejects g below the identity on the scanned
    range.
    """
    if n < 0:
        raise ValueError(f"the exponent n must be a natural, got {n}")
    bound = Fraction(1, 2 ** n)
    cap = f(n + 1)
    for m in range(cap, -1, -1):
        top = g(m)
        if top < m:
            raise ValueError(f"g({m}) = {top} < {m}: not above the identity")
        window = [x.value_at(i) for i in range(m, top + 1)]
        if max(window) - min(window) >= bound:
            return m + 1
    return 0


# ---------------------------------------------------------------------------
# Protected splitting
# ---------------------------------------------------------------------------


class ClearanceViolation(Exception):
    """The stage invariant failed; carries the full ledger for inspection."""

    def __init__(self, ledger: "SplitterLedger", detail: str):
        self.ledger = ledger
        self.detail = detail
        super().__init__(detail)


@dataclass
class ProtectedRange:
    """The pairs (A, n) one positive stage protects for one target index n.

    They are the masks A in [lo, hi), hi being 2^width, with n fixed.  A
    pair's protection depends only on the subset sum of A, so it is kept
    once per sum: half the gap |sum over entries outside A| vs b_n for a
    sum off b_n (case 2), and x_s / (2k) for a sum on it (case 3).  A sum
    is held as an integer over its stage record's ``scale``.
    """

    n: int
    lo: int
    hi: int
    by_gap: dict[int, Fraction]      # case 2: subset sum -> protection
    on_target: dict[int, Fraction]   # case 3: subset sum -> protection


@dataclass
class StageRecord:
    stage: int
    x: Fraction
    positive: bool
    k: int
    y: tuple[Fraction, ...]
    t: Optional[Fraction]          # None encodes "no protected pair yet"
    checked: int = 0               # clearance checks performed at stage end
    entries: tuple[Fraction, ...] = ()           # the entries A ranges over
    scale: int = 1                               # denominator of the ranges' sums
    ranges: tuple[ProtectedRange, ...] = ()      # one per n <= stage

    @property
    def case2(self) -> tuple[tuple[int, int], ...]:
        """(mask, n) protected at this stage by their gap, in mask order
        for each n; expanded from the ranges on every read."""
        return tuple(key for key, _ in _expand(self)[0])

    @property
    def case3(self) -> tuple[tuple[int, int], ...]:
        """(mask, n) protected at this stage on their target, likewise."""
        return tuple(key for key, _ in _expand(self)[1])

    def to_json(self) -> dict:
        case2, case3 = _expand(self)
        return {
            "stage": self.stage,
            "x": format_rational(self.x),
            "positive": self.positive,
            "k": self.k,
            "y": [format_rational(v) for v in self.y],
            "t": format_rational(self.t) if self.t is not None else "inf",
            "case2": [[m, n] for (m, n), _ in case2],
            "case3": [[m, n] for (m, n), _ in case3],
            "clearances_checked": self.checked,
        }


def _mask_sums(entries: Iterable[Fraction], scale: int) -> list[int]:
    """The subset sums of the entries, held over ``scale``, indexed by mask:
    the table of the pair views and of the stage-end failure message."""
    sums = [0]
    for v in entries:
        held = v.numerator * (scale // v.denominator)
        sums += [u + held for u in sums]
    return sums


def _expand(rec: StageRecord) -> tuple[list, list]:
    """The ((mask, n), protection) pairs a stage protects, case 2 and case
    3 apart, each in ledger order: by n, then by mask.

    Rebuilds the subset sums of the stage's entries, over the record's
    scale, for the length of the call only.
    """
    sums = _mask_sums(rec.entries, rec.scale)
    case2: list = []
    case3: list = []
    for g in rec.ranges:
        keys = zip(range(g.lo, g.hi), itertools.repeat(g.n))
        if not g.on_target:
            case2 += zip(keys, map(g.by_gap.__getitem__, sums[g.lo:g.hi]))
            continue
        for key, v in zip(keys, sums[g.lo:g.hi]):
            if v in g.by_gap:
                case2.append((key, g.by_gap[v]))
            else:
                case3.append((key, g.on_target[v]))
    return case2, case3


class _Protections(Mapping):
    """The read-only (mask, n) -> protection view of a ledger.

    Its length and single lookups come from the ranges directly; iterating
    it expands the ranges stage by stage, in the order the pairs were
    protected.
    """

    def __init__(self, stages: list[StageRecord]):
        self._stages = stages

    def __len__(self) -> int:
        return sum(g.hi - g.lo for rec in self._stages for g in rec.ranges)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        mask, n = key
        for rec in self._stages:
            for g in rec.ranges:
                if g.n == n and g.lo <= mask < g.hi:
                    v = sum(e.numerator * (rec.scale // e.denominator)
                            for i, e in enumerate(rec.entries) if mask >> i & 1)
                    return g.by_gap[v] if v in g.by_gap else g.on_target[v]
        raise KeyError(key)

    def items(self):
        for rec in self._stages:
            if rec.ranges:
                case2, case3 = _expand(rec)
                yield from case2
                yield from case3

    def __iter__(self):
        return (key for key, _ in self.items())


# the ledger document lists its protections only up to this many
PROTECTION_CAP = 5000


@dataclass
class SplitterLedger:
    """Stage-indexed state of the protected splitting construction.

    Flattened block entries are ordered lexicographically by (stage, j).
    A protected pair is (subset bitmask over flattened indices, target
    index n), and its protection, once set, never changes.  The ledger
    stores each positive stage's pairs as ranges of masks with one
    protection per subset sum (``StageRecord.ranges``); ``protections``,
    ``StageRecord.case2`` and ``StageRecord.case3`` are read-only pair
    views expanded from them on demand.
    """

    x: RationalSeq
    b: RationalSeq
    stages: list[StageRecord] = field(default_factory=list)
    flat: list[Fraction] = field(default_factory=list)
    block_start: list[int] = field(default_factory=list)
    last_positive_stage: Optional[int] = None

    @property
    def protections(self) -> Mapping:
        return _Protections(self.stages)

    def to_json(self) -> dict:
        prot = self.protections
        doc = {
            "stages": [s.to_json() for s in self.stages],
            "flat": [format_rational(v) for v in self.flat],
            "protection_count": len(prot),
        }
        if len(prot) <= PROTECTION_CAP:
            doc["protections"] = [
                {"A": _mask_indices(mask), "n": n, "r": format_rational(r)}
                for (mask, n), r in sorted(prot.items())]
        return doc


def _mask_indices(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class _ScaledState:
    """The integer state of ``protected_split``.

    Every rational v in play is held as the integer v * scale.  The scale
    is twice the lcm of every denominator admitted so far, so half of any
    gap between held values is an integer too; admitting a new denominator
    multiplies the held integers up.  The subset sums are kept as two
    multisets, subset sum -> number of masks: over every entry
    (``counts``) and over the entries before the last positive block
    (``before``).  A positive stage brings them up to date (``count``);
    ``piece`` is the held +p of the last positive block.
    """

    def __init__(self):
        self.scale = 2
        self.piece = 0
        self.total = 0
        self.b: list[int] = []
        # (subset sum, n, protection) -> number of protected pairs
        self.classes: Counter = Counter()
        self.counts: dict[int, int] = {}
        self.before: dict[int, int] = {}

    def admit(self, q: Fraction) -> int:
        """Grow the scale until q * scale / 2 is an integer; returns the
        factor it grew by (1 when it already was)."""
        half = self.scale // 2
        d = q.denominator
        grow = d // math.gcd(half, d)
        if grow > 1:
            self.scale *= grow
            self.piece *= grow
            self.total *= grow
            self.b = [v * grow for v in self.b]
            self.classes = Counter({(v * grow, n, r * grow): c
                                    for (v, n, r), c in self.classes.items()})
            self.counts = {v * grow: c for v, c in self.counts.items()}
            self.before = {v * grow: c for v, c in self.before.items()}
        return grow

    def held(self, q: Fraction) -> int:
        return q.numerator * (self.scale // q.denominator)

    def count(self, width: int, start: Optional[int], k: int) -> None:
        """Count the first ``width`` entries, ``counts`` holding the first
        ``start`` (None: all are zeros).  The block (+p, -p, ..., +p) of k
        entries from ``start``, p being ``piece``, adds j * p in
        C(k, j + k // 2) ways, and each zero after it doubles every count;
        sums come in mask-table order."""
        if start is None:
            self.counts = {0: 1 << width}
            return
        self.before, self.counts = self.counts, {}
        half, p = k // 2, self.piece
        # over the block's masks in order, j first shows as 0, 1, -1, 2, ...
        for j in [0, *(j for m in range(1, half + 1) for j in (m, -m)), half + 1]:
            c = math.comb(k, j + half) << (width - start - k)
            for v, m in self.before.items():
                self.counts[v + j * p] = self.counts.get(v + j * p, 0) + m * c


# a block is refused before it is built past this many entries
BLOCK_CAP = 2 ** 20


def protected_split(x: RationalSeq, b: RationalSeq, stages: int,
                    max_state_bits: int = 22) -> SplitterLedger:
    """Split x into signed blocks keeping rearranged partial sums clear of b.

    Stage s with x_s = 0 contributes the single entry 0 and sets nothing.
    A positive stage first classifies every not-yet-protected pair (A, n)
    with A a subset of the existing entries and n <= s: pairs whose
    current gap |sum over entries outside A| vs b_n is nonzero get half
    that gap as protection; pairs sitting exactly on b_n wait.  The stage
    then picks the least odd k with x_s / k below half the worst protected
    clearance floor (k = 1 when nothing is protected yet), emits the
    alternating block (+-x_s/k, ... , +x_s/k), and gives the waiting pairs
    the protection x_s / (2k).  Before advancing, the clearance invariant
    (every protected pair strictly clears its protection) is re-checked;
    a violation aborts with the ledger attached.  A stage past
    ``max_state_bits`` entries, or a block of more than ``BLOCK_CAP``
    entries, raises ``k2.Exhausted`` (reason ``state``) first.

    The arithmetic runs on ``_ScaledState`` integers.  A pair's gap, floor
    and clearance depend only on its class (subset sum, n, protection), so
    each is computed once per class and weighed by the class's size.  The
    sizes are convolved block by block (``_ScaledState.count``), with no
    table of the 2^width subset sums.  The ledger keeps the classes too:
    for each n, the range of masks the stage protects and one protection
    per subset sum (``ProtectedRange``).  No pair is written; only a
    failure message is looked up pair by pair, on a mask table.
    """
    if not x.is_nonneg or not b.is_nonneg:
        raise ValueError("both sequences must be non-negative")
    ledger = SplitterLedger(x=x, b=b)
    st = _ScaledState()

    for s in range(stages):
        xs = x.value_at(s)
        if xs == 0:
            ledger.stages.append(StageRecord(
                stage=s, x=xs, positive=False, k=1, y=(Fraction(0),), t=None))
            ledger.block_start.append(len(ledger.flat))
            ledger.flat.append(Fraction(0))
            continue

        width = len(ledger.flat)
        if width > max_state_bits:
            raise Exhausted(f"stage {s}: 2^{width} subset sums exceed the "
                            "configured cap", "state", width=width)
        for n in range(len(st.b), s + 1):
            bn = b.value_at(n)
            st.admit(bn)
            st.b.append(st.held(bn))
        # after the last positive stage s' at width w', exactly the pairs
        # [0, 2^w') x [0, s'] are protected
        last = ledger.last_positive_stage
        if last is None:
            st.count(width, None, 0)
            counts = {0: st.counts}
        else:
            start = ledger.block_start[last]
            st.count(width, start, ledger.stages[last].k)
            # the masks below 2^w' are the few the last positive stage saw
            done = 1 << start
            counts = {0: st.counts, done: Counter(st.counts) - Counter(st.before)}
        total = st.total
        scale = st.scale
        classes = st.classes
        waiting: list[tuple[int, int, int]] = []   # (sum, n, pairs) on b_n
        halves: dict[int, Fraction] = {}
        ranges: list[tuple[int, int, dict[int, Fraction], list[int]]] = []
        for n in range(s + 1):
            lo = done if last is not None and n <= last else 0
            bn = st.b[n]
            by_gap: dict[int, Fraction] = {}   # subset sum -> protection
            on_target: list[int] = []
            for v, c in counts[lo].items():
                gap = abs(abs(total - v) - bn)
                if gap:
                    r = gap // 2
                    classes[(v, n, r)] += c
                    if r not in halves:
                        halves[r] = Fraction(r, scale)
                    by_gap[v] = halves[r]
                else:
                    waiting.append((v, n, c))
                    on_target.append(v)
            ranges.append((n, lo, by_gap, on_target))

        # worst clearance floor over everything protected so far
        t: Optional[Fraction] = None
        if classes:
            floor = min(abs(abs(total - v) - st.b[n]) - r for v, n, r in classes)
            t = Fraction(floor, scale)
            if floor <= 0:
                raise ClearanceViolation(ledger, f"stage {s}: clearance floor {t} <= 0")
            # least odd k with x_s / k < t / 2, i.e. 2 x_s scale < k floor
            k = 2 * xs.numerator * scale // (floor * xs.denominator) + 1
            k += 1 - k % 2
        else:
            k = 1
        if k > BLOCK_CAP:
            raise Exhausted(f"stage {s}: a block of {k} entries exceeds the "
                            "configured cap", "state", entries=k)
        piece = xs / k
        block = (piece, -piece) * (k // 2) + (piece,)

        half_piece = piece / 2
        ledger.stages.append(StageRecord(
            stage=s, x=xs, positive=True, k=k, y=block, t=t,
            entries=tuple(ledger.flat), scale=scale,
            ranges=tuple(ProtectedRange(n, lo, 1 << width, by_gap,
                                        dict.fromkeys(on_target, half_piece))
                         for n, lo, by_gap, on_target in ranges)))
        ledger.block_start.append(len(ledger.flat))
        ledger.flat.extend(block)
        ledger.last_positive_stage = s

        grow = st.admit(piece)
        held = st.held(piece)
        for v, n, c in waiting:
            st.classes[(v * grow, n, held // 2)] += c
        st.piece = held
        st.total += held

        # stage-end invariant: strict clearance for every protected pair
        checked = 0
        new_total = st.total
        for (v, n, r), c in st.classes.items():
            if not abs(abs(new_total - v) - st.b[n]) > r:
                _raise_first_violation(ledger, st, s)
            checked += c
        ledger.stages[-1].checked = checked

    return ledger


def _raise_first_violation(ledger: SplitterLedger, st: _ScaledState, s: int):
    """Raise on the first protected pair, in ledger order (``_expand``'s),
    that fails the stage-end invariant; the pairs are read off a mask
    table of each stage's entries at the state's scale."""
    for rec in ledger.stages:
        sums = _mask_sums(rec.entries, st.scale)
        for (mask, n), r in itertools.chain(*_expand(rec)):
            clear = abs(abs(st.total - sums[mask]) - st.b[n])
            if not clear > st.held(r):
                raise ClearanceViolation(
                    ledger,
                    f"stage {s}: pair (A={_mask_indices(mask)}, n={n}) has "
                    f"clearance {Fraction(clear, st.scale)} <= protection {r}")
    raise AssertionError("a protection class failed but no pair does")


@dataclass(frozen=True)
class ClearanceReport:
    ok: bool
    pairs_checked: int
    limit_certified: int
    failures: tuple[dict, ...] = ()

    def to_json(self) -> dict:
        return {"ok": self.ok, "pairs_checked": self.pairs_checked,
                "limit_certified": self.limit_certified,
                "failures": list(self.failures)}


def verify_clearances(ledger: SplitterLedger,
                      extra_tail_bound: Optional[Fraction] = None) -> ClearanceReport:
    """Recheck every protected pair's clearance from the raw entries.

    Ignores all cached sums.  With a declared bound on the absolute sum of
    the not-yet-split remainder, pairs whose clearance exceeds the bound
    are additionally certified to keep the limit inequality.

    The check scales the entries, the targets and the bound to one common
    denominator and counts its own subset sums; it shares no state or code
    with ``protected_split``.  A pair's clearance depends only on its
    subset sum and n, so for each protected range it counts the sums of
    the range's masks and checks each class once.  The counts are
    convolved entry by entry, with no assumption on the blocks, and kept
    for the masks below each range bound 2^i.  The mask table is built
    only for a range with a failing class, whose masks are then scanned in
    order to name the failing pairs, or for a range whose bounds are not
    powers of two.

    The ledger finds a pair's protection by the subset sum of the entries
    its stage classified (``StageRecord.entries``), so a class is a
    (protection sum, clearance sum) pair.  The two differ only when
    ``ledger.flat`` no longer agrees with those entries; a ``flat`` shorter
    than a stage's entries raises ``ValueError``.
    """
    for rec in ledger.stages:
        if len(ledger.flat) < len(rec.entries):
            raise ValueError(f"stage {rec.stage} classified {len(rec.entries)} "
                             f"entries, but the ledger holds {len(ledger.flat)}")
    ranges = [(rec, g) for rec in ledger.stages for g in rec.ranges]
    keyed = max((rec.entries for rec in ledger.stages), key=len, default=())
    targets = {g.n: ledger.b.value_at(g.n) for _, g in ranges}
    rationals = [*ledger.flat, *keyed, *targets.values()]
    if extra_tail_bound is not None:
        rationals.append(extra_tail_bound)
    scale = math.lcm(*(q.denominator for q in rationals))

    def held(q: Fraction) -> int:
        return q.numerator * (scale // q.denominator)

    entries = [held(v) for v in ledger.flat]
    total = sum(entries)
    b_held = {n: held(bn) for n, bn in targets.items()}
    keys = [held(v) for v in keyed]

    @functools.cache
    def tables() -> tuple[list[int], list[int]]:
        """The protection sum and the clearance sum of every mask."""
        key_sums, sums = [0], [0]
        for key, v in zip(keys, entries):
            key_sums += [u + key for u in key_sums]
            sums += [u + v for u in sums]
        return key_sums, sums

    # (protection sum, clearance sum) -> number of masks below 2^i
    paired = list(zip(keys, entries))
    below: dict[int, dict[tuple[int, int], int]] = {0: {}}
    counts = {(0, 0): 1}
    for i, (key, v) in enumerate(paired):
        below[1 << i] = counts
        counts = dict(counts)
        for (a, u), c in below[1 << i].items():
            counts[a + key, u + v] = counts.get((a + key, u + v), 0) + c
    below[1 << len(paired)] = counts

    counted: dict[tuple[int, int], Counter] = {}
    failed: list[tuple[int, int, Fraction, int]] = []
    certified = 0
    pairs = 0
    bound = held(extra_tail_bound) if extra_tail_bound is not None else None
    for rec, g in ranges:
        pairs += g.hi - g.lo
        if (g.lo, g.hi) not in counted:
            if g.lo in below and g.hi in below:
                counted[(g.lo, g.hi)] = Counter(below[g.hi]) - Counter(below[g.lo])
            else:
                key_sums, sums = tables()
                counted[(g.lo, g.hi)] = Counter(zip(key_sums[g.lo:g.hi],
                                                    sums[g.lo:g.hi]))
        # the ranges hold their sums over the stage's scale; the sums' own
        # denominators divide this scale as well
        protection = {v * scale // rec.scale: r for table in (g.by_gap, g.on_target)
                      for v, r in table.items()}
        bad: dict[tuple[int, int], tuple[Fraction, int]] = {}
        for cls, c in counted[(g.lo, g.hi)].items():
            key, v = cls
            r = protection[key]
            clear = abs(abs(total - v) - b_held[g.n])
            # clear / scale > r, cross-multiplied
            if not clear * r.denominator > r.numerator * scale:
                bad[cls] = (r, clear)
            if bound is not None and clear > bound:
                certified += c
        if bad:
            key_sums, sums = tables()
            for mask in range(g.lo, g.hi):
                if (key_sums[mask], sums[mask]) in bad:
                    failed.append((mask, g.n, *bad[(key_sums[mask], sums[mask])]))
    failures = tuple(
        {"A": _mask_indices(mask), "n": n, "r": format_rational(r),
         "clearance": format_rational(Fraction(clear, scale))}
        for mask, n, r, clear in sorted(failed, key=lambda f: f[:2]))
    return ClearanceReport(not failures, pairs, certified, failures)


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PermutationSpec:
    """A permutation given by a finite table, identity beyond its support."""

    table: tuple[tuple[int, int], ...]
    _index: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = dict(self.table)
        if len(d) != len(self.table):
            raise ValueError("duplicate indices")
        if sorted(d.keys()) != sorted(d.values()):
            raise ValueError("table is not a bijection on its support")
        if any(k < 0 or v < 0 for k, v in d.items()):
            raise ValueError("permutations act on naturals")
        object.__setattr__(self, "_index", d)

    @classmethod
    def identity(cls) -> "PermutationSpec":
        return cls(())

    @classmethod
    def from_mapping(cls, mapping: dict[int, int]) -> "PermutationSpec":
        return cls(tuple(sorted((k, v) for k, v in mapping.items() if k != v)))

    def __call__(self, k: int) -> int:
        return self._index.get(k, k)

    @functools.cached_property
    def support_end(self) -> int:
        ends = [max(i, v) + 1 for i, v in self.table]
        return max(ends) if ends else 0


def parse_permutation_spec(spec) -> PermutationSpec:
    if spec == "identity":
        return PermutationSpec.identity()
    if not isinstance(spec, dict):
        raise SpecError("permutation spec must be an object or 'identity'")
    try:
        return PermutationSpec(tuple((spec_int(i), spec_int(v))
                                     for i, v in spec.get("table", [])))
    except (TypeError, ValueError) as e:
        raise SpecError(f"bad permutation: {e}")


# ---------------------------------------------------------------------------
# Window classification and the settling index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowWitness:
    """Window [i, j] of the rearranged series with |sum| >= 2^-n."""
    i: int
    j: int


@dataclass(frozen=True)
class TailCertificate:
    """Data certifying every window from m on is small: a finer exponent
    n0 > n, a block horizon n1 with the tail below 2^-n0, and the index
    k0 by which the permutation has exhausted the blocks below n1."""
    n0: int
    n1: int
    k0: int


@dataclass(frozen=True)
class SplitSeries:
    """The flattened protected-split output viewed as one series.

    Entries beyond the built ledger exist only when the source sequence
    has finite support inside the built stages; then they are zero and
    the total absolute sum is exact.
    """

    ledger: SplitterLedger

    def __post_init__(self):
        x = self.ledger.x
        if not x.has_finite_support:
            raise ValueError("window search needs finite-support input")
        if x.support_end > len(self.ledger.stages):
            raise ValueError("ledger not built through the sequence support")

    def value_at(self, k: int) -> Fraction:
        flat = self.ledger.flat
        return flat[k] if k < len(flat) else Fraction(0)

    @property
    def built_end(self) -> int:
        return len(self.ledger.flat)

    def blocks_end(self, block_count: int) -> int:
        """Flattened end of the first ``block_count`` blocks."""
        starts = self.ledger.block_start
        if block_count < len(starts):
            return starts[block_count]
        return len(self.ledger.flat) + (block_count - len(starts))

    @functools.cached_property
    def held(self) -> tuple[list[int], int]:
        """The flattened entries as integers over their scale, and the
        scale: the lcm of their denominators.  Built on first use, once
        for every window search on the series."""
        return _held(self.ledger.flat, self.ledger.block_start)

    def total_abs(self) -> Fraction:
        return sum((abs(v) for v in self.ledger.flat), Fraction(0))


def split_series_for(a: RationalSeq, stages: Optional[int] = None) -> SplitSeries:
    """Protected split of the difference sequence of an increasing a,
    against the dyadic targets; the standard rearrangement input."""
    diffs = [a.value_at(0)]
    end = len(a.prefix)
    for i in range(1, end + 1):
        diffs.append(a.value_at(i) - a.value_at(i - 1))
    x = RationalSeq.make(diffs)
    if not x.is_nonneg:
        raise ValueError("the sequence must be increasing")
    ledger = protected_split(x, dyadic_targets(),
                             stages if stages is not None else x.support_end)
    return SplitSeries(ledger)


# entries per block of the window search's max/min index
INDEX_BLOCK = 64


class _MaxMinIndex:
    """Block maxima and minima of an integer array, level on level.

    Level 0 is the array itself; each further level holds the max and the
    min of ``INDEX_BLOCK`` consecutive entries of the level below, up to a
    level of at most one block.  ``visited`` counts the entries, at every
    level, that the queries have read.
    """

    def __init__(self, values: list[int]):
        self.levels = [(values, values)]
        hi = lo = values
        while len(hi) > INDEX_BLOCK:
            starts = range(0, len(hi), INDEX_BLOCK)
            hi = [max(hi[k:k + INDEX_BLOCK]) for k in starts]
            lo = [min(lo[k:k + INDEX_BLOCK]) for k in starts]
            self.levels.append((hi, lo))
        self.visited = 0

    def _scan(self, level: int, a: int, b: int, lo: int, hi: int) -> Optional[int]:
        """Least t in [a, b) whose block at ``level`` holds an entry at most
        lo or at least hi."""
        top, bottom = self.levels[level]
        for t in range(a, b):
            if top[t] >= hi or bottom[t] <= lo:
                self.visited += t - a + 1
                return t
        self.visited += max(b - a, 0)
        return None

    def first_outside(self, start: int, lo: int, hi: int) -> Optional[int]:
        """Least t >= start with values[t] <= lo or values[t] >= hi."""
        level, t = 0, start
        last = len(self.levels) - 1
        while True:
            end = len(self.levels[level][0])
            stop = end if level == last else min(end, (t // INDEX_BLOCK + 1) * INDEX_BLOCK)
            found = self._scan(level, t, stop, lo, hi)
            if found is not None:
                break
            if stop >= end:
                return None
            # the rest of t's block is inside (lo, hi): go up to the next block
            level, t = level + 1, stop // INDEX_BLOCK
        while level:
            level -= 1
            a = found * INDEX_BLOCK
            found = self._scan(level, a, min(a + INDEX_BLOCK, len(self.levels[level][0])),
                               lo, hi)
        return found

    def spread(self, a: int, b: int) -> int:
        """max - min of values[a..b], inclusive; a <= b."""
        hi = lo = self.levels[0][0][a]
        level, last = 0, len(self.levels) - 1
        while True:
            top, bottom = self.levels[level]
            # the whole blocks of [a, b] at this level are [a2, b2)
            a2 = -(-a // INDEX_BLOCK) * INDEX_BLOCK
            b2 = (b + 1) // INDEX_BLOCK * INDEX_BLOCK
            if level == last or a2 >= b2:
                self.visited += b - a + 1
                return max(hi, max(top[a:b + 1])) - min(lo, min(bottom[a:b + 1]))
            for i, j in ((a, a2), (b2, b + 1)):
                if i < j:
                    self.visited += j - i
                    hi = max(hi, max(top[i:j]))
                    lo = min(lo, min(bottom[i:j]))
            level, a, b = level + 1, a2 // INDEX_BLOCK, b2 // INDEX_BLOCK - 1


class _WindowScan:
    """The rearranged series z(p(0)), z(p(1)), ... in integers, with an
    index for its windows.

    Values are held over the split's scale (``SplitSeries.held``).  Past
    ``scan_end`` every rearranged value is zero, so ``prefix`` (the partial
    sums, ``prefix[j]`` over the first j values) stops there.  A window
    [i, j] sums to prefix[j + 1] - prefix[i], so a block max/min index of
    ``prefix`` finds a row's first reaching window and the spread of every
    window past a start.  Each row's first reaching window is found once
    and shared by every round and every start index that scans it.
    ``steps`` counts the window steps charged to the scan.
    """

    def __init__(self, z: SplitSeries, p: PermutationSpec, n: int):
        if n < 0:
            raise ValueError(f"the exponent n must be a natural, got {n}")
        entries, self.scale = z.held
        self.z = z
        self.scan_end = max(z.built_end, p.support_end)
        values = entries + [0] * (self.scan_end + 1 - len(entries))
        row = list(values)
        # inverse[v]: the position p sends to v, inside p's support
        inverse = list(range(p.support_end))
        for k, v in p.table:
            row[k] = values[v]
            inverse[v] = k
        self.prefix = [0, *itertools.accumulate(row)]
        self.abs_prefix = [0, *itertools.accumulate(map(abs, row))]
        self.index = _MaxMinIndex(self.prefix)
        # the least integer |d| with |d| / scale >= 2^-n
        self.reach = -(-self.scale >> n)
        # cover[v]: 1 + the largest position p sends into [0, v]
        self.cover = [k + 1 for k in itertools.accumulate(inverse, max)]
        self.steps = 0
        self._first: dict[int, Optional[int]] = {}

    def first_reaching(self, i: int) -> Optional[int]:
        """Least j >= i with |sum of values i..j| >= 2^-n, if any."""
        if i not in self._first:
            base = self.prefix[i]
            t = self.index.first_outside(i + 1, base - self.reach, base + self.reach)
            self._first[i] = None if t is None else t - 1
        return self._first[i]

    def tail_abs(self, k0: int) -> int:
        """Absolute mass of the rearranged series from index k0 on."""
        ap = self.abs_prefix
        return ap[-1] - ap[min(k0, len(ap) - 1)]

    def windows_clear(self, m: int, k0: int, margin: int) -> bool:
        """Whether every window [i, j] with m <= i <= j < k0 has absolute
        sum below margin / scale; margin > 0."""
        # windows past scan_end add only zeros
        end = min(k0, len(self.prefix) - 1)
        return m >= end or self.index.spread(m, end) < margin

    def cover_index(self, block_count: int) -> int:
        """Least k0 with {p(0), ..., p(k0-1)} covering the flattened
        indices of the first ``block_count`` blocks."""
        need = self.z.blocks_end(block_count)
        if need <= len(self.cover):
            return self.cover[need - 1] if need else 0
        # past the support p is the identity
        return max(self.cover[-1] if self.cover else 0, need)


def classify_windows(z: SplitSeries, p: PermutationSpec, m: int, n: int,
                     f: Modulus, budget: int = 10 ** 6
                     ) -> Union[WindowWitness, TailCertificate]:
    """Decide whether some window [i, j] with i >= m of the rearranged
    series reaches 2^-n in absolute sum, or produce a tail certificate.

    The two searches are dovetailed: window scans must eventually find any
    witness, and for the other side successive n0 > n are tried, each with
    n1 = f(n0 + 1) + 1 (so the block tail past n1 is at most 2^-(n0+1),
    strictly below 2^-n0) and k0 the least index by which the permutation
    has covered the blocks below n1; the certificate holds when every
    window below k0 clears 2^-n with 2^-n0 to spare and the rearranged
    tail past k0 stays below 2^-n0.

    Round r of the witness scan sums every window [i, j] with
    m <= i <= j <= m + 8(r + 1), row by row, and ``budget`` caps the
    window steps summed over all rounds.
    """
    if m < 0:
        raise ValueError(f"the start index m must be a natural, got {m}")
    return _classify(_WindowScan(z, p, n), m, n, f, budget)


def _classify(scan: _WindowScan, m: int, n: int, f: Modulus, budget: int
              ) -> Union[WindowWitness, TailCertificate]:
    scan_end = scan.scan_end
    scale = scan.scale
    steps = 0

    def spend(count: int) -> None:
        nonlocal steps
        steps += count
        scan.steps += count
        if steps > budget:
            raise Exhausted(f"after {max(budget, 0) + 1} window steps", "budget")

    for round_no in itertools.count():
        # (a) widen the witness scan: row i sums [i, i], ..., [i, hi] until
        # one reaches, a step each; a row before the witness row sums them all
        hi = min(m + (round_no + 1) * 8, scan_end)
        for i in range(m, hi + 1):
            j = scan.first_reaching(i)
            if j is not None and j <= hi:
                rows = i - m
                spend(rows * (2 * (hi - m + 1) - rows + 1) // 2 + j - i + 1)
                return WindowWitness(i, j)
        rows = hi - m + 1
        if rows > 0:
            spend(rows * (rows + 1) // 2)

        # (b) try the next tail certificate; exponents below n + 1 can never
        # certify, so the search starts there.  Over the scale, the tail must
        # stay below scale / 2^n0 and every window below
        # (2^-n - 2^-n0) scale, rounded up
        n0 = n + 1 + round_no
        n1 = f(n0 + 1) + 1
        k0 = scan.cover_index(n1)
        margin = -(-scale * ((1 << (n0 - n)) - 1) >> n0)
        if scan.tail_abs(k0) << n0 < scale and scan.windows_clear(m, k0, margin):
            return TailCertificate(n0, n1, k0)

        if hi >= scan_end and round_no > 200:
            # the witness scan is complete and certificates keep failing;
            # valid inputs never reach this
            raise Exhausted(f"no witness below {scan_end} and no certificate "
                            f"through n0={n0}", "budget")


def settling_index(z: SplitSeries, p: PermutationSpec, n: int, f: Modulus,
                   budget: int = 10 ** 6) -> int:
    """The least m past which every window of the rearranged series stays
    strictly below 2^-n in absolute sum."""
    scan = _WindowScan(z, p, n)
    for m in itertools.count():
        verdict = _classify(scan, m, n, f, budget)
        if isinstance(verdict, TailCertificate):
            return m


def modulus_from_abs_sums(ledger: SplitterLedger, g: Modulus) -> Modulus:
    """Transfer a modulus for the partial sums of the absolute flattened
    series back to the source sequence: past the block whose successor
    starts at or beyond g(n), consecutive source values differ by less
    than 2^-n because the in-between blocks carry exactly that mass."""
    starts = ledger.block_start
    # ends[i]: where block i's successor starts
    ends = [*starts[1:], len(ledger.flat)]

    def fn(n: int) -> int:
        return min(bisect.bisect_left(ends, g(n)), max(len(starts) - 1, 0))

    return Modulus(fn)


def abs_sum_modulus(ledger: SplitterLedger) -> Modulus:
    """The exact modulus of the absolute partial sums of a finite-support
    split, used as the transfer input in tests."""
    if not ledger.x.has_finite_support:
        raise ValueError("finite support required")
    entries, scale = _held(ledger.flat, ledger.block_start)
    mass = list(itertools.accumulate(map(abs, entries), initial=0))
    # minus the absolute mass from entry mm on, over the scale: it rises
    rising = [v - mass[-1] for v in mass]

    def fn(n: int) -> int:
        # the least mm whose mass from mm on, an integer, is below
        # scale / 2^n, so below its ceiling -((-scale) >> n)
        return bisect.bisect_right(rising, -scale >> n)

    return Modulus(fn)
