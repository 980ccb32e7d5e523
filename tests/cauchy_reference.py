"""The exact-`Fraction` splitter, clearance check and window search.

These are the mask-by-mask `Fraction` versions of ``protected_split``,
``verify_clearances``, ``classify_windows`` and ``settling_index`` that
``baire.cauchy`` ran before it moved to integer-scaled, class-compressed
state.  They stay here as the oracle the fast versions are tested against
(``tests/test_cauchy_reference.py``).  The only edits are the three
budget raises, which raise ``k2.Exhausted`` (reason ``state`` with the
width, or ``budget``) with the messages of the deleted
``StageBudgetExceeded`` and ``SearchBudgetExceeded``, and ``subset_sum``,
a ``SplitterLedger`` method before it left the program and is now called
as a function.

Below them are the versions ``baire.cauchy`` ran before its window search
moved to a block max/min index: ``exact_modulus``, which rebuilt every
`Fraction` window for each of up to 66 exponents; ``abs_sum_modulus``,
which scanned `Fraction` prefix sums for each exponent; ``WindowScan``,
which rescaled the ledger and walked the prefix sums on every query; and
``permutation_cover_index``, which rescanned the permutation on every
certificate try; ``scan_classify`` and ``scan_settling_index`` drive the
old scan as ``classify_windows`` and ``settling_index`` did.  They are
copied unchanged but for their names.

``check_tail_certificate`` reads a ``TailCertificate`` against its
definition, from the ledger's entries and block starts and the
permutation alone, with `Fraction`s; ``check_window_witness`` reads a
``WindowWitness`` the same way, from the entries and the permutation.

The reference splitter writes its ledger pair by pair, into
``PairLedger`` and ``PairStage``: the mask-level ledger and stage record
``baire.cauchy`` had before it stored protections by class, kept here as
containers (fields and ``to_json``) for the reference alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from baire.cauchy import (PROTECTION_CAP, ClearanceReport, ClearanceViolation,
                          Modulus, PermutationSpec, RationalSeq, SplitSeries,
                          SplitterLedger, TailCertificate, WindowWitness,
                          _mask_indices)
from baire.k2 import Exhausted
from baire.reals import format_rational


@dataclass
class PairStage:
    stage: int
    x: Fraction
    positive: bool
    k: int
    y: tuple[Fraction, ...]
    t: Optional[Fraction]          # None encodes "no protected pair yet"
    case2: tuple[tuple[int, int], ...] = ()   # (mask, n) protected at this stage
    case3: tuple[tuple[int, int], ...] = ()
    checked: int = 0               # clearance checks performed at stage end

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "x": format_rational(self.x),
            "positive": self.positive,
            "k": self.k,
            "y": [format_rational(v) for v in self.y],
            "t": format_rational(self.t) if self.t is not None else "inf",
            "case2": [[m, n] for m, n in self.case2],
            "case3": [[m, n] for m, n in self.case3],
            "clearances_checked": self.checked,
        }


@dataclass
class PairLedger:
    x: RationalSeq
    b: RationalSeq
    stages: list[PairStage] = field(default_factory=list)
    flat: list[Fraction] = field(default_factory=list)
    block_start: list[int] = field(default_factory=list)
    protections: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    last_positive_stage: Optional[int] = None

    def to_json(self) -> dict:
        prot = sorted(self.protections.items())
        doc = {
            "stages": [s.to_json() for s in self.stages],
            "flat": [format_rational(v) for v in self.flat],
            "protection_count": len(prot),
        }
        if len(prot) <= PROTECTION_CAP:
            doc["protections"] = [
                {"A": _mask_indices(mask), "n": n, "r": format_rational(r)}
                for (mask, n), r in prot]
        return doc


def subset_sum(ledger, mask: int) -> Fraction:
    total = Fraction(0)
    idx = 0
    while mask:
        if mask & 1:
            total += ledger.flat[idx]
        mask >>= 1
        idx += 1
    return total


def protected_split(x: RationalSeq, b: RationalSeq, stages: int,
                    max_state_bits: int = 22) -> PairLedger:
    if not x.is_nonneg or not b.is_nonneg:
        raise ValueError("both sequences must be non-negative")
    ledger = PairLedger(x=x, b=b)

    for s in range(stages):
        xs = x.value_at(s)
        if xs == 0:
            ledger.stages.append(PairStage(
                stage=s, x=xs, positive=False, k=1, y=(Fraction(0),), t=None))
            ledger.block_start.append(len(ledger.flat))
            ledger.flat.append(Fraction(0))
            continue

        width = len(ledger.flat)
        if width > max_state_bits:
            raise Exhausted(f"stage {s}: 2^{width} subset sums exceed the "
                            "configured cap", "state", width=width)

        # subset sums over the current entries, shared by every check below
        sums = [Fraction(0)] * (1 << width)
        for idx in range(width):
            v = ledger.flat[idx]
            bit = 1 << idx
            for mask in range(bit):
                sums[bit | mask] = sums[mask] + v
        total = sums[(1 << width) - 1] if width else Fraction(0)

        case2: list[tuple[int, int]] = []
        case3: list[tuple[int, int]] = []
        b_vals = [b.value_at(n) for n in range(s + 1)]
        for n in range(s + 1):
            bn = b_vals[n]
            for mask in range(1 << width):
                key = (mask, n)
                if key in ledger.protections:
                    continue
                gap = abs(abs(total - sums[mask]) - bn)
                if gap != 0:
                    ledger.protections[key] = gap / 2
                    case2.append(key)
                else:
                    case3.append(key)

        # worst clearance floor over everything protected so far
        t: Optional[Fraction] = None
        for (mask, n), r in ledger.protections.items():
            margin = abs(abs(total - sums[mask]) - b.value_at(n)) - r
            if t is None or margin < t:
                t = margin
        if t is not None and t <= 0:
            raise ClearanceViolation(ledger, f"stage {s}: clearance floor {t} <= 0")

        if t is None:
            k = 1
        else:
            k = 1
            while Fraction(xs, 1) / k >= t / 2:
                k += 2
        piece = xs / k
        block = tuple(piece if j % 2 == 0 else -piece for j in range(k))

        for key in case3:
            ledger.protections[key] = piece / 2

        ledger.stages.append(PairStage(
            stage=s, x=xs, positive=True, k=k, y=block, t=t,
            case2=tuple(case2), case3=tuple(case3)))
        ledger.block_start.append(len(ledger.flat))
        ledger.flat.extend(block)
        ledger.last_positive_stage = s

        # stage-end invariant: strict clearance for every protected pair
        checked = 0
        new_total = total + piece
        for (mask, n), r in ledger.protections.items():
            clear = abs(abs(new_total - sums[mask]) - b.value_at(n))
            checked += 1
            if not clear > r:
                raise ClearanceViolation(
                    ledger,
                    f"stage {s}: pair (A={_mask_indices(mask)}, n={n}) has "
                    f"clearance {clear} <= protection {r}")
        ledger.stages[-1].checked = checked

    return ledger


def verify_clearances(ledger,
                      extra_tail_bound: Optional[Fraction] = None) -> ClearanceReport:
    failures: list[dict] = []
    certified = 0
    total = sum(ledger.flat, Fraction(0))
    for (mask, n), r in sorted(ledger.protections.items()):
        included = total - subset_sum(ledger, mask)
        clear = abs(abs(included) - ledger.b.value_at(n))
        if not clear > r:
            failures.append({"A": _mask_indices(mask), "n": n,
                             "r": format_rational(r),
                             "clearance": format_rational(clear)})
        if extra_tail_bound is not None and clear - extra_tail_bound > 0:
            certified += 1
    return ClearanceReport(not failures, len(ledger.protections), certified,
                           tuple(failures))


def classify_windows(z: SplitSeries, p: PermutationSpec, m: int, n: int,
                     f: Modulus, budget: int = 10 ** 6
                     ) -> Union[WindowWitness, TailCertificate]:
    bound = Fraction(1, 2 ** n)
    scan_end = max(z.built_end, p.support_end)
    steps = 0

    for round_no in itertools.count():
        # (a) widen the witness scan
        hi = min(m + (round_no + 1) * 8, scan_end)
        for i in range(m, hi + 1):
            acc = Fraction(0)
            for j in range(i, hi + 1):
                acc += z.value_at(p(j))
                steps += 1
                if steps > budget:
                    raise Exhausted(f"after {steps} window steps", "budget")
                if abs(acc) >= bound:
                    return WindowWitness(i, j)

        # (b) try the next tail certificate; exponents below n + 1 can never
        # certify, so the search starts there
        n0 = n + 1 + round_no
        n1 = f(n0 + 1) + 1
        k0 = permutation_cover_index(z, p, n1)
        if k0 is not None:
            fine = Fraction(1, 2 ** n0)
            tail = z.total_abs() - sum(
                (abs(z.value_at(p(kk))) for kk in range(k0)), Fraction(0))
            if tail < fine and _windows_clear(z, p, m, k0, bound - fine):
                return TailCertificate(n0, n1, k0)

        if hi >= scan_end and round_no > 200:
            # the witness scan is complete and certificates keep failing;
            # valid inputs never reach this
            raise Exhausted(f"no witness below {scan_end} and no certificate "
                            f"through n0={n0}", "budget")


def _windows_clear(z: SplitSeries, p: PermutationSpec, m: int, k0: int,
                   margin: Fraction) -> bool:
    if margin <= 0:
        return m >= k0
    for i in range(m, k0):
        acc = Fraction(0)
        for j in range(i, k0):
            acc += z.value_at(p(j))
            if abs(acc) >= margin:
                return False
    return True


def settling_index(z: SplitSeries, p: PermutationSpec, n: int, f: Modulus,
                   budget: int = 10 ** 6) -> int:
    for m in itertools.count():
        verdict = classify_windows(z, p, m, n, f, budget)
        if isinstance(verdict, TailCertificate):
            return m


def exact_modulus(x: RationalSeq, horizon: int) -> Modulus:
    if x.tail_kind == "geometric" and x.tail_value != 0:
        raise ValueError("use a hand-built modulus for geometric tails")
    end = len(x.prefix)
    values: list[int] = []
    n = 0
    while True:
        bound = Fraction(1, 2 ** n)
        best = 0
        for start in range(end + 1):
            window = [x.value_at(i) for i in range(start, end + 1)]
            if max(window) - min(window) < bound:
                best = start
                break
        values.append(best)
        if best == end or n > 64:
            break
        n += 1
    last = values[-1]
    return Modulus(lambda m: values[m] if m < len(values) else last)


def abs_sum_modulus(ledger: SplitterLedger) -> Modulus:
    if not ledger.x.has_finite_support:
        raise ValueError("finite support required")
    flat = ledger.flat
    total = sum((abs(v) for v in flat), Fraction(0))
    acc = Fraction(0)
    prefix = [acc]
    for v in flat:
        acc += abs(v)
        prefix.append(acc)

    def fn(n: int) -> int:
        bound = Fraction(1, 2 ** n)
        for mm in range(len(prefix)):
            if total - prefix[mm] < bound:
                return mm
        return len(prefix)

    return Modulus(fn)


def _ceil_held(q: Fraction, scale: int) -> int:
    return -(-q.numerator * scale // q.denominator)


class WindowScan:
    def __init__(self, z: SplitSeries, p: PermutationSpec, n: int):
        if n < 0:
            raise ValueError(f"the exponent n must be a natural, got {n}")
        flat = z.ledger.flat
        self.scale = math.lcm(*(v.denominator for v in flat))
        entries = [v.numerator * (self.scale // v.denominator) for v in flat]
        self.scan_end = max(z.built_end, p.support_end)
        row = [entries[k] if k < len(entries) else 0
               for k in map(p, range(self.scan_end + 1))]
        self.prefix = [0, *itertools.accumulate(row)]
        self.abs_prefix = [0, *itertools.accumulate(map(abs, row))]
        self.bound = Fraction(1, 2 ** n)
        self.reach = _ceil_held(self.bound, self.scale)
        self._first: dict[int, Optional[int]] = {}

    def first_reaching(self, i: int) -> Optional[int]:
        if i not in self._first:
            prefix, reach = self.prefix, self.reach
            base = prefix[i]
            found = None
            for j in range(i, len(prefix) - 1):
                d = prefix[j + 1] - base
                if d >= reach or -d >= reach:
                    found = j
                    break
            self._first[i] = found
        return self._first[i]

    def tail_abs(self, k0: int) -> int:
        ap = self.abs_prefix
        return ap[-1] - ap[min(k0, len(ap) - 1)]

    def windows_clear(self, m: int, k0: int, margin: int) -> bool:
        if margin <= 0:
            return m >= k0
        # windows past scan_end add only zeros
        end = min(k0, len(self.prefix) - 1)
        prefix = self.prefix
        hi = lo = prefix[end]
        for i in range(end - 1, m - 1, -1):
            base = prefix[i]
            if hi - base >= margin or base - lo >= margin:
                return False
            hi = max(hi, base)
            lo = min(lo, base)
        return True


def scan_classify(scan: WindowScan, z: SplitSeries, p: PermutationSpec, m: int,
                  n: int, f: Modulus, budget: int
                  ) -> Union[WindowWitness, TailCertificate]:
    scan_end = scan.scan_end
    steps = 0

    def spend(count: int) -> None:
        nonlocal steps
        steps += count
        if steps > budget:
            raise Exhausted(f"after {max(budget, 0) + 1} window steps", "budget")

    for round_no in itertools.count():
        # (a) widen the witness scan
        hi = min(m + (round_no + 1) * 8, scan_end)
        for i in range(m, hi + 1):
            j = scan.first_reaching(i)
            if j is not None and j <= hi:
                spend(j - i + 1)
                return WindowWitness(i, j)
            spend(hi - i + 1)

        # (b) try the next tail certificate; exponents below n + 1 can never
        # certify, so the search starts there
        n0 = n + 1 + round_no
        n1 = f(n0 + 1) + 1
        k0 = permutation_cover_index(z, p, n1)
        if k0 is not None:
            fine = Fraction(1, 2 ** n0)
            if scan.tail_abs(k0) < _ceil_held(fine, scan.scale) and \
                    scan.windows_clear(m, k0, _ceil_held(scan.bound - fine, scan.scale)):
                return TailCertificate(n0, n1, k0)

        if hi >= scan_end and round_no > 200:
            # the witness scan is complete and certificates keep failing;
            # valid inputs never reach this
            raise Exhausted(f"no witness below {scan_end} and no certificate "
                            f"through n0={n0}", "budget")


def scan_settling_index(z: SplitSeries, p: PermutationSpec, n: int, f: Modulus,
                        budget: int = 10 ** 6) -> int:
    scan = WindowScan(z, p, n)
    for m in itertools.count():
        verdict = scan_classify(scan, z, p, m, n, f, budget)
        if isinstance(verdict, TailCertificate):
            return m


def permutation_cover_index(z: SplitSeries, p: PermutationSpec,
                            block_count: int) -> Optional[int]:
    need = z.blocks_end(block_count)
    seen = 0
    covered = [False] * need
    for k in range(need + p.support_end + 1):
        v = p(k)
        if v < need and not covered[v]:
            covered[v] = True
            seen += 1
            if seen == need:
                return k + 1
    return 0 if need == 0 else None


def check_tail_certificate(ledger, p: PermutationSpec, m: int, n: int, f: Modulus,
                           cert: TailCertificate) -> list[str]:
    """The conditions of a tail certificate for the windows from m at
    exponent n that ``cert`` fails, recomputed from ``ledger.flat``,
    ``ledger.block_start`` and p; empty when it holds.  Past the built
    ledger every block is one zero entry."""
    flat, starts = ledger.flat, ledger.block_start

    def value(v: int) -> Fraction:
        return flat[v] if v < len(flat) else Fraction(0)

    failed = []
    if not cert.n0 > n:
        failed.append("n0 > n")
    if cert.n1 != f(cert.n0 + 1) + 1:
        failed.append("n1 = f(n0 + 1) + 1")
    # the flat indices of the blocks below n1, and the least k whose
    # p(0), ..., p(k - 1) cover them
    need = starts[cert.n1] if cert.n1 < len(starts) else len(flat) + cert.n1 - len(starts)
    missing, k = set(range(need)), 0
    while missing:
        missing.discard(p(k))
        k += 1
    if cert.k0 != k:
        failed.append("k0 is the least cover index")
    fine = Fraction(1, 2 ** cert.n0)
    # the rearranged absolute mass from k0 on
    taken = sum((abs(value(p(j))) for j in range(cert.k0)), Fraction(0))
    if not sum(map(abs, flat), Fraction(0)) - taken < fine:
        failed.append("tail below 2^-n0")
    margin = Fraction(1, 2 ** n) - fine
    for i in range(m, cert.k0):
        sums = itertools.accumulate(value(p(j)) for j in range(i, cert.k0))
        if not all(abs(t) < margin for t in sums):
            failed.append(f"windows from {i} below 2^-n - 2^-n0")
            break
    return failed


def check_window_witness(ledger, p: PermutationSpec, m: int, n: int,
                         witness: WindowWitness) -> list[str]:
    """The conditions of a window witness for the windows from m at
    exponent n that ``witness`` fails, recomputed from ``ledger.flat`` and
    p; empty when it holds.  Past the built ledger every entry is zero."""
    flat = ledger.flat
    i, j = witness.i, witness.j

    def value(v: int) -> Fraction:
        return flat[v] if v < len(flat) else Fraction(0)

    failed = []
    if not i >= m:
        failed.append("i >= m")
    reach = Fraction(1, 2 ** n)
    sums = list(itertools.accumulate((value(p(k)) for k in range(i, j + 1)),
                                     initial=Fraction(0)))
    if not abs(sums[-1]) >= reach:
        failed.append("window [i, j] reaches 2^-n")
    if any(abs(t) >= reach for t in sums[1:-1]):
        failed.append("no shorter window of row i reaches 2^-n")
    return failed
