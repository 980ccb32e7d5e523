"""Compactness bases and realizers of the anti-Specker property.

A compactness base is an enumerable family of finite covering
descriptors: each member Theta is a finite set of atoms (sigma, n), an
atom denoting the open set of points within 2^-n of some name extending
sigma.  Bases are the effective witnesses of compactness here, and they
convert both ways:

* from a base one builds a realizer that, fed an eventually-star
  sequence of names and an avoidance name, searches the base for a
  member certified by the avoidance name's answers and then returns the
  exact settling index of the sequence;

* from a realizer one probes with the all-star sequence against
  finitely-determined avoidance names and harvests covering members
  from the answered prefixes.

Products are handled by combining bases atom by atom, which is what
makes the product of two realized-compact spaces realized-compact.

The sequences live in the one-point extension of a registry space, which
is the space itself: ``naming.is_star`` tells the added point apart, and
``NameSequence.onset_below`` is the one scan for the last real entry.  A
realizer records the space it realizes.

Nothing is built twice.  The builtin and product bases build a member's
atoms once, as far as some search has asked for them, and keep them for
as long as the base lives, in one kind of kept stream (``_Kept``), which
also holds the product base's member shapes and has one rule for a
source that fails.  A ``Run`` keeps the canonical bases and the reports
of ``covers`` under the space itself, which is a value, so equal spaces
share them (see ``Run``); ``covers`` computes each atom's constraints
once per decision, not per cell.  A realizer pairs each prefix code once
into the one trie it walks, which stays its own and which it empties
only past a bit bound, and asks the name for each code, and decodes each
answer, once per evaluation; and the harvest unpairs each answered code
once, up its prefixes.
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from . import k2
from .k2 import (FinPartialFn, Oracle, PartialResult, RecordingOracle,
                 SpecError, TableOracle, encode_pair)
from .naming import NameSequence, ProductSpace, Space


# ---------------------------------------------------------------------------
# Atoms and coverings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverAtom:
    """(sigma, n): points within 2^-n of some name extending sigma."""

    sigma: FinPartialFn
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("radius exponent must be a natural")

    def to_json(self) -> dict:
        return {"sigma": [list(e) for e in self.sigma.entries], "n": self.n}


@dataclass(frozen=True)
class Theta:
    """A finite, nonempty set of cover atoms."""

    atoms: tuple[CoverAtom, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a covering descriptor needs at least one atom")
        object.__setattr__(self, "atoms", tuple(sorted(
            self.atoms, key=lambda a: (a.n, a.sigma.entries))))

    def __hash__(self) -> int:
        # the dataclass hash, kept: the probe's seen set and the kept
        # ``covers`` reports hash the same Theta again and again
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.atoms,))
            object.__setattr__(self, "_hash", h)
        return h

    def to_json(self) -> list:
        return [a.to_json() for a in self.atoms]


def parse_theta(spec) -> Theta:
    try:
        atoms = tuple(
            CoverAtom(FinPartialFn(tuple((k2.spec_int(i), k2.spec_int(v))
                                         for i, v in a["sigma"])),
                      k2.spec_int(a["n"]))
            for a in spec)
    except (KeyError, TypeError, ValueError) as e:
        raise SpecError(f"bad covering descriptor: {e}")
    return Theta(atoms)


def product_atom(ax: CoverAtom, ay: CoverAtom) -> CoverAtom:
    """Interleave the constraints and keep the finer-of-the-two radius."""
    return CoverAtom(FinPartialFn.interleave(ax.sigma, ay.sigma), min(ax.n, ay.n))


# ---------------------------------------------------------------------------
# Membership and covering decisions (registry spaces)
# ---------------------------------------------------------------------------


def point_in_atom(space: Space, point, atom: CoverAtom) -> bool:
    """Exact membership of a registry point in the atom's open set."""
    pairs = space.atom_constraints(atom.sigma, atom.n)
    if pairs is None:
        return False
    name = space.canonical_name(point)
    return all(name(i) == v for i, v in pairs)


@dataclass(frozen=True)
class CoversReport:
    covered: bool
    depth: int
    witness_cell: Optional[tuple] = None

    def to_json(self) -> dict:
        out = {"covered": self.covered, "depth": self.depth}
        if self.witness_cell is not None:
            out["witness"] = repr(self.witness_cell)
        return out


# covers refuses a resolution with more cells than this before scanning it
COVER_CELL_CAP = 1 << 20


def default_cover_depth(theta: Theta) -> int:
    return max(a.n for a in theta.atoms) + 1


def covers(theta: Theta, space: Space,
           depth: Optional[int] = None) -> CoversReport:
    """Decide whether the atoms of theta cover the whole registry space.

    Exhausts the space at the given resolution; sound and complete once
    depth exceeds every atom's radius exponent (the default).  A cell that
    is neither inside some atom nor excluded from all raises
    ``k2.Exhausted`` with reason ``depth``, and so does a depth with more
    than ``COVER_CELL_CAP`` cells, before any cell is scanned.

    The current ``Run`` keeps the report under the space, the resolved
    depth and theta, so an equal space reads it; a call that raises keeps
    nothing.
    """
    if depth is None:
        depth = default_cover_depth(theta)
    run = _current.get().within_bound()
    key = (space, depth, theta)
    report = run.reports.get(key)
    if report is None:
        report = run.reports[key] = _decide_cover(theta, space, depth)
        run.report_atoms += len(theta.atoms)
    return report


def _decide_cover(theta: Theta, space: Space, depth: int) -> CoversReport:
    """The covering decision of ``covers``, scanned cell by cell."""
    if space.cell_count(depth, COVER_CELL_CAP) > COVER_CELL_CAP:
        raise k2.Exhausted(
            f"more than {COVER_CELL_CAP} cells at depth {depth}", "depth",
            depth=depth)
    # an atom no name extends contains no cell, so it can neither hit a
    # cell nor leave one undecided
    constraints = [pairs for pairs in (space.atom_constraints(atom.sigma, atom.n)
                                       for atom in theta.atoms)
                   if pairs is not None]
    value_at = space.cell_value_at
    for cell in space.cells(depth):
        hit = False
        undecided = False
        for pairs in constraints:
            # the cell is in the atom (True), outside it at the first
            # mismatch (False), or undecided when a free index stops it
            unknown = False
            for i, v in pairs:
                forced = value_at(cell, i)
                if forced is None:
                    unknown = True
                elif forced != v:
                    break
            else:
                if not unknown:
                    hit = True
                    break
                undecided = True
        if not hit:
            if undecided:
                raise k2.Exhausted(
                    f"cell {cell!r} undecided at depth {depth}", "depth")
            return CoversReport(False, depth, witness_cell=cell)
    return CoversReport(True, depth)


# ---------------------------------------------------------------------------
# Avoidance names
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AvoidanceName:
    """An oracle over sequence codes answering 0 (undetermined) or v+1,
    where v decodes as the pair (n, m): every name extending the answered
    sequence stays at distance >= 2^-n from the sequence entries past m."""

    h: Oracle
    description: str = "avoidance"


def make_avoidance_name(seq: NameSequence, radius_exp: int = 0,
                        answer_depth: int = 0) -> AvoidanceName:
    """Avoidance name for an eventually-star sequence.

    Answers (radius_exp, onset) on every sequence of length >= answer_depth,
    where onset is the settling index; correct because the distance from a
    real point to the added point is 1 >= 2^-radius_exp.  Larger
    answer_depth makes the name answer only at deliberately deep prefixes.
    """
    if not seq.eventually_star:
        raise ValueError("sequence is not eventually star; supply a witness table")
    onset = seq.star_onset()
    answer = encode_pair(radius_exp, onset) + 1
    h = k2.depth_answer(answer, answer_depth,
                        f"avoid(d={answer_depth},n={radius_exp},m={onset})")
    return AvoidanceName(h, description=h.label)


# ---------------------------------------------------------------------------
# Compactness bases
# ---------------------------------------------------------------------------


class CompactnessBase:
    """An enumerable family of covering descriptors for a registry space.

    A subclass defines ``iter_atoms(i)``, which streams member i's atoms
    without materializing the member; the canonical Cantor member k holds
    2^k atoms, so searches that abandon a member early must not pay for
    the whole of it.  ``Theta(tuple(base.iter_atoms(i)))`` is the whole
    member.  The builtin and product bases keep each member as one
    ``_Kept`` stream, which builds an atom once, when some reader first
    reaches it, and keeps it for as long as the base lives; a ``Run``
    keeps the canonical bases.  A realizer's prefix-code trie is not part
    of the base: each realizer over a shared base walks its own.
    """

    space: Space


class _Kept:
    """The items of ``source``, built as far as some reader has reached
    and kept; any number of readers may read at once.  A source that
    raised raises the same exception to every reader that reaches past
    its last item, since building again would fail at the same item."""

    __slots__ = ("items", "source", "failure")

    def __init__(self, source: Iterator):
        self.items: list = []
        self.source: Optional[Iterator] = source
        self.failure: Optional[Exception] = None

    def _grow(self) -> bool:
        """Build one more item; False once the source has ended."""
        if self.failure is not None:
            raise self.failure
        if self.source is None:
            return False
        try:
            self.items.append(next(self.source))
        except StopIteration:
            self.source = None
            return False
        except Exception as e:
            self.failure = e
            raise
        return True

    def __iter__(self) -> Iterator:
        return iter(self.items) if self.source is None else self._extend()

    def _extend(self):
        items = self.items
        k = 0
        while k < len(items) or self._grow():
            yield items[k]
            k += 1

    def at(self, i: int):
        """Item i; ``IndexError`` when the source ends before it."""
        while len(self.items) <= i and self._grow():
            pass
        return self.items[i]


class _KeptBase(CompactnessBase):
    """A base whose ``_build_atoms(i)`` generates member i, kept as a
    ``_Kept`` stream; ``held`` counts the atoms its own members have
    built, not those of the bases it sits over.  It refers to no run."""

    def __init__(self):
        self._kept: dict[int, _Kept] = {}
        self.held = 0

    def iter_atoms(self, i: int) -> Iterator[CoverAtom]:
        member = self._kept.get(i)
        if member is None:
            member = self._kept[i] = _Kept(self._counted(self._build_atoms(i)))
        return iter(member)

    def _counted(self, atoms: Iterator[CoverAtom]) -> Iterator[CoverAtom]:
        for atom in atoms:
            self.held += 1
            yield atom


class BuiltinBase(_KeptBase):
    """The canonical base of Cantor space or of a finite space: member i
    holds an atom at radius exponent i for each sigma of the space's
    ``base_member(i)``."""

    def __init__(self, space: Space):
        super().__init__()
        self.space = space

    def _build_atoms(self, i: int):
        for sigma in self.space.base_member(i):
            yield CoverAtom(sigma, i)


# A ``Run`` drops what it keeps past this many atoms.  The Cantor base's
# members 0..13 keep 16,383 in 15.4 MiB (CPython 3.11); member 14 doubles it.
CANONICAL_ATOM_BOUND = 1 << 14


class Run:
    """The work kept across calls, keyed by the space's value, so equal
    spaces share it: ``bases``, the canonical base of each space;
    ``reports``, those of ``covers`` by ``(space, depth, theta)``; and
    ``held``, the atoms its bases have built plus those of its reports'
    Thetas, which ``covers`` counts in ``report_atoms`` as it keeps each.

    ``builtin_base`` and ``covers`` use the current run,
    the innermost ``with Run():`` block's or else the process's one run,
    and first drop its bases and reports together once ``held`` is past
    ``CANONICAL_ATOM_BOUND``; whoever holds a dropped base or report
    keeps it.  A held base keeps no run: a base counts its own atoms,
    so the atoms a dropped base builds count toward no run.
    """

    def __init__(self):
        self.bases: dict[Space, _KeptBase] = {}
        self.reports: dict[tuple, CoversReport] = {}
        self.report_atoms = 0
        self._tokens: list = []

    @property
    def held(self) -> int:
        return sum(base.held for base in self.bases.values()) + self.report_atoms

    def __enter__(self) -> Run:
        self._tokens.append(_current.set(self))
        return self

    def __exit__(self, *exc) -> None:
        _current.reset(self._tokens.pop())

    def within_bound(self) -> Run:
        """The run, its bases and reports dropped first if past the bound."""
        if self.held > CANONICAL_ATOM_BOUND:
            self.bases, self.reports, self.report_atoms = {}, {}, 0
        return self


_current: ContextVar[Run] = ContextVar("run", default=Run())


def builtin_base(space: Space) -> CompactnessBase:
    """The canonical base of a space; a product's combines the canonical
    bases of its factors.

    The current ``Run`` keeps the base under the space, built on first
    use, so every space equal to it gets the same base; a product's sits
    over its factors' canonical bases, so a Cantor member is kept once
    whether a search reaches it alone or through a product.
    """
    run = _current.get().within_bound()
    base = run.bases.get(space)
    if base is None:
        base = run.bases[space] = (
            ProductBase(builtin_base(space.left), builtin_base(space.right))
            if isinstance(space, ProductSpace) else BuiltinBase(space))
    return base


class ProductBase(_KeptBase):
    """Members combining a left member with one right member per left atom.

    Enumeration is fair but front-loads the members every search here can
    actually use: at each index total the combinations assigning the same
    right member to every left atom come first, and genuinely per-atom
    assignments are enumerated only up to a small total (their count grows
    like total^atoms and would starve any bounded search).
    """

    MIXED_TOTAL_CAP = 8
    MIXED_ATOM_CAP = 4

    def __init__(self, bx: CompactnessBase, by: CompactnessBase):
        super().__init__()
        self.bx = bx
        self.by = by
        self.space = ProductSpace(bx.space, by.space)
        # member i as (left index, right index | per-atom tuple)
        self._specs = _Kept(self._generate_specs())

    def _generate_specs(self):
        for total in itertools.count():
            for a in range(total + 1):
                yield (a, total - a)
            if total <= self.MIXED_TOTAL_CAP:
                for a in range(total + 1):
                    # one atom past the cap decides it: no need to build
                    # the 2^a atoms of a large Cantor member
                    kx = sum(1 for _ in itertools.islice(
                        self.bx.iter_atoms(a), self.MIXED_ATOM_CAP + 1))
                    if kx > self.MIXED_ATOM_CAP:
                        continue
                    for combo in _compositions(total - a, kx):
                        if len(set(combo)) > 1:
                            yield (a, combo)

    def _spec(self, i: int) -> tuple[int, object]:
        return self._specs.at(i)

    def _build_atoms(self, i: int):
        a, rights = self._spec(i)
        for j, atom_x in enumerate(self.bx.iter_atoms(a)):
            b = rights if isinstance(rights, int) else rights[j]
            for atom_y in self.by.iter_atoms(b):
                yield product_atom(atom_x, atom_y)


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` naturals summing to ``total``, lexicographic."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


class ProbedBase(CompactnessBase):
    """A finite base prefix harvested from a realizer; cycles when indexed
    past the end.  ``exhausted`` records that the probe budget cut the
    enumeration off before every candidate was decided, and
    ``evals_spent`` counts the candidates decided."""

    def __init__(self, space: Space, members: Sequence[Theta],
                 exhausted: bool, evals_spent: int):
        self.space = space
        self.members = tuple(members)
        self.exhausted = exhausted
        self.evals_spent = evals_spent

    def iter_atoms(self, i: int) -> Iterator[CoverAtom]:
        if not self.members:
            raise SpecError("probe harvested no covering members")
        return iter(self.members[i % len(self.members)].atoms)

    def to_json(self) -> dict:
        return {"kind": "probed", "members": [t.to_json() for t in self.members],
                "exhausted": self.exhausted, "evals_spent": self.evals_spent}


# ---------------------------------------------------------------------------
# Realizers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalOutcome:
    """Result of one realizer evaluation, with its certificate when any."""

    result: PartialResult
    certificate: Optional[Theta] = None
    bound: Optional[int] = None
    member_index: Optional[int] = None
    malformed: tuple = ()
    stage: Optional[str] = None

    def to_json(self) -> dict:
        out = {"value": self.result.value if self.result.is_value else "exhausted",
               "spent": self.result.spent}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        if self.bound is not None:
            out["bound"] = self.bound
        if self.malformed:
            out["malformed"] = list(self.malformed)
        if self.stage:
            out["stage"] = self.stage
        return out


@dataclass(frozen=True)
class AntiSpeckerRealizer:
    """Evaluates (sequence of names, avoidance name, fuel) to the settling
    index of the sequence, for sequences in the one-point extension of
    ``space``."""

    evaluate: Callable[[NameSequence, AvoidanceName, int], EvalOutcome]
    space: Space


def direct_scan_realizer(space: Space) -> AntiSpeckerRealizer:
    """The independent oracle: scan the declared prefix for the last real
    entry.  Ignores the avoidance name entirely."""

    def evaluate(seq: NameSequence, h: AvoidanceName, fuel: int) -> EvalOutcome:
        if not seq.eventually_star:
            return EvalOutcome(PartialResult.exhausted(0), stage="not-eventually-star")
        return EvalOutcome(PartialResult.of(seq.star_onset(), spent=0))

    return AntiSpeckerRealizer(evaluate, space)


# prefixes longer than this are never queried, since their codes grow
# doubly exponentially with length
MAX_PREFIX_LEN = 16

# The largest realizer trie in the test suite holds about 235 kbit of
# codes, so this bound only keeps a long-lived realizer from growing
# without end.
PREFIX_TRIE_MAX_BITS = 1 << 20


def realizer_from_base(base: CompactnessBase,
                       space: Optional[Space] = None) -> AntiSpeckerRealizer:
    """Search the base for a member whose every atom the avoidance name
    certifies, then return the exact settling index.

    An atom (sigma, n) is certified by an answer (n', m) with n' <= n on
    some finite-sequence restriction of sigma; prefixes are scanned short
    to long and the first usable answer wins.  The returned bound is the
    maximum of the certified m's; the final value is recomputed exactly by
    scanning the sequence below the bound, so it does not depend on which
    member certified.  ``space`` is the space of the sequence entries, the
    base's own by default.  Fuel counts one step per prefix scanned, and
    one per member left with no atom certified (it has none, or its first
    atom fails); each step is checked against the fuel before it is
    charged, so ``spent`` never passes the fuel.  A malformed answer is
    recorded once per step; prefixes longer than ``MAX_PREFIX_LEN`` are
    never scanned.  One evaluation asks the name for each code at most
    once, decodes each distinct answer once, and reuses both on every
    later step, so the name must be deterministic (every name this
    package builds is).

    The prefix codes come from one trie that lives as long as the
    realizer, a nested dict from a value to the code of the prefix it
    extends and the child node; a step walks one node and pairs only where
    no earlier walk went, so the members of a base, and repeated
    evaluations, share the codes of their common prefixes.  An atom whose
    walk starts with the trie past ``PREFIX_TRIE_MAX_BITS`` bits of codes
    starts it from an empty trie, so the trie holds at most that bound
    plus one walk.
    """
    root: dict[int, tuple[int, dict]] = {}
    bits = 0

    def evaluate(seq: NameSequence, h: AvoidanceName, fuel: int) -> EvalOutcome:
        nonlocal root, bits
        oracle = h.h
        spent = 0
        malformed: list[tuple[int, int]] = []
        # for this evaluation only: code -> its answer's pair, None for 0 or
        # the answer itself when it decodes to no pair (False: not asked);
        # answer -> the same, so each distinct answer is decoded once
        asked: dict[int, object] = {}
        decoded: dict[int, object] = {}
        for member_index in itertools.count():
            bound = 0
            certified_atoms: list[CoverAtom] = []
            # a lazily built member raises on the first atom pulled, not
            # when its stream is made
            try:
                for atom in base.iter_atoms(member_index):
                    if bits > PREFIX_TRIE_MAX_BITS:
                        root, bits = {}, 0
                    node = root
                    code = 0
                    entries = atom.sigma.entries
                    radius = atom.n
                    for length in range(min(atom.sigma.initial_run,
                                            MAX_PREFIX_LEN) + 1):
                        if spent >= fuel:
                            return EvalOutcome(PartialResult.exhausted(spent),
                                               malformed=tuple(malformed))
                        if length:
                            a = entries[length - 1][1]
                            hit = node.get(a)
                            if hit is None:
                                hit = node[a] = (k2.cantor_pair(code, a) + 1, {})
                                bits += hit[0].bit_length()
                            code, node = hit
                        spent += 1
                        nm = asked.get(code, False)
                        if nm is False:
                            v = oracle(code)
                            nm = decoded.get(v, False) if v > 0 else None
                            if nm is False:
                                nm = decoded[v] = k2.decode_pair(v - 1) or v
                            asked[code] = nm
                        if nm is None:
                            continue
                        if nm.__class__ is not tuple:
                            malformed.append((code, nm))
                        elif nm[0] <= radius:
                            break
                    else:
                        break
                    if nm[1] > bound:
                        bound = nm[1]
                    certified_atoms.append(atom)
                else:
                    if certified_atoms:
                        return EvalOutcome(
                            PartialResult.of(seq.onset_below(bound), spent=spent),
                            certificate=Theta(tuple(certified_atoms)), bound=bound,
                            member_index=member_index, malformed=tuple(malformed))
            except SpecError:
                return EvalOutcome(PartialResult.exhausted(spent), stage="empty-base",
                                   malformed=tuple(malformed))
            if not certified_atoms:
                # no atom certified (none, or the first failed): one step,
                # if the fuel has it
                if spent < fuel:
                    spent += 1
                if spent >= fuel:
                    return EvalOutcome(PartialResult.exhausted(spent),
                                       malformed=tuple(malformed))

    return AntiSpeckerRealizer(evaluate, base.space if space is None else space)


# ---------------------------------------------------------------------------
# Probing a realizer back into a base
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeConfig:
    """The shape of a probe.

    ``budget`` counts the candidates the probe decides, in both phases.  A
    blind table that could not add a member is decided without running the
    realizer, so the budget may count more candidates than evaluations.
    """

    budget: int = 400           # candidates decided
    eval_fuel: int = 600        # prefix steps per evaluation
    blind_size_cap: int = 8     # total code size of blindly enumerated tables
    depth_cap: int = 4          # structured candidates answer at length >= D
    radius_grid: tuple[int, ...] = (0, 1, 2)
    onset_grid: tuple[int, ...] = (0, 3)


def _blind_candidates(size_cap: int):
    """Finite partial functions by total code size, then lexicographically.

    The size of a table is the sum of position + value + 1 over its
    entries, so every size class is finite and every finite table shows up
    exactly once.
    """
    def tables_of(size: int, min_pos: int):
        if size == 0:
            yield ()
            return
        for pos in range(min_pos, size):
            for val in range(size - pos):
                head = ((pos, val),)
                remaining = size - (pos + val + 1)
                for rest in tables_of(remaining, pos + 1):
                    yield head + rest

    for size in range(size_cap + 1):
        for entries in sorted(tables_of(size, 0)):
            yield FinPartialFn(entries)


class _LeftTable(k2.Exhausted):
    """Stops a phase-one evaluation at its first query outside the blind
    table, which then cannot determine the result."""


class _BlindTable(RecordingOracle):
    """A blind table read through its transcript, answering 0 off the
    table as any table oracle does but stopping the evaluation there: the
    outside query is recorded first, then ``_LeftTable`` is raised."""

    def __init__(self, answers: dict[int, int]):
        super().__init__(TableOracle(answers, 0, label="probe-table"))

    def __call__(self, k: int) -> int:
        v = super().__call__(k)
        if k not in self.inner.table:
            raise _LeftTable(f"code {k} is outside the blind table", "depth",
                             code=k)
        return v


def _harvest(answered: dict[int, int]) -> Optional[Theta]:
    """Atoms at the prefix-minimal answered sequences of an answer table:
    one walk up each positive code's prefixes, which stops at the first
    answered positively (well-formed or not), and one decode per answer."""
    atoms = []
    decoded: dict[int, Optional[tuple[int, int]]] = {}
    for code, v in answered.items():
        if v <= 0:
            continue
        values, prefix = [], code
        while prefix > 0:
            prefix, a = k2.cantor_unpair(prefix - 1)
            if answered.get(prefix, 0) > 0:
                break
            values.append(a)
        else:
            if v not in decoded:
                decoded[v] = k2.decode_pair(v - 1)
            nm = decoded[v]
            if nm is not None:
                atoms.append(CoverAtom(FinPartialFn.from_seq(values[::-1]), nm[0]))
    if not atoms:
        return None
    return Theta(tuple(atoms))


def base_from_realizer(m: AntiSpeckerRealizer, space: Space,
                       config: Optional[ProbeConfig] = None) -> ProbedBase:
    """Harvest covering members by probing the realizer on the all-star
    sequence against finitely-determined avoidance names.

    Two probe phases share the budget.  Phase one enumerates finite answer
    tables by total code size and accepts an evaluation only when every
    query stayed inside the table ("determined by the table"); the first
    query outside it stops the evaluation, since it already decides the
    candidate.  Phase two probes with uniform candidates that answer a
    fixed (n, m) pair on every sequence of the same length or longer,
    then freezes the queried restriction as the determining table; this
    is how deep members are reached at all, since blind enumeration
    cannot.  Every member is emitted only after passing the covering
    check.  The returned base is ``exhausted`` when the budget stopped
    the enumeration with a candidate still undecided.

    A blind table can add only its own harvest, a function of the table
    alone: the evaluation decides whether it is tried, never what it is.
    So a table whose harvest is None or already emitted is decided without
    running the realizer, and the others are evaluated and checked as
    above.  This needs only that ``m.evaluate`` returns an outcome, or
    lets the stop at an outside query through, and writes nothing the
    probe reads, which every realizer of this module meets; one that
    catches the stop and returns a value is still refused, since the
    outside query is in its transcript.  The budget counts candidates
    decided, evaluated or not, so ``evals_spent``, ``exhausted`` and every
    member are what evaluating every candidate gives.
    """
    cfg = config if config is not None else ProbeConfig()
    all_star = NameSequence((), "star")
    emissions: list[Theta] = []
    seen: set = set()
    decided = 0
    exhausted = False

    def consider(theta: Optional[Theta]) -> None:
        if theta is None or theta in seen:
            return
        try:
            if covers(theta, space).covered:
                seen.add(theta)
                emissions.append(theta)
        except k2.Exhausted:
            pass

    # Phase one: blind table enumeration.
    for table in _blind_candidates(cfg.blind_size_cap):
        if decided >= cfg.budget:
            exhausted = True
            break
        decided += 1
        answers = table.as_dict()
        theta = _harvest(answers)
        if theta is None or theta in seen:
            continue
        h_tau = _BlindTable(answers)
        try:
            out = m.evaluate(all_star, AvoidanceName(h_tau, "probe"), cfg.eval_fuel)
        except _LeftTable:
            continue
        if not out.result.is_value:
            continue
        # a realizer that caught the stop and returned anyway is refused here
        dom = set(table.domain)
        if any(code not in dom for code, _ in h_tau.transcript):
            continue
        consider(theta)

    # Phase two: uniform depth candidates, frozen to the queried restriction.
    for depth, n_ans, m_ans in itertools.product(
            range(cfg.depth_cap + 1), cfg.radius_grid, cfg.onset_grid):
        if decided >= cfg.budget:
            exhausted = True
            break
        h_probe = RecordingOracle(k2.depth_answer(
            encode_pair(n_ans, m_ans) + 1, depth, f"probe-depth-{depth}"))
        out = m.evaluate(all_star, AvoidanceName(h_probe, "probe"), cfg.eval_fuel)
        decided += 1
        if out.result.is_value:
            consider(_harvest(dict(h_probe.transcript)))

    return ProbedBase(space, emissions, exhausted=exhausted, evals_spent=decided)


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def product_anti_specker(mx: AntiSpeckerRealizer, my: AntiSpeckerRealizer,
                         product_space: Space,
                         config: Optional[ProbeConfig] = None) -> AntiSpeckerRealizer:
    """Realize the product: probe both factors back to bases, combine the
    bases, and rebuild a realizer over the product naming."""
    bx = base_from_realizer(mx, mx.space, config)
    if not bx.members:
        raise SpecError("left factor probe harvested nothing")
    by = base_from_realizer(my, my.space, config)
    if not by.members:
        raise SpecError("right factor probe harvested nothing")
    return realizer_from_base(ProductBase(bx, by), product_space)
