"""Bases that rebuild every atom, the covering check that recomputes every
constraint, and the realizer that walks the prefix-code trie per atom.

These are the versions of ``BuiltinBase.iter_atoms``,
``ProductBase.iter_atoms`` (with its spec enumeration), ``covers`` with
``_cell_in_atom``, and the evaluator of ``realizer_from_base`` that the
program ran before bases kept their members, realizers kept each atom's
prefix codes and ``covers`` computed each atom's constraints once.  They
stay here as the oracle the fast versions are tested against
(``tests/test_realizer_reference.py``).  The bodies are unchanged but
for the raise of ``k2.Exhausted`` where ``covers`` raised the deleted
``InsufficientDepth``, with the same message; the iterators are methods
of subclasses of the program's bases, and ``reference_builtin_base``
builds a whole tree of them.

``_atom_possibly_inhabited``, ``_constrained_indices`` and
``_atom_constraints`` are the covering check's per-kind rules from before
each registry space answered ``atom_constraints`` itself; they moved here
unchanged and are the oracle of ``Space.atom_constraints``
(``tests/test_naming.py``).

``base_from_realizer`` is the probe as it was before it decided blind
tables from their harvest: it runs the realizer on every candidate.  Its
body is unchanged but for the program's ``covers``, which it reaches as
``aspk.covers``, and the harvest, which is the module-level ``harvest``.

``harvest`` is ``antispecker._harvest`` as it was before it walked each
answered code up its prefix codes: it decodes every positive code and
compares every sequence with every other.  ``fin_partial_fn_entries`` is
``FinPartialFn``'s check as it was before its one pass over sorted
naturals: the entries it keeps, or the ``ValueError`` it raises.  Both
bodies are unchanged (the check returns what it stored).  The probe above
calls ``harvest``, and ``seq_length`` is the sequence length that
``k2.seq_length`` computed before ``k2`` stopped needing it.

``PrefixCodeTrie`` is the generator trie ``trie_walk_realizer`` walks,
moved here from ``k2`` when the realizer came to walk its own nested dict
inline.  It and its bound ``PREFIX_TRIE_MAX_BITS`` are unchanged but for
reaching the pairing as ``k2.cantor_pair``, so that a test that counts
pairings there counts the trie's too.  ``trie_walk_realizer`` is unchanged
but for the fuel check before a member's extra step, which the program
gained when it stopped reporting ``spent`` past the fuel.

``check_outcome`` reads an answered ``antispecker demo`` outcome against
its definition, from the reference builtin base, the avoidance name and
the sequence alone.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from baire import antispecker as aspk
from baire import k2
from baire.antispecker import (AntiSpeckerRealizer, AvoidanceName, BuiltinBase,
                               CoverAtom, CoversReport, EvalOutcome,
                               ProbeConfig, ProbedBase, ProductBase, Theta,
                               _blind_candidates, _compositions,
                               default_cover_depth, product_atom)
from baire.k2 import (FinPartialFn, Oracle, PartialResult, RecordingOracle,
                      decode_pair, decode_seq, encode_pair)
from baire.naming import (CantorSpace, FiniteSpace, NameSequence, ProductSpace,
                          Space)


class ReferenceBuiltinBase(BuiltinBase):
    """The canonical base, rebuilding member i's atoms on every call."""

    def iter_atoms(self, i: int):
        if isinstance(self.space, CantorSpace):
            for word in itertools.product((1, 2), repeat=i):
                yield CoverAtom(FinPartialFn.from_seq(word), i)
        else:
            for c in range(1, self.space.n + 1):
                yield CoverAtom(FinPartialFn.from_seq((c,) * (i + 1)), i)


class ReferenceProductBase(ProductBase):
    """The product base, rebuilding member i's atoms on every call."""

    def _generate_specs(self):
        for total in itertools.count():
            for a in range(total + 1):
                yield (a, total - a)
            if total <= self.MIXED_TOTAL_CAP:
                for a in range(total + 1):
                    kx = sum(1 for _ in self.bx.iter_atoms(a))
                    if kx > self.MIXED_ATOM_CAP:
                        continue
                    for combo in _compositions(total - a, kx):
                        if len(set(combo)) > 1:
                            yield (a, combo)

    def iter_atoms(self, i: int):
        a, rights = self._spec(i)
        for j, atom_x in enumerate(self.bx.iter_atoms(a)):
            b = rights if isinstance(rights, int) else rights[j]
            for atom_y in self.by.iter_atoms(b):
                yield product_atom(atom_x, atom_y)


def reference_builtin_base(space: Space):
    if isinstance(space, ProductSpace):
        return ReferenceProductBase(reference_builtin_base(space.left),
                                    reference_builtin_base(space.right))
    return ReferenceBuiltinBase(space)


def _atom_possibly_inhabited(space: Space, atom: CoverAtom) -> bool:
    """Whether some name of the space extends sigma (registry check)."""
    if isinstance(space, CantorSpace):
        return all(v in (1, 2) for _, v in atom.sigma.entries)
    if isinstance(space, FiniteSpace):
        vals = {v for _, v in atom.sigma.entries}
        if not vals:
            return True
        return len(vals) == 1 and 1 <= next(iter(vals)) <= space.n
    if isinstance(space, ProductSpace):
        sl, sr = atom.sigma.split()
        return (_atom_possibly_inhabited(space.left, CoverAtom(sl, atom.n))
                and _atom_possibly_inhabited(space.right, CoverAtom(sr, atom.n)))
    raise ValueError(f"not a registry space: {space!r}")


def _constrained_indices(space: Space, atom: CoverAtom) -> list[int]:
    """Name indices whose values the atom membership actually constrains."""
    if isinstance(space, CantorSpace):
        return [i for i, _ in atom.sigma.entries if i <= atom.n]
    if isinstance(space, FiniteSpace):
        return [i for i, _ in atom.sigma.entries]
    if isinstance(space, ProductSpace):
        sl, sr = atom.sigma.split()
        out = [2 * i for i in _constrained_indices(space.left, CoverAtom(sl, atom.n))]
        out += [2 * i + 1 for i in _constrained_indices(space.right, CoverAtom(sr, atom.n))]
        return out
    raise ValueError(f"not a registry space: {space!r}")


def _atom_constraints(space: Space, atom: CoverAtom
                      ) -> Optional[tuple[tuple[int, int], ...]]:
    """The (index, value) pairs a point's name must match to lie in the
    atom, or None when no name of the space extends sigma."""
    if not _atom_possibly_inhabited(space, atom):
        return None
    sigma = atom.sigma.as_dict()
    return tuple((i, sigma[i]) for i in _constrained_indices(space, atom))


def _cell_in_atom(space: Space, cell, atom: CoverAtom) -> Optional[bool]:
    """Three-valued membership of a whole cell; None = undecided at depth."""
    if not _atom_possibly_inhabited(space, atom):
        return False
    sigma = atom.sigma.as_dict()
    unknown = False
    for i in _constrained_indices(space, atom):
        forced = space.cell_value_at(cell, i)
        if forced is None:
            unknown = True
        elif forced != sigma[i]:
            return False
    return None if unknown else True


def covers(theta: Theta, space: Space,
           depth: Optional[int] = None) -> CoversReport:
    """Decide whether the atoms of theta cover the whole registry space.

    Exhausts the space at the given resolution; sound and complete once
    depth exceeds every atom's radius exponent (the default).  A cell that
    is neither inside some atom nor excluded from all raises
    ``k2.Exhausted`` with reason ``depth``.
    """
    if depth is None:
        depth = default_cover_depth(theta)
    for cell in space.cells(depth):
        hit = False
        undecided = False
        for atom in theta.atoms:
            r = _cell_in_atom(space, cell, atom)
            if r is True:
                hit = True
                break
            if r is None:
                undecided = True
        if not hit:
            if undecided:
                raise k2.Exhausted(
                    f"cell {cell!r} undecided at depth {depth}", "depth")
            return CoversReport(False, depth, witness_cell=cell)
    return CoversReport(True, depth)


# A trie node maps a value a to (code of the node's prefix extended by a,
# child node).  Codes are built only by k2.cantor_pair, one pairing per
# node.

# The largest realizer trie in the test suite holds about 235 kbit of
# codes, so this bound only keeps a long-lived realizer from growing
# without end.
PREFIX_TRIE_MAX_BITS = 1 << 20


class PrefixCodeTrie:
    """Sequence codes stored along the prefixes they share.

    Walking a sequence through the trie costs one pairing per prefix that
    no earlier walk reached, and a dict lookup per prefix that one did.
    ``bits`` is the total bit length of the codes held.  A walk that
    starts with ``bits`` past ``PREFIX_TRIE_MAX_BITS`` first drops every
    node, so the trie holds at most that bound plus one walk.
    """

    def __init__(self):
        self._root: dict[int, tuple[int, dict]] = {}
        self.bits = 0

    def codes(self, values: Iterable[int]) -> Iterator[int]:
        """Lazily yield the code of every prefix of ``values``, the empty
        prefix first; each code is built only when it is asked for."""
        if self.bits > PREFIX_TRIE_MAX_BITS:
            self._root, self.bits = {}, 0
        node = self._root
        code = 0
        yield code
        for a in values:
            hit = node.get(a)
            if hit is None:
                if a < 0:
                    raise ValueError("sequence entries must be naturals")
                hit = node[a] = (k2.cantor_pair(code, a) + 1, {})
                self.bits += hit[0].bit_length()
            code, node = hit
            yield code


def trie_walk_realizer(base, space=None, max_prefix_len: int = 16):
    """The base realizer walking every atom's run through one trie."""
    trie = PrefixCodeTrie()

    def evaluate(seq, h, fuel: int) -> EvalOutcome:
        oracle = h.h if isinstance(h, AvoidanceName) else h
        spent = 0
        malformed: list[tuple[int, int]] = []
        for member_index in itertools.count():
            bounds: list[int] = []
            certified_atoms: list[CoverAtom] = []
            certified = True
            try:
                atom_stream = base.iter_atoms(member_index)
            except k2.SpecError:
                return EvalOutcome(PartialResult.exhausted(spent), stage="empty-base",
                                   malformed=tuple(malformed))
            for atom in atom_stream:
                found = None
                run = min(atom.sigma.initial_run, max_prefix_len)
                codes = trie.codes(v for _, v in atom.sigma.entries[:run])
                for _ in range(run + 1):
                    if spent >= fuel:
                        return EvalOutcome(PartialResult.exhausted(spent),
                                           malformed=tuple(malformed))
                    code = next(codes)
                    spent += 1
                    v = oracle(code)
                    if v > 0:
                        nm = decode_pair(v - 1)
                        if nm is None:
                            malformed.append((code, v))
                            continue
                        n_ans, m_ans = nm
                        if n_ans <= atom.n:
                            found = m_ans
                            break
                if found is None:
                    certified = False
                    break
                bounds.append(found)
                certified_atoms.append(atom)
            if not certified_atoms:
                # an empty member certifies nothing; burn a step and move on
                if spent < fuel:
                    spent += 1
                if spent >= fuel:
                    return EvalOutcome(PartialResult.exhausted(spent),
                                       malformed=tuple(malformed))
                continue
            if certified:
                bound = max(bounds) if bounds else 0
                value = seq.onset_below(bound)
                return EvalOutcome(PartialResult.of(value, spent=spent),
                                   certificate=Theta(tuple(certified_atoms)),
                                   bound=bound,
                                   member_index=member_index,
                                   malformed=tuple(malformed))

    return AntiSpeckerRealizer(evaluate, base.space if space is None else space)


def seq_length(code: int) -> int:
    return len(decode_seq(code))


def harvest(answered: dict[int, int]) -> Optional[Theta]:
    """Atoms at the prefix-minimal answered sequences of an answer table."""
    answered_seqs = {code: decode_seq(code) for code, v in answered.items() if v > 0}
    atoms = []
    for code, s in answered_seqs.items():
        if any(other != s and s[:len(other)] == other
               for other in answered_seqs.values()):
            continue
        nm = decode_pair(answered[code] - 1)
        if nm is None:
            continue
        atoms.append(CoverAtom(FinPartialFn.from_seq(s), nm[0]))
    if not atoms:
        return None
    return Theta(tuple(atoms))


def fin_partial_fn_entries(entries):
    """The entries ``FinPartialFn`` keeps for ``entries``, or the
    ``ValueError`` it raises."""
    idxs = [k for k, _ in entries]
    if any(k < 0 for k in idxs) or any(v < 0 for _, v in entries):
        raise ValueError("finite partial functions map naturals to naturals")
    if len(set(idxs)) != len(idxs):
        raise ValueError("duplicate indices")
    if list(idxs) != sorted(idxs):
        return tuple(sorted(entries))
    return entries


def base_from_realizer(m: AntiSpeckerRealizer, space: Space,
                       config: Optional[ProbeConfig] = None) -> ProbedBase:
    """The probe that evaluates every candidate of both phases."""
    cfg = config if config is not None else ProbeConfig()
    all_star = NameSequence((), "star")
    emissions: list[Theta] = []
    seen: set = set()
    evals = 0
    exhausted = False

    def consider(theta: Optional[Theta]) -> None:
        if theta is None or theta in seen:
            return
        try:
            if aspk.covers(theta, space).covered:
                seen.add(theta)
                emissions.append(theta)
        except k2.Exhausted:
            pass

    # Phase one: blind table enumeration.
    for table in _blind_candidates(cfg.blind_size_cap):
        if evals >= cfg.budget:
            exhausted = True
            break
        h_tau = RecordingOracle(Oracle(
            lambda c, d=table.as_dict(): d.get(c, 0), label="probe-table"))
        out = m.evaluate(all_star, AvoidanceName(h_tau, "probe"), cfg.eval_fuel)
        evals += 1
        if not out.result.is_value:
            continue
        dom = set(table.domain)
        if any(code not in dom for code, _ in h_tau.transcript):
            continue
        consider(harvest(table.as_dict()))

    # Phase two: uniform depth candidates, frozen to the queried restriction.
    for depth in range(cfg.depth_cap + 1):
        for n_ans in cfg.radius_grid:
            for m_ans in cfg.onset_grid:
                if evals >= cfg.budget:
                    exhausted = True
                    break
                answer = encode_pair(n_ans, m_ans) + 1
                h_probe = RecordingOracle(Oracle(
                    lambda c, d=depth, a=answer: a if seq_length(c) >= d else 0,
                    label=f"probe-depth-{depth}"))
                out = m.evaluate(all_star, AvoidanceName(h_probe, "probe"),
                                 cfg.eval_fuel)
                evals += 1
                if not out.result.is_value:
                    continue
                frozen = {code: v for code, v in h_probe.transcript}
                consider(harvest(frozen))

    return ProbedBase(space, emissions, exhausted=exhausted, evals_spent=evals)


def _certified_m(h: AvoidanceName, atom: CoverAtom) -> Optional[int]:
    """The m of the answer (n', m) with n' <= n that the avoidance name
    gives on the shortest prefix of the atom's sigma, of at most
    ``MAX_PREFIX_LEN`` entries, that has one; None when none has."""
    run = atom.sigma.initial_run
    values = [v for _, v in atom.sigma.entries[:run]]
    for length in range(min(run, aspk.MAX_PREFIX_LEN) + 1):
        answer = h.h(k2.encode_seq(values[:length]))
        pair = decode_pair(answer - 1) if answer > 0 else None
        if pair is not None and pair[0] <= atom.n:
            return pair[1]
    return None


def check_outcome(space: Space, seq: NameSequence, h: AvoidanceName,
                  outcome: EvalOutcome) -> list[str]:
    """The conditions of an answered evaluation of the builtin base's
    realizer on an eventually-star sequence that ``outcome`` fails; empty
    when it holds.

    The certificate is all of member ``member_index`` of the reference
    builtin base; each of that member's atoms (sigma, n) has an answer
    (n', m) with n' <= n (``_certified_m``); ``bound`` is the largest such
    m, 0 with no atom; and ``value`` is one past the last real entry of
    the sequence below ``bound``, 0 when there is none.
    """
    if outcome.member_index is None or not outcome.result.is_value:
        return ["an answer with its member"]
    failed = []
    member = Theta(tuple(reference_builtin_base(space).iter_atoms(outcome.member_index)))
    if outcome.certificate != member:
        failed.append("the certificate is member member_index")
    ms = [_certified_m(h, atom) for atom in member.atoms]
    if None in ms:
        failed.append("every atom of the member is certified")
    elif outcome.bound != max(ms, default=0):
        failed.append("bound is the largest certified m")
    # the added point's name is 0 at index 0; past the prefix of an
    # eventually-star sequence every entry is the added point
    bound = outcome.bound if outcome.bound is not None else 0
    real = [i for i in range(min(bound, seq.horizon)) if seq.entry(i)(0) != 0]
    if outcome.result.value != (real[-1] + 1 if real else 0):
        failed.append("value is one past the last real entry below bound")
    return failed
