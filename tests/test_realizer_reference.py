"""The base realizer against a reference that re-encodes every prefix.

``realizer_from_base`` takes its prefix codes from a trie shared by all of
its evaluations.  The reference below is the evaluator as it was before
the trie: it builds each code with ``sigma.prefix_code(length)``, and it
asks the avoidance name on every prefix step.  The realizer asks each code
at most once per evaluation, so its query log is the reference's with
every repeated code dropped (``first_asks``).  The outcomes must be equal,
and so must the warm and cold realizers' logs, whether the trie is cold or
warm.

The builtin and product bases keep their members' atoms, and ``covers``
computes each atom's constraints once and keeps its reports on a registry
space, so each covering comparison runs twice, with the store emptied and
then warm.  ``tests/antispecker_reference.py``
holds the versions that rebuilt all of these every time, and the
generator trie that ``trie_walk_realizer`` walks per atom where the
realizer walks its nested dict inline; the later tests compare the two:
member atoms, covering reports, evaluations, probed bases, and the number
of objects and pairings each evaluation builds.  The last tests hold the
harvest's walk up each answered code to the reference's pairwise scan,
and a cold realizer to the trie walk at every fuel up to a certifying
spend.
"""

import contextlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import antispecker_reference as ref
from antispecker_reference import seq_length
from baire import antispecker as aspk
from baire import k2, naming
from baire.antispecker import (AntiSpeckerRealizer, AvoidanceName, EvalOutcome,
                               ProbeConfig, Theta, base_from_realizer,
                               builtin_base, make_avoidance_name,
                               realizer_from_base)
from baire.k2 import (Oracle, PartialResult, RecordingOracle, decode_pair,
                      encode_pair)
from baire.naming import NameSequence, ProductSpace

CANTOR = naming.cantor_space()
FIN2 = naming.finite_space(2)
FIN3 = naming.finite_space(3)
CANTOR_X_FIN2 = naming.product_metric_naming(CANTOR, FIN2)
SPACES = (CANTOR, FIN2, FIN3, CANTOR_X_FIN2)
FUELS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 200, 600)


def reference_realizer(base, max_prefix_len=16):
    def evaluate(seq, h, fuel):
        oracle = h.h if isinstance(h, AvoidanceName) else h
        spent = 0
        malformed = []
        for member_index in itertools.count():
            bounds = []
            certified_atoms = []
            certified = True
            try:
                atom_stream = base.iter_atoms(member_index)
            except k2.SpecError:
                return EvalOutcome(PartialResult.exhausted(spent), stage="empty-base",
                                   malformed=tuple(malformed))
            for atom in atom_stream:
                found = None
                for length in range(min(atom.sigma.initial_run, max_prefix_len) + 1):
                    if spent >= fuel:
                        return EvalOutcome(PartialResult.exhausted(spent),
                                           malformed=tuple(malformed))
                    code = atom.sigma.prefix_code(length)
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

    return AntiSpeckerRealizer(evaluate, base.space)


def first_asks(log):
    """The log with each code kept once, at its first ask: the log that one
    evaluation of ``realizer_from_base`` leaves where the reference asks on
    every step."""
    seen = set()
    return [(c, v) for c, v in log if not (c in seen or seen.add(c))]


def random_sequence(rng, m):
    sp = m
    return NameSequence(tuple(
        k2.star_name() if rng.random() < 0.3
        else sp.canonical_name(sp.sample_point(rng))
        for _ in range(rng.randrange(0, 7))), "star")


def avoidance_oracles(rng, seq):
    """Oracles over sequence codes: onset names, uniform depth answers,
    silent ones, and hashed answers of which many are malformed."""
    h = make_avoidance_name(seq, radius_exp=rng.randrange(3),
                            answer_depth=rng.randrange(4))
    yield h.h
    depth = rng.randrange(5)
    answer = encode_pair(rng.randrange(3), rng.randrange(4)) + 1
    yield Oracle(lambda c: answer if seq_length(c) >= depth else 0)
    yield k2.constant(0)
    yield k2.constant(2)            # 1 decodes to (0,), never a pair
    salt = rng.randrange(1000)
    yield Oracle(lambda c: (c * 2654435761 + salt) % 7)


def assert_same_evaluations(base, m, rng, cases):
    """Evaluate one realizer on every case, so that its trie warms up, and
    check each outcome and query log against a cold realizer and the
    reference's first asks."""
    shared = realizer_from_base(base)
    reference = reference_realizer(base)
    for _ in range(cases):
        seq = random_sequence(rng, m)
        for oracle in avoidance_oracles(rng, seq):
            fuel = rng.choice(FUELS)
            cold = realizer_from_base(base)
            runs = []
            for r in (shared, cold, reference):
                h = RecordingOracle(oracle)
                runs.append((r.evaluate(seq, AvoidanceName(h, "test"), fuel),
                             h.transcript))
            (warm_out, warm_log), (cold_out, cold_log), (ref_out, ref_log) = runs
            assert warm_out == cold_out == ref_out
            assert warm_log == cold_log == first_asks(ref_log)


def test_builtin_bases_match_reference():
    rng = random.Random(2)
    for m in SPACES:
        assert_same_evaluations(builtin_base(m), m, rng, cases=6)


def test_fuel_running_out_mid_atom_matches_reference():
    base = builtin_base(CANTOR)
    shared = realizer_from_base(base, CANTOR)
    reference = reference_realizer(base)
    seq = NameSequence((), "star")
    for depth in range(4):
        answer = encode_pair(0, 1) + 1
        oracle = Oracle(lambda c, d=depth: answer if seq_length(c) >= d else 0)
        for fuel in range(40):
            h = AvoidanceName(oracle, "test")
            got = shared.evaluate(seq, h, fuel)
            assert got == reference.evaluate(seq, h, fuel)
            assert got == realizer_from_base(base, CANTOR).evaluate(seq, h, fuel)


def test_probed_bases_match_reference():
    rng = random.Random(3)
    config = ProbeConfig(budget=40, eval_fuel=300, blind_size_cap=4,
                         depth_cap=3, radius_grid=(0, 1), onset_grid=(0, 2))
    for m in SPACES:
        base = builtin_base(m)
        probed = base_from_realizer(realizer_from_base(base), m,
                                    config=config)
        want = base_from_realizer(reference_realizer(base), m,
                                  config=config)
        assert probed.to_json() == want.to_json()
        assert_same_evaluations(probed, m, rng, cases=3)


# -- kept members, kept codes and the one-pass covering check ------------------

NESTED = naming.product_metric_naming(CANTOR, CANTOR_X_FIN2)
ALL_SPACES = SPACES + (NESTED,)


def reference_pair(m):
    """The fast realizer over the fast base, and the trie walk over the
    base that rebuilds its atoms."""
    return (realizer_from_base(builtin_base(m)),
            ref.trie_walk_realizer(ref.reference_builtin_base(m)))


def atom_key(atom):
    return (atom.sigma.entries, atom.n)


@pytest.mark.parametrize("m", ALL_SPACES, ids=lambda m: m.space_id)
def test_kept_members_match_rebuilt_members(m):
    fast = builtin_base(m)
    slow = ref.reference_builtin_base(m)
    members = 60 if isinstance(m, ProductSpace) else 9
    for i in range(members):
        want = [atom_key(a) for a in slow.iter_atoms(i)]
        # abandon a first stream part way, then read the member twice
        part = list(itertools.islice(fast.iter_atoms(i), len(want) // 2))
        assert [atom_key(a) for a in part] == want[:len(part)]
        first = list(fast.iter_atoms(i))
        assert [atom_key(a) for a in first] == want
        again = list(fast.iter_atoms(i))
        assert all(x is y for x, y in zip(first, again)) and len(again) == len(first)
        if isinstance(m, ProductSpace):
            assert fast._spec(i) == slow._spec(i)
    if isinstance(m, ProductSpace):
        assert any(not isinstance(fast._spec(i)[1], int) for i in range(members))


def test_interleaved_streams_of_one_member_agree():
    base = builtin_base(CANTOR)
    slow = ref.reference_builtin_base(CANTOR)
    want = [atom_key(a) for a in slow.iter_atoms(4)]
    a, b = base.iter_atoms(4), base.iter_atoms(4)
    got_a, got_b = [], []
    for k in range(len(want)):
        got_a.append(atom_key(next(a)))
        if k % 3 == 0:
            got_b.extend(atom_key(x) for x in itertools.islice(b, 2))
    got_b.extend(atom_key(x) for x in b)
    assert got_a == want and got_b == want
    # a product whose two factors are one and the same kept base
    square = aspk.ProductBase(base, base)
    slow_square = ref.ReferenceProductBase(slow, slow)
    for i in range(30):
        assert ([atom_key(x) for x in square.iter_atoms(i)]
                == [atom_key(x) for x in slow_square.iter_atoms(i)])


def test_a_failing_member_fails_again_at_the_same_atom():
    empty = aspk.ProbedBase(FIN2, (), exhausted=False, evals_spent=0)
    for kept in (aspk.ProductBase(builtin_base(FIN2), empty),
                 aspk.ProductBase(empty, builtin_base(FIN2))):
        slow = ref.ReferenceProductBase(*((ref.reference_builtin_base(FIN2), empty)
                                          if kept.by is empty else
                                          (empty, ref.reference_builtin_base(FIN2))))
        for _ in range(2):
            for base in (kept, slow):
                stream = base.iter_atoms(0)
                with pytest.raises(k2.SpecError):
                    list(stream)


def test_every_member_of_a_product_over_an_empty_base_raises_its_error():
    # the left factor fails at member 0, in a product member and in the
    # enumeration of member shapes alike; every index, read once or again,
    # raises that failure, never a StopIteration turned RuntimeError
    empty = aspk.ProbedBase(CANTOR, (), exhausted=False, evals_spent=0)
    kept = aspk.ProductBase(empty, builtin_base(FIN2))
    slow = ref.ReferenceProductBase(empty, ref.reference_builtin_base(FIN2))
    for i in [*range(6), *range(6)]:
        for base in (kept, slow):
            with pytest.raises(k2.SpecError,
                               match="probe harvested no covering members"):
                next(base.iter_atoms(i))


def random_theta(rng, m):
    """Atoms over the first few name indices, some with values no name of
    the space takes, so that every branch of the covering check runs."""
    atoms = []
    for _ in range(rng.randrange(1, 7)):
        entries = {i: rng.choice((0, 1, 1, 2, 2, 3))
                   for i in rng.sample(range(6), rng.randrange(0, 5))}
        atoms.append(aspk.CoverAtom(k2.FinPartialFn.from_dict(entries),
                                    rng.randrange(4)))
    return Theta(tuple(atoms))


def same_covers(theta, m, depth=None):
    """``covers`` against the reference twice: cold, in a fresh run, so
    that it scans the cells, and warm, when a registry space reads the
    report the cold call kept."""
    try:
        want = ref.covers(theta, m, depth)
    except k2.Exhausted as e:
        with aspk.Run() as run:
            for _ in ("cold", "warm"):
                with pytest.raises(k2.Exhausted) as got:
                    aspk.covers(theta, m, depth)
                assert got.value.to_json() == e.to_json()
        assert not run.reports
        return "undecided"
    with aspk.Run():
        cold = aspk.covers(theta, m, depth)
        warm = aspk.covers(theta, m, depth)
    for got in (cold, warm):
        assert got == want
        assert got.to_json() == want.to_json()
    assert (warm is cold) == naming.is_registry(m)
    return want.covered


@pytest.mark.parametrize("m", ALL_SPACES, ids=lambda m: m.space_id)
def test_covers_matches_the_per_cell_check(m):
    rng = random.Random(11)
    seen = set()
    thetas = [Theta(tuple(builtin_base(m).iter_atoms(i))) for i in range(7)]
    thetas += [random_theta(rng, m) for _ in range(60)]
    config = ProbeConfig(budget=40, eval_fuel=300, blind_size_cap=3,
                         depth_cap=3, radius_grid=(0, 1), onset_grid=(0, 2))
    thetas += base_from_realizer(realizer_from_base(builtin_base(m)),
                                 m, config=config).members
    for theta in thetas:
        for depth in (None, 0, 1, 2, 3):
            seen.add(same_covers(theta, m, depth))
    # a finite space's cells fix every index, so only Cantor factors
    # leave cells undecided
    assert seen == ({True, False} if isinstance(m, naming.FiniteSpace)
                    else {True, False, "undecided"})


def test_covers_reports_the_same_witness_cell():
    theta = Theta((aspk.CoverAtom(k2.FinPartialFn.from_seq((1,)), 1),
                   aspk.CoverAtom(k2.FinPartialFn.from_seq((2, 1)), 1)))
    got = aspk.covers(theta, CANTOR)
    assert got == ref.covers(theta, CANTOR)
    assert got.witness_cell == (1, 1)


class OwnCantor(naming.CantorSpace):
    """A caller's own space that takes the registry's ``space_id``."""


def test_equal_thetas_over_a_registry_space_are_scanned_once(monkeypatch):
    atoms = (aspk.CoverAtom(k2.FinPartialFn.from_seq((1,)), 1),
             aspk.CoverAtom(k2.FinPartialFn.from_seq((2,)), 1))
    one, two = Theta(atoms), Theta(atoms)
    assert one == two and one is not two
    own = OwnCantor()
    assert own.space_id == CANTOR.space_id
    want = ref.covers(one, CANTOR)
    scans = []
    cells = naming.CantorSpace.cells

    def counted(self, depth):
        scans.append(self.space_id)
        return cells(self, depth)

    monkeypatch.setattr(naming.CantorSpace, "cells", counted)
    with aspk.Run() as run:
        # a space outside the registry scans on every call and keeps nothing
        assert [aspk.covers(theta, own) for theta in (one, two, one)] == [want] * 3
        assert scans == ["cantor"] * 3 and not run.reports
        # the registry's Cantor space scans once for both, at the default
        # depth given or not
        got = aspk.covers(one, CANTOR)
        assert aspk.covers(two, CANTOR) is got and aspk.covers(one, CANTOR, 2) is got
        assert got == want and scans == ["cantor"] * 4
        assert list(run.reports) == [("cantor", 2, one)]


def foreign_value(m, i: int) -> int:
    """A value that no name of the space takes at index i."""
    while isinstance(m, ProductSpace):
        m, i = (m.left, i // 2) if i % 2 == 0 else (m.right, i // 2)
    return 3 if isinstance(m, naming.CantorSpace) else m.n + 1


def damage(theta, m, kind: int, rng):
    """Theta with one atom dropped (one is kept), one atom's radius
    exponent raised by 1 or 2, or one sigma value set to a foreign value."""
    atoms = list(theta.atoms)
    j = rng.randrange(len(atoms))
    a = atoms[j]
    if kind == 0 and len(atoms) > 1:
        del atoms[j]
    elif kind == 1:
        atoms[j] = aspk.CoverAtom(a.sigma, a.n + rng.randrange(1, 3))
    elif kind == 2 and a.sigma.entries:
        entries = dict(a.sigma.entries)
        i = rng.choice(sorted(entries))
        entries[i] = foreign_value(m, i)
        atoms[j] = aspk.CoverAtom(k2.FinPartialFn.from_dict(entries), a.n)
    return Theta(tuple(atoms))


def test_damaged_members_are_refused_as_the_reference_refuses_them():
    outcomes = []

    @given(st.sampled_from(ALL_SPACES), st.integers(0, 4), st.integers(0, 2),
           st.integers(min_value=0))
    def check(m, i, kind, seed):
        theta = damage(Theta(tuple(builtin_base(m).iter_atoms(i))), m, kind,
                       random.Random(seed))
        outcomes.append(same_covers(theta, m))

    check()
    assert True in outcomes and {False, "undecided"} & set(outcomes)


@pytest.mark.parametrize("m", ALL_SPACES, ids=lambda m: m.space_id)
def test_kept_bases_and_codes_match_rebuilding_ones(m):
    """Warm and cold realizers over kept bases against the trie walk and the
    per-length encoder over bases that rebuild their atoms."""
    rng = random.Random(5)
    base, slow_base = builtin_base(m), ref.reference_builtin_base(m)
    warm = realizer_from_base(base)
    walk = ref.trie_walk_realizer(slow_base)
    per_length = reference_realizer(slow_base)
    for _ in range(4):
        seq = random_sequence(rng, m)
        for oracle in avoidance_oracles(rng, seq):
            for fuel in (rng.choice(FUELS), rng.randrange(1, 40)):
                runs = []
                for r in (warm, realizer_from_base(builtin_base(m)),
                          walk, per_length):
                    h = RecordingOracle(oracle)
                    runs.append((r.evaluate(seq, AvoidanceName(h, "test"), fuel),
                                 h.transcript))
                outs = [out for out, _log in runs]
                logs = [log for _out, log in runs]
                assert all(out == outs[-1] for out in outs)
                # the two references ask on every step, and alike
                assert logs[2] == logs[3]
                assert logs[0] == logs[1] == first_asks(logs[3])


def test_fuel_running_out_mid_atom_of_a_product_member():
    m = NESTED
    warm = realizer_from_base(builtin_base(m))
    slow = ref.trie_walk_realizer(ref.reference_builtin_base(m))
    seq = NameSequence((), "star")
    for depth in range(5):
        answer = encode_pair(0, 1) + 1
        oracle = Oracle(lambda c, d=depth: answer if seq_length(c) >= d else 0)
        for fuel in range(0, 120, 7):
            h = AvoidanceName(oracle, "test")
            assert warm.evaluate(seq, h, fuel) == slow.evaluate(seq, h, fuel)


def probed_fields(probed):
    return (probed.space.space_id, probed.members, probed.exhausted,
            probed.evals_spent)


@pytest.mark.parametrize("m", ALL_SPACES, ids=lambda m: m.space_id)
def test_probed_bases_match_rebuilding_realizers(m):
    rng = random.Random(7)
    for config in (ProbeConfig(budget=40, eval_fuel=300, blind_size_cap=4,
                               depth_cap=3, radius_grid=(0, 1), onset_grid=(0, 2)),
                   ProbeConfig(budget=25, eval_fuel=45, blind_size_cap=3,
                               depth_cap=4, radius_grid=(0, 2), onset_grid=(0, 3))):
        fast, slow = reference_pair(m)
        probed = base_from_realizer(fast, m, config=config)
        want = base_from_realizer(slow, m, config=config)
        assert probed_fields(probed) == probed_fields(want)
        # the probed bases, cycled past their end, evaluate alike too
        warm = realizer_from_base(probed)
        walk = ref.trie_walk_realizer(want)
        for _ in range(3):
            seq = random_sequence(rng, m)
            for oracle in avoidance_oracles(rng, seq):
                fuel = rng.choice(FUELS)
                logs = []
                for r in (warm, walk):
                    h = RecordingOracle(oracle)
                    logs.append((r.evaluate(seq, AvoidanceName(h, "t"), fuel),
                                 h.transcript))
                assert logs[0][0] == logs[1][0]
                assert logs[0][1] == first_asks(logs[1][1])


# -- what an evaluation builds ---------------------------------------------------


@contextlib.contextmanager
def counted_construction():
    """Count FinPartialFn and CoverAtom instances and pairings made."""
    log = {"fn": 0, "atom": 0, "pairs": 0}
    fn_init = k2.FinPartialFn.__init__
    atom_init = aspk.CoverAtom.__init__
    pair = k2.cantor_pair

    def counting_fn(self, *args, **kw):
        log["fn"] += 1
        fn_init(self, *args, **kw)

    def counting_atom(self, *args, **kw):
        log["atom"] += 1
        atom_init(self, *args, **kw)

    def counting_pair(x, y):
        log["pairs"] += 1
        return pair(x, y)

    with mock.patch.object(k2.FinPartialFn, "__init__", counting_fn), \
            mock.patch.object(aspk.CoverAtom, "__init__", counting_atom), \
            mock.patch.object(k2, "cantor_pair", counting_pair):
        yield log


class FreshCopies(aspk.CompactnessBase):
    """A base that hands out a new copy of every atom on every call."""

    def __init__(self, base):
        self.base = base
        self.space = base.space

    def iter_atoms(self, i):
        for atom in self.base.iter_atoms(i):
            yield aspk.CoverAtom(k2.FinPartialFn(atom.sigma.entries), atom.n)


def test_a_base_of_fresh_atoms_evaluates_and_pairs_alike():
    rng = random.Random(17)
    for m in (CANTOR, CANTOR_X_FIN2):
        fast = realizer_from_base(FreshCopies(builtin_base(m)))
        walk = ref.trie_walk_realizer(ref.reference_builtin_base(m))
        for _ in range(3):
            seq = random_sequence(rng, m)
            for oracle in avoidance_oracles(rng, seq):
                fuel = rng.choice(FUELS)
                runs = []
                for r in (fast, walk):
                    h = RecordingOracle(oracle)
                    with counted_construction() as log:
                        out = r.evaluate(seq, AvoidanceName(h, "t"), fuel)
                    runs.append((out, h.transcript, log["pairs"]))
                (out, log, pairs), (ref_out, ref_log, ref_pairs) = runs
                assert (out, pairs) == (ref_out, ref_pairs)
                assert log == first_asks(ref_log)


def depth_oracle(depth, n=0, m=1):
    answer = encode_pair(n, m) + 1
    return Oracle(lambda c: answer if seq_length(c) >= depth else 0)


def counting_cases():
    probe_config = ProbeConfig(budget=40, eval_fuel=300, blind_size_cap=3,
                               depth_cap=3, radius_grid=(0, 1), onset_grid=(0, 2))
    for m in ALL_SPACES:
        yield m, builtin_base(m), ref.reference_builtin_base(m)
        probed = base_from_realizer(realizer_from_base(builtin_base(m)),
                                    m, config=probe_config)
        yield m, probed, probed


@pytest.mark.parametrize("depth", (0, 2, 4))
def test_a_warm_evaluation_builds_nothing(depth):
    for m, base, _ in counting_cases():
        realizer = realizer_from_base(base, m)
        seq = NameSequence((), "star")
        for fuel in (5, 37, 600):
            first = realizer.evaluate(seq, AvoidanceName(depth_oracle(depth), "t"), fuel)
            name = AvoidanceName(depth_oracle(depth), "t")
            with counted_construction() as log:
                again = realizer.evaluate(seq, name, fuel)
            assert again == first
            assert log == {"fn": 0, "atom": 0, "pairs": 0}


def test_a_cold_realizer_pairs_as_the_trie_walk_does():
    rng = random.Random(13)
    for m, base, slow_base in counting_cases():
        fast = realizer_from_base(base)
        walk = ref.trie_walk_realizer(slow_base)
        seq = random_sequence(rng, m)
        for oracle in list(avoidance_oracles(rng, seq)) + [depth_oracle(6)]:
            fuel = rng.choice(FUELS)
            pairs = []
            for r in (fast, walk):
                with counted_construction() as log:
                    r.evaluate(seq, AvoidanceName(oracle, "t"), fuel)
                pairs.append(log["pairs"])
            assert pairs[0] == pairs[1]


evaluation_runs = st.lists(
    st.tuples(st.sampled_from(range(len(ALL_SPACES))),
              st.integers(min_value=0, max_value=7),     # answer depth
              st.integers(min_value=0, max_value=2),     # answer radius
              st.integers(min_value=0, max_value=250)),  # fuel
    min_size=1, max_size=8)


@given(evaluation_runs)
def test_the_inline_trie_follows_the_trie_walk_through_restarts(runs):
    """Under a 40-bit bound on both tries, each restarts on nearly every
    atom.  A warm realizer must still give the trie walk's outcomes, ask
    the trie walk's first asks, and pair exactly as often."""
    with mock.patch.object(aspk, "PREFIX_TRIE_MAX_BITS", 40), \
            mock.patch.object(ref, "PREFIX_TRIE_MAX_BITS", 40):
        realizers = {}
        for space_index, depth, radius, fuel in runs:
            m = ALL_SPACES[space_index]
            if space_index not in realizers:
                realizers[space_index] = reference_pair(m)
            fast, walk = realizers[space_index]
            oracle = depth_oracle(depth, radius, 1)
            per_length = reference_realizer(ref.reference_builtin_base(m))
            logs, pairs = [], []
            for r in (fast, walk, per_length):
                h = RecordingOracle(oracle)
                with counted_construction() as log:
                    out = r.evaluate(NameSequence((), "star"), AvoidanceName(h, "t"),
                                     fuel)
                logs.append((out, h.transcript))
                pairs.append(log["pairs"])
            assert logs[0][0] == logs[1][0] == logs[2][0]
            assert logs[1][1] == logs[2][1]
            assert logs[0][1] == first_asks(logs[1][1])
            assert pairs[0] == pairs[1]


@pytest.mark.parametrize("depth, pairings", [(10, 2056), (12, 8386)])
def test_the_cantor_demo_pairs_each_prefix_once(depth, pairings):
    """``antispecker demo`` on Cantor space against an onset name that
    answers only from ``depth`` on walks members 0..depth, whose atoms
    share their prefixes.  At depth 10 that is one pairing per trie node
    (the 2,046 {1,2}-words of length 1 to 10), 2 for the name's answer
    code and 8 re-paired after the trie passes its bit bound and restarts.
    Per-atom code lists without the shared trie pair 10,287 at depth 10."""
    seq = NameSequence((), "star")
    realizer = realizer_from_base(builtin_base(CANTOR))
    with counted_construction() as log:
        out = realizer.evaluate(seq, make_avoidance_name(seq, 0, depth), 10 ** 7)
    assert out.result.is_value and out.member_index == depth
    assert log["pairs"] == pairings


@given(st.sampled_from(range(len(ALL_SPACES))), st.integers(min_value=0),
       st.sampled_from(FUELS))
def test_an_evaluation_asks_each_code_once(space_index, seed, fuel):
    """No code repeats in one evaluation's log, while the reference asks
    again on every step that reaches a code; a name whose every answer is
    malformed still gets one malformed entry per step."""
    m = ALL_SPACES[space_index]
    rng = random.Random(seed)
    seq = random_sequence(rng, m)
    base = builtin_base(m)
    for oracle in avoidance_oracles(rng, seq):
        runs = []
        for r in (realizer_from_base(base), reference_realizer(base)):
            h = RecordingOracle(oracle)
            runs.append((r.evaluate(seq, AvoidanceName(h, "t"), fuel), h.transcript))
        (out, log), (ref_out, ref_log) = runs
        codes = [c for c, _ in log]
        assert len(codes) == len(set(codes))
        assert out == ref_out and log == first_asks(ref_log)
    always_malformed = k2.constant(2)
    h = RecordingOracle(always_malformed)
    out = realizer_from_base(base).evaluate(seq, AvoidanceName(h, "t"), fuel)
    ref_h = RecordingOracle(always_malformed)
    reference_realizer(base).evaluate(seq, AvoidanceName(ref_h, "t"), fuel)
    assert list(out.malformed) == ref_h.transcript
    assert h.transcript == first_asks(ref_h.transcript)


def test_the_reference_asks_again_where_the_realizer_does_not():
    """The builtin Cantor base's members share prefixes, so a silent name
    makes the reference repeat codes that the realizer asks once."""
    base = builtin_base(CANTOR)
    seq = NameSequence((), "star")
    runs = []
    for r in (realizer_from_base(base), reference_realizer(base)):
        h = RecordingOracle(k2.constant(0))
        runs.append((r.evaluate(seq, AvoidanceName(h, "t"), 200), h.transcript))
    (out, log), (ref_out, ref_log) = runs
    assert out == ref_out and out.result.spent == 200
    assert len(log) == len({c for c, _ in ref_log}) < len(ref_log)


# -- the probe against the probe that evaluates every candidate -----------------

# the factor probes inside a product realizer
FACTOR_CONFIG = ProbeConfig(budget=60, blind_size_cap=3, depth_cap=3)


def probe_realizers(m):
    """The builtin and direct-scan realizers of m, and for a product the
    product realizer of its factors' builtin realizers."""
    yield "builtin", realizer_from_base(builtin_base(m))
    yield "direct_scan", aspk.direct_scan_realizer(m)
    if isinstance(m, ProductSpace):
        yield "product", aspk.product_anti_specker(
            realizer_from_base(builtin_base(m.left), m.left),
            realizer_from_base(builtin_base(m.right), m.right),
            m, config=FACTOR_CONFIG)


def blind_count(cap):
    return sum(1 for _ in aspk._blind_candidates(cap))


@pytest.mark.parametrize("m", ALL_SPACES, ids=lambda m: m.space_id)
def test_probes_match_the_probe_that_evaluates_every_candidate(m):
    """Budgets that stop inside phase one, at its end, inside phase two and
    past both, at every blind cap up to the command line's 8."""
    for label, realizer in probe_realizers(m):
        for cap in range(9):
            n = blind_count(cap)
            for budget in sorted({0, 1, n // 2, n - 1, n, n + 5, 400}):
                config = ProbeConfig(budget=budget, eval_fuel=300,
                                     blind_size_cap=cap, depth_cap=2,
                                     radius_grid=(0, 1), onset_grid=(0, 2))
                got = base_from_realizer(realizer, m, config=config)
                want = ref.base_from_realizer(realizer, m, config=config)
                assert probed_fields(got) == probed_fields(want), (label, cap, budget)


# what the log records for a phase-one evaluation stopped at its first
# query outside the table
LEFT_TABLE = "left the table"


@contextlib.contextmanager
def logged_probe(realizer):
    """The realizer with a log of its evaluations, and of the blind table
    the probe had last drawn when each one ran; a phase-one evaluation
    stopped at a query outside its table is logged as ``LEFT_TABLE``."""
    log = {"tables": [], "evaluated": [], "phase_two": 0}
    candidates = aspk._blind_candidates

    def logging_candidates(size_cap):
        for table in candidates(size_cap):
            log["tables"].append(table)
            yield table

    def evaluate(seq, h, fuel):
        if h.h.label != "recorded(probe-table)":
            log["phase_two"] += 1
            return realizer.evaluate(seq, h, fuel)
        try:
            out = realizer.evaluate(seq, h, fuel)
        except aspk._LeftTable:
            out = LEFT_TABLE
            raise
        finally:
            log["evaluated"].append((log["tables"][-1], out,
                                     [code for code, _ in h.h.transcript]))
        return out

    counted = AntiSpeckerRealizer(evaluate, realizer.space)
    with mock.patch.object(aspk, "_blind_candidates", logging_candidates):
        yield counted, log


WORKLOAD_SHAPES = [(blind, depth, radii, budget)
                   for blind, depth, radii in ((2, 2, (0, 1)), (3, 3, (0, 1, 3)),
                                               (3, 4, (1, 2, 3)))
                   for budget in (150, 250)]


@pytest.mark.parametrize("m", SPACES, ids=lambda m: m.space_id)
def test_small_blind_tables_run_no_evaluation(m):
    """No table of size 3 or less answers a pair, so at the benchmark's
    blind caps phase one decides every table from its harvest alone."""
    realizer = realizer_from_base(builtin_base(m))
    for blind, depth, radii, budget in WORKLOAD_SHAPES:
        config = ProbeConfig(budget=budget, blind_size_cap=blind, depth_cap=depth,
                             radius_grid=radii, onset_grid=(0, 3))
        with logged_probe(realizer) as (counted, log):
            got = base_from_realizer(counted, m, config=config)
        assert log["evaluated"] == []
        assert log["phase_two"] == (depth + 1) * len(radii) * 2
        want = ref.base_from_realizer(realizer, m, config=config)
        assert probed_fields(got) == probed_fields(want)
        assert got.evals_spent == blind_count(blind) + log["phase_two"]


@pytest.mark.parametrize("m", ALL_SPACES, ids=lambda m: m.space_id)
def test_only_tables_that_could_add_a_member_are_evaluated(m):
    """At the command line's blind cap, replay phase one from the log: a
    table is evaluated exactly when its harvest is not None and not yet
    emitted, and it is emitted exactly when the probe's checks pass."""
    config = ProbeConfig()
    for label, realizer in probe_realizers(m):
        with logged_probe(realizer) as (counted, log):
            got = base_from_realizer(counted, m, config=config)
        evaluated = iter(log["evaluated"])
        seen = []
        for table in log["tables"]:
            theta = aspk._harvest(table.as_dict())
            if theta is None or theta in seen:
                continue
            evaluated_table, out, queries = next(evaluated)
            assert evaluated_table is table, label
            domain = set(table.domain)
            if out is LEFT_TABLE:
                # stopped at its first query outside the table, just after it
                assert queries[-1] not in domain, label
                assert set(queries[:-1]) <= domain, label
                continue
            if (out.result.is_value and set(queries) <= domain
                    and aspk.covers(theta, m).covered):
                seen.append(theta)
        assert next(evaluated, None) is None, label
        assert len(log["evaluated"]) < len(log["tables"]) == blind_count(8)
        if label != "direct_scan":
            assert any(out is LEFT_TABLE for _, out, _ in log["evaluated"]), label
        assert list(got.members[:len(seen)]) == seen, label
        want = ref.base_from_realizer(realizer, m, config=config)
        assert probed_fields(got) == probed_fields(want), label


@pytest.mark.parametrize("m", SPACES, ids=lambda m: m.space_id)
def test_a_realizer_that_swallows_the_stop_is_still_refused(m):
    """A realizer that first asks a code past every blind table, catches
    the stop and then evaluates as the builtin realizer does is refused by
    the transcript check, as the probe that never stops refuses it."""
    honest = realizer_from_base(builtin_base(m))

    def evaluate(seq, h, fuel):
        try:
            h.h(1000)
        except k2.Exhausted:
            pass
        return honest.evaluate(seq, h, fuel)

    swallowing = AntiSpeckerRealizer(evaluate, m)
    # phase two then harvests no radius-0 member, which blind tables can
    config = ProbeConfig(radius_grid=(1, 2))
    with logged_probe(swallowing) as (counted, log):
        got = base_from_realizer(counted, m, config=config)
    want = ref.base_from_realizer(swallowing, m, config=config)
    assert probed_fields(got) == probed_fields(want)
    assert any(out is not LEFT_TABLE and out.result.is_value
               and queries[0] not in table.domain
               for table, out, queries in log["evaluated"])


# -- the harvest walk against the pairwise scan -------------------------------

short_sequences = st.lists(st.integers(min_value=0, max_value=3), max_size=4)
# 0 answers nothing, 1 and 2 are malformed, the rest decode to pairs
answers = st.sampled_from((0, 1, 2) + tuple(encode_pair(n, m) + 1
                                            for n in range(3) for m in range(3)))
blind_tables = st.dictionaries(
    st.one_of(short_sequences.map(k2.encode_seq),
              st.integers(min_value=0, max_value=400)),
    answers, max_size=10)


@given(blind_tables)
def test_harvest_matches_the_pairwise_scan_on_tables(table):
    """Tables that are not prefix-closed, with malformed answers and with
    code 0, the empty sequence's, answered or not."""
    assert aspk._harvest(table) == ref.harvest(table)


@given(st.sampled_from(range(len(ALL_SPACES))), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=7))
def test_harvest_matches_the_pairwise_scan_on_transcripts(space_index, depth, n, m,
                                                          fuel, salt):
    """The frozen transcripts of realizer evaluations, as phase two of the
    probe harvests them, under depth names and under hashed names whose
    answers are often malformed."""
    base = builtin_base(ALL_SPACES[space_index])
    for oracle in (depth_oracle(depth, n, m),
                   Oracle(lambda c: (c * 2654435761 + salt) % 7)):
        h = RecordingOracle(oracle)
        realizer_from_base(base).evaluate(NameSequence((), "star"),
                                          AvoidanceName(h, "t"), fuel)
        frozen = dict(h.transcript)
        assert aspk._harvest(frozen) == ref.harvest(frozen)


def test_a_malformed_prefix_answer_hides_its_extensions():
    """A positive answer on a proper prefix hides every extension, even
    when it decodes to no pair and so adds no atom of its own."""
    prefix, extension = k2.encode_seq((1,)), k2.encode_seq((1, 2))
    pair = encode_pair(0, 1) + 1
    assert decode_pair(2 - 1) is None
    for harvest in (aspk._harvest, ref.harvest):
        assert harvest({prefix: 2, extension: pair}) is None
        assert harvest({0: 2, extension: pair}) is None
        assert harvest({extension: pair}) == Theta((aspk.CoverAtom(
            k2.FinPartialFn.from_seq((1, 2)), 0),))


# -- exhaustion at every fuel -----------------------------------------------------


@pytest.mark.parametrize("m", (CANTOR, FIN3, CANTOR_X_FIN2), ids=lambda m: m.space_id)
def test_every_fuel_up_to_the_certifying_spend_matches_the_trie_walk(m):
    """At each fuel from 0 to the spend of the certifying evaluation, a
    cold realizer stops where the trie walk stops: the same outcome, the
    trie walk's first asks and the same number of pairings."""
    seq = NameSequence((), "star")
    names = [depth_oracle(depth, n, 1) for depth in range(4) for n in (0, 2)]
    # malformed on every third code, and a pair that only atoms of radius
    # 1 or more accept elsewhere
    pair = encode_pair(1, 2) + 1
    names.append(Oracle(lambda c: 2 if c % 3 == 1 else pair))
    for oracle in names:
        full = realizer_from_base(builtin_base(m)).evaluate(
            seq, AvoidanceName(oracle, "t"), 10 ** 6)
        assert full.result.is_value
        for fuel in range(full.result.spent + 1):
            runs = []
            for r in (realizer_from_base(builtin_base(m)),
                      ref.trie_walk_realizer(ref.reference_builtin_base(m))):
                h = RecordingOracle(oracle)
                with counted_construction() as log:
                    out = r.evaluate(seq, AvoidanceName(h, "t"), fuel)
                runs.append((out, h.transcript, log["pairs"]))
            (out, log, pairs), (ref_out, ref_log, ref_pairs) = runs
            assert (out, pairs) == (ref_out, ref_pairs)
            assert log == first_asks(ref_log)
            assert out.result.is_value == (fuel == full.result.spent)
