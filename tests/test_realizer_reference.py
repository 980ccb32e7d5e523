"""The base realizer against a reference that re-encodes every prefix.

``realizer_from_base`` takes its prefix codes from a trie shared by all of
its evaluations.  The reference below is the evaluator as it was before
the trie: it builds each code with ``sigma.prefix_code(length)``.  Both
must make the same queries in the same order and return equal outcomes,
whether the realizer's trie is cold or warm.
"""

import itertools
import random

from baire import antispecker as aspk
from baire import k2, naming
from baire.antispecker import (AntiSpeckerRealizer, AvoidanceName, EvalOutcome,
                               ProbeConfig, Theta, base_from_realizer,
                               builtin_base, make_avoidance_name,
                               realizer_from_base)
from baire.k2 import (Oracle, PartialResult, RecordingOracle, decode_pair,
                      encode_pair, seq_length)
from baire.naming import NameSequence, star_extension

CANTOR = naming.cantor_space()
FIN2 = naming.finite_space(2)
FIN3 = naming.finite_space(3)
CANTOR_X_FIN2 = naming.product_metric_naming(CANTOR, FIN2)
SPACES = (CANTOR, FIN2, FIN3, CANTOR_X_FIN2)
FUELS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 200, 600)


def reference_realizer(base, pointed, max_prefix_len=16):
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
                value = aspk._exact_settling_value(seq, pointed, bound)
                return EvalOutcome(PartialResult.of(value, spent=spent),
                                   certificate=Theta(tuple(certified_atoms)),
                                   bound=bound,
                                   member_index=member_index,
                                   malformed=tuple(malformed))

    return AntiSpeckerRealizer(evaluate, "reference", pointed)


def random_sequence(rng, m):
    sp = m
    return NameSequence(tuple(
        k2.star_name() if rng.random() < 0.3
        else sp.canonical_name(sp.sample_point(rng))
        for _ in range(rng.randrange(0, 7))), "star")


def avoidance_oracles(rng, seq, pointed):
    """Oracles over sequence codes: onset names, uniform depth answers,
    silent ones, and hashed answers of which many are malformed."""
    h = make_avoidance_name(seq, pointed, radius_exp=rng.randrange(3),
                            answer_depth=rng.randrange(4))
    yield h.h
    depth = rng.randrange(5)
    answer = encode_pair(rng.randrange(3), rng.randrange(4)) + 1
    yield Oracle(lambda c: answer if seq_length(c) >= depth else 0)
    yield k2.constant(0)
    yield k2.constant(2)            # 1 decodes to (0,), never a pair
    salt = rng.randrange(1000)
    yield Oracle(lambda c: (c * 2654435761 + salt) % 7)


def assert_same_evaluations(base, pointed, m, rng, cases):
    """Evaluate one realizer on every case, so that its trie warms up, and
    check each outcome and query log against a cold realizer and the
    reference."""
    shared = realizer_from_base(base, pointed)
    reference = reference_realizer(base, pointed)
    for _ in range(cases):
        seq = random_sequence(rng, m)
        for oracle in avoidance_oracles(rng, seq, pointed):
            fuel = rng.choice(FUELS)
            cold = realizer_from_base(base, pointed)
            runs = []
            for r in (shared, cold, reference):
                h = RecordingOracle(oracle)
                runs.append((r.evaluate(seq, AvoidanceName(h, "test"), fuel),
                             h.transcript))
            (warm_out, warm_log), (cold_out, cold_log), (ref_out, ref_log) = runs
            assert warm_out == cold_out == ref_out
            assert warm_log == cold_log == ref_log


def test_builtin_bases_match_reference():
    rng = random.Random(2)
    for m in SPACES:
        assert_same_evaluations(builtin_base(m), star_extension(m), m, rng,
                                cases=6)


def test_fuel_running_out_mid_atom_matches_reference():
    pointed = star_extension(CANTOR)
    base = builtin_base(CANTOR)
    shared = realizer_from_base(base, pointed)
    reference = reference_realizer(base, pointed)
    seq = NameSequence((), "star")
    for depth in range(4):
        answer = encode_pair(0, 1) + 1
        oracle = Oracle(lambda c, d=depth: answer if seq_length(c) >= d else 0)
        for fuel in range(40):
            h = AvoidanceName(oracle, "test")
            got = shared.evaluate(seq, h, fuel)
            assert got == reference.evaluate(seq, h, fuel)
            assert got == realizer_from_base(base, pointed).evaluate(seq, h, fuel)


def test_probed_bases_match_reference():
    rng = random.Random(3)
    config = ProbeConfig(budget=40, eval_fuel=300, blind_size_cap=4,
                         depth_cap=3, radius_grid=(0, 1), onset_grid=(0, 2))
    for m in SPACES:
        pointed = star_extension(m)
        base = builtin_base(m)
        probed = base_from_realizer(realizer_from_base(base, pointed), pointed,
                                    config=config)
        want = base_from_realizer(reference_realizer(base, pointed), pointed,
                                  config=config)
        assert probed.to_json() == want.to_json()
        assert_same_evaluations(probed, pointed, m, rng, cases=3)
