import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from baire import antispecker as aspk
from baire import k2, naming
from baire.antispecker import (AvoidanceName, CoverAtom, ProbeConfig, ProductBase,
                               Theta, base_from_realizer, builtin_base, covers,
                               direct_scan_realizer, make_avoidance_name,
                               point_in_atom, product_anti_specker, product_atom,
                               realizer_from_base)
from baire.k2 import FinPartialFn, constant, encode_pair, from_values
from baire.naming import NameSequence, cantor_space, finite_space

CANTOR = cantor_space()
FIN2 = finite_space(2)
FIN3 = finite_space(3)


def seq_of(*names):
    return NameSequence(tuple(names), "star")


def atom(d, n):
    return CoverAtom(FinPartialFn.from_dict(d), n)


@dataclasses.dataclass(frozen=True)
class PlainTheta:
    """Theta's one field, with the hash and equality the dataclass makes."""

    atoms: tuple


atoms_st = st.lists(st.builds(atom, st.dictionaries(st.integers(0, 5), st.integers(0, 3),
                                                    max_size=3),
                              st.integers(0, 3)),
                    min_size=1, max_size=4)


@given(atoms_st, atoms_st)
def test_a_kept_theta_hash_is_the_dataclass_hash(xs, ys):
    x, y = Theta(tuple(xs)), Theta(tuple(ys))
    for t in (x, y):
        assert hash(t) == hash(PlainTheta(t.atoms)) == hash(t)
    assert (x == y) == (PlainTheta(x.atoms) == PlainTheta(y.atoms))
    again = Theta(tuple(reversed(xs)))
    assert again == x and hash(again) == hash(x) and again is not x
    assert [f.name for f in dataclasses.fields(x)] == ["atoms"]
    assert repr(x) == repr(PlainTheta(x.atoms)).replace("PlainTheta", "Theta", 1)


# --- covering decisions ------------------------------------------------------

def test_depth_one_cylinders_cover_cantor():
    theta = Theta((atom({0: 1}, 1), atom({0: 2}, 1)))
    assert covers(theta, CANTOR).covered


def test_single_branch_does_not_cover():
    theta = Theta((atom({0: 1}, 3),))
    report = covers(theta, CANTOR)
    assert not report.covered
    assert report.witness_cell[0] == 1  # a point opening with the other digit


def test_two_point_atoms_cover_finite():
    theta = Theta((atom({0: 1}, 1), atom({0: 2}, 1)))
    assert covers(theta, FIN2).covered


def test_empty_sigma_covers_everything():
    assert covers(Theta((atom({}, 0),)), CANTOR).covered
    assert covers(Theta((atom({}, 5),)), FIN3).covered


def test_invalid_values_make_empty_atoms():
    theta = Theta((atom({0: 0}, 1), atom({0: 3}, 2)))
    assert not covers(theta, CANTOR).covered


def test_insufficient_depth_flagged():
    theta = Theta((atom({0: 1, 4: 2}, 6), atom({0: 2}, 0)))
    with pytest.raises(k2.Exhausted) as e:
        covers(theta, CANTOR, depth=2)
    assert e.value.reason == "depth"


def test_point_membership_in_atoms():
    p = CANTOR.point_of(from_values([1, 2], tail_value=1))
    assert point_in_atom(CANTOR, p, atom({0: 1, 1: 2}, 4))
    assert not point_in_atom(CANTOR, p, atom({1: 1}, 4))
    # constraints past the radius exponent do not matter
    assert point_in_atom(CANTOR, p, atom({0: 1, 5: 1}, 0))


# --- builtin bases ---------------------------------------------------------------

def test_builtin_cantor_members_cover():
    base = builtin_base(CANTOR)
    for i in range(4):
        assert covers(Theta(tuple(base.iter_atoms(i))), CANTOR).covered
    # decidable already at the member's own resolution
    assert covers(Theta(tuple(base.iter_atoms(2))), CANTOR, depth=2).covered


def test_probe_is_deterministic():
    realizer = realizer_from_base(builtin_base(FIN2))
    first = base_from_realizer(realizer, FIN2, config=ProbeConfig(budget=120))
    second = base_from_realizer(realizer, FIN2, config=ProbeConfig(budget=120))
    assert first.members == second.members
    assert first.evals_spent == second.evals_spent


def test_builtin_finite_members_cover():
    base = builtin_base(FIN2)
    assert covers(Theta(tuple(base.iter_atoms(0))), FIN2).covered
    theta = Theta(tuple(base.iter_atoms(2)))
    assert all(a.sigma.initial_run == 3 for a in theta.atoms)
    assert covers(theta, FIN2).covered


# --- avoidance names -------------------------------------------------------------

def test_all_star_avoidance_name():
    h = make_avoidance_name(seq_of())
    assert h.h(0) == encode_pair(0, 0) + 1


def test_onset_avoidance_name_checks_against_metric():
    name = from_values([1, 1], tail_value=1)
    seq = seq_of(name)
    h = make_avoidance_name(seq)
    n, m = k2.decode_pair(h.h(0) - 1)
    point = CANTOR.point_of(name)
    for i in range(m, seq.horizon):
        entry = seq.entry(i)
        if not naming.is_star(entry):
            d = CANTOR.dist(point, CANTOR.point_of(entry))
            assert d >= Fraction(1, 2 ** n)


def test_non_star_sequence_needs_witness():
    seq = NameSequence((constant(1),), "repeat")
    with pytest.raises(ValueError):
        make_avoidance_name(seq)


# --- the realizer from a base -----------------------------------------------------

def test_all_star_value_zero():
    realizer = realizer_from_base(builtin_base(CANTOR))
    h = make_avoidance_name(seq_of())
    out = realizer.evaluate(seq_of(), h, 2000)
    assert out.result.value == 0


def test_one_name_then_stars():
    realizer = realizer_from_base(builtin_base(CANTOR))
    seq = seq_of(constant(1))
    h = AvoidanceName(constant(encode_pair(0, 1) + 1))
    out = realizer.evaluate(seq, h, 2000)
    assert out.result.value == 1 and out.bound == 1


def test_silent_name_exhausts():
    realizer = realizer_from_base(builtin_base(CANTOR))
    out = realizer.evaluate(seq_of(), AvoidanceName(constant(0)), 250)
    assert not out.result.is_value and out.result.spent == 250


def test_fuel_counts_prefix_steps_and_members_left_with_no_atom():
    # on Cantor space against an onset name answering at depth 2: members 0
    # and 1 fail at their first atom after 1 and 2 prefix steps, and member
    # 2 certifies after 12, so 15 prefix steps and one step per failed member
    seq = seq_of()
    h = make_avoidance_name(seq, answer_depth=2)
    out = realizer_from_base(builtin_base(CANTOR)).evaluate(seq, h, 4000)
    assert out.result.value == 0 and out.member_index == 2
    assert out.result.spent == 17
    short = realizer_from_base(builtin_base(CANTOR)).evaluate(seq, h, 16)
    assert not short.result.is_value and short.result.spent == 16


def test_malformed_answers_reported():
    realizer = realizer_from_base(builtin_base(CANTOR))
    # 1 decodes to a one-element sequence, not a pair
    out = realizer.evaluate(seq_of(), AvoidanceName(constant(2)), 150)
    assert out.malformed


def test_an_empty_product_factor_exhausts_like_an_empty_base():
    empty = aspk.ProbedBase(FIN2, (), exhausted=False, evals_spent=0)
    h = AvoidanceName(constant(0))
    for base in (empty, ProductBase(builtin_base(FIN2), empty),
                 ProductBase(empty, builtin_base(FIN2))):
        realizer = realizer_from_base(base)
        # the second evaluation meets the failure the kept member replays
        for _ in range(2):
            out = realizer.evaluate(seq_of(), h, 10)
            assert out.to_json() == {"value": "exhausted", "spent": 0,
                                     "stage": "empty-base"}


def test_deep_answering_names_certify_at_depth():
    realizer = realizer_from_base(builtin_base(CANTOR))
    seq = seq_of(from_values([2, 2], tail_value=2), k2.star_name())
    want = direct_scan_realizer(CANTOR).evaluate(seq, None, 10).result.value
    for depth in range(5):
        h = make_avoidance_name(seq, answer_depth=depth)
        out = realizer.evaluate(seq, h, 4000)
        assert out.result.value == want == 1
        assert len(out.certificate.atoms) == 2 ** depth


def test_direct_scan_refuses_a_sequence_that_never_settles():
    # a repeating tail never reaches the added point: the oracle has no
    # settling index to report, and says so without reading the names
    oracle = direct_scan_realizer(CANTOR)
    seq = NameSequence((k2.star_name(), constant(1)), "repeat")
    out = oracle.evaluate(seq, None, 10)
    assert not out.result.is_value and out.result.spent == 0
    assert out.to_json() == {"value": "exhausted", "spent": 0,
                             "stage": "not-eventually-star"}
    settled = NameSequence((constant(1), k2.star_name()), "star")
    assert oracle.evaluate(settled, None, 10).result.value == 1

def test_exactness_on_random_sequences():
    rng = random.Random(42)
    for m in (CANTOR, FIN3):
        realizer = realizer_from_base(builtin_base(m))
        oracle = direct_scan_realizer(m)
        sp = m
        for _ in range(20):
            entries = tuple(
                k2.star_name() if rng.random() < 0.4
                else sp.canonical_name(sp.sample_point(rng))
                for _ in range(rng.randrange(0, 9)))
            seq = NameSequence(entries, "star")
            h = make_avoidance_name(seq, radius_exp=rng.randrange(3),
                                    answer_depth=rng.randrange(4))
            want = oracle.evaluate(seq, h, 10).result.value
            assert realizer.evaluate(seq, h, 4000).result.value == want


# --- probing a realizer back into a base --------------------------------------

def test_probe_harvests_coverings():
    realizer = realizer_from_base(builtin_base(CANTOR))
    probed = base_from_realizer(realizer, CANTOR, config=ProbeConfig(budget=300))
    # 300 evaluations are more than the 163 candidates, so none is left out
    assert probed.members and not probed.exhausted
    for theta in probed.members:
        assert covers(theta, CANTOR).covered


def test_probe_is_exhausted_exactly_when_the_budget_leaves_a_candidate():
    realizer = realizer_from_base(builtin_base(FIN2))
    full = base_from_realizer(realizer, FIN2, config=ProbeConfig(budget=5000))
    every = full.evals_spent                 # one evaluation per candidate
    assert not full.exhausted and every < 5000
    assert not base_from_realizer(realizer, FIN2,
                                  config=ProbeConfig(budget=every)).exhausted
    # cut off in phase two (the last candidate) and in phase one
    for budget in (every - 1, 3, 0):
        cut = base_from_realizer(realizer, FIN2, config=ProbeConfig(budget=budget))
        assert cut.exhausted and cut.evals_spent == budget


def test_probe_finite_space_covers_both_points():
    realizer = realizer_from_base(builtin_base(FIN2))
    probed = base_from_realizer(realizer, FIN2, config=ProbeConfig(budget=300))
    assert probed.members
    assert covers(probed.members[0], FIN2).covered


def test_round_trip_value_equality():
    rng = random.Random(5)
    realizer = realizer_from_base(builtin_base(CANTOR))
    probed = base_from_realizer(realizer, CANTOR, config=ProbeConfig(budget=300))
    again = realizer_from_base(probed, CANTOR)
    sp = CANTOR
    for _ in range(10):
        entries = tuple(sp.canonical_name(sp.sample_point(rng))
                        for _ in range(rng.randrange(0, 5)))
        seq = NameSequence(entries, "star")
        h = make_avoidance_name(seq, answer_depth=rng.randrange(3))
        a = realizer.evaluate(seq, h, 4000).result.value
        b = again.evaluate(seq, h, 4000).result.value
        assert a == b


# --- products -------------------------------------------------------------------

def test_product_atom_takes_min_exponent():
    ax = atom({0: 1}, 3)
    ay = atom({0: 2}, 5)
    combined = product_atom(ax, ay)
    assert combined.n == 3
    assert combined.sigma.as_dict() == {0: 1, 1: 2}


def test_product_of_empty_atoms():
    assert product_atom(atom({}, 4), atom({}, 4)) == atom({}, 4)


def test_product_atom_membership_factorizes():
    rng = random.Random(12)
    prod = naming.product_metric_naming(CANTOR, FIN2)
    ax = atom({0: 1, 1: 2}, 2)
    ay = atom({0: 1}, 1)
    combined = product_atom(ax, ay)
    for _ in range(40):
        p = prod.sample_point(rng)
        inside = point_in_atom(prod, p, combined)
        parts = (point_in_atom(CANTOR, p[0], ax)
                 and point_in_atom(FIN2, p[1], ay))
        assert inside == parts


def test_product_base_members_cover():
    prod = naming.product_metric_naming(CANTOR, CANTOR)
    pb = ProductBase(builtin_base(CANTOR), builtin_base(CANTOR))
    for i in range(8):
        assert covers(Theta(tuple(pb.iter_atoms(i))), prod).covered


def test_product_base_finite_square():
    prod = naming.product_metric_naming(FIN2, FIN2)
    pb = ProductBase(builtin_base(FIN2), builtin_base(FIN2))
    theta = Theta(tuple(pb.iter_atoms(0)))
    assert len(theta.atoms) == 4
    for c in (1, 2):
        for d in (1, 2):
            assert any(point_in_atom(prod, (c, d), a) for a in theta.atoms)
    assert covers(theta, prod).covered


def test_product_realizer_matches_direct_scan():
    prod = naming.product_metric_naming(CANTOR, FIN2)
    left = realizer_from_base(builtin_base(CANTOR))
    right = realizer_from_base(builtin_base(FIN2))
    combined = product_anti_specker(left, right, prod, config=ProbeConfig(budget=250))

    h_all = make_avoidance_name(seq_of())
    assert combined.evaluate(seq_of(), h_all, 30000).result.value == 0

    pairname = k2.pair_names(constant(2), constant(1))
    seq = seq_of(pairname)
    h = make_avoidance_name(seq)
    assert combined.evaluate(seq, h, 30000).result.value == 1

    reference = realizer_from_base(
        ProductBase(builtin_base(CANTOR), builtin_base(FIN2)), prod)
    rng = random.Random(31)
    sp = prod
    for _ in range(10):
        entries = tuple(
            k2.star_name() if rng.random() < 0.4
            else sp.canonical_name(sp.sample_point(rng))
            for _ in range(rng.randrange(0, 6)))
        seq = NameSequence(entries, "star")
        h = make_avoidance_name(seq, answer_depth=rng.randrange(3))
        a = combined.evaluate(seq, h, 30000).result.value
        b = reference.evaluate(seq, h, 30000).result.value
        assert a == b is not None


# --- serialization -----------------------------------------------------------------

def test_theta_json_round_trip():
    theta = Theta((atom({0: 1, 3: 2}, 2), atom({}, 0)))
    assert aspk.parse_theta(theta.to_json()) == theta


def test_a_phase_one_evaluation_out_of_fuel_is_refused():
    # no radius grid: every candidate is a blind table of phase one
    blind = dict(budget=30, blind_size_cap=6, radius_grid=())
    outcomes = []
    inner = realizer_from_base(builtin_base(CANTOR))

    def evaluate(seq, h, fuel):
        out = inner.evaluate(seq, h, fuel)
        outcomes.append(out)
        return out

    counted = aspk.AntiSpeckerRealizer(evaluate, CANTOR)
    fed = base_from_realizer(counted, CANTOR, ProbeConfig(eval_fuel=600, **blind))
    assert fed.members and all(out.result.is_value for out in outcomes)
    outcomes.clear()
    starved = base_from_realizer(counted, CANTOR, ProbeConfig(eval_fuel=0, **blind))
    assert outcomes and not any(out.result.is_value for out in outcomes)
    assert starved.members == () and starved.evals_spent == fed.evals_spent
