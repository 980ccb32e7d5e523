"""One canonical base per registry space in each ``Run``.

``builtin_base`` hands every caller the same base for a registry space's
``space_id``, so a member one search has built is there for the next.
Sharing must not show in any result: random runs of evaluations and
probes, over every space of the pool and in any order, give what the
same calls give over a fresh ``antispecker_reference.reference_builtin_base``.
The plain tests pin which spaces share, that a product sits over its
factors' canonical bases, and that a base past the atom bound is
replaced while its holders keep it.

Beside the bases the run keeps the reports of ``covers`` on registry
spaces, under the same bound: the later tests pin what is kept, under
which key, that bases and reports are dropped together, and which run a
base counts its atoms toward.  Each test opens its own run, so the
counts it reads hold only what its own calls kept.
"""

import contextvars
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import antispecker_reference as ref
from baire import antispecker as aspk
from baire import k2, naming
from baire.antispecker import (AvoidanceName, CoverAtom, ProbeConfig, Theta,
                               base_from_realizer, builtin_base, covers,
                               default_cover_depth, make_avoidance_name,
                               realizer_from_base)
from baire.k2 import Oracle, encode_pair
from baire.naming import NameSequence

CANTOR = naming.cantor_space()
FIN2 = naming.finite_space(2)
FIN3 = naming.finite_space(3)
CANTOR_X_FIN2 = naming.product_metric_naming(CANTOR, FIN2)
NESTED = naming.product_metric_naming(CANTOR, CANTOR_X_FIN2)
ALL_SPACES = (CANTOR, FIN2, FIN3, CANTOR_X_FIN2, NESTED,
              naming.cantor_space(recode_swap=True))


@pytest.fixture(autouse=True)
def run():
    with aspk.Run() as run:
        yield run


def sequence_and_names(rng, m):
    """An eventually-star sequence of the space, its onset name, and a
    name answering one pair from a depth on."""
    seq = NameSequence(tuple(
        k2.star_name() if rng.random() < 0.3
        else m.canonical_name(m.sample_point(rng))
        for _ in range(rng.randrange(0, 7))), "star")
    onset = make_avoidance_name(seq, radius_exp=rng.randrange(3),
                                answer_depth=rng.randrange(5))
    depth = rng.randrange(5)
    answer = encode_pair(rng.randrange(3), rng.randrange(4)) + 1
    uniform = Oracle(lambda c: answer if len(k2.decode_seq(c)) >= depth else 0)
    return seq, (onset, AvoidanceName(uniform, "uniform"))


def probed_fields(probed):
    return (probed.space.space_id, probed.members, probed.exhausted,
            probed.evals_spent)


calls = st.lists(
    st.tuples(st.sampled_from(range(len(ALL_SPACES))),
              st.booleans(),                             # probe, or evaluate
              st.integers(min_value=0),                  # seed
              st.sampled_from((0, 5, 34, 200, 600))),    # fuel
    min_size=1, max_size=8)


@given(calls)
def test_shared_bases_give_what_fresh_reference_bases_give(runs):
    with aspk.Run():
        for space_index, probe, seed, fuel in runs:
            m = ALL_SPACES[space_index]
            rng = random.Random(seed)
            shared = realizer_from_base(builtin_base(m))
            fresh = realizer_from_base(ref.reference_builtin_base(m))
            if probe:
                config = ProbeConfig(budget=rng.randrange(0, 80), eval_fuel=fuel,
                                     blind_size_cap=rng.randrange(4),
                                     depth_cap=rng.randrange(4),
                                     radius_grid=(0, rng.randrange(1, 3)),
                                     onset_grid=(0, 2))
                assert (probed_fields(base_from_realizer(shared, m, config))
                        == probed_fields(base_from_realizer(fresh, m, config)))
            else:
                seq, names = sequence_and_names(rng, m)
                for name in names:
                    assert (shared.evaluate(seq, name, fuel)
                            == fresh.evaluate(seq, name, fuel))


def test_a_parsed_registry_space_gets_the_same_base():
    for doc, space in (({"kind": "cantor"}, naming.cantor_space()),
                       ({"kind": "finite", "n": 2}, naming.finite_space(2))):
        assert builtin_base(naming.parse_space_spec(doc)) is builtin_base(space)
    swapped = naming.parse_space_spec({"kind": "cantor", "swapped": True})
    assert builtin_base(swapped) is not builtin_base(CANTOR)


def test_a_product_base_sits_over_the_canonical_factor_bases():
    for m in (CANTOR_X_FIN2, NESTED):
        base = builtin_base(m)
        assert base is builtin_base(m)
        assert base.bx is builtin_base(m.left)
        assert base.by is builtin_base(m.right)
    assert builtin_base(NESTED).by is builtin_base(CANTOR_X_FIN2)


class OwnSpace(naming.CantorSpace):
    """A caller's own space that takes the registry's ``space_id``."""

    def base_member(self, i):
        yield k2.FinPartialFn.from_seq((1,) * (i + 1))


def test_a_space_outside_the_registry_gets_its_own_base():
    own = OwnSpace()
    assert own.space_id == CANTOR.space_id
    base = builtin_base(own)
    assert base is not builtin_base(own)
    assert base is not builtin_base(CANTOR) and base.space is own
    assert [a.sigma.entries for a in base.iter_atoms(2)] == [((0, 1), (1, 1), (2, 1))]
    product = builtin_base(naming.product_metric_naming(own, FIN2))
    assert product is not builtin_base(naming.product_metric_naming(own, FIN2))
    assert product.bx is not builtin_base(CANTOR)
    assert product.by is builtin_base(FIN2)


def kept_atoms(base) -> int:
    """The atoms a base's member streams keep."""
    return sum(len(member.items) for member in base._kept.values())


def test_a_base_past_the_atom_bound_is_replaced(run):
    with mock.patch.object(aspk, "CANONICAL_ATOM_BOUND", 6):
        old = builtin_base(CANTOR)
        product = builtin_base(CANTOR_X_FIN2)
        kept = list(itertools.chain(old.iter_atoms(1), old.iter_atoms(2)))
        assert kept_atoms(old) == run.held == 6 and builtin_base(CANTOR) is old
        list(old.iter_atoms(3))
        assert kept_atoms(old) == run.held == 14
        new = builtin_base(CANTOR)
        assert new is not old and kept_atoms(new) == run.held == 0
        assert builtin_base(CANTOR) is new
        # whoever holds the old base keeps it and its atoms, and the atoms
        # it builds now count toward no run
        again = list(itertools.chain(old.iter_atoms(1), old.iter_atoms(2)))
        assert len(again) == len(kept) and all(x is y for x, y in zip(again, kept))
        list(old.iter_atoms(4))
        assert kept_atoms(old) == 30 and run.held == 0
        # the product over the old factor base is replaced with it
        assert builtin_base(CANTOR_X_FIN2) is not product
        assert builtin_base(CANTOR_X_FIN2).bx is new


def held_atoms(run) -> int:
    """The atoms a run holds, counted afresh: those its canonical bases
    keep and those of the Thetas whose reports it keeps."""
    return (sum(kept_atoms(base) for base in run.bases.values())
            + sum(len(theta.atoms) for _, _, theta in run.reports))


def cover_atom(entries: dict, n: int) -> CoverAtom:
    return CoverAtom(k2.FinPartialFn.from_dict(entries), n)


def test_only_registry_spaces_keep_reports_keyed_by_the_resolved_depth(run):
    theta = Theta((cover_atom({0: 1}, 1), cover_atom({0: 2}, 1)))
    depth = default_cover_depth(theta)
    report = covers(theta, CANTOR)
    assert covers(theta, CANTOR, depth) is report
    assert covers(Theta(theta.atoms), CANTOR) is report
    deeper = covers(theta, CANTOR, depth + 1)
    assert deeper == aspk.CoversReport(True, depth + 1)
    assert run.reports == {("cantor", depth, theta): report,
                           ("cantor", depth + 1, theta): deeper}
    assert run.held == held_atoms(run) == 4
    # a caller's own space with a registry space_id, and a product over it,
    # read and write nothing
    own = OwnSpace()
    product = naming.product_metric_naming(own, FIN2)
    for m in (own, product):
        own_theta = Theta(tuple(builtin_base(m).iter_atoms(1)))
        assert covers(own_theta, m) == ref.covers(own_theta, m)
        assert len(run.reports) == 2
    assert covers(theta, own) == report and covers(theta, own) is not report
    # the product's factor FIN2 is a registry space, whose canonical base
    # now keeps the atoms the product read
    assert len(run.reports) == 2 and run.held == held_atoms(run)


def test_a_call_that_raises_keeps_nothing(run):
    # an atom that reads index 4 leaves the depth-2 cell (0, 0) undecided
    undecided = Theta((cover_atom({0: 1, 4: 2}, 6), cover_atom({0: 2}, 0)))
    past_cap = Theta((cover_atom({0: 1}, 1000000),))
    for theta, depth in ((undecided, 2), (past_cap, None)):
        for _ in range(2):
            with pytest.raises(k2.Exhausted):
                covers(theta, CANTOR, depth)
            assert not run.reports and run.held == 0


def test_reports_and_bases_are_dropped_together(run):
    with mock.patch.object(aspk, "CANONICAL_ATOM_BOUND", 6):
        base = builtin_base(CANTOR)
        theta = Theta(tuple(base.iter_atoms(1)))
        report = covers(theta, CANTOR)
        assert run.held == held_atoms(run) == 4
        list(base.iter_atoms(2))
        assert run.held == held_atoms(run) == 8
        # past the bound, the next builtin_base drops the report too
        assert builtin_base(CANTOR) is not base
        assert not run.reports and run.held == 0
        # a report held across the drop stays usable, and an equal one is
        # decided afresh
        assert report.covered and report.to_json() == {"covered": True, "depth": 2}
        again = covers(theta, CANTOR)
        assert again == report and again is not report
        # past the bound, the next covers drops the bases too
        base = builtin_base(CANTOR)
        fin2 = Theta(tuple(builtin_base(FIN2).iter_atoms(0)))
        list(base.iter_atoms(3))
        assert run.held == held_atoms(run) == 2 + len(fin2.atoms) + 8
        assert covers(fin2, FIN2).covered
        assert list(run.reports) == [("finite(2)", 1, fin2)]
        assert builtin_base(CANTOR) is not base
        assert run.held == held_atoms(run) == len(fin2.atoms)


store_calls = st.lists(
    st.tuples(st.sampled_from(range(len(ALL_SPACES))),
              st.integers(0, 3),                          # member
              st.booleans(),                              # cover it, or build it
              st.sampled_from((None, 0, 1, 2, 3))),       # cover depth
    min_size=1, max_size=12)


@given(st.integers(0, 12), store_calls)
def test_the_store_holds_at_most_the_bound_and_one_theta(bound, runs):
    with aspk.Run() as run, mock.patch.object(aspk, "CANONICAL_ATOM_BOUND", bound):
        for space_index, i, cover, depth in runs:
            m = ALL_SPACES[space_index]
            base = builtin_base(m)
            assert run.held == held_atoms(run) <= bound
            theta = Theta(tuple(base.iter_atoms(i)))
            if not cover:
                continue
            try:
                covers(theta, m, depth)
            except k2.Exhausted:
                pass
            assert run.held == held_atoms(run) <= bound + len(theta.atoms)


def test_a_base_counts_toward_the_run_that_keeps_it(run):
    base = builtin_base(CANTOR)
    with aspk.Run() as other:
        assert builtin_base(CANTOR) is not base
        list(base.iter_atoms(2))
        theta = Theta(tuple(base.iter_atoms(1)))
        assert covers(theta, CANTOR) is other.reports[("cantor", 2, theta)]
        assert other.held == held_atoms(other) == 2
    assert run.held == held_atoms(run) == 6 and not run.reports
    # once its run drops it, the base counts toward no run
    with mock.patch.object(aspk, "CANONICAL_ATOM_BOUND", 5):
        assert builtin_base(CANTOR) is not base and run.held == 0
    with aspk.Run() as other:
        list(base.iter_atoms(3))
        assert other.held == run.held == 0 and kept_atoms(base) == 14


def test_a_run_is_current_inside_its_blocks_only(run):
    base = builtin_base(CANTOR)
    inner = aspk.Run()
    with inner:
        with inner:
            nested = builtin_base(CANTOR)
        assert builtin_base(CANTOR) is nested is not base
    assert builtin_base(CANTOR) is base
    assert inner.bases == {"cantor": nested} and run.bases == {"cantor": base}
    # outside every block, the process has one run
    outside = [contextvars.Context().run(builtin_base, CANTOR) for _ in range(2)]
    assert outside[0] is outside[1] and base is not outside[0] is not nested
