"""The process's one canonical base per registry space.

``builtin_base`` hands every caller the same base for a registry space's
``space_id``, so a member one search has built is there for the next.
Sharing must not show in any result: random runs of evaluations and
probes, over every space of the pool and in any order, give what the
same calls give over a fresh ``antispecker_reference.reference_builtin_base``.
The plain tests pin which spaces share, that a product sits over its
factors' canonical bases, and that a base past the atom bound is
replaced while its holders keep it.
"""

import itertools
import random
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

import antispecker_reference as ref
from baire import antispecker as aspk
from baire import k2, naming
from baire.antispecker import (AvoidanceName, ProbeConfig, base_from_realizer,
                               builtin_base, make_avoidance_name,
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
    with mock.patch.dict(aspk._canonical, clear=True):
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


def test_a_base_past_the_atom_bound_is_replaced():
    with mock.patch.dict(aspk._canonical, clear=True), \
            mock.patch.object(aspk, "CANONICAL_ATOM_BOUND", 6):
        old = builtin_base(CANTOR)
        product = builtin_base(CANTOR_X_FIN2)
        kept = list(itertools.chain(old.iter_atoms(1), old.iter_atoms(2)))
        assert old.atoms_held == 6 and builtin_base(CANTOR) is old
        list(old.iter_atoms(3))
        assert old.atoms_held == 14
        new = builtin_base(CANTOR)
        assert new is not old and new.atoms_held == 0
        assert builtin_base(CANTOR) is new
        # whoever holds the old base keeps it and its atoms
        again = list(itertools.chain(old.iter_atoms(1), old.iter_atoms(2)))
        assert len(again) == len(kept) and all(x is y for x, y in zip(again, kept))
        # the product over the old factor base is replaced with it
        assert builtin_base(CANTOR_X_FIN2) is not product
        assert builtin_base(CANTOR_X_FIN2).bx is new
