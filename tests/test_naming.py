import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import antispecker_reference as ref
from baire import k2, naming
from baire.antispecker import CoverAtom
from baire.k2 import FinPartialFn, constant, from_values, pair_names, project_names
from baire.naming import (CantorPoint, CantorSpace, FiniteSpace, NameSequence,
                          ProductSpace, cantor_space, finite_space,
                          product_metric_naming)


# --- registry spaces -------------------------------------------------------

def test_cantor_first_difference_metric():
    m = cantor_space()
    f = from_values([1, 2], tail_value=2)
    g = constant(1)
    assert m.dist(m.point_of(f), m.point_of(g)) == Fraction(1, 2)


def test_cantor_equal_names_have_zero_distance_stream():
    m = cantor_space()
    f = from_values([2, 1], tail_value=1)
    g = from_values([2, 1], tail_value=1)
    d = m.dist_hat(f, g)
    for k in (1, 5, 20):
        assert d.approx(k) == 0


def test_finite_discrete_metric():
    m = finite_space(3)
    assert m.dist(1, 3) == 1
    assert m.dist(2, 2) == 0


def test_finite_space_domain():
    m = finite_space(3)
    assert m.contains_name(constant(2), 16)
    assert not m.contains_name(constant(4), 16)
    assert not m.contains_name(from_values([1, 2], tail_value=1), 16)


def test_finite_space_needs_a_point():
    with pytest.raises(ValueError):
        finite_space(0)


# --- pairing ---------------------------------------------------------------

def test_pair_interleaves():
    p = pair_names(constant(1), constant(2))
    assert [p(i) for i in range(6)] == [1, 2, 1, 2, 1, 2]


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_pair_project_round_trip(seed):
    rng = random.Random(seed)
    f = k2.TableOracle({i: rng.randrange(9) for i in range(5)}, rng.randrange(9))
    g = k2.TableOracle({i: rng.randrange(9) for i in range(7)}, rng.randrange(9))
    left, right = project_names(pair_names(f, g))
    for i in range(21):
        assert left(i) == f(i) and right(i) == g(i)


def test_pairing_partial_functions():
    sigma = FinPartialFn.from_seq([7])
    tau = FinPartialFn.from_seq([8, 9])
    assert FinPartialFn.interleave(sigma, tau).as_dict() == {0: 7, 1: 8, 3: 9}


# --- metric naming coherence ------------------------------------------------

SPACES = [cantor_space(), finite_space(5),
          product_metric_naming(cantor_space(), cantor_space())]


@pytest.mark.parametrize("m", SPACES, ids=lambda m: m.space_id)
def test_stream_matches_exact_metric(m):
    rng = random.Random(7)
    sp = m
    for _ in range(25):
        p, q = sp.sample_point(rng), sp.sample_point(rng)
        exact = m.dist(p, q)
        stream = m.dist_hat(sp.canonical_name(p), sp.canonical_name(q))
        assert abs(stream.approx(20) - exact) <= Fraction(1, 2 ** 20)


@pytest.mark.parametrize("m", SPACES, ids=lambda m: m.space_id)
def test_metric_axioms(m):
    rng = random.Random(8)
    sp = m
    for _ in range(40):
        p, q, r = (sp.sample_point(rng) for _ in range(3))
        assert m.dist(p, q) == m.dist(q, p)
        assert m.dist(p, p) == 0
        assert 0 <= m.dist(p, q) <= 1
        assert m.dist(p, r) <= m.dist(p, q) + m.dist(q, r)


def test_product_metric_is_max():
    mc = cantor_space()
    prod = product_metric_naming(mc, mc)
    a = CantorPoint((0, 0), 0)
    b = CantorPoint((0, 1), 0)   # distance 1/2
    c = CantorPoint((0, 0, 1), 0)  # distance 1/4 from a
    assert prod.dist((a, a), (b, c)) == Fraction(1, 2)
    assert prod.dist((a, a), (a, a)) == 0


def test_product_stream_on_random_pairs():
    rng = random.Random(9)
    prod = product_metric_naming(cantor_space(), cantor_space())
    sp = prod
    for _ in range(50):
        p, q = sp.sample_point(rng), sp.sample_point(rng)
        exact = prod.dist(p, q)
        d = prod.dist_hat(sp.canonical_name(p), sp.canonical_name(q))
        assert abs(d.approx(10) - exact) <= Fraction(1, 2 ** 10)


# --- one-point extension ----------------------------------------------------

def test_star_detection_reads_one_query():
    meter_star, m1 = k2.with_usage_tracking(k2.star_name())
    assert naming.is_star(meter_star) and m1.max_index == 0 and m1.count == 1
    meter_real, m2 = k2.with_usage_tracking(constant(1))
    assert not naming.is_star(meter_real) and m2.count == 1


# --- sequences ---------------------------------------------------------------

def test_sequence_onset():
    f = constant(1)
    seq = NameSequence((f, k2.star_name(), f), "star")
    assert seq.star_onset() == 3
    assert NameSequence((), "star").star_onset() == 0


@given(st.lists(st.booleans(), max_size=12), st.integers(0, 6))
def test_bounded_scan_is_the_onset_once_the_bound_reaches_it(real, past):
    """The realizer's bounded scan, on a star-tailed sequence, is the exact
    settling index once the bound reaches it."""
    seq = NameSequence(tuple(from_values([1, 2], tail_value=2) if r else k2.star_name()
                             for r in real), "star")
    onset = max((i + 1 for i, r in enumerate(real) if r), default=0)
    assert seq.star_onset() == onset
    assert seq.onset_below(onset + past) == onset


def test_bounded_scan_runs_on_a_repeat_tail():
    f = constant(1)
    seq = NameSequence((f, k2.star_name(), f, k2.star_name()), "repeat")
    assert [seq.onset_below(b) for b in range(6)] == [0, 1, 1, 3, 3, 3]
    with pytest.raises(ValueError):
        seq.star_onset()


def test_repeat_tail_never_settles():
    seq = NameSequence((constant(1),), "repeat")
    assert not seq.eventually_star
    assert seq.entry(100)(0) == 1


def test_sequence_spec_parsing():
    seq = naming.parse_name_sequence("all-star")
    assert seq.eventually_star and seq.horizon == 0
    seq = naming.parse_name_sequence({"names": ["const:1", "star"], "tail": "star"})
    assert seq.horizon == 2 and seq.entry(0)(0) == 1


# --- the digit-swapped Cantor naming ---------------------------------------------

def test_swapped_cantor_names_round_trip_with_the_standard_metric():
    rng = random.Random(11)
    std, swapped = cantor_space(), cantor_space(recode_swap=True)
    for _ in range(20):
        p, q = std.sample_point(rng), std.sample_point(rng)
        f, g = swapped.canonical_name(p), swapped.canonical_name(q)
        assert swapped.point_of(f) == p and swapped.point_of(g) == q
        # the swapped naming writes bit b as 2 - b, the standard one as b + 1
        assert [f(i) for i in range(8)] == [2 - p.value_at(i) for i in range(8)]
        assert swapped.dist(p, q) == std.dist(p, q)
        want = std.dist_hat(std.canonical_name(p), std.canonical_name(q))
        assert swapped.dist_hat(f, g).approx(12) == want.approx(12)


# --- space specs --------------------------------------------------------------

def test_space_spec_parses_to_its_fields():
    spec = {"kind": "product", "left": {"kind": "cantor"},
            "right": {"kind": "finite", "n": 2}}
    sp = naming.parse_space_spec(spec)
    assert sp.space_id == "(cantor x finite(2))"
    assert isinstance(sp, ProductSpace)
    assert isinstance(sp.left, CantorSpace) and sp.left.recode_swap is False
    assert isinstance(sp.right, FiniteSpace) and sp.right.n == 2
    with pytest.raises(k2.SpecError):
        naming.parse_space_spec({"kind": "torus"})


SWAPPED = cantor_space(recode_swap=True)
SWAPPED_SPEC = {"kind": "cantor", "swapped": True}
CANTOR_SPEC = {"kind": "cantor"}


def product(left, right):
    return {"kind": "product", "left": left, "right": right}


SPACE_SPECS = [
    (CANTOR_SPEC, "cantor"),
    (SWAPPED_SPEC, "cantor-swapped"),
    ({"kind": "cantor", "swapped": False}, "cantor"),
    ({"kind": "finite", "n": 1}, "finite(1)"),
    ({"kind": "finite", "n": 3}, "finite(3)"),
    (product(SWAPPED_SPEC, {"kind": "finite", "n": 2}), "(cantor-swapped x finite(2))"),
    (product(CANTOR_SPEC, product({"kind": "finite", "n": 2}, SWAPPED_SPEC)),
     "(cantor x (finite(2) x cantor-swapped))"),
    (product(product(SWAPPED_SPEC, SWAPPED_SPEC), CANTOR_SPEC),
     "((cantor-swapped x cantor-swapped) x cantor)"),
]


@pytest.mark.parametrize("spec,space_id", SPACE_SPECS,
                         ids=[space_id for _, space_id in SPACE_SPECS])
def test_space_spec_parses_to_the_space_id(spec, space_id):
    assert naming.parse_space_spec(spec).space_id == space_id


@pytest.mark.parametrize("space", [
    cantor_space(),
    finite_space(5),
    naming.parse_space_spec({"kind": "product", "left": {"kind": "cantor"},
                             "right": {"kind": "finite", "n": 3}}),
    naming.parse_space_spec({"kind": "product", "left": {"kind": "cantor"},
                             "right": {"kind": "cantor"}}),
], ids=["cantor", "finite", "cantor x finite", "cantor x cantor"])
def test_cell_count_is_the_number_of_cells_up_to_the_cap(space):
    for depth in range(6):
        n = sum(1 for _ in space.cells(depth))
        for cap in (0, 1, 3, 4, 5, 15, 16, 17, 100):
            assert space.cell_count(depth, cap) == min(n, cap + 1)


def test_cell_count_of_a_deep_resolution_stays_small():
    assert cantor_space().cell_count(10 ** 9, 1 << 20) == (1 << 20) + 1


# --- atom constraints -------------------------------------------------------

ATOM_SPACES = (
    cantor_space(), SWAPPED, *(finite_space(n) for n in range(1, 5)),
    product_metric_naming(cantor_space(), finite_space(2)),
    product_metric_naming(finite_space(3), SWAPPED),
    product_metric_naming(cantor_space(),
                          product_metric_naming(finite_space(2), SWAPPED)),
    product_metric_naming(product_metric_naming(finite_space(1), cantor_space()),
                          finite_space(4)),
)


@st.composite
def sigmas(draw):
    """Tables over a few indices, often with gaps: one constant (which a
    finite space may take), or mixed values, some out of every range."""
    indices = draw(st.sets(st.integers(0, 9), max_size=6))
    values = st.integers(0, 5)
    if draw(st.booleans()):
        c = draw(values)
        return {i: c for i in indices}
    return {i: draw(values) for i in indices}


@given(st.sampled_from(ATOM_SPACES), sigmas(), st.integers(0, 6))
# the atoms of the covering and point-membership tests of test_antispecker
@example(cantor_space(), {0: 1, 1: 2}, 4)
@example(cantor_space(), {1: 1}, 4)
@example(cantor_space(), {0: 1, 5: 1}, 0)
@example(cantor_space(), {0: 0}, 1)
@example(cantor_space(), {0: 3}, 2)
@example(cantor_space(), {}, 0)
@example(finite_space(3), {}, 5)
@example(finite_space(2), {0: 2}, 1)
@example(product_metric_naming(cantor_space(), finite_space(2)),
         {0: 1, 1: 2, 2: 2, 3: 2}, 2)
def test_atom_constraints_match_the_per_kind_rules(space, entries, n):
    sigma = FinPartialFn.from_dict(entries)
    want = ref._atom_constraints(space, CoverAtom(sigma, n))
    assert space.atom_constraints(sigma, n) == want
