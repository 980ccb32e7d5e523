import gc
import itertools
import random
import sys
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antispecker_reference as ref
from baire import k2
from baire.k2 import (FinPartialFn, bar, bullet, cons, constant, decode_seq,
                      encode_seq, identity_oracle, pair_names, star,
                      with_usage_tracking)


# --- codec ---------------------------------------------------------------

def test_empty_sequence_codes_to_zero():
    assert encode_seq([]) == 0
    assert decode_seq(0) == ()


def test_singleton_five():
    assert encode_seq([5]) == 21


def test_round_trip_concrete():
    assert decode_seq(encode_seq([3, 1, 4])) == (3, 1, 4)


@given(st.lists(st.integers(min_value=0, max_value=200), max_size=6))
def test_decode_after_encode(seq):
    assert list(decode_seq(encode_seq(seq))) == seq


@given(st.integers(min_value=0, max_value=20000))
def test_encode_after_decode(code):
    assert encode_seq(decode_seq(code)) == code


@given(st.integers(min_value=0, max_value=10 ** 12),
       st.integers(min_value=0, max_value=10 ** 12))
def test_pairing_round_trip(x, y):
    assert k2.cantor_unpair(k2.cantor_pair(x, y)) == (x, y)


codes = st.one_of(st.integers(min_value=0, max_value=20000),
                  st.lists(st.integers(min_value=0, max_value=5),
                           max_size=9).map(encode_seq))


@given(codes, st.integers(min_value=-3, max_value=11),
       st.integers(min_value=0, max_value=50))
def test_depth_answer_agrees_with_decode(code, depth, answer):
    assert (k2.depth_answer(answer, depth, "")(code)
            == (answer if len(decode_seq(code)) >= depth else 0))


@given(codes, st.integers(min_value=-3, max_value=11))
def test_depth_answer_unpairs_at_most_depth_times(code, depth):
    calls = []
    unpair = k2.cantor_unpair
    with mock.patch.object(k2, "cantor_unpair",
                           lambda z: calls.append(z) or unpair(z)):
        k2.depth_answer(1, depth, "")(code)
    assert len(calls) == min(max(depth, 0), len(decode_seq(code)))


def test_code_dominates_values():
    for seq in [(7,), (0, 9), (3, 3, 3)]:
        code = encode_seq(seq)
        assert all(v < code for v in seq)


# --- code sizes ----------------------------------------------------------

sizes_entries = st.sampled_from([0, 1, 10 ** 9]) | st.integers(min_value=0,
                                                                max_value=10 ** 9)


@settings(max_examples=40, deadline=None)
@given(st.lists(sizes_entries, max_size=21))
def test_code_size_is_the_bit_length_or_undecided(seq):
    # every prefix of seq, against one chain of built codes
    code = 0
    assert k2.code_size([]) == (0, 0)
    for i, a in enumerate(seq):
        code = k2.cantor_pair(code, a) + 1
        bits = code.bit_length()
        assert k2.code_size(seq[:i + 1]) in ((bits, bits), (bits - 1, bits),
                                             (bits, bits + 1))


def test_code_size_of_long_sequences():
    assert k2.code_size([1] * 25) == (23_332_024, 23_332_024)
    assert k2.code_size(range(1, 31)) == (926_658_356, 926_658_356)
    assert k2.code_size([1] * 23) == (encode_seq([1] * 23).bit_length(),) * 2
    # past the precision the bounds part, but the bit count stays known to
    # far better than its own bit length
    least, most = k2.code_size([1] * 20000)
    assert least < most and (most - least) >> (least.bit_length() - 100) == 0
    with pytest.raises(ValueError):
        k2.code_size([1, -1])


def test_code_size_is_undecided_where_the_code_straddles_a_power_of_two():
    # the last entry puts the code within 2^-7000 of 2^14301, on either side
    for gap, bits in ((1, 14302), (2, 14301)):
        seq = [5, (1 << 7151) - gap - encode_seq([5])]
        assert encode_seq(seq).bit_length() == bits
        assert k2.code_size(seq) == (14301, 14302)


# --- bar / cons ----------------------------------------------------------

def test_bar_zero_is_empty_code():
    assert bar(constant(7), 0) == 0


def test_bar_constant_seven():
    assert bar(constant(7), 2) == encode_seq([7, 7])


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=6))
def test_bar_prefix_consistency(n, extra):
    f = k2.Oracle(lambda i: (i * 7 + 3) % 11)
    shorter = decode_seq(bar(f, n))
    longer = decode_seq(bar(f, n + extra))
    assert longer[:n] == shorter


def test_cons_head_and_tail():
    c = cons(4, constant(0))
    assert c(0) == 4
    assert c(3) == 0


def test_cons_shifts_identity():
    c = cons(1, identity_oracle())
    for kk in range(11):
        assert c(kk + 1) == kk


# --- star ----------------------------------------------------------------

def test_star_fires_immediately_on_positive_constant():
    r = star(constant(1), constant(9), 1)
    assert r.value == 0 and r.fired_at == 0


def test_star_exhausts_on_zero_name():
    r = star(constant(0), constant(0), 12)
    assert not r.is_value and r.spent == 12


def test_star_second_element_example():
    f = k2.Oracle(lambda c: decode_seq(c)[1] + 1 if len(decode_seq(c)) >= 2 else 0)
    r = star(f, identity_oracle(), 10)
    assert r.value == 1 and r.fired_at == 2


@given(st.integers(min_value=0, max_value=1000))
def test_star_locality(seed):
    import random
    rng = random.Random(seed)
    f = k2.Oracle(lambda c: (c % 13) if (c % 13) < 5 else 0)
    g = k2.TableOracle({i: rng.randrange(6) for i in range(6)}, rng.randrange(6))
    r = star(f, g, 9)
    if r.is_value:
        table = {i: g(i) for i in range(r.fired_at)}
        g2 = k2.TableOracle(table, g.tail_value + 3)
        r2 = star(f, g2, 9)
        assert r2.value == r.value and r2.fired_at == r.fired_at


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=8))
def test_star_fuel_monotone(seed, extra):
    import random
    rng = random.Random(seed)
    f = k2.Oracle(lambda c: (c % 17) if (c % 17) < 6 else 0)
    g = k2.TableOracle({i: rng.randrange(5) for i in range(5)}, 0)
    fuel = rng.randrange(1, 10)
    r = star(f, g, fuel)
    if r.is_value:
        r2 = star(f, g, fuel + extra)
        assert r2.value == r.value


# --- bullet --------------------------------------------------------------

def test_bullet_successor_tracking():
    # name of the operation g -> g + 1: answers g(k) + 2 once it has read g(k)
    def fn(code):
        s = decode_seq(code)
        if len(s) >= 1 and len(s) >= s[0] + 2:
            return s[s[0] + 1] + 2
        return 0
    f = k2.Oracle(fn)
    out = bullet(f, constant(3))
    for kk in range(11):
        assert out.query(kk, 20).value == 4


def test_bullet_constant_name():
    out = bullet(constant(1), constant(5))
    assert out.query(0, 4).value == 0
    assert out.query(7, 4).value == 0


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=7))
def test_bullet_fuel_monotone(seed, extra):
    import random
    rng = random.Random(seed)
    f = k2.Oracle(lambda c: (c % 11) if (c % 11) < 4 else 0)
    g = k2.TableOracle({i: rng.randrange(5) for i in range(4)}, 1)
    k_q = rng.randrange(4)
    fuel = rng.randrange(1, 8)
    first = bullet(f, g).query(k_q, fuel)
    if first.is_value:
        # a second scan with more fuel, over a fresh bullet
        again = bullet(f, g).query(k_q, fuel + extra)
        assert again.value == first.value


# --- what an oracle keeps --------------------------------------------------

LONG_CODE = encode_seq(list(range(1, 13)))


def _structural_oracles():
    return {"const": constant(0),
            "table": k2.TableOracle({3: 5}, 1),
            "pair_names": pair_names(constant(0), constant(0)),
            "pair": pair_names(constant(0), constant(1))}


def test_dropped_table_oracle_is_freed_without_the_cycle_collector():
    # a table or pair oracle holds no closure over itself, so it is no
    # reference cycle: deleting it frees it at once
    assert LONG_CODE.bit_length() > 3000
    oracles = _structural_oracles()
    assert isinstance(oracles["pair_names"], k2.TableOracle)
    assert isinstance(oracles["pair"], k2.PairOracle)
    for name in list(oracles):
        f = oracles[name]
        f(LONG_CODE), f(LONG_CODE + 1)
        ref = weakref.ref(f)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del f, oracles[name]
            assert ref() is None, name
        finally:
            if enabled:
                gc.enable()
    table = k2.TableOracle({3: 5}, 1)
    assert [table(k) for k in range(5)] == [1, 1, 1, 5, 1]


def test_structural_oracles_keep_no_code_they_answered():
    code = LONG_CODE + 2
    for name, f in _structural_oracles().items():
        before = sys.getrefcount(code)
        f(code), f(code)
        assert sys.getrefcount(code) == before, name
    assert pair_names(constant(0), constant(1))(code) == code % 2


def test_opaque_oracle_runs_its_rule_on_every_query():
    calls = []

    def rule(k):
        calls.append(k)
        return k % 3 if k != 7 else -1

    f = k2.Oracle(rule, label="counted")
    queries = (4, 1, 4, 4, 1, LONG_CODE, LONG_CODE)
    assert [f(k) for k in queries] == [1, 1, 1, 1, 1, LONG_CODE % 3, LONG_CODE % 3]
    assert calls == list(queries)
    for _ in range(2):
        with pytest.raises(ValueError, match="non-natural"):
            f(7)
    assert calls[-2:] == [7, 7]


def test_opaque_oracle_refuses_a_non_natural_answer():
    with pytest.raises(ValueError):
        k2.Oracle(lambda k: -1, label="negative")(0)
    for f in [*_structural_oracles().values(), k2.Oracle(lambda k: k)]:
        with pytest.raises(ValueError):
            f(-1)


# --- a scan reads its name once per code ------------------------------------


def _rising(transcript) -> bool:
    codes = [code for code, _ in transcript]
    return all(a < b for a, b in zip(codes, codes[1:]))


scan_shapes = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),         # fuel
              st.integers(min_value=0, max_value=12),         # firing depth
              st.one_of(st.none(), st.integers(min_value=0, max_value=8))),
    min_size=1, max_size=4)


@given(scan_shapes, st.booleans(), st.integers(min_value=0, max_value=10 ** 6))
def test_star_never_queries_its_name_twice_on_one_code(shapes, shared, seed):
    rng = random.Random(seed)
    tank = k2.Fuel(sum(fuel for fuel, _, _ in shapes))
    for fuel, depth, max_depth in shapes:
        f = k2.RecordingOracle(k2.depth_answer(1 + rng.randrange(3), depth, "f"))
        g = k2.TableOracle({i: rng.randrange(4) for i in range(8)}, rng.randrange(4))
        r = star(f, g, tank if shared else fuel, max_depth)
        assert _rising(f.transcript)
        assert len(f.transcript) <= r.spent


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=10 ** 6))
def test_bullet_query_never_queries_its_name_twice_on_one_code(k, fuel, seed):
    # codes double in bits per element, so the fuel stays at depth 12
    rng = random.Random(seed)
    f = k2.RecordingOracle(k2.Oracle(lambda c, s=rng.randrange(1, 99): c * s % 5 // 4))
    g = k2.TableOracle({i: rng.randrange(4) for i in range(6)}, 1)
    bullet(f, g).query(k, fuel)
    assert _rising(f.transcript)


# --- usage tracking ------------------------------------------------------

def test_meter_tracks_max_index():
    f, meter = with_usage_tracking(constant(2))
    for i in (0, 5, 2):
        f(i)
    assert meter.max_index == 5 and meter.count == 3


def test_meter_zero_before_queries():
    _, meter = with_usage_tracking(constant(2))
    assert meter.max_index == 0 and meter.count == 0


def test_tracking_is_transparent():
    base = k2.TableOracle({0: 4, 3: 9}, 1)
    tracked, _ = with_usage_tracking(base)
    assert [tracked(i) for i in range(6)] == [base(i) for i in range(6)]


def test_recording_oracle_rejects_negative_index_before_metering():
    rec, meter = with_usage_tracking(constant(2))
    with pytest.raises(ValueError):
        rec(-1)
    assert meter.count == 0 and rec.transcript == []
    assert rec(3) == 2 and rec.transcript == [(3, 2)] and meter.max_index == 3


def test_star_reads_argument_below_firing_index():
    f = k2.Oracle(lambda c: 3 if len(decode_seq(c)) >= 2 else 0)
    g, meter = with_usage_tracking(constant(1))
    r = star(f, g, 10)
    assert r.fired_at == 2 and meter.max_index == r.fired_at - 1


# --- finite partial functions -------------------------------------------

def test_initial_run_and_sequences():
    assert FinPartialFn.from_seq([7, 8]).initial_run == 2
    gappy = FinPartialFn.from_dict({0: 7, 2: 9})
    assert gappy.initial_run == 1


@given(st.dictionaries(st.integers(min_value=0, max_value=9),
                       st.integers(min_value=0, max_value=9), max_size=8))
def test_prefix_code_encodes_the_initial_run(d):
    f = FinPartialFn.from_dict(d)
    run = 0
    while run in d:
        run += 1
    assert f.initial_run == run
    for length in range(run + 1):
        assert f.prefix_code(length) == encode_seq([d[i] for i in range(length)])
    with pytest.raises(ValueError):
        f.prefix_code(run + 1)
    with pytest.raises(ValueError):
        f.prefix_code(-1)


def test_interleave_of_uneven_sequences():
    left = FinPartialFn.from_seq([7])
    right = FinPartialFn.from_seq([8, 9])
    assert FinPartialFn.interleave(left, right).as_dict() == {0: 7, 1: 8, 3: 9}


def test_duplicate_indices_rejected():
    with pytest.raises(ValueError):
        FinPartialFn(((0, 1), (0, 2)))


def same_check(entries):
    """FinPartialFn keeps the reference check's entries, or raises its
    error with its text."""
    try:
        want = ref.fin_partial_fn_entries(entries)
    except (TypeError, ValueError) as e:
        with pytest.raises(type(e)) as got:
            FinPartialFn(entries)
        assert str(got.value) == str(e)
        return
    assert FinPartialFn(entries).entries == want


entry_tuples = st.tuples(st.integers(min_value=-3, max_value=12),
                         st.integers(min_value=-2, max_value=9))


@given(st.one_of(
    # strictly increasing naturals, which the one pass accepts
    st.dictionaries(st.integers(min_value=0, max_value=12),
                    st.integers(min_value=0, max_value=9), max_size=8)
    .map(lambda d: tuple(sorted(d.items()))),
    # sorted, with duplicate indices or negatives
    st.lists(entry_tuples, max_size=8).map(lambda e: tuple(sorted(e))),
    # in any order
    st.lists(entry_tuples, max_size=8).map(tuple)))
def test_fin_partial_fn_checks_as_the_reference_does(entries):
    same_check(entries)


@pytest.mark.parametrize("entries", [
    (("a", 1),), ((0, 1), (1, "b")), ((0, 1), (2, 3, 4)), ((0, 1), 5), (None,),
    ((1, 1), (0, None)), ((0, 1.5), (1, 2)), ((True, 1), (3, 0))])
def test_fin_partial_fn_keeps_the_reference_errors_on_odd_entries(entries):
    same_check(entries)


# --- oracle specs --------------------------------------------------------

def test_oracle_spec_round_trip():
    spec = {"table": [[0, 3], [2, 7]], "tail": {"kind": "constant", "value": 1}}
    f = k2.parse_oracle_spec(spec)
    assert [f(i) for i in range(4)] == [3, 1, 7, 1]
    assert k2.oracle_spec_json(f) == spec


def test_oracle_shorthands():
    assert k2.parse_oracle_spec("const:4")(9) == 4
    assert k2.parse_oracle_spec("identity")(9) == 9
    assert k2.parse_oracle_spec("star")(0) == 0


def test_registry_depth_answer():
    f = k2.parse_oracle_spec({"tail": {"kind": "registry", "name": "depth_answer",
                                       "params": {"depth": 1, "n": 0, "m": 2}}})
    assert f(0) == 0
    assert f(encode_seq([5])) == k2.encode_pair(0, 2) + 1


def test_registry_eval_arg_swap12_recodes_one_and_two():
    f = k2.parse_oracle_spec({"tail": {"kind": "registry",
                                       "name": "eval_arg_swap12"}})
    g = k2.from_values([0, 1, 2, 3, 2, 1, 7])
    out = bullet(f, g)
    # 1 and 2 trade places, every other value (the tail's 0 included) stays
    assert [out.query(kk, 20).value for kk in range(9)] == [0, 2, 1, 3, 1, 2, 7, 0, 0]


def test_bad_specs_rejected():
    with pytest.raises(k2.SpecError):
        k2.parse_oracle_spec("bogus:1")
    with pytest.raises(k2.SpecError):
        k2.parse_oracle_spec({"tail": {"kind": "registry", "name": "nope"}})


# --- shared prefix codes ------------------------------------------------------
# The generator trie lives in tests/antispecker_reference.py as the oracle of
# the realizer's inline walk; these tests keep it honest against encode_seq.

def reference_codes(values):
    return [encode_seq(values[:depth]) for depth in range(len(values) + 1)]


walks = st.lists(st.tuples(st.lists(st.integers(min_value=0, max_value=5),
                                    max_size=9),
                           st.integers(min_value=0, max_value=10)),
                 min_size=1, max_size=10)


def check_walks(trie, drawn):
    """Walk each sequence as far as its stop depth, then check the codes."""
    for values, stop in drawn:
        got = list(itertools.islice(trie.codes(values), stop))
        assert got == reference_codes(values)[:stop]


@given(walks)
def test_trie_codes_match_encode_seq_cold_and_warm(drawn):
    trie = ref.PrefixCodeTrie()
    check_walks(trie, drawn)          # cold: every walk builds its own nodes
    check_walks(trie, drawn)          # warm: the same walks reuse them
    check_walks(trie, drawn[::-1])


@given(walks)
def test_trie_codes_survive_frequent_restarts(drawn):
    with mock.patch.object(ref, "PREFIX_TRIE_MAX_BITS", 40):
        trie = ref.PrefixCodeTrie()
        check_walks(trie, drawn)
        check_walks(trie, drawn)


def test_trie_drops_and_restarts_past_the_bits_bound():
    values = [1] * 20
    want = reference_codes(values)
    held = sum(c.bit_length() for c in want)
    assert held > ref.PREFIX_TRIE_MAX_BITS
    trie = ref.PrefixCodeTrie()
    assert list(trie.codes(values)) == want
    assert trie.bits == held
    # the next walk finds the trie past its bound and starts from empty
    assert list(trie.codes(values[:3])) == want[:4]
    assert trie.bits == sum(c.bit_length() for c in want[:4])
    assert list(trie.codes(values)) == want
    assert trie.bits == held


def test_trie_rejects_negative_entries():
    with pytest.raises(ValueError):
        list(ref.PrefixCodeTrie().codes([1, -1]))
