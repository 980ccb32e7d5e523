import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from baire import cauchy, k2
from baire.cauchy import (Modulus, PermutationSpec, RationalSeq,
                          SplitSeries, abs_sum_modulus, classify_windows,
                          dyadic_targets,
                          exact_modulus, is_modulus, modulus_from_abs_sums,
                          partially_cauchy_index, protected_split, settling_index,
                          split_series_for, verify_clearances, TailCertificate,
                          WindowWitness)

F = Fraction
mk = RationalSeq.make


# --- sequences ----------------------------------------------------------------

def test_tail_rules():
    z = mk([F(1, 2)], "zero")
    assert z.value_at(0) == F(1, 2) and z.value_at(5) == 0
    c = mk([], "constant", 3)
    assert c.value_at(7) == 3
    g = mk([1], "geometric", tail_value=F(1, 2), tail_ratio=F(1, 2))
    assert g.value_at(0) == 1 and g.value_at(3) == F(1, 8)


def test_dyadic_targets():
    b = dyadic_targets()
    assert [b.value_at(n) for n in range(4)] == [1, F(1, 2), F(1, 4), F(1, 8)]


def test_shape_flags():
    assert mk([1, 0], "zero").has_finite_support
    assert not mk([-1], "zero").is_nonneg


def test_seq_spec_round_trip():
    spec = {"prefix": ["1/2", "3/4"], "tail": {"kind": "zero"}}
    x = cauchy.parse_seq_spec(spec)
    assert x.prefix == (F(1, 2), F(3, 4))
    assert x.to_json() == spec
    assert cauchy.parse_seq_spec("dyadic").value_at(2) == F(1, 4)


# --- moduli ---------------------------------------------------------------------

def test_constant_sequence_zero_modulus():
    assert is_modulus(Modulus(lambda n: 0), mk([5], "constant", 5), 20).ok


def test_geometric_modulus():
    x = mk([], "geometric", 1, F(1, 2))  # x_i = 2^-i
    assert is_modulus(Modulus(lambda n: n + 1), x, 40).ok


def test_modulus_report_counts_the_exponents_it_checked():
    x = mk([], "geometric", 1, F(1, 2))
    assert is_modulus(Modulus(lambda n: n + 1), x, 40).checked == 40
    # every start lies past the horizon: nothing is compared, so not ok
    report = is_modulus(Modulus(lambda n: 10 ** 9), x, 50)
    assert not report.ok and report.checked == 0
    assert report.counterexample is None


def test_too_eager_modulus_caught():
    x = mk([], "geometric", 1, F(1, 2))
    report = is_modulus(Modulus(lambda n: max(n - 1, 0)), x, 40)
    assert not report.ok and report.counterexample is not None
    n, i, j = report.counterexample
    assert abs(x.value_at(i) - x.value_at(j)) >= F(1, 2 ** n)


def test_exact_modulus_is_least():
    x = mk([0, F(7, 8), 1], "constant", 1)
    f = exact_modulus(x, 10)
    assert is_modulus(f, x, 40).ok
    for n in range(6):
        if f(n) > 0:
            looser = Modulus(lambda m, fn=f, nn=n: fn(m) - 1 if m == nn else fn(m))
            assert not is_modulus(looser, x, 40).ok


# --- the window-diameter settling index ----------------------------------------------

@given(st.integers(min_value=0, max_value=10 ** 6))
def test_pc_index_matches_a_pairwise_window_scan(seed):
    # the least k past which every window {x_m, ..., x_g(m)} has all its
    # pairs closer than 2^-n, scanned past the point where x settles
    rng = random.Random(seed)
    prefix = [F(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(8)]
    x = mk(prefix, "constant", prefix[-1])
    jitter = [rng.randrange(0, 4) for _ in range(16)]
    g = k2.Oracle(lambda m: m + jitter[m], label="g")
    n = rng.randrange(0, 5)
    bound = F(1, 2 ** n)
    want = max((m + 1 for m in range(12)
                if any(abs(x.value_at(i) - x.value_at(j)) >= bound
                       for i in range(m, g(m) + 1) for j in range(m, g(m) + 1))),
               default=0)
    assert partially_cauchy_index(x, exact_modulus(x, 10), g, n) == want


def test_identity_windows_settle_at_zero():
    x = mk([F(1), F(9), F(-3)], "constant", 1)
    f = exact_modulus(x, 10)
    assert partially_cauchy_index(x, f, k2.identity_oracle(), 5) == 0


def test_dyadic_sequence_with_successor_windows():
    x = mk([], "geometric", 1, F(1, 2))
    f = Modulus(lambda n: n + 1)
    succ = k2.Oracle(lambda m: m + 1)
    for n in range(1, 7):
        assert partially_cauchy_index(x, f, succ, n) == n


def test_constant_sequence_settles_at_zero():
    x = mk([2], "constant", 2)
    g = k2.Oracle(lambda m: m + 3)
    assert partially_cauchy_index(x, exact_modulus(x, 8), g, 4) == 0


def test_sub_identity_rejected():
    x = mk([1], "constant", 1)
    g = k2.TableOracle({5: 2}, 0, label="bad")
    bad = k2.Oracle(lambda m: g(m) if m == 5 else m)
    with pytest.raises(ValueError):
        partially_cauchy_index(x, Modulus(lambda n: 9), bad, 2)


# --- protected splitting ---------------------------------------------------------------

def test_hand_trace_against_ones():
    ledger = protected_split(mk([1]), mk([], "constant", 1), 1)
    rec = ledger.stages[0]
    f5 = F(1, 5)
    assert rec.k == 5
    assert rec.y == (f5, -f5, f5, -f5, f5)
    assert rec.t == F(1, 2)
    assert rec.case2 == ((0, 0),)
    assert ledger.protections == {(0, 0): F(1, 2)}
    assert abs(sum(ledger.flat)) == f5
    assert abs(F(1, 5) - 1) == F(4, 5) > F(1, 2)


def test_hand_trace_against_zero():
    ledger = protected_split(mk([1]), mk([]), 1)
    rec = ledger.stages[0]
    assert rec.k == 1 and rec.y == (F(1),) and rec.t is None
    assert rec.case3 == ((0, 0),)
    assert ledger.protections == {(0, 0): F(1, 2)}


def test_zero_stage_is_skipped():
    ledger = protected_split(mk([0, 1]), dyadic_targets(), 2)
    assert ledger.stages[0].k == 1 and ledger.stages[0].y == (F(0),)
    assert ledger.stages[0].case2 == () and ledger.stages[0].case3 == ()


def test_block_mass_is_exact():
    ledger = protected_split(mk([F(2, 3), 0, F(1, 16)]), dyadic_targets(), 4)
    for rec in ledger.stages:
        assert sum(abs(v) for v in rec.y) == rec.x


def test_clearance_verification_and_tampering():
    ledger = protected_split(mk([1]), mk([], "constant", 1), 1)
    assert verify_clearances(ledger, F(0)).ok
    ledger.flat[0] += F(2, 5)   # fault injection
    report = verify_clearances(ledger, F(0))
    assert not report.ok and report.failures


def test_limit_certification_with_zero_tail():
    ledger = protected_split(mk([1, 0, F(1, 16)]), dyadic_targets(), 4)
    report = verify_clearances(ledger, F(0))
    assert report.ok and report.limit_certified == report.pairs_checked


def test_nonnegativity_required():
    with pytest.raises(ValueError):
        protected_split(mk([-1]), dyadic_targets(), 1)


def test_state_cap_aborts_cleanly():
    with pytest.raises(k2.Exhausted) as e:
        protected_split(mk([1, F(1, 4), F(1, 8), F(1, 16)]), dyadic_targets(), 4,
                        max_state_bits=6)
    assert e.value.reason == "state"


def test_block_cap_refuses_before_building(monkeypatch):
    # the hand trace against ones builds a block of 5 entries
    monkeypatch.setattr(cauchy, "BLOCK_CAP", 5)
    assert protected_split(mk([1]), mk([], "constant", 1), 1).stages[0].k == 5
    monkeypatch.setattr(cauchy, "BLOCK_CAP", 4)
    with pytest.raises(k2.Exhausted) as e:
        protected_split(mk([1]), mk([], "constant", 1), 1)
    assert e.value.to_json() == {
        "error": "stage 0: a block of 5 entries exceeds the configured cap",
        "reason": "state", "entries": 5}


def test_ledger_json_shape():
    ledger = protected_split(mk([1]), dyadic_targets(), 2)
    doc = ledger.to_json()
    assert doc["stages"][0]["k"] == 5
    assert doc["stages"][0]["y"][0] == "1/5"
    assert {"A": [], "n": 0, "r": "1/2"} in doc["protections"]


# --- permutations ------------------------------------------------------------------------

def test_permutation_identity_beyond_support():
    p = PermutationSpec.from_mapping({0: 2, 2: 0})
    assert p(0) == 2 and p(2) == 0 and p(7) == 7


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        PermutationSpec(((0, 1), (1, 1)))


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_rearranged_absolute_mass_is_invariant(seed):
    rng = random.Random(seed)
    a = mk([F(1), F(1) + F(1, 16)], "constant", F(1) + F(1, 16))
    series = split_series_for(a)
    idxs = list(range(rng.randrange(2, 10)))
    rng.shuffle(idxs)
    p = PermutationSpec.from_mapping({i: v for i, v in enumerate(idxs)})
    span = series.built_end + p.support_end + 2
    direct = sum((abs(series.value_at(k)) for k in range(span)), F(0))
    rearranged = sum((abs(series.value_at(p(k))) for k in range(span)), F(0))
    assert direct == rearranged == sum(map(abs, series.ledger.flat), F(0))


# --- window classification and the settling index ------------------------------------------

def _const_one_series():
    a = mk([1], "constant", 1)
    return split_series_for(a), exact_modulus(a, 8)


def test_flattened_output_of_constant_sequence():
    series, _ = _const_one_series()
    f5 = F(1, 5)
    assert series.ledger.flat == [f5, -f5, f5, -f5, f5]
    assert series.value_at(17) == 0


def test_window_witness_at_the_last_piece():
    series, f = _const_one_series()
    verdict = classify_windows(series, PermutationSpec.identity(), 4, 3, f)
    assert verdict == WindowWitness(4, 4)


def test_tail_certificate_past_the_support():
    series, f = _const_one_series()
    verdict = classify_windows(series, PermutationSpec.identity(), 5, 3, f)
    assert isinstance(verdict, TailCertificate)
    assert verdict.n0 > 3
    assert verdict.n1 == f(verdict.n0 + 1) + 1


def test_wide_target_certifies_from_zero():
    series, f = _const_one_series()
    # total variation is 1, so exponent 0 clears every window from the start
    verdict = classify_windows(series, PermutationSpec.identity(), 0, 0, f)
    assert isinstance(verdict, TailCertificate)
    assert settling_index(series, PermutationSpec.identity(), 0, f) == 0


def test_settling_index_of_constant_sequence():
    series, f = _const_one_series()
    assert settling_index(series, PermutationSpec.identity(), 3, f) == 5


def test_swapping_zero_positions_changes_nothing():
    series, f = _const_one_series()
    base = settling_index(series, PermutationSpec.identity(), 3, f)
    p = PermutationSpec.from_mapping({7: 9, 9: 7})
    assert settling_index(series, p, 3, f) == base


def test_settling_matches_brute_force_under_permutations():
    rng = random.Random(99)
    a = mk([F(1), F(1), F(17, 16)], "constant", F(17, 16))
    series = split_series_for(a)
    f = exact_modulus(a, 8)
    for _ in range(6):
        idxs = list(range(rng.randrange(2, series.built_end + 3)))
        rng.shuffle(idxs)
        p = PermutationSpec.from_mapping({i: v for i, v in enumerate(idxs)})
        for n in (1, 2, 4):
            bound = F(1, 2 ** n)
            scan = series.built_end + p.support_end + 4
            worst = -1
            for i in range(scan + 1):
                acc = F(0)
                for j in range(i, scan + 1):
                    acc += series.value_at(p(j))
                    if abs(acc) >= bound:
                        worst = max(worst, i)
                        break
            assert settling_index(series, p, n, f) == worst + 1


def test_split_series_requires_finite_support():
    with pytest.raises(ValueError):
        SplitSeries(protected_split(mk([], "geometric", 1, F(1, 2)),
                                    dyadic_targets(), 2))


def test_tail_certificates_are_sound():
    # whenever classification certifies a tail, verify its claim directly:
    # every window from m on stays strictly below the target
    rng = random.Random(321)
    a = mk([F(1, 2), F(1, 2) + F(1, 16)], "constant", F(1, 2) + F(1, 16))
    series = split_series_for(a)
    f = exact_modulus(a, 8)
    for trial in range(12):
        idxs = list(range(rng.randrange(2, series.built_end + 3)))
        rng.shuffle(idxs)
        p = PermutationSpec.from_mapping({i: v for i, v in enumerate(idxs)})
        m = rng.randrange(0, series.built_end + 3)
        n = rng.randrange(1, 5)
        verdict = classify_windows(series, p, m, n, f)
        scan = series.built_end + p.support_end + 4
        bound = F(1, 2 ** n)
        if isinstance(verdict, TailCertificate):
            for i in range(m, scan + 1):
                acc = F(0)
                for j in range(i, scan + 1):
                    acc += series.value_at(p(j))
                    assert abs(acc) < bound
        else:
            acc = sum((series.value_at(p(kk))
                       for kk in range(verdict.i, verdict.j + 1)), F(0))
            assert verdict.i >= m and abs(acc) >= bound


def test_split_invariants_on_random_dyadic_inputs():
    rng = random.Random(654)
    for trial in range(15):
        entries = [F(0)] * 6
        # first mass at most 1 keeps the first block small, so the
        # exhaustive classification at the second positive stage stays tiny
        entries[0] = F(rng.randrange(1, 5), 2 ** rng.randrange(2, 4))
        entries[rng.randrange(1, 4)] = F(1, 2 ** rng.randrange(4, 7))
        x = mk(entries)
        ledger = protected_split(x, dyadic_targets(), 8)
        assert verify_clearances(ledger, F(0)).ok
        for rec in ledger.stages:
            assert sum(abs(v) for v in rec.y) == rec.x
            assert rec.k % 2 == 1


# --- modulus transfer -------------------------------------------------------------------------

def test_transfer_on_constant_sequence():
    a = mk([1], "constant", 1)
    series = split_series_for(a)
    g = abs_sum_modulus(series.ledger)
    fg = modulus_from_abs_sums(series.ledger, g)
    assert is_modulus(fg, a, 40).ok


def test_single_block_transfer_is_tiny():
    a = mk([F(1, 2)], "constant", F(1, 2))
    series = split_series_for(a)
    fg = modulus_from_abs_sums(series.ledger, abs_sum_modulus(series.ledger))
    for n in range(12):
        assert fg(n) <= 1


def test_transfer_on_dyadic_staircase():
    a = mk([F(1, 2), F(3, 4)], "constant", F(3, 4))
    series = split_series_for(a)
    fg = modulus_from_abs_sums(series.ledger, abs_sum_modulus(series.ledger))
    assert is_modulus(fg, a, 40).ok


def test_a_geometric_tail_with_no_base_starts_from_the_prefix():
    # the base is the last prefix entry times the ratio, or 1 with no prefix
    parsed = cauchy.parse_seq_spec(
        {"prefix": ["3", "1/3"], "tail": {"kind": "geometric", "ratio": "1/4"}})
    assert parsed == mk([3, F(1, 3)], "geometric", tail_value=F(1, 12),
                        tail_ratio=F(1, 4))
    assert [parsed.value_at(i) for i in range(4)] == [3, F(1, 3), F(1, 12), F(1, 48)]
    empty = cauchy.parse_seq_spec({"tail": {"kind": "geometric"}})
    assert empty == mk([], "geometric", tail_value=1, tail_ratio=F(1, 2))
    assert empty == dyadic_targets()


@pytest.mark.parametrize("seq", [
    mk([]), mk([1, F(-2, 3), 0]),
    mk([F(1, 2)], "constant", tail_value=F(-5, 7)), mk([], "constant", tail_value=0),
    mk([2, 1], "geometric", tail_value=F(3, 4), tail_ratio=F(-1, 3)),
    dyadic_targets()])
def test_to_json_round_trips_through_the_spec_parser(seq):
    assert cauchy.parse_seq_spec(seq.to_json()) == seq
