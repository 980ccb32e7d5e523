"""The integer-scaled splitter and window search against the `Fraction` code.

``tests/cauchy_reference.py`` keeps the mask-by-mask `Fraction` versions of
``protected_split``, ``verify_clearances``, ``classify_windows`` and
``settling_index``.  The fast versions in ``baire.cauchy`` must build equal
ledgers (field by field, protections in the same insertion order), equal
clearance reports, the same verdicts, and raise the same exceptions with
the same messages.
"""

import copy
import dataclasses
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as Q
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cauchy_reference as ref
from baire import cauchy, k2
from baire.cauchy import PermutationSpec, RationalSeq

mk = RationalSeq.make

DYADIC = ("geometric", Q(1), Q(1, 2))
CONST_THIRD = ("constant", Q(1, 3))
CONST_TWO = ("constant", Q(2))
GEO_THIRDS = ("geometric", Q(1), Q(1, 3))
GEO_QUARTERS = ("geometric", Q(3, 2), Q(1, 4))

# the split benchmark's templates, by classification width
SPLIT_TEMPLATES = {
    8: [(("2", "1/5", "1/32"), CONST_TWO), (("2", "1/5", "1/64"), CONST_TWO),
        (("1/3", "1/16", "1/32"), GEO_QUARTERS), (("1/3", "1/8", "1/32"), GEO_THIRDS),
        (("1/3", "1/16", "1/32"), CONST_THIRD), (("1/3", "1/16", "1/64"), CONST_THIRD)],
    9: [(("2", "0", "1/5", "1/32"), CONST_TWO), (("2", "0", "1/5", "1/64"), CONST_TWO),
        (("1/3", "0", "1/16", "1/64"), CONST_THIRD), (("1/3", "0", "1/16", "1/32"), CONST_THIRD),
        (("2", "0", "0", "1/8"), GEO_QUARTERS), (("2", "0", "0", "1/5"), GEO_QUARTERS)],
    10: [(("3/2", "1/16", "1/64"), GEO_QUARTERS), (("2", "0", "1/16"), DYADIC),
         (("1", "1/16", "1/64"), GEO_QUARTERS), (("1", "1/16", "1/32"), GEO_QUARTERS),
         (("1/2", "1/16", "1/32"), GEO_QUARTERS)],
    11: [(("1", "0", "1/16", "1/64"), GEO_QUARTERS), (("1/2", "0", "1/16", "1/32"), GEO_QUARTERS),
         (("1", "0", "1/16", "1/32"), GEO_QUARTERS), (("1/3", "0", "1/8", "1/64"), CONST_THIRD)],
}
TEMPLATES = [(w, i) for w, ts in SPLIT_TEMPLATES.items() for i in range(len(ts))]
SCALES = (Q(1, 4), Q(1, 2), Q(1), Q(2), Q(4))


def _targets(tail, c=Q(1)) -> RationalSeq:
    if tail[0] == "constant":
        return mk([], "constant", tail[1] * c)
    return mk([], "geometric", tail[1] * c, tail[2])


def _template(width, idx, c=Q(1)):
    xs, tail = SPLIT_TEMPLATES[width][idx]
    return mk([Q(v) * c for v in xs]), _targets(tail, c), len(xs)


def _fields(rec):
    return (rec.stage, rec.x, rec.positive, rec.k, rec.y, rec.t, rec.checked)


def assert_same_ledger(got, want):
    """A class-stored ledger against a reference pair ledger: every field,
    the pairs its views expand to, in order, and its document."""
    assert got.x == want.x and got.b == want.b
    assert len(got.stages) == len(want.stages)
    for g, w in zip(got.stages, want.stages):
        assert _fields(g) == _fields(w), (g.stage, w.stage)
        assert g.case2 == w.case2 and g.case3 == w.case3, g.stage
    assert got.flat == want.flat
    assert got.block_start == want.block_start
    assert len(got.protections) == len(want.protections)
    assert list(got.protections.items()) == list(want.protections.items())
    # single lookups read the ranges without expanding them
    keys = list(want.protections)
    for key in keys[::max(1, len(keys) // 64)]:
        assert got.protections[key] == want.protections[key]
    assert (1 << len(got.flat), 0) not in got.protections
    assert got.last_positive_stage == want.last_positive_stage
    assert got.to_json() == want.to_json()


def _outcome(fn, *args, **kwargs):
    """A result, or the type, message, attached ledger and exhaustion
    document of what was raised."""
    try:
        return "value", fn(*args, **kwargs)
    except (ValueError, k2.Exhausted, cauchy.ClearanceViolation) as e:
        return (type(e), str(e), getattr(e, "ledger", None),
                e.to_json() if isinstance(e, k2.Exhausted) else None)


def assert_same_split(x, b, stages, **kwargs):
    got = _outcome(cauchy.protected_split, x, b, stages, **kwargs)
    want = _outcome(ref.protected_split, x, b, stages, **kwargs)
    assert got[0] == want[0]
    if got[0] == "value":
        assert_same_ledger(got[1], want[1])
        for bound in (None, Q(0), Q(1, 64)):
            assert cauchy.verify_clearances(got[1], bound) == \
                ref.verify_clearances(want[1], bound)
        return got[1]
    assert got[1] == want[1] and got[3] == want[3]
    if want[2] is not None:
        assert_same_ledger(got[2], want[2])
    return None


# --- the benchmark templates -------------------------------------------------------


@lru_cache(maxsize=None)
def _reference_at_unit_scale(width, idx):
    x, b, stages = _template(width, idx)
    ledger = ref.protected_split(x, b, stages)
    return ledger, ref.verify_clearances(ledger, Q(0))


def _scaled_ledger(ledger, x, b, c):
    """The ledger of the same split with x and b scaled by c > 0: the
    construction is homogeneous, so every entry, floor and protection
    scales by c while k and each pair's case stay."""
    out = ref.PairLedger(x=x, b=b)
    for rec in ledger.stages:
        out.stages.append(ref.PairStage(
            stage=rec.stage, x=rec.x * c, positive=rec.positive, k=rec.k,
            y=tuple(v * c for v in rec.y),
            t=rec.t * c if rec.t is not None else None,
            case2=rec.case2, case3=rec.case3, checked=rec.checked))
    out.flat = [v * c for v in ledger.flat]
    out.block_start = list(ledger.block_start)
    out.protections = {key: r * c for key, r in ledger.protections.items()}
    out.last_positive_stage = ledger.last_positive_stage
    return out


@pytest.mark.parametrize("width,idx", TEMPLATES)
@pytest.mark.parametrize("c", SCALES, ids=str)
def test_benchmark_templates_match_reference(width, idx, c):
    # the reference runs once per template; other scales follow by
    # homogeneity, and width 8 runs the reference at every scale too
    x, b, stages = _template(width, idx, c)
    ledger = cauchy.protected_split(x, b, stages)
    want, report = _reference_at_unit_scale(width, idx)
    assert_same_ledger(ledger, _scaled_ledger(want, x, b, c))
    assert cauchy.verify_clearances(ledger, Q(0)) == report
    assert report.ok and report.limit_certified == report.pairs_checked
    if width == 8:
        assert_same_split(x, b, stages)


def test_split_verify_and_window_search_never_expand_pairs(monkeypatch):
    # a count, not a timing: every pair view goes through cauchy._expand
    expanded = []

    def refuse(rec):
        expanded.append(rec.stage)
        raise AssertionError(f"stage {rec.stage} expanded to pairs")

    monkeypatch.setattr(cauchy, "_expand", refuse)
    x, b, stages = _template(11, 0)
    ledger = cauchy.protected_split(x, b, stages)
    report = cauchy.verify_clearances(ledger, Q(0))
    assert report.ok and report.pairs_checked == len(ledger.protections) == 8192
    a = _increasing(tuple(str(v) for v in x.prefix))
    z = cauchy.split_series_for(a)
    f = cauchy.exact_modulus(a, len(x.prefix) + 4)
    p = PermutationSpec.from_mapping({0: 5, 5: 0, 2: 9, 9: 2})
    for n in range(5):
        assert cauchy.settling_index(z, p, n, f) == ref.settling_index(z, p, n, f)
    assert expanded == []
    with pytest.raises(AssertionError):
        list(ledger.protections.items())
    assert expanded == [0]


# the width-18 input: 3 stages, 786,432 pairs at the last
WIDTH_18 = mk([Q(1, 2), Q(9, 16)], "constant", Q(9, 16))
WIDTH_14 = (mk([Q(1, 2), Q(1, 16), Q(1, 64)]), mk([], "constant", Q(1, 3)), 3)


def test_split_and_verify_count_without_a_mask_table(monkeypatch):
    # a count, not a timing: every per-mask subset-sum table the program
    # reads goes through cauchy._mask_sums
    built = []

    def refuse(entries, scale):
        built.append(len(entries))
        raise AssertionError(f"a mask table of width {len(entries)}")

    monkeypatch.setattr(cauchy, "_mask_sums", refuse)
    for x, b, stages in (_template(11, 0), WIDTH_14, (WIDTH_18, WIDTH_18, 3)):
        ledger = cauchy.protected_split(x, b, stages)
        report = cauchy.verify_clearances(ledger, Q(0))
        assert report.ok and report.pairs_checked == len(ledger.protections)
    assert built == []
    tracemalloc.start()
    try:
        ledger = cauchy.protected_split(WIDTH_18, WIDTH_18, 3)
        report = cauchy.verify_clearances(ledger, Q(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert report.pairs_checked == 786432
    assert [rec.checked for rec in ledger.stages] == [1, 64, 786432]
    assert built == []
    with pytest.raises(AssertionError):
        list(ledger.protections.items())
    assert built == [0]


def _mask_table(values):
    """The subset sums of the values, indexed by mask."""
    sums = [0]
    for v in values:
        sums += [u + v for u in sums]
    return sums


@given(st.lists(st.tuples(st.sampled_from([0, 1, 3, 5, 7]), st.integers(1, 6),
                          st.integers(1, 12), st.integers(1, 9)), max_size=10))
def test_class_counts_match_a_counter_over_the_mask_table(layout):
    # stages of k entries (k = 0: a zero stage), each followed by a
    # denominator admitted; a positive stage counts before its block.  The
    # state keeps only the last block's piece, so the held entries of the
    # mask table are kept here
    state = cauchy._ScaledState()
    flat: list[int] = []
    width, last = 0, (None, 0)
    for k, num, den, admitted in layout:
        if width + max(k, 1) > 16:
            break
        if k == 0:
            flat.append(0)
            width += 1
        else:
            state.count(width, *last)
            table = _mask_table(flat)
            assert list(state.counts.items()) == list(Counter(table).items())
            if last[0] is not None:
                assert list(state.before.items()) == \
                    list(Counter(table[:1 << last[0]]).items())
            piece = Q(num, den)
            grow = state.admit(piece)
            state.piece = held = state.held(piece)
            flat = [v * grow for v in flat] + [held, -held] * (k // 2) + [held]
            last = (width, k)
            width += k
        grow = state.admit(Q(1, admitted))
        flat = [v * grow for v in flat]
        assert state.piece == (flat[last[0]] if last[0] is not None else 0)


def test_width_14_split_verifies_like_the_reference():
    # 49,152 pairs at the last stage: the class check against the pair
    # scan of the reference, on the ledger's expanded pairs
    ledger = cauchy.protected_split(*WIDTH_14)
    assert len(ledger.stages[-1].entries) == 14
    report = cauchy.verify_clearances(ledger, Q(0))
    assert report == ref.verify_clearances(ledger, Q(0))
    assert report.ok and report.pairs_checked == len(ledger.protections) == 49152


# --- hand traces ---------------------------------------------------------------------


@pytest.mark.parametrize("x,b,stages", [
    (mk([1]), mk([], "constant", 1), 1),
    (mk([1]), mk([]), 1),
    (mk([1]), cauchy.dyadic_targets(), 2),
    (mk([0, 1]), cauchy.dyadic_targets(), 2),
    (mk([Q(2, 3), 0, Q(1, 16)]), cauchy.dyadic_targets(), 4),
    (mk([1, 0, Q(1, 16)]), cauchy.dyadic_targets(), 4),
    (mk([]), cauchy.dyadic_targets(), 3),
    (mk([Q(1, 2), Q(1, 16), Q(1, 64)]), cauchy.dyadic_targets(), 3),
    (mk([], "geometric", 1, Q(1, 2)), cauchy.dyadic_targets(), 2),
    (mk([1, Q(1, 4), Q(1, 8), Q(1, 16)]), cauchy.dyadic_targets(), 4),
    (mk([-1]), cauchy.dyadic_targets(), 1),
])
def test_hand_traces_match_reference(x, b, stages):
    assert_same_split(x, b, stages, max_state_bits=12)


def test_state_cap_matches_reference():
    x = mk([1, Q(1, 4), Q(1, 8), Q(1, 16)])
    for bits in (0, 5, 6, 9):
        assert_same_split(x, cauchy.dyadic_targets(), 4, max_state_bits=bits)


def _classes(ledger):
    """Every protection class of a class-stored ledger, in ledger order:
    (the stage, its range, the range's table for the case, the subset sum
    held over the stage's scale)."""
    return [(rec, g, table, v) for rec in ledger.stages
            for case in ("by_gap", "on_target") for g in rec.ranges
            for table in [getattr(g, case)] for v in table]


def _corrupt(slow, rec, g, table, v, r):
    """Give one class of a class-stored ledger the protection r, and give
    the reference ledger the same corruption, expanded to the class's pairs
    (the masks of its range whose subset sum is v)."""
    table[v] = r
    for mask in range(g.lo, g.hi):
        if ref.subset_sum(slow, mask) == Q(v, rec.scale):
            slow.protections[(mask, g.n)] = r


def _first_failing_pair(slow, s):
    """The reference's stage-end message for the first protected pair, in
    ledger order, that does not clear its protection."""
    total = sum(slow.flat)
    for (mask, n), r in slow.protections.items():
        clear = abs(abs(total - ref.subset_sum(slow, mask)) - slow.b.value_at(n))
        if not clear > r:
            return (f"stage {s}: pair (A={cauchy._mask_indices(mask)}, n={n}) "
                    f"has clearance {clear} <= protection {r}")
    return None


def test_stage_end_fallback_names_the_first_failing_pair():
    # valid inputs cannot fail the stage-end check (the floor keeps every
    # piece below a quarter of each positive target), so feed the pair
    # scan a corrupted ledger directly.  The ledger keeps one protection
    # per class, so a corruption reaches every pair of its class.  The
    # template has classes on their target (case 3), the other input none
    for x, b, stages in [(mk([1, 0, Q(1, 16)]), cauchy.dyadic_targets(), 3),
                         _template(8, 3)]:
        classes = _classes(cauchy.protected_split(x, b, stages))
        # the last stage's last case-2 class comes before all its case-3
        # pairs in ledger order, whatever their masks
        last_gap = max(i for i, (rec, g, table, _) in enumerate(classes)
                       if table is g.by_gap)
        for picks in [(-1,), (-1, 1), (2, 3), (len(classes) // 2, 0),
                      (-1, last_gap)]:
            fast = cauchy.protected_split(x, b, stages)
            slow = ref.protected_split(x, b, stages)
            found = _classes(fast)
            for i in picks:
                _corrupt(slow, *found[i], Q(3))
            assert list(fast.protections.items()) == list(slow.protections.items())
            targets = [b.value_at(n) for n in range(stages)]
            state = cauchy._ScaledState()
            for v in [*fast.flat, *targets]:
                state.admit(v)
            state.total = sum(state.held(v) for v in fast.flat)
            state.b = [state.held(v) for v in targets]
            with pytest.raises(cauchy.ClearanceViolation) as e:
                cauchy._raise_first_violation(fast, state, stages - 1)
            want = _first_failing_pair(slow, stages - 1)
            assert want is not None and str(e.value) == want


# --- random inputs ---------------------------------------------------------------------

rationals = st.builds(Q, st.integers(0, 6), st.integers(1, 9))


@st.composite
def sequences(draw, max_prefix):
    prefix = draw(st.lists(st.one_of(st.just(Q(0)), rationals), max_size=max_prefix))
    kind = draw(st.sampled_from(["zero", "constant", "geometric"]))
    if kind == "zero":
        return mk(prefix)
    value = draw(rationals)
    if kind == "constant":
        return mk(prefix, "constant", value)
    return mk(prefix, "geometric", value, Q(1, draw(st.integers(2, 5))))


@given(sequences(4), sequences(3), st.integers(1, 5))
def test_random_splits_match_reference(x, b, stages):
    assert_same_split(x, b, stages, max_state_bits=12)


# --- the clearance check on corrupted ledgers ----------------------------------------------


def test_corrupted_protection_is_reported_alike():
    x, b, stages = _template(8, 3)
    fast = cauchy.protected_split(x, b, stages)
    slow = ref.protected_split(x, b, stages)
    classes = _classes(fast)
    rng = random.Random(17)
    for rec, g, table, v in [classes[0], classes[-1], *rng.sample(classes, 3)]:
        kept = table[v]
        for bad in (Q(5), Q(-1), Q(1, 3)):
            _corrupt(slow, rec, g, table, v, bad)
            assert list(fast.protections.items()) == list(slow.protections.items())
            for bound in (None, Q(1, 7)):
                assert cauchy.verify_clearances(fast, bound) == \
                    ref.verify_clearances(slow, bound)
        _corrupt(slow, rec, g, table, v, kept)
    for cls in (classes[3], classes[5]):
        _corrupt(slow, *cls, Q(9))
    report = cauchy.verify_clearances(fast, Q(0))
    assert report == ref.verify_clearances(slow, Q(0))
    assert not report.ok and len(report.failures) == sum(
        1 for r in slow.protections.values() if r == 9)


@lru_cache(maxsize=None)
def _reference_split(x, b, stages):
    return ref.protected_split(x, b, stages)


@st.composite
def damaged_ledgers(draw):
    """A split in both forms, damaged alike in one or more of four ways: an
    entry of ``flat`` moved off its stage's entries, one class's protection
    changed, one range cut in two at a mask that is no power of two, and
    ``flat`` truncated."""
    x, b, stages = draw(st.sampled_from(
        [_template(8, i) for i in range(6)] + [(mk([1, 0, Q(1, 16)]),
                                                cauchy.dyadic_targets(), 4)]))
    fast = cauchy.protected_split(x, b, stages)
    slow = copy.deepcopy(_reference_split(x, b, stages))
    tamper, corrupt, cut, truncate = draw(
        st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()).filter(any))
    if corrupt:
        classes = _classes(fast)
        found = classes[draw(st.integers(0, len(classes) - 1))]
        _corrupt(slow, *found, draw(st.sampled_from([Q(5), Q(-1), Q(1, 3), Q(0)])))
    if tamper:
        at = draw(st.integers(0, len(fast.flat) - 1))
        delta = draw(st.builds(Q, st.integers(-6, 6), st.integers(1, 9)))
        fast.flat[at] += delta
        slow.flat[at] += delta
    if cut:
        recs = [rec for rec in fast.stages if any(g.hi - g.lo > 4 for g in rec.ranges)]
        rec = draw(st.sampled_from(recs))
        i = draw(st.sampled_from([i for i, g in enumerate(rec.ranges) if g.hi - g.lo > 4]))
        g = rec.ranges[i]
        mid = draw(st.integers(g.lo + 1, g.hi - 1).filter(lambda m: m & (m - 1)))
        rec.ranges = (*rec.ranges[:i],
                      cauchy.ProtectedRange(g.n, g.lo, mid, g.by_gap, g.on_target),
                      cauchy.ProtectedRange(g.n, mid, g.hi, g.by_gap, g.on_target),
                      *rec.ranges[i + 1:])
    if truncate:
        end = draw(st.integers(0, len(fast.flat) - 1))
        del fast.flat[end:]
        del slow.flat[end:]
    return fast, slow


@given(damaged_ledgers(), st.sampled_from([None, Q(0), Q(1, 7)]))
def test_damaged_ledgers_are_reported_alike(ledgers, bound):
    fast, slow = ledgers
    assert sorted(fast.protections.items()) == sorted(slow.protections.items())
    try:
        want = ref.verify_clearances(slow, bound)
    except IndexError:
        # a truncated flat holds no entry for some protected mask
        with pytest.raises(ValueError, match="entries, but the ledger holds"):
            cauchy.verify_clearances(fast, bound)
        return
    assert cauchy.verify_clearances(fast, bound) == want


def test_truncated_ledger_is_refused_like_the_reference():
    x, b = mk([1, 0, Q(1, 16)]), cauchy.dyadic_targets()
    fast = cauchy.protected_split(x, b, 4)
    slow = ref.protected_split(x, b, 4)
    del fast.flat[3:]
    del slow.flat[3:]
    with pytest.raises(ValueError) as e:
        cauchy.verify_clearances(fast, Q(0))
    assert str(e.value) == "stage 2 classified 6 entries, but the ledger holds 3"
    with pytest.raises(IndexError):
        ref.verify_clearances(slow, Q(0))


def test_tampered_entry_is_reported_alike():
    x, b = mk([1, 0, Q(1, 16)]), cauchy.dyadic_targets()
    fast = cauchy.protected_split(x, b, 4)
    slow = ref.protected_split(x, b, 4)
    fast.flat[2] += Q(2, 5)
    slow.flat[2] += Q(2, 5)
    assert cauchy.verify_clearances(fast, Q(0)) == ref.verify_clearances(slow, Q(0))
    assert not cauchy.verify_clearances(fast, Q(0)).ok


# --- window search --------------------------------------------------------------------------

SETTLE_DELTAS = [("1/2", "1/32"), ("1/3", "1/16"), ("1/2", "0", "1/32"), ("1", "1/16"),
                 ("3/4", "0", "3/32"), ("1/3", "1/5"), ("1",), ("1/2", "1/16", "1/64")]


def _increasing(deltas):
    acc, prefix = Q(0), []
    for d in deltas:
        acc += Q(d)
        prefix.append(acc)
    return mk(prefix, "constant", prefix[-1])


@lru_cache(maxsize=None)
def _series(deltas):
    a = _increasing(deltas)
    return cauchy.split_series_for(a), cauchy.exact_modulus(a, len(deltas) + 4)


def _permutation(rng, size):
    idx = list(range(size))
    rng.shuffle(idx)
    return PermutationSpec.from_mapping({i: v for i, v in enumerate(idx)})


@pytest.mark.parametrize("deltas", SETTLE_DELTAS, ids="-".join)
def test_window_search_matches_reference(deltas):
    z, f = _series(deltas)
    rng = random.Random(len(deltas) * 1000 + z.built_end)
    perms = [PermutationSpec.identity()] + [
        _permutation(rng, rng.randrange(2, z.built_end + 6)) for _ in range(4)]
    for p in perms:
        for n in range(7):
            assert _outcome(cauchy.settling_index, z, p, n, f) == \
                _outcome(ref.settling_index, z, p, n, f)
            for m in range(0, z.built_end + 3, 2):
                for budget in (0, 3, 40, 10 ** 6):
                    assert _outcome(cauchy.classify_windows, z, p, m, n, f, budget) == \
                        _outcome(ref.classify_windows, z, p, m, n, f, budget)


@given(st.sampled_from(SETTLE_DELTAS), st.integers(0, 10 ** 6),
       st.integers(0, 8), st.integers(0, 24))
def test_random_window_search_matches_reference(deltas, seed, n, m):
    z, f = _series(deltas)
    rng = random.Random(seed)
    p = _permutation(rng, rng.randrange(0, 24))
    assert _outcome(cauchy.classify_windows, z, p, m, n, f) == \
        _outcome(ref.classify_windows, z, p, m, n, f)
    assert _outcome(cauchy.settling_index, z, p, n, f, 400) == \
        _outcome(ref.settling_index, z, p, n, f, 400)


def damaged_certificates(cert):
    """Copies of a certificate with k0 off by one, n1 one past f(n0 + 1) + 1,
    or n0 down to n; each breaks one condition of the definition."""
    yield dataclasses.replace(cert, k0=cert.k0 + 1)
    if cert.k0 > 0:
        yield dataclasses.replace(cert, k0=cert.k0 - 1)
    yield dataclasses.replace(cert, n1=cert.n1 + 1)


@given(st.sampled_from(SETTLE_DELTAS), st.integers(0, 10 ** 6))
def test_every_tail_certificate_meets_its_definition(deltas, seed):
    z, f = _series(deltas)
    rng = random.Random(seed)
    p = _permutation(rng, rng.randrange(0, z.built_end + 6))
    certified = 0
    for n in range(6):
        for m in range(z.built_end + 3):
            try:
                verdict = cauchy.classify_windows(z, p, m, n, f)
            except k2.Exhausted:
                continue
            if not isinstance(verdict, cauchy.TailCertificate):
                continue
            certified += 1
            assert ref.check_tail_certificate(z.ledger, p, m, n, f, verdict) == []
            for bad in damaged_certificates(verdict):
                assert ref.check_tail_certificate(z.ledger, p, m, n, f, bad) != []
            assert "n0 > n" in ref.check_tail_certificate(
                z.ledger, p, m, n, f, dataclasses.replace(verdict, n0=n))
    # a window that starts past the series' last entry is empty, so every
    # n has a certificate
    assert certified >= 6


def test_the_golden_tail_certificate_meets_its_definition():
    a = cauchy.parse_seq_spec({"prefix": ["1/2", "9/16", "37/64"],
                               "tail": {"kind": "constant", "value": "37/64"}})
    p = cauchy.parse_permutation_spec(
        {"table": [[0, 4], [4, 8], [8, 0], [1, 2], [2, 1], [10, 11], [11, 10]]})
    z = cauchy.split_series_for(a)
    f = cauchy.exact_modulus(a, len(a.prefix) + 4)
    # the document of the rpt-decide-three-steps-tail golden
    cert = cauchy.TailCertificate(n0=5, n1=3, k0=9)
    assert cauchy.classify_windows(z, p, 0, 2, f) == cert
    assert ref.check_tail_certificate(z.ledger, p, 0, 2, f, cert) == []
    for bad in [*damaged_certificates(cert), dataclasses.replace(cert, n0=2)]:
        assert ref.check_tail_certificate(z.ledger, p, 0, 2, f, bad) != []


def test_permutation_lookup_matches_table_scan():
    rng = random.Random(3)
    for _ in range(20):
        p = _permutation(rng, rng.randrange(0, 30))
        for k in range(40):
            want = next((v for i, v in p.table if i == k), k)
            assert p(k) == want
        assert PermutationSpec(p.table) == p and hash(PermutationSpec(p.table)) == hash(p)


# --- the window index and the integer moduli against the scans they replaced ----------

signed = st.builds(Q, st.integers(-6, 6), st.integers(1, 9))


@st.composite
def eventually_constant(draw):
    """A prefix with a zero or constant tail whose steps are rationals,
    repeats, or moves below 2^-64, so that the modulus runs into its cap."""
    prefix: list = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["rational", "tiny", "repeat"]))
        if kind == "rational" or not prefix:
            prefix.append(draw(signed))
        elif kind == "tiny":
            prefix.append(prefix[-1] + Q(draw(st.integers(-3, 3)),
                                         2 ** draw(st.integers(60, 72))))
        else:
            prefix.append(prefix[-1])
    tail = draw(st.sampled_from(["zero", "fresh", "last", "near-last"]))
    if tail == "zero":
        return mk(prefix)
    last = prefix[-1] if prefix else Q(0)
    value = {"fresh": draw(signed), "last": last,
             "near-last": last + Q(1, 2 ** draw(st.integers(60, 72)))}[tail]
    return mk(prefix, "constant", value)


@given(eventually_constant(), st.integers(0, 20))
def test_exact_modulus_matches_reference(x, horizon):
    got = cauchy.exact_modulus(x, horizon)
    want = ref.exact_modulus(x, horizon)
    assert [got(n) for n in range(80)] == [want(n) for n in range(80)]


def test_exact_modulus_stops_at_the_cap_like_the_reference():
    step = Q(1, 2 ** 70)
    x = mk([Q(1, 2), Q(1, 2) + step, Q(1, 2) + 2 * step], "constant", Q(1, 2) + 2 * step)
    got, want = cauchy.exact_modulus(x, 0), ref.exact_modulus(x, 0)
    assert [got(n) for n in (0, 64, 65, 66, 69, 70, 100)] == \
        [want(n) for n in (0, 64, 65, 66, 69, 70, 100)] == [0, 0, 0, 0, 0, 0, 0]
    settled = mk([Q(1, 2), Q(17, 32)], "constant", Q(17, 32))
    got, want = cauchy.exact_modulus(settled, 0), ref.exact_modulus(settled, 0)
    assert [got(n) for n in range(70)] == [want(n) for n in range(70)]
    assert got(4) == 0 and got(5) == 1 and got(1000) == 1
    geometric = mk([Q(1)], "geometric", Q(1), Q(1, 2))
    assert _outcome(cauchy.exact_modulus, geometric, 3) == \
        _outcome(ref.exact_modulus, geometric, 3)


@given(st.sampled_from(SETTLE_DELTAS + [("1/2", "1/16", "39/16")]), st.integers(0, 3))
def test_abs_sum_modulus_matches_reference(deltas, shift):
    ledger = _series(deltas)[0].ledger
    scaled = cauchy.SplitterLedger(ledger.x, ledger.b, ledger.stages,
                                   [v * Q(1, 3 ** shift) for v in ledger.flat],
                                   ledger.block_start, ledger.last_positive_stage)
    # an entry that breaks its block's alternation
    broken = cauchy.SplitterLedger(ledger.x, ledger.b, ledger.stages, list(ledger.flat),
                                   ledger.block_start, ledger.last_positive_stage)
    broken.flat[len(broken.flat) // 2] += Q(1, 7)
    for led in (ledger, scaled, broken):
        got, want = cauchy.abs_sum_modulus(led), ref.abs_sum_modulus(led)
        assert [got(n) for n in range(40)] == [want(n) for n in range(40)]


def _brute_first_outside(values, start, lo, hi):
    return next((t for t in range(start, len(values))
                 if values[t] <= lo or values[t] >= hi), None)


@pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 200, 4095, 4096, 4097, 9000])
def test_max_min_index_matches_a_linear_scan(size):
    rng = random.Random(size)
    values = [0]
    for _ in range(size - 1):
        values.append(values[-1] + rng.randrange(-3, 4))
    index = cauchy._MaxMinIndex(values)
    assert len(index.levels) == 1 + sum(size > cauchy.INDEX_BLOCK ** k for k in (1, 2, 3))
    for _ in range(150):
        start = rng.randrange(0, size + 2)
        base = values[min(start, size - 1)]
        lo, hi = base - rng.randrange(1, 40), base + rng.randrange(1, 40)
        assert index.first_outside(start, lo, hi) == \
            _brute_first_outside(values, start, lo, hi)
        a = rng.randrange(0, size)
        b = rng.randrange(a, min(size, a + rng.choice([3, 100, 5000])))
        assert index.spread(a, b) == max(values[a:b + 1]) - min(values[a:b + 1])
    assert index.visited > 0


# blocks of 3, 3 and 235 entries, and of 3, 3 and 139
LONG_DELTAS = [("1/2", "1/16", "39/16"), ("1/2", "1/16", "23/16")]


def _long_permutations(rng, end):
    """Shuffles and far swaps whose supports reach past the built series."""
    perms = [PermutationSpec.identity(),
             cauchy.parse_permutation_spec(
                 {"table": [[0, 230], [230, 0], [5, 120], [120, 200], [200, 5],
                            [60, 300], [300, 60]]})]
    for size in (end // 2, end + 40, end + 160):
        perms.append(_permutation(rng, size))
    for _ in range(2):
        far = rng.sample(range(end + 200), 6)
        perms.append(PermutationSpec.from_mapping(
            {far[k]: far[(k + 1) % 6] for k in range(6)}))
    return perms


@pytest.mark.parametrize("deltas", LONG_DELTAS, ids="-".join)
def test_window_scan_matches_the_linear_scan(deltas):
    z, _ = _series(deltas)
    rng = random.Random(z.built_end)
    for p in _long_permutations(rng, z.built_end):
        for n in (0, 2, 3, 6):
            got, want = cauchy._WindowScan(z, p, n), ref.WindowScan(z, p, n)
            assert (got.scale, got.scan_end, got.prefix, got.reach) == \
                (want.scale, want.scan_end, want.prefix, want.reach)
            for i in range(len(got.prefix)):
                assert got.first_reaching(i) == want.first_reaching(i)
            for _ in range(60):
                m = rng.randrange(0, got.scan_end + 3)
                k0 = rng.randrange(0, got.scan_end + 5)
                margin = rng.randrange(1, 2 * got.scale)
                assert got.windows_clear(m, k0, margin) == want.windows_clear(m, k0, margin)
                assert got.tail_abs(k0) == want.tail_abs(k0)
            for blocks in range(len(z.ledger.stages) + 6):
                assert got.cover_index(blocks) == ref.permutation_cover_index(z, p, blocks)


def test_scaled_entries_match_the_linear_scan_on_any_entries():
    # blocks are scaled from their first two entries only when they alternate
    z, _ = _series(LONG_DELTAS[0])
    ledger = z.ledger
    for at, delta in ((0, Q(1, 7)), (7, Q(1, 9)), (len(ledger.flat) - 2, Q(-1, 11))):
        flat = list(ledger.flat)
        flat[at] += delta
        broken = cauchy.SplitSeries(cauchy.SplitterLedger(
            ledger.x, ledger.b, ledger.stages, flat, ledger.block_start,
            ledger.last_positive_stage))
        p = _permutation(random.Random(at), 50)
        got, want = cauchy._WindowScan(broken, p, 3), ref.WindowScan(broken, p, 3)
        assert (got.scale, got.prefix) == (want.scale, want.prefix)

@pytest.mark.parametrize("deltas", LONG_DELTAS, ids="-".join)
def test_long_window_search_matches_reference(deltas):
    # against the old integer scan at every budget, and against the Fraction
    # search where the budget keeps it short
    z, f = _series(deltas)
    rng = random.Random(z.built_end + 1)
    for p in _long_permutations(rng, z.built_end):
        for n, budget in ((1, 10 ** 6), (3, 2000), (5, 10 ** 6)):
            assert _outcome(cauchy.settling_index, z, p, n, f, budget) == \
                _outcome(ref.scan_settling_index, z, p, n, f, budget)
            starts = rng.sample(range(z.built_end + 8), 3) + [10]
            for m in starts:
                for budget in (0, 45, 700, 20000, 10 ** 6):
                    assert _outcome(cauchy.classify_windows, z, p, m, n, f, budget) == \
                        _outcome(ref.scan_classify, ref.WindowScan(z, p, n), z, p, m, n,
                                 f, budget)
                # below the 45 steps of a full first round: no certificate try
                assert _outcome(cauchy.classify_windows, z, p, m, n, f, 30) == \
                    _outcome(ref.classify_windows, z, p, m, n, f, 30)


def _least_budget(z, p, m, n, f) -> int:
    """The window steps the old scan charges for (m, n): the least budget
    it completes within."""
    lo, hi = 0, 10 ** 6
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            ref.scan_classify(ref.WindowScan(z, p, n), z, p, m, n, f, mid)
            hi = mid
        except k2.Exhausted:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("deltas", SETTLE_DELTAS[:4] + LONG_DELTAS[1:], ids="-".join)
def test_budget_runs_out_at_the_same_step(deltas):
    # a witness past the first row, or a certificate after full rounds,
    # charges the steps of every row before it: one step less runs out
    z, f = _series(deltas)
    rng = random.Random(z.built_end + 2)
    perms = [PermutationSpec.identity()] + [
        _permutation(rng, rng.randrange(2, z.built_end + 30)) for _ in range(3)]
    for p in perms:
        for n in (1, 3, 5):
            for m in rng.sample(range(z.built_end + 4), 3):
                steps = _least_budget(z, p, m, n, f)
                for budget in (steps - 1, steps):
                    assert _outcome(cauchy.classify_windows, z, p, m, n, f, budget) == \
                        _outcome(ref.scan_classify, ref.WindowScan(z, p, n), z, p, m, n,
                                 f, budget)
