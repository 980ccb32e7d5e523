import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from baire import k2
from baire.bdn import (adversary_pair, adversary_refute, apply_candidate,
                       check_domination_hypothesis, extract_bound,
                       functional_of_pair, make_valid_realizer, threshold_name)
from baire.k2 import TableOracle, constant, decode_seq


def test_extract_from_immediate_answer():
    g = constant(0)
    h = make_valid_realizer(g, 1, answer_len=0)
    n0 = extract_bound(g, h, 50)
    assert n0 == 1 and all(g(m) < n0 for m in range(100))


def test_extract_takes_max_of_answer_and_length():
    g = TableOracle({0: 5, 1: 3}, 2)
    h = make_valid_realizer(g, 6, answer_len=2)
    assert extract_bound(g, h, 50) == 6
    deep = make_valid_realizer(g, 6, answer_len=9)
    assert extract_bound(g, deep, 50) == 9


def test_extract_exhausts_on_silent_name():
    with pytest.raises(k2.Exhausted) as e:
        extract_bound(constant(0), constant(0), 12)
    assert e.value.reason == "fuel"


def test_extract_never_reads_g():
    def unread(k):
        raise AssertionError(f"g read at {k}")

    h = make_valid_realizer(constant(0), 4, answer_len=3)
    assert extract_bound(k2.Oracle(unread, label="unread"), h, 50) == 4


def test_make_valid_realizer_rejects_unbounded():
    g = k2.identity_oracle()
    with pytest.raises(ValueError):
        make_valid_realizer(g, 4, horizon=10)


def test_clamped_identity_accepts_matching_bound():
    clamped = k2.Oracle(lambda m: min(m, 3), label="id-clamped-3")
    h = make_valid_realizer(clamped, 4, answer_len=1)
    samples = [TableOracle({0: 9, 1: 2}, 0), constant(7), k2.identity_oracle()]
    assert check_domination_hypothesis(h, clamped, samples, fuel=60, horizon=50)
    assert extract_bound(clamped, h, 50) == 4


def test_realizer_validity_on_samples():
    rng = random.Random(4)
    g = TableOracle({i: rng.randrange(4) for i in range(8)}, 1)
    h = make_valid_realizer(g, 4, answer_len=1)
    samples = [TableOracle({i: rng.randrange(12) for i in range(5)}, 0)
               for _ in range(10)]
    assert check_domination_hypothesis(h, g, samples, fuel=60, horizon=50)


def test_extraction_is_sound_across_random_pairs():
    rng = random.Random(6)
    for _ in range(20):
        bound = rng.randrange(1, 10)
        g = TableOracle({i: rng.randrange(bound) for i in range(6)},
                        rng.randrange(bound))
        h = make_valid_realizer(g, bound, answer_len=rng.randrange(4))
        n0 = extract_bound(g, h, 50)
        assert all(g(m) < n0 for m in range(1000))


# --- the evaluation pipeline --------------------------------------------------


def test_pipeline_on_constant_candidate():
    t = apply_candidate(constant(3), constant(2), constant(0), 500)
    assert t.value == 1


def test_pipeline_exhaustion():
    t = apply_candidate(constant(0), constant(2), constant(0), 60)
    assert t.value is None


def test_pipeline_records_reads():
    def probe(code):
        s = decode_seq(code)
        return s[1] + 2 if len(s) >= 2 else 0
    t = apply_candidate(k2.Oracle(probe), constant(2), constant(0), 500)
    assert t.h_segment >= 1 and t.value is not None


def _candidate(p: int, depth: int, reach: int) -> k2.Oracle:
    # silent on h-prefixes shorter than depth; answers 0 for (alpha . h)
    # on argument codes shorter than reach, so the outer scan goes on
    def fn(code):
        s = decode_seq(code)
        if len(s) < depth:
            return 0
        if len(decode_seq(s[0])) < reach:
            return 1
        return 2 + (s[0] + p * sum(s)) % 3
    return k2.Oracle(fn, label=f"candidate({p},{depth},{reach})")


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=10 ** 6))
def test_apply_candidate_scans_never_query_a_name_twice_on_one_code(p, depth, reach,
                                                                     fuel, seed):
    # every scan, the outer one over alpha.h included, reads its name on
    # rising codes, so no oracle needs a memo to answer each code once
    rng = random.Random(seed)
    h = TableOracle({i: rng.randrange(5) for i in range(4)}, rng.randrange(1, 5))
    g = TableOracle({i: rng.randrange(5) for i in range(4)}, rng.randrange(5))
    scans = []
    real_star = k2.star

    def recording_star(f, g, fuel, max_depth=None):
        scans.append(k2.RecordingOracle(f))
        return real_star(scans[-1], g, fuel, max_depth)

    with mock.patch.object(k2, "star", recording_star):
        apply_candidate(_candidate(p, depth, reach), h, g, fuel)
    assert scans[0].inner.label == "alpha.h"
    for rec in scans:
        codes = [code for code, _ in rec.transcript]
        assert codes == sorted(set(codes))


# --- the adversary -------------------------------------------------------------


def test_constant_candidate_is_refuted():
    report = adversary_refute(constant(3))
    assert report.verdict == "refuted"
    assert report.k == 1 and report.a >= report.k + 2
    assert "repeated" in report.reason


def test_name_dependent_candidate_is_refuted_early():
    def h_prober(code):
        s = decode_seq(code)
        return s[1] + 2 if len(s) >= 2 else 0
    report = adversary_refute(k2.Oracle(h_prober))
    assert report.verdict == "refuted"
    assert "names of the same functional" in report.reason


def test_silent_candidate_is_inconclusive():
    report = adversary_refute(constant(0), fuel=400)
    assert report.verdict == "inconclusive"


def test_nondeterministic_candidate_is_flagged():
    # answers 2 on the first two calls (one per evaluation for this shape)
    # and 3 afterwards, so the third evaluation breaks prefix determinism
    class Unstable(k2.Oracle):
        def __init__(self):
            self.calls = 0
            super().__init__(lambda c: 0, label="unstable")

        def __call__(self, code):
            self.calls += 1
            return 2 if self.calls < 3 else 3

    report = adversary_refute(Unstable(), fuel=2000)
    assert report.verdict == "malformed"


def test_rebuilt_pair_satisfies_the_hypothesis():
    rng = random.Random(13)
    k, a = 2, 9
    h1, g1 = adversary_pair(k, a)
    samples = [TableOracle({i: rng.randrange(a + 30) for i in range(6)}, 0)
               for _ in range(40)]
    # adversarial shapes: large values right inside the dangerous window
    samples += [TableOracle({kk: a + 5}, 0) for kk in range(k + 2, a)]
    assert check_domination_hypothesis(h1, g1, samples, fuel=200)


def test_rebuilt_name_computes_its_functional():
    k, a = 1, 6
    h1, g1 = adversary_pair(k, a)
    f1 = functional_of_pair(k, a)
    cases = [constant(0), constant(a), TableOracle({2: a + 3}, 0),
             TableOracle({0: a - 1, 1: a - 1, 2: a - 1}, 0)]
    for f in cases:
        r = k2.star(h1, f, 100)
        assert r.is_value and r.value == f1(f)


def test_adversary_pair_extends_observed_prefixes():
    report = adversary_refute(constant(3))
    k, a = report.k, report.a
    h1, g1 = adversary_pair(k, a)
    thresh = threshold_name(k)
    for c in range(a):
        assert h1(c) == thresh(c)
        assert g1(c) == 0
    assert g1(a) == k + 1  # the plateau the repeated value cannot bound


def test_adversary_report_serializes():
    doc = adversary_refute(constant(3)).to_json()
    assert doc["verdict"] == "refuted"
    assert doc["g1"]["tail"]["value"] >= 1
    assert len(doc["transcripts"]) == 3


def test_refutes_all_strategy_candidates():
    from baire.acceptance import _strategy_candidates
    for alpha in _strategy_candidates():
        assert adversary_refute(alpha).verdict == "refuted", alpha.label
