"""Bound extraction from intensional domination realizers, and the
continuity adversary against extensional candidates.

The setting: a function g is dominated in the sense that some name h
answers, on a long enough prefix of any argument f, a number n with
g(f(k)) < k for all k >= n.  From such an h and the identity argument an
upper bound for g falls out; that is the extraction half.

The adversary half takes a candidate name alpha that purports to compute
a bound for g extensionally, from the dominated functional itself rather
than its name, and defeats it: run alpha on the constant-zero g with a
name of the constant-one functional, observe which finite segments were
read, and then rebuild a pair that extends those segments but whose
least bound is larger.  A deterministic alpha is forced to repeat its
first answer, which the new pair invalidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import k2
from .k2 import Oracle, RecordingOracle, TableOracle, decode_seq


# ---------------------------------------------------------------------------
# Intensional names
# ---------------------------------------------------------------------------

# An intensional name of a dominated g is an oracle h over sequence codes:
# the answer v+1 on a prefix of f means that g(f'(k)) < k for all k >= v
# and every f' extending that prefix.


def extract_bound(g: Oracle, h: Oracle, fuel: int) -> int:
    """Upper bound for g from an intensional name h: feed identity prefixes
    until the name answers v+1 at length t, then return max(t, v).  The
    bound comes from h alone: g is never read, and stays a parameter only
    because the callers pass it.  A failed extraction builds only the codes
    it queries: fuel-1 pairings, and a negative fuel scans nothing."""
    r = k2.star(h, k2.identity_oracle(), max(fuel, 0))
    if not r.is_value:
        raise k2.Exhausted(
            f"name never answered on identity prefixes within {fuel}", "fuel")
    return max(r.fired_at, r.value)


def make_valid_realizer(g: Oracle, bound: int, answer_len: int = 0,
                        horizon: int = 1000) -> Oracle:
    """An intensional name answering ``bound`` on every prefix of length at
    least ``answer_len``; valid provided g stays strictly below the bound,
    which is checked on [0, horizon] and rejected otherwise."""
    for m in range(horizon + 1):
        if g(m) >= bound:
            raise ValueError(f"g({m}) = {g(m)} >= {bound}: not a bound on the horizon")
    return k2.depth_answer(bound + 1, answer_len,
                           f"dom(bound={bound},len={answer_len})")


# ---------------------------------------------------------------------------
# The evaluation pipeline ((alpha . h) * g) with a shared budget
# ---------------------------------------------------------------------------


_SCAN_DEPTH_CAP = 20  # sequence codes grow doubly exponentially with depth


@dataclass
class EvalTranscript:
    value: Optional[int]
    fired_at: Optional[int]
    h_reads: list[tuple[int, int]]
    g_reads: list[tuple[int, int]]

    @property
    def h_segment(self) -> int:
        return max((i for i, _ in self.h_reads), default=-1) + 1

    @property
    def g_segment(self) -> int:
        return max((i for i, _ in self.g_reads), default=-1) + 1

    def to_json(self) -> dict:
        # both the raw answer (value-offset coding) and the decoded value,
        # so nothing hinges on which of the two a reader expects
        return {"value": self.value,
                "raw_answer": None if self.value is None else self.value + 1,
                "fired_at": self.fired_at,
                "h_segment": self.h_segment, "g_segment": self.g_segment}


def apply_candidate(alpha: Oracle, h: Oracle, g: Oracle, fuel: int) -> EvalTranscript:
    """Evaluate ((alpha . h) * g) under one shared budget, recording every
    read of h and of g.  Both scans are ``k2.star`` over one ``k2.Fuel``
    with prefixes of length at most ``_SCAN_DEPTH_CAP``; an exhausted inner
    scan raises ``k2.Exhausted``, which ends the evaluation."""
    h_rec = RecordingOracle(h)
    g_rec = RecordingOracle(g)
    tank = k2.Fuel(fuel)

    def inner(m: int) -> int:
        r = k2.star(alpha, k2.cons(m, h_rec), tank, _SCAN_DEPTH_CAP)
        if not r.is_value:
            raise k2.Exhausted("alpha . h ran out of fuel", "fuel")
        return r.value

    try:
        r = k2.star(Oracle(inner, label="alpha.h"), g_rec, tank, _SCAN_DEPTH_CAP)
    except k2.Exhausted:
        return EvalTranscript(None, None, h_rec.transcript, g_rec.transcript)
    return EvalTranscript(r.value, r.fired_at, h_rec.transcript, g_rec.transcript)


# ---------------------------------------------------------------------------
# The adversary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversaryReport:
    verdict: str                      # "refuted" | "malformed" | "inconclusive"
    reason: str
    k: Optional[int] = None
    a: Optional[int] = None
    transcripts: tuple[EvalTranscript, ...] = ()
    g1_spec: Optional[dict] = None
    h1_description: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "reason": self.reason, "k": self.k,
               "a": self.a,
               "transcripts": [t.to_json() for t in self.transcripts]}
        if self.g1_spec is not None:
            out["g1"] = self.g1_spec
        if self.h1_description is not None:
            out["h1"] = self.h1_description
        return out


def threshold_name(k: int) -> Oracle:
    """The name of the constant-one functional that stays silent on prefixes
    of length at most k+1."""
    return k2.depth_answer(2, k + 2, f"threshold({k})")


def adversary_pair(k: int, a: int) -> tuple[Oracle, Oracle]:
    """The replacement pair (h1, g1) after observing segments of length a.

    g1 is zero below a and sits at k+1 from a on, so its least strict upper
    bound is k+2.  h1 extends the threshold name's length-a segment and
    names the functional that answers 1 on arguments whose first k+2 values
    stay below a, and a+1 otherwise.  The plateau value k+1 keeps the
    domination hypothesis true for every argument: positions up to k+1 are
    forced below a by the answered prefix, and any later position k' maps
    into {0, k+1}, both below k' >= k+2.
    """
    g1 = TableOracle({i: 0 for i in range(a)}, k + 1, label=f"g1(a={a})")

    def h1_fn(c: int) -> int:
        s = decode_seq(c)
        if len(s) <= k + 1:
            return 0
        if all(v < a for v in s[:k + 2]):
            return 2
        return a + 2

    return Oracle(h1_fn, label=f"h1(k={k},a={a})"), g1


def functional_of_pair(k: int, a: int) -> Callable[[Oracle], int]:
    """Direct definition of the functional named by the adversary h1."""
    def f1(f: Oracle) -> int:
        return 1 if all(f(i) < a for i in range(k + 2)) else a + 1
    return f1


def check_domination_hypothesis(h1: Oracle, g1: Oracle, samples: Sequence[Oracle],
                                fuel: int, horizon: int = 60) -> bool:
    """(for every f) for every k >= the value named on f: g1(f(k)) < k."""
    for f in samples:
        r = k2.star(h1, f, fuel)
        if not r.is_value:
            return False
        for kk in range(r.value, horizon + 1):
            if not g1(f(kk)) < kk:
                return False
    return True


def adversary_refute(alpha: Oracle, fuel: int = 20000) -> AdversaryReport:
    """Defeat a candidate extensional bound computer.

    Three evaluations: the constant-two bootstrap name pins the candidate's
    value k for the constant-one functional against the zero function; the
    threshold name (silent up to length k+1) must repeat that value, since
    it names the same functional; its observed segments fix a, and the
    rebuilt pair extending them must make any deterministic candidate
    repeat k a third time, which is no bound for the new argument.  A
    differing third value with identical observed prefixes is flagged as
    malformed, since a genuine name cannot produce it.
    """
    g0 = k2.constant(0, label="g0")
    bootstrap = k2.constant(2, label="bootstrap")

    t1 = apply_candidate(alpha, bootstrap, g0, fuel)
    if t1.value is None:
        return AdversaryReport("inconclusive", "bootstrap evaluation exhausted fuel",
                               transcripts=(t1,))
    k = t1.value

    t2 = apply_candidate(alpha, threshold_name(k), g0, fuel)
    if t2.value is None:
        return AdversaryReport("inconclusive", "threshold evaluation exhausted fuel",
                               k=k, transcripts=(t1, t2))
    if t2.value != k:
        return AdversaryReport(
            "refuted",
            "value changed between two names of the same functional",
            k=k, transcripts=(t1, t2))

    a = max(t2.h_segment, t2.g_segment, k + 2)
    h1, g1 = adversary_pair(k, a)
    t3 = apply_candidate(alpha, h1, g1, fuel)
    report_common = dict(
        k=k, a=a, transcripts=(t1, t2, t3),
        g1_spec=k2.oracle_spec_json(g1),
        h1_description={"kind": "adversary_functional", "k": k, "a": a})
    if t3.value is None:
        return AdversaryReport("inconclusive", "adversary evaluation exhausted fuel",
                               **report_common)
    if t3.value == k:
        return AdversaryReport(
            "refuted",
            f"candidate repeated {k}, but the new argument attains {k + 1}",
            **report_common)
    return AdversaryReport(
        "malformed",
        "value changed although every differing read lies beyond the observed "
        "segments; a deterministic name cannot do that",
        **report_common)
