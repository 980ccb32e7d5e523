"""The re-summing approximation, the pairing loops that build every code,
and the adversary's own shared-budget scan.

These are the versions of ``SignedDigitReal.approx``, ``k2.cantor_pair``,
``k2.star``, ``bdn._star_tank`` and ``bdn.extract_bound`` that the program
ran before ``approx`` kept a running dyadic numerator, ``cantor_pair``
squared, and exhausted scans stopped building the code of a prefix that no
query reads; and bdn's ``_Tank`` and ``apply_candidate`` from before the
adversary's two scans became ``k2.star`` calls over one shared
``k2.Fuel``.  They stay here as the oracle the fast versions are tested
against (``tests/test_stream_reference.py``).  The bodies are unchanged;
``approx`` takes the real as an argument instead of ``self``, and
``apply_candidate`` calls ``star_tank`` below where it called
``bdn._star_tank``.
"""

from __future__ import annotations

from fractions import Fraction

from baire.bdn import (EvalTranscript, ExtractionFailed, IntensionalName,
                       _OutOfFuel, _SCAN_DEPTH_CAP)
from baire.k2 import FueledOracle, Oracle, PartialResult, RecordingOracle, cons


def approx(self, k: int) -> Fraction:
    """integer part + sum of the first k digit weights; within 2^-k of
    the represented value."""
    if k < 0:
        raise ValueError("precision must be a natural")
    total = Fraction(self.integer_part)
    for n in range(1, k + 1):
        d = self.digit(n)
        if d:
            total += Fraction(d, 2 ** n)
    return total


def cantor_pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def star(f, g, fuel: int) -> PartialResult:
    """Apply a function name to an argument: f(prefix-code of g) - 1 at the
    least prefix length where f answers positively, scanning lengths < fuel."""
    if fuel < 0:
        raise ValueError("fuel must be a natural")
    code = 0
    for n in range(fuel):
        v = f(code)
        if v > 0:
            return PartialResult.of(v - 1, spent=n + 1, fired_at=n)
        code = cantor_pair(code, g(n)) + 1
    return PartialResult.exhausted(fuel)


def bullet(f, g) -> FueledOracle:
    """Partial application f applied to g index by index:
    query(k, fuel) = star(f, cons(k, g), fuel)."""
    return FueledOracle(lambda k, fuel: star(f, cons(k, g), fuel),
                        label=f"({f.label} . {g.label})")


class _Tank:
    def __init__(self, budget: int):
        self.left = budget

    def draw(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        return True


def star_tank(f, g, tank) -> tuple[int, int]:
    """star with a shared budget; returns (value, fired_at)."""
    code = 0
    n = 0
    while True:
        if not tank.draw() or n > _SCAN_DEPTH_CAP:
            raise _OutOfFuel
        v = f(code)
        if v > 0:
            return v - 1, n
        code = cantor_pair(code, g(n)) + 1
        n += 1


def apply_candidate(alpha: Oracle, h: Oracle, g: Oracle, fuel: int) -> EvalTranscript:
    """Evaluate ((alpha . h) * g) under one shared budget, recording every
    read of h and of g."""
    h_rec = RecordingOracle(h)
    g_rec = RecordingOracle(g)
    tank = _Tank(fuel)

    def inner(m: int) -> int:
        value, _ = star_tank(alpha, cons(m, h_rec), tank)
        return value

    try:
        value, fired = star_tank(Oracle(inner, label="alpha.h"), g_rec, tank)
    except _OutOfFuel:
        return EvalTranscript(None, None, h_rec.transcript, g_rec.transcript)
    return EvalTranscript(value, fired, h_rec.transcript, g_rec.transcript)


def extract_bound(g, h, fuel: int) -> int:
    """Upper bound for g from an intensional name: feed identity prefixes
    until the name answers v+1 at length t, then return max(t, v)."""
    oracle = h.h if isinstance(h, IntensionalName) else h
    code = 0
    for t in range(fuel):
        v = oracle(code)
        if v > 0:
            return max(t, v - 1)
        code = cantor_pair(code, t) + 1
    raise ExtractionFailed(fuel)
