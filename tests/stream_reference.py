"""The re-summing approximation, the random-access digit streams, the
pairing loops that build every code, and the adversary's own
shared-budget scan.

These are the versions of ``SignedDigitReal.approx``, ``k2.cantor_pair``,
``k2.star``, ``bdn._star_tank`` and ``bdn.extract_bound`` that the program
ran before ``approx`` kept a running dyadic numerator, ``cantor_pair``
squared, and exhausted scans stopped building the code of a prefix that no
query reads; bdn's ``_Tank`` and ``apply_candidate`` from before the
adversary's two scans became ``k2.star`` calls over one shared
``k2.Fuel`` (with the private ``_OutOfFuel`` that bdn raised before it
raised ``k2.Exhausted``); and ``SignedDigitReal``, ``from_estimates``,
``from_rational``, ``first_diff_real`` and ``max_star`` from before a real
produced its digits in order, when ``from_estimates`` kept its own
``Fraction`` copy of the emitted prefix and ``first_diff_real`` its own
memo of the witness.  They stay here as the oracle the fast versions are
tested against (``tests/test_stream_reference.py``).  The bodies are
unchanged; ``approx`` takes the real as an argument instead of ``self``,
``apply_candidate`` calls ``star_tank`` below where it called
``bdn._star_tank``, and a failed ``extract_bound`` raises ``k2.Exhausted``
with the message ``bdn.ExtractionFailed`` used to carry.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from baire.bdn import EvalTranscript, _SCAN_DEPTH_CAP
from baire.k2 import (Exhausted, FueledOracle, Oracle, PartialResult,
                      RecordingOracle, cons)


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


# -- the digit streams, before digits were produced in order by the real ----


class SignedDigitReal:
    """Integer part plus a memoized digit stream, digits in {-1, 0, +1}."""

    def __init__(self, integer_part: int, digit_fn: Callable[[int], int],
                 label: str = "real"):
        self.integer_part = integer_part
        self._digit_fn = digit_fn
        self._digits: dict[int, int] = {}
        self.label = label
        # the highest precision approximated so far, and its numerator
        # over 2^top
        self._top = 0
        self._top_numerator = integer_part

    def digit(self, n: int) -> int:
        if n < 1:
            raise ValueError("digits are indexed from 1")
        d = self._digits.get(n)
        if d is None:
            d = self._digit_fn(n)
            if d not in (-1, 0, 1):
                raise ValueError(f"{self.label} produced digit {d!r} at {n}")
            self._digits[n] = d
        return d

    def approx(self, k: int) -> Fraction:
        """integer part + sum of the first k digit weights; within 2^-k of
        the represented value.

        The numerator over 2^k is extended digit by digit from the highest
        precision asked for so far, so a run of nondecreasing precisions
        reads each digit once; a lower precision is rebuilt from the
        integer part."""
        if k < 0:
            raise ValueError("precision must be a natural")
        if k >= self._top:
            start, numerator = self._top, self._top_numerator
        else:
            start, numerator = 0, self.integer_part
        for n in range(start + 1, k + 1):
            numerator = 2 * numerator + self.digit(n)
        if k > self._top:
            self._top, self._top_numerator = k, numerator
        return Fraction(numerator, 1 << k)

    def digit_prefix(self, k: int) -> list[int]:
        return [self.digit(n) for n in range(1, k + 1)]

    def __repr__(self):
        return f"<SignedDigitReal {self.label}>"


def from_estimates(est: Callable[[int], Fraction], label: str = "est") -> SignedDigitReal:
    """Build a stream from a converging estimator with |value - est(k)| <= 2^-k.

    Digit p is chosen by a threshold rule from est(p + 2), preserving the
    invariant |value - emitted prefix| <= 2^-p.  The initial integer part
    is the nearest integer to est(2).
    """
    e0 = est(2)
    int_part = (2 * e0.numerator + e0.denominator) // (2 * e0.denominator)  # floor(e0 + 1/2)
    state = {"v": Fraction(int_part), "p": 0}

    def digit_fn(n: int) -> int:
        if n != state["p"] + 1:
            # digits are demanded in order by the memo layer
            raise AssertionError("digit stream advanced out of order")
        u = Fraction(1, 2 ** n)
        e = est(n + 2) - state["v"]
        if e >= Fraction(3, 4) * u:
            d = 1
        elif e <= -Fraction(3, 4) * u:
            d = -1
        else:
            d = 0
        state["v"] += d * u
        state["p"] = n
        return d

    # wrap so out-of-order demand pulls the missing prefix first
    real = SignedDigitReal(int_part, lambda n: 0, label=label)

    def ordered(n: int) -> int:
        for m in range(state["p"] + 1, n):
            real.digit(m)
        return digit_fn(n)

    real._digit_fn = ordered
    return real


def from_rational(q: Fraction, label: Optional[str] = None) -> SignedDigitReal:
    q = Fraction(q)
    return from_estimates(lambda k: q, label=label or f"rat:{q}")


def first_diff_real(witness: Callable[[int], bool], label: str = "first-diff") -> SignedDigitReal:
    """The real 2^-n for the least n with witness(n), and 0 if there is none.

    Digit m consults the witness only at 0..m, so the everywhere-no case is
    absorbed by laziness: every finite approximation is 0.
    """
    memo: dict[int, bool] = {}

    def w(n: int) -> bool:
        v = memo.get(n)
        if v is None:
            v = bool(witness(n))
            memo[n] = v
        return v

    int_part_holder: dict[str, Optional[int]] = {"v": None}

    def int_part() -> int:
        if int_part_holder["v"] is None:
            int_part_holder["v"] = 1 if w(0) else 0
        return int_part_holder["v"]

    def digit_fn(n: int) -> int:
        if w(0):
            return 0
        if w(n) and not any(w(i) for i in range(1, n)):
            return 1
        return 0

    return SignedDigitReal(int_part(), digit_fn, label=label)


def max_star(x: SignedDigitReal, y: SignedDigitReal) -> SignedDigitReal:
    """The lifting of max to streams: digit n reads digits 0..n+2 of both
    inputs, via the estimator max(approx_x(k), approx_y(k))."""
    return from_estimates(lambda k: max(x.approx(k), y.approx(k)),
                          label=f"max({x.label},{y.label})")


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


class _OutOfFuel(Exception):
    pass


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
    code = 0
    for t in range(fuel):
        v = h(code)
        if v > 0:
            return max(t, v - 1)
        code = cantor_pair(code, t) + 1
    raise Exhausted(f"name never answered on identity prefixes within {fuel}",
                    "fuel")
