"""Signed-digit exact reals.

A real is an integer part plus a lazy stream of digits in {-1, 0, +1},
digit n carrying weight 2^-n.  Truncation after k digits is an exact
rational within 2^-k of the represented value, which is all the rest of
the workbench ever needs: comparisons are precision-indexed, max is
lifted lazily, and no floating point appears anywhere.

A real produces its digits in order and keeps them: asking for digit n
first produces every missing digit below n, one call of its digit
function per index, so the digit function sees 1, 2, 3, ... and repeated
approximations are consistent and cheap.  Streams built here obey a
locality bound: digit n of a derived stream reads at most digits 0..n+2
of its inputs.

Alongside its digits a real keeps one integer, the numerator N of the
produced prefix over 2^n (n digits produced), extended digit by digit
(N = 2N + d).  approx(k) at or past the produced prefix is then one
Fraction N / 2^k; a lower precision is rebuilt from the kept digits in
integer steps.  from_estimates reads the same N: its threshold rule
compares scaled integers, so a derived stream keeps no prefix of its own.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Iterable, Optional


def parse_rational(s) -> Fraction:
    """Parse "p/q" (or an int-like) into an exact rational."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s).strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


class SignedDigitReal:
    """Integer part plus a digit stream in {-1, 0, +1}, produced in order.

    digit(n) produces the missing digits 1..n in that order, calling the
    digit function once per index and keeping each digit; a digit
    function that raises, or returns a digit out of range, leaves the
    digits below it produced and is called again at the same index on the
    next demand.  Only ever being asked in order is what lets a derived
    stream (from_estimates, first_diff_real) keep no state of its own.
    """

    def __init__(self, integer_part: int, digit_fn: Callable[[int], int],
                 label: str = "real"):
        self.integer_part = integer_part
        self._digit_fn = digit_fn
        self._digits: list[int] = []
        self.label = label
        # the numerator of the produced prefix over 2^len(self._digits)
        self._numerator = integer_part

    def digit(self, n: int) -> int:
        if n < 1:
            raise ValueError("digits are indexed from 1")
        digits = self._digits
        while len(digits) < n:
            m = len(digits) + 1
            d = self._digit_fn(m)
            if d not in (-1, 0, 1):
                raise ValueError(f"{self.label} produced digit {d!r} at {m}")
            digits.append(d)
            self._numerator = 2 * self._numerator + d
        return digits[n - 1]

    def approx(self, k: int) -> Fraction:
        """integer part + sum of the first k digit weights; within 2^-k of
        the represented value.

        At or past the produced prefix this is the running numerator over
        2^k, so a run of nondecreasing precisions reads each digit once; a
        lower precision is rebuilt from the kept digits."""
        if k < 0:
            raise ValueError("precision must be a natural")
        if k > len(self._digits):
            self.digit(k)
        if k == len(self._digits):
            return Fraction(self._numerator, 1 << k)
        numerator = self.integer_part
        for d in self._digits[:k]:
            numerator = 2 * numerator + d
        return Fraction(numerator, 1 << k)

    def digit_prefix(self, k: int) -> list[int]:
        return [self.digit(n) for n in range(1, k + 1)]

    def __repr__(self):
        return f"<SignedDigitReal {self.label}>"


def from_estimates(est: Callable[[int], Fraction], label: str = "est") -> SignedDigitReal:
    """Build a stream from a converging estimator with |value - est(k)| <= 2^-k.

    Digit n is chosen by a threshold rule from e = est(n + 2), preserving
    the invariant |value - emitted prefix| <= 2^-n: with v the value of
    the digits before n, it is +1 when e - v >= 3/4 * 2^-n, -1 when
    e - v <= -3/4 * 2^-n, and 0 otherwise.  v is the real's own numerator
    N over 2^(n-1), so the rule is the integer comparison of
    (e.numerator << (n + 2)) - 8 * N * q against +-3q, q = e.denominator.
    The initial integer part is the nearest integer to est(2).
    """
    e0 = est(2)
    int_part = (2 * e0.numerator + e0.denominator) // (2 * e0.denominator)  # floor(e0 + 1/2)

    def digit_fn(n: int) -> int:
        e = est(n + 2)
        q = e.denominator
        gap = (e.numerator << (n + 2)) - 8 * real._numerator * q
        if gap >= 3 * q:
            return 1
        if gap <= -3 * q:
            return -1
        return 0

    real = SignedDigitReal(int_part, digit_fn, label=label)
    return real


def from_rational(q: Fraction, label: Optional[str] = None) -> SignedDigitReal:
    q = Fraction(q)
    return from_estimates(lambda k: q, label=label or f"rat:{q}")


def from_digits(integer_part: int, digits: Iterable[int],
                tail_digit: int = 0, label: str = "digits") -> SignedDigitReal:
    ds = list(digits)
    if tail_digit not in (-1, 0, 1):
        raise ValueError("tail digit out of range")
    return SignedDigitReal(
        integer_part,
        lambda n: ds[n - 1] if n <= len(ds) else tail_digit,
        label=label,
    )


def first_diff_real(witness: Callable[[int], bool], label: str = "first-diff") -> SignedDigitReal:
    """The real 2^-n for the least n with witness(n), and 0 if there is none.

    The witness is read at 0 on construction and then once at each digit
    index, in order; digit m consults it only at 0..m, so the everywhere-no
    case is absorbed by laziness: every finite approximation is 0.
    """
    if witness(0):
        return SignedDigitReal(1, lambda n: 0, label=label)
    fired = False

    def digit_fn(n: int) -> int:
        nonlocal fired
        if witness(n) and not fired:
            fired = True
            return 1
        return 0

    return SignedDigitReal(0, digit_fn, label=label)


class Comparison(enum.Enum):
    BELOW_GAP = "below"
    ABOVE_GAP = "above"
    WITHIN_GAP = "within"


def compare_prec(x: SignedDigitReal, q: Fraction, k: int) -> Comparison:
    """Precision-indexed comparison against a rational with a 2^-k dead zone.

    BELOW_GAP and ABOVE_GAP are sound verdicts; WITHIN_GAP means the value
    is within 2^-k of q as far as precision k+2 can tell.
    """
    if k < 0:
        raise ValueError(f"the precision k must be a natural, got {k}")
    q = Fraction(q)
    a = x.approx(k + 2)
    pad = Fraction(1, 2 ** (k + 2))
    gap = Fraction(1, 2 ** k)
    if a + pad < q - gap:
        return Comparison.BELOW_GAP
    if a - pad > q + gap:
        return Comparison.ABOVE_GAP
    return Comparison.WITHIN_GAP


def max_star(x: SignedDigitReal, y: SignedDigitReal) -> SignedDigitReal:
    """The lifting of max to streams: digit n reads digits 0..n+2 of both
    inputs, via the estimator max(approx_x(k), approx_y(k))."""
    return from_estimates(lambda k: max(x.approx(k), y.approx(k)),
                          label=f"max({x.label},{y.label})")


def parse_real_spec(spec) -> SignedDigitReal:
    """(integer part, finite digit prefix, tail rule) documents.

    {"int": i, "digits": [d, ...], "tail": "zero" | {"kind":"constant","digit":d}}
    or {"rational": "p/q"}.
    """
    from .k2 import SpecError, spec_int

    if not isinstance(spec, dict):
        raise SpecError("real spec must be an object")
    if "rational" in spec:
        return from_rational(parse_rational(spec["rational"]))
    try:
        int_part = spec_int(spec.get("int", 0))
        digits = [spec_int(d) for d in spec.get("digits", [])]
        tail = spec.get("tail", "zero")
        tail_digit = spec_int(tail.get("digit", 0)) if isinstance(tail, dict) else 0
    except (TypeError, ValueError) as e:
        raise SpecError(f"bad real spec: {e}")
    if isinstance(tail, dict):
        if tail.get("kind") != "constant":
            raise SpecError(f"unknown real tail: {tail!r}")
    elif tail != "zero":
        raise SpecError(f"unknown real tail: {tail!r}")
    if any(d not in (-1, 0, 1) for d in digits) or tail_digit not in (-1, 0, 1):
        raise SpecError("digits must lie in {-1, 0, 1}")
    return from_digits(int_part, digits, tail_digit, label="spec")
