"""Signed-digit exact reals.

A real is an integer part plus a lazy stream of digits in {-1, 0, +1},
digit n carrying weight 2^-n.  Truncation after k digits is an exact
rational within 2^-k of the represented value, which is all the rest of
the workbench ever needs: comparisons are precision-indexed, max is
lifted lazily, and no floating point appears anywhere.

Digit streams are memoized so repeated approximations are consistent
and cheap.  Streams built here obey a locality bound: digit n of a
derived stream reads at most digits 0..n+2 of its inputs.

Approximations are incremental.  A real keeps the integer numerator N of
its highest approximation so far, over 2^top, and extends it digit by
digit (N = 2N + d); approx(k) is then one Fraction N / 2^k.  Asking for
nondecreasing precisions, as from_estimates, max_star, compare_prec and
dist_hat do, reads each digit once; a lower precision is rebuilt from the
integer part in integer steps.  Only that one numerator is kept, so a
real holds O(k) bits beyond its digits.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Iterable, Optional

Rational = Fraction


def parse_rational(s) -> Fraction:
    """Parse "p/q" (or an int-like) into an exact rational."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s).strip())


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


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


class Comparison(enum.Enum):
    BELOW_GAP = "below"
    ABOVE_GAP = "above"
    WITHIN_GAP = "within"


def compare_prec(x: SignedDigitReal, q: Fraction, k: int) -> Comparison:
    """Precision-indexed comparison against a rational with a 2^-k dead zone.

    BELOW_GAP and ABOVE_GAP are sound verdicts; WITHIN_GAP means the value
    is within 2^-k of q as far as precision k+2 can tell.
    """
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
    from .k2 import SpecError

    if not isinstance(spec, dict):
        raise SpecError("real spec must be an object")
    if "rational" in spec:
        return from_rational(parse_rational(spec["rational"]))
    try:
        int_part = int(spec.get("int", 0))
        digits = [int(d) for d in spec.get("digits", [])]
    except (TypeError, ValueError) as e:
        raise SpecError(f"bad real spec: {e}")
    tail = spec.get("tail", "zero")
    tail_digit = 0
    if isinstance(tail, dict):
        if tail.get("kind") != "constant":
            raise SpecError(f"unknown real tail: {tail!r}")
        tail_digit = int(tail.get("digit", 0))
    elif tail != "zero":
        raise SpecError(f"unknown real tail: {tail!r}")
    if any(d not in (-1, 0, 1) for d in digits) or tail_digit not in (-1, 0, 1):
        raise SpecError("digits must lie in {-1, 0, 1}")
    return from_digits(int_part, digits, tail_digit, label="spec")
