from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from baire import reals
from baire.k2 import SpecError
from baire.reals import (Comparison, compare_prec, first_diff_real, from_digits,
                         from_rational, max_star)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)


def test_zero_is_all_zero_digits():
    x = from_rational(Fraction(0))
    assert x.integer_part == 0
    assert x.digit_prefix(10) == [0] * 10


def test_half_has_constant_approximants():
    x = from_rational(Fraction(1, 2))
    for k in range(1, 12):
        assert x.approx(k) == Fraction(1, 2)


def test_third_approximates():
    x = from_rational(Fraction(1, 3))
    assert abs(x.approx(10) - Fraction(1, 3)) <= Fraction(1, 2 ** 10)


@given(rationals, st.integers(min_value=0, max_value=30))
def test_from_rational_contract(q, k):
    assert abs(from_rational(q).approx(k) - q) <= Fraction(1, 2 ** k)


@given(rationals, st.integers(min_value=0, max_value=20),
       st.integers(min_value=0, max_value=10))
def test_approximants_nest(q, k, j):
    x = from_rational(q)
    assert abs(x.approx(k) - x.approx(k + j)) <= Fraction(1, 2 ** k)


def test_truncation_of_all_ones():
    x = from_digits(0, [1, 1, 1], tail_digit=1)
    assert x.approx(3) == Fraction(7, 8)


def test_precision_zero_is_integer_part():
    assert from_digits(4, [1, -1]).approx(0) == 4


def test_alternating_stream_approaches_third():
    x = from_digits(0, [], tail_digit=0)
    x = reals.SignedDigitReal(0, lambda n: 1 if n % 2 == 1 else -1)
    assert abs(x.approx(8) - Fraction(1, 3)) <= Fraction(1, 2 ** 8)


def test_bad_digit_rejected():
    x = reals.SignedDigitReal(0, lambda n: 2)
    with pytest.raises(ValueError):
        x.approx(1)


# --- comparison ----------------------------------------------------------

def test_compare_below():
    assert compare_prec(from_rational(Fraction(0)), Fraction(1), 1) \
        is Comparison.BELOW_GAP


def test_compare_equality_is_within():
    x = from_rational(Fraction(1, 2))
    for k in (0, 2, 5, 9):
        assert compare_prec(x, Fraction(1, 2), k) is Comparison.WITHIN_GAP


def test_compare_above():
    one = from_digits(0, [], tail_digit=1)  # sums to 1
    assert compare_prec(one, Fraction(3, 4), 4) is Comparison.ABOVE_GAP


@given(rationals, rationals, st.integers(min_value=0, max_value=12))
def test_compare_never_lies_by_more_than_gap(q, target, k):
    verdict = compare_prec(from_rational(q), target, k)
    gap = Fraction(1, 2 ** k)
    if verdict is Comparison.BELOW_GAP:
        assert q < target
    elif verdict is Comparison.ABOVE_GAP:
        assert q > target
    else:
        assert abs(q - target) <= gap + Fraction(1, 2 ** (k + 1))


# --- max lifting ----------------------------------------------------------

def test_max_with_self_is_self_at_every_precision():
    x = from_rational(Fraction(5, 7))
    m = max_star(x, x)
    for k in (1, 4, 9):
        assert abs(m.approx(k) - x.approx(k)) <= Fraction(1, 2 ** k) * 2


def test_max_zero_one():
    m = max_star(from_rational(Fraction(0)), from_rational(Fraction(1)))
    assert abs(m.approx(5) - 1) <= Fraction(1, 2 ** 5)


@given(rationals, rationals)
def test_max_matches_rational_oracle(p, q):
    m = max_star(from_rational(p), from_rational(q))
    assert abs(m.approx(10) - max(p, q)) <= Fraction(1, 2 ** 10)


@pytest.mark.parametrize("k", [1, 4, 9, 15, 20])
def test_max_on_adversarially_close_inputs(k):
    p = Fraction(1, 3)
    for q in (p, p + Fraction(1, 2 ** k), p - Fraction(1, 2 ** k)):
        m = max_star(from_rational(p), from_rational(q))
        assert abs(m.approx(25) - max(p, q)) <= Fraction(1, 2 ** 25)


def test_max_locality_two_digit_lookahead():
    reads = []

    class Spy(reals.SignedDigitReal):
        def digit(self, n):
            reads.append(n)
            return super().digit(n)

    x = Spy(0, lambda n: 1 if n % 3 else -1)
    y = Spy(0, lambda n: -1 if n % 2 else 0)
    m = max_star(x, y)
    m.digit(4)
    assert max(reads) <= 4 + 2


# --- first difference ----------------------------------------------------

def test_first_diff_immediate():
    x = first_diff_real(lambda n: True)
    assert x.integer_part == 1
    assert x.approx(6) == 1


def test_first_diff_never():
    x = first_diff_real(lambda n: False)
    for k in (1, 5, 20):
        assert abs(x.approx(k)) <= Fraction(1, 2 ** k)
        assert x.approx(k) == 0


def test_first_diff_at_three():
    x = first_diff_real(lambda n: n >= 3)
    assert x.approx(10) == Fraction(1, 8)


def test_first_diff_emits_zeros_before_witness():
    x = first_diff_real(lambda n: n >= 5)
    assert x.digit_prefix(4) == [0, 0, 0, 0]


def test_first_diff_laziness():
    asked = []

    def witness(n):
        asked.append(n)
        return False

    x = first_diff_real(witness)
    x.approx(6)
    assert max(asked) <= 6


class WitnessHorizon(Exception):
    pass


def test_horizon_error_propagates_through_streams():
    def capped(n):
        if n >= 5:
            raise WitnessHorizon(f"witness read at {n}")
        return False

    x = first_diff_real(capped)
    assert x.approx(4) == 0
    with pytest.raises(WitnessHorizon):
        x.approx(9)


# --- serialization --------------------------------------------------------

def test_rational_strings():
    assert reals.parse_rational("3/4") == Fraction(3, 4)
    assert reals.format_rational(Fraction(-2, 6)) == "-1/3"
    assert reals.format_rational(Fraction(5)) == "5"


def test_real_spec_parsing():
    x = reals.parse_real_spec({"int": 1, "digits": [-1], "tail": "zero"})
    assert x.approx(4) == Fraction(1, 2)
    y = reals.parse_real_spec({"rational": "1/3"})
    assert abs(y.approx(8) - Fraction(1, 3)) <= Fraction(1, 2 ** 8)
    with pytest.raises(Exception):
        reals.parse_real_spec({"digits": [5]})


def test_real_spec_with_a_malformed_tail_digit_is_a_spec_error():
    with pytest.raises(SpecError, match="bad real spec"):
        reals.parse_real_spec({"tail": {"kind": "constant", "digit": [1]}})
