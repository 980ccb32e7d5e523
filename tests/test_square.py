"""The Toom-3 squaring kernel behind ``k2.cantor_pair``, against the builtin.

``a * a`` is the oracle for ``k2._square`` at every size, and a pairing
that squares with the builtin alone is the oracle for the codes that
``bar``, ``encode_seq`` and ``star`` build with the kernel.
"""

import random
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from baire import k2

CUT = k2._SQUARE_CUTOFF
# the leading values of the benchmark's stream workload, then a fixed tail
LEAD = (2, 1, 3, 1, 2, 2, 0, 3, 1, 2, 0, 3, 3, 1, 0, 2, 1, 1, 3, 0, 2, 1, 3)
DEPTH = 21


def builtin_pair(x: int, y: int) -> int:
    s = x + y
    return (s * s + s >> 1) + y


def builtin_prefix_codes(values) -> list[int]:
    """The code of every prefix of values, the empty one first."""
    codes = [0]
    for a in values:
        codes.append(builtin_pair(codes[-1], a) + 1)
    return codes


def limbs(k: int, a0: int, a1: int, a2: int) -> int:
    return a0 + (a1 << k) + (a2 << 2 * k)


@given(st.integers(min_value=0, max_value=4 * CUT), st.booleans(),
       st.randoms(use_true_random=False))
def test_square_is_the_builtin_square(bits, negative, rnd):
    a = rnd.getrandbits(bits) if bits else 0
    if negative:
        a = -a
    assert k2._square(a) == a * a


def test_square_edge_cases():
    rnd = random.Random(11)
    cases = [0, 1, -1]
    for n in (CUT - 1, CUT, CUT + 1, 3 * CUT, 3 * CUT + 1, 4 * CUT):
        cases += [(1 << n) - 1, 1 << n, 1 << n - 1, rnd.getrandbits(n) | 1 << n - 1]
    # at or above the cutoff, a top limb of k - 2 to k bits gives the
    # kernel's own split into k-bit limbs; the top limb holds the top bit,
    # so it is never zero, and "only the top limb" zeroes the other two
    k = (CUT + 2) // 3 + 1
    ones, top = (1 << k) - 1, 1 << k - 1
    cases += [
        limbs(k, ones, 0, top),                   # zero middle limb
        limbs(k, 0, ones, top),                   # zero low limb
        limbs(k, 0, 0, top),                      # only the top limb
        limbs(k, 1, top + 2, top + 1),            # the value at -1 is 0
        limbs(k, 0, ones, 1 << k - 3),            # negative values at -1, -2
    ]
    assert all((a.bit_length() + 2) // 3 == k and a.bit_length() >= CUT
               for a in cases[-5:])
    cases += [-a for a in cases]
    for a in cases:
        assert k2._square(a) == a * a, a.bit_length()


def test_codes_match_a_builtin_pairing_at_depth_21():
    codes = builtin_prefix_codes(LEAD[:DEPTH])
    g = k2.from_values(LEAD)
    assert codes[-1].bit_length() > 64 * CUT
    assert k2.bar(g, DEPTH) == codes[-1]
    assert k2.encode_seq(LEAD[:DEPTH]) == codes[-1]
    # f answers on the first code past the code of the length-20 prefix,
    # with a value read off that code, so star builds every code below 21
    seen = []

    def f(code):
        seen.append(code)
        return code % 1009 + 1 if code > codes[DEPTH - 1] else 0

    r = k2.star(k2.Oracle(f), g, DEPTH + 2)
    assert seen == codes
    assert r.value == codes[DEPTH] % 1009 and r.fired_at == DEPTH


def test_a_long_square_makes_no_builtin_square_at_or_above_the_cutoff():
    """Every call of the kernel at or above the cutoff recurses five times
    and only calls below it reach ``a * a``; the first call comes from
    ``cantor_pair``."""
    real = k2._square
    calls = []  # [bit length, nested calls] per call, in call order
    stack = []

    def recording(a):
        entry = [a.bit_length(), 0]
        if stack:
            stack[-1][1] += 1
        calls.append(entry)
        stack.append(entry)
        try:
            return real(a)
        finally:
            stack.pop()

    s = random.Random(20).getrandbits(1 << 20) | 1 << (1 << 20) - 1
    with mock.patch.object(k2, "_square", recording):
        z = k2.cantor_pair(s, 0)
    assert z == builtin_pair(s, 0)
    assert calls[0] == [1 << 20, 5]
    assert all(nested == 5 for bits, nested in calls if bits >= CUT)
    assert all(bits < CUT for bits, nested in calls if nested == 0)
    # 2^20 bits reach the cutoff after four splits into thirds
    assert sum(1 for _, nested in calls if nested == 0) == 5 ** 4
