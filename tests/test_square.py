"""The squaring kernels behind ``k2.cantor_pair``, against the builtin.

``a * a`` is the oracle for ``k2._square`` at every size, Toom-3 and
Schonhage-Strassen alike, and for ``k2._ssa_square`` called on its own;
a pairing that squares with the builtin alone is the oracle for the codes
that ``bar``, ``encode_seq`` and ``star`` build with the kernels.
"""

import random
import tracemalloc
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from baire import k2

CUT = k2._SQUARE_CUTOFF
SSA_CUT = k2._SSA_CUTOFF
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
    """Every call of the Toom-3 path at or above the cutoff recurses five
    times and only calls below it reach ``a * a``; the first call comes
    from ``cantor_pair``."""
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

    s = random.Random(20).getrandbits(1 << 17) | 1 << (1 << 17) - 1
    assert CUT <= s.bit_length() < SSA_CUT
    with mock.patch.object(k2, "_square", recording):
        z = k2.cantor_pair(s, 0)
    assert z == builtin_pair(s, 0)
    assert calls[0] == [1 << 17, 5]
    assert all(nested == 5 for bits, nested in calls if bits >= CUT)
    assert all(bits < CUT for bits, nested in calls if nested == 0)
    # 2^17 bits reach the cutoff after two splits into thirds
    assert sum(1 for _, nested in calls if nested == 0) == 5 ** 2


@given(st.integers(min_value=16, max_value=1 << 14), st.booleans(),
       st.randoms(use_true_random=False))
def test_ssa_square_is_the_builtin_square(bits, negative, rnd):
    a = rnd.getrandbits(bits) | 1 << bits - 1
    if negative:
        a = -a
    assert k2._ssa_square(a) == a * a


def test_ssa_shape_gives_an_exact_convolution_at_every_size():
    """2^k whole-byte pieces cover n bits, K >= 2M + k + 1 keeps every
    coefficient below 2^K + 1, and K is the least multiple of 2^k that
    does, so w = 2^(K/2^k) is a 2^(k+1)-th root of unity."""
    for n in list(range(16, 1 << 12)) + [1 << e for e in range(12, 27)]:
        k, mb, K = k2._ssa_shape(n)
        M = 8 * mb
        assert k >= 0 and M << k >= n > M - 8 << k, n
        assert K % (1 << k) == 0 and 2 * M + k + 1 <= K < 2 * M + k + 1 + (1 << k), n


def ssa_lengths(n: int) -> tuple[int, int]:
    """The bit length that fills every piece of an n-bit square, and one more."""
    k, mb, _ = k2._ssa_shape(n)
    return 8 * mb << k, (8 * mb << k) + 1


def test_ssa_square_edge_cases():
    rnd = random.Random(17)
    cases = []
    for n in (16, 17, 100, 1000, 1 << 10, 5000, 1 << 14, SSA_CUT + 3):
        for bits in (n, *ssa_lengths(n)):
            # all ones make every coefficient of the square its largest
            cases += [(1 << bits) - 1, 1 << bits - 1,
                      rnd.getrandbits(bits) | 1 << bits - 1]
    assert ssa_lengths(1 << 10)[0] == 1 << 10
    cases += [-a for a in cases]
    for a in cases:
        assert k2._ssa_square(a) == a * a, a.bit_length()


def test_square_switches_to_ssa_at_its_cutoff():
    rnd = random.Random(18)
    real = k2._ssa_square
    for bits in (SSA_CUT - 1, SSA_CUT, SSA_CUT + 1):
        a = rnd.getrandbits(bits) | 1 << bits - 1
        for x in ((1 << bits) - 1, a, -a):
            with mock.patch.object(k2, "_ssa_square", wraps=real) as ssa:
                assert k2._square(x) == x * x, bits
            assert ssa.called == (bits >= SSA_CUT), bits


def traced_peak(fn, a) -> int:
    tracemalloc.start()
    try:
        fn(a)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ssa_square_peaks_no_higher_than_toom3():
    a = random.Random(19).getrandbits(1 << 19) | 1 << (1 << 19) - 1
    ssa = traced_peak(k2._square, a)
    with mock.patch.object(k2, "_SSA_CUTOFF", 1 << 40):
        toom3 = traced_peak(k2._square, a)
    assert ssa <= toom3, (ssa, toom3)
