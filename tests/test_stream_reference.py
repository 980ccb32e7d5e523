"""Running numerators and pairing loops against the code they replaced.

``tests/stream_reference.py`` keeps the re-summing ``approx``, the
``cantor_pair`` product formula, the ``star``, ``_star_tank`` and
``extract_bound`` loops that built a code for every prefix they reached,
and the adversary's ``apply_candidate`` over its own tank.  The fast
versions (``_star_tank`` is now ``k2.star`` over a shared ``k2.Fuel`` with
bdn's depth cap) must give the same approximations, the same errors, the
same digit reads, the same scan results and the same oracle transcripts.
The pairing counts at the end pin down that no scan builds a code it does
not query.
"""

import contextlib
import random
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import stream_reference as ref
from baire import bdn, k2, naming, reals
from baire.k2 import Oracle, RecordingOracle, TableOracle, decode_seq

# -- reals ---------------------------------------------------------------------


@contextlib.contextmanager
def reference_approx():
    """Every SignedDigitReal, inner streams included, re-sums its digits."""
    with mock.patch.object(reals.SignedDigitReal, "approx", ref.approx):
        yield


def _outcomes(x, precisions):
    out = []
    for k in precisions:
        try:
            out.append(("ok", x.approx(k)))
        except ValueError as e:
            out.append(("error", type(e), str(e)))
    # the digits read, in the order they were first read
    return out, list(x._digits.items())


def assert_same_approximations(build, precisions):
    fast = _outcomes(build(), precisions)
    with reference_approx():
        slow = _outcomes(build(), precisions)
    assert fast == slow


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=97)
precision_orders = st.lists(st.integers(min_value=0, max_value=160),
                            min_size=1, max_size=10)

ORDERS = {
    "rising": [0, 1, 2, 5, 40, 41, 120],
    "falling": [120, 41, 40, 5, 2, 1, 0],
    "repeated": [30, 30, 7, 7, 30, 90, 90, 0, 0],
    "zigzag": [64, 3, 65, 2, 66, 1, 200, 100],
}


@pytest.mark.parametrize("order", list(ORDERS))
def test_approx_orders_from_rational(order):
    for q in (Q(-37, 11), Q(1, 3), Q(5, 7), Q(0), Q(-1, 2)):
        assert_same_approximations(lambda: reals.from_rational(q), ORDERS[order])


@given(rationals, precision_orders)
def test_approx_matches_resumming_from_rational(q, precisions):
    assert_same_approximations(lambda: reals.from_rational(q), precisions)


@given(st.integers(min_value=-5, max_value=5),
       st.lists(st.sampled_from((-1, 0, 1)), max_size=60),
       st.sampled_from((-1, 0, 1)), precision_orders)
def test_approx_matches_resumming_from_digits(int_part, digits, tail, precisions):
    assert_same_approximations(
        lambda: reals.from_digits(int_part, digits, tail), precisions)


@given(st.one_of(st.none(), st.integers(min_value=0, max_value=80)),
       precision_orders)
def test_approx_matches_resumming_first_diff(first, precisions):
    assert_same_approximations(
        lambda: reals.first_diff_real(lambda n: first is not None and n >= first),
        precisions)


# the re-summing side spends O(k^2) Fraction additions on each approximation
# of a maximum at precision k
@given(rationals, rationals, rationals,
       st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=6))
def test_approx_matches_resumming_nested_max(a, b, c, precisions):
    def build():
        xs = [reals.from_rational(q) for q in (a, b, c)]
        return reals.max_star(reals.max_star(xs[0], xs[1]), xs[2])
    assert_same_approximations(build, precisions)


PRODUCT = naming.parse_space_spec(
    {"kind": "product", "left": {"kind": "cantor"},
     "right": {"kind": "product", "left": {"kind": "cantor"},
               "right": {"kind": "finite", "n": 2}}})


def _product_name(word, tail):
    """A name of PRODUCT whose left and inner-left coordinates read word."""
    return TableOracle({i: b + 1 for i, b in enumerate(word)}, tail + 1)


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=30),
       st.lists(st.integers(min_value=0, max_value=1), max_size=30),
       st.integers(min_value=0, max_value=1), precision_orders)
def test_approx_matches_resumming_dist_hat(u, v, tail, precisions):
    def build():
        return PRODUCT.dist_hat(_product_name(u, tail), _product_name(v, 1))
    assert_same_approximations(build, precisions)


def test_compare_prec_and_digit_prefix_interleaved_with_approx():
    def run():
        xs = [reals.from_rational(q) for q in (Q(7, 3), Q(-2, 7), Q(26, 11))]
        m = reals.max_star(reals.max_star(xs[0], xs[1]), xs[2])
        return ([reals.compare_prec(m, Q(26, 11), k).value for k in (3, 40, 10)]
                + [m.approx(50), m.digit_prefix(60), m.approx(20), m.approx(300)])
    fast = run()
    with reference_approx():
        assert run() == fast


def _bad_stream():
    return reals.SignedDigitReal(
        1, lambda n: 2 if n == 7 else (-1, 0, 1)[n % 3], label="bad")


@pytest.mark.parametrize("precisions", [
    [10, 5, 6, 3, 10, 7, 0],
    [6, 7, 6, 2, 12, 6],
    [3, 9, 4, 8, 6],
])
def test_bad_digit_raises_the_same_error_and_lower_precisions_stay_right(precisions):
    assert_same_approximations(_bad_stream, precisions)
    x = _bad_stream()
    with pytest.raises(ValueError, match="bad produced digit 2 at 7"):
        x.approx(9)
    for k in (6, 3, 0, 6):
        want = 1 + sum(Q((-1, 0, 1)[n % 3], 2 ** n) for n in range(1, k + 1))
        assert x.approx(k) == want
    with pytest.raises(ValueError, match="bad produced digit 2 at 7"):
        x.approx(7)


def test_negative_precision_is_rejected():
    with pytest.raises(ValueError, match="precision must be a natural"):
        reals.from_rational(Q(1, 3)).approx(-1)


# -- k2 codec --------------------------------------------------------------------


def test_cantor_pair_matches_the_old_formula_on_small_ints():
    for x in range(40):
        for y in range(40):
            assert k2.cantor_pair(x, y) == ref.cantor_pair(x, y)


@given(st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=0, max_value=100_000),
       st.randoms(use_true_random=False))
def test_cantor_pair_matches_the_old_formula_on_long_ints(bits_x, bits_y, rnd):
    x, y = rnd.getrandbits(bits_x), rnd.getrandbits(bits_y)
    z = k2.cantor_pair(x, y)
    assert z == ref.cantor_pair(x, y)
    assert k2.cantor_unpair(z) == (x, y)


# -- scans -----------------------------------------------------------------------


def _name(kind: str, param: int) -> Oracle:
    """A function name over sequence codes."""
    if kind == "silent":
        return Oracle(lambda c: 0, label="silent")
    if kind == "bits":
        # answers once the code passes ``param`` bits
        return Oracle(lambda c: param + 1 if c.bit_length() > param else 0,
                      label=f"bits({param})")
    if kind == "depth":
        return Oracle(lambda c: param + 2 if k2.seq_length(c) >= param else 0,
                      label=f"depth({param})")
    return k2.parse_oracle_spec({"tail": {"kind": "registry", "name": "eval_arg"}})


names = st.tuples(st.sampled_from(("silent", "bits", "depth", "eval_arg")),
                  st.integers(min_value=0, max_value=12)).map(
    lambda t: (t[0], t[1] * 97 if t[0] == "bits" else t[1]))
arguments = st.tuples(st.lists(st.integers(min_value=0, max_value=3), max_size=16),
                      st.integers(min_value=0, max_value=3))


def _recorded(name, argument):
    table, tail = argument
    return (RecordingOracle(_name(*name)),
            RecordingOracle(TableOracle(dict(enumerate(table)), tail)))


def _run_both(fast, slow, name, argument):
    f1, g1 = _recorded(name, argument)
    f2, g2 = _recorded(name, argument)
    got, want = fast(f1, g1), slow(f2, g2)
    assert got == want
    assert f1.transcript == f2.transcript
    assert g1.transcript == g2.transcript
    return got


@given(names, arguments, st.integers(min_value=0, max_value=14))
def test_star_matches_the_pairing_loop(name, argument, fuel):
    _run_both(lambda f, g: k2.star(f, g, fuel), lambda f, g: ref.star(f, g, fuel),
              name, argument)


@given(names, arguments, st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=12))
def test_bullet_matches_the_pairing_loop(name, argument, k, fuel):
    _run_both(lambda f, g: k2.bullet(f, g).query(k, fuel),
              lambda f, g: ref.bullet(f, g).query(k, fuel), name, argument)


def _fuel_scan(budget):
    """bdn's scan: star over a shared fuel with the adversary's depth cap,
    in the reference's (value, fired_at) / "out of fuel" shape."""
    def run(f, g):
        fuel = k2.Fuel(budget)
        r = k2.star(f, g, fuel, bdn._SCAN_DEPTH_CAP)
        out = (r.value, r.fired_at) if r.is_value else "out of fuel"
        return out, fuel.left
    return run


def _tank_scan(budget):
    def run(f, g):
        tank = ref._Tank(budget)
        try:
            out = ref.star_tank(f, g, tank)
        except bdn._OutOfFuel:
            out = "out of fuel"
        return out, tank.left
    return run


@given(names, arguments, st.integers(min_value=0, max_value=26))
def test_star_tank_matches_the_pairing_loop(name, argument, budget):
    _run_both(_fuel_scan(budget), _tank_scan(budget), name, argument)


@pytest.mark.parametrize("budget,want", [
    (0, ("out of fuel", 0)),            # no round at all
    (5, ("out of fuel", 0)),            # the tank runs dry
    (21, ("out of fuel", 0)),           # the tank runs dry at the depth cap
    (22, ("out of fuel", 0)),           # the cap stops the scan after a draw
    (30, ("out of fuel", 8)),
])
def test_star_tank_exits_match_the_pairing_loop(budget, want):
    # a silent name on a constant-zero argument: codes stay small to depth 21
    got = _run_both(_fuel_scan(budget), _tank_scan(budget), ("silent", 0), ((), 0))
    assert got == want


def _extract(scan, fuel):
    def run(h, g):
        try:
            return scan(g, h, fuel)
        except bdn.ExtractionFailed as e:
            return ("failed", str(e))
    return run


@given(names, arguments, st.integers(min_value=-2, max_value=16))
def test_extract_bound_matches_the_pairing_loop(name, argument, fuel):
    _run_both(_extract(bdn.extract_bound, fuel), _extract(ref.extract_bound, fuel),
              name, argument)


def _candidate(kind: str, p: int) -> Oracle:
    """Deterministic candidate bound computers over (value, argument) codes."""
    def fn(code):
        s = decode_seq(code)
        if kind == "const":
            return p
        if kind == "parrot":
            return s[0] + p if s else 0
        if kind == "h_prober":
            return s[1] + p if len(s) >= 2 else 0
        if kind == "g_reader":
            if s and len(decode_seq(s[0])) >= 2:
                return max(decode_seq(s[0])) + 2
            return 1 if len(s) >= p + 4 else 0
        return (s[1] + s[2]) % (p + 3) + 2 if len(s) >= 4 else 0
    return Oracle(fn, label=f"{kind}({p})")


def _transcripts(report):
    return [(t.value, t.fired_at, t.h_reads, t.g_reads) for t in report.transcripts]


CANDIDATES = [(kind, p) for kind in ("const", "parrot", "h_prober", "g_reader", "mixer")
              for p in (2, 5)] + [("const", 0), ("const", 1)]


@pytest.mark.parametrize("kind,p", CANDIDATES)
@pytest.mark.parametrize("fuel", [3, 12, 60, 20000])
def test_adversary_matches_the_pairing_loop(kind, p, fuel):
    alpha = RecordingOracle(_candidate(kind, p))
    fast = bdn.adversary_refute(alpha, fuel)
    slow_alpha = RecordingOracle(_candidate(kind, p))
    with mock.patch.object(bdn, "apply_candidate", ref.apply_candidate):
        slow = bdn.adversary_refute(slow_alpha, fuel)
    assert fast.to_json() == slow.to_json()
    assert _transcripts(fast) == _transcripts(slow)
    assert fast.diverging_reads == slow.diverging_reads
    assert alpha.transcript == slow_alpha.transcript


# -- pairing counts --------------------------------------------------------------


@contextlib.contextmanager
def counted_pairings():
    """Count every pairing made through k2; ``built`` holds the code of each
    prefix a pairing extended to."""
    log = {"built": []}
    real = k2.cantor_pair

    def counting(x, y):
        z = real(x, y)
        log["built"].append(z + 1)
        return z

    with mock.patch.object(k2, "cantor_pair", counting):
        yield log


@pytest.mark.parametrize("fuel", range(0, 12))
def test_exhausted_star_pairs_one_prefix_fewer_than_its_fuel(fuel):
    g = RecordingOracle(k2.identity_oracle())
    with counted_pairings() as log:
        r = k2.star(k2.constant(0), g, fuel)
    assert not r.is_value and r.spent == fuel
    assert len(log["built"]) == max(fuel - 1, 0)
    # g is still read at every index below the fuel
    assert [k for k, _ in g.transcript] == list(range(fuel))


@pytest.mark.parametrize("fuel", range(0, 12))
def test_failed_extraction_pairs_one_prefix_fewer_than_its_fuel(fuel):
    with counted_pairings() as log, pytest.raises(bdn.ExtractionFailed):
        bdn.extract_bound(k2.constant(0), k2.constant(0), fuel)
    assert len(log["built"]) == max(fuel - 1, 0)


def _queried_codes(queried):
    """``k2.star`` with every code its name is queried on collected."""
    scan = k2.star

    def spy(f, g, fuel, max_depth=None):
        return scan(lambda c: (queried.add(c), f(c))[1], g, fuel, max_depth)
    return spy


@pytest.mark.parametrize("budget", [0, 1, 4, 21, 22, 40])
def test_star_tank_queries_every_code_it_builds(budget):
    queried: set = set()
    with counted_pairings() as log:
        r = _queried_codes(queried)(
            lambda c: 0, k2.constant(1), k2.Fuel(budget), bdn._SCAN_DEPTH_CAP)
    assert not r.is_value
    assert set(log["built"]) <= queried
    assert len(log["built"]) == max(len(queried) - 1, 0)


@pytest.mark.parametrize("kind,p", [("const", 0), ("mixer", 2), ("g_reader", 5)])
@pytest.mark.parametrize("fuel", [3, 12, 60, 20000])
def test_adversary_queries_every_code_it_builds(kind, p, fuel):
    queried: set = set()
    spy = _queried_codes(queried)
    with counted_pairings() as log, mock.patch.object(k2, "star", spy):
        bdn.adversary_refute(_candidate(kind, p), fuel)
    assert set(log["built"]) <= queried


def test_random_scans_build_only_queried_codes():
    rng = random.Random(5)
    for _ in range(40):
        name = (rng.choice(("silent", "bits", "depth")), rng.randrange(8))
        table = [rng.randrange(4) for _ in range(rng.randrange(12))]
        f, g = _recorded(name, (table, rng.randrange(4)))
        with counted_pairings() as log:
            k2.star(f, g, rng.randrange(14))
        assert set(log["built"]) <= {c for c, _ in f.transcript}
