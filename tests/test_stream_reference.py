"""Running numerators, in-order digit streams and pairing loops against
the code they replaced.

``tests/stream_reference.py`` keeps the re-summing ``approx``, the
random-access reals (``SignedDigitReal``, ``from_estimates`` with its own
``Fraction`` prefix, ``first_diff_real`` with its own witness memo), the
``cantor_pair`` product formula, the ``star``, ``_star_tank`` and
``extract_bound`` loops that built a code for every prefix they reached,
and the adversary's ``apply_candidate`` over its own tank.  The fast
versions (``_star_tank`` is now ``k2.star`` over a shared ``k2.Fuel`` with
bdn's depth cap) must give the same approximations, the same errors, the
same digit and witness reads, the same scan results and the same oracle
transcripts.  The counts pin down that digits are produced once each and
in order, that the digit rule stays off ``Fraction``, and that no scan
builds a code it does not query.
"""

import contextlib
import os
import random
import sys
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
    return out, list(enumerate(x._digits, 1))


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


# -- in-order digit streams against the random-access reals ---------------------


class SourceFailed(Exception):
    """A digit, estimate or witness source that gives out."""


def _produced(x):
    """The digits a real holds, as (index, digit) in the order they were read."""
    if isinstance(x, ref.SignedDigitReal):
        return list(x._digits.items())
    return list(enumerate(x._digits, 1))


def _stream_outcomes(x, precisions):
    out = []
    for k in precisions:
        try:
            out.append(("ok", x.approx(k)))
        except (ValueError, SourceFailed) as e:
            out.append(("error", type(e), str(e)))
    return out, _produced(x)


def assert_same_as_random_access(build, precisions):
    """``build(mod)`` builds a real from ``mod``: the program's ``reals`` or
    the reference's random-access streams."""
    assert _stream_outcomes(build(reals), precisions) == \
        _stream_outcomes(build(ref), precisions)


def _estimator(q):
    """An estimator of q that is off by the whole 2^-k on alternating sides."""
    return lambda k: q + Q((-1) ** k, 2 ** k)


STREAMS = {
    "rational": lambda m: m.from_rational(Q(-37, 11)),
    "estimates": lambda m: m.from_estimates(_estimator(Q(5, 7))),
    "first-diff": lambda m: m.first_diff_real(lambda n: n >= 9),
    "nested-max": lambda m: m.max_star(
        m.max_star(m.from_rational(Q(1, 3)), m.from_rational(Q(10, 31))),
        m.from_estimates(_estimator(Q(1, 3)))),
}


@pytest.mark.parametrize("order", ["rising", "falling", "zigzag"])
@pytest.mark.parametrize("stream", list(STREAMS))
def test_streams_match_the_random_access_reals(stream, order):
    assert_same_as_random_access(STREAMS[stream], ORDERS[order])


@given(rationals, rationals, st.sampled_from((-1, 0, 1)), precision_orders)
def test_streams_match_the_random_access_reals_in_any_order(a, b, sign, precisions):
    assert_same_as_random_access(lambda m: m.from_rational(a), precisions)
    assert_same_as_random_access(
        lambda m: m.max_star(m.from_rational(a),
                             m.from_estimates(_estimator(b + sign * Q(1, 3)))),
        precisions)


def _spy(mod, log, name, digits, tail):
    """A real of ``mod`` whose digit function logs (name, index)."""
    def digit_fn(n):
        log.append((name, n))
        return digits[n - 1] if n <= len(digits) else tail
    return mod.SignedDigitReal(0, digit_fn, label=name)


signed_words = st.tuples(st.lists(st.sampled_from((-1, 0, 1)), max_size=40),
                         st.sampled_from((-1, 0, 1)))


@given(signed_words, signed_words, signed_words, precision_orders)
def test_inner_digits_are_read_as_the_random_access_reals_read_them(a, b, c, precisions):
    def run(mod):
        log: list = []
        x, y, z = (_spy(mod, log, name, *w) for name, w in zip("abc", (a, b, c)))
        out = _stream_outcomes(mod.max_star(mod.max_star(x, y), z), precisions)
        return out, log
    assert run(reals) == run(ref)


@given(st.one_of(st.none(), st.integers(min_value=0, max_value=80)),
       precision_orders)
def test_first_diff_reads_the_witness_as_the_random_access_real_did(first, precisions):
    def run(mod):
        reads: list = []

        def witness(n):
            reads.append(n)
            return first is not None and n >= first
        return _stream_outcomes(mod.first_diff_real(witness), precisions), reads
    assert run(reals) == run(ref)


@contextlib.contextmanager
def random_access_dist_hats():
    """naming's distance streams built from the random-access reals."""
    with mock.patch.object(naming, "first_diff_real", ref.first_diff_real), \
            mock.patch.object(naming, "max_star", ref.max_star), \
            mock.patch.object(reals, "from_estimates", ref.from_estimates):
        yield


DIST_SPACES = {
    "cantor": naming.parse_space_spec({"kind": "cantor"}),
    "finite": naming.parse_space_spec({"kind": "finite", "n": 3}),
    "product": PRODUCT,
}
bit_words = st.tuples(st.lists(st.integers(min_value=0, max_value=1), max_size=30),
                      st.integers(min_value=0, max_value=1))


@pytest.mark.parametrize("space", list(DIST_SPACES))
@given(u=bit_words, v=bit_words, precisions=precision_orders)
def test_dist_hat_reads_names_as_the_random_access_reals_did(space, u, v, precisions):
    sp = DIST_SPACES[space]

    def name(word, tail):
        if space == "finite":
            return RecordingOracle(k2.constant(1 + (sum(word) + tail) % 3))
        return RecordingOracle(_product_name(word, tail))

    def run(reference):
        f, g = name(*u), name(*v)
        with random_access_dist_hats() if reference else contextlib.nullcontext():
            x = sp.dist_hat(f, g)
            out = _stream_outcomes(x, precisions)
        assert isinstance(x, ref.SignedDigitReal) == reference
        return out, f.transcript, g.transcript
    assert run(False) == run(True)


def _failing_digits(kind):
    def digit_fn(n):
        if n == 7:
            if kind == "raises":
                raise SourceFailed(f"no digit at {n}")
            return 2
        return (-1, 0, 1)[n % 3]
    return digit_fn


def _failing_estimator(k):
    if k >= 9:
        raise SourceFailed(f"no estimate at {k}")
    return Q(2, 7)


FAILING = {
    "digit-raises": lambda m: m.SignedDigitReal(1, _failing_digits("raises"), "bad"),
    "digit-out-of-range": lambda m: m.SignedDigitReal(1, _failing_digits("two"), "bad"),
    "estimator-raises": lambda m: m.from_estimates(_failing_estimator),
    "witness-raises": lambda m: m.first_diff_real(
        lambda n: _failing_estimator(n + 3) is None),
    "inner-raises": lambda m: m.max_star(
        m.from_rational(Q(1, 5)),
        m.SignedDigitReal(0, _failing_digits("raises"), "bad")),
}


@pytest.mark.parametrize("precisions", [
    [10, 5, 6, 3, 10, 7, 0],
    [6, 7, 6, 2, 12, 6],
    [3, 9, 4, 8, 6, 0, 9],
])
@pytest.mark.parametrize("stream", list(FAILING))
def test_failures_match_the_random_access_reals(stream, precisions):
    out, _ = _stream_outcomes(FAILING[stream](reals), precisions)
    assert any(o[0] == "error" for o in out)
    assert_same_as_random_access(FAILING[stream], precisions)


def test_digits_are_produced_in_order_once_each_and_retried_after_a_failure():
    calls = []
    failed = set()

    def digit_fn(n):
        calls.append(n)
        if n == 6 and n not in failed:
            failed.add(n)
            raise SourceFailed("once")
        return (1, 0, -1)[n % 3]

    def value(k):
        return sum(Q((1, 0, -1)[n % 3], 2 ** n) for n in range(1, k + 1))

    x = reals.SignedDigitReal(0, digit_fn)
    assert x.digit(4) == 0 and calls == [1, 2, 3, 4]
    assert x.approx(2) == value(2) and x.digit(3) == 1
    assert x.digit_prefix(4) == [0, -1, 1, 0] and calls == [1, 2, 3, 4]
    with pytest.raises(SourceFailed):
        x.approx(9)
    assert calls == [1, 2, 3, 4, 5, 6]
    assert x.approx(5) == value(5) and x.approx(3) == value(3)
    assert x.approx(9) == value(9) and x.approx(7) == value(7)
    assert calls == [1, 2, 3, 4, 5, 6, 6, 7, 8, 9]


def test_estimates_are_read_once_each_in_order():
    asked = []

    def est(k):
        asked.append(k)
        return Q(3, 11)

    x = reals.from_estimates(est)
    assert asked == [2]
    x.digit(5)
    x.approx(3)
    x.approx(7)
    assert asked == [2, 3, 4, 5, 6, 7, 8, 9]


def _fraction_calls(run, origin=os.path.dirname(reals.__file__) + os.sep):
    """Calls into ``fractions`` made straight from frames of code under
    ``origin`` (by default the package), counted with a profile hook as
    perfbench's layer trace counts them."""
    fractions_file = sys.modules["fractions"].__file__
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename == fractions_file:
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.startswith(origin):
                count += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


# measured when the digit rule moved onto integers: one Fraction per
# approximation of each input, their max, and the Fraction approx returns
MAX_APPROX_300_FRACTION_CALLS = 2701


def test_the_digit_rule_stays_off_fractions():
    m = reals.max_star(reals.from_rational(Q(1, 3)), reals.from_rational(Q(10, 31)))
    assert _fraction_calls(lambda: m.approx(300)) <= MAX_APPROX_300_FRACTION_CALLS
    slow = ref.max_star(ref.from_rational(Q(1, 3)), ref.from_rational(Q(10, 31)))
    assert _fraction_calls(lambda: slow.approx(300), ref.__file__) \
        > 3 * MAX_APPROX_300_FRACTION_CALLS
    assert m.approx(300) == slow.approx(300)


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
        return Oracle(lambda c: param + 2 if len(k2.decode_seq(c)) >= param else 0,
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
        except ref._OutOfFuel:
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
        except k2.Exhausted as e:
            return ("failed", e.to_json())
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
    with counted_pairings() as log, pytest.raises(k2.Exhausted) as e:
        bdn.extract_bound(k2.constant(0), k2.constant(0), fuel)
    assert e.value.reason == "fuel"
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
