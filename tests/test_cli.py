import json
import math
import pathlib
import sys
from fractions import Fraction

import pytest

from baire import acceptance, cli, k2, naming
from golden_cases import CASES, EXIT_CODES, GOLDEN


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_splitter_hand_trace(capsys):
    code, doc, _ = run_cli(
        capsys, "splitter", "run",
        "--x", '{"prefix":["1"],"tail":{"kind":"zero"}}',
        "--b", "dyadic", "--stages", "1", "--verify")
    assert code == 0
    assert doc["schema_version"] == "1"
    stage = doc["result"]["stages"][0]
    assert stage["k"] == 5
    assert stage["y"] == ["1/5", "-1/5", "1/5", "-1/5", "1/5"]
    assert doc["verification"]["ok"] is True


def test_antispecker_all_star_demo(capsys):
    code, doc, _ = run_cli(
        capsys, "antispecker", "demo", "--space", '{"kind":"cantor"}',
        "--sequence", "all-star")
    assert code == 0
    assert doc["result"]["value"] == 0
    assert doc["result"]["certificate"] == [{"sigma": [], "n": 0}]


def test_k2_star_exhaustion_is_exit_three(capsys):
    code, doc, _ = run_cli(capsys, "k2", "star", "--f", "const:0",
                           "--g", "const:0", "--fuel", "10")
    assert code == 3
    assert doc["result"]["kind"] == "exhausted"


def test_k2_codec_commands(capsys):
    code, doc, _ = run_cli(capsys, "k2", "encode", "--seq", "5")
    assert code == 0 and doc["result"]["code"] == 21
    code, doc, _ = run_cli(capsys, "k2", "decode", "--code", "21")
    assert code == 0 and doc["result"]["seq"] == [5]


def test_k2_star_with_tracking(capsys):
    code, doc, _ = run_cli(
        capsys, "k2", "star",
        "--f", '{"tail":{"kind":"registry","name":"depth_answer",'
               '"params":{"depth":2,"n":0,"m":1}}}',
        "--g", "identity", "--fuel", "8", "--track")
    assert code == 0
    assert doc["result"]["fired_at"] == 2
    assert doc["usage"]["g_max"] == 1


def test_reals_commands(capsys):
    code, doc, _ = run_cli(capsys, "reals", "from-rational", "--q", "1/3",
                           "--prec", "10")
    assert code == 0
    code, doc, _ = run_cli(capsys, "reals", "approx",
                           "--x", '{"int":0,"digits":[1,1,1],"tail":"zero"}',
                           "--prec", "3")
    assert doc["result"]["approx"] == "7/8"
    code, doc, _ = run_cli(capsys, "reals", "compare",
                           "--x", '{"rational":"0"}', "--q", "1", "--prec", "1")
    assert doc["result"]["comparison"] == "below"
    code, doc, _ = run_cli(capsys, "reals", "max", "--x", '{"rational":"0"}',
                           "--y", '{"rational":"1"}', "--prec", "5")
    assert doc["result"]["approx"] == "1"


def test_spaces_commands(capsys):
    code, doc, _ = run_cli(
        capsys, "spaces", "dist", "--space", '{"kind":"cantor"}',
        "--f", '{"table":[[0,1]],"tail":{"kind":"constant","value":2}}',
        "--g", "const:1", "--prec", "8")
    assert code == 0
    assert doc["result"]["dist"] == "1/2"
    assert doc["result"]["dist_stream_approx"] == "1/2"
    code, doc, _ = run_cli(capsys, "spaces", "check",
                           "--space", '{"kind":"finite","n":3}',
                           "--name", "const:4")
    assert doc["result"]["in_domain"] is False
    code, doc, _ = run_cli(capsys, "spaces", "check",
                           "--space", '{"kind":"cantor","swapped":true}',
                           "--name", '{"table":[[0,2]],"tail":{"kind":"constant","value":1}}')
    assert code == 0 and doc["result"]["in_domain"] is True


def test_antispecker_probe(capsys):
    code, doc, _ = run_cli(capsys, "antispecker", "probe",
                           "--space", '{"kind":"finite","n":2}',
                           "--budget", "60")
    assert code == 0
    assert doc["result"]["members"]
    assert doc["result"]["exhausted"] is True


def test_antispecker_covers(capsys):
    theta = '[{"sigma":[[0,1]],"n":1},{"sigma":[[0,2]],"n":1}]'
    code, doc, _ = run_cli(capsys, "antispecker", "covers",
                           "--space", '{"kind":"cantor"}', "--theta", theta)
    assert code == 0 and doc["result"]["covered"] is True


def test_rpt_commands(capsys):
    a = '{"prefix":["1"],"tail":{"kind":"constant","value":"1"}}'
    code, doc, _ = run_cli(capsys, "rpt", "fabar", "--a", a, "--n", "3")
    assert code == 0 and doc["result"]["settling_index"] == 5
    code, doc, _ = run_cli(capsys, "rpt", "decide", "--a", a, "--n", "3",
                           "--m", "4")
    assert doc["result"]["case"] == "window"
    assert (doc["result"]["i"], doc["result"]["j"]) == (4, 4)


def test_pc_command(capsys):
    code, doc, _ = run_cli(
        capsys, "pc", "realize",
        "--x", '{"prefix":[],"tail":{"kind":"geometric","base":"1","ratio":"1/2"}}',
        "--f", '{"tail":{"kind":"registry","name":"identity"}}',
        "--g", "identity", "--n", "4")
    assert code == 0 and doc["result"]["index"] == 0


def test_bdn_commands(capsys):
    code, doc, _ = run_cli(
        capsys, "bdn", "extract", "--g", "const:0",
        "--h", '{"tail":{"kind":"constant","value":2}}', "--fuel", "20")
    assert code == 0 and doc["result"]["bound"] == 1
    code, doc, _ = run_cli(capsys, "bdn", "adversary", "--alpha", "const:3",
                           "--fuel", "4000")
    assert code == 0 and doc["result"]["verdict"] == "refuted"
    code, doc, _ = run_cli(capsys, "bdn", "adversary", "--alpha", "const:0",
                           "--fuel", "300")
    assert code == 3 and doc["result"]["verdict"] == "inconclusive"


def test_outputs_are_byte_identical(capsys):
    argv = ["splitter", "run", "--x", '{"prefix":["1"],"tail":{"kind":"zero"}}',
            "--b", "dyadic", "--stages", "2", "--verify"]
    cli.run(argv)
    first = capsys.readouterr().out
    cli.run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_validation_failures_are_exit_two(capsys):
    code, _, err = run_cli(capsys, "splitter", "run", "--x", '{"prefix":["-1"]}',
                           "--b", "dyadic", "--stages", "1")
    assert code == 2 and "error" in err
    code, _, _ = run_cli(capsys, "k2", "star", "--f", "nope:1", "--g", "const:0")
    assert code == 2
    code, _, _ = run_cli(capsys, "k2", "star", "--frobnicate", "1")
    assert code == 2


@pytest.mark.parametrize("argv,unknown", [
    # a prefix of --name, a missing option of this group
    (["spaces", "check", "--space", '{"kind":"cantor"}', "--n", "5"], "--n 5"),
    # a prefix of --fuel
    (["k2", "star", "--f", "const:0", "--g", "const:1", "--fu", "3"], "--fu 3"),
    # a prefix of --help, before a group
    (["--he", "selftest"], "--he"),
], ids=["spaces-check-n", "k2-star-fu", "top-he"])
def test_abbreviated_options_are_unknown(capsys, argv, unknown):
    code, doc, err = run_cli(capsys, *argv)
    assert (code, doc) == (2, None)
    assert err == f"error: unrecognized arguments: {unknown}\n"


def test_missing_modulus_oracle_rejected(capsys):
    code, _, err = run_cli(capsys, "pc", "realize", "--x", '{"prefix":["1"]}',
                           "--f", "identity", "--g", "const:0", "--n", "1")
    assert code == 2  # g below the identity


def test_k2_bar_past_the_digit_limit_is_refused(capsys):
    for n in (15, 16, 17):
        code, doc, _ = run_cli(capsys, "k2", "bar", "--f", "const:1",
                               "--n", str(n))
        assert code == 3
        assert doc["schema_version"] == "1"
        assert doc["result"]["reason"] == "depth"
        assert doc["result"]["code_bits"] == k2.bar(k2.constant(1), n).bit_length()
    code, doc, _ = run_cli(capsys, "k2", "bar", "--f", "const:1", "--n", "14")
    assert code == 0 and doc["result"]["code"] == k2.bar(k2.constant(1), 14)


def test_run_holds_its_digit_limit_and_restores_the_callers(capsys):
    held = sys.get_int_max_str_digits()
    try:
        for setting in (0, 640, cli.DIGIT_LIMIT + 1):
            sys.set_int_max_str_digits(setting)
            code, doc, _ = run_cli(capsys, "k2", "bar", "--f", "const:1", "--n", "15")
            assert code == 3 and doc["result"]["reason"] == "depth"
            code, doc, _ = run_cli(capsys, "reals", "from-rational", "--q", "1/3",
                                   "--prec", "3000")
            assert code == 0 and len(doc["result"]["digits"]) == 3000
            assert sys.get_int_max_str_digits() == setting
    finally:
        sys.set_int_max_str_digits(held)


def test_k2_encode_past_the_digit_limit_is_refused(capsys):
    for length in (16, 18):
        seq = [1] * length
        code, doc, _ = run_cli(capsys, "k2", "encode",
                               "--seq", ",".join(map(str, seq)))
        assert code == 3
        assert doc["result"]["reason"] == "depth"
        assert doc["result"]["code_bits"] == k2.encode_seq(seq).bit_length()
    code, doc, _ = run_cli(capsys, "k2", "encode", "--seq", "1,1,1,1,1,1,1,1,1,1")
    assert code == 0 and doc["result"]["code"] == k2.encode_seq([1] * 10)


def _least_entry(target: int) -> int:
    """The least x whose one-entry code, (x + 1)(x + 2) / 2, is at least
    ``target``."""
    x = max(math.isqrt(2 * target) - 2, 0)
    while k2.encode_seq([x]) < target:
        x += 1
    return x


_AT_LIMIT = _least_entry(10 ** cli.DIGIT_LIMIT)


@pytest.mark.parametrize("seq,bits", [
    ([_least_entry(1 << 14283)], 14284),
    ([_AT_LIMIT - 1], 14285),  # the last code under 10^4300
    ([_AT_LIMIT], 14285),
    ([_least_entry(1 << 14285)], 14286),
    # codes within 2^-7000 of 2^14301, whose sizes code_size leaves undecided
    ([5, (1 << 7151) - 1 - k2.encode_seq([5])], 14302),
    ([5, (1 << 7151) - 2 - k2.encode_seq([5])], 14301),
])
def test_codes_at_the_digit_limit_exit_as_the_value_check_says(capsys, seq, bits):
    value = k2.encode_seq(seq)
    assert value.bit_length() == bits
    want = cli._emit({"result": {"code": value}}, cli.EXIT_OK), capsys.readouterr().out
    code = cli.run(["k2", "encode", "--seq", ",".join(map(str, seq))])
    assert (code, capsys.readouterr().out) == want
    assert want[0] == (cli.EXIT_OK if value < 10 ** cli.DIGIT_LIMIT else cli.EXIT_EXHAUSTED)


@pytest.mark.parametrize("argv", [
    ["k2", "bar", "--f", "const:1", "--n", "40"],
    ["k2", "encode", "--seq", ",".join(map(str, range(1, 31)))]])
def test_a_code_refused_from_its_size_squares_nothing_long(capsys, monkeypatch, argv):
    squared, transformed = [], []
    square = k2._square
    monkeypatch.setattr(k2, "_square", lambda a: squared.append(a.bit_length()) or square(a))
    monkeypatch.setattr(k2, "_ssa_square", lambda a: transformed.append(a) or a * a)
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 3 and set(doc["result"]) == {"error", "reason", "code_bits"}
    assert squared and max(squared) <= k2._SIZE_PRECISION
    assert transformed == []


@pytest.mark.parametrize("name", ["k2-bar-past-digit-limit", "k2-encode-past-digit-limit",
                                  "readme-k2-encode", "k2-bar-table"])
def test_an_undecided_code_size_builds_the_code(capsys, monkeypatch, name):
    # bounds one bit apart: the code is built, and printed or refused by the
    # value check, as it was before sizes were known
    size = k2.code_size
    monkeypatch.setattr(k2, "code_size", lambda seq: (size(seq)[0] - 1, size(seq)[1]))
    assert cli.run(CASES[name]) == json.loads(EXIT_CODES.read_text())[name]
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("n", [200, 20000])
def test_a_code_whose_size_is_undecided_past_any_memory_is_refused_with_a_bound(capsys, n):
    # each entry 1 takes a code of b bits to one of 2b - 2 to 2b bits, and
    # the code of (1, 1, 1) has 7: from there the code of n ones has at
    # least 2^(n - 1) and fewer than 2^n bits
    code, doc, _ = run_cli(capsys, "k2", "bar", "--f", "const:1", "--n", str(n))
    assert code == 3 and doc["result"] == {
        "error": "code has more than 4300 decimal digits", "reason": "depth",
        "code_bits_log2_min": n - 1}


def test_k2_star_tracking_a_code_past_the_digit_limit_is_refused(capsys):
    # f_max is the code of a 16-element prefix of g
    code, doc, _ = run_cli(capsys, "k2", "star", "--f", "const:0", "--g", "const:1",
                           "--fuel", "17", "--track")
    assert code == 3
    assert doc["result"]["reason"] == "depth"
    assert doc["result"]["code_bits"] == k2.encode_seq([1] * 16).bit_length()
    code, doc, _ = run_cli(capsys, "k2", "star", "--f", "const:0", "--g", "const:1",
                           "--fuel", "15", "--track")
    assert code == 3 and doc["usage"]["f_max"] == k2.encode_seq([1] * 14)


def test_emit_refuses_the_first_over_limit_int_anywhere(capsys):
    big, bigger = 10 ** 5000, -(10 ** 6000)
    doc = {"result": {"small": [1, 2], "deep": [{"x": (3, big)}, bigger]}}
    assert cli._emit(doc, 0) == 3
    out = json.loads(capsys.readouterr().out)
    assert out == {"schema_version": "1", "result": {
        "error": "code has more than 4300 decimal digits", "reason": "depth",
        "code_bits": big.bit_length()}}
    assert cli._emit({"result": {"n": 10 ** 4299}}, 0) == 0


@pytest.mark.parametrize("digits", [0, 100000])
def test_emit_decides_the_refusal_from_the_values(capsys, digits):
    """Under an interpreter limit that would print the code, ``_emit``
    still refuses it: the refusal does not wait for ``json.dumps`` to
    fail."""
    held = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        assert cli._emit({"result": {"n": 10 ** 4300}}, 0) == 3
        refused = json.loads(capsys.readouterr().out)["result"]
        assert cli._emit({"result": {"n": 10 ** 4299}}, 0) == 0
        printed = json.loads(capsys.readouterr().out)["result"]
    finally:
        sys.set_int_max_str_digits(held)
    assert refused["code_bits"] == (10 ** 4300).bit_length()
    assert printed == {"n": 10 ** 4299}


REAL_OPS = [
    ["reals", "approx", "--x", '{"rational":"1/3"}'],
    ["reals", "from-rational", "--q", "1/3"],
    ["reals", "max", "--x", '{"rational":"1/3"}', "--y", '{"rational":"2/7"}'],
]


@pytest.mark.parametrize("argv", REAL_OPS, ids=lambda a: a[1])
def test_reals_past_the_digit_limit_are_refused(capsys, argv):
    # 1/3 to 14290 binary digits has a numerator of 14289 bits, 4302
    # decimal digits; to 14280 it has 4299 (below)
    code, doc, _ = run_cli(capsys, *argv, "--prec", "14290")
    assert code == 3
    assert doc["result"] == {
        "error": "numerator has more than 4300 decimal digits",
        "reason": "depth", "numerator_bits": 14289}


# max is left out for time: it prints the approximation approx prints
@pytest.mark.parametrize("argv", REAL_OPS[:2], ids=lambda a: a[1])
def test_reals_just_under_the_digit_limit_print(capsys, argv):
    code, doc, _ = run_cli(capsys, *argv, "--prec", "14280")
    assert code == 0
    assert doc["result"]["approx"] == f"{(2 ** 14280 - 1) // 3}/{2 ** 14280}"


def test_emit_prints_rationals_and_refuses_an_over_limit_denominator(capsys):
    assert cli._emit({"result": [Fraction(-2, 6), Fraction(5)]}, 0) == 0
    assert json.loads(capsys.readouterr().out)["result"] == ["-1/3", "5"]
    q = Fraction(1, 10 ** 4300)
    assert cli._emit({"result": {"q": q}}, 0) == 3
    assert json.loads(capsys.readouterr().out)["result"] == {
        "error": "denominator has more than 4300 decimal digits",
        "reason": "depth", "denominator_bits": q.denominator.bit_length()}


def test_covers_past_the_cell_cap_is_refused_before_the_scan(capsys, monkeypatch):
    def no_scan(self, depth):
        raise AssertionError("cells scanned")

    monkeypatch.setattr(naming.CantorSpace, "cells", no_scan)
    code, doc, _ = run_cli(
        capsys, "antispecker", "covers", "--space", '{"kind":"cantor"}',
        "--theta", '[{"sigma":[[0,1]],"n":1000000},{"sigma":[[0,2]],"n":1}]')
    assert code == 3
    assert doc["result"] == {"error": "more than 1048576 cells at depth 1000001",
                             "reason": "depth", "depth": 1000001}
    code, doc, _ = run_cli(
        capsys, "antispecker", "covers", "--space", '{"kind":"cantor"}',
        "--theta", '[{"sigma":[[0,1]],"n":1}]', "--depth", "21")
    assert code == 3 and doc["result"]["depth"] == 21


MALFORMED_SPACES = [
    '{"kind":"product"}',
    '{"kind":"product","left":{"kind":"cantor"}}',
    '{"kind":"product","left":{"kind":"cantor"},"right":{"kind":"finite","n":{}}}',
    '{"kind":"finite","n":[1]}',
    '{"kind":"finite","n":null}',
    '{"kind":"finite","n":"x"}',
    '{"kind":"finite","n":0}',
    '{"kind":"finite","n":2.7}',
    '{"kind":"finite","n":true}',
    '{"kind":"finite","n":"3"}',
    '{"kind":"cantor","swapped":"false"}',
    '{"kind":"cantor","swapped":0}',
    '{"kind":"torus"}',
    '"cantor"',
]


@pytest.mark.parametrize("command", [
    ["spaces", "dist", "--f", "const:1", "--g", "const:1"],
    ["spaces", "check", "--name", "const:1"],
    ["antispecker", "demo"],
], ids=lambda c: " ".join(c[:2]))
@pytest.mark.parametrize("space", MALFORMED_SPACES)
def test_malformed_space_spec_is_exit_two(capsys, command, space):
    code, doc, err = run_cli(capsys, *command, "--space", space)
    assert code == 2 and doc is None
    assert err.startswith("error: ") and "Traceback" not in err


def _criterion_over_its_limit():
    return acceptance.CriterionResult("over-limit", True, "correct but slow",
                                      seconds=2.0, limit=1.0)


def test_selftest_fails_a_criterion_over_its_time_limit(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [("over-limit", _criterion_over_its_limit)])
    code, doc, err = run_cli(capsys, "selftest")
    assert code == 1
    assert doc["result"]["all_pass"] is False
    assert doc["result"]["criteria"][0]["ok"] is True
    assert err.startswith("[FAIL] over-limit")


def test_splitter_state_cap_is_exit_three(capsys):
    code, doc, err = run_cli(
        capsys, "splitter", "run", "--x", '{"prefix":["1","1/4","1/16","1/64"]}',
        "--b", "dyadic", "--stages", "4")
    assert code == 3 and "Traceback" not in err
    assert doc["result"] == {
        "error": "stage 3: 2^73 subset sums exceed the configured cap",
        "reason": "state", "width": 73}


# steps 1/4, 1/16, 1/64: the split's third stage outgrows the state cap
DEEP_STEPS = '{"prefix":["1","5/4","21/16","85/64"],"tail":{"kind":"constant","value":"85/64"}}'


@pytest.mark.parametrize("argv", [["fabar", "--n", "3"],
                                  ["decide", "--m", "2", "--n", "3"]])
def test_rpt_state_cap_is_exit_three(capsys, argv):
    code, doc, err = run_cli(capsys, "rpt", argv[0], "--a", DEEP_STEPS, *argv[1:])
    assert code == 3 and "Traceback" not in err
    assert doc["result"] == {
        "error": "stage 3: 2^73 subset sums exceed the configured cap",
        "reason": "state", "width": 73}


MALFORMED_NAME_SPECS = [
    ("--sequence", '{"names":5}'),
    ("--sequence", '{"names":null}'),
    ("--sequence", '{"names":[5]}'),
    ("--sequence", '{"names":[{"tail":5}]}'),
    ("--sequence", '{"names":[{"tail":{"kind":"constant","value":[1]}}]}'),
    ("--sequence", '{"names":[{"tail":{"kind":"registry","name":["identity"]}}]}'),
    ("--sequence", '{"names":[{"tail":{"kind":"registry","name":"depth_answer",'
                   '"params":{"depth":[2]}}}]}'),
    ("--sequence", '{"names":["const:x"]}'),
    ("--sequence", '{"names":[],"tail":"repeat"}'),
    ("--sequence", '{"names":["const:1"],"tail":[1]}'),
    ("--avoidance", '{"kind":"onset","depth":[1]}'),
    ("--avoidance", '{"kind":"onset","radius_exp":"x"}'),
    ("--avoidance", '{"tail":{"kind":"constant","value":[1]}}'),
    ("--avoidance", '{"tail":{"kind":"registry","name":"depth_answer","params":7}}'),
    # a float or a bool where a natural is read, which int() would truncate
    ("--avoidance", '{"kind":"onset","depth":1.9}'),
    ("--avoidance", '{"kind":"onset","radius_exp":1.0}'),
    ("--avoidance", '{"kind":"onset","depth":true}'),
    ("--avoidance", '{"table":[[0,1.5]]}'),
    ("--sequence", '{"names":[{"table":[[0,true]]}]}'),
    ("--sequence", '{"names":[{"tail":{"kind":"constant","value":2.0}}]}'),
    # a negative answer depth, which once acted as depth 0
    ("--avoidance", '{"kind":"onset","depth":-5}'),
    ("--avoidance", '{"tail":{"kind":"registry","name":"depth_answer",'
                    '"params":{"depth":-3}}}'),
]


@pytest.mark.parametrize("flag,spec", MALFORMED_NAME_SPECS)
def test_malformed_sequence_and_avoidance_specs_are_exit_two(capsys, flag, spec):
    code, doc, err = run_cli(capsys, "antispecker", "demo",
                             "--space", '{"kind":"cantor"}', flag, spec)
    assert code == 2 and doc is None
    assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1


def test_a_negative_onset_radius_is_refused_at_parse_time(capsys):
    # it once reached the name's pairing and named no option
    code, doc, err = run_cli(capsys, "antispecker", "demo",
                             "--space", '{"kind":"cantor"}',
                             "--avoidance", '{"kind":"onset","radius_exp":-5}')
    assert code == 2 and doc is None
    assert err == ("error: --avoidance: bad onset avoidance: "
                   "radius_exp must be a natural: -5\n")


FLOAT_OR_BOOL_ORACLES = [
    '{"table":[[0,1.5]]}',
    '{"table":[[1e400,1]]}',
    '{"table":[[0,true]]}',
    '{"table":[[false,1]]}',
    '{"tail":{"kind":"constant","value":1.0}}',
    '{"tail":{"kind":"constant","value":NaN}}',
    '{"tail":{"kind":"registry","name":"depth_answer","params":{"depth":1.5}}}',
    '{"tail":{"kind":"registry","name":"depth_answer","params":{"n":true}}}',
]


@pytest.mark.parametrize("spec", FLOAT_OR_BOOL_ORACLES)
def test_an_oracle_spec_with_a_float_or_bool_natural_is_exit_two(capsys, spec):
    code, doc, err = run_cli(capsys, "k2", "star", "--f", spec, "--g", "const:0",
                             "--fuel", "3")
    assert code == 2 and doc is None
    assert err.startswith("error: --f: ") and "not an integer" in err


FLOAT_OR_BOOL_SPEC_FIELDS = [
    (["antispecker", "covers", "--space", '{"kind":"cantor"}', "--theta"],
     '[{"sigma":[[0,1.7]],"n":1}]'),
    (["antispecker", "covers", "--space", '{"kind":"cantor"}', "--theta"],
     '[{"sigma":[[0,1]],"n":1.9}]'),
    (["antispecker", "covers", "--space", '{"kind":"cantor"}', "--theta"],
     '[{"sigma":[[true,1]],"n":1}]'),
    (["rpt", "fabar", "--a",
      '{"prefix":["1"],"tail":{"kind":"constant","value":"1"}}', "--n", "2", "--p"],
     '{"table":[[0,1.5],[1,0]]}'),
    (["rpt", "fabar", "--a",
      '{"prefix":["1"],"tail":{"kind":"constant","value":"1"}}', "--n", "2", "--p"],
     '{"table":[[0,1],[1.0,0]]}'),
    (["reals", "approx", "--prec", "3", "--x"], '{"digits":[1.5]}'),
    (["reals", "approx", "--prec", "3", "--x"], '{"int":2.5}'),
    (["reals", "approx", "--prec", "3", "--x"],
     '{"tail":{"kind":"constant","digit":true}}'),
]


@pytest.mark.parametrize("argv,spec", FLOAT_OR_BOOL_SPEC_FIELDS)
def test_theta_permutation_and_real_specs_refuse_a_float_or_bool(capsys, argv, spec):
    code, doc, err = run_cli(capsys, *argv, spec)
    assert code == 2 and doc is None
    assert err.startswith(f"error: {argv[-1]}: ") and "not an integer" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,as_strings,as_ints", [
    (["k2", "star", "--g", "const:0", "--fuel", "3", "--f"],
     '{"table":[["0","1"]],"tail":{"kind":"constant","value":"2"}}',
     '{"table":[[0,1]],"tail":{"kind":"constant","value":2}}'),
    (["k2", "star", "--g", "const:0", "--fuel", "6", "--f"],
     '{"tail":{"kind":"registry","name":"depth_answer","params":{"depth":"2","m":"1"}}}',
     '{"tail":{"kind":"registry","name":"depth_answer","params":{"depth":2,"m":1}}}'),
    (["antispecker", "demo", "--space", '{"kind":"cantor"}', "--avoidance"],
     '{"kind":"onset","depth":"1","radius_exp":"1"}',
     '{"kind":"onset","depth":1,"radius_exp":1}'),
], ids=["table", "registry", "onset"])
def test_numeric_strings_still_read_as_naturals(capsys, argv, as_strings, as_ints):
    assert (run_bytes(capsys, argv + [as_strings], fresh=False)
            == run_bytes(capsys, argv + [as_ints], fresh=False))
    assert run_bytes(capsys, argv + [as_ints], fresh=False)[0] == 0


ONE = '{"prefix":["1"],"tail":{"kind":"constant","value":"1"}}'
NEGATIVE_OR_UNDEFINED_NUMBERS = [
    ["rpt", "fabar", "--a", ONE, "--n", "-1"],
    ["rpt", "decide", "--a", ONE, "--n", "-1"],
    ["rpt", "decide", "--a", ONE, "--n", "2", "--m", "-3"],
    ["pc", "realize", "--x", '{"prefix":["1"]}', "--f", "identity",
     "--g", "identity", "--n", "-2"],
    ["reals", "compare", "--x", '{"rational":"1"}', "--q", "1", "--prec", "-1"],
    ["reals", "from-rational", "--q", "1/0", "--prec", "3"],
    ["reals", "max", "--x", '{"rational":"1/0"}', "--y", '{"rational":"1"}'],
]


@pytest.mark.parametrize("argv", NEGATIVE_OR_UNDEFINED_NUMBERS, ids=" ".join)
def test_negative_exponents_and_zero_denominators_are_exit_two(capsys, argv):
    code, doc, err = run_cli(capsys, *argv)
    assert code == 2 and doc is None
    assert err.startswith("error: ") and "Traceback" not in err


def test_selftest_with_no_matching_criterion_is_exit_two(capsys):
    code, doc, err = run_cli(capsys, "selftest", "--only", "nosuch")
    assert code == 2 and doc is None
    assert err == "error: no acceptance criterion matches 'nosuch'\n"


# a valid text of each kind that an op may need
SAMPLES = {"oracle": "const:2", "space": '{"kind":"cantor"}',
           "real": '{"rational":"1/3"}', "rational": "1/2", "sequence": ONE,
           "theta": '[{"sigma":[[0,1]],"n":1}]', "natural": "2"}


def _words(group, op):
    return [group] if op is None else [group, op]


# each op with every option it needs and no other
NEEDED_OPTIONS = [
    _words(group, op) + [arg for name, option in options.items()
                         if option.default == cli.NEEDED
                         for arg in (f"--{name}", SAMPLES[option.kind])]
    for (group, op), (_, options) in cli.COMMANDS.items() if group != "selftest"]
OMITTED = [(argv[:i] + argv[i + 2:], argv[i])
           for argv in NEEDED_OPTIONS for i in range(2, len(argv), 2)]
# each op with each count it reads, to be given beside its needed options
NEGATIVE_COUNTS = [
    (argv, f"--{name}") for argv in NEEDED_OPTIONS
    for name, option in cli.COMMANDS[argv[0], argv[1]][1].items()
    if option.kind == "natural"]


@pytest.mark.parametrize("argv", NEEDED_OPTIONS, ids=" ".join)
def test_an_op_with_its_needed_options_runs(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 3) and "Traceback" not in err


@pytest.mark.parametrize("argv,flag", OMITTED,
                         ids=[f"{a[0]} {a[1]} {flag}" for a, flag in OMITTED])
def test_a_missing_needed_option_is_exit_two(capsys, argv, flag):
    code, doc, err = run_cli(capsys, *argv)
    assert code == 2 and doc is None
    assert err == f"error: {argv[0]} {argv[1]} needs {flag}\n"


@pytest.mark.parametrize("argv,flag", NEGATIVE_COUNTS,
                         ids=[f"{a[0]} {a[1]} {flag}" for a, flag in NEGATIVE_COUNTS])
@pytest.mark.parametrize("value", ["-1", "x"])
def test_a_negative_or_non_integer_count_is_exit_two(capsys, argv, flag, value):
    code, doc, err = run_cli(capsys, *argv, f"{flag}={value}")
    assert code == 2 and doc is None
    assert err == f"error: {flag}: not a natural number: {value!r}\n"


@pytest.mark.parametrize("argv", [
    ["k2", "star", "--frobnicate", "1"],
    ["k2", "nosuch"],
    ["nosuch"],
    [],
    ["k2", "star", "--fuel"],
], ids=" ".join)
def test_argparse_refusals_are_one_error_line(capsys, argv):
    code, doc, err = run_cli(capsys, *argv)
    assert code == 2 and doc is None
    assert err.startswith("error: ") and err.count("\n") == 1


def run_bytes(capsys, argv, fresh):
    """Code, stdout and stderr of one run, on a new parser if fresh."""
    if fresh:
        cli._parser.cache_clear()
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("refused", [
    ["k2", "star", "--frobnicate", "1"],
    ["k2", "star", "--fuel"],
    ["nosuch"],
    ["k2", "bar", "--f", "const:1", "--n", "-1"],
    ["antispecker", "probe", "--space", '{"kind":"torus"}'],
], ids=" ".join)
def test_a_refusal_leaves_the_shared_parser_as_new(capsys, refused):
    valid = ["antispecker", "probe", "--space", '{"kind":"finite","n":2}',
             "--budget", "30"]
    shared = [run_bytes(capsys, argv, fresh=False) for argv in (refused, valid)]
    fresh = [run_bytes(capsys, argv, fresh=True) for argv in (refused, valid)]
    assert shared == fresh
    assert shared[0][0] == 2 and shared[1][0] == 0
    assert cli._parser() is cli._parser()


def test_the_readme_lists_every_command_with_its_options():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    listed = readme.split("<!-- commands -->\n```text\n")[1].split("```")[0]
    lines = []
    for (group, op), (_, options) in cli.COMMANDS.items():
        words = ["baire", *_words(group, op)]
        for name, option in options.items():
            given = f"--{name}" if option.kind == "flag" else f"--{name} {option.kind}"
            words.append(given if option.default == cli.NEEDED else f"[{given}]")
        lines.append(" ".join(words))
    assert listed.splitlines() == lines
