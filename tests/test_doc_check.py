"""The document checkers of ``tests/doc_check.py`` on the goldens, the ops
they leave unchecked, and one false field per checker that each refuses."""

import dataclasses
import json

import doc_check
from baire import antispecker as aspk
from baire import cauchy, cli, k2
from golden_cases import CASES, EXIT_CODES, GOLDEN

# the rpt goldens the checkers skip, with the reason
EXITS_3 = {
    "rpt-decide-past-window-budget": "the witness scan runs out of window steps",
    "rpt-decide-block-past-cap": "a block past the cap is refused before it is built",
}
LARGER = {
    "rpt-decide-long-constant-tail": "28,753 flattened entries",
    "rpt-decide-window-past-index-blocks": "241 flattened entries",
}
# the largest series the window scan of ``doc_check`` runs on here
MAX_ENTRIES = 100

# the (group, op)s that had no checker when the list was pinned: a new
# checker takes its op off ``doc_check.UNCHECKED``, and none is added
PINNED_UNCHECKED = {
    ("k2", "encode"), ("k2", "decode"), ("k2", "bar"), ("k2", "star"),
    ("k2", "bullet"), ("reals", "approx"), ("reals", "from-rational"),
    ("reals", "compare"), ("reals", "max"), ("spaces", "check"),
    ("spaces", "dist"), ("antispecker", "demo"), ("antispecker", "covers"),
    ("antispecker", "probe"), ("splitter", "run"), ("pc", "realize"),
    ("bdn", "extract"), ("bdn", "adversary"), ("selftest", None),
}


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.out").read_text())


def test_every_op_has_a_checker_or_a_reason():
    checked, unchecked = set(doc_check.CHECKERS), set(doc_check.UNCHECKED)
    assert checked | unchecked == set(cli.COMMANDS)
    assert not checked & unchecked
    assert unchecked <= PINNED_UNCHECKED
    assert all(doc_check.UNCHECKED.values())


def test_rpt_goldens_meet_their_checkers():
    codes = json.loads(EXIT_CODES.read_text())
    rpt = [name for name, argv in CASES.items() if argv[0] == "rpt"]
    assert set(EXITS_3) | set(LARGER) <= set(rpt)
    checked = []
    for name in rpt:
        argv = CASES[name]
        if codes[name] == cli.EXIT_EXHAUSTED:
            assert name in EXITS_3
            continue
        opts = doc_check.options(argv)
        size = cauchy.split_series_for(opts["a"], opts["stages"]).built_end
        if size > MAX_ENTRIES:
            assert name in LARGER
            continue
        assert name not in EXITS_3 and name not in LARGER
        assert doc_check.check(argv, _golden(name)) == [], name
        checked.append(name)
    assert {"rpt-fabar-step-2-70", "rpt-decide-step-2-70-tail",
            "rpt-decide-three-steps-window",
            "rpt-decide-three-steps-tail"} <= set(checked)


def _run(argv, capsys) -> dict:
    assert cli.run(list(argv)) == cli.EXIT_OK
    return json.loads(capsys.readouterr().out)


def test_a_settling_index_one_too_large_is_refused(monkeypatch, capsys):
    real = cauchy.settling_index
    monkeypatch.setattr(cauchy, "settling_index", lambda *a, **k: real(*a, **k) + 1)
    for name in ("readme-rpt-fabar", "rpt-fabar-three-steps", "rpt-fabar-step-2-70"):
        doc = _run(CASES[name], capsys)
        assert doc != _golden(name)
        assert doc_check.check(CASES[name], doc) != [], name


def test_a_certificate_with_k0_plus_one_is_refused(monkeypatch, capsys):
    real = cauchy.classify_windows

    def late(*args, **kwargs):
        cert = real(*args, **kwargs)
        return dataclasses.replace(cert, k0=cert.k0 + 1)

    monkeypatch.setattr(cauchy, "classify_windows", late)
    for name in ("rpt-decide-three-steps-tail", "rpt-decide-step-2-70-tail"):
        doc = _run(CASES[name], capsys)
        assert doc != _golden(name)
        assert doc_check.check(CASES[name], doc) != [], name


# the ops whose checkers read documents of exit 0 and of exit 3 alike
BOTH_EXITS = {("antispecker", "demo"), ("antispecker", "probe"),
              ("k2", "star"), ("k2", "bullet")}


def test_demo_probe_star_and_bullet_goldens_meet_their_checkers():
    codes = json.loads(EXIT_CODES.read_text())
    names = [name for name, argv in CASES.items() if tuple(argv[:2]) in BOTH_EXITS]
    for name in names:
        assert doc_check.check(CASES[name], _golden(name)) == [], name
    assert {codes[name] for name in names} == {cli.EXIT_OK, cli.EXIT_EXHAUSTED}
    assert {tuple(CASES[name][:2]) for name in names} == BOTH_EXITS


def _run_any(argv, capsys) -> dict:
    assert cli.run(list(argv)) in (cli.EXIT_OK, cli.EXIT_EXHAUSTED)
    return json.loads(capsys.readouterr().out)


def _refused(argvs, capsys) -> None:
    for argv in argvs:
        doc = _run_any(argv, capsys)
        assert doc_check.check(argv, doc) != [], (argv, doc)


def test_a_demo_spending_one_step_more_is_refused(monkeypatch, capsys):
    real = aspk.realizer_from_base

    def over(base, space=None):
        inner = real(base, space)

        def evaluate(seq, h, fuel):
            out = inner.evaluate(seq, h, fuel)
            spent = dataclasses.replace(out.result, spent=out.result.spent + 1)
            return dataclasses.replace(out, result=spent)

        return aspk.AntiSpeckerRealizer(evaluate, inner.space)

    monkeypatch.setattr(aspk, "realizer_from_base", over)
    _refused([CASES[name] for name in (
        "readme-antispecker-demo", "antispecker-demo-product",
        "antispecker-demo-product-exhausted")], capsys)


def test_a_probe_member_missing_an_atom_is_refused(monkeypatch, capsys):
    probe = aspk.base_from_realizer

    def short(m, space, config=None):
        probed = probe(m, space, config)
        last = probed.members[-1]
        return aspk.ProbedBase(space, probed.members[:-1] + (
            aspk.Theta(last.atoms[1:]),), probed.exhausted, probed.evals_spent)

    monkeypatch.setattr(aspk, "base_from_realizer", short)
    _refused([CASES[name] for name in (
        "readme-antispecker-probe", "antispecker-probe-product-default-budget")],
        capsys)


def test_a_star_one_too_large_is_refused(monkeypatch, capsys):
    real = k2.star

    def plus_one(*args, **kwargs):
        r = real(*args, **kwargs)
        return dataclasses.replace(r, value=r.value + 1) if r.is_value else r

    # bullet scans through k2.star too
    monkeypatch.setattr(k2, "star", plus_one)
    _refused([CASES["k2-star-track"],
              ["k2", "bullet", "--f", "const:3", "--g", "const:1", "--k", "2"]],
             capsys)


CODECS = {("k2", "encode"), ("k2", "decode"), ("k2", "bar")}


def test_codec_goldens_meet_their_checkers():
    codes = json.loads(EXIT_CODES.read_text())
    names = [name for name, argv in CASES.items() if tuple(argv[:2]) in CODECS]
    for name in names:
        assert doc_check.check(CASES[name], _golden(name)) == [], name
    assert {codes[name] for name in names} == {cli.EXIT_OK, cli.EXIT_EXHAUSTED}
    assert {tuple(CASES[name][:2]) for name in names} == CODECS
    # refusals of both kinds are read, built and bounded
    refusals = {tuple(_golden(name)["result"]) for name in names
                if codes[name] == cli.EXIT_EXHAUSTED}
    assert refusals == {("error", "reason", "code_bits"),
                        ("error", "reason", "code_bits_log2_min")}


def test_a_code_one_too_large_is_refused(monkeypatch, capsys):
    real = k2.encode_seq
    monkeypatch.setattr(k2, "encode_seq", lambda seq: real(seq) + 1)
    _refused([CASES["readme-k2-encode"], CASES["k2-bar-table"],
              ["k2", "encode", "--seq", "0"]], capsys)


def test_a_decode_that_drops_an_entry_is_refused(monkeypatch, capsys):
    real = k2.decode_seq
    monkeypatch.setattr(k2, "decode_seq", lambda code: real(code)[:-1])
    _refused([CASES["k2-decode-readme-code"], ["k2", "decode", "--code", "1"]],
             capsys)


def test_code_bits_one_too_few_are_refused(monkeypatch, capsys):
    real = cli._past_limit

    def short(what, **amounts):
        if "code_bits" in amounts:
            amounts["code_bits"] -= 1
        return real(what, **amounts)

    # refused from the size and from the value: both print code_bits
    monkeypatch.setattr(cli, "_past_limit", short)
    monkeypatch.setattr(k2, "code_size", lambda seq: (0, 0))
    _refused([CASES["k2-bar-past-digit-limit"], CASES["k2-encode-past-digit-limit"]],
             capsys)
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_past_limit", short)
    _refused([CASES["k2-bar-past-digit-limit"], CASES["k2-encode-past-digit-limit"]],
             capsys)


def test_a_demo_against_an_oracle_spec_meets_its_checker(capsys):
    # an oracle spec, not an onset name: silent, and then always malformed
    demo = ["antispecker", "demo", "--space", '{"kind":"cantor"}', "--fuel", "50"]
    silent = demo + ["--avoidance", "const:0"]
    malformed = demo + ["--avoidance", '{"table":[[0,5]]}']
    docs = []
    for argv in (silent, malformed):
        assert cli.run(argv) == cli.EXIT_EXHAUSTED
        docs.append(json.loads(capsys.readouterr().out))
        assert doc_check.check(argv, docs[-1]) == [], argv
    assert docs[0]["result"] == {"value": "exhausted", "spent": 50}
    # 5 decodes to the one-entry sequence (1,), no pair: recorded per step
    assert docs[1]["result"]["spent"] == 50
    assert set(map(tuple, docs[1]["result"]["malformed"])) == {(0, 5)}
