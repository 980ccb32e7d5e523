"""Command-line front end.

One command, one JSON result document on stdout.  Exit codes: 0 success,
2 validation errors, 3 a bounded search that stopped.  A ``k2.Exhausted``
prints as {"error", "reason", ...}: ``fuel`` (bdn extract), ``depth``
(antispecker covers, over-long codes and rationals), ``state``
(splitter, rpt) or ``budget`` (rpt); the star, bullet, demo and
adversary documents print as they are, with no reason.  Result
documents are byte-identical across identical invocations; diagnostics
go to stderr.

Every command is one entry of ``COMMANDS``, keyed by (group, op): its run
function and its options, each with a kind (the name of its parser in
``KINDS``) and a default text or ``NEEDED``.  ``_parser`` and ``run``
both read the table, and every refused input exits 2 with an ``error: ``
line: an unknown or missing option, a negative count, a malformed spec.
Options are never abbreviated: ``--fu`` is unknown, not ``--fuel``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import NamedTuple

from . import antispecker as aspk
from . import bdn, cauchy, k2, naming, reals

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EXHAUSTED = 3

# the most decimal digits an int prints with; ``run`` holds Python at it
DIGIT_LIMIT = 4300
_LIMIT = 10 ** DIGIT_LIMIT
# a code of more bits passes the limit, and a code of fewer stays under it
_LIMIT_BITS = _LIMIT.bit_length()


class Exhaustion(Exception):
    """Wraps a result document that still deserves printing, with exit 3."""

    def __init__(self, doc: dict):
        self.doc = doc
        super().__init__("exhausted")


def _emit(doc: dict, status: int) -> int:
    """Print one result document and return the exit status.  Rationals
    print as "n/d" text.  A document holding an int, or a rational with a
    numerator or denominator, of more than ``DIGIT_LIMIT`` decimal digits
    (a long sequence code, a fine approximation) is refused instead, with
    exit 3; the values decide it, whatever the interpreter's own limit."""
    found = _first_int_past(doc, _LIMIT)
    if found is not None:
        what, value = found
        refusal = _past_limit(what, **{f"{what}_bits": value.bit_length()})
        doc, status = {"result": refusal.to_json()}, EXIT_EXHAUSTED
    text = json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=2,
                      default=_rational_text)
    sys.stdout.write(text + "\n")
    return status


def _past_limit(what: str, **amounts: int) -> k2.Exhausted:
    return k2.Exhausted(f"{what} has more than {DIGIT_LIMIT} decimal digits",
                        "depth", **amounts)


def _rational_text(value) -> str:
    if isinstance(value, Fraction):
        return reals.format_rational(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _first_int_past(doc, bound: int):
    """The first int in the document, in printing order, of absolute value
    at least ``bound``, with what it is: a ``code``, or the ``numerator``
    or ``denominator`` of a rational; None if there is none."""
    if isinstance(doc, Fraction):
        for what in ("numerator", "denominator"):
            part = getattr(doc, what)
            if abs(part) >= bound:
                return what, part
        return None
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, (list, tuple)):
        for item in doc:
            found = _first_int_past(item, bound)
            if found is not None:
                return found
        return None
    return ("code", doc) if isinstance(doc, int) and abs(doc) >= bound else None


def _json_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text  # shorthand strings pass through


def _natural(text: str) -> int:
    """A count: fuel, a budget, a depth, an index, a precision."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise k2.SpecError(f"not a natural number: {text!r}")
    return value


def _avoidance(text: str):
    """An avoidance name as a function of the name sequence: an onset name
    (``{"kind": "onset"}``, with an optional ``radius_exp`` and answer
    ``depth``), or an oracle spec."""
    doc = _json_arg(text)
    if isinstance(doc, dict) and doc.get("kind") == "onset":
        try:
            radius_exp = k2.spec_int(doc.get("radius_exp", 0))
            answer_depth = k2.spec_int(doc.get("depth", 0))
            if answer_depth < 0:
                raise ValueError(f"depth must be a natural: {answer_depth}")
            if radius_exp < 0:
                raise ValueError(f"radius_exp must be a natural: {radius_exp}")
        except (TypeError, ValueError) as e:
            raise k2.SpecError(f"bad onset avoidance: {e}")
        return lambda seq: aspk.make_avoidance_name(
            seq, radius_exp=radius_exp, answer_depth=answer_depth)
    h = aspk.AvoidanceName(k2.parse_oracle_spec(doc), "cli")
    return lambda seq: h


KINDS = {
    "oracle": lambda text: k2.parse_oracle_spec(_json_arg(text)),
    "space": lambda text: naming.parse_space_spec(_json_arg(text)),
    "real": lambda text: reals.parse_real_spec(_json_arg(text)),
    "rational": reals.parse_rational,
    "sequence": lambda text: cauchy.parse_seq_spec(_json_arg(text)),
    "permutation": lambda text: cauchy.parse_permutation_spec(_json_arg(text)),
    "names": lambda text: naming.parse_name_sequence(_json_arg(text)),
    "avoidance": _avoidance,
    "theta": lambda text: aspk.parse_theta(_json_arg(text)),
    "natural": _natural,
    "naturals": lambda text: [_natural(v) for v in text.split(",")] if text else [],
    "text": str,
    "flag": bool,
}

NEEDED = "needed"


class Option(NamedTuple):
    kind: str
    default: object = NEEDED  # a text, parsed as a given one is; or None


def _partial(doc: dict, done: bool) -> dict:
    """The document of a result that may have run out: exit 3 unless done."""
    if not done:
        raise Exhaustion(doc)
    return doc


def _code(seq: list) -> dict:
    """The document of the code of ``seq``.  Its size comes first, from
    ``k2.code_size``: a code known to pass the digit limit is refused as
    ``_emit`` refuses it, with its exact ``code_bits``, and is not built.
    Where the size is undecided the code is built as before, unless it
    may have 2^64 bits or more, which no memory holds: it is refused then
    with ``code_bits_log2_min``, an m with code_bits >= 2^m.  A decided
    size has fewer than about 2^130 bits, so ``code_bits`` always prints."""
    least, most = k2.code_size(seq)
    if least > _LIMIT_BITS:
        if least == most:
            raise _past_limit("code", code_bits=least)
        if most >= 1 << 64:
            raise _past_limit("code", code_bits_log2_min=least.bit_length() - 1)
    return {"result": {"code": k2.encode_seq(seq)}}


def _star(f, g, fuel, track) -> dict:
    if track:
        f, mf = k2.with_usage_tracking(f)
        g, mg = k2.with_usage_tracking(g)
    r = k2.star(f, g, fuel)
    doc = {"result": r.to_json()}
    if track:
        doc["usage"] = {"f_max": mf.max_index, "g_max": mg.max_index}
    return _partial(doc, r.is_value)


def _bullet(f, g, k, fuel) -> dict:
    r = k2.bullet(f, g).query(k, fuel)
    return _partial({"result": r.to_json()}, r.is_value)


def _from_rational(q, prec) -> dict:
    x = reals.from_rational(q)
    return {"result": {"int": x.integer_part, "digits": x.digit_prefix(prec),
                       "approx": x.approx(prec)}}


def _max(x, y, prec) -> dict:
    m = reals.max_star(x, y)
    return {"result": {"approx": m.approx(prec), "digits": m.digit_prefix(prec)}}


def _dist(space, f, g, prec) -> dict:
    return {"result": {"dist": space.dist(space.point_of(f), space.point_of(g)),
                       "dist_stream_approx": space.dist_hat(f, g).approx(prec)}}


def _demo(space, sequence, avoidance, fuel) -> dict:
    h = avoidance(sequence)
    realizer = aspk.realizer_from_base(aspk.builtin_base(space))
    out = realizer.evaluate(sequence, h, fuel)
    return _partial({"result": out.to_json()}, out.result.is_value)


def _probe(space, budget) -> dict:
    realizer = aspk.realizer_from_base(aspk.builtin_base(space))
    probed = aspk.base_from_realizer(realizer, space,
                                     aspk.ProbeConfig(budget=budget))
    return {"result": probed.to_json()}


def _splitter(x, b, stages, verify) -> dict:
    ledger = cauchy.protected_split(x, b, stages)
    doc = {"result": ledger.to_json()}
    if verify:
        tail = Fraction(0) if x.has_finite_support and x.support_end <= stages else None
        doc["verification"] = cauchy.verify_clearances(ledger, tail).to_json()
    return doc


def _split(a, stages):
    """The rearranged series of ``rpt`` and its exact modulus."""
    return (cauchy.split_series_for(a, stages=stages),
            cauchy.exact_modulus(a, horizon=len(a.prefix) + 4))


def _fabar(a, p, n, stages) -> dict:
    series, f = _split(a, stages)
    return {"result": {"settling_index": cauchy.settling_index(series, p, n, f)}}


def _decide(a, p, m, n, stages) -> dict:
    series, f = _split(a, stages)
    verdict = cauchy.classify_windows(series, p, m, n, f)
    if isinstance(verdict, cauchy.WindowWitness):
        return {"result": {"case": "window", "i": verdict.i, "j": verdict.j}}
    return {"result": {"case": "tail", "n0": verdict.n0, "n1": verdict.n1,
                       "k0": verdict.k0}}


def _adversary(alpha, fuel) -> dict:
    report = bdn.adversary_refute(alpha, fuel)
    return _partial({"result": report.to_json()}, report.verdict != "inconclusive")


def _selftest(only) -> dict:
    from . import acceptance
    results = acceptance.run_all(only=only)
    if not results:
        raise k2.SpecError(f"no acceptance criterion matches {only!r}")
    for r in results:
        status = "pass" if r.passed else "FAIL"
        sys.stderr.write(f"[{status}] {r.name} ({r.seconds:.2f}s) {r.detail}\n")
    return {"result": {"criteria": [r.to_json() for r in results],
                       "all_pass": all(r.passed for r in results)}}


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------


GROUPS = {
    "k2": "codec, prefixes and application operators",
    "reals": "signed-digit exact reals",
    "spaces": "named metric spaces",
    "antispecker": "compactness bases and realizers",
    "splitter": "protected splitting",
    "rpt": "rearranged-series settling index",
    "pc": "window-diameter settling index",
    "bdn": "bound extraction and the adversary",
    "selftest": "run the acceptance scorecard",
}

ORACLE, SPACE, REAL = Option("oracle"), Option("space"), Option("real")
SEQUENCE, NATURAL, FLAG = Option("sequence"), Option("natural"), Option("flag", False)
PREC, FUEL = Option("natural", "10"), Option("natural", "20000")

COMMANDS = {
    ("k2", "encode"): (_code, {"seq": Option("naturals", "")}),
    ("k2", "decode"): (lambda code: {"result": {"seq": list(k2.decode_seq(code))}},
                       {"code": Option("natural", "0")}),
    ("k2", "bar"): (lambda f, n: _code([f(k) for k in range(n)]),
                    {"f": ORACLE, "n": Option("natural", "0")}),
    ("k2", "star"): (_star, {"f": ORACLE, "g": ORACLE,
                             "fuel": Option("natural", "16"), "track": FLAG}),
    ("k2", "bullet"): (_bullet, {"f": ORACLE, "g": ORACLE, "k": Option("natural", "0"),
                                 "fuel": Option("natural", "16")}),
    ("reals", "approx"): (
        lambda x, prec: {"result": {"approx": x.approx(prec), "prec": prec}},
        {"x": REAL, "prec": PREC}),
    ("reals", "from-rational"): (_from_rational,
                                 {"q": Option("rational"), "prec": PREC}),
    ("reals", "compare"): (
        lambda x, q, prec: {"result": {
            "comparison": reals.compare_prec(x, q, prec).value}},
        {"x": REAL, "q": Option("rational"), "prec": PREC}),
    ("reals", "max"): (_max, {"x": REAL, "y": REAL, "prec": PREC}),
    ("spaces", "check"): (
        lambda space, name, horizon: {"result": {
            "in_domain": space.contains_name(name, horizon)}},
        {"space": SPACE, "name": ORACLE, "horizon": Option("natural", "16")}),
    ("spaces", "dist"): (_dist, {"space": SPACE, "f": ORACLE, "g": ORACLE,
                                 "prec": PREC}),
    ("antispecker", "demo"): (_demo, {
        "space": SPACE, "sequence": Option("names", "all-star"),
        "avoidance": Option("avoidance", '{"kind":"onset"}'),
        "fuel": Option("natural", "4000")}),
    ("antispecker", "covers"): (
        lambda space, theta, depth: {
            "result": aspk.covers(theta, space, depth).to_json()},
        {"space": SPACE, "theta": Option("theta"), "depth": Option("natural", None)}),
    ("antispecker", "probe"): (_probe, {"space": SPACE,
                                        "budget": Option("natural", "200")}),
    ("splitter", "run"): (_splitter, {"x": SEQUENCE, "b": SEQUENCE, "stages": NATURAL,
                                      "verify": FLAG}),
    ("rpt", "fabar"): (_fabar, {"a": SEQUENCE, "p": Option("permutation", "identity"),
                                "n": NATURAL, "stages": Option("natural", None)}),
    ("rpt", "decide"): (_decide, {"a": SEQUENCE, "p": Option("permutation", "identity"),
                                  "m": Option("natural", "0"), "n": NATURAL,
                                  "stages": Option("natural", None)}),
    ("pc", "realize"): (
        lambda x, f, g, n: {"result": {"index": cauchy.partially_cauchy_index(
            x, cauchy.Modulus(f), g, n)}},
        {"x": SEQUENCE, "f": ORACLE, "g": ORACLE, "n": NATURAL}),
    ("bdn", "extract"): (
        lambda g, h, fuel: {"result": {"bound": bdn.extract_bound(g, h, fuel)}},
        {"g": ORACLE, "h": ORACLE, "fuel": FUEL}),
    ("bdn", "adversary"): (_adversary, {"alpha": ORACLE, "fuel": FUEL}),
    ("selftest", None): (_selftest, {"only": Option("text", None)}),
}


# ---------------------------------------------------------------------------
# parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse whose refusals raise, to print as one ``error: `` line."""

    def error(self, message):
        raise k2.SpecError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: argparse keeps
    no state between parses."""
    top = _Parser(prog="baire", description="exact Baire-space workbench",
                  allow_abbrev=False)
    sub = top.add_subparsers(dest="command", required=True)
    for group, help_text in GROUPS.items():
        p = sub.add_parser(group, help=help_text, allow_abbrev=False)
        ops = [op for g, op in COMMANDS if g == group]
        if ops == [None]:
            p.set_defaults(op=None)
        else:
            p.add_argument("op", choices=ops)
        kinds = {name: option.kind for op in ops
                 for name, option in COMMANDS[group, op][1].items()}
        for name, kind in kinds.items():
            p.add_argument(f"--{name}",
                           action="store_true" if kind == "flag" else "store")
    return top


def _values(args, options: dict) -> dict:
    """Each option's value, parsed from its text by its kind."""
    values = {}
    for name, (kind, default) in options.items():
        text = getattr(args, name)
        if text is None and default == NEEDED:
            raise k2.SpecError(f"{args.command} {args.op} needs --{name}")
        text = default if text is None else text
        try:
            values[name] = None if text is None else KINDS[kind](text)
        except ValueError as e:
            raise k2.SpecError(f"--{name}: {e}") from e
    return values


def run(argv) -> int:
    """Run one command under the interpreter's int-to-str digit limit set
    to ``DIGIT_LIMIT``, and restore the caller's setting afterwards."""
    held = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    try:
        args = _parser().parse_args(argv)
        op, options = COMMANDS[args.command, args.op]
        doc = op(**_values(args, options))
    except SystemExit as e:  # --help
        return EXIT_VALIDATION if e.code not in (0, None) else EXIT_OK
    except Exhaustion as e:
        return _emit(e.doc, EXIT_EXHAUSTED)
    except k2.Exhausted as e:
        return _emit({"result": e.to_json()}, EXIT_EXHAUSTED)
    except (k2.SpecError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_VALIDATION
    else:
        failed = args.command == "selftest" and not doc["result"]["all_pass"]
        return _emit(doc, 1 if failed else EXIT_OK)
    finally:
        sys.set_int_max_str_digits(held)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
