"""Command-line front end.

One command, one JSON result document on stdout.  Exit codes: 0 success,
2 validation errors, 3 a bounded search that stopped.  A ``k2.Exhausted``
prints as {"error", "reason", ...}: ``fuel`` (bdn extract), ``depth``
(antispecker covers, over-long codes and rationals), ``state``
(splitter, rpt) or ``budget`` (rpt); the star, bullet, demo and
adversary documents print as they are, with no reason.  Result
documents are byte-identical across identical invocations; diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import antispecker as aspk
from . import bdn, cauchy, k2, naming, reals

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_EXHAUSTED = 3


class Exhaustion(Exception):
    """Wraps a result document that still deserves printing, with exit 3."""

    def __init__(self, doc: dict):
        self.doc = doc
        super().__init__("exhausted")


def _emit(doc: dict, status: int) -> int:
    """Print one result document and return the exit status.  Rationals
    print as "n/d" text.  A document holding an int, or a rational with a
    numerator or denominator, of more decimal digits than Python will
    convert to a string (a long sequence code, a fine approximation) is
    refused instead, with exit 3."""
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    try:
        text = json.dumps(doc, indent=2, default=_rational_text)
    except ValueError:
        # interpreters older than the digit limit (before 3.10.7) have none
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        found = _first_int_past(doc, 10 ** limit) if limit else None
        if found is None:
            raise
        what, value = found
        refusal = k2.Exhausted(f"{what} has more than {limit} decimal digits",
                               "depth", **{f"{what}_bits": value.bit_length()})
        text = json.dumps({"schema_version": SCHEMA_VERSION,
                           "result": refusal.to_json()}, indent=2)
        status = EXIT_EXHAUSTED
    sys.stdout.write(text + "\n")
    return status


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


def _option(args, name: str) -> str:
    """The text of an option the op needs; leaving it out is a validation
    error."""
    text = getattr(args, name)
    if text is None:
        raise k2.SpecError(f"{args.command} {args.op} needs --{name}")
    return text


# ---------------------------------------------------------------------------
# k2
# ---------------------------------------------------------------------------


def _cmd_k2(args) -> dict:
    if args.op == "encode":
        values = [int(v) for v in args.seq.split(",")] if args.seq else []
        return {"result": {"code": k2.encode_seq(values)}}
    if args.op == "decode":
        return {"result": {"seq": list(k2.decode_seq(args.code))}}
    if args.op == "bar":
        f = k2.parse_oracle_spec(_json_arg(_option(args, "f")))
        return {"result": {"code": k2.bar(f, args.n)}}
    if args.op == "star":
        f = k2.parse_oracle_spec(_json_arg(_option(args, "f")))
        g = k2.parse_oracle_spec(_json_arg(_option(args, "g")))
        if args.track:
            f, mf = k2.with_usage_tracking(f)
            g, mg = k2.with_usage_tracking(g)
        r = k2.star(f, g, args.fuel)
        doc = {"result": r.to_json()}
        if args.track:
            doc["usage"] = {"f_max": mf.max_index, "g_max": mg.max_index}
        if not r.is_value:
            raise Exhaustion(doc)
        return doc
    if args.op == "bullet":
        f = k2.parse_oracle_spec(_json_arg(_option(args, "f")))
        g = k2.parse_oracle_spec(_json_arg(_option(args, "g")))
        r = k2.bullet(f, g).query(args.k, args.fuel)
        doc = {"result": r.to_json()}
        if not r.is_value:
            raise Exhaustion(doc)
        return doc
    raise k2.SpecError(f"unknown k2 op {args.op!r}")


# ---------------------------------------------------------------------------
# reals
# ---------------------------------------------------------------------------


def _cmd_reals(args) -> dict:
    if args.op == "approx":
        x = reals.parse_real_spec(_json_arg(_option(args, "x")))
        return {"result": {"approx": x.approx(args.prec), "prec": args.prec}}
    if args.op == "from-rational":
        x = reals.from_rational(reals.parse_rational(_option(args, "q")))
        return {"result": {"int": x.integer_part,
                           "digits": x.digit_prefix(args.prec),
                           "approx": x.approx(args.prec)}}
    if args.op == "compare":
        x = reals.parse_real_spec(_json_arg(_option(args, "x")))
        q = reals.parse_rational(_option(args, "q"))
        verdict = reals.compare_prec(x, q, args.prec)
        return {"result": {"comparison": verdict.value}}
    if args.op == "max":
        x = reals.parse_real_spec(_json_arg(_option(args, "x")))
        y = reals.parse_real_spec(_json_arg(_option(args, "y")))
        m = reals.max_star(x, y)
        return {"result": {"approx": m.approx(args.prec),
                           "digits": m.digit_prefix(args.prec)}}
    raise k2.SpecError(f"unknown reals op {args.op!r}")


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------


def _cmd_spaces(args) -> dict:
    space = naming.parse_space_spec(_json_arg(args.space))
    if args.op == "check":
        f = k2.parse_oracle_spec(_json_arg(_option(args, "name")))
        ok = space.contains_name(f, args.horizon)
        return {"result": {"in_domain": ok}}
    if args.op == "dist":
        f = k2.parse_oracle_spec(_json_arg(_option(args, "f")))
        g = k2.parse_oracle_spec(_json_arg(_option(args, "g")))
        exact = space.dist(space.point_of(f), space.point_of(g))
        stream = space.dist_hat(f, g).approx(args.prec)
        return {"result": {"dist": exact, "dist_stream_approx": stream}}
    raise k2.SpecError(f"unknown spaces op {args.op!r}")


# ---------------------------------------------------------------------------
# antispecker
# ---------------------------------------------------------------------------


def _parse_avoidance(spec, seq, pointed) -> aspk.AvoidanceName:
    if spec is None:
        return aspk.make_avoidance_name(seq, pointed)
    doc = _json_arg(spec)
    if isinstance(doc, dict) and doc.get("kind") == "onset":
        try:
            radius_exp = int(doc.get("radius_exp", 0))
            answer_depth = int(doc.get("depth", 0))
        except (TypeError, ValueError) as e:
            raise k2.SpecError(f"bad onset avoidance: {e}")
        return aspk.make_avoidance_name(
            seq, pointed, radius_exp=radius_exp, answer_depth=answer_depth)
    return aspk.AvoidanceName(k2.parse_oracle_spec(doc), "cli")


def _cmd_antispecker(args) -> dict:
    space = naming.parse_space_spec(_json_arg(args.space))
    pointed = naming.star_extension(space)
    if args.op == "covers":
        theta = aspk.parse_theta(_json_arg(_option(args, "theta")))
        report = aspk.covers(theta, space, args.depth)
        return {"result": report.to_json()}
    if args.op == "demo":
        seq = naming.parse_name_sequence(_json_arg(args.sequence))
        h = _parse_avoidance(args.avoidance, seq, pointed)
        realizer = aspk.realizer_from_base(aspk.builtin_base(space), pointed)
        out = realizer.evaluate(seq, h, args.fuel)
        doc = {"result": out.to_json()}
        if not out.result.is_value:
            raise Exhaustion(doc)
        return doc
    if args.op == "probe":
        realizer = aspk.realizer_from_base(aspk.builtin_base(space), pointed)
        probed = aspk.base_from_realizer(realizer, pointed,
                                         aspk.ProbeConfig(budget=args.budget))
        return {"result": probed.to_json()}
    raise k2.SpecError(f"unknown antispecker op {args.op!r}")


# ---------------------------------------------------------------------------
# splitter
# ---------------------------------------------------------------------------


def _cmd_splitter(args) -> dict:
    x = cauchy.parse_seq_spec(_json_arg(args.x))
    b = cauchy.parse_seq_spec(_json_arg(args.b))
    positives = cauchy.positive_stage_count(x, args.stages)
    if positives > 3:
        sys.stderr.write(
            f"note: {positives} positive stages requested; the classification "
            "state is exponential in the flattened block count and the run "
            "aborts cleanly if it outgrows the cap\n")
    ledger = cauchy.protected_split(x, b, args.stages)
    doc = {"result": ledger.to_json()}
    if args.verify:
        tail = None
        if x.has_finite_support and x.support_end <= args.stages:
            tail = Fraction(0)
        report = cauchy.verify_clearances(ledger, tail)
        doc["verification"] = report.to_json()
    return doc


# ---------------------------------------------------------------------------
# rpt / pc
# ---------------------------------------------------------------------------


def _cmd_rpt(args) -> dict:
    a = cauchy.parse_seq_spec(_json_arg(args.a))
    p = cauchy.parse_permutation_spec(_json_arg(args.p))
    series = cauchy.split_series_for(a, stages=args.stages)
    f = cauchy.exact_modulus(a, horizon=len(a.prefix) + 4)
    if args.op == "fabar":
        value = cauchy.settling_index(series, p, args.n, f)
        return {"result": {"settling_index": value}}
    if args.op == "decide":
        verdict = cauchy.classify_windows(series, p, args.m, args.n, f)
        if isinstance(verdict, cauchy.WindowWitness):
            return {"result": {"case": "window", "i": verdict.i, "j": verdict.j}}
        return {"result": {"case": "tail", "n0": verdict.n0, "n1": verdict.n1,
                           "k0": verdict.k0}}
    raise k2.SpecError(f"unknown rpt op {args.op!r}")


def _cmd_pc(args) -> dict:
    x = cauchy.parse_seq_spec(_json_arg(args.x))
    f = cauchy.Modulus.from_oracle(k2.parse_oracle_spec(_json_arg(args.f)))
    g = k2.parse_oracle_spec(_json_arg(args.g))
    value = cauchy.partially_cauchy_index(x, f, g, args.n)
    return {"result": {"index": value}}


# ---------------------------------------------------------------------------
# bdn
# ---------------------------------------------------------------------------


def _cmd_bdn(args) -> dict:
    if args.op == "extract":
        g = k2.parse_oracle_spec(_json_arg(_option(args, "g")))
        h = k2.parse_oracle_spec(_json_arg(_option(args, "h")))
        return {"result": {"bound": bdn.extract_bound(g, h, args.fuel)}}
    if args.op == "adversary":
        alpha = k2.parse_oracle_spec(_json_arg(_option(args, "alpha")))
        report = bdn.adversary_refute(alpha, args.fuel)
        doc = {"result": report.to_json()}
        if report.verdict == "inconclusive":
            raise Exhaustion(doc)
        return doc
    raise k2.SpecError(f"unknown bdn op {args.op!r}")


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _cmd_selftest(args) -> dict:
    from . import acceptance
    results = acceptance.run_all(only=args.only)
    if not results:
        raise k2.SpecError(f"no acceptance criterion matches {args.only!r}")
    for r in results:
        status = "pass" if r.passed else "FAIL"
        sys.stderr.write(f"[{status}] {r.name} ({r.seconds:.2f}s) {r.detail}\n")
    return {"result": {"criteria": [r.to_json() for r in results],
                       "all_pass": all(r.passed for r in results)}}


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="baire",
                                  description="exact Baire-space workbench")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("k2", help="codec, prefixes and application operators")
    p.add_argument("op", choices=["encode", "decode", "bar", "star", "bullet"])
    p.add_argument("--seq", default="")
    p.add_argument("--code", type=int, default=0)
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--fuel", type=int, default=16)
    p.add_argument("--track", action="store_true")
    p.set_defaults(run=_cmd_k2)

    p = sub.add_parser("reals", help="signed-digit exact reals")
    p.add_argument("op", choices=["approx", "from-rational", "compare", "max"])
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--q")
    p.add_argument("--prec", type=int, default=10)
    p.set_defaults(run=_cmd_reals)

    p = sub.add_parser("spaces", help="named metric spaces")
    p.add_argument("op", choices=["check", "dist"])
    p.add_argument("--space", required=True)
    p.add_argument("--name")
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--horizon", type=int, default=16)
    p.add_argument("--prec", type=int, default=10)
    p.set_defaults(run=_cmd_spaces)

    p = sub.add_parser("antispecker", help="compactness bases and realizers")
    p.add_argument("op", choices=["demo", "covers", "probe"])
    p.add_argument("--space", required=True)
    p.add_argument("--sequence", default="all-star")
    p.add_argument("--avoidance")
    p.add_argument("--theta")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--fuel", type=int, default=4000)
    p.add_argument("--budget", type=int, default=200)
    p.set_defaults(run=_cmd_antispecker)

    p = sub.add_parser("splitter", help="protected splitting")
    p.add_argument("op", choices=["run"])
    p.add_argument("--x", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(run=_cmd_splitter)

    p = sub.add_parser("rpt", help="rearranged-series settling index")
    p.add_argument("op", choices=["fabar", "decide"])
    p.add_argument("--a", required=True)
    p.add_argument("--p", default="identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--stages", type=int, default=None)
    p.set_defaults(run=_cmd_rpt)

    p = sub.add_parser("pc", help="window-diameter settling index")
    p.add_argument("op", choices=["realize"])
    p.add_argument("--x", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_pc)

    p = sub.add_parser("bdn", help="bound extraction and the adversary")
    p.add_argument("op", choices=["extract", "adversary"])
    p.add_argument("--g")
    p.add_argument("--h")
    p.add_argument("--alpha")
    p.add_argument("--fuel", type=int, default=20000)
    p.set_defaults(run=_cmd_bdn)

    p = sub.add_parser("selftest", help="run the acceptance scorecard")
    p.add_argument("--only", default=None)
    p.set_defaults(run=_cmd_selftest)

    return top


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_VALIDATION if e.code not in (0, None) else 0
    try:
        doc = args.run(args)
    except Exhaustion as e:
        return _emit(e.doc, EXIT_EXHAUSTED)
    except k2.Exhausted as e:
        return _emit({"result": e.to_json()}, EXIT_EXHAUSTED)
    except (k2.SpecError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_VALIDATION
    if args.command == "selftest" and not doc["result"]["all_pass"]:
        return _emit(doc, 1)
    return _emit(doc, EXIT_OK)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
