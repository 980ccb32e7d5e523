"""Checkers of the documents the command line prints, field by field.

A checker reads one (group, op) of ``cli.COMMANDS``: the options of a
command line, parsed as ``baire`` parses them, and the ``result`` of the
document it printed with exit 0.  It returns the conditions the document
fails, empty when every field it checks holds.  It recomputes each field
from its definition with `Fraction`s, and never calls the function that
produced the field.

* ``rpt fabar``: ``settling_index`` against a scan of every window of the
  rearranged series.
* ``rpt decide``: a window witness by ``check_window_witness``, a tail
  certificate by ``check_tail_certificate`` (``tests/cauchy_reference.py``),
  the certificate's modulus being the reference ``exact_modulus``.

Both read the series ``cauchy.split_series_for`` builds from the options:
the split is the input of the fields checked here, and has checks of its
own (``verify_clearances`` and the reference splitter).  The window scan
costs the square of the series' length, so it suits series of about a
hundred entries.

``UNCHECKED`` names every other (group, op), with what a checker of it
would read; a checker takes its (group, op) off that list.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import cauchy_reference as ref
from baire import cauchy, cli


def options(argv) -> dict:
    """The values of a command line's options, parsed from its text."""
    args = cli._parser().parse_args(list(argv))
    return cli._values(args, cli.COMMANDS[args.command, args.op][1])


def check(argv, doc: dict) -> list[str]:
    """The conditions the document that ``argv`` printed fails."""
    return CHECKERS[tuple(argv[:2])](options(argv), doc["result"])


def _ledger(opts: dict) -> cauchy.SplitterLedger:
    return cauchy.split_series_for(opts["a"], stages=opts["stages"]).ledger


def least_settled_start(ledger, p: cauchy.PermutationSpec, n: int) -> int:
    """The least m such that every window [i, j] with m <= i <= j of the
    rearranged series sums below 2^-n in absolute value: one past the last
    row i with a window that reaches 2^-n.  Past the ledger's entries and
    p's support every rearranged entry is zero, so the rows end there."""
    flat = ledger.flat
    end = max(len(flat), p.support_end)
    values = [flat[p(k)] if p(k) < len(flat) else Fraction(0) for k in range(end)]
    sums = list(itertools.accumulate(values, initial=Fraction(0)))
    bound = Fraction(1, 2 ** n)
    reaching = [i for i in range(end)
                if any(abs(t - sums[i]) >= bound for t in sums[i + 1:])]
    return reaching[-1] + 1 if reaching else 0


def check_fabar(opts: dict, result: dict) -> list[str]:
    want = least_settled_start(_ledger(opts), opts["p"], opts["n"])
    got = result.get("settling_index")
    return [] if got == want else \
        [f"settling_index {got} is not the least settled start {want}"]


def check_decide(opts: dict, result: dict) -> list[str]:
    ledger, p, m, n = _ledger(opts), opts["p"], opts["m"], opts["n"]
    case = result.get("case")
    if case == "window":
        return ref.check_window_witness(
            ledger, p, m, n, cauchy.WindowWitness(result["i"], result["j"]))
    if case == "tail":
        f = ref.exact_modulus(opts["a"], 0)
        cert = cauchy.TailCertificate(result["n0"], result["n1"], result["k0"])
        return ref.check_tail_certificate(ledger, p, m, n, f, cert)
    return [f"case {case!r} is neither window nor tail"]


CHECKERS = {
    ("rpt", "fabar"): check_fabar,
    ("rpt", "decide"): check_decide,
}

UNCHECKED = {
    ("k2", "encode"): "not yet checked: decode the code by a separate unpairing",
    ("k2", "decode"): "not yet checked: encode the sequence again",
    ("k2", "bar"): "not yet checked: decode the code by a separate unpairing",
    ("k2", "star"): "not yet checked: spent is at most the fuel",
    ("k2", "bullet"): "not yet checked: spent is at most the fuel",
    ("reals", "approx"): "not yet checked: within 2^-prec of the exact value",
    ("reals", "from-rational"): "not yet checked: within 2^-prec of the rational",
    ("reals", "compare"): "not yet checked: the comparison of the exact values",
    ("reals", "max"): "not yet checked: within 2^-prec of the exact maximum",
    ("spaces", "check"): "not yet checked: membership from the name's entries",
    ("spaces", "dist"): "not yet checked: the exact metric, and the stream within 2^-prec",
    ("antispecker", "demo"): "not yet checked: the certificate by "
                             "antispecker_reference.check_outcome",
    ("antispecker", "covers"): "not yet checked: the reference covers, and a witness "
                               "cell inside no atom",
    ("antispecker", "probe"): "not yet checked: each member covers by points",
    ("splitter", "run"): "not yet checked: the reference verify_clearances",
    ("pc", "realize"): "not yet checked: a brute scan of the windows [m, g(m)]",
    ("bdn", "extract"): "not yet checked: spent is at most the fuel",
    ("bdn", "adversary"): "not yet checked: replay the pair against the candidate",
    ("selftest", None): "not yet checked: prints timings; the pytest gate runs "
                        "the same criteria",
}
