"""Checkers of the documents the command line prints, field by field.

A checker reads one (group, op) of ``cli.COMMANDS``: the options of a
command line, parsed as ``baire`` parses them, and the ``result`` of the
document it printed with exit 0 or 3.  It returns the conditions the
document fails, empty when every field it checks holds.  It recomputes
each field from its definition, with `Fraction`s where it is rational,
and never calls the function that produced the field.

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

* ``antispecker demo``: ``spent`` at most the fuel, and equal to the
  ``spent`` of ``antispecker_reference.trie_walk_realizer`` over the
  reference builtin base; an answer by
  ``antispecker_reference.check_outcome``, its ``member_index`` the
  least reference member equal to the certificate.
* ``antispecker probe``: each member covers by points
  (``acceptance._covers_by_points``), and ``evals_spent`` is at most the
  budget.
* ``k2 star`` and ``k2 bullet``: ``spent`` at most the fuel; f answers 0
  on the code of each prefix of the argument the scan read, built here
  by a separate Cantor pairing, but for a value, which fired at
  ``spent - 1``, where f answers value + 1.
* ``k2 encode`` and ``k2 bar``: the code unpairs, by the checker's own
  unpairing, to ``--seq`` or to f(0), ..., f(n - 1).  Where the code
  built by ``_code_step`` has at most ``BUILD_BITS`` bits, a refusal
  needs it past the digit limit, and a refusal's ``code_bits`` is its bit
  length; past that, ``code_bits`` is at least the lower bound below.  A
  refusal's ``code_bits_log2_min`` m has 2^m at most that bit length or
  lower bound.  The bound: an entry a takes a b-bit code to at least
  max(2b, 2 bits(a)) - 2 bits, since the code is then above s^2 / 2 with
  s = code + a.
* ``k2 decode``: the sequence re-encodes by ``_code_step`` to the code,
  and no code that the option parses decodes to a refusal.

A refusal (exit 3, a ``k2.Exhausted`` with its ``error`` and ``reason``)
has its reason checked, which must be one of the four typed ones; the
checkers of the ops in ``READS_REFUSALS`` then read its other fields.

``UNCHECKED`` names every other (group, op), with what a checker of it
would read; a checker takes its (group, op) off that list.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import antispecker_reference as aspk_ref
import cauchy_reference as ref
from baire import acceptance, cauchy, cli, k2
from baire import antispecker as aspk

# the reasons a ``k2.Exhausted`` may carry
REASONS = ("fuel", "depth", "state", "budget")

# the ops whose checkers read the fields of a refusal too
READS_REFUSALS = {("k2", "encode"), ("k2", "decode"), ("k2", "bar")}


def options(argv) -> dict:
    """The values of a command line's options, parsed from its text."""
    args = cli._parser().parse_args(list(argv))
    return cli._values(args, cli.COMMANDS[args.command, args.op][1])


def check(argv, doc: dict) -> list[str]:
    """The conditions the document that ``argv`` printed fails."""
    result = doc["result"]
    op = tuple(argv[:2])
    if "error" in result:
        reason = result.get("reason")
        if reason not in REASONS:
            return [f"refused for {reason!r}"]
        if op not in READS_REFUSALS:
            return []
    return CHECKERS[op](options(argv), result)


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


def _within(spent: int, fuel: int, what: str = "fuel") -> list[str]:
    return [] if spent <= fuel else [f"spent {spent} is past the {what} {fuel}"]


def _member_index(space, theta: aspk.Theta, below: int):
    """The least index below ``below`` of a reference builtin member equal
    to theta, None if there is none; a member is read only as far as
    theta's size and one atom more."""
    base = aspk_ref.reference_builtin_base(space)
    size = len(theta.atoms)
    for i in range(below):
        atoms = tuple(itertools.islice(base.iter_atoms(i), size + 1))
        if len(atoms) == size and aspk.Theta(atoms) == theta:
            return i
    return None


def check_demo(opts: dict, result: dict) -> list[str]:
    space, seq, fuel = opts["space"], opts["sequence"], opts["fuel"]
    h = opts["avoidance"](seq)
    spent = result["spent"]
    failed = _within(spent, fuel)
    walk = aspk_ref.trie_walk_realizer(aspk_ref.reference_builtin_base(space))
    want = walk.evaluate(seq, h, fuel).result.spent
    if spent != want:
        failed.append(f"spent {spent} is not the reference's {want}")
    if result["value"] == "exhausted":
        return failed
    certificate = aspk.parse_theta(result["certificate"])
    # each member the search reaches costs at least one step
    index = _member_index(space, certificate, spent)
    if index is None:
        return failed + ["the certificate is no member of the reference base"]
    outcome = aspk.EvalOutcome(k2.PartialResult.of(result["value"], spent),
                               certificate=certificate, bound=result["bound"],
                               member_index=index)
    return failed + aspk_ref.check_outcome(space, seq, h, outcome)


def check_probe(opts: dict, result: dict) -> list[str]:
    space = opts["space"]
    failed = _within(result["evals_spent"], opts["budget"], "budget")
    return failed + [f"member {k} does not cover by points"
                     for k, member in enumerate(result["members"])
                     if not acceptance._covers_by_points(aspk.parse_theta(member),
                                                          space)]


def _code_step(code: int, a: int) -> int:
    """The code of a sequence extended by a: its Cantor pair with a, + 1."""
    s = code + a
    return s * (s + 1) // 2 + a + 1


def _check_scan(f, g, fuel: int, result: dict) -> list[str]:
    """The fields of a star scan of f along g."""
    spent = result["spent"]
    fired = result["kind"] == "value"
    if spent > fuel:
        return _within(spent, fuel)
    if fired and result["fired_at"] != spent - 1:
        return [f"fired_at {result['fired_at']} is not spent - 1 = {spent - 1}"]
    code = 0
    for n in range(spent):
        want = result["value"] + 1 if fired and n == spent - 1 else 0
        got = f(code)
        if got != want:
            return [f"f answers {got}, not {want}, on the prefix of length {n}"]
        if n + 1 < spent:
            code = _code_step(code, g(n))
    return []


def check_star(opts: dict, result: dict) -> list[str]:
    return _check_scan(opts["f"], opts["g"], opts["fuel"], result)


def check_bullet(opts: dict, result: dict) -> list[str]:
    k, g = opts["k"], opts["g"]
    return _check_scan(opts["f"], lambda i: k if i == 0 else g(i - 1),
                       opts["fuel"], result)


# the largest code, in bits, that a checker builds
BUILD_BITS = 1 << 20


def _unpair_seq(code: int) -> list[int]:
    """The sequence whose code is ``code``, by inverting ``_code_step``:
    code - 1 is the Cantor pair of the shorter code and the last entry."""
    seq = []
    while code > 0:
        z = code - 1
        s = (math.isqrt(8 * z + 1) - 1) // 2
        a = z - s * (s + 1) // 2
        seq.append(a)
        code = s - a
    return seq[::-1]


def _code_bits(seq) -> tuple[int, bool]:
    """The bit length of the code of seq and True, where the code built by
    ``_code_step`` has at most ``BUILD_BITS`` bits; else a lower bound on
    it and False.  A step whose code may pass ``BUILD_BITS`` is bounded,
    not built, and so is every later one."""
    code = 0
    for k, a in enumerate(seq):
        if 2 * max(code.bit_length(), a.bit_length()) + 1 > BUILD_BITS:
            break
        code = _code_step(code, a)
    else:
        return code.bit_length(), True
    bits = code.bit_length()
    for a in seq[k:]:
        bits = max(2 * bits, 2 * a.bit_length(), 3) - 2
    return bits, False


def _check_code(seq: list, result: dict) -> list[str]:
    """The fields of the code of seq, answered or refused."""
    if "code" in result:
        got = _unpair_seq(result["code"])
        return [] if got == seq else [f"the code unpairs to {got}, not {seq}"]
    bits, exact = _code_bits(seq)
    if exact and bits < (10 ** cli.DIGIT_LIMIT).bit_length():
        return [f"a code of {bits} bits is under the digit limit"]
    if "code_bits" in result:
        got = result["code_bits"]
        if exact and got != bits:
            return [f"code_bits {got} is not the built code's {bits}"]
        return [] if got >= bits else [f"code_bits {got} is below the bound {bits}"]
    if "code_bits_log2_min" in result:
        m = result["code_bits_log2_min"]
        return [] if 0 <= m <= bits.bit_length() - 1 else \
            [f"code_bits_log2_min {m} is past log2 of {bits}"]
    return ["a refusal with neither code_bits nor code_bits_log2_min"]


def check_encode(opts: dict, result: dict) -> list[str]:
    return _check_code(opts["seq"], result)


def check_bar(opts: dict, result: dict) -> list[str]:
    f = opts["f"]
    return _check_code([f(k) for k in range(opts["n"])], result)


def check_decode(opts: dict, result: dict) -> list[str]:
    if "seq" not in result:
        return ["a decode refused, though no entry is longer than the code"]
    code = 0
    for a in result["seq"]:
        code = _code_step(code, a)
    want = opts["code"]
    return [] if code == want else [f"the sequence encodes to {code}, not {want}"]


CHECKERS = {
    ("rpt", "fabar"): check_fabar,
    ("rpt", "decide"): check_decide,
    ("antispecker", "demo"): check_demo,
    ("antispecker", "probe"): check_probe,
    ("k2", "star"): check_star,
    ("k2", "bullet"): check_bullet,
    ("k2", "encode"): check_encode,
    ("k2", "decode"): check_decode,
    ("k2", "bar"): check_bar,
}

UNCHECKED = {
    ("reals", "approx"): "not yet checked: within 2^-prec of the exact value",
    ("reals", "from-rational"): "not yet checked: within 2^-prec of the rational",
    ("reals", "compare"): "not yet checked: the comparison of the exact values",
    ("reals", "max"): "not yet checked: within 2^-prec of the exact maximum",
    ("spaces", "check"): "not yet checked: membership from the name's entries",
    ("spaces", "dist"): "not yet checked: the exact metric, and the stream within 2^-prec",
    ("antispecker", "covers"): "not yet checked: the reference covers, and a witness "
                               "cell inside no atom",
    ("splitter", "run"): "not yet checked: the reference verify_clearances",
    ("pc", "realize"): "not yet checked: a brute scan of the windows [m, g(m)]",
    ("bdn", "extract"): "not yet checked: spent is at most the fuel",
    ("bdn", "adversary"): "not yet checked: replay the pair against the candidate",
    ("selftest", None): "not yet checked: prints timings; the pytest gate runs "
                        "the same criteria",
}
