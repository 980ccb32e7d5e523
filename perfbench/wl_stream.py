"""``stream``: long computation paths with no shared prefixes.

Each op walks one path once: ``k2.star``/``bar``/``bullet`` at depth 16 to
22, where every step squares the sequence code; the bound extraction and
the continuity adversary of ``bdn``; nested ``reals.max_star`` with
``compare_prec`` at precision 100 to 400, where every digit re-sums the
approximation; ``dist_hat`` on product spaces; and README command lines
through in-process ``baire.cli.run``.  Nothing is reused across or within
ops, so a cache that pays off on ``probe`` shows its cost here.

Known defect, counted as failed ops: ``k2 bar --n 15..17`` and ``k2 encode``
with 16 or more entries are within the README's "depth ~20" but their codes
pass Python's 4300-digit int-to-str limit, so ``cli._emit`` raises an
uncaught ``ValueError`` (exit 1 and a traceback from the command line).
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction as Q

import refs

DEPTHS = range(16, 23)
PRECISIONS = (100, 200, 300, 400)
DIST_PRECISIONS = (32, 56, 80)
PRODUCTS = (
    ("product", ("cantor",), ("finite", 3)),
    ("product", ("product", ("cantor",), ("finite", 2)), ("cantor",)),
    ("product", ("cantor",), ("cantor",)),
    ("product", ("finite", 2), ("product", ("cantor",), ("cantor",))),
)
CANDIDATES = ("const", "parrot", "g_reader", "h_prober", "mixer")
CLI_REQUESTS = (
    "star", "bullet", "encode", "decode", "bar_10", "bar_12",
    "from_rational", "reals_max", "spaces_dist", "antispecker_demo",
    "antispecker_probe", "splitter", "rpt", "pc", "bdn_adversary",
    # int -> str defect: codes of these lengths pass 4300 decimal digits
    "bar_15", "bar_16", "bar_17", "encode_16", "encode_18",
)

# fifty-five shapes, so that the median and the 90th percentile fall mid-shape
SCHEDULE = ([(op, d) for d in DEPTHS for op in ("star", "bar", "bullet")]
            + [("reals", p) for p in PRECISIONS]
            + [("dist", p) for p in DIST_PRECISIONS]
            + [("adversary", c) for c in CANDIDATES]
            + [("extract", None)] * 2
            + [("cli", r) for r in CLI_REQUESTS])
# the leading values set the size of every later code, and so the cost of a
# k2 op; they are fixed so that the depth alone sets it
K2_LEAD = (2, 1, 3, 1, 2, 2, 0, 3, 1, 2)
# the density of nonzero signed digits sets the cost of max_star, and it
# depends on the fractional part alone; the seed picks the integer parts
REAL_FRACTIONS = (Q(1, 3), Q(2, 7), Q(5, 11))
BULLET_K = 2


# -- inputs --------------------------------------------------------------------


def _bits_after(values, length: int) -> int:
    """Predicted bit length of the code of the first ``length`` values: exact
    for eight steps, then each step squares the code (doubling the bits)."""
    code = refs.code_of(values[:min(length, 8)])
    bits = code.bit_length()
    for _ in range(8, length):
        bits = 2 * bits - 1
    return bits


def _k2_input(rng, op: str, depth: int) -> dict:
    table = K2_LEAD + tuple(rng.randrange(0, 4) for _ in range(depth + 2 - len(K2_LEAD)))
    p = {"kind": op, "depth": depth, "table": table, "tail": rng.randrange(0, 4),
         "k": BULLET_K, "answer": rng.randrange(0, 1000), "threshold": None}
    if op == "star":
        # f answers once the code outgrows the midpoint between the codes of
        # length depth-2 and depth-1, so the scan fires at its last step;
        # bullet's f never answers, so its scan exhausts the fuel
        lo, hi = _bits_after(table, depth - 2), _bits_after(table, depth - 1)
        p["threshold"] = (lo + hi) // 2
    return p


def _point(rng, space):
    if space[0] == "cantor":
        word = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 24)))
        return ("cantor", word, rng.randrange(2))
    if space[0] == "finite":
        return ("finite", space[1], rng.randrange(1, space[1] + 1))
    return ("product", _point(rng, space[1]), _point(rng, space[2]))


def _near(rng, q: Q) -> Q:
    """A rational equal to q, just off it, or far from it."""
    return q + rng.choice((0, 1, -1, 7, -7)) * Q(1, rng.randrange(1, 64))


def _cli_input(rng, req: str) -> dict:
    c = rng.randrange(1, 10)
    if req == "star":
        return {"argv": ["k2", "star", "--f", "const:0", "--g", f"const:{c}",
                         "--fuel", str(rng.randrange(8, 13))], "exit": 3}
    if req == "bullet":
        return {"argv": ["k2", "bullet", "--f", "const:0", "--g", f"const:{c}",
                         "--k", str(rng.randrange(0, 9)), "--fuel",
                         str(rng.randrange(8, 13))], "exit": 3}
    if req.startswith("encode"):
        n = int(req.split("_")[1]) if "_" in req else rng.randrange(3, 9)
        seq = [rng.randrange(1, 10) for _ in range(n)]
        return {"argv": ["k2", "encode", "--seq", ",".join(map(str, seq))],
                "exit": 0, "code": refs.code_of(seq)}
    if req == "decode":
        seq = [rng.randrange(0, 10) for _ in range(rng.randrange(1, 6))]
        return {"argv": ["k2", "decode", "--code", str(refs.code_of(seq))],
                "exit": 0, "seq": seq}
    if req.startswith("bar"):
        n = int(req.split("_")[1])
        return {"argv": ["k2", "bar", "--f", f"const:{c}", "--n", str(n)],
                "exit": 0, "code": refs.code_of([c] * n)}
    if req == "from_rational":
        q = Q(rng.randrange(-40, 41), rng.randrange(1, 30))
        prec = rng.randrange(10, 31)
        return {"argv": ["reals", "from-rational", f"--q={q.numerator}/{q.denominator}",
                         "--prec", str(prec)], "exit": 0, "near": q, "prec": prec}
    if req == "reals_max":
        a = Q(rng.randrange(-40, 41), rng.randrange(1, 30))
        b = Q(rng.randrange(-40, 41), rng.randrange(1, 30))
        prec = rng.randrange(5, 31)
        return {"argv": ["reals", "max", "--x", json.dumps({"rational": str(a)}),
                         "--y", json.dumps({"rational": str(b)}), "--prec", str(prec)],
                "exit": 0, "near": max(a, b), "prec": prec}
    if req == "spaces_dist":
        p, q = _point(rng, ("cantor",)), _point(rng, ("cantor",))
        names = [{"table": [[i, b + 1] for i, b in enumerate(pt[1])],
                  "tail": {"kind": "constant", "value": pt[2] + 1}} for pt in (p, q)]
        return {"argv": ["spaces", "dist", "--space", '{"kind":"cantor"}',
                         "--f", json.dumps(names[0]), "--g", json.dumps(names[1])],
                "exit": 0, "dist": refs.dist(p, q)}
    if req == "antispecker_demo":
        return {"argv": ["antispecker", "demo", "--space", '{"kind":"cantor"}',
                         "--sequence", "all-star"], "exit": 0}
    if req == "antispecker_probe":
        return {"argv": ["antispecker", "probe", "--space",
                         json.dumps({"kind": "finite", "n": rng.randrange(2, 4)}),
                         "--budget", str(rng.randrange(3, 7))], "exit": 0}
    if req == "splitter":
        x = Q(rng.randrange(1, 9), rng.randrange(1, 9))
        return {"argv": ["splitter", "run", "--x",
                         json.dumps({"prefix": [str(x)], "tail": {"kind": "zero"}}),
                         "--b", "dyadic", "--stages", "1", "--verify"], "exit": 0}
    if req == "rpt":
        return {"argv": ["rpt", "fabar", "--a",
                         '{"prefix":["1"],"tail":{"kind":"constant","value":"1"}}',
                         "--n", str(rng.randrange(1, 5))], "exit": 0}
    if req == "pc":
        return {"argv": ["pc", "realize", "--x",
                         '{"prefix":[],"tail":{"kind":"geometric","base":"1","ratio":"1/2"}}',
                         "--f", '{"tail":{"kind":"registry","name":"identity"}}',
                         "--g", "identity", "--n", str(rng.randrange(0, 8))],
                "exit": 0, "index": 0}
    # const:1 answers 0 on every prefix, which no evaluation can use
    return {"argv": ["bdn", "adversary", "--alpha", f"const:{max(c, 2)}"], "exit": 0}


def make(rng, shape) -> dict:
    op, size = shape
    if op in ("star", "bar", "bullet"):
        return _k2_input(rng, op, size)
    if op == "reals":
        fracs = list(REAL_FRACTIONS)
        rng.shuffle(fracs)
        qs = tuple(rng.randrange(-30, 31) + f for f in fracs)
        k = size // 2
        return {"kind": "reals", "prec": size, "qs": qs, "k": k,
                "q": _near(rng, max(qs))}
    if op == "dist":
        space = PRODUCTS[rng.randrange(len(PRODUCTS))]
        return {"kind": "dist", "prec": size, "space": space,
                "p": _point(rng, space), "q": _point(rng, space)}
    if op == "adversary":
        return {"kind": "adversary", "candidate": size, "param": rng.randrange(2, 7)}
    if op == "extract":
        bound = rng.randrange(1, 12)
        return {"kind": "extract", "bound": bound,
                "table": tuple(rng.randrange(bound) for _ in range(rng.randrange(0, 10))),
                "tail": rng.randrange(bound), "answer_len": rng.randrange(0, 5)}
    return {"kind": "cli", "request": size, **_cli_input(rng, size)}


# -- k2 ------------------------------------------------------------------------


def _g_fn(p):
    table, tail = p["table"], p["tail"]
    return lambda n: table[n] if n < len(table) else tail


def _f_fn(p):
    threshold, answer = p["threshold"], p["answer"] + 1
    if threshold is None:
        return lambda code: 0
    return lambda code: answer if code.bit_length() > threshold else 0


def _tracked(api, fn, label):
    return api.k2.with_usage_tracking(api.k2.Oracle(fn, label=label))


def run_k2(api, calls, p):
    k2 = api.k2
    g, mg = _tracked(api, _g_fn(p), "bench-g")
    if p["kind"] == "bar":
        return calls.call("k2", k2.bar, g, p["depth"]), (mg,)
    f, mf = _tracked(api, _f_fn(p), "bench-f")
    if p["kind"] == "star":
        return calls.call("k2", k2.star, f, g, p["depth"]), (mf, mg)
    fueled = k2.bullet(f, g)
    return calls.call("k2", fueled.query, p["k"], p["depth"]), (mf, mg)


def check_k2(api, p, out, counts):
    got, meters = out
    counts["k2.oracle_queries"] += sum(m.count for m in meters)
    g = _g_fn(p)
    if p["kind"] == "bar":
        want = refs.code_of([g(n) for n in range(p["depth"])])
        return None if got == want else f"bar at depth {p['depth']} differs"
    if p["kind"] == "bullet":
        # f never answers, so by definition the scan spends all its fuel
        want = (None, p["depth"], None)
    else:
        want = refs.star(_f_fn(p), g, p["depth"])
    have = (got.value, got.spent, got.fired_at)
    return None if have == want else f"{p['kind']}: {have} != {want}"


# -- reals ---------------------------------------------------------------------


def run_reals(api, calls, p):
    reals = api.reals
    xs = [reals.from_rational(q) for q in p["qs"]]
    m = reals.max_star(reals.max_star(xs[0], xs[1]), xs[2])
    approx = calls.call("reals", m.approx, p["prec"])
    verdict = calls.call("reals", reals.compare_prec, m, p["q"], p["k"])
    return approx, verdict.value


def check_reals(api, p, out, counts):
    approx, verdict = out
    top = max(p["qs"])
    if abs(approx - top) > Q(1, 2 ** p["prec"]):
        return f"max approximation off by {abs(approx - top)} at precision {p['prec']}"
    q, k = p["q"], p["k"]
    sound = {"below": top < q, "above": top > q,
             "within": abs(top - q) <= Q(3, 2 ** (k + 1))}
    return None if sound.get(verdict) else f"compare_prec said {verdict} for {top} vs {q}"


# -- naming --------------------------------------------------------------------


def _name(api, point):
    k2 = api.k2
    if point[0] == "cantor":
        return k2.TableOracle({i: b + 1 for i, b in enumerate(point[1])},
                              point[2] + 1, label="bench-cantor")
    if point[0] == "finite":
        return k2.constant(point[2], label="bench-finite")
    return k2.pair_names(_name(api, point[1]), _name(api, point[2]))


def _space_doc(space):
    if space[0] == "cantor":
        return {"kind": "cantor"}
    if space[0] == "finite":
        return {"kind": "finite", "n": space[1]}
    return {"kind": "product", "left": _space_doc(space[1]),
            "right": _space_doc(space[2])}


def run_dist(api, calls, p):
    space = api.naming.parse_space_spec(_space_doc(p["space"]))
    stream = calls.call("naming", space.dist_hat, _name(api, p["p"]), _name(api, p["q"]))
    return calls.call("reals", stream.approx, p["prec"])


def check_dist(api, p, out, counts):
    want = refs.dist(p["p"], p["q"])
    if abs(out - want) > Q(1, 2 ** p["prec"]):
        return f"dist_hat approximation {out} is not within 2^-{p['prec']} of {want}"
    return None


# -- bdn -----------------------------------------------------------------------


def _candidate(name: str, param: int):
    """Deterministic candidate bound computers over (value, argument) codes,
    the shapes the acceptance scorecard refutes, with a seeded parameter."""
    if name == "const":
        return lambda code: param
    if name == "parrot":
        def parrot(code):
            s = refs.decode(code)
            return s[0] + param if s else 0
        return parrot
    if name == "g_reader":
        def g_reader(code):
            s = refs.decode(code)
            if s:
                gvals = refs.decode(s[0])
                if len(gvals) >= 2:
                    return max(gvals) + 2
            return 1 if len(s) >= param + 4 else 0
        return g_reader
    if name == "h_prober":
        def h_prober(code):
            s = refs.decode(code)
            return s[1] + param if len(s) >= 2 else 0
        return h_prober

    def mixer(code):
        s = refs.decode(code)
        return (s[1] + s[2]) % (param + 3) + 2 if len(s) >= 4 else 0
    return mixer


def _apply_ref(alpha, h, g):
    """Value of ((alpha . h) * g) by the definition, without a fuel tank."""
    def inner(m):
        value, _, _ = refs.star(alpha, lambda n: m if n == 0 else h(n - 1), 21)
        return 0 if value is None else value
    return refs.star(inner, g, 21)[0]


def run_adversary(api, calls, p):
    alpha, meter = _tracked(api, _candidate(p["candidate"], p["param"]), "bench-alpha")
    return calls.call("bdn", api.bdn.adversary_refute, alpha), meter


def check_adversary(api, p, out, counts):
    report, meter = out
    counts["k2.oracle_queries"] += meter.count
    counts["bdn.transcript_reads"] += sum(len(t.h_reads) + len(t.g_reads)
                                          for t in report.transcripts)
    if report.verdict != "refuted":
        return f"{p['candidate']}: verdict {report.verdict} ({report.reason})"
    want = _apply_ref(_candidate(p["candidate"], p["param"]), lambda n: 2, lambda n: 0)
    if report.k != want:
        return f"{p['candidate']}: pinned value {report.k}, by definition {want}"
    if report.g1_spec is not None:
        g1 = report.g1_spec
        below_a = all(v == 0 for i, v in g1["table"]) and len(g1["table"]) == report.a
        if not (below_a and g1["tail"]["value"] == report.k + 1):
            return f"{p['candidate']}: rebuilt argument {g1} is not the adversary's"
    return None


def run_extract(api, calls, p):
    k2 = api.k2
    bound, length = p["bound"], p["answer_len"]
    g = k2.TableOracle(dict(enumerate(p["table"])), p["tail"], label="bench-g")
    h, meter = _tracked(
        api, lambda code: bound + 1 if refs.seq_len(code) >= length else 0, "bench-h")
    return calls.call("bdn", api.bdn.extract_bound, g, h, 50), meter


def check_extract(api, p, out, counts):
    got, meter = out
    counts["k2.oracle_queries"] += meter.count
    bound, length = p["bound"], p["answer_len"]
    want = refs.extract_bound(lambda code: bound + 1 if refs.seq_len(code) >= length
                              else 0, 50)
    if got != want:
        return f"extract_bound {got} != {want}"
    if not all(v < got for v in p["table"] + (p["tail"],)):
        return f"extracted {got} is no strict bound"
    return None


# -- cli -----------------------------------------------------------------------


def run_cli(api, calls, p):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = calls.call("cli", api.cli.run, list(p["argv"]))
    return code, out.getvalue()


def check_cli(api, p, out, counts):
    code, stdout = out
    counts["cli.output_bytes"] += len(stdout.encode())
    doc, err = refs.cli_document(stdout)
    if err:
        return f"{p['request']}: {err}"
    if code not in (0, 2, 3):
        return f"{p['request']}: exit code {code}"
    if "code" in p and code in (2, 3):
        # refusing a code too long to print is within the contract
        return None
    if code != p["exit"]:
        return f"{p['request']}: exit code {code}, expected {p['exit']}"
    result = doc.get("result", {})
    if "code" in p and int(result.get("code", -1)) != p["code"]:
        return f"{p['request']}: code differs from the reference encoder"
    if "seq" in p and result.get("seq") != p["seq"]:
        return f"{p['request']}: decoded {result.get('seq')}, want {p['seq']}"
    if "near" in p and abs(Q(result["approx"]) - p["near"]) > Q(1, 2 ** p["prec"]):
        return f"{p['request']}: {result['approx']} not within 2^-{p['prec']}"
    if "dist" in p and Q(result["dist"]) != p["dist"]:
        return f"{p['request']}: dist {result['dist']} != {p['dist']}"
    if "index" in p and result.get("index") != p["index"]:
        return f"{p['request']}: index {result.get('index')} != {p['index']}"
    return None


KINDS = {"star": (run_k2, check_k2), "bar": (run_k2, check_k2),
         "bullet": (run_k2, check_k2), "reals": (run_reals, check_reals),
         "dist": (run_dist, check_dist), "adversary": (run_adversary, check_adversary),
         "extract": (run_extract, check_extract), "cli": (run_cli, check_cli)}
