"""The acceptance scorecard: one check per shipped guarantee.

Every check draws its inputs from a fixed seed and verifies the package
against an independently coded oracle (brute-force scans, exhaustive
enumeration, exact rational arithmetic), printing one pass or fail line
through the selftest command.  Tolerances are exact equality unless the
contract itself is approximation-indexed, in which case the stated 2^-k
bound is checked with exact rationals.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import antispecker as aspk
from . import bdn, cauchy, k2, naming, reals


@dataclass
class CriterionResult:
    name: str
    ok: bool
    detail: str
    seconds: float
    limit: float

    @property
    def passed(self) -> bool:
        """The verdict of the pytest gate: correct, and inside the limit."""
        return self.ok and self.seconds < self.limit

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail,
                "seconds": round(self.seconds, 3), "limit": self.limit}


# ---------------------------------------------------------------------------
# 1. application operators: locality, fuel monotonicity, codec
# ---------------------------------------------------------------------------


def _random_table_oracle(rng: random.Random, size: int = 8, cap: int = 8) -> k2.TableOracle:
    table = {i: rng.randrange(cap) for i in range(rng.randrange(size + 1))}
    return k2.TableOracle(table, rng.randrange(cap), label="rand")


def _random_answering_oracle(rng: random.Random) -> k2.Oracle:
    a = rng.randrange(1, 1000)
    b = rng.randrange(1000)
    m = rng.randrange(5, 30)
    thresh = rng.randrange(1, m)
    return k2.Oracle(lambda c: (a * (c % 100003) + b) % m
                     if (a * (c % 100003) + b) % m < thresh else 0,
                     label="rand-answer")


def criterion_locality_fuel() -> tuple[bool, str]:
    rng = random.Random(101)
    msgs: list[str] = []
    values = 0
    for trial in range(200):
        f = _random_answering_oracle(rng)
        g = _random_table_oracle(rng)
        fuel = rng.randrange(2, 12)
        r = k2.star(f, g, fuel)
        r2 = k2.star(f, g, fuel + 7)
        if r.is_value:
            values += 1
            if r2.value != r.value:
                msgs.append(f"trial {trial}: fuel monotonicity broke")
            # change g strictly past the firing index: same value, same index
            table = {i: g(i) for i in range(r.fired_at)}
            table.update({r.fired_at + d: g(r.fired_at + d) + 1 for d in range(4)})
            g_alt = k2.TableOracle(table, g.tail_value + 1, label="alt")
            r3 = k2.star(f, g_alt, fuel)
            if not (r3.is_value and r3.value == r.value
                    and r3.fired_at == r.fired_at):
                msgs.append(f"trial {trial}: determination locality broke")
        elif r2.is_value and r2.fired_at < fuel:
            msgs.append(f"trial {trial}: exhausted at {fuel} yet fired at {r2.fired_at}")
    for code in range(10 ** 4):
        if k2.encode_seq(k2.decode_seq(code)) != code:
            msgs.append(f"codec round trip failed at {code}")
            break
    for _ in range(200):
        s = [rng.randrange(50) for _ in range(rng.randrange(6))]
        if list(k2.decode_seq(k2.encode_seq(s))) != s:
            msgs.append(f"codec round trip failed on {s}")
            break
    detail = msgs[0] if msgs else f"200 pairs ({values} valued), codes < 10^4"
    return not msgs, detail


# ---------------------------------------------------------------------------
# 2. signed-digit contract
# ---------------------------------------------------------------------------


def criterion_signed_digit() -> tuple[bool, str]:
    rng = random.Random(202)
    msgs: list[str] = []
    for trial in range(100):
        q = Fraction(rng.randrange(-2000, 2001), rng.randrange(1, 64))
        x = reals.from_rational(q)
        for prec in range(31):
            if abs(x.approx(prec) - q) > Fraction(1, 2 ** prec):
                msgs.append(f"approx bound failed for {q} at {prec}")
                break
    for trial in range(100):
        p = Fraction(rng.randrange(-400, 401), rng.randrange(1, 48))
        q = Fraction(rng.randrange(-400, 401), rng.randrange(1, 48))
        m = reals.max_star(reals.from_rational(p), reals.from_rational(q))
        if abs(m.approx(20) - max(p, q)) > Fraction(1, 2 ** 20):
            msgs.append(f"max lifting off at ({p}, {q})")
    detail = msgs[0] if msgs else "100 rationals to 2^-30; max lifting at 2^-20"
    return not msgs, detail


# ---------------------------------------------------------------------------
# 3. metric coherence
# ---------------------------------------------------------------------------


def criterion_metric_coherence() -> tuple[bool, str]:
    rng = random.Random(303)
    msgs: list[str] = []
    spaces = [naming.CantorSpace(), naming.FiniteSpace(5),
              naming.ProductSpace(naming.CantorSpace(), naming.CantorSpace())]
    eps = Fraction(1, 2 ** 20)
    for sp in spaces:
        for _ in range(100):
            p, q = sp.sample_point(rng), sp.sample_point(rng)
            exact = sp.dist(p, q)
            stream = sp.dist_hat(sp.canonical_name(p), sp.canonical_name(q))
            if abs(stream.approx(20) - exact) > eps:
                msgs.append(f"{sp.space_id}: stream disagrees on {p!r},{q!r}")
                break
        for _ in range(100):
            p, q, r = (sp.sample_point(rng) for _ in range(3))
            dpq, dqp = sp.dist(p, q), sp.dist(q, p)
            if dpq != dqp or sp.dist(p, p) != 0 or dpq > 1 \
                    or sp.dist(p, r) > dpq + sp.dist(q, r):
                msgs.append(f"{sp.space_id}: metric axiom failed")
                break
    detail = msgs[0] if msgs else "3 spaces, 100 pairs at 2^-20, 100 exact triples"
    return not msgs, detail


# ---------------------------------------------------------------------------
# 4 & 6. settling-index exactness and the base round trip
# ---------------------------------------------------------------------------


def _random_star_sequence(rng: random.Random, sp: naming.Space
                          ) -> naming.NameSequence:
    length = rng.randrange(0, 12)
    prefix = []
    for _ in range(length):
        if rng.random() < 0.3:
            prefix.append(k2.star_name())
        else:
            prefix.append(sp.canonical_name(sp.sample_point(rng)))
    return naming.NameSequence(tuple(prefix), "star")


_SUITE_SHAPES = ((0, 0), (1, 0), (2, 1), (3, 0), (0, 2))


def build_exactness_suite(rng: random.Random):
    """The shared suite: 25 sequences per space, 5 avoidance names each,
    depths up to 3 (including the deliberately deep answerers)."""
    suite = []
    for sp in (naming.CantorSpace(), naming.FiniteSpace(3)):
        cases = []
        for _ in range(25):
            seq = _random_star_sequence(rng, sp)
            names = [aspk.make_avoidance_name(seq, radius_exp=r, answer_depth=d)
                     for d, r in _SUITE_SHAPES]
            cases.append((seq, names))
        suite.append((sp, cases))
    return suite


def _suite_agreement(realizers: dict, suite, fuel: int) -> Optional[str]:
    for sp, cases in suite:
        realizer = realizers[sp.space_id]
        oracle = aspk.direct_scan_realizer(sp)
        for ci, (seq, names) in enumerate(cases):
            want = oracle.evaluate(seq, names[0], fuel).result.value
            for ni, h in enumerate(names):
                got = realizer.evaluate(seq, h, fuel)
                if not got.result.is_value or got.result.value != want:
                    return (f"{sp.space_id} case {ci} name {ni}: "
                            f"{got.result.to_json()} != {want}")
    return None


def criterion_settling_exactness() -> tuple[bool, str]:
    rng = random.Random(404)
    suite = build_exactness_suite(rng)
    realizers = {sp.space_id: aspk.realizer_from_base(aspk.builtin_base(sp))
                 for sp, _ in suite}
    bad = _suite_agreement(realizers, suite, fuel=4000)
    detail = bad or "50 sequences x 5 names, exact, both spaces"
    return bad is None, detail


def _cell_point(space: naming.Space, cell):
    """The point of a cell of ``space.cells`` whose free bits are 0."""
    if isinstance(space, naming.ProductSpace):
        return (_cell_point(space.left, cell[0]), _cell_point(space.right, cell[1]))
    if isinstance(space, naming.CantorSpace):
        return naming.CantorPoint(cell, 0)
    return cell  # a finite space's cell is its point


def _covers_by_points(theta: aspk.Theta, space: naming.Space) -> bool:
    """Whether one point of every cell at theta's default covering depth
    lies in an atom of theta, by membership alone.  At that depth a cell
    decides every index an atom constrains, so its point is in an atom
    exactly when the cell is.  The probe checks its harvest with
    ``covers``, whose reports are kept, so ``covers`` cannot check it
    again."""
    return all(any(aspk.point_in_atom(space, _cell_point(space, cell), atom)
                   for atom in theta.atoms)
               for cell in space.cells(aspk.default_cover_depth(theta)))


def criterion_base_round_trip() -> tuple[bool, str]:
    rng = random.Random(404)  # same suite as criterion 4
    suite = build_exactness_suite(rng)
    msgs: list[str] = []

    rederived = {}
    for sp, _ in suite:
        direct = aspk.realizer_from_base(aspk.builtin_base(sp))
        probed = aspk.base_from_realizer(direct, sp)
        if not probed.members:
            msgs.append(f"{sp.space_id}: probe harvested nothing")
            continue
        for theta in probed.members:
            if not _covers_by_points(theta, sp):
                msgs.append(f"{sp.space_id}: non-covering member emitted")
        rederived[sp.space_id] = aspk.realizer_from_base(probed, sp)

    fin2 = naming.FiniteSpace(2)
    probed2 = aspk.base_from_realizer(
        aspk.realizer_from_base(aspk.builtin_base(fin2)), fin2)
    if not probed2.members or not all(
            _covers_by_points(t, fin2) for t in probed2.members):
        msgs.append("finite(2) probe produced no verified covering")

    if not msgs:
        bad = _suite_agreement(rederived, suite, fuel=6000)
        if bad:
            msgs.append(f"re-derived disagreement: {bad}")
    detail = msgs[0] if msgs else (
        "harvests verified; re-derived realizers value-equal on the full suite")
    return not msgs, detail


# ---------------------------------------------------------------------------
# 5. product realizer
# ---------------------------------------------------------------------------


def criterion_product() -> tuple[bool, str]:
    rng = random.Random(505)
    msgs: list[str] = []
    mc = naming.CantorSpace()
    mf = naming.FiniteSpace(2)
    prod = naming.ProductSpace(mc, mf)
    realizer = aspk.product_anti_specker(
        aspk.realizer_from_base(aspk.builtin_base(mc)),
        aspk.realizer_from_base(aspk.builtin_base(mf)),
        prod)
    oracle = aspk.direct_scan_realizer(prod)

    shapes = ((0, 0), (2, 0), (3, 1))
    for ci in range(25):
        seq = _random_star_sequence(rng, prod)
        d, r = shapes[ci % len(shapes)]
        h = aspk.make_avoidance_name(seq, radius_exp=r, answer_depth=d)
        want = oracle.evaluate(seq, h, 10).result.value
        got = realizer.evaluate(seq, h, 60000)
        if not got.result.is_value or got.result.value != want:
            msgs.append(f"case {ci} (depth {d}): {got.result.to_json()} != {want}")
            break

    pb = aspk.ProductBase(aspk.builtin_base(mc), aspk.builtin_base(mf))
    for i in range(12):
        if not aspk.covers(aspk.Theta(tuple(pb.iter_atoms(i))), prod).covered:
            msgs.append(f"product member {i} fails the covering check")
            break
    detail = msgs[0] if msgs else "25 product sequences exact; 12 members cover"
    return not msgs, detail


# ---------------------------------------------------------------------------
# 7. protected splitting invariants
# ---------------------------------------------------------------------------


def _split_inputs() -> list[tuple[cauchy.RationalSeq, cauchy.RationalSeq, str]]:
    mk = cauchy.RationalSeq.make
    dyadic = cauchy.dyadic_targets()
    return [
        (mk([1]), mk([], "constant", 1), "hand-trace-ones"),
        (mk([1]), mk([]), "hand-trace-zero"),
        (mk([1]), dyadic, "unit-vs-dyadic"),
        (mk([1, 0, Fraction(1, 16)]), dyadic, "two-blocks-dyadic"),
        (mk([Fraction(1, 3), 0, 0, Fraction(1, 32)]), dyadic, "thirds"),
        (mk([0, 1, 0, Fraction(1, 16)]), mk([], "constant", 2), "shifted"),
        (mk([2, Fraction(1, 32)]), dyadic, "big-then-small"),
        (mk([Fraction(1, 2), Fraction(1, 16), Fraction(1, 64)]),
         mk([], "constant", 10), "far-targets"),
        (mk([0, 0, 5]), dyadic, "late-start"),
        (mk([Fraction(3, 2), 0, 0, 0, Fraction(1, 64)]),
         mk([], "geometric", 1, Fraction(1, 3)), "thirds-targets"),
    ]


def criterion_split_invariants() -> tuple[bool, str]:
    msgs: list[str] = []
    for x, b, label in _split_inputs():
        try:
            ledger = cauchy.protected_split(x, b, stages=11)
        except (cauchy.ClearanceViolation, k2.Exhausted) as e:
            msgs.append(f"{label}: {e}")
            continue
        for rec in ledger.stages:
            if sum(abs(v) for v in rec.y) != rec.x:
                msgs.append(f"{label}: block mass broken at stage {rec.stage}")
            if rec.k % 2 != 1:
                msgs.append(f"{label}: even block size at stage {rec.stage}")
            if rec.positive and rec.t is not None and rec.k > 1:
                if not (Fraction(rec.x) / rec.k < rec.t / 2):
                    msgs.append(f"{label}: block size too coarse at {rec.stage}")
                if Fraction(rec.x) / (rec.k - 2) < rec.t / 2:
                    msgs.append(f"{label}: block size not minimal at {rec.stage}")
            if rec.positive and rec.t is None and rec.k != 1:
                msgs.append(f"{label}: unprotected stage must keep one piece")
        report = cauchy.verify_clearances(
            ledger, Fraction(0) if x.support_end <= 11 else None)
        if not report.ok:
            msgs.append(f"{label}: clearance recomputation failed")
        # immutability: a second run must reproduce the protections exactly
        again = cauchy.protected_split(x, b, stages=11)
        if again.protections != ledger.protections:
            msgs.append(f"{label}: protections not reproducible")
        seen: set = set()
        for rec in ledger.stages:
            for key in rec.case2 + rec.case3:
                if key in seen:
                    msgs.append(f"{label}: protection reassigned")
                seen.add(key)
    # the two hand traces, frozen
    t1 = cauchy.protected_split(cauchy.RationalSeq.make([1]),
                                cauchy.RationalSeq.make([], "constant", 1), 1)
    f5 = Fraction(1, 5)
    if not (t1.stages[0].k == 5 and t1.stages[0].y == (f5, -f5, f5, -f5, f5)
            and t1.stages[0].t == Fraction(1, 2)
            and t1.protections == {(0, 0): Fraction(1, 2)}):
        msgs.append("hand trace against constant targets is off")
    t2 = cauchy.protected_split(cauchy.RationalSeq.make([1]),
                                cauchy.RationalSeq.make([]), 1)
    if not (t2.stages[0].k == 1 and t2.stages[0].y == (Fraction(1),)
            and t2.stages[0].t is None
            and t2.protections == {(0, 0): Fraction(1, 2)}):
        msgs.append("hand trace against zero targets is off")
    detail = msgs[0] if msgs else "10 inputs through stage 10, all invariants exact"
    return not msgs, detail


# ---------------------------------------------------------------------------
# 8. settling index of rearranged series
# ---------------------------------------------------------------------------


def _brute_settling(z: cauchy.SplitSeries, p: cauchy.PermutationSpec, n: int) -> int:
    """Exhaustive window scan over the finite support (independent oracle)."""
    bound = Fraction(1, 2 ** n)
    scan = z.built_end + p.support_end + 4
    worst = -1
    for i in range(scan + 1):
        acc = Fraction(0)
        for j in range(i, scan + 1):
            acc += z.value_at(p(j))
            if abs(acc) >= bound:
                worst = max(worst, i)
                break
    return worst + 1


def _random_increasing_seq(rng: random.Random) -> Optional[cauchy.RationalSeq]:
    first = rng.choice([Fraction(1, 2), Fraction(1), Fraction(5, 4)])
    second = rng.choice([Fraction(1, 8), Fraction(1, 16), Fraction(1, 32),
                         Fraction(3, 32), Fraction(0)])
    gap = rng.randrange(0, 3)
    deltas = [first] + [Fraction(0)] * gap + [second]
    acc = Fraction(0)
    prefix = []
    for d in deltas:
        acc += d
        prefix.append(acc)
    return cauchy.RationalSeq.make(prefix, "constant", acc)


def _random_permutation(rng: random.Random, size: int) -> cauchy.PermutationSpec:
    idxs = list(range(size))
    rng.shuffle(idxs)
    return cauchy.PermutationSpec.from_mapping(
        {i: v for i, v in enumerate(idxs)})


def criterion_settling_index() -> tuple[bool, str]:
    rng = random.Random(808)
    msgs: list[str] = []

    # the frozen constant-sequence example
    a_const = cauchy.RationalSeq.make([1], "constant", 1)
    series = cauchy.split_series_for(a_const)
    f = cauchy.exact_modulus(a_const, 8)
    got = cauchy.settling_index(series, cauchy.PermutationSpec.identity(), 3, f)
    brute = _brute_settling(series, cauchy.PermutationSpec.identity(), 3)
    if got != 5 or brute != 5:
        msgs.append(f"constant example: settled at {got} (brute {brute}), want 5")
    verdict = cauchy.classify_windows(series, cauchy.PermutationSpec.identity(),
                                      4, 3, f)
    if not (isinstance(verdict, cauchy.WindowWitness)
            and (verdict.i, verdict.j) == (4, 4)):
        msgs.append(f"window witness at 4 expected, got {verdict}")

    accepted = 0
    attempts = 0
    while accepted < 10 and attempts < 200:
        attempts += 1
        a = _random_increasing_seq(rng)
        try:
            series = cauchy.split_series_for(a)
        except (k2.Exhausted, cauchy.ClearanceViolation):
            continue
        if len(series.ledger.flat) > 20:
            continue
        accepted += 1
        f = cauchy.exact_modulus(a, len(a.prefix) + 4)
        perms = [cauchy.PermutationSpec.identity(),
                 cauchy.PermutationSpec.from_mapping(
                     {series.built_end + 1: series.built_end + 3,
                      series.built_end + 3: series.built_end + 1})]
        perms += [_random_permutation(rng, rng.randrange(2, series.built_end + 4))
                  for _ in range(3)]
        for pi, p in enumerate(perms):
            for n in (2, 3, 4):
                want = _brute_settling(series, p, n)
                got = cauchy.settling_index(series, p, n, f)
                if got != want:
                    msgs.append(f"input {accepted} perm {pi} n={n}: "
                                f"{got} != brute {want}")
    if accepted < 10:
        msgs.append(f"only {accepted} inputs accepted")
    detail = msgs[0] if msgs else \
        "frozen example = 5; 10 inputs x 5 permutations x 3 exponents exact"
    return not msgs, detail


# ---------------------------------------------------------------------------
# 9. modulus transfer
# ---------------------------------------------------------------------------


def _least_starts(a: cauchy.RationalSeq, horizon: int) -> list[int]:
    """For each n <= horizon, the least m whose values a_m, ..., a_horizon
    all lie within less than 2^-n of each other, from ``value_at`` alone."""
    values = [a.value_at(i) for i in range(horizon + 1)]
    spreads = [max(values[m:]) - min(values[m:]) for m in range(horizon + 1)]
    return [next(m for m, s in enumerate(spreads) if s < Fraction(1, 2 ** n))
            for n in range(horizon + 1)]


def criterion_modulus_transfer() -> tuple[bool, str]:
    rng = random.Random(909)
    msgs: list[str] = []
    cases = [cauchy.RationalSeq.make([1], "constant", 1),
             cauchy.RationalSeq.make([Fraction(1, 2), Fraction(3, 4)],
                                     "constant", Fraction(3, 4))]
    while len(cases) < 10:
        a = _random_increasing_seq(rng)
        try:
            cauchy.split_series_for(a)
        except (k2.Exhausted, cauchy.ClearanceViolation):
            continue
        cases.append(a)
    for idx, a in enumerate(cases):
        series = cauchy.split_series_for(a)
        g = cauchy.abs_sum_modulus(series.ledger)
        fg = cauchy.modulus_from_abs_sums(series.ledger, g)
        report = cauchy.is_modulus(fg, a, horizon=40)
        if report.counterexample is not None:
            msgs.append(f"case {idx}: transfer fails at {report.counterexample}")
        elif report.checked < 41:
            msgs.append(f"case {idx}: only {report.checked} of 41 exponents start "
                        "within the horizon")
        else:
            # a valid transfer may still start late: bound it from above too
            least = _least_starts(a, 40)
            late = [n for n in range(41) if fg(n) != least[n]]
            if late:
                n = late[0]
                msgs.append(f"case {idx}: transfer starts at {fg(n)} for n={n}, "
                            f"where the least start is {least[n]}")
    detail = msgs[0] if msgs else \
        "10 transfers equal the least start at every n <= 40"
    return not msgs, detail


# ---------------------------------------------------------------------------
# 10. window-diameter settling index
# ---------------------------------------------------------------------------


def _brute_pc_index(x: cauchy.RationalSeq, f: cauchy.Modulus, g, n: int) -> int:
    bound = Fraction(1, 2 ** n)
    cap = f(n + 1)
    worst = -1
    for m in range(cap + 1):
        window = [x.value_at(i) for i in range(m, g(m) + 1)]
        if any(abs(u - v) >= bound for u in window for v in window):
            worst = m
    return worst + 1


def criterion_pc_index() -> tuple[bool, str]:
    rng = random.Random(1010)
    msgs: list[str] = []
    for trial in range(50):
        if trial % 2 == 0:
            prefix = [Fraction(rng.randrange(-8, 9), rng.randrange(1, 6))
                      for _ in range(rng.randrange(1, 10))]
            x = cauchy.RationalSeq.make(prefix, "constant", prefix[-1])
            f = cauchy.exact_modulus(x, len(prefix) + 4)
        else:
            c = Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
            r = Fraction(1, rng.randrange(2, 5))
            x = cauchy.RationalSeq.make([], "geometric", c, r)

            def modulus_fn(n: int, c=c, r=r) -> int:
                m = 0
                while c * r ** m >= Fraction(1, 2 ** n):
                    m += 1
                return m
            f = cauchy.Modulus(modulus_fn)
        jitter = {i: i + rng.randrange(0, 4) for i in range(40)}
        g = k2.Oracle(lambda m, j=jitter: j.get(m, m), label="g")
        n = rng.randrange(0, 7)
        want = _brute_pc_index(x, f, g, n)
        got = cauchy.partially_cauchy_index(x, f, g, n)
        if got != want:
            msgs.append(f"trial {trial}: {got} != brute {want}")
            break
        if cauchy.partially_cauchy_index(x, f, k2.identity_oracle(), n) != 0:
            msgs.append(f"trial {trial}: identity windows must settle at 0")
            break
    detail = msgs[0] if msgs else "50 instances exact; identity always 0"
    return not msgs, detail


# ---------------------------------------------------------------------------
# 11. bound extraction and the adversary
# ---------------------------------------------------------------------------


def _strategy_candidates() -> list[k2.Oracle]:
    def parrot(code: int) -> int:
        s = k2.decode_seq(code)
        return s[0] + 2 if len(s) >= 1 else 0

    def g_reader(code: int) -> int:
        s = k2.decode_seq(code)
        if len(s) >= 1:
            gvals = k2.decode_seq(s[0])
            if len(gvals) >= 2:
                return max(gvals) + 2
        return 1 if len(s) >= 8 else 0

    def h_prober(code: int) -> int:
        s = k2.decode_seq(code)
        return s[1] + 2 if len(s) >= 2 else 0

    def mixer(code: int) -> int:
        s = k2.decode_seq(code)
        if len(s) >= 4:
            return (s[1] + s[2]) % 5 + 2
        return 0

    return [k2.constant(3, label="alpha-const"),
            k2.Oracle(parrot, label="alpha-parrot"),
            k2.Oracle(g_reader, label="alpha-g-reader"),
            k2.Oracle(h_prober, label="alpha-h-prober"),
            k2.Oracle(mixer, label="alpha-mixer")]


def criterion_bdn() -> tuple[bool, str]:
    rng = random.Random(1111)
    msgs: list[str] = []
    for trial in range(20):
        bound = rng.randrange(1, 12)
        table = {i: rng.randrange(bound) for i in range(rng.randrange(0, 10))}
        g = k2.TableOracle(table, rng.randrange(bound), label="g")
        h = bdn.make_valid_realizer(g, bound, answer_len=rng.randrange(0, 4))
        n0 = bdn.extract_bound(g, h, fuel=50)
        if not all(g(m) < n0 for m in range(1001)):
            msgs.append(f"trial {trial}: extracted {n0} is not a strict bound")
            break

    reports = []
    for alpha in _strategy_candidates():
        report = bdn.adversary_refute(alpha, fuel=20000)
        reports.append(report)
        if report.verdict != "refuted":
            msgs.append(f"{alpha.label}: verdict {report.verdict} ({report.reason})")

    full = next((r for r in reports if r.a is not None), None)
    if full is None:
        msgs.append("no candidate reached the rebuilt pair")
    else:
        k, a = full.k, full.a
        h1, g1 = bdn.adversary_pair(k, a)
        samples = [_random_table_oracle(rng, size=10, cap=a + 40)
                   for _ in range(40)]
        samples += [k2.TableOracle({kk: a + rng.randrange(0, 9)
                                    for kk in range(k + 2, min(a, k + 8))},
                                   0, label="spiky") for _ in range(10)]
        if not bdn.check_domination_hypothesis(h1, g1, samples, fuel=200):
            msgs.append("rebuilt pair violates the domination hypothesis")
        f1 = bdn.functional_of_pair(k, a)
        for f in samples[:20]:
            r = k2.star(h1, f, 200)
            if not r.is_value or r.value != f1(f):
                msgs.append("the rebuilt name disagrees with its functional")
                break
    detail = msgs[0] if msgs else \
        "20 extractions bounded; 5 candidates refuted; hypothesis holds on 50 samples"
    return not msgs, detail


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _timed(name: str, limit: float, check: Callable[[], tuple[bool, str]]
           ) -> Callable[[], CriterionResult]:
    """Criterion ``name``: run ``check`` and time it against ``limit``."""
    def run() -> CriterionResult:
        start = time.time()
        ok, detail = check()
        return CriterionResult(name, ok, detail, time.time() - start, limit)
    return run


# each criterion's name, time limit in seconds and check, in scorecard order
CRITERIA: list[tuple[str, Callable[[], CriterionResult]]] = [
    (name, _timed(name, limit, check)) for name, limit, check in (
        ("1-star-locality-fuel-codec", 5.0, criterion_locality_fuel),
        ("2-signed-digit-contract", 5.0, criterion_signed_digit),
        ("3-metric-coherence", 10.0, criterion_metric_coherence),
        ("4-settling-exactness", 30.0, criterion_settling_exactness),
        ("5-product-realizer", 60.0, criterion_product),
        ("6-base-round-trip", 120.0, criterion_base_round_trip),
        ("7-split-invariants", 120.0, criterion_split_invariants),
        ("8-settling-index", 60.0, criterion_settling_index),
        ("9-modulus-transfer", 10.0, criterion_modulus_transfer),
        ("10-pc-index", 10.0, criterion_pc_index),
        ("11-bdn", 30.0, criterion_bdn),
    )]


def run_all(only: Optional[str] = None) -> list[CriterionResult]:
    results = []
    for name, fn in CRITERIA:
        if only and only not in name:
            continue
        results.append(fn())
    return results
