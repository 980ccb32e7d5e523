"""``probe``: compactness-base round trips.

One op probes the builtin realizer of a registry space back into a base
(``base_from_realizer`` under a seeded ``ProbeConfig``), puts every
harvested member through ``covers``, rebuilds a realizer from the probed
base and evaluates it on seeded eventually-star sequences against seeded
avoidance names.  Members of one base level share their prefixes, so the
sequence codec is hit with heavy reuse: this is the workload a prefix-code
cache should speed up.

Cost is set by the space and the probe shape, which follow a fixed cycle;
the seed picks the grids, fuel, budget, sequences and avoidance names.
"""

from __future__ import annotations

import refs

SPACES = {
    "cantor": ("cantor",),
    "finite2": ("finite", 2),
    "finite3": ("finite", 3),
    "cantor_x_finite2": ("product", ("cantor",), ("finite", 2)),
}

# (space, blind_size_cap, depth_cap, radius count, onset count); fifteen
# shapes, so that the median and the 90th percentile fall mid-shape
SCHEDULE = (
    [(space, blind, depth, radii, 2)
     for blind, depth, radii in ((2, 2, 2), (3, 3, 3), (3, 4, 3))
     for space in SPACES]
    + [(space, 2, 3, 3, 2) for space in ("cantor", "finite2", "finite3")]
)

EVAL_SEQUENCES = 6
NAMES_PER_SEQUENCE = 3
EVAL_FUEL = 6000


def _point(rng, space):
    kind = space[0]
    if kind == "cantor":
        word = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 7)))
        return ("cantor", word, rng.randrange(2))
    if kind == "finite":
        return ("finite", space[1], rng.randrange(1, space[1] + 1))
    return ("product", _point(rng, space[1]), _point(rng, space[2]))


def make(rng, shape) -> dict:
    space_key, blind, depth, radii, onsets = shape
    space = SPACES[space_key]
    radius_grid = tuple(sorted(rng.sample(range(4), radii)))
    onset_grid = tuple(sorted([0] + rng.sample(range(1, 6), onsets - 1)))
    evals = []
    for _ in range(EVAL_SEQUENCES):
        entries = tuple(None if rng.random() < 0.3 else _point(rng, space)
                        for _ in range(rng.randrange(0, 11)))
        # every (radius, depth) pair here is certified by some harvested
        # member, since phase two of the probe covers the whole grid
        names = tuple((rng.choice(radius_grid), rng.randrange(depth + 1))
                      for _ in range(NAMES_PER_SEQUENCE))
        evals.append((entries, names))
    return {"kind": "roundtrip", "space": space,
            "config": {"budget": rng.randrange(150, 251),
                       "eval_fuel": 600,
                       "blind_size_cap": blind, "depth_cap": depth,
                       "radius_grid": radius_grid, "onset_grid": onset_grid},
            "evals": tuple(evals)}


def _metric_naming(api, space):
    naming = api.naming
    if space[0] == "cantor":
        return naming.cantor_space()
    if space[0] == "finite":
        return naming.finite_space(space[1])
    return naming.product_metric_naming(_metric_naming(api, space[1]),
                                        _metric_naming(api, space[2]))


def _name(api, point):
    k2 = api.k2
    if point is None:
        return k2.star_name()
    if point[0] == "cantor":
        return k2.TableOracle({i: b + 1 for i, b in enumerate(point[1])},
                              point[2] + 1, label="bench-cantor")
    if point[0] == "finite":
        return k2.constant(point[2], label="bench-finite")
    return k2.pair_names(_name(api, point[1]), _name(api, point[2]))


def _avoidance_fn(radius: int, depth: int, onset: int):
    answer = refs.code_of((radius, onset)) + 1
    return lambda code: answer if refs.seq_len(code) >= depth else 0


def run(api, calls, p):
    k2, aspk, naming = api.k2, api.antispecker, api.naming
    m = _metric_naming(api, p["space"])
    pointed = naming.star_extension(m)
    direct = aspk.realizer_from_base(aspk.builtin_base(m), pointed)
    cfg = aspk.ProbeConfig(**p["config"])
    probed = calls.call("antispecker", aspk.base_from_realizer, direct, pointed,
                        config=cfg)
    covered = [calls.call("antispecker", aspk.covers, theta, m).covered
               for theta in probed.members]
    rederived = aspk.realizer_from_base(probed, pointed)
    outcomes, meters, cases = [], [], []
    for entries, names in p["evals"]:
        seq = naming.NameSequence(tuple(_name(api, e) for e in entries), "star")
        onset = refs.star_onset(entries)
        for radius, depth in names:
            h, meter = k2.with_usage_tracking(
                k2.Oracle(_avoidance_fn(radius, depth, onset), label="bench-avoid"))
            name = aspk.AvoidanceName(h, "bench")
            outcomes.append(calls.call("antispecker", rederived.evaluate,
                                       seq, name, EVAL_FUEL))
            meters.append(meter)
            cases.append((seq, name, onset))
    return {"probed": probed, "covered": covered, "outcomes": outcomes,
            "meters": meters, "cases": cases, "pointed": pointed}


def check(api, p, out, counts) -> str | None:
    probed = out["probed"]
    counts["antispecker.probe_evals"] += probed.evals_spent
    counts["antispecker.members"] += len(probed.members)
    counts["k2.oracle_queries"] += sum(m.count for m in out["meters"])
    if not probed.members:
        return "probe harvested no members"
    for i, theta in enumerate(probed.members):
        atoms = [(dict(a.sigma.entries), a.n) for a in theta.atoms]
        if not out["covered"][i]:
            return f"covers() rejects harvested member {i}"
        if not refs.covers(p["space"], atoms):
            return f"harvested member {i} does not cover the space"
    scan = api.antispecker.direct_scan_realizer(out["pointed"])
    for (seq, name, onset), got in zip(out["cases"], out["outcomes"]):
        want = scan.evaluate(seq, name, EVAL_FUEL).result.value
        if want != onset:
            return f"direct scan says {want}, the sequence settles at {onset}"
        if got.result.value != onset:
            return f"re-derived realizer gave {got.result.to_json()}, want {onset}"
    return None


KINDS = {"roundtrip": (run, check)}
