#!/usr/bin/env python3
"""Count and time ``base_from_realizer`` at the shapes of the probe benchmark.

Usage: python scripts/probe_bench.py [repeats]

The shapes are those of the benchmark's ``probe`` workload (the space,
the blind size cap, the depth cap and the number of radii), with fixed
grids in place of the seeded ones: radii 0, 1, ... and onsets 0 and 3,
at a budget of 200, the middle of the workload's 150-250.  After them
come the four spaces at the command line's ``antispecker probe``
defaults (``ProbeConfig(budget=200)``).

Before any of them, at the workload's deepest shape (blind cap 3, depth
cap 4, radii 0 to 2), it counts the kept members, the cover atoms made
and the coverings decided by the first probe of each space in a fresh
``antispecker.Run``, which builds the space's canonical base and decides
each harvested member's covering (``cold``), and by a repeat in the same
run, which finds the base built and reads the kept ``covers`` reports
(``warm``); both count the harvested atoms too.

For each shape it probes the builtin realizer once through a wrapper
that sorts the realizer's evaluations by phase, and records per phase the
candidates decided, the evaluations run, those a phase-one table stopped
at their first query outside it (``left_table``), the prefix steps they
spent (the eval fuel; a stopped evaluation's steps are read from its
frame), the distinct codes they asked the avoidance name (the
queries; an evaluation asks each code at most once, so queries never
exceed the eval fuel) and the codes they paired, counted through
``k2.cantor_pair`` (the pairings; a code is paired only where the
realizer's trie has no node for it yet, and the same evaluation then asks
it, so pairings never exceed queries), the codes it unpaired, counted
through ``k2.cantor_unpair`` (the unpairs, by the avoidance name's rule
and by the decoding of its answers), and the answers it decoded, counted
through ``k2.decode_pair`` (the answer decodes; an evaluation decodes
each distinct answer once, so a phase-two name, which answers a single
value, costs at most one per evaluation).  It then records the median
wall time of ``repeats`` probes (default 5), each on a new realizer
over the canonical base, without the wrapper: in the process's run,
whose bases and ``covers`` reports the earlier probes of the shape have
filled (``median_ms``), and each in a fresh run, which builds the base
members and decides the coverings again (``cold_median_ms``).  It
prints all of it as one JSON document.
"""

import contextlib
import json
import statistics
import sys
import time

from baire import antispecker as aspk
from baire import k2, naming

SPACES = {
    "cantor": naming.cantor_space(),
    "finite2": naming.finite_space(2),
    "finite3": naming.finite_space(3),
    "cantor_x_finite2": naming.product_metric_naming(naming.cantor_space(),
                                                     naming.finite_space(2)),
}

# (space, blind_size_cap, depth_cap, radius count), in the workload's order
WORKLOAD_SHAPES = (
    [(space, blind, depth, radii)
     for blind, depth, radii in ((2, 2, 2), (3, 3, 3), (3, 4, 3))
     for space in SPACES]
    + [(space, 2, 3, 3) for space in ("cantor", "finite2", "finite3")]
)
BUDGET = 200


def new_realizer(m):
    return aspk.realizer_from_base(aspk.builtin_base(m))


COUNTED = {"pairings": "cantor_pair", "unpairs": "cantor_unpair",
           "answer_decodes": "decode_pair"}


def steps_at_stop(stop: aspk._LeftTable, evaluate) -> int:
    """The prefix steps an evaluation had spent when the stop at an
    outside query left it, read from its frame."""
    tb = stop.__traceback__
    while tb.tb_frame.f_code is not evaluate.__code__:
        tb = tb.tb_next
    return tb.tb_frame.f_locals["spent"]


def phase_counts(m, config: aspk.ProbeConfig) -> dict:
    """Candidates, evaluations, evaluations left at an outside query, eval
    fuel, queries, pairings, unpairs and answer decodes of each phase of
    one probe."""
    realizer = new_realizer(m)
    phases = {phase: {"evaluations": 0, "left_table": 0, "eval_fuel": 0,
                      "queries": 0, **{count: 0 for count in COUNTED}}
              for phase in ("phase_one", "phase_two")}
    calls = dict.fromkeys(COUNTED, 0)
    originals = {count: getattr(k2, fn) for count, fn in COUNTED.items()}

    def counting(count):
        fn = originals[count]

        def counted_fn(*args):
            calls[count] += 1
            return fn(*args)
        return counted_fn

    def evaluate(seq, h, fuel):
        before = dict(calls)
        phase = phases["phase_one" if h.h.label == "recorded(probe-table)"
                       else "phase_two"]
        phase["evaluations"] += 1
        try:
            out = realizer.evaluate(seq, h, fuel)
        except aspk._LeftTable as stop:
            phase["left_table"] += 1
            phase["eval_fuel"] += steps_at_stop(stop, realizer.evaluate)
            raise
        else:
            phase["eval_fuel"] += out.result.spent
        finally:
            phase["queries"] += len(h.h.transcript)
            for count in COUNTED:
                phase[count] += calls[count] - before[count]
        return out

    counted = aspk.AntiSpeckerRealizer(evaluate, realizer.space)
    for count, fn in COUNTED.items():
        setattr(k2, fn, counting(count))
    try:
        probed = aspk.base_from_realizer(counted, counted.space, config)
    finally:
        for count, fn in COUNTED.items():
            setattr(k2, fn, originals[count])
    blind = sum(1 for _ in aspk._blind_candidates(config.blind_size_cap))
    phases["phase_one"]["candidates"] = min(probed.evals_spent, blind)
    phases["phase_two"]["candidates"] = probed.evals_spent - min(probed.evals_spent,
                                                                 blind)
    return {**phases, "evals_spent": probed.evals_spent,
            "members": len(probed.members), "exhausted": probed.exhausted}


# (owner, name, count): a kept member stream starts with the one call of
# ``_build_atoms`` that makes its source, an atom with its ``__init__``,
# and a covering decided, not read from the kept reports, with a call of
# ``_decide_cover``
BUILT = ((aspk.BuiltinBase, "_build_atoms", "members"),
         (aspk.ProductBase, "_build_atoms", "members"),
         (aspk.CoverAtom, "__init__", "atoms"),
         (aspk, "_decide_cover", "coverings"))


def built(m, config: aspk.ProbeConfig) -> dict:
    """The kept members, the cover atoms and the coverings that one probe,
    on a new realizer, makes, counted by the calls that make them."""
    made = {count: 0 for _, _, count in BUILT}
    originals = [vars(owner)[name] for owner, name, _ in BUILT]

    def counting(count, fn):
        def counted(*args, **kw):
            made[count] += 1
            return fn(*args, **kw)
        return counted

    for (owner, name, count), fn in zip(BUILT, originals):
        setattr(owner, name, counting(count, fn))
    try:
        realizer = new_realizer(m)
        aspk.base_from_realizer(realizer, realizer.space, config)
    finally:
        for (owner, name, _), fn in zip(BUILT, originals):
            setattr(owner, name, fn)
    return made


def median_ms(m, config: aspk.ProbeConfig, repeats: int, cold: bool) -> float:
    """The median time of ``repeats`` probes, each in a fresh run when
    ``cold``, and in the process's run otherwise."""
    times = []
    for _ in range(repeats):
        with aspk.Run() if cold else contextlib.nullcontext():
            realizer = new_realizer(m)
            t = time.perf_counter()
            aspk.base_from_realizer(realizer, realizer.space, config)
            times.append(time.perf_counter() - t)
    return round(1000 * statistics.median(times), 3)


def row(space: str, config: aspk.ProbeConfig, repeats: int) -> dict:
    m = SPACES[space]
    return {"space": space, "blind_size_cap": config.blind_size_cap,
            "depth_cap": config.depth_cap, "radius_grid": list(config.radius_grid),
            "onset_grid": list(config.onset_grid), "budget": config.budget,
            **phase_counts(m, config),
            "median_ms": median_ms(m, config, repeats, cold=False),
            "cold_median_ms": median_ms(m, config, repeats, cold=True)}


def main() -> None:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    # at the workload's deepest shape, in a fresh run: the first probe of
    # each space builds its canonical base (cold), and a repeat finds it
    # built (warm)
    deepest = aspk.ProbeConfig(budget=BUDGET, blind_size_cap=3, depth_cap=4,
                               radius_grid=(0, 1, 2), onset_grid=(0, 3))
    with aspk.Run():
        construction = {space: {"cold": built(m, deepest), "warm": built(m, deepest)}
                        for space, m in SPACES.items()}
    workload = [row(space, aspk.ProbeConfig(budget=BUDGET, blind_size_cap=blind,
                                            depth_cap=depth,
                                            radius_grid=tuple(range(radii)),
                                            onset_grid=(0, 3)), repeats)
                for space, blind, depth, radii in WORKLOAD_SHAPES]
    cli_default = [row(space, aspk.ProbeConfig(budget=200), repeats)
                   for space in SPACES]
    print(json.dumps({"repeats": repeats, "construction": construction,
                      "workload": workload, "cli_default": cli_default}, indent=1))


if __name__ == "__main__":
    main()
