"""Benchmark of the baire workbench: seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload probe --seed 1 --seconds 20 --trace 0

One process, one client, no threads: each op starts when the previous one
has been checked.  The program is imported from ``src/`` of the checkout
and driven through its public API; every op is checked against an
independent reference (``refs.py``) outside the timed region.

``--trace 0`` measures for ``--seconds`` (whole schedule cycles, at least
``MIN_OPS`` ops) and reports the end-to-end metrics.  ``--trace 1`` runs
one fixed schedule cycle twice, first under the per-module profile hook
and then untraced, and reports the per-layer metrics; its counts depend
only on the seed.  The last line of stdout is the JSON result; a summary
goes to stderr and the spans of a traced run to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import layertrace  # noqa: E402
import wl_probe  # noqa: E402
import wl_split  # noqa: E402
import wl_stream  # noqa: E402

WORKLOADS = {"probe": wl_probe, "split": wl_split, "stream": wl_stream}

MIN_OPS = 100          # p90 then has at least ten samples above it
CALIBRATION_REPEATS = 5
HARD_STOP_S = 150.0    # stop mid-cycle past this, to exit within 180 s
SETUP_REPEATS = 5
POOL_CYCLES = 4        # inputs generated during set-up; later ones lazily
TRACE_COVERAGE = 0.02  # accounted time may miss at most this share of the wall

COUNTS = ("k2.cantor_pairs", "k2.prefix_codes", "k2.oracle_queries",
          "antispecker.probe_evals", "antispecker.eval_fuel_spent",
          "antispecker.members_scanned", "cauchy.fraction_ops",
          "cauchy.subset_states", "cauchy.protections",
          "cauchy.clearances_checked", "reals.approx_calls", "reals.fraction_ops",
          "naming.dist_hat_calls", "bdn.transcript_reads", "cli.output_bytes")


def import_program():
    """Import the seven layers afresh from ``src/``; refuses any other copy."""
    init = os.path.join(SRC, "baire", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"benchmark: no program source at {init}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "baire" or m.startswith("baire.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"baire.{layer}") for layer in layertrace.LAYERS}
    if os.path.dirname(os.path.abspath(mods["k2"].__file__)) != os.path.dirname(init):
        raise SystemExit("benchmark: baire was imported from outside src/")
    return SimpleNamespace(**mods)


class Inputs:
    """Op i of a run is generated from (workload, seed, i) alone."""

    def __init__(self, wl, workload: str, seed: int):
        self.wl, self.workload, self.seed = wl, workload, seed
        self.pool = [self.make(i) for i in range(POOL_CYCLES * len(wl.SCHEDULE))]

    def make(self, i: int) -> dict:
        rng = random.Random(f"{self.workload}/{self.seed}/{i}")
        shape = self.wl.SCHEDULE[i % len(self.wl.SCHEDULE)]
        p = self.wl.make(rng, shape)
        p["label"] = "/".join(str(s) for s in shape if s is not None)
        return p

    def __getitem__(self, i: int) -> dict:
        return self.pool[i] if i < len(self.pool) else self.make(i)


def set_up(wl, workload: str, seed: int):
    """Import plus input generation, repeated; returns the last and the
    median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        api = import_program()
        inputs = Inputs(wl, workload, seed)
        times.append(time.perf_counter() - t0)
    return api, inputs, statistics.median(times)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.by_label = defaultdict(list)
        self.failures = defaultdict(int)
        self.messages: list[str] = []
        self.counts = defaultdict(int)

    def record(self, label: str, seconds: float, failure: str | None,
               wrong: bool) -> None:
        self.attempted += 1
        self.by_label[label].append(seconds)
        if failure is None:
            return
        self.failures[label] += 1
        if wrong:
            self.wrong += 1
        else:
            self.raised += 1
        if len(self.messages) < 8:
            self.messages.append(failure)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong


def run_op(wl, api, calls, p, tally, profiler=None):
    """Run one op, timed, then check it; returns the op's wall seconds."""
    run, check = wl.KINDS[p["kind"]]
    out = None
    error = None
    t0 = time.perf_counter()
    if profiler is not None:
        sid = calls.spans.open(f"op.{p['kind']}")
        profiler.start()
    try:
        out = run(api, calls, p)
    except Exception as e:  # a program failure is a failed op, not a crash
        error = f"{p['kind']}: {type(e).__name__}: {str(e)[:160]}"
    finally:
        if profiler is not None:
            profiler.stop()
            calls.spans.close(sid)
    elapsed = time.perf_counter() - t0
    label = p["label"]
    if error is not None:
        tally.record(label, elapsed, error, wrong=False)
        return elapsed
    try:
        bad = check(api, p, out, tally.counts)
    except Exception as e:
        bad = f"{p['kind']}: check raised {type(e).__name__}: {str(e)[:160]}"
    tally.record(label, elapsed, bad, wrong=bad is not None)
    return elapsed


def calibrate(fn) -> float:
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(wl, api, inputs, workload: str, seconds: float):
    """Whole schedule cycles until ``seconds`` have passed.

    The host's speed drifts while the run goes on, so a calibration loop
    runs at every cycle boundary, and each op's time is scaled by the
    reference time of the calibration over the mean of the two around its
    cycle (see ``calib.py``).  Throughput is ops over their scaled time.
    """
    tally = Tally()
    calls = layertrace.Calls()
    cycle = len(wl.SCHEDULE)
    min_ops = cycle * -(-MIN_OPS // cycle)
    cal_fn, cal_ref = calib.CALIBRATIONS[workload], calib.REFERENCE_S[workload]
    cal = [calibrate(cal_fn)]
    latencies = []
    start = time.perf_counter()
    i = 0
    while True:
        latencies.append(run_op(wl, api, calls, inputs[i], tally))
        i += 1
        if i % cycle == 0:
            cal.append(calibrate(cal_fn))
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and i >= min_ops:
                break
        if time.perf_counter() - start > HARD_STOP_S:
            cal.append(calibrate(cal_fn))
            break
    scaled = [t * 2 * cal_ref / (cal[k // cycle] + cal[k // cycle + 1])
              for k, t in enumerate(latencies)]
    print(f"calibration: median {1000 * statistics.median(cal):.2f} ms over "
          f"{len(cal)} boundaries, reference {1000 * cal_ref:.2f} ms", file=sys.stderr)
    cuts = statistics.quantiles(scaled, n=10, method="inclusive")
    metrics = {
        "ops_per_s": (len(scaled) / sum(scaled), "ops/s"),
        "op_ms.p50": (1000 * statistics.median(scaled), "ms"),
        "op_ms.p90": (1000 * cuts[8], "ms"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    return tally, metrics


def traced(wl, api, inputs, workload: str, seed: int):
    ops = [inputs[i] for i in range(len(wl.SCHEDULE))]
    spans = layertrace.SpanLog()
    profiler = layertrace.LayerProfiler(api)
    tally = Tally()
    calls = layertrace.Calls(spans)
    traced_wall = 0.0
    for i, p in enumerate(ops):
        spans.op = i
        traced_wall += run_op(wl, api, calls, p, tally, profiler)
    untraced = Tally()
    plain = layertrace.Calls()
    untraced_wall = sum(run_op(wl, api, plain, p, untraced) for p in ops)

    problems = [f"untraced pass: {untraced.wrong} ops disagree with the reference"
                ] if untraced.wrong else []
    nesting = spans.check_nesting()
    if nesting:
        problems.append(nesting)
    op_wall = sum(s["end"] - s["start"] for s in spans.spans if s["parent"] is None)
    accounted = profiler.accounted_s()
    if not (1 - TRACE_COVERAGE) * op_wall <= accounted <= op_wall:
        problems.append(f"profile accounts for {accounted:.4f} s of {op_wall:.4f} s")

    counts = dict(tally.counts)
    counts.update(profiler.counts)
    for layer, n in profiler.fraction_ops.items():
        counts[f"{layer}.fraction_ops"] = n
    metrics = {f"{layer}.self_s": (profiler.self_s.get(layer, 0.0), "s")
               for layer in layertrace.LAYERS}
    metrics["bench.self_s"] = (profiler.self_s.get(layertrace.BENCH, 0.0), "s")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "bytes" if name.endswith("_bytes") else "count")
    evals = counts.get("antispecker.probe_evals", 0)
    metrics["antispecker.harvest_yield"] = (
        counts.get("antispecker.members", 0) / evals if evals else 0.0, "ratio")
    metrics["k2.code_bits_max"] = (profiler.code_bits_max, "bits")
    metrics["trace_overhead"] = (traced_wall / untraced_wall, "ratio")

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": spans.spans,
                   "self_s": dict(profiler.self_s), "hook_s": profiler.hook_s,
                   "counts": counts, "problems": problems}, fh)
    return tally, metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    api, inputs, setup_s = set_up(wl, args.workload, args.seed)
    problems = []
    if args.trace:
        tally, metrics, problems = traced(wl, api, inputs, args.workload, args.seed)
    else:
        tally, metrics = measure(wl, api, inputs, args.workload, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kib / 1024, "MiB")

    for label, secs in sorted(tally.by_label.items()):
        print(f"{label}: {len(secs)} ops, {tally.failures[label]} failed, "
              f"median {1000 * statistics.median(secs):.1f} ms", file=sys.stderr)
    for msg in tally.messages + problems:
        print(f"  {msg}", file=sys.stderr)
    result = {
        "correct": tally.wrong == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
