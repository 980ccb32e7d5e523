"""The walkthrough scripts run to the end and print their closing line."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv,last_line", [
    (["product_demo.py"], "20/20 agree with the direct scan"),
    (["splitter_trace.py", "6"],
     "independent recomputation: ok=True pairs=192 limit-certified=192"),
    (["adversary_demo.py"],
     '  eval 2: {"value": 0, "raw_answer": 1, "fired_at": 0, '
     '"h_segment": 3, "g_segment": 0}'),
])
def test_script_runs(argv, last_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip("\n").splitlines()[-1] == last_line


def test_splitter_trace_counts_classes_next_to_pairs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "splitter_trace.py"),
                           "6"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # one line per positive stage: the 2^6 masks of the second one fall
    # into 18 subset-sum classes for its three target indices
    assert [line for line in proc.stdout.splitlines() if "classified" in line] == [
        "  classified 1 subset-sum classes for 1 pairs",
        "  classified 18 subset-sum classes for 191 pairs"]


def test_square_bench_at_its_smallest_size():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "square_bench.py"),
                           "14"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert [row["bits"] for row in doc["square"]] == [1 << 14]
    assert set(doc) == {"python", "ssa_cutoff_bits", "repeats", "square", "bar"}
    assert set(doc["square"][0]) == {
        "bits", "builtin_ms", "ssa_ms", "ssa_ratio", "builtin_peak_kb", "ssa_peak_kb"}
    assert doc["ssa_cutoff_bits"] == 1 << 18
    assert set(doc["bar"]) == {"depth", "code_bits", "seconds", "builtin_seconds",
                               "tracemalloc_peak_kb"}
    assert doc["bar"]["depth"] == 14 and doc["bar"]["tracemalloc_peak_kb"] > 0


def test_probe_bench_counts_both_phases():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "probe_bench.py"),
                           "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert len(doc["workload"]) == 15 and len(doc["cli_default"]) == 4
    # a repeated probe finds its space's canonical base built, and every
    # covering it asks already decided
    assert set(doc["construction"]) == {row["space"] for row in doc["cli_default"]}
    for counts in doc["construction"].values():
        cold, warm = counts["cold"], counts["warm"]
        assert warm["members"] == 0 < cold["members"]
        assert warm["atoms"] <= cold["atoms"]
        assert warm["coverings"] == 0 < cold["coverings"]
    for row in doc["workload"] + doc["cli_default"]:
        one, two = row["phase_one"], row["phase_two"]
        assert one["candidates"] + two["candidates"] == row["evals_spent"]
        assert two["evaluations"] == two["candidates"]
        assert row["median_ms"] > 0 and row["cold_median_ms"] > 0
        # each code is asked at most once per evaluation, on one of its steps,
        # and every code the realizer pairs is asked in that same evaluation
        for phase in (one, two):
            assert phase["pairings"] <= phase["queries"] <= phase["eval_fuel"]
            assert phase["answer_decodes"] <= phase["queries"]
        # a depth name answers one value, which an evaluation decodes once
        assert two["answer_decodes"] <= two["evaluations"]
    # the workload's blind tables are all decided without an evaluation
    assert all(row["phase_one"] == {"evaluations": 0, "left_table": 0, "eval_fuel": 0,
                                    "queries": 0, "pairings": 0, "unpairs": 0,
                                    "answer_decodes": 0,
                                    "candidates": {2: 4, 3: 8}[row["blind_size_cap"]]}
               for row in doc["workload"])
    # a base's members share prefixes, so phase two re-reaches codes
    assert all(row["phase_two"]["queries"] < row["phase_two"]["eval_fuel"]
               for row in doc["workload"])
    assert all(row["phase_one"]["candidates"] == 133
               and 0 < row["phase_one"]["evaluations"] < 133
               for row in doc["cli_default"])
    # phase one stops each evaluation at its first query outside the table
    for row in doc["cli_default"]:
        one = row["phase_one"]
        assert 0 < one["left_table"] < one["evaluations"]
        assert one["queries"] <= 20
    # no depth name leaves a table
    assert all(row["phase_two"]["left_table"] == 0
               for row in doc["workload"] + doc["cli_default"])


def test_window_bench_at_a_short_tail():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "window_bench.py"),
                           "300", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    long = doc["long"]
    # the rpt-decide-long-constant-tail golden's input and verdict
    assert (long["entries"], long["last_block"]) == (28753, 28747)
    assert long["verdict"] == {"case": "tail", "n0": 5, "n1": 3, "k0": 28753}
    assert long["scans"] == 1 and long["window_steps"] > 0
    # the index reads a few thousand of the 28,754 partial sums
    assert 0 < long["prefix_entries_visited"] < 28754
    settle = doc["settle"]
    assert settle["calls"] == settle["scans"] == 8 * 4 * 6
    assert settle["window_steps"] > 0 and settle["prefix_entries_visited"] > 0
    assert settle["median_ms"] > 0 and long["search_ms"] > 0
