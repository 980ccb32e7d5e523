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
    assert set(doc["square"][0]) == {"bits", "builtin_ms", "kernel_ms", "one_level_ms",
                                     "kernel_ratio", "one_level_ratio"}
    assert doc["bar"]["depth"] == 14 and doc["bar"]["tracemalloc_peak_kb"] > 0
