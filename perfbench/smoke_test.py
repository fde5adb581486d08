#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Run from the repository root. Runs every workload of BENCHMARK.json at
tiny size, untraced and traced, and asserts that:

* the last stdout line has exactly the keys correct, attempted, failed
  and metrics, with correct true and no failed operation;
* every end-to-end metric (untraced) or per-layer metric (traced) named
  in BENCHMARK.json is emitted with its unit, and end-to-end values are
  positive;
* deliberately wrong expected answers (--sabotage) trip the output
  checks, both a check made before timing and the checks made on timed
  operations, so the checks are not vacuous;
* outside a repository checkout the benchmark fails without printing a
  result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    argv = [sys.executable, script, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(done):
    assert done.returncode == 0, f"exit {done.returncode}: {done.stderr[-2000:]}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result, wanted, positive):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, set(metrics) ^ {m["name"] for m in wanted}
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), (m["name"], got)
        if positive:
            assert got["value"] > 0, (m["name"], got["value"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = result_of(run(workload, trace))
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            check_metrics(result, wanted, positive=trace == 0)
            print(f"ok   {workload} trace {trace}: {result['attempted']} operations checked")
        # --sabotage corrupts at most one expectation checked before
        # timing, which fails once; any further failure is a timed
        # operation whose check caught a corrupted expectation.
        sabotaged = result_of(run(workload, 0, "--sabotage"))
        assert not sabotaged["correct"] and sabotaged["failed"] >= 2, (workload, sabotaged)
        print(f"ok   {workload}: wrong expected answers fail {sabotaged['failed']} check(s)")

    # A directory holding only BENCHMARK.json and the benchmark's files.
    bare = os.path.join(HERE, "work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "work", "__pycache__"))
    done = run(spec["workloads"][0]["name"], 0, cwd=bare,
               script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
    print("ok   a bare directory fails without a result")


if __name__ == "__main__":
    main()
