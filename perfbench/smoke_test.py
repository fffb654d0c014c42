#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at Scale::Small.

Usage (from the repository root):

    python3 perfbench/smoke_test.py

Runs every workload with --trace 0 and --trace 1 through run.py
--smoke. Checks that each run exits 0 and ends with the result
object, and that the object reports exactly the metrics BENCHMARK.json
lists, with their units. Then checks that the command fails, without
a result, in a directory that holds only BENCHMARK.json and
perfbench/. Takes about a minute once the build exists.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace, env=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, env=env)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, w["name"], trace)
            tag = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}\n"
                                f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(res) != ["attempted", "correct", "failed",
                               "metrics"]:
                failures.append(f"{tag}: keys {sorted(res)}")
            if res["correct"] is not True or res["attempted"] < 1:
                failures.append(f"{tag}: {res['correct']=} "
                                f"{res['attempted']=}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if want != got:
                failures.append(f"{tag}: metrics differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and want[k] != got[k]]}")
            print(f"ok  {tag}: {res['attempted']} points, "
                  f"{res['failed']} failed, {len(got)} metrics")

    # Without the simulator sources the command must fail cleanly.
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = run(bare, spec["workloads"][0]["name"], 0, env)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("bare directory: expected a nonzero exit and "
                        "no result")
    else:
        print(f"ok  bare directory: exit {proc.returncode}, no result")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
