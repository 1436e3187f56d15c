#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A seconds-long smoke run of every workload in BENCHMARK.json, untraced
   and traced: each must print every end-to-end (untraced) or per-layer
   (traced) metric named in BENCHMARK.json, with its declared unit and a
   finite value, and report correct=true with no failures.
2. The same runs with --flip-oracle, which inverts one expected verdict:
   each must report failed > 0 and correct=false.
3. A copy holding only BENCHMARK.json and the benchmark's paths must exit
   non-zero without printing a result.

Exits 0 when every check passes. Scratch files go under .bench_build/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(args, cwd=ROOT):
    return subprocess.run(["python3", "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, declared in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
            args = ["--workload", workload, "--seed", "1", "--seconds", "2",
                    "--trace", trace]
            label = "%s trace=%s" % (workload, trace)
            result = result_of(run(args))
            if result is None:
                problems.append(label + ": no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(label + ": unexpected keys %s" % sorted(result))
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(label + ": not a clean run: %s" %
                                {k: result[k] for k in
                                 ("correct", "attempted", "failed")})
            metrics = result["metrics"]
            for metric in declared:
                got = metrics.get(metric["name"])
                if got is None:
                    problems.append(label + ": missing " + metric["name"])
                elif got["unit"] != metric["unit"] or \
                        not isinstance(got["value"], (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append(label + ": bad %s %s" %
                                    (metric["name"], got))
            extra = set(metrics) - {m["name"] for m in declared}
            if extra:
                problems.append(label + ": undeclared %s" % sorted(extra))

        flipped = result_of(run(["--workload", workload, "--seed", "1",
                                 "--seconds", "1", "--trace", "0",
                                 "--flip-oracle"]))
        if flipped is None or flipped["failed"] <= 0 or flipped["correct"]:
            problems.append(workload + ": a wrong expected verdict went "
                            "unnoticed: %s" % flipped)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a checkout without the program still ran")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
