#!/usr/bin/env python3
"""Entry point of the Campion benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (which compiles the
program from src/) into the build directory, runs one workload, and prints
a provenance line followed, as the last line of standard output, by the
result object {"correct", "attempted", "failed", "metrics"}. The full record
(provenance, errors, result) and, for traced runs, the span log are also
written under <build>/perfbench-results/.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build.
--flip-oracle inverts one expected oracle verdict (self-test only).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("university_routemaps", "dualstack_acls", "serve_fleet")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build(out_dir):
    """Configures once, then builds the benchmark binary (incrementally)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources under %s/src; run from a full checkout" % ROOT)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "perfbench-build.log")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target",
                  "campion_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(out_dir, "campion_perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the program and benchmark sources: the provenance of a
    checkout that is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--flip-oracle", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    results = os.path.join(out_dir, "perfbench-results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%s" % (args.workload, args.seed, args.trace)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans-out", os.path.join(results, stem + "-spans.json")]
    if args.flip_oracle:
        command.append("--flip-oracle")
    try:
        run = subprocess.run(command, cwd=ROOT, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        fail("benchmark binary exited with %d" % run.returncode)

    record = json.loads(lines[-2])
    provenance = record["provenance"]
    provenance["git_sha"] = git_sha()
    if provenance["git_sha"] is None:
        provenance["source_sha256"] = source_digest()
    provenance["nproc"] = len(os.sched_getaffinity(0))
    record["result"] = json.loads(lines[-1])
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"provenance": provenance, "errors": record["errors"]},
                     sort_keys=True))
    print(lines[-1])


if __name__ == "__main__":
    main()
