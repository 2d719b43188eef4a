#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

    python3 perfbench/run.py --workload fleet-ingest --seed 7 \
        --seconds 30 --trace 0

Run from the repository root. The first run configures and builds a
Release copy of the libraries plus rssd_perfbench in .bench_build/; later
runs only re-check the build. The program's standard output is passed
through, so its last line is the result JSON.

Determinism across runs: every run records its digest in
.bench_build/digests/, keyed by the program binary's SHA-256, the
workload and the seed. A later run of the same binary on the same
workload and seed (traced or not) must print the same digest, or the
run is reported incorrect.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
SOURCE = os.path.join(ROOT, "perfbench")
BINARY = os.path.join(BUILD, "rssd_perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under src/; run from the repo root")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "rssd_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))


def digest_record(args, digest):
    """Compare @digest with the one stored for this binary, workload
    and seed (storing it on first sight); True when they agree."""
    with open(BINARY, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    folder = os.path.join(BUILD, "digests", binary)
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, f"{args.workload}-{args.seed}.txt")
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip() == digest
    with open(path, "w") as f:
        f.write(digest + "\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a whole number")

    build()
    done = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit(done.returncode or 1)

    result = json.loads(lines[-1])
    prefix = f"digest {args.workload} seed {args.seed}: "
    digests = [l[len(prefix):] for l in lines if l.startswith(prefix)]
    if len(digests) != 1 or not digest_record(args, digests[0]):
        lines.insert(-1, "FAIL: determinism digest differs from an "
                         "earlier run of this binary")
        result = {"correct": False, "attempted": result["attempted"],
                  "failed": result["failed"], "metrics": {}}
        lines[-1] = json.dumps(result)
    print("\n".join(lines))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
