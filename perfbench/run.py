#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|tiny] [--sabotage]

Run from the repository root. The benchmark is a package of its own
(perfbench/Cargo.toml) built against the repository's crates by path;
cargo honours CARGO_TARGET_DIR. The last line of stdout is the result
JSON; see perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compose_batch", "match_read", "cluster_mixed")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
# The sources whose digest identifies what was measured.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench")
SKIP_DIRS = {"target", "work", "__pycache__", ".bench_build"}


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCES:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def command_output(argv):
    # Never let git search above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--sabotage", action="store_true")
    args = parser.parse_args()

    missing = [p for p in ("Cargo.toml", "crates/sbml-serve/Cargo.toml", "vendor/rand/Cargo.toml")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a repository checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    argv = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--work-dir", os.path.join(HERE, "work"),
        "--rustc", command_output(["rustc", "--version"]),
        "--git-rev", command_output(["git", "rev-parse", "HEAD"]),
        "--source-digest", source_digest(),
    ]
    if args.sabotage:
        argv.append("--sabotage")
    child = subprocess.Popen(argv, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
