#!/usr/bin/env python3
"""Builds the benchmark and `grserved` from source, then runs one workload.

Usage (from the repository root):

    python3 perfledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Build output goes to `$CARGO_TARGET_DIR` (default `.bench_build`). The
benchmark's own stdout is passed through unchanged; its last line is the
result object. Exits non-zero, without a result, when either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(cmd, env):
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        print(f"perfledger: build failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(done.returncode or 1)


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    build(cargo + ["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)
    build(
        cargo
        + ["--manifest-path", os.path.join(ROOT, "Cargo.toml")]
        + ["-p", "grserve", "--bin", "grserved"],
        env,
    )
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfledger"), *sys.argv[1:]]
    cmd += ["--grserved", os.path.join(release, "grserved")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
