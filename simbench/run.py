#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in its own process.

Usage, from the root of a checkout:

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). Build output
goes to stderr; the benchmark's own output, whose last line is the JSON
result, goes to stdout. Exits non-zero, without a result, if the build fails
or the benchmark does not finish in time.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds and then finishes its current section; the
# longest section is a few seconds. Stop a run that hangs well before a
# caller's own limit.
RUN_TIMEOUT_S = 170


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("simbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(target, "release", "simbench"), *argv,
           "--fingerprints", os.path.join(HERE, "fingerprints.txt")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"simbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
