#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <agents|fabric|wan> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the benchmark package (perfbench/Cargo.toml, release profile) into
$CARGO_TARGET_DIR, or .bench_build at the repository root when that is
unset, then runs it with the same arguments. The benchmark's standard
output passes through unchanged; its last line is the JSON result. The
exit code is the benchmark's, or 1 if the build fails or the run overruns
its time limit.
"""

import os
import subprocess
import sys

# A run must finish well inside the three minutes a single run is allowed.
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(root, "perfbench", "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(root, target, "release", "falcon-perfbench")
    try:
        run = subprocess.run([binary, *sys.argv[1:]], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
