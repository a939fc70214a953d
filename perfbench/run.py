#!/usr/bin/env python3
"""Builds the benchmark and the `sgla-serve` binary from source, then runs
one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Builds go to `$CARGO_TARGET_DIR`
(default `.bench_build`). The last line of standard output is the result
object; the exit code is that of the benchmark (non-zero when a build
fails or any output is wrong).
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "sgla-serve", "--bin", "sgla-serve"],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    bench = [
        os.path.join(target, "release", "perfbench"),
        *sys.argv[1:],
        "--server-bin", os.path.join(target, "release", "sgla-serve"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    return subprocess.run(bench, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
