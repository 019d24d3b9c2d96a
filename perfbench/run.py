#!/usr/bin/env python3
"""Build and run the NDS simulator wall-clock benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (a cargo workspace of its own that uses the
repository's crates by path) in release mode, runs it with the given
arguments, checks that the last line of its output is the result object,
and passes its output through. Exits non-zero, printing no result, when the
build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Builds the benchmark and returns the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"cargo build failed with code {proc.returncode}")
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue
        if (msg.get("reason") == "compiler-artifact"
                and msg.get("target", {}).get("name") == "perfbench"
                and msg.get("executable")):
            return msg["executable"]
    raise RuntimeError("cargo build produced no perfbench executable")


def check_result(line):
    """Raises unless `line` is a well-formed result object."""
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number of at least 1")
    if not isinstance(result["failed"], int):
        raise ValueError("failed must be a whole number")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} keys {sorted(metric)}")


def main():
    try:
        exe = build()
        proc = subprocess.run([exe] + sys.argv[1:], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="", file=sys.stderr)
        print(f"perfbench: run failed with code {proc.returncode}", file=sys.stderr)
        return 1
    try:
        check_result(lines[-1])
    except (ValueError, KeyError, TypeError) as err:
        print(proc.stdout, end="", file=sys.stderr)
        print(f"perfbench: malformed result: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
