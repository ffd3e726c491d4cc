#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package in this directory. It builds against the
repository's crates by path, into $CARGO_TARGET_DIR (default .bench_build),
and runs as a child process so that its peak resident memory can be read
from the kernel's accounting of that one process. The child prints its
report; this wrapper adds `peak_rss_mb` to the end-to-end metrics and
prints the result as the last line of standard output.
"""

import argparse
import json
import os
import subprocess
import sys

MANIFEST = os.path.join("perfbench", "Cargo.toml")
REPO_CRATES = [
    os.path.join("crates", name, "Cargo.toml")
    for name in ("analysis", "bench", "core", "trace", "uarch")
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [path for path in REPO_CRATES if not os.path.isfile(path)]
    if missing:
        print(
            "perfbench: run from the repository root; missing " + ", ".join(missing),
            file=sys.stderr,
        )
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # Fixed allocator settings, so that peak_rss_mb follows the memory the
    # program holds rather than what glibc happens to retain: by default
    # each thread may get its own arena and the mmap threshold adapts to
    # past frees, so the freed memory kept by the server's short-lived
    # threads varies from run to run by a fifth of the peak.
    child_env = dict(os.environ, MALLOC_ARENA_MAX="2", MALLOC_MMAP_THRESHOLD_="262144")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=child_env)
    output = child.stdout.read()
    child.stdout.close()
    # wait4 reports the resource usage of this one child: ru_maxrss is its
    # peak resident set, in KiB on Linux.
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = code = os.waitstatus_to_exitcode(status)
    lines = output.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(output)
        print(f"perfbench: benchmark exited with {code}", file=sys.stderr)
        return code if code > 0 else 2

    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if args.trace == 0:
        peak_mb = usage.ru_maxrss / 1024.0
        print(f"peak_rss_mb = {peak_mb:.3f} MB (peak resident set of the benchmark process)")
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
