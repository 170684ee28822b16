#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first form builds the `rawt` release
binary and the benchmark (into $CARGO_TARGET_DIR, default .bench_build)
and runs one measurement; its last stdout line is the result object.
`--smoke` runs the benchmark's own tests on tiny inputs instead.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("large-n", "serve-mixed")
# A measurement must end well inside three minutes; builds are not
# counted against it.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo(args, env):
    # Cargo writes its progress to stderr; keep stdout for the result.
    done = subprocess.run(["cargo", *args, "--release", "--offline"], cwd=ROOT, env=env,
                          stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"cargo {' '.join(args)} failed with exit code {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's smoke tests")
    args = parser.parse_args()

    for needed in ("Cargo.toml", "Cargo.lock", "crates/core", "crates/service", "src/bin/rawt.rs"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")

    if args.smoke:
        cargo(["test", "--manifest-path", manifest], env)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    cargo(["build", "--bin", "rawt"], env)
    cargo(["build", "--manifest-path", manifest], env)
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--rawt", os.path.join(release, "rawt"),
        "--work", os.path.join(target, "perfbench-work"),
    ]
    # Its own process group, so a timeout or a signal takes the fleet
    # down with it.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)

    def stop(*_):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("stopped")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"measurement did not finish within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
