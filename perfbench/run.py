#!/usr/bin/env python3
"""Repository benchmark entry point.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep_detailed|sweep_sampled|serve_open \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds the harness (`perfbench/harness`, a package of its own) and the
shipped `svr_serve` daemon from source in release mode, then runs the
harness. The harness prints informational lines and, as the last line of
standard output, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. The build goes to `$CARGO_TARGET_DIR` (default `.bench_build`);
scratch files and traced-run spans go to `.bench_work/`.

Exits non-zero, without printing a result, when the build or the harness
fails, e.g. in a directory that does not hold the simulator's sources.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
HARNESS = os.path.join("perfbench", "harness", "Cargo.toml")


def build(target_dir):
    """Builds the harness and the daemon; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", HARNESS],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "svr-serve", "--bin", "svr_serve"],
    ]
    for cmd in steps:
        if not os.path.exists(cmd[cmd.index("--manifest-path") + 1]):
            sys.exit(f"run.py: {cmd[cmd.index('--manifest-path') + 1]} not found; "
                     "run from the root of a checkout")
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "svr-perfbench"), os.path.join(release, "svr_serve")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep_detailed", "sweep_sampled", "serve_open"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true",
                    help="short run on small inputs (for the benchmark's own tests)")
    args = ap.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    harness, daemon = build(target_dir)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--serve-bin", daemon, "--work-dir", os.path.join(ROOT, ".bench_work")]
    if args.smoke:
        cmd.append("--smoke")
    # glibc's default mmap threshold adapts to the sizes freed so far, which
    # makes how much freed memory stays resident, and so the peak RSS, vary
    # from run to run. Pinning it at its initial value makes the peak track
    # live memory. The daemon inherits the setting.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="4194304")
    done = subprocess.run(cmd, env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
