#!/usr/bin/env python3
"""Build tempagg and the load generator from source, then run one workload.

    python3 perfbench/run.py --workload scan|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The build goes to .bench_build
(or $CARGO_TARGET_DIR when set); working files go to .bench_run and the
traced run's spans to .bench_out.  The last line of standard output is the
result as one JSON object; the exit code is 0 only when every reply was
correct.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["scan", "mixed"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(need):
            fail("%s not found: run from the root of a tempagg source checkout" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--build-dir", build_dir,
             "--profile", "release", "-j", "2",
             "./bin/tempagg_cli.exe", "./perfbench/bench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(build_dir, "default")
    cmd = [os.path.join(exe, "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--cli", os.path.abspath(os.path.join(exe, "bin", "tempagg_cli.exe"))]
    # Its own process group, so a timeout also stops the server it started.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def forward(signum, _frame):
        os.killpg(proc.pid, signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
