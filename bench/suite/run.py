#!/usr/bin/env python3
"""Build the engine from source in this checkout, then run the benchmark.

Run from the repository root:

    python3 bench/suite/run.py --workload mp-gather --seed 7 --seconds 15 --trace 0

The arguments go to suite.exe unchanged (see README.md). The build uses
the release profile with dune's shared cache off; build products land in
_build/, temporary files, worker sockets and Chrome traces in
.bench_suite/, all inside the checkout.
"""

import os
import subprocess
import sys

TARGETS = ["./bench/suite/suite.exe", "./bin/divm_node.exe"]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: not the root of a divm checkout (no dune-project "
              "or lib/ here)", file=sys.stderr)
        return 2
    out = os.path.abspath(".bench_suite")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=out)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--display", "quiet", *TARGETS],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    env["DIVM_NODE_EXE"] = os.path.abspath(
        os.path.join("_build", "default", "bin", "divm_node.exe"))
    exe = os.path.join("_build", "default", "bench", "suite", "suite.exe")
    # exec, so signals reach the benchmark and it reaps its own workers
    os.execve(exe, [exe, *sys.argv[1:]], env)


if __name__ == "__main__":
    sys.exit(main())
