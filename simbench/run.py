#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Run from the root of a checkout:

    python3 simbench/run.py --workload fleet-nic --seed 1 --seconds 20 --trace 0

Every argument goes to the benchmark program (simbench/main.ml); its
last line of output is the JSON result.  The build goes to
.bench_build (dune's release profile), trace files and the runtime
events ring to .bench_out.  Exits non-zero, printing no result, when
the build fails, e.g. outside a full checkout of the repository.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
TARGET = "./simbench/main.exe"


def main():
    if not os.path.isfile("dune-project"):
        sys.stderr.write("simbench: run from the root of a checkout of the repository\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("simbench: build failed\n")
        return build.returncode or 1
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    exe = os.path.join(BUILD_DIR, "default", "simbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
