#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

Run from the repository root:

    python3 e2ebench/run.py --workload heap_churn --seed 1 --seconds 10 --trace 0

The benchmark is its own Go module (e2ebench/go.mod) that uses the
collector in the parent directory through a replace directive. Build
outputs and the Go build cache go under .bench_build/ in the current
directory, so the benchmark reads and writes nothing outside it. All
arguments are passed to the benchmark binary unchanged; its standard
output ends with one JSON line (see e2ebench/README.md).
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOTMPDIR": build_dir,
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(build_dir, "e2ebench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    if build.returncode != 0:
        print("e2ebench: build failed (the benchmark needs the collector's "
              "source in the parent directory)", file=sys.stderr)
        return build.returncode
    spans = os.path.join(build_dir, "spans")
    proc = subprocess.run([binary, "--span-dir", spans] + sys.argv[1:], env=env, timeout=900)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
