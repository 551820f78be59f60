#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

The Go toolchain's cache, temporary files and the built binary all live in
.bench_build/ under the current directory, so a run reads and writes only
inside the checkout. Every argument is passed to the benchmark binary; its
exit code is this script's exit code.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "gotmp"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "TMPDIR": os.path.join(build, "tmp"),
    })
    for d in ("gocache", "gotmp", "gomodcache", "tmp"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
