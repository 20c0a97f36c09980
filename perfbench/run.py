#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload resolver-scan --seed 1 --seconds 20 --trace 0

Every argument is passed to the program; `--workload all` runs each
workload of BENCHMARK.json in turn, each in its own process, and prints
each one's result. The build, its Go caches and the
program's temporary files stay under the build directory (the value of
CARGO_TARGET_DIR, or .bench_build), so nothing is written outside the
checkout. If the repository's sources are missing the build fails, and
this script exits non-zero without printing a result.
"""

import json
import os
import subprocess
import sys


def runs(root, args):
    """Expands `--workload all` into one argument list per workload."""
    for i, arg in enumerate(args[:-1]):
        if arg == "--workload" and args[i + 1] == "all":
            with open(os.path.join(root, "BENCHMARK.json")) as f:
                names = [w["name"] for w in json.load(f)["workloads"]]
            return [args[:i + 1] + [name] + args[i + 2:] for name in names]
    return [args]


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "TMPDIR": os.path.join(out, "tmp"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly -buildvcs=false",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "PERFBENCH_OUT": out,
    })
    for d in ("gocache", "gopath", "config", "tmp"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if os.path.isdir(os.path.join(root, ".git")):
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True)
        if rev.returncode == 0:
            env["PERFBENCH_COMMIT"] = rev.stdout.strip()
    code = 0
    for args in runs(root, sys.argv[1:]):
        code = max(code, subprocess.run([binary] + args, cwd=root, env=env).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
