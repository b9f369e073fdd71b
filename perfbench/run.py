#!/usr/bin/env python3
"""Build the perfbench binary from the checkout's sources and run it.

Run from the repository root:

    python3 perfbench/run.py --workload kv-serve --seed 7 --seconds 10 --trace 0

The binary, the Go build cache and the traced run's span dumps live under
.bench_build/ in the checkout, so the benchmark reads and writes nothing
outside it.  Arguments are passed through unchanged; the exit status is
the binary's, or 1 when the build fails (for example outside a checkout
of the repository).
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOPATH": os.path.join(out, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),  # Go's env file and telemetry
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=subprocess.DEVNULL, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=os.environ).returncode


if __name__ == "__main__":
    sys.exit(main())
