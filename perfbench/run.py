#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

The Go program is built from source into .bench_build/ (the Go build
cache, module cache and temporary files live there too, so a run reads
and writes only inside the checkout). Its stdout is passed through; the
last line is the JSON result. --selfcheck runs the benchmark's own test
suite (perfbench/selfcheck_test.go) instead.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(out, "tmp")
    for d in (out, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomod"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOENV": "off",
        "GOTELEMETRY": "off",
    })
    go = shutil.which("go")
    if go is None:
        # GOROOT, then the Go distribution's default install location.
        for cand in (os.path.join(os.environ.get("GOROOT", ""), "bin", "go"), "/usr/local/go/bin/go"):
            if os.path.isfile(cand):
                go = cand
                break
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1

    if sys.argv[1:] == ["--selfcheck"]:
        return subprocess.run([go, "test", "-count=1", "-v", "."], cwd=src, env=env,
                              stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode

    binary = os.path.join(out, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
