#!/usr/bin/env python3
"""Builds and runs THEDB's benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ycsb-local --seed 1 --seconds 20 --trace 0

It builds cmd/thedb-server and the benchmark (the Go module in this
directory) into .bench_build/perfbench, keeping the Go build cache and
temporary files there too, then runs the benchmark from the root. The
benchmark prints its metrics and, as its last line, one JSON result.
The exit code is the benchmark's: 0 when every correctness gate held.
"""

import os
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "cmd", "thedb-server"))):
        sys.stderr.write("perfbench: run from the root of a THEDB checkout "
                         "(go.mod and cmd/thedb-server not found)\n")
        return 2

    out = os.path.join(root, ".bench_build", "perfbench")
    dirs = {name: os.path.join(out, name) for name in ("config", "gocache", "gopath", "tmp", "work")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=dirs["gocache"], GOPATH=dirs["gopath"],
               GOMODCACHE=os.path.join(dirs["gopath"], "pkg", "mod"),
               GOTMPDIR=dirs["tmp"], TMPDIR=dirs["tmp"],
               # The go command keeps its settings and telemetry counters
               # under the user config directory.
               XDG_CONFIG_HOME=dirs["config"],
               GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off",
               GOFLAGS="-mod=readonly", CGO_ENABLED="0")

    server = os.path.join(out, "thedb-server")
    bench = os.path.join(out, "perfbench")
    for args, cwd in ((["go", "build", "-o", server, "./cmd/thedb-server"], root),
                      (["go", "build", "-o", bench, "."], here)):
        if subprocess.run(args, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(args))
            return 2

    p = subprocess.Popen([bench, *sys.argv[1:], "--server", server,
                          "--workdir", dirs["work"], "--root", root], cwd=root, env=env)

    def forward(sig, _frame):
        p.send_signal(sig)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return p.wait()


if __name__ == "__main__":
    sys.exit(main())
