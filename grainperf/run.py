#!/usr/bin/env python3
"""Run one workload of the GRainDB benchmark.

    python3 grainperf/run.py --workload snb --seed 1 --seconds 10 --trace 0

Run it from the repository root. The first run builds the harness and the
program from source with sbt (a few minutes); later runs reuse the build
until a source file changes. The JVM runs with pinned heap and GC flags.
The last line of stdout is the JSON result. Exit code 0 means the run
finished; a failed build or run exits non-zero without a result.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
RUNTIME = os.path.join(TARGET, "runtime.txt")
STAMP = os.path.join(TARGET, "runtime.stamp")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("snb", "job")
# One heap size, one young-generation size, one collector; the heap is
# touched up front so page faults do not land in timed passes.
JVM_FLAGS = [
    "-Xms4g", "-Xmx4g", "-Xmn1g", "-XX:+UseSerialGC", "-XX:+AlwaysPreTouch",
    "-XX:+UseTransparentHugePages",
    "-Dspark.ui.enabled=false", "-Djava.io.tmpdir=" + os.path.join(OUT, "tmp"),
]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def sources():
    """Every file the build reads: the program's and the harness's."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src", "main"),
             os.path.join(HERE, "project")]
    files = [os.path.join(HERE, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def source_hash():
    h = hashlib.sha256(ROOT.encode())
    for f in sources():
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_child(cmd, timeout, **kw):
    """Run `cmd` to completion; kill it on timeout or if this script is
    stopped, and always wait for it. Returns (exit code, stdout bytes)."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
        return p.returncode, out
    except subprocess.TimeoutExpired:
        sys.exit("timed out: " + " ".join(cmd[:2]))
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()


def build(stamp):
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true -Xmx2g")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "exportRuntime"]
    code, out = run_child(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env, stderr=subprocess.STDOUT)
    if code != 0:
        sys.stderr.write(out.decode(errors="replace")[-4000:])
        sys.exit("build failed")
    with open(STAMP, "w") as fh:
        fh.write(stamp)


def main():
    # A stopped benchmark still stops and waits for its child (see run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("stopped"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        sys.exit("program sources not found: run from a full checkout of the repository")
    stamp = source_hash()
    current = open(STAMP).read() if os.path.exists(STAMP) else ""
    if current != stamp or not os.path.exists(RUNTIME):
        build(stamp)
    with open(RUNTIME) as fh:
        lines = fh.read().splitlines()
    classpath, opens = lines[0], lines[1:]
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    cmd = (["java"] + JVM_FLAGS + opens + ["-cp", classpath, "grainperf.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--work-dir", OUT])
    code, out = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT)
    out = out.decode(errors="replace")
    if code != 0:
        # Keep a failed run's partial report off stdout so no result is printed.
        sys.stderr.write(out)
        sys.exit(code if code > 0 else 1)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
