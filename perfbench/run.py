#!/usr/bin/env python3
"""Run one workload of the CLIMBER benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the benchmark (an sbt
build in this directory that compiles the repository's root project), caches
the classpath, and records a class-data-sharing archive from one short
training run, so that later JVMs start faster; later runs reuse both while
the sources are unchanged.
The benchmark JVM prints a report and, as its last line, one JSON object.
This script passes both through, checks the JSON against BENCHMARK.json,
and exits non-zero when the build fails, a check fails, or the JSON is
malformed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "run-classpath.txt")
STAMP = os.path.join(TARGET, "run-classpath.stamp")
ARCHIVE = os.path.join(TARGET, "classes.jsa")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175
HEAP = "3g"
# C1 only, compiling after a tenth of the default invocation counts. Under
# the default tiered JIT, query latency keeps falling for 400 and more
# queries (about 280 ms to 130 ms on rw50k-q1, 4-vCPU VM) as C2 compiles
# Spark's per-query code, far longer than a run can warm up, so a run's
# figures showed how far the JIT had got. With these flags it settles within
# the warm-up. They compile more methods than C1's default 48 MB code cache
# holds; when it fills, the JVM stops compiling and later code stays
# interpreted, so the cache gets the tiered default's size. The parallel
# collector runs no concurrent GC threads beside Spark's task threads.
JVM_OPTS = ["-XX:TieredStopAtLevel=1", "-XX:CompileThresholdScaling=0.1",
            "-XX:ReservedCodeCacheSize=240m", "-XX:+UseParallelGC"]

# Module opens Spark needs on JDK 17 (the root build.sbt passes the same set).
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads: the root build and sources, and this package's."""
    files = []
    for base, subdirs in ((ROOT, ["project", "src/main", "jobs"]), (HERE, ["project", "src/main"])):
        for name in ("build.sbt",):
            if os.path.isfile(os.path.join(base, name)):
                files.append(os.path.join(base, name))
        for sub in subdirs:
            for d, dirs, names in os.walk(os.path.join(base, sub)):
                dirs[:] = sorted(x for x in dirs if x != "target")
                files += [os.path.join(d, n) for n in sorted(names)]
    return files


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run(cmd, cwd, env, timeout):
    """Run `cmd` in its own process group; kill the group on timeout."""
    p = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return p.returncode, out.decode()


def java(extra, workload, seed, seconds, trace):
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", *JVM_OPTS, f"-Djava.io.tmpdir={os.path.join(OUT, 'tmp')}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false", "-Xlog:all=warning:stderr"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS] + extra
    cmd += ["-cp", cp, "repro.perfbench.Main", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", trace, "--out", OUT]
    return run(cmd, ROOT, dict(os.environ), RUN_TIMEOUT_S)


def build():
    s = stamp()
    if os.path.isfile(CLASSPATH) and os.path.isfile(STAMP) and open(STAMP).read() == s:
        return
    for f in (STAMP, ARCHIVE):
        if os.path.exists(f):
            os.remove(f)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true")
    env["SBT_OPTS"] += " -Xmx2g -Dsbt.server.forcestart=false"
    t = time.time()
    code, out = run(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"], HERE, env,
                    BUILD_TIMEOUT_S)
    sys.stderr.write(out)
    if code != 0 or not os.path.isfile(CLASSPATH):
        fail(f"build failed (sbt exit {code})", 3)
    # A traced run loads nearly every class a measured run needs.
    code, _ = java([f"-XX:ArchiveClassesAtExit={ARCHIVE}"], "rw50k-q1", 0, 1, "1")
    if code not in (0, 1) and os.path.exists(ARCHIVE):
        os.remove(ARCHIVE)
    with open(STAMP, "w") as fh:
        fh.write(s)
    print(f"perfbench: built in {time.time() - t:.1f} s", file=sys.stderr)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "build.sbt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail(f"no CLIMBER sources under {ROOT}; run from the root of a checkout")
    expected = expected_metrics(a.trace == "1")
    build()

    extra = [f"-XX:SharedArchiveFile={ARCHIVE}"] if os.path.isfile(ARCHIVE) else []
    code, out = java(extra, a.workload, a.seed, a.seconds, a.trace)
    lines = out.rstrip("\n").split("\n")
    if code not in (0, 1):
        sys.stdout.write(out)
        fail(f"benchmark JVM exited with {code}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("the benchmark printed no JSON result")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != expected:
        sys.stdout.write(out)
        fail(f"result does not match BENCHMARK.json: got {sorted(got.items())}")
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0 or not result["correct"]:
        fail("output or placement checks failed", 1)


if __name__ == "__main__":
    main()
