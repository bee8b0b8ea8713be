#!/usr/bin/env python3
"""Build and run the SFDM1/SFDM2 benchmark.

    python3 sfdmbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--master local[4]] [--jvm-flags "..."] [--smoke]

Run it from the root of a checkout. The first run builds the program and the
harness with sbt (sfdmbench/build.sbt) and keeps the classpath under
.bench_build/; later runs start the JVM directly. Everything the benchmark
writes stays under .bench_build/: the build, Spark's scratch space, the
results file of each run and the spans file of each traced run. The last line
of standard output is the JSON result; the exit code is 0 only if every
output check passed.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def source_files():
    """Every file the sbt build reads, so a changed source triggers a rebuild."""
    singles = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    trees = [os.path.join(ROOT, d) for d in ("project", "src/main", "jobs")]
    trees += [os.path.join(HERE, d) for d in ("project", "src")]
    files = [f for f in singles if os.path.isfile(f)]
    for tree in trees:
        for d, dirs, names in os.walk(tree):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))
            files += [os.path.join(d, x) for x in sorted(names) if x.endswith((".scala", ".sbt", ".properties", ".java"))]
    return files


def build():
    """Build with sbt unless the classpath of the same sources is already there."""
    digest = hashlib.sha256()
    for f in source_files():
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    stamp = os.path.join(OUT, "build.stamp")
    classpath = os.path.join(HERE, "target", "classpath.txt")
    if os.path.isfile(stamp) and os.path.isfile(classpath):
        with open(stamp) as fh:
            if fh.read() == digest.hexdigest():
                with open(classpath) as fh:
                    return fh.read().strip()
    os.makedirs(OUT, exist_ok=True)
    # sbt reads its caches and toolchain from the user's home; its own state,
    # locks and temporary files go under .bench_build/.
    sbt_tmp = os.path.join(OUT, "tmp", "sbt")
    os.makedirs(sbt_tmp, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline", TMPDIR=sbt_tmp,
               JAVA_TOOL_OPTIONS="-XX:-UsePerfData -Djava.io.tmpdir=" + sbt_tmp)
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true").strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dsbt.global.base=" + os.path.join(OUT, "sbt-global"), "-Dsbt.ivy.home=" + os.path.join(OUT, "ivy2"),
           "-Djna.tmpdir=" + sbt_tmp, "writeClasspath"]
    code = run_group(cmd, HERE, env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0 or not os.path.isfile(classpath):
        sys.exit("sfdmbench: build failed (exit %s)" % code)
    with open(stamp, "w") as fh:
        fh.write(digest.hexdigest())
    with open(classpath) as fh:
        return fh.read().strip()


def run_group(cmd, cwd, env, timeout, stdout=None):
    """Run cmd in its own process group; on timeout kill the group. Returns the exit code."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("sfdmbench: %s timed out after %d s" % (cmd[0], timeout), file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", choices=("0", "1"), required=True)
    p.add_argument("--master", default="local[4]")
    p.add_argument("--jvm-flags", default="-Xms2g -Xmx2g")
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    a = p.parse_args()

    classpath = build()
    tmp = os.path.join(OUT, "tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=tmp)
    cmd = ["java"] + a.jvm_flags.split() + ["-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp, "-cp", classpath,
           "repro.perf.FdmBench", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace, "--master", a.master, "--out", OUT]
    if a.smoke:
        cmd.append("--smoke")
    try:
        code = run_group(cmd, ROOT, env, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
