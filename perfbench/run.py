#!/usr/bin/env python3
"""Layered benchmark of the BSI metric platform.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the program and the
harness from source with sbt (offline) into .bench_build/; later runs reuse
the build while the sources are unchanged. Each run starts one JVM (Spark in
local mode on nproc cores for the Spark workloads), prints every metric by
name and unit, and prints as its last stdout line one JSON object with the
keys correct, attempted, failed and metrics. A run record with the
environment, parameters and every sample goes to .bench_build/runs/.

Workloads, metrics and units are defined in BENCHMARK.json. Seeds: 1 is the
development seed; 7919 is held out for checking later claims.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HOLDOUT_SEED = 7919
# A fixed heap and the throughput collector: under G1 the drill-down's op time
# and executor CPU varied by a third from one JVM to the next.
JVM_FLAGS = ["-Xms4g", "-Xmx4g", "-XX:+UseParallelGC", "-XX:-UsePerfData"]
JVM_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600
# Spark 4 on Java 17 needs these module openings when started without spark-submit.
ADD_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def source_files():
    dirs = [os.path.join(HERE, "src"), os.path.join(ROOT, "src", "main", "scala")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for d in dirs:
        for base, _, names in os.walk(d):
            files += [os.path.join(base, n) for n in names]
    return sorted(files)


def digest(files):
    h = hashlib.sha256()
    for p in files:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution: set SPARK_HOME")
    return home


def run_bounded(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return p.returncode, out


def build(env):
    """Compile with sbt unless the classpath was built from these sources."""
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("program sources src/main/scala/repro are missing; run from a checkout root")
    files = source_files()
    want = digest(files)
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp = os.path.join(BUILD, "digest.txt")
    if os.path.isfile(cp_file) and os.path.isfile(stamp) and open(stamp).read() == want:
        return open(cp_file).read().strip(), want
    if not shutil.which("sbt"):
        fail("sbt is required to build the benchmark")
    os.makedirs(BUILD, exist_ok=True)
    opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline=true" not in opts:
        env["SBT_OPTS"] = (opts + " -Dsbt.offline=true").strip()
    env.setdefault("COURSIER_MODE", "offline")
    log = os.path.join(BUILD, "build.log")
    with open(log, "w") as f:
        rc, _ = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "benchClasspath"],
                            BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=f, stderr=subprocess.STDOUT,
                            stdin=subprocess.DEVNULL)
    if rc != 0 or not os.path.isfile(cp_file):
        fail(f"build failed (exit {rc}); see {log}")
    with open(stamp, "w") as f:
        f.write(want)
    return open(cp_file).read().strip(), want


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_workload(name, args, cp, src_digest, env, bench):
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    tag = f"{name}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.size == "tiny" else "")
    runs = os.path.join(BUILD, "runs")
    scratch = os.path.join(BUILD, "tmp", f"{tag}-{os.getpid()}")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(scratch, exist_ok=True)
    record = os.path.join(runs, tag + ".json")
    conf = os.path.join(HERE, "conf", "log4j2.properties")
    cmd = (["java"] + JVM_FLAGS + [f"-Djava.io.tmpdir={scratch}", f"-Dlog4j2.configurationFile={conf}"] + ADD_OPENS +
           ["-cp", cp, "perfbench.Main", "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
            "--corrupt-ref", str(args.corrupt_ref), "--local-dir", scratch, "--record", record])
    t0 = time.time()
    try:
        rc, out = run_bounded(cmd, JVM_TIMEOUT_S, cwd=ROOT, env=dict(env, SPARK_LOCAL_DIRS=scratch), stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if rc != 0 or not lines:
        fail(f"{name}: JVM exited with {rc} and no result")
    res = json.loads(lines[-1][len("RESULT "):])
    got = res["metrics"]
    if set(got) != set(units):
        fail(f"{name}: metrics {sorted(set(got) ^ set(units))} differ from BENCHMARK.json")
    metrics = {m: {"value": got[m], "unit": units[m]} for m in units}
    with open(record) as f:
        rec = json.load(f)
    rec.update({"commit": commit(), "source_sha256": src_digest, "jvm_flags": JVM_FLAGS, "holdout_seed": HOLDOUT_SEED,
                "wall_s": time.time() - t0, "metrics": metrics})
    with open(record, "w") as f:
        json.dump(rec, f, indent=1)
    for m, v in metrics.items():
        print(f"{name:16s} {m:28s} {v['value']:>16.6g} {v['unit']}")
    return {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the benchmark's own tests")
    ap.add_argument("--corrupt-ref", type=int, choices=(0, 1), default=0,
                    help="1: change one reference cell, to show the check can fail")
    args = ap.parse_args()
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload}; known: {', '.join(names)}")
    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    cp, src_digest = build(env)
    todo = names if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args, cp, src_digest, env, bench) for w in todo}
    if len(todo) == 1:
        result = results[todo[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
