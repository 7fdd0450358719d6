#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout:

    python3 perfbench/run.py --workload tao-kernel --seed 1 --seconds 25 --trace 0

Builds the program from source (perfbench/build.py), runs the workload in
one JVM with its own local Spark session, relays its report, and prints as
the last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1. Exits non-zero, without that line, if the
build fails, the run fails or times out, or the report does not match
BENCHMARK.json; exits 1 after it if an output check failed. Everything the
run writes stays under .bench_build/.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ["tao-kernel", "fleet-batch", "fleet-stream"]
RUN_TIMEOUT_S = 170
HEAP = "3g"
YOUNG = "1g"

# Spark 4 needs these on Java 17 (the set its launcher passes).
JAVA_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(2)


def expected_metrics(trace: bool) -> dict:
    spec = json.loads((build.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line: str, trace: bool) -> dict:
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        raise ValueError("failed must be a whole number")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"unit mismatch {sorted(k for k in set(got) & set(want) if got[k] != want[k])}")
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    try:
        classes = build.build()
        jars = build.spark_jars()
    except (build.BuildError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    tmp = build.BUILD / "tmp" / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    # A fixed, pre-touched heap: the first reps would otherwise pay for
    # growing the heap and faulting in its pages. A large fixed young
    # generation keeps collections out of most short reps.
    cmd = [build.java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Xmn{YOUNG}", "-XX:+AlwaysPreTouch", "-XX:-UsePerfData",
           *JAVA_MODULE_OPTS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={build.ROOT / 'perfbench' / 'log4j2.properties'}",
           "-cp", f"{classes}{os.pathsep}{jars}/*", "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(build.BUILD / "results"), "--tmp", str(tmp)]
    # Spark prefers SPARK_LOCAL_DIRS over spark.local.dir; keep both inside.
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp / "spark-local"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    shutil.rmtree(tmp, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = validate(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        fail(f"no valid result (exit {proc.returncode}): {e}")
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
