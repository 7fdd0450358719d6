#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program's main sources
(src/main/scala) and the benchmark's own (perfbench/src) into
.bench_build/classes with the Scala compiler that ships in Spark's jars
directory ($SPARK_HOME/jars). A stamp of the sources' hash skips the compile
when nothing changed.

    python3 perfbench/build.py
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SOURCES = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src"]


class BuildError(Exception):
    pass


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("SPARK_HOME must name a Spark 4 distribution with a jars/ directory")
    return Path(home) / "jars"


def sources() -> list:
    for d in SOURCES:
        if not d.is_dir():
            raise BuildError(f"missing source directory {d.relative_to(ROOT)}")
    files = sorted(p for d in SOURCES for p in d.rglob("*.scala"))
    if not any(SOURCES[0] in p.parents for p in files):
        raise BuildError(f"no Scala sources under {SOURCES[0].relative_to(ROOT)}")
    return files


def build() -> Path:
    """Compile if any source changed; returns the classes directory."""
    files = sources()
    jars = spark_jars()
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    stamp = digest.hexdigest()
    classes = BUILD / "classes"
    if (classes / ".stamp").is_file() and (classes / ".stamp").read_text() == stamp:
        return classes
    fresh = BUILD / "classes.new"
    shutil.rmtree(fresh, ignore_errors=True)
    fresh.mkdir(parents=True)
    cmd = [java(), "-XX:-UsePerfData", "-Xss8m", "-Xmx1g", "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(fresh)] + [str(f) for f in files]
    print(f"[perfbench] compiling {len(files)} sources", file=sys.stderr)
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    if done.returncode != 0:
        raise BuildError(f"scalac exited with {done.returncode}")
    (fresh / ".stamp").write_text(stamp)
    shutil.rmtree(classes, ignore_errors=True)
    fresh.rename(classes)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"[perfbench] build failed: {e}")
