#!/usr/bin/env python3
"""Run one workload of the Affidavit benchmark.

    python3 perfbench/run.py --workload <hid-search|small-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. The first call builds
the program and the benchmark with sbt (perfbench/build.sbt) and caches the
resulting classpath; later calls start the benchmark JVM directly and
rebuild only when a source file changed. Everything the benchmark writes
stays under .bench_build/ and the sbt target directories of the checkout.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is non-zero
when the build fails, the program is missing, or any explain call failed
a check.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".bench_build"
LAUNCH = BENCH / "target" / "launch.txt"
STAMP = STATE / "perfbench-build.txt"

# The driver JVM is pinned so results do not depend on how much memory the
# machine has (the program's own build falls back to a 48 GB heap).
HEAP = "3g"

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175

# Source trees whose content decides whether the cached build is current.
SOURCES = [
    ROOT / "build.sbt",
    ROOT / "project",
    ROOT / "src" / "main",
    BENCH / "build.sbt",
    BENCH / "project",
    BENCH / "src" / "main",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_hash():
    h = hashlib.sha256()
    for top in SOURCES:
        files = [top] if top.is_file() else sorted(
            p for p in top.rglob("*")
            if p.is_file() and "target" not in p.relative_to(top).parts)
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_child(cmd, cwd, env, timeout, **kw):
    """Run a child process to completion; kill it (and wait) on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s", 3)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build(digest):
    if LAUNCH.is_file() and STAMP.is_file() and STAMP.read_text().strip() == digest:
        return
    print(f"perfbench: building (sources {digest})", file=sys.stderr)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "writeLaunch"]
    code = run_child(cmd, BENCH, env, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0 or not LAUNCH.is_file():
        fail(f"build failed (sbt exit code {code})", 4)
    STAMP.write_text(digest + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources next to {BENCH.name}/; run from a full checkout")

    STATE.mkdir(exist_ok=True)
    (STATE / "tmp").mkdir(exist_ok=True)
    digest = source_hash()
    build(digest)

    lines = LAUNCH.read_text().splitlines()
    classpath, opens = lines[0], [l for l in lines[1:] if l]
    env = dict(os.environ)
    # Spark prefers this variable over spark.local.dir.
    env["SPARK_LOCAL_DIRS"] = str(STATE / "spark-local")
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC",
           f"-Djava.io.tmpdir={STATE / 'tmp'}",
           *opens, "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(STATE / "results"),
           "--git-sha", git_sha(), "--source-hash", digest]
    sys.exit(run_child(cmd, ROOT, env, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
