#!/usr/bin/env python3
"""Host-cost benchmark of the checkpointing simulator.

Run from the root of the repository:

    python3 perfbench/run.py --workload q12-coor-w50 --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first run builds the simulator and the harness from source with sbt
(offline) and caches the class path in .bench_build/perfbench; a later run
rebuilds only when a source or build file changed. The harness runs in one
JVM on one simulation thread. Its report goes to standard output, and the
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones; a traced run also writes its spans to
.bench_build/perfbench/trace-<workload>-seed<seed>.json.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
# A fixed heap and the serial collector keep GC work on the simulation
# thread; a dead ratio of 0 makes every full GC compact, so live heap after
# System.gc() is exact.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", "-XX:+UseSerialGC",
             "-XX:MarkSweepDeadRatio=0"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    """Run a command in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build_inputs():
    """Files whose content decides the build."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", ROOT / "jobs", HERE / "src"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def build():
    """Compile with sbt unless the cached class path is current; return it."""
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no simulator sources under {ROOT}; run from a full checkout")
    h = hashlib.sha256()
    for f in build_inputs():
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    stamp, cp_file = OUT / "stamp", OUT / "classpath.txt"
    if stamp.is_file() and cp_file.is_file() and stamp.read_text() == h.hexdigest():
        return cp_file.read_text()
    OUT.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline")
    sbt_opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline" not in sbt_opts:
        env["SBT_OPTS"] = (sbt_opts + " -Dsbt.offline=true").strip()
    print("perfbench: building with sbt ...", file=sys.stderr, flush=True)
    code, out = run(["sbt", "--batch", "-Dsbt.log.noformat=true",
                     f"-Dsbt.global.base={OUT / 'sbt-global'}",
                     "compile", "export Runtime/fullClasspath"],
                    BUILD_TIMEOUT_S, cwd=HERE, env=env)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "perfbench" not in lines[-1]:
        print("\n".join(lines[-40:]), file=sys.stderr)
        fail(f"sbt build failed (exit {code})")
    cp_file.write_text(lines[-1].strip())
    stamp.write_text(h.hexdigest())
    return lines[-1].strip()


def java():
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def harness(cp, args, echo=True):
    """Run the harness JVM; return its parsed JSON result."""
    code, out = run([java(), *JVM_FLAGS, "-cp", cp, "perfbench.Main", *args],
                    RUN_TIMEOUT_S, cwd=ROOT)
    lines = out.splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if code != 0 or not lines:
        print("\n".join(lines[-20:]), file=sys.stderr)
        fail(f"harness exited with {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines[-20:]), file=sys.stderr)
        fail("harness printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    return result


def selftest(cp):
    """Smoke-size runs of every workload, untraced and traced: every metric
    of BENCHMARK.json is printed with its unit, and every unit passes the
    gate, traced units included (their results equal the untraced ones)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            r = harness(cp, ["--workload", w["name"], "--seed", "7", "--seconds", "1",
                             "--trace", trace, "--smoke"], echo=False)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in r["metrics"].items()}
            good = r["correct"] and got == want
            ok &= good
            print(f"selftest {w['name']} trace={trace}: "
                  f"{'ok' if good else 'FAILED'} ({r['attempted']} units, {r['failed']} failed"
                  f"{'' if got == want else f', metrics differ: {sorted(set(got) ^ set(want))}'})",
                  flush=True)
    if not ok:
        fail("selftest failed")
    print("selftest passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    cp = build()
    if a.selftest:
        selftest(cp)
        return
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--out", str(OUT)]
    print(json.dumps(harness(cp, args)), flush=True)


if __name__ == "__main__":
    main()
