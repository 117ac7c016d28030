#!/usr/bin/env python3
"""Build and run the sigcomp benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a sigcomp checkout. The script builds the
library, sigcompd, sigcomp_prof and the perfbench binary into
.bench_build/ (Release), sets the workload up three times in fresh
processes (set-up time is their median), then measures. The last
line of stdout is one JSON object: correct, attempted, failed and
metrics. Everything the run writes stays under .bench_build/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
EXE = os.path.join(BUILD, "perfbench")
PROF = os.path.join(BUILD, "sigcomp", "tools", "sigcomp_prof")
WORKLOADS = ["paper_cold", "paper_warm", "design_sweep", "serve_mix",
             "serve_miss"]
SETUP_REPEATS = 3
# Set-up plus measurement of one workload must end within this many
# seconds (the build before it is not counted).
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build (stdout kept clean)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def call(cmd, deadline, stdout):
    """Run cmd in its own process group, which is killed whole (with
    any sigcompd it started) if it outlives the deadline."""
    p = subprocess.Popen(cmd, stdout=stdout, text=True,
                         start_new_session=True)
    # A timer kills the group; a blocking wait returns as soon as cmd
    # ends (communicate's own timeout polls in up to 50 ms steps, which
    # would quantise the set-up times).
    timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                            os.killpg, (p.pid, signal.SIGKILL))
    timer.start()
    try:
        out, _ = p.communicate()
    finally:
        timer.cancel()
    if p.returncode == -signal.SIGKILL:
        raise subprocess.TimeoutExpired(cmd, RUN_LIMIT_S)
    if p.returncode != 0:
        raise subprocess.CalledProcessError(p.returncode, cmd)
    return out


def setup(workload, seed, scratch, deadline):
    """Set up SETUP_REPEATS times; return (median s, all s, last dir)."""
    times = []
    last = None
    for i in range(SETUP_REPEATS):
        d = os.path.join(scratch, "setup-%d" % i)
        t0 = time.monotonic()
        call([EXE, "setup", "--workload", workload, "--seed", str(seed),
              "--dir", d], deadline, sys.stderr)
        times.append(time.monotonic() - t0)
        if last is not None:
            shutil.rmtree(last, ignore_errors=True)
        last = d
    return statistics.median(times), times, last


def measure(workload, seed, seconds, trace, scratch, trace_out=None):
    """Set up, run, and return the result object (stdout echoed)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setup_s, setup_times, d = setup(workload, seed, scratch, deadline)
    cmd = [EXE, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--dir", d,
           "--commit", commit()]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    out = call(cmd, deadline, subprocess.PIPE)
    lines = [ln for ln in out.splitlines() if ln.strip()]
    for ln in lines[:-1]:
        print(ln)
    print(json.dumps({"setup_times_s": setup_times}))
    result = json.loads(lines[-1])
    if trace == 0:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    return result


def smoke(scratch):
    """Every workload briefly, timed and traced; traces validated."""
    ok = True
    for w in WORKLOADS:
        r = measure(w, 1, 1, 0, scratch)
        log("smoke %s trace=0: correct=%s failed=%d" %
            (w, r["correct"], r["failed"]))
        ok = ok and r["correct"] and r["failed"] == 0
        trace_file = os.path.join(scratch, w + ".trace.json")
        r = measure(w, 1, 2, 1, scratch, trace_out=trace_file)
        log("smoke %s trace=1: correct=%s failed=%d" %
            (w, r["correct"], r["failed"]))
        ok = ok and r["correct"] and r["failed"] == 0
        v = subprocess.run([PROF, "validate", trace_file],
                           stdout=sys.stderr)
        ok = ok and v.returncode == 0
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload briefly and validate traces")
    args = p.parse_args()
    if not args.smoke and args.workload is None:
        p.error("--workload is required")

    build()
    scratch = os.path.join(BUILD_ROOT, "tmp", "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.smoke:
            ok = smoke(scratch)
            print(json.dumps({"smoke": "pass" if ok else "fail"}))
            return 0 if ok else 1
        result = measure(args.workload, args.seed, args.seconds,
                         args.trace, scratch)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
