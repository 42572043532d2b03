#!/usr/bin/env python3
"""NWBench entry point: builds the benchmark from source, then runs one workload.

    python3 nwbench/run.py --workload serve|churn --seed N --seconds S --trace 0|1
    python3 nwbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset; run records, spans and daemon logs go to
its runs/ subdirectory. The last stdout line is the result JSON object.
--selftest checks that a corrupted expectation fails each workload and that
an uncorrupted run passes. See nwbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve", "churn")


def build_dir():
    return os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures (once) and builds nwbench and nwqueryd; False on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("nwbench: the repository sources are not next to nwbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "nwbench", "nwqueryd"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_bench(bdir, argv):
    """Runs the nwbench binary with `argv`; returns (exit code, stdout)."""
    out_dir = os.path.join(bdir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "nwbench"), *argv,
           "--nwqueryd", os.path.join(bdir, "nw", "nwqueryd"),
           "--out-dir", out_dir]
    # One malloc arena per process (nwqueryd inherits it): how many arenas
    # glibc opens depends on thread timing, and with them the peak RSS.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        print("nwbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def selftest(bdir):
    ok = True
    for workload in WORKLOADS:
        args = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", "0"]
        code, out = run_bench(bdir, args + ["--corrupt-expectation"])
        result = last_json(out)
        failed = (code != 0 and result is not None
                  and result["correct"] is False and result["failed"] >= 1)
        print("selftest %s corrupted expectation: %s (exit %d, %s)"
              % (workload, "fails the run" if failed else "NOT DETECTED",
                 code, result and {k: result[k] for k in
                                   ("correct", "attempted", "failed")}))
        code, out = run_bench(bdir, args)
        result = last_json(out)
        passed = (code == 0 and result is not None
                  and result["correct"] is True and result["failed"] == 0)
        print("selftest %s uncorrupted: %s"
              % (workload, "passes" if passed else "FAILS"))
        ok &= failed and passed
    print("selftest %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    bdir = build_dir()
    if not build(bdir):
        return 2
    if args.selftest:
        return selftest(bdir)
    code, out = run_bench(bdir, ["--workload", args.workload,
                                 "--seed", str(args.seed),
                                 "--seconds", repr(args.seconds),
                                 "--trace", args.trace])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
