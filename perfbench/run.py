"""Time-to-verdict benchmark for pgconics.

Run from the repository root:

    python3 perfbench/run.py --workload reconstruct-q9 --seed 1 --seconds 55 --trace 0

With --trace 0 it repeats the workload's round of `pgconics.cli.main` calls
in a closed loop (one call at a time) for about --seconds, with one set-up
probe in a fresh process before each round, and reports the end-to-end
metrics.  With --trace 1 it runs one round of the workload untraced and one
round under the layer tracer, and reports the per-layer metrics.  Every
call's exit code and report are checked against refs.json.  The last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from workloads import ROOT, SRC

# Field of the set-up probe for each workload.
SETUP_Q = {"roundtrip-q11": 11, "reconstruct-q9": 9}
# Import plus frame construction, timed inside a fresh interpreter.
PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pgconics
from pgconics.reconstruct import make_frame
make_frame(int(sys.argv[2]))
print(time.perf_counter() - t0, pgconics.__file__)
"""


def setup_seconds(q):
    """Import plus make_frame(q), timed inside a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(q)],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True).stdout.split()
    if os.path.dirname(os.path.abspath(out[1])) != str(SRC / "pgconics"):
        raise workloads.ProgramMissing(f"set-up probe imported {out[1]}")
    return float(out[0])


def environment(args, invocations):
    import numpy
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pgconics").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    threads = sorted({inv.report["config"]["threads"] for inv in invocations
                      if inv.report and "threads" in inv.report.get("config", {})})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": workloads.nproc(),
        "threads": threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def prepare_round(args, workdir, refs, problems):
    round_ = []
    for case in workloads.cases(args.workload, args.seed):
        argv, generated = workloads.prepare(case, workdir)
        for key, inv in generated:
            problems += workloads.check(key, "forward", inv, refs)
        round_.append((case, argv))
    return round_


def call(case, argv, refs, problems):
    """One checked call; returns (invocation, whether it matched its reference)."""
    inv = workloads.invoke(argv)
    found = workloads.check(case.key, case.kind, inv, refs)
    problems += found
    return inv, not found


def timed_run(args, workdir, refs, problems):
    """Closed loop of rounds for about --seconds; end-to-end metrics.

    Each round is one set-up probe and then every call of the workload's
    round, so calls of each kind stay in their fixed proportion.  The
    machine's speed drifts by about a third over tens of seconds, so the
    set-up probes are spread over the window rather than taken in a burst.
    """
    q = SETUP_Q[args.workload]
    setup_seconds(q)  # warm-up: file cache and bytecode
    round_ = prepare_round(args, workdir, refs, problems)
    invocations, setups, failed, rounds = [], [], 0, 0
    start = time.perf_counter()
    while True:
        setups.append(setup_seconds(q))
        for case, argv in round_:
            inv, ok = call(case, argv, refs, problems)
            failed += not ok
            invocations.append(inv)
        rounds += 1
        # start another round only if at least half a round's time is left
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 > args.seconds:
            break
    walls = [inv.wall for inv in invocations]
    print(f"verdict_s: mean {statistics.fmean(walls):.4f} s, median "
          f"{statistics.median(walls):.4f} s, max {max(walls):.4f} s, n={len(walls)} calls")
    print(f"setup_s: median {statistics.median(setups):.4f} s, n={len(setups)} processes")
    attempted = len(invocations)
    metrics = {
        "verdict_s": (statistics.fmean(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.fmean(inv.cpu for inv in invocations), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": ((attempted - failed) / attempted, "share"),
    }
    return invocations, attempted, failed, metrics


def traced_run(args, workdir, refs, problems):
    """One untraced and one traced round; per-layer metrics."""
    from tracer import Tracer

    round_ = prepare_round(args, workdir, refs, problems)
    base = [call(case, argv, refs, problems) for case, argv in round_]
    tracer = Tracer()
    with tracer:
        traced = [call(case, argv, refs, problems) for case, argv in round_]
    failed = sum(not ok for _, ok in base + traced)
    base = [inv for inv, _ in base]
    traced = [inv for inv, _ in traced]
    metrics = tracer.metrics()
    # stage times are the program's own, read from the untraced reports
    for name in workloads.STAGES:
        ms = sum(s["millis"] for inv in base if inv.report
                 for s in inv.report["stages"] if s["name"] == name)
        metrics[f"reconstruct.stage.{name}.ms"] = (ms, "ms")
    untraced = statistics.median(inv.wall for inv in base)
    traced_s = statistics.median(inv.wall for inv in traced)
    metrics["trace.untraced_verdict_s"] = (untraced, "s")
    metrics["trace.traced_verdict_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced, "s")
    invocations = base + traced
    return invocations, len(invocations), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("PGCONICS_OUTDIR", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        workloads.load_program()
        refs = workloads.load_refs()
    except (workloads.ProgramMissing, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        run = traced_run if args.trace else timed_run
        invocations, attempted, failed, metrics = run(args, workdir, refs, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6f} {unit}")
    print("env " + json.dumps(environment(args, invocations), sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
