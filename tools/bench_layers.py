"""Layer timings of the canonical round trip, one fresh process per run.

Each run is a new Python process, so first-call costs (numpy imports, the
first line table) show as a CLI call pays them.  In that process, in order:

- fields_ms: the GF(q) and GF(q^2) tables (Field, then QuadExtension);
- frame_ms: make_frame(q), which builds its own fields again but reuses
  the default modulus found in the fields step (default_modulus is
  memoized), so no search for an irreducible modulus is timed here;
- frame_rss_mb: the process's peak resident set (ru_maxrss) right after it;
- forward_ms: the canonical tangent conic and its point set C;
- pipeline_ms: full_pipeline on C, with each stage's StageRecord.millis;
- peak_rss_mb: the process's peak resident set (ru_maxrss) at the end.

The medians over the runs of each q, the git commit and the machine go to
BENCH_<n>.json at the repository root, n the first number not yet used.

    python3 tools/bench_layers.py               # q = 7, 9, 11, 13; 3 runs each
    python3 tools/bench_layers.py --large       # also q = 25, 27, 31
    python3 tools/bench_layers.py --q 7 --runs 1 --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_Q = (7, 9, 11, 13)
LARGE_Q = (25, 27, 31)
METRICS = ("fields_ms", "frame_ms", "frame_rss_mb", "forward_ms", "pipeline_ms",
           "peak_rss_mb")


def _ms_since(t0):
    return (time.perf_counter() - t0) * 1000.0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(q):
    """One canonical round trip at q in this process; returns its metrics."""
    from pgconics.bruckbose import build_C, canonical_tangent_conic
    from pgconics.galois import Field, QuadExtension
    from pgconics.reconstruct import _factor_prime_power, full_pipeline, make_frame

    t0 = time.perf_counter()
    QuadExtension(Field(*_factor_prime_power(q)))
    fields_ms = _ms_since(t0)
    t0 = time.perf_counter()
    frame = make_frame(q)
    frame_ms = _ms_since(t0)
    frame_rss_mb = _peak_rss_mb()
    t0 = time.perf_counter()
    conic = canonical_tangent_conic(frame)
    C = build_C(frame, conic)
    forward_ms = _ms_since(t0)
    t0 = time.perf_counter()
    records, _ = full_pipeline(C, frame=frame, conic=conic, expect_classical=True)
    pipeline_ms = _ms_since(t0)
    return {
        "fields_ms": fields_ms,
        "frame_ms": frame_ms,
        "frame_rss_mb": frame_rss_mb,
        "forward_ms": forward_ms,
        "pipeline_ms": pipeline_ms,
        "stages_ms": {r.name: r.millis for r in records},
        "passed": all(r.verdict == "pass" for r in records),
        "peak_rss_mb": _peak_rss_mb(),
    }


def run_fresh(q):
    """measure(q) in a new interpreter that imports pgconics from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, __file__, "--child", str(q)], env=env,
                         capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"q={q} run failed:\n{out.stderr}")
    return json.loads(out.stdout)


def summarize(runs):
    """Medians of every metric over the runs of one q."""
    stages = runs[0]["stages_ms"]
    return {
        "runs": len(runs),
        "passed": all(r["passed"] for r in runs),
        **{m: round(statistics.median(r[m] for r in runs), 3) for m in METRICS},
        "stages_ms": {s: round(statistics.median(r["stages_ms"][s] for r in runs), 3)
                      for s in stages},
    }


def _git(*args):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def next_bench_path():
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", type=int, nargs="+", default=list(DEFAULT_Q))
    parser.add_argument("--large", action="store_true", help="also q = 25, 27 and 31")
    parser.add_argument("--runs", type=int, default=3, help="fresh processes per q")
    parser.add_argument("--out", type=pathlib.Path, help="default: the next BENCH_<n>.json")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.child)))
        return 0
    if args.runs < 1:
        parser.error("--runs must be positive")
    qs = list(args.q) + (list(LARGE_Q) if args.large else [])
    report = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy")},
        "results": {},
    }
    for q in qs:
        report["results"][str(q)] = summarize([run_fresh(q) for _ in range(args.runs)])
        print(f"q={q}: {json.dumps(report['results'][str(q)])}", file=sys.stderr)
    out = args.out or next_bench_path()
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
