"""Workloads of the pgconics benchmark, their inputs and their reference reports.

A workload is a list of cases; each case is one `pgconics.cli.main(argv)`
call.  Inputs come from the workload seed only: the seed picks the conics of
the point dumps from a fixed pool, so every case a seed can pick has a
reference report in refs.json (see capture_refs.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.json"

WORKLOADS = ("roundtrip-q11", "reconstruct-q9")
STAGES = ("axioms", "parallel_classes", "infinity_data", "t_infinity",
          "assemble_spread", "regulus_closure", "klein_regularity",
          "rebuild_arc", "uniqueness")
# Conic seeds of the reconstruct-q9 dumps; 0, the canonical conic, is left out.
CONIC_POOL = tuple(range(1, 17))
DUMPS_PER_ROUND = 3
# Report fields that name paths or depend on the machine; `threads` is
# checked on its own against the resolved value.
MASKED_CONFIG = ("input", "dump", "threads")


class ProgramMissing(RuntimeError):
    """The checkout holds no pgconics sources to benchmark."""


def load_program():
    """Import pgconics from this checkout's src/, never from an installed copy."""
    if not (SRC / "pgconics" / "__init__.py").is_file():
        raise ProgramMissing(f"no pgconics sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pgconics
    if Path(pgconics.__file__).resolve().parent != (SRC / "pgconics").resolve():
        raise ProgramMissing(f"pgconics was imported from {pgconics.__file__}, not {SRC}")
    return pgconics


def nproc():
    return len(os.sched_getaffinity(0))


def default_threads():
    """(--threads arguments, resolved thread count) for the default-thread case.

    The CLI default is os.cpu_count(); it is passed explicitly, capped at
    the CPUs this process may run on, only where it would exceed them.
    """
    cpus = os.cpu_count() or 1
    if cpus <= nproc():
        return [], cpus
    return ["--threads", str(nproc())], nproc()


@dataclass(frozen=True)
class Case:
    kind: str       # roundtrip, reconstruct or displaced
    q: int
    conic: int = 0  # conic seed

    @property
    def key(self):
        if self.kind == "roundtrip":
            return f"{self.kind}-q{self.q}"
        return f"{self.kind}-q{self.q}-conic{self.conic}"


def cases(workload, seed):
    """The cases of one round of a workload, chosen by the workload seed."""
    if workload == "roundtrip-q11":
        return [Case("roundtrip", 11)]
    if workload == "reconstruct-q9":
        rng = random.Random(seed)
        dumps = [Case("reconstruct", 9, s) for s in rng.sample(CONIC_POOL, DUMPS_PER_ROUND)]
        return dumps + [Case("displaced", 9, rng.choice(CONIC_POOL))]
    raise ValueError(f"unknown workload {workload!r}")


def all_cases():
    """Every case any seed can pick, in capture order."""
    out = [Case("roundtrip", 11)]
    out += [Case("reconstruct", 9, s) for s in CONIC_POOL]
    out += [Case("displaced", 9, s) for s in CONIC_POOL]
    return out


@dataclass
class Invocation:
    code: int | None
    report: dict | None
    wall: float
    cpu: float
    error: str | None = None


def invoke(argv):
    """One timed `pgconics.cli.main(argv)` call, its report read from stdout."""
    from pgconics import cli

    buf = io.StringIO()
    error = None
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except (Exception, SystemExit):
        code, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    try:
        report = json.loads(buf.getvalue())
    except ValueError:
        report = None
    if not isinstance(report, dict):
        report = None
    return Invocation(code, report, wall, cpu, error)


def prepare(case, workdir):
    """Write the case's input, untimed; returns (argv, generation invocations).

    Generation invocations are (reference key, Invocation) pairs whose output
    is checked like a timed call's.
    """
    q = str(case.q)
    if case.kind == "roundtrip":
        return ["roundtrip", "--q", q, "--seed", str(case.conic)] + default_threads()[0], []
    dump = Path(workdir) / f"{case.key}.txt"
    generated = []
    if case.kind == "reconstruct":
        fwd = invoke(["forward", "--q", q, "--seed", str(case.conic), "--dump", str(dump)])
        generated.append((f"forward-q{q}-conic{case.conic}", fwd))
    else:
        from pgconics.bruckbose import build_C, random_tangent_conic, write_c_dump
        from pgconics.reconstruct import displace_point, make_frame
        frame = make_frame(case.q)
        C = build_C(frame, random_tangent_conic(frame, case.conic))
        write_c_dump(dump, frame, displace_point(frame, C, seed=case.conic), case.conic)
    return ["reconstruct", "--q", q, "--in", str(dump), "--threads", "1"], generated


def normalized(report):
    """The report with millis and machine-dependent config fields masked."""
    rep = json.loads(json.dumps(report))
    for key in MASKED_CONFIG:
        if key in rep.get("config", {}):
            rep["config"][key] = None
    for stage in rep.get("stages", []):
        stage["millis"] = None
    return rep


def load_refs():
    with open(REFS) as fh:
        return json.load(fh)["cases"]


def check(key, kind, inv, refs):
    """Problems with one invocation against its reference; empty when correct."""
    if inv.error:
        return [f"{key}: raised\n{inv.error}"]
    problems = []
    ref = refs.get(key)
    if ref is None:
        return [f"{key}: no reference report"]
    if inv.code != ref["exit_code"]:
        problems.append(f"{key}: exit code {inv.code}, reference {ref['exit_code']}")
    if inv.report is None:
        problems.append(f"{key}: no JSON report on stdout")
        return problems
    got = normalized(inv.report)
    if got != ref["report"]:
        diff = [k for k in sorted(set(got) | set(ref["report"]))
                if got.get(k) != ref["report"].get(k)]
        problems.append(f"{key}: report differs from the reference in {diff}")
    threads = inv.report.get("config", {}).get("threads")
    if kind == "roundtrip" and threads != default_threads()[1]:
        problems.append(f"{key}: ran with threads={threads}, expected {default_threads()[1]}")
    if kind == "displaced":
        failing = [s.get("name") for s in inv.report.get("stages", []) if s.get("verdict") == "fail"]
        if inv.code != 1 or failing[:1] != ["axioms"]:
            problems.append(f"{key}: displaced point must fail at axioms with exit 1, "
                            f"got exit {inv.code}, failing stages {failing}")
    return problems
