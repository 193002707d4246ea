"""Write refs.json: the reference exit code and report of every benchmark case.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/capture_refs.py

Reports are stored with millis and path fields masked (workloads.normalized).
Regenerate only in a change that means to alter a report; the benchmark's
correctness gate compares every call against this file.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys

import workloads


def main():
    workloads.load_program()
    workdir = workloads.ROOT / ".bench_work" / "capture"
    workdir.mkdir(parents=True, exist_ok=True)
    cases = {}
    try:
        for case in workloads.all_cases():
            argv, generated = workloads.prepare(case, workdir)
            timed = workloads.invoke(argv)
            for key, inv in generated + [(case.key, timed)]:
                if inv.error or inv.report is None:
                    sys.exit(f"{key}: no report\n{inv.error or ''}")
                cases[key] = {"exit_code": inv.code, "report": workloads.normalized(inv.report)}
                print(f"{key:32s} exit {inv.code}  {inv.wall:7.2f} s", flush=True)
            expect = 1 if case.kind == "displaced" else 0
            if timed.code != expect:
                sys.exit(f"{case.key}: exit {timed.code}, expected {expect}")
            problems = workloads.check(case.key, case.kind, timed, cases)
            if problems:
                sys.exit("\n".join(problems))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                            capture_output=True, text=True).stdout.strip()
    with open(workloads.REFS, "w") as fh:
        json.dump({"commit": commit, "cases": cases}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
