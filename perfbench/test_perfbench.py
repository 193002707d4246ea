"""Tests of the benchmark itself: trace determinism, clean restore, the gate.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import pytest

import workloads

workloads.load_program()

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNTERS = (".calls", ".rows", ".points", ".yielded")


def _namespaces():
    """Every module namespace and class namespace in pgconics."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "pgconics" or name.startswith("pgconics."):
            out[name] = vars(module)
            for attr, value in vars(module).items():
                if isinstance(value, type) and value.__module__ == name:
                    out[f"{name}.{attr}"] = value.__dict__
    return out


def _snapshot():
    return {ns: dict(d) for ns, d in _namespaces().items()}


def _counters(argv):
    tracer = Tracer()
    with tracer:
        inv = workloads.invoke(argv)
    assert inv.error is None and inv.code == 0, inv.error
    return {k: v for k, (v, _unit) in tracer.metrics().items() if k.endswith(COUNTERS)}


@pytest.fixture(scope="module")
def dump():
    workdir = workloads.ROOT / ".bench_work" / f"test-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "C-q7.txt"
    assert workloads.invoke(["forward", "--q", "7", "--seed", "3", "--dump", str(path)]).code == 0
    yield path
    shutil.rmtree(workdir)
    with contextlib.suppress(OSError):
        workdir.parent.rmdir()


@pytest.mark.parametrize("argv", [
    ["roundtrip", "--q", "7", "--threads", "2"],
    ["lemma1", "--q", "7"],
    ["reconstruct", "--q", "7", "--in", "DUMP", "--threads", "1"],
], ids=["roundtrip-threads2", "lemma1", "reconstruct"])
def test_traced_counters_repeat(argv, dump):
    argv = [str(dump) if a == "DUMP" else a for a in argv]
    first, second = _counters(argv), _counters(argv)
    assert first == second
    assert first["galois.dot.calls"] > 0
    residual = first["reconstruct.residual_groups.calls"]
    assert (residual == 0) == (argv[0] == "lemma1")


def test_tracer_restores_every_name():
    before = _snapshot()
    from pgconics import galois, reconstruct
    original_dot, original_rref = galois.Field.__dict__["dot"], reconstruct.rref
    with pytest.raises(RuntimeError):
        with Tracer():
            assert galois.Field.__dict__["dot"] is not original_dot
            assert reconstruct.rref is not original_rref
            raise RuntimeError("leave the block early")
    after = _snapshot()
    assert before.keys() == after.keys()
    for ns in before:
        changed = [k for k in before[ns] if after[ns].get(k) is not before[ns][k]]
        assert not changed, (ns, changed)


def test_gate_rejects_a_changed_report():
    refs = workloads.load_refs()
    case = workloads.Case("displaced", 9, 5)
    ref = refs[case.key]
    good = workloads.Invocation(ref["exit_code"], json.loads(json.dumps(ref["report"])), 0.0, 0.0)
    assert workloads.check(case.key, case.kind, good, refs) == []

    wrong_witness = json.loads(json.dumps(ref["report"]))
    wrong_witness["stages"][0]["witness"] += "x"
    bad = workloads.Invocation(1, wrong_witness, 0.0, 0.0)
    assert workloads.check(case.key, case.kind, bad, refs)

    passing = json.loads(json.dumps(ref["report"]))
    for stage in passing["stages"]:
        stage["verdict"] = "pass"
    passing["verdict"] = "pass"
    refs_passing = dict(refs, **{case.key: {"exit_code": 0, "report": passing}})
    assert workloads.check(case.key, case.kind,
                           workloads.Invocation(0, passing, 0.0, 0.0), refs_passing)


def test_traced_run_emits_the_declared_layer_metrics():
    with open(workloads.ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "reconstruct-q9", "--seed", "3",
                         "--seconds", "1", "--trace", "1"])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["reconstruct.residual_groups.calls"]["value"] > 0
    assert result["metrics"]["cli.parse_c_dump.calls"]["value"] == 4
