"""Property tests of the exit-code contract.

cli.main returns 0 when every check passed, 1 when a check failed and 2 on
a bad configuration or input, and raises nothing, whatever it is given:
random command lines, corrupted point dumps, and pipeline states corrupted
between two stages (as the negative controls do), so that the batched
failure paths of infinity_data and regulus_closure are reached.
"""

import contextlib
import functools
import io
import json
import os
import random
import tempfile
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from pgconics import reconstruct
from pgconics.bruckbose import build_C, random_tangent_conic, write_c_dump
from pgconics.cli import CONTROLS, MODES, main
from pgconics.projgeom import points_array, span
from pgconics.reconstruct import (PIPELINE, Spread, make_frame,
                                  perturb_spread_by_regulus)

STAGES = [name for name, *_ in PIPELINE]


def run_main(argv):
    """Exit code and JSON report (None if there is none) of one main() call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    return code, report


def assert_contract(code, report):
    assert code in (0, 1, 2)
    if report is None or report["config"]["exploratory"]:
        return
    verdicts = [s["verdict"] for s in report["stages"]]
    # no false pass: exit 0 only when every recorded stage passed
    assert code == (1 if "fail" in verdicts else 0)
    assert code == 1 or set(verdicts) <= {"pass"}


@functools.cache
def dump_lines(q):
    """The lines of the dump of the seed-1 conic over GF(q)."""
    frame = make_frame(q)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.txt")
        return tuple(write_c_dump(path, frame, build_C(frame, random_tangent_conic(frame, 1)),
                                  1).splitlines())


def write_dump(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# random command lines


def sometimes(draw):
    return draw(st.integers(0, 3)) == 0


@st.composite
def command_lines(draw):
    """Mostly well-formed command lines, each option now and then malformed."""
    mode = draw(st.sampled_from(MODES * 3 + ("bogus",)))
    if sometimes(draw):
        q = "3"
        argv = [mode, "--p", "3", "--k", str(draw(st.integers(-1, 3)))]
    else:
        q = draw(st.sampled_from(["3", "5", "5", "7", "7", "7", "4", "x"]))
        argv = [mode, "--q", q]
    if q in ("3", "4", "5") and not sometimes(draw):
        argv.append("--exploratory")
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-2, 30)))]
    if draw(st.booleans()):
        argv += ["--threads", str(draw(st.integers(-1, 2)))]
    if sometimes(draw):
        if draw(st.booleans()):
            names = STAGES[:draw(st.integers(1, len(STAGES)))]
        else:
            names = draw(st.lists(st.sampled_from(STAGES + ["bogus", ""]), min_size=1, max_size=3))
        argv += ["--stages", ",".join(names)]
    if sometimes(draw):
        argv += ["--modulus", draw(st.sampled_from(
            ["3,1", "1,1", "0,1", "1,0,1", "1", "x", ",", "2,1,1", "-4,1", "10,1"]))]
    if mode == "negative-control" and not sometimes(draw):
        argv += ["--control", draw(st.sampled_from(CONTROLS * 2 + ("bogus",)))]
    if mode == "reconstruct" and not sometimes(draw):
        argv += ["--in", draw(st.sampled_from(["DUMP5", "DUMP7", "DUMP7", "MISSING"]))]
    if sometimes(draw):
        argv += ["--format", draw(st.sampled_from(["json", "text", "xml"]))]
    return argv


@settings(max_examples=60)
@given(command_lines())
@example(["roundtrip", "--q", "7"])
@example(["reconstruct", "--q", "7", "--in", "DUMP7", "--format", "text"])
@example(["roundtrip", "--q", "5", "--exploratory", "--stages", ",".join(STAGES[:3])])
@example(["negative-control", "--q", "7", "--control", "perturbed-spread"])
@example(["roundtrip", "--p", "3", "--k", "-1", "--exploratory"])
@example(["reconstruct", "--q", "7", "--in", "BINARY"])  # a dump that is not UTF-8
@example(["roundtrip", "--q", "7", "--out", "MISSING/report.json"])
def test_main_exit_code_on_random_command_lines(argv):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"PGCONICS_OUTDIR": tmp}):
        for q in (5, 7):
            write_dump(os.path.join(tmp, f"DUMP{q}"), dump_lines(q))
        with open(os.path.join(tmp, "BINARY"), "wb") as fh:
            fh.write(b"\xff\xfe" + "\n".join(dump_lines(7)).encode())
        argv = [os.path.join(tmp, a) if a in ("DUMP5", "DUMP7", "MISSING", "BINARY",
                                              "MISSING/report.json") else a
                for a in argv]
        assert_contract(*run_main(argv))


def test_main_returns_the_usage_error_code():
    assert run_main(["bogus"]) == (2, None)
    assert run_main(["roundtrip", "--q", "x"]) == (2, None)
    assert run_main(["roundtrip", "--help"]) == (0, None)


# ---------------------------------------------------------------------------
# corrupted dumps

EDITS = st.one_of(
    # k-swap: a point replaced by another affine point
    st.tuples(st.just("swap"), st.integers(1, 200),
              st.lists(st.integers(0, 6), min_size=4, max_size=4)),
    st.tuples(st.just("duplicate"), st.integers(1, 200), st.integers(1, 200)),
    st.tuples(st.just("drop"), st.integers(1, 200)),
    st.tuples(st.just("header"), st.sampled_from(
        ["q=7", "q=5", "q=9", "q=x", "", "garbage", "q=7 poly=3,1", "q=5 poly=2,1",
         "q=7 poly=1,0,1", "q=7 poly=x", "q=7 seed"])),
    st.tuples(st.just("line"), st.integers(1, 200), st.sampled_from(
        ["1,2,3", "1,2,3,4,0", "a,b,c,d,e", "0,0,0,0,0", "9,9,9,9,9", "", "1,1,1,1,1"])),
)


def corrupt(lines, edits):
    for edit in edits:
        n = len(lines)
        if edit[0] == "swap":
            lines[1 + edit[1] % (n - 1)] = ",".join(map(str, edit[2])) + ",1"
        elif edit[0] == "duplicate":
            lines[1 + edit[1] % (n - 1)] = lines[1 + edit[2] % (n - 1)]
        elif edit[0] == "drop" and n > 1:
            del lines[1 + edit[1] % (n - 1)]
        elif edit[0] == "header":
            lines[0] = edit[1]
        elif edit[0] == "line":
            lines[1 + edit[1] % (n - 1)] = edit[2]
    return lines


@settings(max_examples=40)
@given(st.sampled_from([5, 7]), st.lists(EDITS, min_size=1, max_size=3))
def test_main_exit_code_on_corrupted_dumps(q, edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.txt")
        write_dump(path, corrupt(list(dump_lines(q)), edits))
        argv = ["reconstruct", "--q", str(q), "--in", path, "--threads", "1"]
        assert_contract(*run_main(argv + (["--exploratory"] if q < 7 else [])))


# ---------------------------------------------------------------------------
# states corrupted between two stages


def pipeline_with(after, corrupt_state):
    """PIPELINE with corrupt_state(state) run right after the stage named after."""
    stages = []
    for name, fn, requires, provides in PIPELINE:
        if name == after:
            def fn(state, _fn=fn):
                counts = _fn(state)
                corrupt_state(state)
                return counts
        stages.append((name, fn, requires, provides))
    return tuple(stages)


def roundtrip_with(q, after, corrupt_state):
    argv = ["roundtrip", "--q", str(q), "--threads", "1"] + (["--exploratory"] if q < 7 else [])
    with mock.patch.object(reconstruct, "PIPELINE", pipeline_with(after, corrupt_state)):
        code, report = run_main(argv)
    assert_contract(code, report)
    return {s["name"]: s for s in report["stages"]}


def infinity_data_corruption(kind, a, b, rng):
    def corrupt_state(state):
        planes, classes = state.planes, [list(g) for g in state.classes]
        i, j = a % len(planes), b % len(planes)
        if kind == "foreign":  # an affine point of the span of two planes
            inside = span(state.space4, planes.bases[[i, j]].reshape(-1, 5).tolist())
            cset = set(state.C)
            point = next(p for p in inside.points() if p[4] and p not in cset)
            state.C += (point,)
            state._C_arr = points_array(state.C)
        elif kind == "member":  # a plane's member listed twice, another dropped
            planes.members[i, a % state.q] = planes.members[i, b % state.q]
        elif kind == "offplane":  # a member replaced by an input point off the plane
            off = sorted(set(range(len(state.C))) - set(planes.members[i].tolist()))
            planes.members[i, a % state.q] = off[b % len(off)]
        elif kind == "swap":  # exchange two planes of two classes
            ca, cb = a % len(classes), b % len(classes)
            classes[ca][0], classes[cb][-1] = classes[cb][-1], classes[ca][0]
        elif kind == "shuffle":
            rng.shuffle(classes)
        state.classes = tuple(tuple(g) for g in classes)
    return corrupt_state


@settings(max_examples=16)
@given(st.sampled_from([5, 7]),
       st.sampled_from(["foreign", "member", "offplane", "swap", "shuffle"]),
       st.integers(0, 10 ** 4), st.integers(0, 10 ** 4), st.randoms(use_true_random=False))
@example(7, "offplane", 30, 0, random.Random(0))  # every plane coordinate of the point is 0
def test_main_exit_code_on_corrupted_infinity_data_states(q, kind, a, b, rng):
    stages = roundtrip_with(q, "parallel_classes", infinity_data_corruption(kind, a, b, rng))
    if kind == "shuffle":
        assert stages["infinity_data"]["verdict"] == "pass"


def regulus_closure_corruption(kind, a, b, rng):
    def corrupt_state(state):
        spread = state.spread
        axis = spread.lines[spread.axis].tolist()
        lines = spread.lines[~spread.is_axis()].tolist()
        if kind == "perturbed":
            pert = perturb_spread_by_regulus(state.sigma, spread)[0]
            lines = pert.lines[~pert.is_axis()].tolist()
        elif kind == "meeting":  # a line through a point of the axis
            outside = lines[a % len(lines)][0]
            lines.insert(b % len(lines), span(state.sigma, [axis[0], outside]).rows)
        elif kind == "repeated":
            lines.insert(b % len(lines), lines[a % len(lines)])
        rng.shuffle(lines)
        state.spread = Spread(lines=np.array(lines + [axis], dtype=np.int16),
                              axis=len(lines))
    return corrupt_state


@functools.lru_cache(maxsize=None)
def closure_base(q):
    """(frame, C, passed state) of a round trip at q; at q = 9 the seed-5
    conic, whose spread is not the canonical one."""
    frame = make_frame(q)
    C = build_C(frame, random_tangent_conic(frame, 5 if q == 9 else 0))
    return frame, C, reconstruct.full_pipeline(C, frame=frame, exploratory=q < 7)[1]


@settings(max_examples=24)
@given(st.sampled_from([5, 7, 9]),
       st.sampled_from(["shuffled", "perturbed", "meeting", "repeated"]),
       st.integers(0, 10 ** 4), st.integers(0, 10 ** 4), st.randoms(use_true_random=False))
def test_pruned_closure_matches_unpruned(closure_record, closure_oracle, q, kind, a, b, rng):
    """Building only the leads, in blocks of q^2 + q, changes no record:
    corrupted spreads fail at the same pair with the same witness as the
    pair-by-pair closure, and shuffled ones accept the same reguli.  A
    meeting line and a repeated line make every pair a lead."""
    frame, C, base = closure_base(q)
    state = reconstruct.PipelineState(frame, C, exploratory=q < 7)
    state.planes, state.spread = base.planes, base.spread
    regulus_closure_corruption(kind, a, b, rng)(state)
    record = closure_record(state)
    assert record[0] == ("pass" if kind == "shuffled" else "fail" if q >= 7 else "warn")
    assert record == closure_oracle(state)


@settings(max_examples=16)
@given(st.sampled_from([5, 7]), st.sampled_from(["shuffled", "perturbed", "meeting", "repeated"]),
       st.integers(0, 10 ** 4), st.integers(0, 10 ** 4), st.randoms(use_true_random=False))
def test_main_exit_code_on_corrupted_regulus_closure_states(q, kind, a, b, rng):
    stages = roundtrip_with(q, "assemble_spread", regulus_closure_corruption(kind, a, b, rng))
    closure = stages["regulus_closure"]
    if kind == "shuffled":
        assert closure["verdict"] == "pass"
    else:
        assert closure["verdict"] == ("fail" if q == 7 else "warn")
        assert closure["witness"].startswith(
            "ClosureViolation" if kind == "perturbed" else "NotSkew")
