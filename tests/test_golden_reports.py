"""Golden CLI reports: each run below must reproduce its stored report.

Reports are compared with every stage's millis removed and the input and
dump paths masked; exit codes are compared too.  The runs cover the pass
path at q = 7 and 9, the exploratory runs at q = 3, 4, 5 and 8, the three
negative controls, lemma1, and reconstruction from a good and a displaced
point dump.  Regenerate golden_reports.json only in a change that means to
alter a report, from the repository root:

    PYTHONPATH=src python3 tests/test_golden_reports.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from pgconics.bruckbose import build_C, random_tangent_conic, write_c_dump
from pgconics.cli import main
from pgconics.reconstruct import displace_point, make_frame

GOLDEN = Path(__file__).with_name("golden_reports.json")
DUMP_SEED = 4  # conic seed of the q = 7 dumps

RUNS = {
    **{f"roundtrip-q{q}-seed{s}": ["roundtrip", "--q", str(q), "--seed", str(s)]
       for q, s in ((7, 0), (7, 1), (7, 3), (9, 2))},
    **{f"exploratory-q{q}": ["roundtrip", "--q", str(q), "--exploratory"] for q in (3, 4, 5, 8)},
    **{f"negative-q9-{c}": ["negative-control", "--q", "9", "--control", c]
       for c in ("displaced-point", "perturbed-spread", "corrupted-arc")},
    "lemma1-q7": ["lemma1", "--q", "7"],
    "reconstruct-q7": ["reconstruct", "--q", "7", "--in", "{good}"],
    "reconstruct-q7-displaced": ["reconstruct", "--q", "7", "--in", "{displaced}"],
}


def write_dumps(directory):
    """The q = 7 point dumps the reconstruct runs read: {name: path}."""
    frame = make_frame(7)
    C = build_C(frame, random_tangent_conic(frame, DUMP_SEED))
    paths = {"good": Path(directory) / "good.txt", "displaced": Path(directory) / "displaced.txt"}
    write_c_dump(paths["good"], frame, C, DUMP_SEED)
    write_c_dump(paths["displaced"], frame, displace_point(frame, C, seed=DUMP_SEED), DUMP_SEED)
    return {name: str(path) for name, path in paths.items()}


def run(key, dumps):
    """(exit code, report without millis or paths) of one run."""
    argv = [arg.format(**dumps) for arg in RUNS[key]] + ["--threads", "1"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = json.loads(out.getvalue())
    for field in ("input", "dump"):
        report["config"][field] = None
    for stage in report["stages"]:
        del stage["millis"]
    return {"exit_code": code, "report": report}


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    return write_dumps(tmp_path_factory.mktemp("dumps"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", sorted(RUNS))
def test_report_matches_golden(key, dumps, golden):
    assert run(key, dumps) == golden[key]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_dumps(tmp)
        captured = {key: run(key, paths) for key in sorted(RUNS)}
    GOLDEN.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(captured)} reports to {GOLDEN}", file=sys.stderr)
