import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from pgconics.cli import (ConfigError, ParseError, SizeMismatch, build_config,
                          main, make_parser, parse_c_dump)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_roundtrip_q7_ten_stages(capsys):
    code, out = run_cli(["roundtrip", "--q", "7", "--seed", "0", "--threads", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"config", "stages", "verdict", "version", "digests"}
    assert len(report["stages"]) == 10
    assert report["verdict"] == "pass"
    for s in report["stages"]:
        assert set(s) == {"name", "verdict", "counts", "witness", "millis"}


def test_reports_identical_modulo_millis(capsys):
    def strip(report):
        report = json.loads(json.dumps(report))
        for s in report["stages"]:
            s.pop("millis")
        return report
    code1, out1 = run_cli(["roundtrip", "--q", "7", "--seed", "1", "--threads", "1"], capsys)
    code2, out2 = run_cli(["roundtrip", "--q", "7", "--seed", "1", "--threads", "1"], capsys)
    assert code1 == code2 == 0
    assert strip(json.loads(out1)) == strip(json.loads(out2))


def test_forward_then_reconstruct(tmp_path, capsys):
    dump = str(tmp_path / "c7.txt")
    code, out = run_cli(["forward", "--q", "7", "--seed", "4", "--dump", dump], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["digests"]["output"]
    code, out = run_cli(["reconstruct", "--q", "7", "--in", dump, "--threads", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["digests"]["input"]
    names = [s["name"] for s in report["stages"]]
    assert names[0] == "axioms" and names[-1] == "uniqueness"


def test_one_parser_serves_every_call(tmp_path, capsys):
    """main builds its parser once per process; no call's options reach
    the next call's report, and usage errors and --help keep their codes."""
    dump = str(tmp_path / "c7.txt")
    run_cli(["forward", "--q", "7", "--dump", dump], capsys)
    code, out = run_cli(["reconstruct", "--q", "7", "--in", dump, "--stages", "axioms"], capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert config["stages"] == ["axioms"] and config["input"]
    code, out = run_cli(["roundtrip", "--q", "7", "--threads", "1"], capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert config["stages"] is None and config["input"] is None
    assert main(["roundtrip", "--q", "seven"]) == 2
    assert main(["reconstruct", "--help"]) == 0
    assert "--in" in capsys.readouterr().out


def test_reconstruct_corrupted_dump_exit_1(tmp_path, capsys):
    dump = str(tmp_path / "c7.txt")
    run_cli(["forward", "--q", "7", "--seed", "4", "--dump", dump], capsys)
    lines = open(dump).read().splitlines()
    # displace one point: swap the last point for another affine point
    assert lines[-1] != "1,1,1,1,1"
    lines[-1] = "1,1,1,1,1"
    with open(dump, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    code, out = run_cli(["reconstruct", "--q", "7", "--in", dump, "--threads", "1"], capsys)
    assert code == 1
    report = json.loads(out)
    failing = [s for s in report["stages"] if s["verdict"] == "fail"]
    assert failing and failing[0]["name"] == "axioms"
    assert failing[0]["witness"]


def test_even_q_rejected(capsys):
    for args, message in ((["--q", "4"], "q must be odd"),
                          (["--q", "6"], "6 is not a prime power"),
                          (["--p", "2", "--k", "2"], "q must be odd")):
        assert main(["roundtrip"] + args) == 2
        assert message in capsys.readouterr().err


def test_small_q_needs_exploratory(capsys):
    code = main(["roundtrip", "--q", "5"])
    assert code == 2
    code, out = run_cli(["roundtrip", "--q", "5", "--exploratory", "--threads", "1"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "exploratory"


@pytest.mark.parametrize("argv, warned", [
    (["lemma1", "--q", "3"], ["lemma1"]),
    (["negative-control", "--q", "5", "--control", "perturbed-spread"],
     ["regulus_closure", "klein_regularity"]),
    (["negative-control", "--q", "5", "--control", "corrupted-arc"], ["rebuild_arc"]),
], ids=["lemma1", "perturbed-spread", "corrupted-arc"])
def test_exploratory_violations_are_warnings(argv, warned, capsys):
    """Under --exploratory every violation is recorded as a warning, in
    lemma1 and the negative controls as in the pipeline.  lemma1 holds at
    q = 5, so its case runs at q = 3, where axiom 2 fails."""
    code, out = run_cli(argv + ["--exploratory", "--threads", "1"], capsys)
    report = json.loads(out)
    assert (code, report["verdict"]) == (0, "exploratory")
    assert [s["name"] for s in report["stages"] if s["verdict"] != "pass"] == warned
    assert {s["verdict"] for s in report["stages"]} == {"pass", "warn"}


def test_non_prime_power_rejected(capsys):
    code = main(["roundtrip", "--q", "15"])
    assert code == 2
    assert "prime power" in capsys.readouterr().err


def test_negative_controls_exit_1(capsys):
    code, out = run_cli(["negative-control", "--q", "7", "--control",
                         "displaced-point", "--threads", "1"], capsys)
    assert code == 1
    report = json.loads(out)
    failing = [s for s in report["stages"] if s["verdict"] == "fail"]
    assert failing[0]["name"] == "axioms"

    code, out = run_cli(["negative-control", "--q", "7", "--control",
                         "perturbed-spread", "--threads", "1"], capsys)
    assert code == 1
    report = json.loads(out)
    verdicts = {s["name"]: s["verdict"] for s in report["stages"]}
    assert verdicts["regulus_closure"] == "fail"
    assert verdicts["klein_regularity"] == "fail"

    code, out = run_cli(["negative-control", "--q", "7", "--control",
                         "corrupted-arc", "--threads", "1"], capsys)
    assert code == 1
    report = json.loads(out)
    failing = [s for s in report["stages"] if s["verdict"] == "fail"]
    assert failing[0]["name"] == "rebuild_arc"
    assert "NotAnArc" in failing[0]["witness"]


def test_lemma1_mode(capsys):
    code, out = run_cli(["lemma1", "--q", "7", "--threads", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    counts = {s["name"]: s["counts"] for s in report["stages"]}
    assert counts["lemma1"]["planes"] == 56
    assert counts["lemma1"]["subplane_spot_checks"] == 10


def test_stage_subset(capsys):
    code, out = run_cli(["roundtrip", "--q", "7", "--threads", "1",
                         "--stages", "axioms,parallel_classes"], capsys)
    assert code == 0
    names = [s["name"] for s in json.loads(out)["stages"]]
    assert names == ["forward_build", "axioms", "parallel_classes"]


def test_out_file_and_text_format(tmp_path, capsys):
    out_path = str(tmp_path / "report.txt")
    code, _ = run_cli(["roundtrip", "--q", "7", "--threads", "1",
                       "--format", "text", "--out", out_path], capsys)
    assert code == 0
    text = open(out_path).read()
    assert "verdict: pass" in text


def test_outdir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PGCONICS_OUTDIR", str(tmp_path))
    code, _ = run_cli(["forward", "--q", "7", "--dump", "env-dump.txt"], capsys)
    assert code == 0
    assert (tmp_path / "env-dump.txt").exists()


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("exploratory", [[], ["--exploratory"]], ids=["strict", "exploratory"])
def test_k_below_one_rejected(k, exploratory, capsys):
    """--k 0 does not run as k = 1, and --k -1 forms no q = 1/3."""
    assert main(["roundtrip", "--p", "3", "--k", k] + exploratory) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --k must be at least 1\n"


@pytest.mark.parametrize("argv", [
    ["roundtrip", "--q", "7"],
    ["negative-control", "--q", "7", "--control", "perturbed-spread"],
], ids=["roundtrip", "perturbed-spread"])
def test_no_numpy_ma_import(argv):
    """A plain np.unique, or np.isin on a long array, imports numpy.ma, which
    costs 15-18 ms in a fresh process; the pipeline makes neither call."""
    root = pathlib.Path(__file__).resolve().parent.parent
    code = ("import contextlib, io, sys\n"
            "from pgconics.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0" if argv[0] == "roundtrip" else "1", "False"]


def test_p_k_config(capsys):
    code, out = run_cli(["lemma1", "--p", "3", "--k", "2", "--threads", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["config"]["q"] == 9
    lemma1 = next(s for s in report["stages"] if s["name"] == "lemma1")
    assert lemma1["counts"] == {"planes": 90, "arc_checks": 90,
                                "interior_on_no_plane": 3240, "exterior_on_two_planes": 3240,
                                "subplane_spot_checks": 10}


# ---------------------------------------------------------------------------
# dump parsing


def write_dump(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_parse_round_trip(tmp_path, frame7, c7):
    from pgconics.bruckbose import write_c_dump
    path = tmp_path / "c.txt"
    write_c_dump(path, frame7, c7, seed=0)
    _, points = parse_c_dump(path)
    assert points == c7


def test_parse_duplicate_point(tmp_path):
    path = tmp_path / "dup.txt"
    rows = ["q=3 poly=0,1 seed=0"] + ["0,0,0,0,1"] * 2 + \
           [f"0,0,0,{i},1" for i in range(1, 3)] + \
           [f"0,0,1,{i},1" for i in range(3)] + \
           [f"0,0,2,{i},1" for i in range(2)]
    write_dump(path, rows)
    with pytest.raises(SizeMismatch):
        parse_c_dump(path)


def test_parse_wrong_count(tmp_path):
    path = tmp_path / "short.txt"
    write_dump(path, ["q=3 poly=0,1 seed=0", "0,0,0,0,1"])
    with pytest.raises(SizeMismatch):
        parse_c_dump(path)


def test_parse_not_affine(tmp_path):
    path = tmp_path / "inf.txt"
    write_dump(path, ["q=3 poly=0,1 seed=0", "0,0,0,1,0"])
    with pytest.raises(ParseError) as err:
        parse_c_dump(path)
    assert "not affine" in str(err.value)
    assert err.value.line == 2


def test_zero_vector_dump_line_is_not_affine(tmp_path, capsys):
    """The zero vector fails the affine test, the check before it: exit 2,
    the message on stderr, nothing on stdout."""
    path = tmp_path / "zero.txt"
    write_dump(path, ["q=7 poly=0,1 seed=0", "0,0,0,0,0"])
    code = main(["reconstruct", "--q", "7", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "line 2: not affine (last coordinate is 0)" in captured.err


def test_dump_that_is_not_utf8_exit_2(tmp_path, capsys):
    """A dump that does not decode as UTF-8 is bad input: exit 2, the
    message on stderr, nothing on stdout."""
    path = tmp_path / "binary.txt"
    path.write_bytes(b"q=7 poly=0,1 seed=0\n\xff\xfe0,0,0,0,1\n")
    code = main(["reconstruct", "--q", "7", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: not UTF-8 text: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("via_outdir", [False, True])
def test_report_into_a_missing_directory_exit_2(tmp_path, capsys, monkeypatch, via_outdir):
    """A report that cannot be written, into a directory that does not
    exist, given by --out or by PGCONICS_OUTDIR: exit 2, the message on
    stderr, nothing on stdout."""
    missing = tmp_path / "missing"
    if via_outdir:
        monkeypatch.setenv("PGCONICS_OUTDIR", str(missing))
        out = "report.json"
    else:
        out = str(missing / "report.json")
    code = main(["roundtrip", "--q", "7", "--stages", "axioms", "--out", out])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and str(missing) in captured.err
    assert not missing.exists()


def test_parse_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    write_dump(path, ["hello", "0,0,0,0,1"])
    with pytest.raises(ParseError) as err:
        parse_c_dump(path)
    assert err.value.line == 1


def test_parse_bad_coordinates(tmp_path):
    path = tmp_path / "bad2.txt"
    write_dump(path, ["q=3 poly=0,1 seed=0", "0,0,0,1"])
    with pytest.raises(ParseError):
        parse_c_dump(path)
    write_dump(path, ["q=3 poly=0,1 seed=0", "0,0,0,x,1"])
    with pytest.raises(ParseError):
        parse_c_dump(path)
    write_dump(path, ["q=3 poly=0,1 seed=0", "0,0,0,9,1"])
    with pytest.raises(ParseError):
        parse_c_dump(path)


def test_parse_q_mismatch(tmp_path, frame7, c7):
    from pgconics.bruckbose import write_c_dump
    path = tmp_path / "c.txt"
    write_c_dump(path, frame7, c7, seed=0)
    with pytest.raises(SizeMismatch):
        parse_c_dump(path, expect_q=9)


def test_config_validation():
    parser = make_parser()
    with pytest.raises(ConfigError):
        build_config(parser.parse_args(["roundtrip", "--q", "6"]))
    with pytest.raises(ConfigError):
        build_config(parser.parse_args(["roundtrip", "--q", "5"]))
    with pytest.raises(ConfigError):
        build_config(parser.parse_args(["reconstruct", "--q", "7"]))  # no --in
    with pytest.raises(ConfigError):
        build_config(parser.parse_args(["negative-control", "--q", "7"]))
    cfg = build_config(parser.parse_args(["roundtrip", "--q", "9"]))
    assert (cfg.p, cfg.k) == (3, 2)
    cfg = build_config(parser.parse_args(["roundtrip", "--q", "27"]))
    assert (cfg.p, cfg.k) == (3, 3)
    cfg = build_config(parser.parse_args(["roundtrip", "--q", "31"]))  # the largest order
    assert (cfg.p, cfg.k) == (31, 1)
    cfg = build_config(parser.parse_args(["roundtrip", "--p", "3", "--k", "3"]))
    assert (cfg.q, cfg.p, cfg.k) == (27, 3, 3)
    for p, k in (("1", "1000000000"), ("-5", "1000000000"), ("4", "1")):  # is_prime decides
        with pytest.raises(ConfigError, match=f"^p={p} is not prime$"):
            build_config(parser.parse_args(["roundtrip", "--p", p, "--k", k]))


@pytest.mark.parametrize("argv", [
    ["roundtrip", "--q", "37"],
    ["roundtrip", "--q", "32", "--exploratory"],
    # (x^3 + x + 1)^2 = x^6 + x^2 + 1, reducible over GF(2)
    ["roundtrip", "--p", "2", "--k", "6", "--modulus", "1,0,1,0,0,0,1", "--exploratory"],
    # a large prime: is_prime would try divisors up to 10^9
    ["roundtrip", "--p", "1000000000000000003"],
    # 2^(10^9) is never formed
    ["roundtrip", "--p", "2", "--k", "1000000000"],
])
def test_config_bounds_q_before_any_table(argv, monkeypatch):
    """q > 31 is a configuration error, raised within a second, before the
    modulus is checked (check_modulus builds the q x q tables of
    GF(p)[x]/(m)) and before p is tested for primality."""
    def called(name):
        def fail(*args):
            raise AssertionError(f"{name} called")
        return fail
    monkeypatch.setattr("pgconics.cli.check_modulus", called("check_modulus"))
    monkeypatch.setattr("pgconics.cli.is_prime", called("is_prime"))
    t0 = time.perf_counter()
    with pytest.raises(ConfigError, match="^q must be at most 31$"):
        build_config(make_parser().parse_args(argv))
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# exit-code contract: bad selections and fields are configuration errors


def test_unknown_stage_rejected(capsys):
    assert main(["roundtrip", "--q", "7", "--threads", "1", "--stages", "bogus"]) == 2
    assert "unknown stage" in capsys.readouterr().err


def test_stage_without_prerequisites_rejected(capsys):
    assert main(["roundtrip", "--q", "7", "--threads", "1", "--stages", "uniqueness"]) == 2
    assert "uniqueness needs" in capsys.readouterr().err
    parser = make_parser()
    with pytest.raises(ConfigError):
        build_config(parser.parse_args(["roundtrip", "--q", "7",
                                        "--stages", "axioms,t_infinity"]))
    cfg = build_config(parser.parse_args(["roundtrip", "--q", "7",
                                          "--stages", "axioms,parallel_classes"]))
    assert cfg.stages == ("axioms", "parallel_classes")


def test_invalid_modulus_exit_2(capsys):
    assert main(["roundtrip", "--q", "7", "--modulus", "1,0,1"]) == 2
    assert "bad modulus" in capsys.readouterr().err


def test_dump_read_in_its_header_field(tmp_path, capsys):
    dump = str(tmp_path / "c9.txt")
    code, _ = run_cli(["forward", "--q", "9", "--modulus", "2,1,1", "--dump", dump], capsys)
    assert code == 0
    assert open(dump).readline().split()[1] == "poly=2,1,1"
    code, out = run_cli(["reconstruct", "--q", "9", "--in", dump, "--threads", "1"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    assert main(["reconstruct", "--q", "9", "--in", dump, "--modulus", "1,0,1"]) == 2
    assert "conflicts with --modulus" in capsys.readouterr().err


def test_reconstruct_echoes_dump_modulus(tmp_path, capsys):
    # a dump written in a non-default field echoes that field's polynomial
    dump = str(tmp_path / "c9.txt")
    run_cli(["forward", "--q", "9", "--modulus", "2,1,1", "--dump", dump], capsys)
    code, out = run_cli(["reconstruct", "--q", "9", "--in", dump, "--stages", "axioms"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["modulus"] == [2, 1, 1]
    # a default-field dump (poly=1,0,1) still echoes null
    run_cli(["forward", "--q", "9", "--dump", dump], capsys)
    assert open(dump).readline().split()[1] == "poly=1,0,1"
    code, out = run_cli(["reconstruct", "--q", "9", "--in", dump, "--stages", "axioms"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["modulus"] is None


def test_witness_text():
    """One format for a failed check, used by the CLI's lemma1 stage and by
    run_stages: a non-str witness goes through str() before the empty test."""
    from pgconics.bruckbose import LemmaViolation
    from pgconics.report import witness_text

    assert witness_text(LemmaViolation("bad", witness=(1, 2))) == "LemmaViolation: bad [(1, 2)]"
    assert witness_text(LemmaViolation("bad", witness=0)) == "LemmaViolation: bad [0]"
    assert witness_text(LemmaViolation("bad", witness="")) == "LemmaViolation: bad"
    assert witness_text(ValueError("bad")) == "ValueError: bad"
