"""Acceptance suite: every criterion is checked exactly, one per test.

Each test prints a single PASS/FAIL line (run with -s to see them on
success).  All arithmetic is exact, so every expected value is pinned as an
integer; the runtime bounds are the stated budgets.
"""

import contextlib
import json
import random
import time

import pytest

from pgconics.bruckbose import (build_C, canonical_tangent_conic,
                                random_tangent_conic, verify_lemma1)
from pgconics.cli import main
from pgconics.conics import complete_q_arc, complete_q_arc_by_secants, QuadraticForm
from pgconics.projgeom import ProjectiveSpace
from pgconics.reconstruct import (PipelineState, full_pipeline, make_frame,
                                  perturb_spread_by_regulus, run_stages)


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def by_name(records):
    return {r.name: r for r in records}


def test_criterion_1_roundtrip_q7_canonical():
    with criterion("round trip q=7, canonical conic, seed 0 (< 60 s, single thread)"):
        t0 = time.monotonic()
        frame = make_frame(7)
        conic = canonical_tangent_conic(frame)
        C = build_C(frame, conic)
        assert len(C) == 49
        records, state = full_pipeline(C, frame=frame, conic=conic,
                                       expect_classical=True)
        elapsed = time.monotonic() - t0
        rec = by_name(records)
        assert all(r.verdict == "pass" for r in records), [
            (r.name, r.witness) for r in records if r.verdict != "pass"]
        assert rec["axioms"].counts["planes"] == 56
        assert rec["parallel_classes"].counts["classes"] == 8
        assert rec["parallel_classes"].counts["class_size"] == 7
        assert rec["infinity_data"].counts["completion_points"] == 4
        assert rec["infinity_data"].counts["free_points"] == 4
        assert rec["infinity_data"].counts["simple_points"] == 392
        assert rec["infinity_data"].counts["lines_per_completion"] == 14
        assert rec["t_infinity"].counts["axis_points"] == 8
        assert len(state.spread.lines) == 50
        assert state.spread.axis == 49    # the trace line of each point c at row c
        assert rec["assemble_spread"].counts["points_covered"] == 400
        assert rec["regulus_closure"].counts["passes"] == 1176
        assert rec["regulus_closure"].counts["pairs"] == 1176
        assert rec["klein_regularity"].counts["span_dim"] == 3
        assert rec["klein_regularity"].counts["section_size"] == 50
        assert rec["klein_regularity"].counts["cap"] == 1
        assert rec["rebuild_arc"].counts["arc_size"] == 50
        assert rec["rebuild_arc"].counts["conic_fit"] == 1
        assert rec["rebuild_arc"].counts["matches_input_conic"] == 1
        assert rec["uniqueness"].counts["incompatible"] == 2352
        assert rec["uniqueness"].counts["spread_matches_classical"] == 1
        assert state.spread.rows_set() == frame.spread.rows_set()
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


@pytest.mark.parametrize("q,budget", [(9, 300.0), (11, 1200.0)])
def test_criterion_2_formula_counts(q, budget):
    with criterion(f"round trip q={q} with formula-derived counts (< {budget:.0f} s)"):
        t0 = time.monotonic()
        frame = make_frame(q)
        conic = canonical_tangent_conic(frame)
        C = build_C(frame, conic)
        records, state = full_pipeline(C, frame=frame, conic=conic,
                                       expect_classical=True)
        elapsed = time.monotonic() - t0
        rec = by_name(records)
        assert all(r.verdict == "pass" for r in records), [
            (r.name, r.witness) for r in records if r.verdict != "pass"]
        assert rec["axioms"].counts["points"] == q * q
        assert rec["axioms"].counts["planes"] == q * q + q
        assert rec["parallel_classes"].counts["classes"] == q + 1
        assert rec["infinity_data"].counts["completion_points"] == (q + 1) // 2
        assert rec["infinity_data"].counts["free_points"] == (q + 1) // 2
        assert rec["infinity_data"].counts["simple_points"] == q ** 3 + q ** 2
        assert rec["infinity_data"].counts["lines_per_completion"] == 2 * q
        assert rec["infinity_data"].counts["trace_lines"] == q * q + q
        assert rec["assemble_spread"].counts["lines"] == q * q + 1
        assert rec["regulus_closure"].counts["passes"] == \
            (q * q) * (q * q - 1) // 2
        assert rec["regulus_closure"].counts["distinct_reguli"] == q * q + q
        assert rec["klein_regularity"].counts["section_size"] == q * q + 1
        assert rec["rebuild_arc"].counts["arc_size"] == q * q + 1
        assert rec["uniqueness"].counts["spread_matches_classical"] == 1
        assert elapsed < budget, f"took {elapsed:.1f}s"


def test_criterion_3_randomized_conics_q7():
    with criterion("20 random-seed conics at q=7 all pass end-to-end"):
        frame = make_frame(7)
        for seed in range(20):
            conic = random_tangent_conic(frame, seed)
            C = build_C(frame, conic)
            records, state = full_pipeline(C, frame=frame, conic=conic,
                                           expect_classical=True)
            assert all(r.verdict == "pass" for r in records), (
                seed, [(r.name, r.witness) for r in records if r.verdict != "pass"])


def test_criterion_4_lemma1_q7():
    with criterion("conic incidence properties at q=7 with 10 subplane rebuilds"):
        frame = make_frame(7)
        conic = canonical_tangent_conic(frame)
        rep = verify_lemma1(frame, conic, spot_checks=10)
        assert rep.plane_count == 56
        assert rep.interior_count == 1176   # points on 0 planes = interior set
        assert rep.exterior_count == 1176   # points on 2 planes = exterior set
        assert rep.spot_checks == 10


def test_criterion_5_negative_controls(capsys):
    with criterion("negative controls fail at the stated stage with exit 1"):
        code = main(["negative-control", "--q", "7", "--control",
                     "displaced-point", "--threads", "1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        failing = [s for s in report["stages"] if s["verdict"] == "fail"]
        assert failing[0]["name"] == "axioms" and failing[0]["witness"]

        code = main(["negative-control", "--q", "7", "--control",
                     "perturbed-spread", "--threads", "1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        verdicts = {s["name"]: s["verdict"] for s in report["stages"]}
        assert verdicts["regulus_closure"] == "fail"
        assert verdicts["klein_regularity"] == "fail"

        code = main(["negative-control", "--q", "7", "--control",
                     "corrupted-arc", "--threads", "1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        failing = [s for s in report["stages"] if s["verdict"] == "fail"]
        assert failing[0]["name"] == "rebuild_arc"
        assert "NotAnArc" in failing[0]["witness"]


def test_criterion_6_dual_oracle_agreement():
    with criterion("dual oracles: arc completion x2, regularity x2, exact agreement"):
        # conic-fit completion vs secant filter: 100 sub-arcs per field order
        for q in (7, 9):
            frame = make_frame(q)
            plane = ProjectiveSpace(2, frame.base)
            rng = random.Random(q * 1000 + 1)
            done = 0
            while done < 100:
                coeffs = tuple(rng.randrange(q) for _ in range(6))
                if not any(coeffs):
                    continue
                form = QuadraticForm.from_coefficients(plane, coeffs)
                if not form.is_nondegenerate():
                    continue
                pts = form.points()
                drop = rng.randrange(len(pts))
                arc = [p for i, p in enumerate(pts) if i != drop]
                fitted, _ = complete_q_arc(plane, arc)
                filtered = complete_q_arc_by_secants(plane, arc)
                assert fitted == filtered == pts[drop]
                done += 1

        # Klein verdict vs regulus closure on every tested spread
        frame = make_frame(7)
        conic = canonical_tangent_conic(frame)
        C = build_C(frame, conic)
        _, state = full_pipeline(C, frame=frame, conic=conic)
        spreads = [
            ("classical", frame.spread),
            ("reconstructed", state.spread),
            ("perturbed", perturb_spread_by_regulus(frame.sigma, state.spread)[0]),
        ]
        for label, spread in spreads:
            st = PipelineState(frame, C)
            st.spread = spread
            recs = by_name(run_stages(st, include={"regulus_closure",
                                                   "klein_regularity"}))
            closure_ok = recs["regulus_closure"].verdict == "pass"
            klein_ok = recs["klein_regularity"].verdict == "pass"
            assert closure_ok == klein_ok, label
        assert [v for _, v in spreads]  # three spreads were tested
