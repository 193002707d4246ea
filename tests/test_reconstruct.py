import collections
import copy
import functools
import itertools
import json
import random
import re

import numpy as np
import pytest

from pgconics.projgeom import (HeavyPlaneScan, ProjectiveSpace, Subspace, matmul_np,
                               gaussian_binomial, matrix_inverse, normalize_rows_np,
                               points_array, rref, rref_np, scan_heavy_planes, span)
from pgconics.bruckbose import (BruckBoseFrame, baer_subplane_through, build_C,
                                random_tangent_conic)
from pgconics import reconstruct
from pgconics.conics import DegenerateInput, QuadraticForm, complete_q_arc, tangent_line
from pgconics.cli import main
from pgconics.reconstruct import (NotCollinear, NotSkew,
                                  Planes, PipelineState, Spread,
                                  StructureViolation, TangentDegenerate,
                                  _plane_duals, _residual_groups, _three_space_duals,
                                  _three_space_tests,
                                  align_spreads,
                                  displace_point, full_pipeline, make_frame,
                                  perturb_spread_by_regulus,
                                  plucker, regulus_from, run_stages)


def line_table(sigma):
    """Every line of sigma in subspaces(1) order, as (RREF rows, point ids)."""
    rows = sigma.subspace_rows(1, np.arange(gaussian_binomial(sigma.n + 1, 2, sigma.field.q)))
    return rows, sigma.line_point_ids(rows)


def records_by_name(records):
    return {r.name: r for r in records}


def plane_subspace(st, pid):
    """Plane pid of the state as a Subspace of PG(4,q)."""
    return Subspace(st.space4, tuple(map(tuple, st.planes.bases[pid].tolist())))


def class_of(st):
    """Plane id -> id of its parallel class."""
    return {pid: cid for cid, group in enumerate(st.classes) for pid in group}


# ---------------------------------------------------------------------------
# round trip and stage counts


def test_roundtrip_all_stages_pass(run7):
    records, state = run7
    assert [r.verdict for r in records] == ["pass"] * 9
    assert [r.name for r in records] == [
        "axioms", "parallel_classes", "infinity_data", "t_infinity",
        "assemble_spread", "regulus_closure", "klein_regularity",
        "rebuild_arc", "uniqueness"]


def test_roundtrip_counts_q7(run7):
    rec = records_by_name(run7[0])
    assert rec["axioms"].counts["planes"] == 56
    assert rec["axioms"].counts["points_on_two_planes"] == 1176
    assert rec["axioms"].counts["points_on_no_plane"] == 1176
    assert rec["parallel_classes"].counts == {
        "classes": 8, "class_size": 7, "same_class_pairs": 168,
        "cross_class_pairs_sharing_one": 1372}
    assert rec["infinity_data"].counts["completion_points"] == 4
    assert rec["infinity_data"].counts["free_points"] == 4
    assert rec["infinity_data"].counts["simple_points"] == 392
    assert rec["infinity_data"].counts["trace_lines"] == 56
    assert rec["infinity_data"].counts["lines_per_completion"] == 14
    assert rec["t_infinity"].counts == {"axis_points": 8, "planes_through_axis": 49}
    assert rec["assemble_spread"].counts["lines"] == 50
    assert rec["assemble_spread"].counts["points_covered"] == 400
    assert rec["regulus_closure"].counts == {
        "pairs": 1176, "passes": 1176, "distinct_reguli": 56,
        "opposites_with_one_trace_line": 56}
    assert rec["klein_regularity"].counts["span_dim"] == 3
    assert rec["klein_regularity"].counts["section_size"] == 50
    assert rec["rebuild_arc"].counts["conic_fit"] == 1
    assert rec["rebuild_arc"].counts["matches_input_conic"] == 1
    assert rec["uniqueness"].counts["lines_disjoint_outside"] == 2352
    assert rec["uniqueness"].counts["incompatible"] == 2352
    assert rec["uniqueness"].counts["spread_matches_classical"] == 1


def test_reconstructed_spread_equals_classical(run7, frame7):
    _, state = run7
    assert state.spread.rows_set() == frame7.spread.rows_set()


def test_determinism(frame7, conic7, c7):
    r1, s1 = full_pipeline(c7, frame=frame7, conic=conic7, expect_classical=True)
    r2, s2 = full_pipeline(c7, frame=frame7, conic=conic7, expect_classical=True)
    assert [(r.name, r.verdict, r.counts) for r in r1] == \
        [(r.name, r.verdict, r.counts) for r in r2]
    assert s1.spread.rows_set() == s2.spread.rows_set()


# ---------------------------------------------------------------------------
# lemma-level invariants, exhaustive at q = 7


def test_plane_intersection_trichotomy(run7, frame7):
    """Two planes meet in one point, or in a line carrying exactly one point;
    same-class pairs meet exactly in their shared completion point."""
    _, state = run7
    cset = set(state.C)
    cls = class_of(state)
    completion = [tuple(c) for c in state.planes.completions.tolist()]
    for a, b in itertools.combinations(range(len(state.planes)), 2):
        m = plane_subspace(state, a).meet(plane_subspace(state, b))
        assert m is not None
        same_class = cls[a] == cls[b]
        if same_class:
            assert m.dim == 0
            pt = m.rows[0]
            assert pt[4] == 0 and pt[:4] == completion[a] == completion[b]
        elif m.dim == 0:
            assert m.rows[0] in cset
        else:
            assert m.dim == 1
            on_c = [p for p in m.points() if p in cset]
            assert len(on_c) == 1
            comp5 = frame7.space4.normalize(completion[a] + (0,))
            assert m.contains(comp5)
            assert completion[a] == completion[b]


def baer_cplanes(frame, conic, C):
    """The planes of PG(4,q) carrying q points of C, without stage_axioms.

    For A, B in C with preimages P, Q on the conic, the plane through A and B
    is the image of the Baer subplane through P, Q, p_inf and the point where
    the tangent at P meets l_inf (Lemma 1).  stage_axioms only finds planes
    with at least five points, so at q = 3 this is the way to get them.
    """
    found = {}
    for a, b in itertools.combinations(range(len(C)), 2):
        P, Q = frame.point_up(C[a]), frame.point_up(C[b])
        X = tangent_line(conic.form, P).meet(frame.l_inf).rows[0]
        sub = baer_subplane_through(frame, (P, Q, X, conic.p_inf))
        affine = frame.points_down([p for p in sub if p[2]])
        plane = span(frame.space4, sorted(map(tuple, affine.tolist())))
        found[plane.rows] = plane
    planes = sorted(found.values())
    return Planes(bases=np.array([pl.rows for pl in planes], dtype=np.int16),
                  members=np.array([[k for k, c in enumerate(C) if pl.contains(c)]
                                    for pl in planes]))


def cplane_state(q, seed):
    """A state holding the C-planes of the seed's conic."""
    frame = make_frame(q)
    conic = random_tangent_conic(frame, seed)
    st = PipelineState(frame, build_C(frame, conic), exploratory=q < 7)
    if q == 3:
        st.planes = baer_cplanes(frame, conic, st.C)
    else:
        assert run_stages(st, include={"axioms"})[0].verdict == "pass"
    return st


def test_baer_cplanes_match_axioms_q5():
    frame = make_frame(5)
    conic = random_tangent_conic(frame, 0)
    st = cplane_state(5, 0)
    expected = baer_cplanes(frame, conic, st.C)
    order = sorted(range(len(st.planes)), key=lambda p: st.planes.bases[p].tolist())
    assert st.planes.bases[order].tolist() == expected.bases.tolist()
    assert st.planes.members[order].tolist() == expected.members.tolist()


@pytest.mark.parametrize("q", [5, 7, 9])
def test_axiom3_products_are_normalized(q):
    """axioms lifts every point of PG(2,q) through every plane's RREF basis
    and reads the products as point ids without normalizing them: a
    normalized coefficient row times an RREF basis has first nonzero entry
    1.  Checked on the planes of the pipeline and on random RREF bases."""
    st = cplane_state(q, 0)
    f = st.base
    random_bases, rank = rref_np(f, np.random.default_rng(q).integers(
        0, q, size=(200, 3, 5)).astype(np.int16))
    for bases in (st.planes.bases, random_bases[rank == 3]):
        pts = matmul_np(f, st.plane2.points_np(), bases).reshape(-1, 5)
        normalized, zero = normalize_rows_np(f, pts)
        assert not zero.any()
        assert (normalized == pts).all()


def assert_three_space_confinement(st, pairs):
    """Planes spanning a 3-space: its points are exactly theirs, no third plane.

    The oracle is Subspace.meet and span, the dual-vector test and
    Subspace.contains of every plane's basis rows.  infinity_data reads the
    meet from M = B_b N_a^T, the product of one plane's basis with the
    other's duals (rank of the pair = 3 + rank M), and tests input points
    against the 3-space's dual vector taken from M (_three_space_duals,
    _three_space_tests).  Both must agree on every pair, also at q = 3.  No
    third plane lies in the 3-space: the stage does not test that, as it
    shares at most one of its q >= 3 members with each of the two planes.
    """
    C, f = st.C, st.base
    planes = [plane_subspace(st, p) for p in range(len(st.planes))]
    members = st.planes.members.tolist()
    all_pairs = np.array(list(itertools.combinations(range(len(planes)), 2)))
    bases = st.planes.bases
    duals = _plane_duals(f, bases)
    assert [[tuple(row) for row in n] for n in rref_np(f, duals)[0].tolist()] == \
        [list(plane.dual()) for plane in planes]
    m = matmul_np(f, bases[all_pairs[:, 1]], duals[all_pairs[:, 0]].swapaxes(1, 2))
    _, rank = rref_np(f, m)
    space_duals = _three_space_duals(f, m, duals[all_pairs[:, 0]])
    foreign = _three_space_tests(f, space_duals, st._C_arr, st.planes, all_pairs)
    found = 0
    for p, (a, b) in enumerate(all_pairs.tolist()):
        meet = planes[a].meet(planes[b])
        assert 3 + rank[p] == 6 - len(meet.rows)  # Grassmann
        if meet.dim != 1:
            continue
        sigma3 = span(st.space4, [planes[a], planes[b]])
        assert sigma3.dim == 3
        dual = sigma3.dual()[0]
        assert st.space4.normalize(space_duals[p].tolist()) == st.space4.normalize(dual)
        inside = {i for i, x in enumerate(C) if f.dot(dual, x) == 0}
        assert inside == set(members[a]) | set(members[b])
        third = [i for i, plane in enumerate(planes)
                 if all(sigma3.contains(row) for row in plane.rows)]
        assert third == [a, b]
        assert not foreign[p]
        found += 1
    assert found == pairs  # (q+1)/2 completion points x q^2 cross pairs
    recs = run_stages(st, include={"parallel_classes", "infinity_data"})
    if st.q == 3:
        # a 3-arc does not determine its conic; the stage records the failed
        # fit instead of raising it
        assert recs[1].verdict == "warn"
        assert recs[1].witness == "DegenerateInput: need exactly 5 points, got 3"
    else:
        assert [r.verdict for r in recs] == ["pass", "pass"]
        assert recs[1].counts["three_space_checks"] == pairs


def test_three_space_confinement():
    assert_three_space_confinement(cplane_state(7, 0), 196)


@pytest.mark.parametrize("q,seed,pairs", [(3, 0, 18), (5, 0, 75), (9, 5, 405)])
def test_three_space_confinement_other_fields(q, seed, pairs):
    assert_three_space_confinement(cplane_state(q, seed), pairs)


@pytest.mark.parametrize("q", [5, 7, 9])
@pytest.mark.parametrize("seed", [0, 5])
def test_trace_lines_match_subspace_meet(q, seed):
    """infinity_data's trace lines, from one rref_np of the bases with x4
    moved first, against Subspace.meet with the hyperplane x4 = 0; and its
    points at infinity on them, from one bincount, against Subspace.points."""
    st = cplane_state(q, seed)
    recs = run_stages(st, include={"parallel_classes", "infinity_data"})
    assert [r.verdict for r in recs] == ["pass", "pass"]
    infinity = st.space4.hyperplane(4)
    lines = [plane_subspace(st, p).meet(infinity) for p in range(len(st.planes))]
    assert st.planes.traces.tolist() == [[list(row[:4]) for row in m.rows] for m in lines]
    on_lines = collections.Counter(p[:4] for m in lines for p in m.points())
    cls = st.classification
    assert [on_lines[p] for p in cls.completion_points] == [2 * q] * ((q + 1) // 2)
    assert cls.free_points == tuple(sorted(p for p in st.sigma.points() if on_lines[p] == 0))
    assert sum(k == 1 for k in on_lines.values()) == recs[1].counts["simple_points"]


def test_three_space_tests_flags():
    """A member missing from its plane makes the 3-space hold a foreign
    point."""
    st = cplane_state(7, 0)
    planes = [plane_subspace(st, p) for p in range(len(st.planes))]
    a, b = next((a, b) for a, b in itertools.combinations(range(len(planes)), 2)
                if planes[a].meet(planes[b]).dim == 1)
    dual = np.array(span(st.space4, [planes[a], planes[b]]).dual(), dtype=np.int16)
    pair = np.array([[a, b]])
    assert _three_space_tests(st.base, dual, st._C_arr, st.planes, pair).tolist() == [False]
    members = st.planes.members
    # plane a lists another of its members in place of one that plane b lacks
    k = next(k for k, m in enumerate(members[a]) if m not in members[b])
    members[a, k] = members[a, k - 1]
    assert _three_space_tests(st.base, dual, st._C_arr, st.planes, pair).tolist() == [True]


def inject_foreign_point(q, seed, pair):
    """infinity_data's record once an affine point of the 3-space of the
    pair-th line-meeting plane pair (not in C) is appended to the input."""
    st = cplane_state(q, seed)
    assert run_stages(st, include={"parallel_classes"})[0].verdict == "pass"
    planes = [plane_subspace(st, p) for p in range(len(st.planes))]
    pairs = [(a, b) for a, b in itertools.combinations(range(len(planes)), 2)
             if (m := planes[a].meet(planes[b])) is not None and m.dim == 1]
    a, b = pairs[pair]
    sigma3 = span(st.space4, [planes[a], planes[b]])
    st.C += (next(p for p in sigma3.points() if p[4] and p not in set(st.C)),)
    st._C_arr = points_array(st.C)
    return run_stages(st, include={"infinity_data"})[0]


# witnesses captured before the 3-space checks were rewritten as array tests
@pytest.mark.parametrize("q,seed,pair,verdict,sigma3", [
    (5, 5, 37, "warn", "1,0,0,0,0;0,1,0,1,0;0,0,1,3,0;0,0,0,0,1"),
    (7, 0, 98, "fail", "1,0,0,0,0;0,1,0,0,0;0,0,1,0,0;0,0,0,0,1"),
    (7, 5, 0, "fail", "1,0,0,0,6;0,1,0,0,2;0,0,1,0,2;0,0,0,1,5"),
    (7, 5, 98, "fail", "1,0,0,0,2;0,1,0,0,2;0,0,1,0,2;0,0,0,1,5"),
    (7, 5, 195, "fail", "1,0,0,0,0;0,1,0,0,2;0,0,1,0,2;0,0,0,1,5"),
    (9, 5, 202, "fail", "1,0,0,0,6;0,1,0,0,5;0,0,1,0,7;0,0,0,1,3"),
])
def test_foreign_point_witness(q, seed, pair, verdict, sigma3):
    rec = inject_foreign_point(q, seed, pair)
    assert rec.verdict == verdict
    assert rec.witness == f"StructureViolation: 3-space contains foreign points [{sigma3}]"


def test_planes_at_infinity_through_axis(run7, frame7):
    """Each plane of the hyperplane at infinity through the axis holds exactly
    q trace lines, concurrent in a completion point, from one parallel class."""
    _, state = run7
    axis = state.axis
    sigma = frame7.sigma
    planes_thru_axis = set()
    for p in sigma.points():
        if not axis.contains(p):
            planes_thru_axis.add(span(sigma, [axis, p]).rows)
    assert len(planes_thru_axis) == 8  # q + 1
    cls = class_of(state)
    for rows in planes_thru_axis:
        plane = Subspace(sigma, rows)
        carried = [i for i, trace in enumerate(state.planes.traces.tolist())
                   if all(plane.contains(row) for row in trace)]
        assert len(carried) == 7  # q trace lines
        completions = {tuple(state.planes.completions[i].tolist()) for i in carried}
        assert len(completions) == 1
        classes = {cls[i] for i in carried}
        assert len(classes) == 1


def test_transversal_points_lie_on_common_plane(run7, frame7):
    """A line meeting the axis meets q trace lines; their points are coplanar."""
    _, state = run7
    axis = state.axis
    sigma = frame7.sigma
    spread = state.spread
    line_of_point = {}  # point -> its spread line, c < q^2 the trace line of point c
    for c, rows in enumerate(spread.lines.tolist()):
        for p in Subspace(sigma, tuple(map(tuple, rows))).points():
            line_of_point[p] = c
    axis_pts = set(axis.points())
    seen = {axis.rows}
    checked = 0
    for V in sorted(axis_pts):
        for X in sigma.points():
            if X in axis_pts:
                continue
            line = span(sigma, [V, X])
            if line.rows in seen:
                continue
            seen.add(line.rows)
            cids = set()
            for p in line.points():
                c = line_of_point[p]
                if c != spread.axis:
                    cids.add(c)
            assert len(cids) == 7  # q distinct trace lines met
            members = sorted(cids)
            plane = span(frame7.space4, [state.C[i] for i in members[:3]])
            assert plane.dim == 2
            assert all(plane.contains(state.C[i]) for i in members)
            assert any(set(members) <= set(row) for row in state.planes.members.tolist())
            checked += 1
    assert checked == 448  # (q+1)(q^2+q) lines meeting the axis


# ---------------------------------------------------------------------------
# the direction table against the per-line regrouping oracle


def assert_direction_table_matches_oracle(frame, C):
    """On every line of PG(3,q): the plane of each input point, read by
    own(), equals that of _residual_groups, and the swept level is the
    fullest plane's other points, capped at 4.  Returns the fullest planes."""
    state = PipelineState(frame, C)
    rows, ids = line_table(frame.sigma)
    n = len(state.C)
    own = state.directions.own(ids, np.broadcast_to(np.arange(n), (len(ids), n)))
    largest = np.empty(len(ids), dtype=np.int64)
    for i, line in enumerate(rows.tolist()):
        counts, inverse, _ = _residual_groups(state, tuple(r + [0] for r in line))
        assert (own[i] == counts[inverse]).all(), line
        largest[i] = counts.max()
    assert np.array_equal(state.directions.line_levels(), np.minimum(largest - 1, 4))
    return largest


def test_direction_table_matches_oracle_canonical_q7(frame7, c7):
    largest = assert_direction_table_matches_oracle(frame7, c7)
    # the axis; spread and axis-meeting lines; the 2352 lines outside the
    # spread, each with a 4-point plane; the 56 traces of the C-planes
    sizes, lines = np.unique(largest, return_counts=True)
    assert dict(zip(sizes.tolist(), lines.tolist())) == {1: 1, 2: 441, 4: 2352, 7: 56}


def test_direction_table_matches_oracle_displaced_q7(frame7, c7):
    assert_direction_table_matches_oracle(frame7, displace_point(frame7, c7, seed=1))


def test_direction_table_matches_oracle_repeated_point_q7(frame7, c7):
    # a repeated point has no direction and counts on every plane through it
    largest = assert_direction_table_matches_oracle(frame7, c7[:-1] + c7[:1])
    assert largest.min() == 2


def test_direction_table_matches_oracle_four_collinear_q7(frame7, c7):
    # input points 2 and 3 moved onto the affine line through points 0 and
    # 1: T has entries 3, so the sweep adds three unit planes per line point
    f = frame7.base
    a, b = (f.mul_np[f.inv_np[p[4]], np.array(p)] for p in c7[:2])  # scaled to x4 = 1
    moved = [frame7.space4.normalize(f.add_np[a, f.mul_np[t, f.sub_np[b, a]]].tolist())
             for t in (2, 3)]
    C = c7[:2] + tuple(moved) + c7[4:]
    assert len(set(C)) == 49 and PipelineState(frame7, C).directions.T.max() == 3
    assert assert_direction_table_matches_oracle(frame7, C).max() == 7


def test_direction_table_matches_oracle_noncanonical_q9(frame9):
    conic = random_tangent_conic(frame9, 5)
    assert_direction_table_matches_oracle(frame9, build_C(frame9, conic))


def threshold_levels(T, repeats, ids, cap=reconstruct.DirectionTable.LEVELS):
    """levels() as threshold counters over boolean (line, point) tables:
    counter k holds the input points with more than k other points on the
    plane <l, a>, preset from repeats, and a unit plane x = T >= u of a line
    point sets counter k where counter k-1 and x were set.  Returns the
    levels and the entries at the cap, as levels() does."""
    counters = np.repeat((repeats > np.arange(cap)[:, None])[:, None], len(ids), axis=1)
    for col in ids.T:
        for u in range(1, min(T.max(initial=0), cap) + 1):
            x = T[col] >= u
            counters[1:] |= counters[:-1] & x
            counters[0] |= x
    return counters.any(axis=2).sum(axis=0), np.nonzero(counters[-1])


@pytest.mark.parametrize("q", [5, 7, 9])
@pytest.mark.parametrize("kind,levels", [("binary", {0, 1, 2, 3, 4}),
                                         ("multiple", {0, 1, 2, 3, 4}),
                                         ("repeats", {3, 4}), ("repeats at the cap", {4})])
def test_bit_plane_levels_match_threshold_oracle(q, kind, levels):
    """On random direction tables of four input points: 0/1, with entries
    up to 5, and 0/1 with points repeated 1 and 3 times, or 5 times (beyond
    the cap), the bit-plane levels and entries at the cap equal the
    threshold counters', for an id table's columns and for the sweep's
    table-fed runs; both equal the capped exact counts of own()."""
    frame = make_frame(q)
    table = PipelineState(frame, build_C(frame, random_tangent_conic(frame, 1))).directions
    rng = np.random.default_rng(q)
    n, points = q * q, rng.choice(q * q, 4, replace=False)
    table.T = np.zeros((frame.sigma.npoints, n), dtype=np.int16)
    hit = rng.random((frame.sigma.npoints, 4)) < (0.7 if kind == "multiple" else 1) / (q + 1)
    table.T[:, points] = hit * (rng.integers(1, 6, hit.shape) if kind == "multiple" else 1)
    table.repeats = np.zeros(n, dtype=np.int16)
    table.repeats[points[:2]] = (5, 0) if kind == "repeats at the cap" else \
        (1, 3) if kind == "repeats" else 0
    _, ids = line_table(frame.sigma)
    level, entries = threshold_levels(table.T, table.repeats, ids)
    assert set(level.tolist()) == levels and len(entries[0])
    got, (lines, at) = table.levels(ids.T)
    assert got.dtype == np.int8 and np.array_equal(got, level)
    assert np.array_equal(lines, entries[0]) and np.array_equal(at, entries[1])
    swept_level, swept_lines, swept_at = table._sweep[:3]
    assert np.array_equal(swept_level, level)
    assert np.array_equal(swept_lines, lines) and np.array_equal(swept_at, at)
    others = table.own(ids, np.broadcast_to(np.arange(n), (len(ids), n))) - 1
    assert np.array_equal(level, np.minimum(others.max(axis=1), 4))
    assert np.array_equal(np.nonzero(others >= 4), entries)


def test_direction_table_follows_replaced_points(frame7, c7):
    st = PipelineState(frame7, c7)
    table = st.directions
    assert st.directions is table
    st.C = displace_point(frame7, c7, seed=1)
    st._C_arr = points_array(st.C)
    assert st.directions is not table and st.directions.arr is st._C_arr


def test_direction_table_rejects_point_at_infinity(frame7, c7):
    bad = c7[:-1] + ((0, 0, 0, 1, 0),)
    with pytest.raises(StructureViolation, match="inside the hyperplane at infinity"):
        PipelineState(frame7, bad).directions
    st = PipelineState(frame7, bad)
    st.spread = frame7.spread
    recs = run_stages(st, include={"rebuild_arc"})
    assert recs[0].witness == \
        "StructureViolation: input point inside the hyperplane at infinity"


NEGATIVE_CONTROL_WITNESSES_Q7 = {
    "displaced-point": [
        ("axioms", "Axiom2Violation: point pair (0,1) lies in two planes "
                   "[0,1,0,0,0;0,0,1,0,0;0,0,0,0,1]")],
    "perturbed-spread": [
        ("regulus_closure", "ClosureViolation: regulus through pair (0,1) leaves the "
                            "spread [1,0,2,0;0,1,0,2 | 1,0,3,0;0,1,0,3]"),
        ("klein_regularity", "StructureViolation: spread is not regular "
                             "(span dimension 5, section 0)")],
    "corrupted-arc": [
        ("rebuild_arc", "NotAnArc: plane through a spread line carries 3 points "
                        "[1,0,0,0,0;0,1,0,0,0;0,0,1,4,6]")],
}


@pytest.mark.parametrize("control", sorted(NEGATIVE_CONTROL_WITNESSES_Q7))
def test_negative_control_witnesses_q7(control, capsys):
    code = main(["negative-control", "--q", "7", "--control", control, "--threads", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    failing = [(s["name"], s["witness"]) for s in report["stages"] if s["verdict"] == "fail"]
    assert failing == NEGATIVE_CONTROL_WITNESSES_Q7[control]


# ---------------------------------------------------------------------------
# reguli and the Klein correspondence


def test_regulus_from_classical_lines(frame7, frame_lines):
    lines = frame_lines(frame7)
    reg = regulus_from(frame7.sigma, lines[0], lines[1], lines[2])
    rows = {l.rows for l in lines}
    assert all(l.rows in rows for l in reg.lines)
    assert len(reg.lines) == len(reg.opposite) == 8
    # (q+1)^2 distinct intersection points
    pts = set()
    for a in reg.lines:
        for b in reg.opposite:
            m = a.meet(b)
            assert m is not None and m.dim == 0
            pts.add(m.rows[0])
    assert len(pts) == 64
    # idempotence: the regulus of three regulus lines is the same regulus
    again = regulus_from(frame7.sigma, *reg.lines[:3])
    assert {l.rows for l in again.lines} == {l.rows for l in reg.lines}


def test_regulus_rejects_meeting_lines(frame7):
    sigma = frame7.sigma
    l1 = span(sigma, [(1, 0, 0, 0), (0, 1, 0, 0)])
    l2 = span(sigma, [(1, 0, 0, 0), (0, 0, 1, 0)])
    l3 = span(sigma, [(0, 0, 1, 0), (0, 0, 0, 1)])
    from pgconics.reconstruct import NotSkew
    with pytest.raises(NotSkew):
        regulus_from(sigma, l1, l2, l3)


def on_klein_quadric(field, p):
    """p01*p23 - p02*p13 + p03*p12 = 0: the scalar oracle of the Klein
    section in klein_regularity."""
    t = field.sub(field.mul(p[0], p[5]), field.mul(p[1], p[4]))
    return field.add(t, field.mul(p[2], p[3])) == 0


def test_plucker_images_on_quadric(frame7, frame_lines):
    f = frame7.base
    for line in frame_lines(frame7):
        p = plucker(f, line)
        assert on_klein_quadric(f, p)


HALL_WITNESSES = [
    ("regulus_closure", "ClosureViolation: regulus through pair (0,1) leaves the spread "
                        "[1,0,2,0;0,1,0,2 | 1,0,3,0;0,1,0,3]"),
    ("klein_regularity", "StructureViolation: spread is not regular "
                         "(span dimension 5, section 0)")]


def test_klein_rejects_hall_perturbation(run7, frame7, c7):
    _, state = run7
    pert, reg = perturb_spread_by_regulus(frame7.sigma, state.spread)
    st = PipelineState(frame7, c7)
    st.spread = pert
    recs = run_stages(st, include={"regulus_closure", "klein_regularity"})
    # the reconstructed spread lists its lines in another order than the
    # classical one, so another regulus is swapped
    assert [(r.name, r.verdict, r.witness) for r in recs] == [
        ("regulus_closure", "fail", "ClosureViolation: regulus through pair (0,1) leaves "
                                    "the spread [1,0,0,3;0,1,2,0 | 1,0,0,6;0,1,4,0]"),
        ("klein_regularity", "fail", HALL_WITNESSES[1][1])]


@pytest.mark.parametrize("q", [5, 9])
def test_klein_rejects_hall_perturbation_witnesses(q):
    frame = make_frame(q)
    st = PipelineState(frame, build_C(frame, random_tangent_conic(frame, 0)))
    st.spread = perturb_spread_by_regulus(frame.sigma, frame.spread)[0]
    recs = run_stages(st, include={"regulus_closure", "klein_regularity"})
    assert [(r.name, r.verdict, r.witness) for r in recs] == \
        [(name, "fail", witness) for name, witness in HALL_WITNESSES]


# ---------------------------------------------------------------------------
# the batched regulus closure against the scalar transversal construction


@pytest.fixture
def lead_fallbacks(monkeypatch):
    """The closure's fallbacks to every pair as a lead, one entry per
    _affine_leads call that returns None: empty where the affine plane of
    Klein residues gave the leads."""
    fallbacks = []
    leads = reconstruct._affine_leads

    def recorded(state, pa, plk):
        out = leads(state, pa, plk)
        if out is None:
            fallbacks.append(len(plk))
        return out
    monkeypatch.setattr(reconstruct, "_affine_leads", recorded)
    return fallbacks


# conic seeds per q: the canonical conic (0) and non-canonical ones
CLOSURE_SEEDS = {5: (0, 2), 7: (0, 3), 9: (5, 1), 11: (1,)}


@pytest.mark.parametrize("q", [5, 7, 9, 11])
def test_regulus_closure_matches_scalar_oracle(closure_record, closure_oracle, lead_fallbacks, q):
    """On passed states and on their spreads in shuffled line orders, the
    closure reads its leads off the affine plane of Klein residues, with no
    fallback to every pair, and matches the pair-by-pair closure."""
    frame = make_frame(q)
    n = q * q
    for seed in CLOSURE_SEEDS[q]:
        C = build_C(frame, random_tangent_conic(frame, seed))
        records, state = full_pipeline(C, frame=frame, exploratory=q < 7)
        closure = records_by_name(records)["regulus_closure"]
        assert closure.verdict == "pass"
        expected = closure_oracle(state)
        assert closure_record(state) == expected
        assert expected[2] == {"pairs": n * (n - 1) // 2, "passes": n * (n - 1) // 2,
                               "distinct_reguli": n + q, "opposites_with_one_trace_line": n + q}
        # shuffled line orders change the greedy choices, not the agreement
        rng = random.Random(q + seed)
        for _ in range(2):
            order = list(range(len(state.spread.lines)))
            rng.shuffle(order)
            st = PipelineState(frame, C)
            st.planes = state.planes
            st.spread = Spread(lines=state.spread.lines[order],
                               axis=order.index(state.spread.axis))
            record = closure_record(st)
            assert record[0] == "pass"
            assert record == closure_oracle(st)
    assert lead_fallbacks == []


@pytest.mark.parametrize("q, seed, map_seed", [(7, 2, 0), (9, 4, 1)])
def test_regulus_closure_of_a_mapped_spread(closure_record, closure_oracle, lead_fallbacks,
                                            q, seed, map_seed):
    """A passed state's spread and trace lines mapped by x -> xA, the action
    at infinity of the collineation x -> x [[A, 0], [t, 1]] of PG(4,q), are
    a regular spread and its trace lines again.  The closure passes from the
    affine plane of Klein residues, as the pair-by-pair closure does."""
    frame = make_frame(q)
    f = frame.base
    C = build_C(frame, random_tangent_conic(frame, seed))
    _, state = full_pipeline(C, frame=frame)
    rng = random.Random(map_seed)
    while True:
        A = [[rng.randrange(q) for _ in range(4)] for _ in range(4)]
        if matrix_inverse(f, A) is not None:
            break

    def mapped(rows):
        return rref_np(f, matmul_np(f, rows, np.array(A, dtype=np.int16)))[0]
    st = PipelineState(frame, C)
    st.planes = copy.copy(state.planes)
    st.planes.traces = mapped(state.planes.traces)
    st.spread = Spread(lines=mapped(state.spread.lines), axis=state.spread.axis)
    assert not np.array_equal(st.spread.lines, state.spread.lines)
    expected = closure_oracle(st)
    assert expected[0] == "pass"
    assert closure_record(st) == expected
    assert lead_fallbacks == []


@pytest.mark.parametrize("q", [5, 7])
def test_regulus_closure_fails_on_the_affine_plane(closure_record, closure_oracle,
                                                   lead_fallbacks, monkeypatch, q):
    """The q^2 lines <(1,x,0,0), (0,0,1,y)> meet the axis <(0,1,0,0),
    (0,0,0,1)> in no point, and their Klein residues are an affine plane:
    the Klein points lie on the hyperbolic quadric of the lines meeting
    <e0, e1> and <e2, e3>.  Listed by y - x, then x, the first lead's
    regulus (y = x) lies in the set, and the next group's lines (x = 0)
    share a point: the closure reports the first failing group minimum."""
    frame = make_frame(q)
    lines = [span(frame.sigma, [(1, x, 0, 0), (0, 0, 1, (x + d) % q)]).rows
             for d in range(q) for x in range(q)]
    st = PipelineState(frame, None)
    st.spread = Spread(lines=np.array(lines + [((0, 1, 0, 0), (0, 0, 0, 1))], dtype=np.int16),
                       axis=len(lines))
    expected = closure_oracle(st)
    assert expected[:2] == ("fail", "NotSkew: lines are not pairwise skew: "
                                    "1,0,0,0;0,0,1,0 / 1,0,0,0;0,0,1,1")
    batches = []
    batch = reconstruct._regulus_batch

    def recorded(f, l1, l2, l3):
        batches.append((l3, batch(f, l1, l2, l3)))
        return batches[-1][1]
    monkeypatch.setattr(reconstruct, "_regulus_batch", recorded)
    assert closure_record(st) == expected
    assert lead_fallbacks == []
    # leads (0, 1), the diagonal, then (0, q), the lines with x = 0
    (ends, out), = batches
    assert len(ends) == q * q + q
    assert (ends[:2] == st.spread.lines[[1, q]]).all() and out.failed[:2].tolist() == [0, 3]


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_regulus_from_matches_scalar_oracle(reguli_rows, scalar_regulus_from, frame_lines, q):
    """On spread triples and on random triples of the lines of sigma,
    meeting and coplanar ones included, regulus_from passes or fails with
    the message of the scalar construction, which keeps the checks the
    batch leaves out as implied by skewness."""
    frame = make_frame(q)
    sigma = frame.sigma
    spread_lines = frame_lines(frame)
    rows, _ = line_table(sigma)
    rng = random.Random(q)
    triples = [rng.sample(spread_lines, 3) if t % 2 else
               [span(sigma, rng.sample(sigma.points(), 2)) for _ in range(3)]
               for t in range(40)]
    for t in range(200):
        if t % 5 == 4:  # three lines of one plane
            dual = np.array(rng.choice(sigma.points()), dtype=np.int16)
            in_plane = np.flatnonzero((matmul_np(sigma.field, rows, dual[:, None]) == 0).all(axis=(1, 2)))
            picks = rng.sample(in_plane.tolist(), 3)
        else:
            picks = rng.sample(range(len(rows)), 3)
        triples.append([Subspace(sigma, tuple(map(tuple, rows[k].tolist()))) for k in picks])
    outcomes = collections.Counter()
    for triple in triples:
        try:
            expected = reguli_rows([scalar_regulus_from(sigma, *triple)])
        except NotSkew as exc:
            with pytest.raises(NotSkew) as info:
                regulus_from(sigma, *triple)
            assert str(info.value) == str(exc)
            outcomes["not skew"] += 1
            continue
        assert reguli_rows([regulus_from(sigma, *triple)]) == expected
        outcomes["regulus"] += 1
    assert outcomes["regulus"] >= 40 and outcomes["not skew"] >= 40


def test_regulus_closure_witness_past_the_first_pair(frame7, c7, closure_oracle, lead_fallbacks,
                                                     monkeypatch):
    """The Hall-perturbed classical spread, lines in descending order: the
    regulus of pair (0, 1) lies in the spread and covers other pairs of row
    0, and pair (0, 7) is the first whose regulus leaves it.  Captured with
    the scalar closure.  The residues are no affine plane, so every pair
    is a lead, and the first block of q^2 + q = 56 pairs holds it: one batch
    of 56 triples."""
    pert, _ = perturb_spread_by_regulus(frame7.sigma, frame7.spread)
    others = sorted(pert.lines[~pert.is_axis()].tolist(), reverse=True)
    st = PipelineState(frame7, c7)
    st.spread = Spread(lines=np.array(others + [pert.lines[pert.axis].tolist()], dtype=np.int16),
                       axis=len(others))
    triples = []
    batch = reconstruct._regulus_batch
    monkeypatch.setattr(reconstruct, "_regulus_batch",
                        lambda f, l1, l2, l3: triples.append(len(l3)) or batch(f, l1, l2, l3))
    rec = run_stages(st, include={"regulus_closure"})[0]
    assert triples == [56] and lead_fallbacks == [49]
    assert (rec.verdict, rec.witness) == (
        "fail", "ClosureViolation: regulus through pair (0,7) leaves the spread "
                "[1,0,6,6;0,1,4,6 | 1,0,5,6;0,1,6,3]")
    assert closure_oracle(st)[:2] == (rec.verdict, rec.witness)


def test_regulus_closure_stops_at_a_short_plane(frame7, c7, run7, closure_oracle, lead_fallbacks,
                                                 monkeypatch):
    """With line 20 dropped from the canonical q = 7 spread, the Klein plane
    of pair (0, 19) holds q - 2 spread lines besides the axis and line 0.
    Its regulus leaves the spread.  The 48 residues are no affine plane, so
    every pair is a lead, and the first block of q^2 + q = 56 pairs holds
    it: one batch of 56 triples."""
    spread = run7[1].spread
    lines = spread.lines[~spread.is_axis()]
    st = PipelineState(frame7, c7)
    st.planes = run7[1].planes
    st.spread = Spread(lines=np.concatenate((lines[:20], lines[21:], spread.lines[[spread.axis]])),
                       axis=len(lines) - 1)
    triples = []
    batch = reconstruct._regulus_batch
    monkeypatch.setattr(reconstruct, "_regulus_batch",
                        lambda f, l1, l2, l3: triples.append(len(l3)) or batch(f, l1, l2, l3))
    rec = run_stages(st, include={"regulus_closure"})[0]
    assert triples == [56] and lead_fallbacks == [48]
    assert (rec.verdict, rec.witness) == closure_oracle(st)[:2] == (
        "fail", "ClosureViolation: regulus through pair (0,19) leaves the spread "
                "[1,0,0,0;0,1,0,0 | 1,0,5,3;0,1,2,5]")


def test_regulus_closure_not_skew_before_leaving(frame7, c7, run7, closure_record,
                                                 closure_oracle, lead_fallbacks, monkeypatch):
    """A lead whose lines meet fails as not skew, whatever keys the batch
    computes for it: with those keys moved into the spread, the record is
    unchanged.  A line through a point of the axis is inserted into the
    canonical q = 7 spread as line 3, and every pair is a lead."""
    spread = run7[1].spread
    axis = spread.lines[spread.axis].tolist()
    lines = spread.lines[~spread.is_axis()].tolist()
    lines.insert(3, span(frame7.sigma, [axis[0], lines[10][0]]).rows)
    st = PipelineState(frame7, c7)
    st.planes = run7[1].planes
    st.spread = Spread(lines=np.array(lines + [axis], dtype=np.int16),
                       axis=len(lines))
    expected = closure_oracle(st)
    assert expected[:2] == ("fail", "NotSkew: lines are not pairwise skew: "
                                    "0,0,1,0;0,0,0,1 / 1,0,0,0;0,0,1,0")
    batch = reconstruct._regulus_batch

    def keys_in_spread(f, *triples):
        out = batch(f, *triples)
        out.keys[out.failed != 0] = reconstruct._line_key_np(f, np.array(axis, dtype=np.int16))
        return out
    monkeypatch.setattr(reconstruct, "_regulus_batch", keys_in_spread)
    assert closure_record(st) == expected
    assert len(lead_fallbacks) == 1


def test_regulus_closure_repeated_line_checks_every_pair(run7, closure_record, closure_oracle,
                                                         lead_fallbacks):
    """With line 30 of the canonical q = 7 spread replaced by a copy of line
    5, the q^2 Klein residues miss one line of P(W), as an affine plane's
    do, but hold one point twice and miss another, so they are not an
    affine plane and every pair is a lead."""
    spread = run7[1].spread
    lines = spread.lines[~spread.is_axis()].copy()
    lines[30] = lines[5]
    st = PipelineState(run7[1].frame, run7[1].C)
    st.planes = run7[1].planes
    st.spread = Spread(lines=np.concatenate((lines, spread.lines[[spread.axis]])),
                       axis=len(lines))
    expected = closure_oracle(st)
    assert expected[0] == "fail"
    assert closure_record(st) == expected
    assert lead_fallbacks


def test_regulus_closure_fails_at_the_last_pair(frame7, closure_record, closure_oracle,
                                                lead_fallbacks, monkeypatch):
    """The classical q = 7 spread with a copy of its last line appended:
    the copy and the line it repeats are the only failing pair, the last of
    C(50, 2) = 1225.  The residues are no affine plane, so every pair is a
    lead, checked in 22 blocks of at most q^2 + q = 56."""
    spread = frame7.spread
    lines = spread.lines[~spread.is_axis()]
    st = PipelineState(frame7, None)
    st.spread = Spread(lines=np.concatenate((lines, lines[-1:], spread.lines[[spread.axis]])),
                       axis=len(lines) + 1)
    expected = closure_oracle(st)
    assert expected[:2] == ("fail", "NotSkew: lines are not pairwise skew: "
                                    "1,0,6,6;0,1,4,6 / 1,0,6,6;0,1,4,6")
    triples = []
    batch = reconstruct._regulus_batch
    monkeypatch.setattr(reconstruct, "_regulus_batch",
                        lambda f, l1, l2, l3: triples.append(len(l3)) or batch(f, l1, l2, l3))
    assert closure_record(st) == expected
    assert lead_fallbacks == [50] and triples == [56] * 21 + [49]


def test_regulus_closure_of_one_regulus(run7, closure_record, closure_oracle, lead_fallbacks):
    """The axis and the other q lines of one regulus through it, an injected
    state: closed under the reguli through the axis, but no affine plane.
    Every pair is a lead and passes, and the closure accepts the one regulus
    once, at its first pair, as the pair-by-pair closure does."""
    state = run7[1]
    axis = tuple(map(tuple, state.spread.lines[state.spread.axis].tolist()))
    regulus = reconstruct._reguli(state.sigma, state.reguli[:1])[0]
    lines = [l.rows for l in regulus.lines if l.rows != axis]
    st = PipelineState(state.frame, state.C)
    st.planes = state.planes
    st.spread = Spread(lines=np.array(lines + [axis], dtype=np.int16), axis=len(lines))
    record, expected = closure_record(st), closure_oracle(st)
    assert record[0] == expected[0] == "pass" and lead_fallbacks == [7]
    assert record[3] == expected[3] and len(record[3]) == 1
    assert record[2] == {"pairs": 21, "passes": 21, "distinct_reguli": 56,
                         "opposites_with_one_trace_line": 1}


def test_regulus_closure_at_q2_reads_the_affine_plane(closure_record, closure_oracle,
                                                      lead_fallbacks):
    """Every spread of PG(3,2) is regular, so at q = 2 (exploratory) the
    frame spread and its Hall perturbation both pass with leads read off the
    affine plane of Klein residues: the edge case of the argument that a
    spread of q^2 lines with no failing pair never checks every pair."""
    frame = make_frame(2)
    for spread in (frame.spread, perturb_spread_by_regulus(frame.sigma, frame.spread)[0]):
        st = PipelineState(frame, None, exploratory=True)
        st.spread = spread
        record = closure_record(st)
        assert record[0] == "pass" and record == closure_oracle(st)
    assert lead_fallbacks == []


def test_opposite_regulus_without_trace_line(closure_record, closure_oracle, lead_fallbacks):
    """The classical spread is regular, so its closure is built from the
    affine plane of Klein residues; but against the trace lines of the
    seed-3 conic at q = 7, whose spread it is not, an opposite regulus holds
    none of them."""
    frame = make_frame(7)
    C = build_C(frame, random_tangent_conic(frame, 3))
    _, state = full_pipeline(C, frame=frame)
    st = PipelineState(frame, C)
    st.planes, st.spread = state.planes, frame.spread
    expected = ("fail", "StructureViolation: opposite regulus contains 0 trace lines", {}, None)
    assert closure_record(st) == closure_oracle(st) == expected
    assert lead_fallbacks == []


def test_three_space_and_klein_work_counts(frame7, conic7, c7, monkeypatch):
    """On the q = 7 pass path, infinity_data tests no subspace inclusion and
    klein_regularity enumerates no subspace point by point."""
    calls = collections.Counter()

    def counted(name):
        fn = getattr(Subspace, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(Subspace, name, wrapper)

    st = PipelineState(frame7, c7, conic=conic7)
    assert [r.verdict for r in run_stages(st, include={"axioms", "parallel_classes"})] == \
        ["pass", "pass"]
    counted("contains")
    counted("points")
    assert run_stages(st, include={"infinity_data"})[0].verdict == "pass"
    assert calls["contains"] == 0
    calls.clear()
    st.spread = frame7.spread
    rec = run_stages(st, include={"klein_regularity"})[0]
    assert rec.verdict == "pass" and rec.counts["cap"] == 1
    assert not calls


def test_kernel_work_counts(monkeypatch):
    """On the q = 7 pass path, make_frame converts no point one at a time,
    the forward build and infinity_data evaluate no form point by point,
    axioms makes no per-plane arc test and assemble_spread makes no
    per-point tangent_trace call.  make_frame gets an empty cache here, so
    it builds the frame whatever ran before."""
    calls = collections.Counter()
    monkeypatch.setattr(reconstruct, "_frame",
                        functools.lru_cache(maxsize=4)(reconstruct._frame.__wrapped__))

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(BruckBoseFrame, "point_up")
    counted(QuadraticForm, "evaluate")
    counted(reconstruct, "tangent_trace")
    counted(reconstruct, "is_arc")
    counted(reconstruct, "build_frame")
    frame = make_frame(7)
    assert calls == {"build_frame": 1}
    calls.clear()
    for seed in (0, 3):
        conic = random_tangent_conic(frame, seed)
        C = build_C(frame, conic)
        assert not calls
        st = PipelineState(frame, C, conic=conic)
        records = run_stages(st, include=TRACE_STAGES | {"assemble_spread"})
        assert [r.verdict for r in records] == ["pass"] * 5
        assert not calls


def test_dual_regularity_oracles_agree(run7, frame7, c7):
    """Klein verdict equals regulus-closure verdict on every tested spread."""
    _, state = run7
    spreads = [frame7.spread, state.spread,
               perturb_spread_by_regulus(frame7.sigma, state.spread)[0]]
    for spread in spreads:
        st = PipelineState(frame7, c7)
        st.spread = spread
        recs = run_stages(st, include={"regulus_closure", "klein_regularity"})
        by = records_by_name(recs)
        assert (by["regulus_closure"].verdict == "pass") == \
            (by["klein_regularity"].verdict == "pass")


def scalar_klein(sigma, spread):
    """(span dimension, section size, verdict) of klein_regularity, point by
    point: plucker, rref, Subspace.points and on_klein_quadric."""
    f = sigma.field
    q = f.q
    image = {plucker(f, Subspace(sigma, tuple(map(tuple, rows))))
             for rows in spread.lines.tolist()}
    red, _ = rref(f, sorted(image))
    section = set()
    if len(red) == 4:
        section = {p for p in Subspace(ProjectiveSpace(5, f), red).points()
                   if on_klein_quadric(f, p)}
    return len(red) - 1, len(section), section == image and len(section) == q * q + 1


@pytest.mark.parametrize("q", [5, 7, 9])
def test_klein_section_matches_scalar_oracle(q):
    """The array Klein section against the scalar one, on the reconstructed,
    classical and Hall-perturbed spreads."""
    frame = make_frame(q)
    C = build_C(frame, random_tangent_conic(frame, 0 if q != 9 else 5))
    records, state = full_pipeline(C, frame=frame, exploratory=q < 7)
    assert records_by_name(records)["assemble_spread"].verdict == "pass"
    spreads = {"reconstructed": state.spread, "classical": frame.spread,
               "perturbed": perturb_spread_by_regulus(frame.sigma, state.spread)[0]}
    verdicts = {}
    for label, spread in spreads.items():
        st = PipelineState(frame, C)
        st.spread = spread
        rec = run_stages(st, include={"klein_regularity"})[0]
        if rec.verdict == "pass":
            verdicts[label] = (rec.counts["span_dim"], rec.counts["section_size"], True)
        else:
            dim, size = re.fullmatch(r"StructureViolation: spread is not regular "
                                     r"\(span dimension (\d+), section (\d+)\)",
                                     rec.witness).groups()
            verdicts[label] = (int(dim), int(size), False)
        assert verdicts[label] == scalar_klein(frame.sigma, spread), label
        assert st.regular == verdicts[label][2]
    assert verdicts == {"reconstructed": (3, q * q + 1, True),
                        "classical": (3, q * q + 1, True),
                        "perturbed": (5, 0, False)}


# ---------------------------------------------------------------------------
# negative controls and alignment


def test_degenerate_input_in_a_stage_is_recorded(monkeypatch, capsys):
    """A DegenerateInput raised inside a stage fails that stage with a
    witness; it does not escape as a traceback."""
    def degenerate(space, points):
        raise DegenerateInput("five points lie on a degenerate conic")
    monkeypatch.setattr(reconstruct, "conic_through_5", degenerate)
    assert main(["roundtrip", "--q", "7", "--threads", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    failing = [(s["name"], s["witness"]) for s in report["stages"] if s["verdict"] == "fail"]
    assert failing == [("rebuild_arc",
                        "DegenerateInput: five points lie on a degenerate conic")]
    assert report["stages"][-1]["verdict"] == "pass"  # uniqueness still runs


def test_displaced_point_fails_axioms(frame7, c7):
    bad = displace_point(frame7, c7, seed=1)
    records, _ = full_pipeline(bad, frame=frame7)
    by = records_by_name(records)
    assert by["axioms"].verdict == "fail"
    assert by["axioms"].witness
    assert by["parallel_classes"].verdict == "skipped"


def test_repeated_point_fails_axioms(frame7, c7):
    """q^2 distinct points with one listed twice: the first check names the
    repeat (the pair scan would take it for a pair lying in two planes)."""
    records, state = full_pipeline(c7 + (c7[5],), frame=frame7)
    rec = records_by_name(records)["axioms"]
    assert (rec.verdict, rec.witness) == (
        "fail", "StructureViolation: repeated point in the input: (0, 1, 5, 0, 2)")
    assert state.C.count(c7[5]) == 2
    records, _ = full_pipeline(c7[:-1] + (c7[5],), frame=frame7)
    assert records_by_name(records)["axioms"].witness == \
        "StructureViolation: expected 49 distinct points, got 48"


def test_corrupted_points_against_classical_spread(frame7, c7):
    bad = displace_point(frame7, c7, seed=2)
    st = PipelineState(frame7, bad)
    st.spread = frame7.spread
    st.regular = True
    recs = run_stages(st, include={"rebuild_arc"})
    assert recs[0].verdict == "fail"
    assert "NotAnArc" in recs[0].witness


def test_alignment_of_transformed_input(frame7, conic7, c7):
    f = frame7.base
    rng = random.Random(31)
    while True:
        A = tuple(tuple(rng.randrange(7) for _ in range(4)) for _ in range(4))
        if matrix_inverse(f, A) is not None:
            break

    def apply5(p):
        img = tuple(f.dot(p[:4], col) for col in zip(*A)) + (p[4],)
        return frame7.space4.normalize(img)

    c2 = sorted(apply5(p) for p in c7)
    records, state = full_pipeline(c2, frame=frame7)
    by = records_by_name(records)
    assert all(r.verdict == "pass" for r in records)
    assert by["rebuild_arc"].counts["conic_fit"] == 1
    if state.spread.rows_set() != frame7.spread.rows_set():
        assert by["rebuild_arc"].counts["alignment_identity"] == 0


def test_align_spreads_maps_line_sets(frame7, frame_lines):
    f = frame7.base
    sigma = frame7.sigma
    rng = random.Random(8)
    while True:
        M = tuple(tuple(rng.randrange(7) for _ in range(4)) for _ in range(4))
        if matrix_inverse(f, M) is not None:
            break

    def map_line(line):
        rows, _ = rref(f, [tuple(f.dot(r, col) for col in zip(*M)) for r in line.rows])
        return Subspace(sigma, rows)

    moved = [map_line(l) for l in frame_lines(frame7)]
    spread = Spread(lines=np.array([l.rows for l in moved], dtype=np.int16), axis=0)
    A = align_spreads(sigma, spread, frame7.spread)
    tgt = frame7.spread.rows_set()
    for l in moved:
        rows, _ = rref(f, [tuple(f.dot(r, col) for col in zip(*A)) for r in l.rows])
        assert rows in tgt


# ---------------------------------------------------------------------------
# exploratory mode


def test_exploratory_q5_runs_all_stages():
    frame = make_frame(5)
    conic = random_tangent_conic(frame, 0)
    C = build_C(frame, conic)
    records, _ = full_pipeline(C, frame=frame, conic=conic, exploratory=True,
                               expect_classical=True)
    assert all(r.verdict in ("pass", "warn", "skipped") for r in records)
    assert len(records) == 9


def test_exploratory_q3_downgrades_to_warnings():
    frame = make_frame(3)
    conic = random_tangent_conic(frame, 0)
    C = build_C(frame, conic)
    records, _ = full_pipeline(C, frame=frame, exploratory=True)
    by = records_by_name(records)
    assert by["axioms"].verdict == "warn"
    assert by["parallel_classes"].verdict == "skipped"


# axioms records of exploratory round trips on the canonical conic, captured
# while axioms tested every plane with is_arc and counted axiom 3 in a dict
EXPLORATORY_AXIOMS = {
    3: ("warn", "Axiom2Violation: point pair (0, 1) lies in no plane "
                "[0,0,0,0,1;0,1,1,0,2]", {}),
    4: ("warn", "Axiom1Violation: three collinear points (ids 0,1,2) "
                "[0,0,0,0,1;0,0,0,1,1;0,0,0,1,2]", {}),
    5: ("pass", None, {"points": 25, "planes": 30, "pairs": 300, "points_on_two_planes": 300,
                       "points_on_no_plane": 300, "planes_per_point": 6}),
    8: ("warn", "Axiom1Violation: three collinear points (ids 0,1,2) "
                "[0,0,0,0,1;0,0,0,1,1;0,0,0,1,2]", {}),
}


@pytest.mark.parametrize("q", sorted(EXPLORATORY_AXIOMS))
def test_exploratory_axioms_records(q):
    """At q = 4 and 8 the canonical "conic" is the line x = 0.

    In characteristic 2 the symmetric matrix that QuadraticForm stores
    cannot hold the yz term of x^2 - yz: v M v^T counts each off-diagonal
    entry twice, so the form evaluates as x^2 (at q = 4 its matrix is
    ((1,0,0),(0,0,3),(0,3,0))).  Its zero set is the line x = 0, whose
    affine part maps to the affine plane (0, 0, y0, y1, 1) of PG(4,q).  That
    plane holds the line of input points 0, 1 and 2, which axioms reports.
    """
    frame = make_frame(q)
    conic = random_tangent_conic(frame, 0)
    if q % 2 == 0:
        assert {p[0] for p in conic.points} == {0}
    st = PipelineState(frame, build_C(frame, conic), exploratory=True)
    rec = run_stages(st, include={"axioms"})[0]
    assert (rec.verdict, rec.witness, rec.counts) == EXPLORATORY_AXIOMS[q]


def test_strict_mode_raises_nothing_but_records(frame7, c7):
    bad = displace_point(frame7, c7, seed=3)
    records, _ = full_pipeline(bad, frame=frame7)
    assert any(r.verdict == "fail" for r in records)


# ---------------------------------------------------------------------------
# the batched tangent traces against the scalar construction


def scalar_tangent_trace(state, cid):
    """The tangent trace line of one input point, plane by plane."""
    q = state.q
    f = state.base
    axis_set = set(state.axis.points())
    pids = state.planes_through[cid]
    if len(pids) != q + 1:
        raise StructureViolation(f"point {cid} on {len(pids)} planes")
    traces = []
    for pid in pids:
        rows = state.planes.bases[pid].tolist()
        witness = plane_subspace(state, pid).to_text()
        a_i = tuple(state.C[cid][c] for c in state.planes.pivots[pid].tolist())
        form = QuadraticForm(state.plane2, state.planes.forms[pid].tolist())
        tangent_dual = form.polar_dual(a_i)
        inf_dual = tuple(r[4] for r in rows)
        direction = (
            f.sub(f.mul(tangent_dual[1], inf_dual[2]), f.mul(tangent_dual[2], inf_dual[1])),
            f.sub(f.mul(tangent_dual[2], inf_dual[0]), f.mul(tangent_dual[0], inf_dual[2])),
            f.sub(f.mul(tangent_dual[0], inf_dual[1]), f.mul(tangent_dual[1], inf_dual[0])),
        )
        if not any(direction):
            raise TangentDegenerate(
                "tangent line coincides with the trace line", witness=witness)
        pt5 = [0] * 5
        for c, row in zip(direction, rows):
            pt5 = [f.add(x, f.mul(c, y)) for x, y in zip(pt5, row)]
        pt5 = state.space4.normalize(pt5)
        assert pt5[4] == 0  # (t x x4) . x4 = 0, so _tangent_traces does not test it
        traces.append(state.sigma.normalize(pt5[:4]))
    if len(set(traces)) != q + 1:
        raise StructureViolation(
            f"point {cid} has {len(set(traces))} distinct trace points")
    line = span(state.sigma, traces)
    if line.dim != 1:
        raise NotCollinear(
            f"trace points of point {cid} are not collinear",
            witness=";".join(",".join(map(str, p)) for p in traces))
    if any(p in axis_set for p in line.points()):
        raise StructureViolation(f"trace line of point {cid} meets the axis")
    own = state.directions.own(state.sigma.line_point_ids([line.rows]), np.array([[cid]]))
    if own[0, 0] != 1:
        raise StructureViolation(
            f"plane of point {cid} and its trace line carries {own[0, 0]} points")
    return line


TRACE_STAGES = {"axioms", "parallel_classes", "infinity_data", "t_infinity"}


def trace_state(frame, C):
    """A state that has passed every stage before assemble_spread."""
    st = PipelineState(frame, C)
    assert [r.verdict for r in run_stages(st, include=TRACE_STAGES)] == ["pass"] * 4
    return st


@pytest.mark.parametrize("q", [5, 7, 9])
@pytest.mark.parametrize("seed", [0, 5])
def test_tangent_traces_match_scalar_oracle(q, seed):
    frame = make_frame(q)
    st = trace_state(frame, build_C(frame, random_tangent_conic(frame, seed)))
    assert run_stages(st, include={"assemble_spread"})[0].verdict == "pass"
    expected = [scalar_tangent_trace(st, cid).rows for cid in range(q * q)]
    assert [tuple(map(tuple, rows)) for rows in st.spread.lines[:-1].tolist()] == expected
    assert [reconstruct.tangent_trace(st, cid).rows for cid in (0, q * q - 1)] == \
        [expected[0], expected[-1]]


@pytest.mark.parametrize("q,seed", [(7, 0), (9, 2)])
def test_planes_through_lists_each_points_planes(q, seed):
    """axioms reads planes_through off one np.nonzero: for each input point
    the q + 1 planes carrying it, ascending, as a flatnonzero per point
    lists them."""
    frame = make_frame(q)
    st = PipelineState(frame, build_C(frame, random_tangent_conic(frame, seed)))
    assert run_stages(st, include={"axioms"})[0].verdict == "pass"
    expected = tuple(tuple(np.flatnonzero(on).tolist()) for on in st.planes.member_table(q * q).T)
    assert st.planes_through == expected
    assert {len(t) for t in expected} == {q + 1}


def set_planes_through(st, cid, pids):
    through = list(st.planes_through)
    through[cid] = tuple(pids)
    st.planes_through = tuple(through)


def inject_planes(st):
    set_planes_through(st, 3, st.planes_through[3][:-1])


def inject_degenerate(st):
    """The rank-1 form d d^T, d the plane's x4 column: M a is a multiple of
    d at every affine point, so the tangent is the plane's line at infinity."""
    pid = st.planes_through[2][1]
    d = st.planes.bases[pid, :, 4].tolist()
    st.planes.forms[pid] = [[st.base.mul(x, y) for y in d] for x in d]


def inject_repeated(st):
    t = st.planes_through[4]
    set_planes_through(st, 4, (t[0], t[0]) + t[2:])


def inject_not_collinear(st):
    st.planes.forms[st.planes_through[5][0]] = ((1, 1, 0), (1, 0, 1), (0, 1, 1))


def inject_axis(st):
    """The axis replaced by the trace line of point 6."""
    st.axis = Subspace(st.sigma, scalar_tangent_trace(st, 6).rows)


def inject_own_plane(st):
    """The last point moved onto the plane of point 0 and its trace line."""
    line = scalar_tangent_trace(st, 0)
    plane = span(st.space4, [Subspace(st.space4, tuple(r + (0,) for r in line.rows)), st.C[0]])
    new = next(p for p in plane.points() if p[4] and p not in set(st.C))
    st.C = st.C[:-1] + (new,)
    st._C_arr = points_array(st.C)


def inject_own_plane_and_axis(st):
    """Point 0 fails checks 5 and 6; the earlier one is reported."""
    line = scalar_tangent_trace(st, 0)
    inject_own_plane(st)
    st.axis = Subspace(st.sigma, line.rows)


# records captured while assemble_spread still called tangent_trace per point
TRACE_FAILURES = [
    (inject_planes, "StructureViolation: point 3 on 7 planes"),
    (inject_degenerate, "TangentDegenerate: tangent line coincides with the trace line "
                        "[1,0,1,0,1;0,1,2,0,5;0,0,0,1,0]"),
    (inject_repeated, "StructureViolation: point 4 has 7 distinct trace points"),
    (inject_not_collinear, "NotCollinear: trace points of point 1 are not collinear "
                           "[0,1,3,0;1,2,4,3;1,1,2,3;1,3,6,3;1,4,1,3;1,6,5,3;1,5,3,3;1,0,0,3]"),
    (inject_axis, "StructureViolation: trace line of point 6 meets the axis"),
    (inject_own_plane, "StructureViolation: plane of point 0 and its trace line carries 2 points"),
    (inject_own_plane_and_axis, "StructureViolation: trace line of point 0 meets the axis"),
]


def first_scalar_failure(st):
    for cid in range(st.q * st.q):
        try:
            scalar_tangent_trace(st, cid)
        except reconstruct._CATCHABLE as exc:
            return f"{type(exc).__name__}: {exc}" + (f" [{exc.witness}]" if exc.witness else "")
    return None


@pytest.mark.parametrize("inject,witness", TRACE_FAILURES,
                         ids=[i.__name__ for i, _ in TRACE_FAILURES])
def test_tangent_trace_failure_witnesses(frame7, c7, inject, witness):
    st = trace_state(frame7, c7)
    inject(st)
    assert first_scalar_failure(st) == witness
    rec = run_stages(st, include={"assemble_spread"})[0]
    assert (rec.verdict, rec.witness) == ("fail", witness)


# plane a's trace line replaced by plane b's; records captured while the
# plane x trace-line test looped over Python bitmasks
@pytest.mark.parametrize("a,b,witness", [
    (3, 40, "plane 3 vs trace line of point 0: meet=False [1,2,0,0,0;0,0,1,3,0;0,0,0,0,1]"),
    (17, 5, "plane 17 vs trace line of point 0: meet=True [1,0,0,5,5;0,1,0,1,5;0,0,1,3,0]"),
    (50, 51, "plane 50 vs trace line of point 7: meet=False [1,0,0,0,1;0,1,0,2,0;0,0,1,0,0]"),
])
def test_trace_line_meet_witness(frame7, c7, a, b, witness):
    st = trace_state(frame7, c7)
    st.planes.traces[a] = st.planes.traces[b]
    rec = run_stages(st, include={"assemble_spread"})[0]
    assert (rec.verdict, rec.witness) == ("fail", "StructureViolation: " + witness)


# ---------------------------------------------------------------------------
# axioms: the implied arc test and the array count of axiom 3


def dict_axiom3_counts(C, planes):
    """Planes on each affine point off C, by enumerating Subspace.points()."""
    cset = set(C)
    on_count = {}
    for plane in planes:
        for p in plane.points():
            if p[4] != 0 and p not in cset:
                on_count[p] = on_count.get(p, 0) + 1
    return on_count


@pytest.mark.parametrize("seed", [0, 3])
def test_axiom3_counts_match_subspace_points(frame7, seed):
    st = PipelineState(frame7, build_C(frame7, random_tangent_conic(frame7, seed)))
    assert run_stages(st, include={"axioms"})[0].verdict == "pass"
    counts = st.affine_plane_counts
    planes = [plane_subspace(st, p) for p in range(len(st.planes))]
    ids = np.flatnonzero(counts)
    pts = frame7.space4.points_np()[ids]
    assert dict(zip(map(tuple, pts.tolist()), counts[ids].tolist())) == \
        dict_axiom3_counts(st.C, planes)
    assert [frame7.space4.point_ids(np.array(plane.points())).tolist()
            for plane in planes] == st.plane_point_ids.tolist()


def patched_scan_state(monkeypatch, frame, C, planes):
    """A state whose axioms stage finds the given (plane, members) list."""
    monkeypatch.setattr(reconstruct, "_find_planes",
                        lambda state: HeavyPlaneScan(planes, None, None, None))
    return PipelineState(frame, C)


def test_collinear_triple_missed_by_the_scan(frame7, c7, monkeypatch):
    """Point 2 moved onto the line of points 0 and 1, all three in plane 0,
    behind a scan that reports the planes of the unmoved points: the
    direction table sees the triple, so each plane is tested for an arc."""
    planes = scan_heavy_planes(frame7.space4, c7).planes
    st = patched_scan_state(monkeypatch, frame7, c7, planes)
    st.C = c7[:2] + ((0, 1, 1, 0, 1),) + c7[3:]
    st._C_arr = points_array(st.C)
    assert st.directions.T.max() >= 2
    rec = run_stages(st, include={"axioms"})[0]
    assert (rec.verdict, rec.witness) == (
        "fail", "Axiom1Violation: plane points are not an arc [0,1,0,0,0;0,0,1,0,0;0,0,0,0,1]")


# plane dst of the scan replaced by plane src; records captured while
# axiom 3 was counted in a dict over Subspace.points()
@pytest.mark.parametrize("dst,src,witness", [
    (5, 0, "affine point on 3 planes [0,1,0,0,1]"),
    (1, 40, "affine point on 1 planes [0,0,1,0,1]"),
    (30, 31, "affine point on 3 planes [1,1,0,0,4]"),
])
def test_axiom3_witness(frame7, c7, monkeypatch, dst, src, witness):
    planes = list(scan_heavy_planes(frame7.space4, c7).planes)
    planes[dst] = planes[src]
    st = patched_scan_state(monkeypatch, frame7, c7, planes)
    rec = run_stages(st, include={"axioms"})[0]
    assert (rec.verdict, rec.witness) == ("fail", "Axiom3Violation: " + witness)
    first = next((p, k) for p, k in dict_axiom3_counts(c7, [pl for pl, _ in planes]).items()
                 if k != 2)
    assert witness == f"affine point on {first[1]} planes [{','.join(map(str, first[0]))}]"


# ---------------------------------------------------------------------------
# axioms: the C-planes from the line sweep, the pair scan on every failure


@pytest.mark.parametrize("q", [5, 7, 9])
@pytest.mark.parametrize("seed", [0, 5])
def test_swept_planes_match_the_scan(q, seed):
    """The sweep's planes are the scan's: the same RREF bases, member tuples
    and order (seed 0 is the canonical conic)."""
    frame = make_frame(q)
    st = PipelineState(frame, build_C(frame, random_tangent_conic(frame, seed)),
                       exploratory=q < 7)
    swept = reconstruct._swept_planes(st)
    assert swept is not None and len(swept.planes) == q * q + q
    assert swept == scan_heavy_planes(frame.space4, st.C)


def test_q3_planes_are_left_to_the_scan():
    """At q = 3 the C-planes carry three points, fewer than HEAVY, so the
    scan runs and finds no plane through the first pair."""
    frame = make_frame(3)
    st = PipelineState(frame, build_C(frame, random_tangent_conic(frame, 0)), exploratory=True)
    assert reconstruct._swept_planes(st) is None
    rec = run_stages(st, include={"axioms"})[0]
    assert rec.verdict == "warn"
    assert rec.witness.startswith("Axiom2Violation: point pair (0, 1) lies in no plane ")


def test_swept_planes_need_every_pair_covered(frame7, c7, monkeypatch):
    """With the sweep's entries of one plane dropped, every other plane still
    has q members but that plane's pairs lie in none: the sweep leaves the
    input to the scan, which finds every plane and passes it."""
    st = PipelineState(frame7, c7)
    lines, points = st.directions.heavy()
    kept = lines != lines[0]
    monkeypatch.setattr(st.directions, "heavy", lambda: (lines[kept], points[kept]))
    assert reconstruct._swept_planes(st) is None
    assert run_stages(st, include={"axioms"})[0].verdict == "pass"


# the displaced q = 9 dumps of the reconstruct-q9 benchmark workload and
# their axioms witnesses there (perfbench/refs.json).  Seed 1's direction
# table is 0/1, so the sweep runs and leaves the pair conflict to the scan;
# seed 3's has an entry 2 (three collinear points), so the scan runs alone.
@pytest.mark.parametrize("seed,t_max,witness", [
    (1, 1, "point pair (0,1) lies in two planes [1,1,0,0,6;0,0,1,0,0;0,0,0,1,3]"),
    (3, 2, "point pair (0,1) lies in two planes [1,0,0,0,6;0,1,1,0,7;0,0,0,1,7]"),
])
def test_displaced_q9_axioms_witness(tmp_path, capsys, seed, t_max, witness):
    from pgconics.bruckbose import write_c_dump
    frame = make_frame(9)
    C = displace_point(frame, build_C(frame, random_tangent_conic(frame, seed)), seed=seed)
    assert PipelineState(frame, C).directions.T.max() == t_max
    path = tmp_path / "displaced.txt"
    write_c_dump(path, frame, C, seed)
    assert main(["reconstruct", "--q", "9", "--in", str(path), "--threads", "1"]) == 1
    axioms = json.loads(capsys.readouterr().out)["stages"][0]
    assert (axioms["name"], axioms["verdict"]) == ("axioms", "fail")
    assert axioms["witness"] == "Axiom2Violation: " + witness


def test_pass_path_makes_no_scan(frame7, c7, monkeypatch):
    """A canonical q = 7 round trip makes no pair scan and no row grouping.
    It fits its conics in one batch, calling complete_q_arc never and
    conic_through_5 once (rebuild_arc's fit), and builds one regulus per
    Klein plane, all in one batch: q^2 + q = 56 triples, not the 336 of one
    per open pair.
    It packs T once and sweeps the 2850 lines of PG(3,7) once, then the
    axis (t_infinity) and the 50 spread lines (rebuild_arc).  It row-reduces
    219 stacks: 56 swept plane bases (axioms), 56 conic fits, 56 trace
    lines, 49 tangent traces, the span of the Klein residues and one Klein
    section; infinity_data's 364 plane pairs are read off one product with
    the plane duals instead.  A displaced point sends axioms to the scan."""
    from pgconics import conics, projgeom
    calls = collections.Counter()

    def counting(name, fn, weight=lambda *args: 1):
        def counted(*args, **kwargs):
            calls[name] += weight(*args)
            return fn(*args, **kwargs)
        return counted
    for source, names in ((projgeom, ("scan_heavy_planes", "group_rows")),
                          (conics, ("complete_q_arc", "conic_through_5"))):
        for name in names:
            wrapped = counting(name, getattr(source, name))
            for module in (source, reconstruct):
                monkeypatch.setattr(module, name, wrapped)
    stacks = counting("rref_np stacks", projgeom.rref_np, lambda field, stacks: len(stacks))
    for module in (projgeom, conics, reconstruct):
        monkeypatch.setattr(module, "rref_np", stacks)
    monkeypatch.setattr(reconstruct, "_regulus_batch", counting("regulus batches", counting(
        "triples", reconstruct._regulus_batch, lambda f, l1, l2, l3: len(l3))))
    table = reconstruct.DirectionTable
    monkeypatch.setattr(table, "levels", counting(
        "lines swept", table.levels, lambda self, columns: len(columns[0])))
    monkeypatch.setattr(table, "_pack", counting("packs", table._pack))
    records, _ = full_pipeline(c7, frame=frame7)
    assert [r.verdict for r in records] == ["pass"] * len(records)
    assert calls == {"conic_through_5": 1, "regulus batches": 1, "triples": 56,
                     "lines swept": 2850 + 1 + 50, "packs": 1, "rref_np stacks": 219}
    records, _ = full_pipeline(displace_point(frame7, c7, seed=0), frame=frame7)
    assert records[0].verdict == "fail"
    assert calls["scan_heavy_planes"] >= 1


# ---------------------------------------------------------------------------
# uniqueness: the swept line levels against exact plane counts


def uniqueness_oracle(st):
    """uniqueness's verdict, witness and axis_meeting_compatible from exact
    plane counts of every line: a line outside the spread needs a plane
    through it carrying three input points, and an axis-meeting line is
    compatible when no plane through it carries more than two."""
    sigma, spread = st.sigma, st.spread
    rows, ids = line_table(sigma)

    def keys(ids):  # a line is known by its first and last point
        return ids[:, 0] * sigma.npoints + ids[:, -1]
    axis_ids = sigma.line_point_ids(spread.lines[[spread.axis]])
    axis = keys(ids) == keys(axis_ids)[0]
    meeting = np.isin(ids, axis_ids).any(axis=1) & ~axis
    in_spread = np.isin(keys(ids), keys(sigma.line_point_ids(spread.lines)))
    outside = ~(axis | meeting | in_spread)
    n = len(st.C)
    largest = st.directions.own(ids, np.broadcast_to(np.arange(n), (len(ids), n))).max(axis=1)
    bad = np.flatnonzero(outside & (largest < 3))
    if len(bad):
        line = ";".join(",".join(map(str, row)) for row in rows[bad[0]].tolist())
        return ("fail", "UniquenessViolation: a line outside the spread admits no 3-point "
                f"plane [{line}]", None)
    return "pass", None, int((meeting & (largest <= 2)).sum())


def move_point_48(point):
    """Input point 48 moved to point, on the plane through the axis-meeting
    line [1,0,0,0;0,0,1,1] and an input point sharing it with one other."""
    def inject(st):
        st.C = st.C[:48] + (point,) + st.C[49:]
        st._C_arr = points_array(st.C)
    return inject


def perturb_spread(st):
    st.spread = perturb_spread_by_regulus(st.sigma, st.spread)[0]


# (1,1,1,0,3) keeps the direction table 0/1, so the sweep adds one unit
# plane per line point; (1,1,0,6,3) puts three input points on a line, so T
# has an entry 2 (the "int16" cases) and the sweep adds two.  The oracle
# reads every plane with own().  Both give the axis-meeting line a 3-point
# plane.  The perturbed spread leaves former spread lines outside it.
@pytest.mark.parametrize("inject,binary,expected", [
    (lambda st: None, True, ("pass", None, 392)),
    (move_point_48((1, 1, 1, 0, 3)), True, ("pass", None, 230)),
    (move_point_48((1, 1, 0, 6, 3)), False, ("pass", None, 237)),
    (perturb_spread, True, ("fail", "UniquenessViolation: a line outside the spread admits "
                                    "no 3-point plane [1,0,0,0;0,1,0,0]", None)),
    (lambda st: (perturb_spread(st), move_point_48((1, 1, 0, 6, 3))(st)), False,
     ("fail", "UniquenessViolation: a line outside the spread admits "
              "no 3-point plane [1,0,0,1;0,1,3,0]", None)),
], ids=["pass", "moved-bits", "moved-int16", "perturbed-bits", "perturbed-int16"])
def test_uniqueness_levels_match_plane_counts(run7, inject, binary, expected):
    st = copy.copy(run7[1])
    inject(st)
    assert st.directions.binary == binary
    assert uniqueness_oracle(st) == expected
    rec = run_stages(st, include={"uniqueness"})[0]
    assert (rec.verdict, rec.witness, rec.counts.get("axis_meeting_compatible")) == expected


def test_crowded_axis_meeting_line_witness(frame7, c7, monkeypatch):
    """assemble_spread with the level of the axis-meeting line
    [1,0,0,0;0,0,1,1] raised from 1 to 2, a 3-point plane through it, as
    moving input point 48 to (1,1,1,0,3) makes it above: the line is named.
    It leaves the lines of level 0 or 1, which then miss a line meeting the
    axis once, so every line is read."""
    st = trace_state(frame7, c7)
    rows, _ = line_table(st.sigma)
    k = np.flatnonzero((rows == np.array([[1, 0, 0, 0], [0, 0, 1, 1]])).all(axis=(1, 2)))
    levels = st.directions.line_levels().copy()
    assert levels[k].tolist() == [1]
    levels[k] = 2
    index, ids = st.directions.low()
    monkeypatch.setattr(st.directions, "line_levels", lambda: levels)
    monkeypatch.setattr(st.directions, "low", lambda: (index[index != k], ids[index != k]))
    sweeps, line_runs = [], st.sigma.line_runs
    monkeypatch.setattr(st.sigma, "line_runs",
                        lambda *args: sweeps.append(args) or line_runs(*args))
    rec = run_stages(st, include={"assemble_spread"})[0]
    assert (rec.verdict, rec.witness) == (
        "fail", "StructureViolation: plane through an axis-meeting line carries > 2 points "
                "[1,0,0,0;0,0,1,1]")
    assert len(sweeps) == 1


def test_extra_point_axis_meeting_line_witness(frame7, c7, monkeypatch):
    """assemble_spread with one more input point on the planes through the
    axis-meeting line [1,0,0,0;0,0,1,1] and input points 15 and 17, whose
    trace lines it meets: the line and point 15, met first, are named.  Its
    level stays 1, so the lines of level 0 or 1 give every swept line, as
    on the pass path; the crowded witness above reads every line."""
    st = trace_state(frame7, c7)
    target = set(st.sigma.line_point_ids([[[1, 0, 0, 0], [0, 0, 1, 1]]])[0].tolist())
    own = st.directions.own

    def raised(ids, points):
        hit = np.array([set(line) == target for line in ids.tolist()])
        return own(ids, points) + (hit[:, None] & np.isin(points, (15, 17)))
    monkeypatch.setattr(st.directions, "own", raised)

    def every_line(*args):
        raise AssertionError("every line read")
    monkeypatch.setattr(st.sigma, "line_runs", every_line)
    rec = run_stages(st, include={"assemble_spread"})[0]
    assert (rec.verdict, rec.witness) == (
        "fail", "StructureViolation: plane through point 15 and an axis-meeting line "
                "carries extra points [1,0,0,0;0,0,1,1]")


# the spread assembled with, in place of the axis, the line through a point
# of trace line a and one of trace line b; the trace kernel still checks the
# real axis.  Records captured while the overlap test looped over bitmasks
@pytest.mark.parametrize("a,b,witness", [
    (5, 2, "1,0,0,1;0,1,4,0 | 1,0,0,6;0,1,4,0"),
    (30, 12, "1,0,2,6;0,1,0,5 | 1,0,2,0;0,1,0,2"),
    (0, 48, "1,0,0,0;0,1,5,3 | 1,0,0,0;0,1,0,0"),
])
def test_spread_overlap_witness(frame7, c7, monkeypatch, a, b, witness):
    st = trace_state(frame7, c7)
    axis = st.axis
    traces = reconstruct._tangent_traces(st, range(49))
    line = Subspace.from_vectors(st.sigma, [traces[a][0].tolist(), traces[b][1].tolist()])
    original = reconstruct._tangent_traces

    def traces_against_real_axis(state, cids):
        state.axis = axis
        try:
            return original(state, cids)
        finally:
            state.axis = line
    monkeypatch.setattr(reconstruct, "_tangent_traces", traces_against_real_axis)
    st.axis = line
    rec = run_stages(st, include={"assemble_spread"})[0]
    assert (rec.verdict, rec.witness) == ("fail", f"SpreadViolation: spread lines overlap [{witness}]")


# ---------------------------------------------------------------------------
# parallel_classes and infinity_data: witnesses of injected plane states


def append_fresh_points(st, k):
    """Append k affine points off C; plane members may then refer to them."""
    cset = set(st.C)
    st.C += tuple(p for p in st.space4.points() if p[4] and p not in cset)[:k]
    st._C_arr = points_array(st.C)


def inject_class_size(st):
    """Plane 0 takes a point of plane 50, a plane of its own class."""
    st.planes.members[0] = (0, 1, 2, 3, 4, 5, 16)


def inject_not_transitive(st):
    """Plane 51 takes a point of plane 52 in place of one on plane 1, so it
    still meets the leaders 1-7 and misses plane 0, but meets plane 52."""
    st.planes.members[51] = (9, 13, 23, 29, 32, 41, 43)


def inject_two_classes(st):
    """Plane 50 is moved onto fresh points, so it misses every plane; plane
    14 takes point 7 of plane 1, so it leaves the class of plane 1."""
    append_fresh_points(st, 7)
    st.planes.members[50] = range(49, 56)
    st.planes.members[14] = (1, 7, 19, 27, 33, 42, 43)


def inject_cross_share(st):
    """Planes in reverse order, so the class leaders no longer all pass
    through point 0; the last plane trades point 0 for a fresh point and
    then misses the planes of other classes through point 0."""
    st.planes = Planes(bases=st.planes.bases[::-1], members=st.planes.members[::-1])
    append_fresh_points(st, 1)
    st.planes.members[55, 0] = 49


# records captured while parallel_classes compared Python bitmasks of
# PlaneInfo objects
PARALLEL_CLASS_FAILURES = [
    (inject_class_size, "StructureViolation: parallel class of plane 0 has 12 members "
                        "[0,1,0,0,0;0,0,1,0,0;0,0,0,0,1]"),
    (inject_not_transitive, "StructureViolation: parallel relation is not transitive "
                            "[1,0,0,0,4;0,1,0,4,0;0,0,1,0,0]"),
    (inject_two_classes, "StructureViolation: plane in two parallel classes"),
    (inject_cross_share, "StructureViolation: cross-class planes share 0 points "
                         "[1,6,0,0,0;0,0,1,3,0;0,0,0,0,1]"),
]


@pytest.mark.parametrize("inject,witness", PARALLEL_CLASS_FAILURES,
                         ids=[i.__name__ for i, _ in PARALLEL_CLASS_FAILURES])
def test_parallel_class_failure_witnesses(frame7, c7, inject, witness):
    st = PipelineState(frame7, c7)
    assert run_stages(st, include={"axioms"})[0].verdict == "pass"
    inject(st)
    rec = run_stages(st, include={"parallel_classes"})[0]
    assert (rec.verdict, rec.witness) == ("fail", witness)


def classes_state(frame, C):
    """A state that has passed axioms and parallel_classes."""
    st = PipelineState(frame, C)
    assert [r.verdict for r in run_stages(st, include={"axioms", "parallel_classes"})] == \
        ["pass", "pass"]
    return st


# plane pid takes input point m in place of its k-th member; records
# captured while infinity_data read PlaneInfo objects
@pytest.mark.parametrize("pid,k,m,witness", [
    (0, 6, 16, "arc completion failed: three collinear points: ((0, 0, 1), (1, 4, 6), (1, 4, 1)) "
               "[0,1,0,0,0;0,0,1,0,0;0,0,0,0,1]"),
    (20, 3, 1, "arc completion failed: expected 7 distinct points, got 6 "
               "[1,0,6,0,6;0,1,2,0,5;0,0,0,1,0]"),
    (30, 0, 1, "3-space contains foreign points [1,0,2,0,0;0,1,4,0,0;0,0,0,1,0;0,0,0,0,1]"),
    # point 0 is off plane 30 and all its plane coordinates are 0
    (30, 0, 0, "arc completion failed: zero vector is not a projective point "
               "[1,0,2,0,4;0,1,4,0,6;0,0,0,1,0]"),
])
def test_member_swap_witness(frame7, c7, pid, k, m, witness):
    st = classes_state(frame7, c7)
    st.planes.members[pid, k] = m
    rec = run_stages(st, include={"infinity_data"})[0]
    assert (rec.verdict, rec.witness) == ("fail", "StructureViolation: " + witness)


def test_affine_completion_witness(frame7, c7, monkeypatch):
    """The batched fit patched to return each arc's first point, which the
    lift through the plane's basis takes to an affine point."""
    original = reconstruct.complete_q_arcs

    def first_points(space, arcs):
        _, forms, ok = original(space, arcs)
        return normalize_rows_np(space.field, arcs[:, 0])[0], forms, ok
    monkeypatch.setattr(reconstruct, "complete_q_arcs", first_points)
    st = classes_state(frame7, c7)
    rec = run_stages(st, include={"infinity_data"})[0]
    assert (rec.verdict, rec.witness) == (
        "fail", "StructureViolation: completion point is affine [0,0,0,0,1]")


@pytest.mark.parametrize("q", [5, 7, 9, 11])
@pytest.mark.parametrize("seed", [0, 5])
def test_batched_fit_matches_plane_by_plane(q, seed):
    """The batched conic fit gives the completions and forms of
    complete_q_arc plane by plane, lifted through each plane's basis,
    element for element (seed 0 is canonical)."""
    frame = make_frame(q)
    st = PipelineState(frame, build_C(frame, random_tangent_conic(frame, seed)),
                       exploratory=q < 7)
    records = run_stages(st, include={"axioms", "parallel_classes", "infinity_data"})
    assert [r.verdict for r in records] == ["pass"] * 3
    planes = st.planes
    assert planes.completions.dtype == planes.forms.dtype == np.int16
    for p, arc in enumerate(planes.arcs(st._C_arr).tolist()):
        completion, form = complete_q_arc(st.plane2, arc)
        lifted = frame.space4.normalize(reconstruct._from_intrinsic_np(
            st.base, planes.bases[p], np.array(completion)).tolist())
        assert lifted[4] == 0 and list(lifted[:4]) == planes.completions[p].tolist()
        assert tuple(map(tuple, planes.forms[p].tolist())) == form.matrix


def test_off_conic_witness(monkeypatch):
    """rebuild_arc with conic_through_5 patched to add 1 to the yz
    coefficient: the first lifted point off that conic, in the arc's order,
    is named.  Messages captured from the point-by-point evaluation."""
    original = reconstruct.conic_through_5

    def skewed(space, points):
        a, b, c, d, e, g = original(space, points).coefficients()
        return QuadraticForm.from_coefficients(space, (a, b, c, d, e, space.field.add(g, 1)))
    monkeypatch.setattr(reconstruct, "conic_through_5", skewed)
    frame = make_frame(7)
    for seed, point in ((0, "(1, 1, 1)"), (5, "(0, 1, 28)")):
        records, _ = full_pipeline(build_C(frame, random_tangent_conic(frame, seed)), frame=frame)
        assert [(r.name, r.witness) for r in records if r.verdict != "pass"] == [
            ("rebuild_arc", f"NotAnArc: lifted point {point} is off the fitted conic")]


def simple_point_line(st):
    """The line through plane 0's completion point and the first simple
    point whose trace line misses that completion point, as RREF rows."""
    ids = st.sigma.line_point_ids(st.planes.traces)
    on_lines = np.bincount(ids.ravel(), minlength=st.sigma.npoints)
    completion = st.planes.completions[0].tolist()
    through = np.isin(ids, st.sigma.point_ids([completion])).any(axis=1)
    owner = {p: t for t, pts in enumerate(ids.tolist()) for p in pts}
    x = next(p for p in range(st.sigma.npoints) if on_lines[p] == 1 and not through[owner[p]])
    return rref_np(st.base, np.array([[completion, st.sigma.points_np()[x].tolist()]]))[0][0]


# plane 0's trace line counted as another line; records captured while
# infinity_data looped over sigma.points()
@pytest.mark.parametrize("line,witness", [
    # a second completion point on 2q + 1 lines
    (lambda st: st.axis.rows, "completion point on 15 trace lines, expected 14 [0,0,1,3]"),
    (simple_point_line, "point at infinity on 2 trace lines [1,1,0,0]"),
], ids=["axis", "simple-point-line"])
def test_trace_count_witness(frame7, c7, monkeypatch, line, witness):
    """The first point at infinity on the wrong number of trace lines, in
    point id order."""
    st = classes_state(frame7, c7)
    assert [r.verdict for r in run_stages(st, include={"infinity_data", "t_infinity"})] == \
        ["pass", "pass"]
    rows = np.array(line(st), dtype=np.int16)
    original = st.sigma.line_point_ids

    def ids(lines):
        lines = np.array(lines, dtype=np.int16)
        if len(lines) == len(st.planes):
            lines[0] = rows
        return original(lines)
    monkeypatch.setattr(st.sigma, "line_point_ids", ids)
    rec = run_stages(st, include={"infinity_data"})[0]
    assert (rec.verdict, rec.witness) == ("fail", "StructureViolation: " + witness)


def test_axis_plane_witness(frame7, c7):
    """The last input point moved onto the plane through the axis and point
    0; captured while t_infinity built this witness with its own copy of
    the code that rebuild_arc shares with it now."""
    st = classes_state(frame7, c7)
    assert run_stages(st, include={"infinity_data"})[0].verdict == "pass"
    cls = st.classification
    axis = span(st.sigma, sorted(set(cls.completion_points) | set(cls.free_points)))
    plane = span(st.space4, [row + (0,) for row in axis.rows] + [st.C[0]])
    st.C = st.C[:-1] + (next(p for p in plane.points() if p[4] and p not in set(st.C)),)
    st._C_arr = points_array(st.C)
    rec = run_stages(st, include={"t_infinity"})[0]
    assert (rec.verdict, rec.witness) == (
        "fail", "StructureViolation: a plane through the axis carries 2 points "
                "[0,0,1,0,0;0,0,0,1,0;0,0,0,0,1]")
