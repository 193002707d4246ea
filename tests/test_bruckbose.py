import dataclasses
import hashlib
import itertools
import random

import numpy as np
import pytest

from pgconics.galois import Field, QuadExtension
from pgconics.projgeom import Subspace, span
from pgconics.conics import classify_vs_conic, is_arc
from pgconics.bruckbose import (BruckBoseFrame, LemmaViolation, Spread, _tangent_counts,
                                baer_subplane_through, build_frame,
                                canonical_tangent_conic, random_tangent_conic,
                                verify_lemma1, write_c_dump)
from pgconics import reconstruct
from pgconics.reconstruct import (CheckViolation, PipelineState, make_frame, regulus_from,
                                  stage_axioms)


def test_frame_counts(frame7, frame_lines):
    assert len(frame7.spread.lines) == 50
    assert frame7.sigma.npoints == 400
    # disjoint cover: 50 lines x 8 points
    seen = set()
    for line in frame_lines(frame7):
        pts = line.points()
        assert len(pts) == 8
        assert not (seen & set(pts))
        seen.update(pts)
    assert len(seen) == 400


@pytest.mark.parametrize("q", [7, 9, 11])
def test_frame_spread_rows(q):
    """frame.spread row for row against the per-slope loop that once built
    it: row m is the line {(x, x m)} of slope m, spanned by the images of
    x = 1 and x = w, and the axis x = 0 is row q^2.  The array is read-only,
    and linf_point reads each line's point of l_inf off its rows."""
    frame = make_frame(q)
    ext, E = frame.ext, frame.ext.ext
    expected = [((1, 0) + ext.decompose(m), (0, 1) + ext.decompose(E.mul(ext.omega, m)))
                for m in range(E.q)] + [((0, 0, 1, 0), (0, 0, 0, 1))]
    spread = frame.spread
    assert type(spread) is Spread and reconstruct.Spread is Spread
    assert spread.lines.dtype == np.int16
    assert [tuple(map(tuple, rows)) for rows in spread.lines.tolist()] == expected
    assert spread.axis == q * q
    assert not spread.lines.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        spread.lines[0, 0, 0] = 0
    assert [frame.linf_point(rows) for rows in expected] == \
        [(1, m, 0) for m in range(q * q)] + [(0, 1, 0)]


def test_make_frame_is_shared_and_read_only():
    """make_frame keeps one frame per field, keyed by the resolved modulus:
    the default of GF(9) is x^2 + 1, given or not, reduced mod 3 or not.
    Every caller shares it, so its field tables and point lists cannot be
    written to."""
    frame = make_frame(9)
    assert frame.base.modulus == (1, 0, 1)
    assert make_frame(9, (1, 0, 1)) is frame and make_frame(9, [4, 3, 1]) is frame
    assert make_frame(9, (2, 1, 1)) is not frame
    for field in (frame.base, frame.ext.ext):
        for name in ("add_np", "sub_np", "mul_np", "neg_np", "inv_np", "digits_np", "rep_np"):
            table = getattr(field, name)
            assert not table.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1
    for space in (frame.plane2, frame.sigma):
        assert type(space.points()) is tuple and space.points() is space.points()


def test_point_correspondence_roundtrip(frame7):
    E = frame7.ext.ext
    for x in range(0, 49, 5):
        for y in range(49):
            pt = frame7.plane.normalize((x, y, 1))
            down = tuple(frame7.points_down([pt])[0].tolist())
            assert down[4] != 0
            assert frame7.point_up(down) == pt
    with pytest.raises(ValueError):
        frame7.points_down([(1, 0, 0)])
    with pytest.raises(ValueError):
        frame7.point_up((1, 0, 0, 0, 0))


def test_collinear_triples_map_to_coplanar_triples(frame7):
    rng = random.Random(13)
    E = frame7.ext.ext
    for _ in range(1000):
        x, y = rng.randrange(49), rng.randrange(49)
        m = rng.randrange(49)
        # two more points on the affine line through (x, y) with slope m
        t1, t2 = rng.randrange(1, 49), rng.randrange(1, 49)
        a = (x, y, 1)
        b = (E.add(x, t1), E.add(y, E.mul(t1, m)), 1)
        c = (E.add(x, t2), E.add(y, E.mul(t2, m)), 1)
        downs = set(map(tuple, frame7.points_down([a, b, c]).tolist()))
        line = [row + [0] for row in frame7.spread.lines[m].tolist()]
        plane = span(frame7.space4, line + sorted(downs))
        assert plane.dim == 2


def test_classical_spread_is_regular_all_triples(frame7):
    """The regulus through each of the 19,600 triples of the q = 7 spread, in
    one batch: every triple is skew and every regulus line is a spread line."""
    f, lines = frame7.base, frame7.spread.lines
    triples = np.array(list(itertools.combinations(range(len(lines)), 3)))
    assert len(triples) == 19600
    batch = reconstruct._regulus_batch(f, *(lines[triples[:, k]] for k in range(3)))
    assert not batch.failed.any()
    assert np.isin(batch.keys, reconstruct._line_key_np(f, lines)).all()


@pytest.mark.parametrize("q", [9, 11])
def test_classical_spread_regular_sampled(q, frame_lines):
    frame = build_frame(QuadExtension(Field(q) if q == 11 else Field(3, 2)))
    lines = frame_lines(frame)
    rows = {l.rows for l in lines}
    rng = random.Random(q)
    for _ in range(500):
        triple = rng.sample(lines, 3)
        reg = regulus_from(frame.sigma, *triple)
        assert all(l.rows in rows for l in reg.lines)


def test_canonical_conic(frame7, conic7):
    assert len(conic7.points) == 50
    assert len(conic7.affine_points) == 49
    assert conic7.p_inf == (0, 1, 0)
    on_linf = [p for p in conic7.points if p[2] == 0]
    assert on_linf == [(0, 1, 0)]


def test_random_conic_properties(frame7):
    assert random_tangent_conic(frame7, 0).form.matrix == \
        canonical_tangent_conic(frame7).form.matrix
    for seed in range(1, 21):
        conic = random_tangent_conic(frame7, seed)
        assert len([p for p in conic.points if p[2] == 0]) == 1
        assert len(conic.affine_points) == 49
        again = random_tangent_conic(frame7, seed)
        assert again.form.matrix == conic.form.matrix


# Captured while random_tangent_conic still enumerated the canonical conic
# before transforming it: (matrix, p_inf, sha256 prefixes of repr(points)
# and repr(affine_points)).
CONIC_PINS = {
    (7, 0): (((1, 0, 0), (0, 0, 3), (0, 3, 0)), (0, 1, 0), "989a9eebb538aab3", "cb0807495fa3e756"),
    (7, 1): (((21, 46, 19), (46, 44, 0), (19, 0, 3)), (1, 37, 0), "46418832d924088c", "8a623db06ebb1f35"),
    (7, 2): (((5, 11, 47), (11, 22, 34), (47, 34, 44)), (1, 20, 0), "2d4d80072f5df1b9", "76213859eabeb5c2"),
    (7, 3): (((29, 13, 16), (13, 35, 32), (16, 32, 22)), (1, 11, 0), "3e76abce93f91e54", "cd0cd3a1ab4f0b19"),
    (7, 4): (((39, 32, 26), (32, 7, 8), (26, 8, 14)), (1, 10, 0), "ee7a986384cc06ad", "bdd8616512abad11"),
    (7, 5): (((4, 28, 5), (28, 5, 33), (5, 33, 38)), (1, 14, 0), "757efaee0416e8ab", "3cbc465930d520c8"),
    (9, 0): (((1, 0, 0), (0, 0, 1), (0, 1, 0)), (0, 1, 0), "58fbba8f4a2af27e", "8774c1fe0ca4358f"),
    (9, 1): (((74, 79, 19), (79, 40, 66), (19, 66, 73)), (1, 42, 0), "a35a511655b85dcd", "ecaf21d215dfbe4a"),
    (9, 2): (((10, 26, 56), (26, 40, 36), (56, 36, 1)), (1, 45, 0), "8dbff79d63f13010", "957756cfec698097"),
    (9, 3): (((66, 58, 37), (58, 57, 46), (37, 46, 5)), (1, 19, 0), "2a6a0c77ca0df717", "d17d4a68bfa183be"),
    (9, 4): (((33, 47, 69), (47, 44, 6), (69, 6, 79)), (1, 27, 0), "b1b34a0145a1968c", "b753a1f419c89f36"),
    (9, 5): (((68, 51, 50), (51, 6, 36), (50, 36, 63)), (1, 38, 0), "f7797a9b3f27fadd", "005f7c23f9ee9f0d"),
}


@pytest.mark.parametrize("q", [7, 9])
def test_random_conic_pins(q, frame7, frame9):
    frame = frame7 if q == 7 else frame9

    def digest(x):
        return hashlib.sha256(repr(x).encode()).hexdigest()[:16]
    for seed in range(6):
        conic = random_tangent_conic(frame, seed)
        assert (conic.form.matrix, conic.p_inf, digest(conic.points),
                digest(conic.affine_points)) == CONIC_PINS[q, seed]
        assert len(conic.points) == q * q + 1


def test_build_c(frame7, conic7, c7):
    assert len(c7) == 49
    assert (0, 0, 0, 0, 1) in c7       # the t = 0 conic point (0, 0)
    assert all(p[4] != 0 for p in c7)


def test_planes_through_spread_lines_meet_c_in_at_most_two(frame7, c7):
    # exhaustive: group the 49 points by the plane they span with each
    # classical spread line
    from pgconics.projgeom import points_array, reduce_rows_np, normalize_rows_np, group_rows
    arr = points_array(c7)
    for m, rows in enumerate(frame7.spread.lines.tolist()):
        basis = tuple(tuple(r) + (0,) for r in rows)
        res = reduce_rows_np(frame7.base, basis, arr)
        norm, zero = normalize_rows_np(frame7.base, res)
        assert not zero.any()
        _, _, counts = group_rows(norm)
        limit = 1 if m == frame7.spread.axis else 2
        assert counts.max() <= limit


class ClosureOverflow(RuntimeError):
    """Quadrangle closure exceeded the subplane size bound."""


def cross(f, u, v):
    """The cross product of two vectors of F^3: the line through two points,
    or the meet of two lines."""
    return (
        f.sub(f.mul(u[1], v[2]), f.mul(u[2], v[1])),
        f.sub(f.mul(u[2], v[0]), f.mul(u[0], v[2])),
        f.sub(f.mul(u[0], v[1]), f.mul(u[1], v[0])),
    )


def baer_closure(space, quadrangle, cap=None):
    """Secant-intersection closure of a quadrangle of PG(2,q^2): the oracle
    of baer_subplane_through.

    Repeatedly adds intersection points of secants of the current set until
    stable.  For prime q the closure of any quadrangle is the unique Baer
    subplane through it (q^2 + q + 1 points); the cap guards termination.
    """
    f = space.field
    pts = {space.normalize(p) for p in quadrangle}
    if len(pts) != 4:
        raise ValueError("need four distinct points")
    ok, witness = is_arc(space, sorted(pts))
    if not ok:
        raise ValueError(f"three collinear points: {witness}")
    q2 = f.q
    if cap is None:
        root = int(round(q2 ** 0.5))
        cap = q2 + root + 1
    while True:
        duals = {space.normalize(cross(f, p, r))
                 for p, r in itertools.combinations(sorted(pts), 2)}
        duals = sorted(duals)
        new = set()
        for u, v in itertools.combinations(duals, 2):
            x = cross(f, u, v)
            if any(x):
                new.add(space.normalize(x))
        if new <= pts:
            return frozenset(pts)
        pts |= new
        if len(pts) > cap:
            raise ClosureOverflow(f"closure reached {len(pts)} > {cap} points")


def test_baer_closure_subfield_quadrangle(frame7):
    quad = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    closure = baer_closure(frame7.plane, quad)
    assert len(closure) == 57
    # the canonical subfield subplane: all coordinates in the embedded GF(7)
    canonical = {p for p in frame7.plane.points() if all(x < 7 for x in p)}
    assert closure == canonical
    assert baer_subplane_through(frame7, quad) == closure


def test_baer_closure_random_quadrangles(frame7):
    rng = random.Random(99)
    plane = frame7.plane
    done = 0
    while done < 50:
        pts = [plane.normalize((rng.randrange(49), rng.randrange(49), 1))
               for _ in range(3)] + [plane.normalize((1, rng.randrange(49), 0))]
        if len(set(pts)) != 4 or not is_arc(plane, pts)[0]:
            continue
        closure = baer_closure(plane, pts)
        assert len(closure) == 57
        assert closure == baer_subplane_through(frame7, pts)
        done += 1


def test_baer_closure_contains_diagonal_points(frame7):
    quad = [frame7.plane.normalize(p)
            for p in [(1, 3, 1), (1, 12, 5), (8, 1, 0), (0, 1, 0)]]
    if not is_arc(frame7.plane, quad)[0]:
        pytest.skip("chosen quadrangle degenerate")
    closure = baer_closure(frame7.plane, quad)
    f = frame7.ext.ext
    a, b, c, d = quad
    for (p, q), (r, s) in [((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))]:
        diag = frame7.plane.normalize(cross(f, cross(f, p, q), cross(f, r, s)))
        assert diag in closure


def test_secant_closure_stalls_on_prime_subplane_when_q_not_prime(frame9):
    # over GF(81) the standard frame generates the GF(3) subplane (13 points),
    # strictly inside the Baer subplane of order 9 (91 points)
    quad = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    closure = baer_closure(frame9.plane, quad)
    assert len(closure) == 13
    sub = baer_subplane_through(frame9, quad)
    assert len(sub) == 91
    assert closure < sub


def test_lemma1_report(frame7, conic7):
    rep = verify_lemma1(frame7, conic7)
    assert rep.plane_count == 56
    assert rep.arc_checks == 56
    assert rep.interior_count == 1176     # q^2 (q^2 - 1) / 2
    assert rep.exterior_count == 1176
    assert rep.spot_checks == 10
    # the tabulated exterior points each list exactly two planes
    assert len(rep.exterior_plane_pairs) == 1176
    assert all(len(v) == 2 for v in rep.exterior_plane_pairs.values())


def test_lemma1_negative_control(frame7, conic7, c7):
    from pgconics.reconstruct import displace_point

    class FakeConic:
        pass

    bad = displace_point(frame7, c7, seed=5)
    # feed the corrupted points through the same scan the verifier uses
    fake = FakeConic()
    fake.points = conic7.points
    fake.affine_points = tuple(
        sorted(frame7.point_up(p) for p in bad))
    fake.form = conic7.form
    fake.p_inf = conic7.p_inf
    with pytest.raises(LemmaViolation) as info:
        verify_lemma1(frame7, fake)
    # the violation is the one the reconstruction's axioms stage reports
    with pytest.raises(CheckViolation) as expected:
        stage_axioms(PipelineState(frame7, bad))
    assert (str(info.value), info.value.witness) == (str(expected.value), expected.value.witness)
    assert str(info.value) == "point pair (0,3) lies in two planes"
    assert info.value.witness == "0,1,0,0,0;0,0,1,0,0;0,0,0,0,1"


# sha256 of repr(list(exterior_plane_pairs.items())), captured while
# verify_lemma1 classified each point with classify_vs_conic
@pytest.mark.parametrize("seed,digest", [(0, "16f4fc022d78d5a7"), (3, "f3824107cedacfe8")])
def test_lemma1_exterior_plane_pairs_q7(frame7, seed, digest):
    rep = verify_lemma1(frame7, random_tangent_conic(frame7, seed))
    text = repr(list(rep.exterior_plane_pairs.items()))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("seed", [0, 3])
def test_tangent_counts_match_classify_vs_conic(frame7, seed):
    conic = random_tangent_conic(frame7, seed)
    pts = frame7.affine_plane_points()
    hits = _tangent_counts(frame7, conic.form, pts)
    classes = ("interior", "on", "exterior")
    assert [classes[h] for h in hits] == \
        [classify_vs_conic(conic.form, p) for p in map(tuple, pts.tolist())]


def test_c_dump_roundtrip(tmp_path, frame7, c7):
    from pgconics.cli import parse_c_dump
    path = tmp_path / "c.txt"
    write_c_dump(path, frame7, c7, seed=0)
    header, points = parse_c_dump(path)
    assert header["q"] == "7"
    assert header["poly"] == "0,1"
    assert header["seed"] == "0"
    assert points == c7


# ---------------------------------------------------------------------------
# the frame's own checks, on spreads and conversions broken on purpose


def frame_with_spread(monkeypatch, edit):
    """A GF(7) frame whose spread lines are edit(frame), an array of line
    bases (n, 2, 4), in place of the classical ones."""
    original = BruckBoseFrame._build_spread

    def build(self):
        original(self)
        self.spread = dataclasses.replace(self.spread, lines=edit(self))
    monkeypatch.setattr(BruckBoseFrame, "_build_spread", build)
    return build_frame(QuadExtension(Field(7)))


def meeting_line(frame):
    """Spread line 5 replaced by a line through points of lines 5 and 6."""
    l5, l6 = (Subspace(frame.sigma, tuple(map(tuple, frame.spread.lines[i].tolist())))
              for i in (5, 6))
    lines = frame.spread.lines.copy()
    lines[5] = span(frame.sigma, [l5.points()[0], l6.points()[2]]).rows
    return lines


# messages captured while the checks ran on Python bitmasks and scalar
# point_down/point_up round trips
@pytest.mark.parametrize("edit,message", [
    (lambda fr: np.concatenate((fr.spread.lines[:-1], fr.spread.lines[[3]])),
     "spread lines are not pairwise skew"),
    (meeting_line, "spread lines are not pairwise skew"),
    (lambda fr: fr.spread.lines[:-1], "spread does not cover the hyperplane at infinity"),
], ids=["duplicated", "meeting", "dropped"])
def test_frame_rejects_broken_spreads(monkeypatch, edit, message):
    with pytest.raises(AssertionError) as info:
        frame_with_spread(monkeypatch, edit)
    assert type(info.value) is AssertionError and str(info.value) == message


def test_frame_names_the_first_failed_round_trip(monkeypatch):
    """The frame checks compose(decompose(z)) = z over the codes of GF(q^2).
    Corrupting compose at the codes 40 and 5 of GF(49) names 5: it comes
    first in code order."""
    original = QuadExtension.compose

    def corrupt(self, x0, x1):
        z = original(self, x0, x1)
        return np.where(np.isin(z, (5, 40)), (z + 1) % self.ext.q, z)
    monkeypatch.setattr(QuadExtension, "compose", corrupt)
    with pytest.raises(AssertionError) as info:
        build_frame(QuadExtension(Field(7)))
    assert str(info.value) == "compose/decompose round trip failed at 5"


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11])
def test_every_affine_point_survives_down_and_up(q):
    """points_up(points_down(P)) = P for all q^4 affine points P of
    PG(2,q^2): the round trip that the frame's element check implies."""
    frame = make_frame(q)
    pts = frame.affine_plane_points()
    assert len(pts) == q ** 4
    assert np.array_equal(frame.points_up(frame.points_down(pts)), pts)


@pytest.mark.parametrize("q", [7, 9])
def test_array_conversions_match_scalar(q, frame7, frame9):
    """points_down and points_up agree with the coordinate definition, and
    point_up is the one-row case of points_up."""
    frame = frame7 if q == 7 else frame9
    E = frame.ext.ext
    pts = frame.affine_plane_points()
    assert pts.tolist() == [list(frame.plane.normalize((x, y, 1)))
                            for x in range(E.q) for y in range(E.q)]
    downs = frame.points_down(pts)
    rng = random.Random(q)
    for i in rng.sample(range(len(pts)), 200):
        x, y, z = pts[i].tolist()
        a, b = E.mul(x, E.inv(z)), E.mul(y, E.inv(z))
        expected = frame.space4.normalize(frame.ext.decompose(a) + frame.ext.decompose(b) + (1,))
        assert tuple(downs[i].tolist()) == expected
        assert frame.point_up(expected) == tuple(pts[i].tolist())
