import itertools
import random

import numpy as np
import pytest

from pgconics.galois import Field, QuadExtension
from pgconics.projgeom import ProjectiveSpace, Subspace, nullspace, rref, span
from pgconics.conics import (CompletionNotUnique, DegenerateInput, NotAnArc,
                             PointNotOnConic, QuadraticForm, classify_vs_conic,
                             complete_q_arc, complete_q_arc_by_secants,
                             complete_q_arcs, conic_through_5, is_arc, tangent_line)


def is_arc_by_directions(space, points):
    """Secant-direction variant of the arc test (per-point duplicate secants)."""
    pts = list(points)
    for i, p in enumerate(pts):
        seen = {}
        for j, x in enumerate(pts):
            if j == i:
                continue
            line = span(space, [p, x]).rows
            if line in seen:
                return False, (p, pts[seen[line]], x)
            seen[line] = j
    return True, None


def tangent_counts(form):
    """Map point -> number of tangent lines of the conic through it."""
    f = form.space.field
    counts = {p: 0 for p in form.space.points()}
    for dual in form.tangent_duals():
        for p in Subspace(form.space, nullspace(f, [dual])).points():
            counts[p] += 1
    return counts


def plane_over(q):
    return ProjectiveSpace(2, Field(q) if q != 9 else Field(3, 2))


def canonical_points(space):
    f = space.field
    return [space.normalize((t, f.mul(t, t), 1)) for t in range(f.q)] + [(0, 1, 0)]


@pytest.fixture(scope="module")
def pg2_7():
    return plane_over(7)


@pytest.fixture(scope="module")
def canon7(pg2_7):
    pts = canonical_points(pg2_7)
    return conic_through_5(pg2_7, pts[:5]), pts


def random_conic(space, rng):
    """Seed-derived nondegenerate form, via a brute-force rejection loop."""
    f = space.field
    while True:
        coeffs = tuple(rng.randrange(f.q) for _ in range(6))
        if not any(coeffs):
            continue
        form = QuadraticForm.from_coefficients(space, coeffs)
        if form.is_nondegenerate():
            return form


def test_conic_through_5_canonical(canon7, pg2_7):
    form, pts = canon7
    # x^2 - yz, normalized: coefficients (1, 0, 0, 0, 0, -1)
    assert form.coefficients() == (1, 0, 0, 0, 0, pg2_7.field.neg(1))
    assert sorted(form.points()) == sorted(pts)


def test_conic_through_5_degenerate(pg2_7):
    with pytest.raises(DegenerateInput):
        conic_through_5(pg2_7, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)])


@pytest.mark.parametrize("q", [7, 9])
def test_conic_fit_roundtrip(q):
    space = plane_over(q)
    rng = random.Random(q * 100)
    for _ in range(10):
        form = random_conic(space, rng)
        pts = form.points()
        assert len(pts) == q + 1
        recovered = conic_through_5(space, pts[:5])
        assert recovered == form


def test_tangent_lines_canonical(canon7, pg2_7):
    form, _ = canon7
    t = tangent_line(form, (0, 0, 1))
    assert t.rows == ((1, 0, 0), (0, 0, 1))  # the line y = 0
    t = tangent_line(form, (0, 1, 0))
    assert t.rows == ((1, 0, 0), (0, 1, 0))  # the line z = 0
    for p in form.points():
        tl = tangent_line(form, p)
        assert sum(1 for x in tl.points() if form.evaluate(x) == 0) == 1
    duals = {pg2_7.normalize(d) for d in form.tangent_duals()}
    assert len(duals) == 8
    assert form.evaluate((1, 1, 0)) != 0
    with pytest.raises(PointNotOnConic):
        tangent_line(form, (1, 1, 0))


@pytest.mark.parametrize("q", [7, 9, 11])
def test_every_nondegenerate_form_is_an_oval(q):
    space = plane_over(q)
    rng = random.Random(q)
    for _ in range(15):
        form = random_conic(space, rng)
        pts = form.points()
        assert len(pts) == q + 1
        ok, _ = is_arc(space, pts)
        assert ok


def test_all_nondegenerate_forms_have_q_plus_1_points_q7(pg2_7):
    """Exhaustive q=7: every nondegenerate symmetric form vanishes on 8 points."""
    f = pg2_7.field
    pts = pg2_7.points()
    mono = np.array([[f.mul(x, x), f.mul(y, y), f.mul(z, z),
                      f.mul(x, y), f.mul(x, z), f.mul(y, z)]
                     for (x, y, z) in pts], dtype=np.int16)
    add, mul = f.add_np, f.mul_np
    half = f.inv(2)
    count_nondeg = 0
    for lead in range(6):
        for rest in itertools.product(range(7), repeat=5 - lead):
            coeffs = (0,) * lead + (1,) + rest
            a, b, c, d, e, ff = coeffs
            m = ((a, f.mul(half, d), f.mul(half, e)),
                 (f.mul(half, d), b, f.mul(half, ff)),
                 (f.mul(half, e), f.mul(half, ff), c))
            det = f.sub(
                f.add(f.mul(m[0][0], f.sub(f.mul(m[1][1], m[2][2]), f.mul(m[1][2], m[2][1]))),
                      f.mul(m[0][2], f.sub(f.mul(m[1][0], m[2][1]), f.mul(m[1][1], m[2][0])))),
                f.mul(m[0][1], f.sub(f.mul(m[1][0], m[2][2]), f.mul(m[1][2], m[2][0]))))
            if det == 0:
                continue
            count_nondeg += 1
            acc = np.zeros(len(pts), dtype=np.int16)
            for j, cj in enumerate(coeffs):
                if cj:
                    acc = add[acc, mul[cj, mono[:, j]]]
            assert int((acc == 0).sum()) == 8
    assert count_nondeg > 0


def test_is_arc(canon7, pg2_7):
    form, pts = canon7
    assert is_arc(pg2_7, pts)[0]
    ok, witness = is_arc(pg2_7, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert not ok and witness is not None


def test_arc_implementations_agree(pg2_7):
    rng = random.Random(4242)
    cases = [canonical_points(pg2_7)]
    for _ in range(30):
        cases.append([pg2_7.normalize((rng.randrange(1, 7), rng.randrange(7),
                                       rng.randrange(7))) for _ in range(6)])
    for pts in cases:
        pts = list(dict.fromkeys(pts))
        if len(pts) < 3:
            continue
        assert is_arc(pg2_7, pts)[0] == is_arc_by_directions(pg2_7, pts)[0]


@pytest.mark.parametrize("q", [7, 9, 11])
def test_completion_reinserts_dropped_point(q):
    space = plane_over(q)
    pts = canonical_points(space)
    for drop in range(q + 1):
        arc = [p for i, p in enumerate(pts) if i != drop]
        comp, form = complete_q_arc(space, arc)
        assert comp == space.normalize(pts[drop])
        assert len(form.points()) == q + 1


@pytest.mark.parametrize("q", [7, 9])
def test_completion_dual_oracle_small(q):
    space = plane_over(q)
    rng = random.Random(q * 7)
    for _ in range(10):
        form = random_conic(space, rng)
        pts = form.points()
        drop = rng.randrange(len(pts))
        arc = [p for i, p in enumerate(pts) if i != drop]
        comp, _ = complete_q_arc(space, arc)
        assert comp == complete_q_arc_by_secants(space, arc)
        assert comp == pts[drop]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
def test_batched_completion_matches_complete_q_arc(q):
    """complete_q_arcs on all arcs in one batch, against complete_q_arc arc
    by arc: ok and the same completion and matrix where it passes, not ok
    where it raises.  The arcs are q points of random conics, degenerate
    ones included, or of the plane, rescaled, some with a repeated point or
    a zero vector."""
    space = plane_over(q)
    f, rng = space.field, random.Random(q)
    # q - 1 points of x^2 = yz, then a zero row
    arcs = [[p for p in canonical_points(space) if p != (1, 1, 1)][:-1] + [(0, 0, 0)]]
    for t in range(120):
        on = QuadraticForm.from_coefficients(space, [rng.randrange(q) for _ in range(6)]).points()
        arc = rng.sample(on if len(on) >= q and t % 4 < 2 else space.points(), q)
        if t % 8 == 1:
            arc[-1] = arc[0]
        arc = [tuple(f.mul(c, x) for x in p) for p, c in zip(arc, rng.choices(range(1, q), k=q))]
        if t % 13 == 0:
            arc[2] = (0, 0, 0)
        arcs.append(arc)
    comps, forms, ok = complete_q_arcs(space, np.array(arcs, dtype=np.int16))
    passed = 0
    for i, arc in enumerate(arcs):
        try:
            comp, form = complete_q_arc(space, arc)
        except (NotAnArc, CompletionNotUnique, DegenerateInput):
            assert not ok[i]
            continue
        assert ok[i]
        assert tuple(comps[i].tolist()) == comp
        assert tuple(map(tuple, forms[i].tolist())) == form.matrix
        passed += 1
    assert passed >= (0 if q == 3 else 20)


def test_completion_rejects_non_arcs(pg2_7):
    with pytest.raises(NotAnArc):
        complete_q_arc(pg2_7, [(1, 0, 0), (0, 1, 0), (1, 1, 0),
                               (0, 0, 1), (1, 1, 1), (1, 2, 1), (1, 3, 1)])


# Witnesses captured while complete_q_arc still ran the full arc test before
# fitting: the fit-first order must name the same first collinear triple.
@pytest.mark.parametrize("q,arc,triple", [
    # collinear triple inside the first five points
    (7, [(0, 0, 1), (1, 1, 1), (2, 0, 1), (1, 0, 1), (4, 2, 1), (5, 4, 1), (6, 1, 1)],
     ((0, 0, 1), (1, 0, 4), (1, 0, 1))),
    # first five on x^2 = yz, the triple closed by the last two points
    (7, [(0, 0, 1), (1, 1, 1), (2, 4, 1), (3, 2, 1), (4, 2, 1), (1, 0, 1), (2, 0, 1)],
     ((0, 0, 1), (1, 0, 1), (1, 0, 4))),
    # only the last point is off the conic
    (7, [(0, 0, 1), (1, 1, 1), (2, 4, 1), (3, 2, 1), (4, 2, 1), (5, 4, 1), (1, 6, 1)],
     ((1, 2, 4), (1, 3, 5), (1, 6, 1))),
    # fewer than five points: the fit cannot run at all
    (3, [(0, 0, 1), (1, 0, 1), (2, 0, 1)], ((0, 0, 1), (1, 0, 1), (1, 0, 2))),
])
def test_completion_non_arc_witness(q, arc, triple):
    with pytest.raises(NotAnArc) as info:
        complete_q_arc(plane_over(q), arc)
    assert type(info.value) is NotAnArc
    assert str(info.value) == f"three collinear points: {triple}"
    assert info.value.witness == triple


def test_completion_of_a_small_arc_is_degenerate():
    with pytest.raises(DegenerateInput, match="need exactly 5 points, got 3"):
        complete_q_arc(plane_over(3), [(0, 0, 1), (1, 0, 1), (0, 1, 1)])


def test_completion_runs_the_arc_test_only_on_failure(pg2_7, monkeypatch):
    """On an arc, the one arc test is conic_through_5's own, on five points."""
    from pgconics import conics
    sizes = []
    original = conics.is_arc

    def counted(space, points):
        sizes.append(len(points))
        return original(space, points)
    monkeypatch.setattr(conics, "is_arc", counted)
    complete_q_arc(pg2_7, canonical_points(pg2_7)[:7])
    assert sizes == [5]


def test_completion_not_unique_on_undersized_arc(pg2_7):
    # every 7-arc of PG(2,7) lies on a conic, so the fitting path cannot see
    # an ambiguous completion; the secant filter can, on an undersized arc
    # (a 6-point subarc leaves both dropped conic points secant-free)
    pts = canonical_points(pg2_7)
    with pytest.raises(CompletionNotUnique):
        complete_q_arc_by_secants(pg2_7, pts[:6])


def test_classification_distribution(canon7, pg2_7):
    form, _ = canon7
    counts = {"on": 0, "exterior": 0, "interior": 0}
    for p in pg2_7.points():
        counts[classify_vs_conic(form, p)] += 1
    assert counts == {"on": 8, "exterior": 28, "interior": 21}


@pytest.mark.parametrize("q", [7, 9, 11])
def test_tangent_partition(q):
    space = plane_over(q)
    form = conic_through_5(space, canonical_points(space)[:5])
    counts = tangent_counts(form)
    on = sum(1 for p, k in counts.items() if form.evaluate(p) == 0)
    assert on == q + 1
    for p, k in counts.items():
        if form.evaluate(p) == 0:
            assert k == 1
        else:
            assert k in (0, 2)
    dist = {0: 0, 1: 0, 2: 0}
    for k in counts.values():
        dist[k] += 1
    assert dist == {1: q + 1, 2: q * (q + 1) // 2, 0: q * (q - 1) // 2}


def test_secant_line_bound(pg2_7, canon7):
    form, pts = canon7
    for a, b in itertools.combinations(pts, 2):
        line = span(pg2_7, [a, b])
        assert sum(1 for p in line.points() if form.evaluate(p) == 0) == 2


# ---------------------------------------------------------------------------
# the array evaluation of QuadraticForm.points() against scalar evaluate


def symmetric(f, rng):
    a = [[rng.randrange(f.q) for _ in range(3)] for _ in range(3)]
    return [[a[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]


def outer(f, u, v):
    """u v^T + v u^T: a symmetric form of rank <= 2 (rank 1 when u = v, up to 2)."""
    return [[f.add(f.mul(u[i], v[j]), f.mul(v[i], u[j])) for j in range(3)]
            for i in range(3)]


def forms_over(f, rng):
    """Random symmetric forms, the canonical conic and degenerate forms of
    rank 1 (a repeated line) and rank 2 (a line pair)."""
    one = f.inv(f.add(1, 1))  # 1/2, so that outer(u, u)/2 = u u^T
    u, v = (1, 2 % f.q, f.q - 1), (0, 1, 1)
    rank1 = [[f.mul(one, x) for x in row] for row in outer(f, u, u)]
    forms = [symmetric(f, rng) for _ in range(4)]
    forms += [((1, 0, 0), (0, 0, f.neg(one)), (0, f.neg(one), 0)), rank1, outer(f, u, v),
              ((1, 0, 0), (0, 1, 0), (0, 0, 0)), ((0, 0, 0), (0, 0, 0), (0, 0, 0))]
    return forms


@pytest.mark.parametrize("field", [
    Field(3), Field(5), Field(7), Field(3, 2), Field(5, 2),
    QuadExtension(Field(3)).ext, QuadExtension(Field(5)).ext,
    QuadExtension(Field(7)).ext, QuadExtension(Field(3, 2)).ext,
], ids=lambda f: f.token)
def test_points_match_scalar_evaluate(field):
    space = ProjectiveSpace(2, field)
    rng = random.Random(field.q)
    forms = forms_over(field, rng)
    for m in forms:
        form = QuadraticForm(space, m)
        expected = [p for p in space.points() if form.evaluate(p) == 0]
        assert form.points() == expected
    assert {1, 2} <= {len(rref(field, m)[0]) for m in forms}
