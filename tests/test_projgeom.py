import itertools
import random

import numpy as np
import pytest

from pgconics.galois import Field, QuadExtension
from pgconics.projgeom import (AmbientMismatch, ProjectiveSpace, Subspace,
                               gaussian_binomial, matmul_np, matrix_inverse, mat_mul, meet,
                               nullspace, rref, rref_np, scan_heavy_planes, span)
from pgconics.reconstruct import DirectionTable


@pytest.fixture(scope="module")
def pg4(gf7):
    return ProjectiveSpace(4, gf7)


@pytest.fixture(scope="module")
def pg3(gf7):
    return ProjectiveSpace(3, gf7)


def test_point_counts(pg4, gf9):
    assert pg4.npoints == 2801
    assert len(pg4.points()) == 2801
    assert len(set(pg4.points())) == 2801
    assert ProjectiveSpace(3, gf9).npoints == 820


@pytest.mark.parametrize("q,n,d", [
    (7, 2, 0), (7, 2, 1), (7, 3, 0), (7, 3, 1), (7, 3, 2),
    (9, 2, 0), (9, 2, 1), (9, 3, 1),
])
def test_subspace_counts_match_gaussian_binomial(q, n, d):
    field = Field(q) if q != 9 else Field(3, 2)
    space = ProjectiveSpace(n, field)
    subs = list(space.subspaces(d))
    assert len(subs) == gaussian_binomial(n + 1, d + 1, q)
    assert len({s.rows for s in subs}) == len(subs)


def reference_subspaces(space, d):
    """The RREF bases of subspaces(d) as a scalar loop: pivot patterns in
    lexicographic order, then the free entries (row, column) right of each
    row's pivot and off the pivots, in itertools.product order."""
    w, q = space.n + 1, space.field.q
    for pivots in itertools.combinations(range(w), d + 1):
        slots = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, w) if c not in pivots]
        for values in itertools.product(range(q), repeat=len(slots)):
            rows = [[int(c == p) for c in range(w)] for p in pivots]
            for (i, c), v in zip(slots, values):
                rows[i][c] = v
            yield tuple(map(tuple, rows))


@pytest.mark.parametrize("q,n", [(3, 2), (4, 3), (5, 3), (3, 4), (9, 3)])
def test_subspaces_match_the_pivot_pattern_enumeration(q, n):
    """subspaces(d), decoded by subspace_rows a chunk at a time, in the order
    of the scalar loop; PG(3,9) has 7,462 lines, more than one chunk."""
    space = ProjectiveSpace(n, field_of(q))
    for d in range(n + 1):
        assert [s.rows for s in space.subspaces(d)] == list(reference_subspaces(space, d)), d
    assert list(space.subspaces(-1)) == list(space.subspaces(n + 1)) == []


def test_lines_of_pg37_count(pg3):
    assert sum(1 for _ in pg3.lines()) == 2850


def test_planes_through_fixed_line(pg4):
    line = span(pg4, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    planes = set()
    for p in pg4.points():
        if not line.contains(p):
            planes.add(span(pg4, [line, p]).rows)
    assert len(planes) == 57  # q^2 + q + 1


def test_span_examples(pg4):
    pt = (1, 2, 3, 4, 5)
    single = span(pg4, [pt])
    assert single.dim == 0
    assert single.contains(pg4.normalize(pt))
    plane = span(pg4, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)])
    assert plane.dim == 2
    other = span(pg4, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 0)])
    assert meet(plane, other).dim == 1
    assert span(pg4, [plane, other]).dim == 3


def test_meet_examples(pg4, pg3):
    plane = span(pg4, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)])
    assert meet(plane, plane) == plane
    l1 = span(pg3, [(1, 0, 0, 0), (0, 1, 0, 0)])
    l2 = span(pg3, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert meet(l1, l2) is None
    # an affine plane meets the hyperplane at infinity in a line, an affine line in a point
    h = pg4.hyperplane(4)
    assert meet(span(pg4, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)]), h).dim == 1
    assert meet(span(pg4, [(1, 0, 0, 0, 0), (0, 0, 0, 0, 1)]), h).dim == 0


def test_modular_law_random_pairs(pg4):
    rng = random.Random(20240817)
    checked = 0
    while checked < 10_000:
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        v1 = [tuple(rng.randrange(7) for _ in range(5)) for _ in range(d1 + 1)]
        v2 = [tuple(rng.randrange(7) for _ in range(5)) for _ in range(d2 + 1)]
        try:
            a = Subspace.from_vectors(pg4, v1)
            b = Subspace.from_vectors(pg4, v2)
        except ValueError:
            continue
        m = meet(a, b)
        s = span(pg4, [a, b])
        assert a.dim + b.dim == s.dim + (m.dim if m else -1)
        checked += 1


def test_canonicalization_idempotent():
    field = Field(3)
    space = ProjectiveSpace(3, field)
    for d in (0, 1, 2):
        for s in space.subspaces(d):
            red, _ = rref(field, s.rows)
            assert red == s.rows


def test_subspace_point_enumeration(pg4):
    plane = span(pg4, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)])
    pts = plane.points()
    assert len(pts) == 57
    assert len(set(pts)) == 57
    assert all(plane.contains(p) for p in pts)


def reference_points(subspace):
    """Subspace.points() as a scalar loop: for each lead row, the lead row
    plus every combination of the later rows, coefficients in
    itertools.product order, each sum normalized."""
    space, rows = subspace.space, subspace.rows
    f, k = space.field, len(rows)
    out = []
    for lead in range(k):
        for rest in itertools.product(range(f.q), repeat=k - lead - 1):
            v = list(rows[lead])
            for j, c in enumerate(rest):
                if c:
                    v = [f.add(x, f.mul(c, y)) for x, y in zip(v, rows[lead + 1 + j])]
            out.append(space.normalize(v))
    return out


@pytest.mark.parametrize("field", [Field(3), Field(2, 2), Field(7), Field(3, 2)],
                         ids=["q3", "q4", "q7", "q9"])
def test_subspace_points_match_the_scalar_loop(field):
    """Every subspace of dimension 0-3 of PG(3,q) lists the same points, in
    the same order, as the scalar loop."""
    space = ProjectiveSpace(3, field)
    for d in range(4):
        for s in space.subspaces(d):
            assert s.points() == reference_points(s), s


def test_subspace_points_of_non_rref_bases():
    """Random bases of rank 1-4 in PG(4,7), not in RREF: the same list as the
    scalar loop, and the point set of the subspace they span."""
    f = Field(7)
    space = ProjectiveSpace(4, f)
    rng = random.Random(5)
    for k in (1, 2, 3, 4):
        for _ in range(25):
            while True:
                rows = tuple(tuple(rng.randrange(7) for _ in range(5)) for _ in range(k))
                if len(rref(f, rows)[0]) == k:
                    break
            s = Subspace(space, rows)
            pts = s.points()
            assert pts == reference_points(s)
            assert set(pts) == set(Subspace.from_vectors(space, rows).points())
            assert len(pts) == (7 ** k - 1) // 6


def test_ambient_mismatch(pg4, pg3):
    l3 = span(pg3, [(1, 0, 0, 0), (0, 1, 0, 0)])
    l4 = span(pg4, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    with pytest.raises(AmbientMismatch):
        meet(l3, l4)
    with pytest.raises(AmbientMismatch):
        span(pg4, [l3])


def test_matrix_inverse(gf7):
    m = ((1, 2, 3, 0), (0, 1, 4, 2), (5, 0, 1, 1), (3, 3, 0, 2))
    inv = matrix_inverse(gf7, m)
    ident = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    assert mat_mul(gf7, m, inv) == ident
    singular = ((1, 2, 3, 0), (0, 1, 4, 2), (5, 0, 1, 1), (3, 3, 0, 1))
    assert matrix_inverse(gf7, singular) is None


def test_nullspace_orthogonality(gf7):
    rows = ((1, 2, 3, 4, 5), (0, 1, 0, 2, 0))
    for v in nullspace(gf7, rows):
        for r in rows:
            assert gf7.dot(r, v) == 0


def field_of(q):
    return {4: Field(2, 2), 8: Field(2, 3), 9: Field(3, 2)}.get(q) or Field(q)


def line_table(space):
    """The ids of every line, in subspaces(1) order: (n_lines, q+1)."""
    count = gaussian_binomial(space.n + 1, 2, space.field.q)
    return space.line_point_ids(space.subspace_rows(1, np.arange(count)))


def line_point_ids_by_column(space, rows):
    """line_point_ids as one point_ids call per point of the lines: the
    reference for its one gather."""
    f = space.field
    rows = np.asarray(rows, dtype=np.int16)
    ids = np.empty((len(rows), f.q + 1), dtype=np.int64)
    add, r0q, r1 = f.add_np.ravel(), rows[:, 0].astype(np.intp) * f.q, rows[:, 1]
    for c in range(f.q):  # the points r0 + c r1, then r1
        ids[:, c] = space.point_ids(np.take(add, r0q + np.take(f.mul_np[c], r1)))
    ids[:, f.q] = space.point_ids(r1)
    return ids


def test_line_table_incidence():
    space = ProjectiveSpace(2, Field(3))
    ids = line_table(space)
    rows = space.subspace_rows(1, np.arange(len(ids)))
    assert rows.shape == (13, 2, 3) and ids.shape == (13, 4)
    lines = [Subspace(space, tuple(map(tuple, r))) for r in rows.tolist()]
    for pid, p in enumerate(space.points()):
        incident = [sid for sid in range(len(ids)) if pid in ids[sid]]
        assert len(incident) == 4  # q + 1 lines through a point
        for sid in incident:
            assert lines[sid].contains(p)


@pytest.mark.parametrize("q,n", [(3, 2), (5, 3), (7, 3), (9, 3), (3, 4),
                                 (3, 3), (4, 3), (8, 3)])
def test_line_table_matches_subspace_enumeration(q, n):
    """The line blocks, side by side, list the points of subspaces(1), row
    for row, and subspace_rows decodes every position to that line's basis."""
    space = ProjectiveSpace(n, field_of(q))
    ids = line_table(space)
    index = {p: i for i, p in enumerate(space.points())}
    lines = list(space.subspaces(1))
    assert len(lines) == len(ids) == gaussian_binomial(n + 1, 2, q)
    assert ids.dtype == np.intp
    rows = space.subspace_rows(1, np.arange(len(lines)))
    assert rows.tolist() == [list(map(list, line.rows)) for line in lines]
    for line, i in zip(lines, ids.tolist()):
        assert i == [index[p] for p in line.points()]
    assert space.point_ids(space.points()).tolist() == list(range(space.npoints))


@pytest.mark.parametrize("q,n", [(3, 3), (4, 3), (5, 3), (7, 3), (8, 3), (9, 3),
                                 (3, 4), (4, 4), (5, 4)])
def test_line_blocks_partition_the_lines(q, n):
    """The lines, decoded a block of at most q^3 positions at a time, are
    the line table's rows and put every pair of points on exactly one line;
    subspace_rows decodes any order of positions."""
    space = ProjectiveSpace(n, field_of(q))
    ids, count = line_table(space), gaussian_binomial(n + 1, 2, q)
    for lo in range(0, count, q ** 3):
        block = space.line_point_ids(space.subspace_rows(1, np.arange(lo, min(lo + q ** 3, count))))
        assert np.array_equal(block, ids[lo:lo + q ** 3])
    i, j = np.triu_indices(q + 1, 1)
    low, high = np.minimum(ids[:, i], ids[:, j]), np.maximum(ids[:, i], ids[:, j])
    pairs = np.unique(low * space.npoints + high)
    assert len(pairs) == count * len(i) == space.npoints * (space.npoints - 1) // 2
    order = np.random.default_rng(q).permutation(count)
    assert np.array_equal(space.subspace_rows(1, order), space.subspace_rows(1, np.arange(count))[order])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_line_runs_match_the_line_table(q):
    """The sweep's runs follow each other, hold q+1 columns of at most size
    lines each, and list the line table's ids of every line of PG(3,q), at
    run sizes that split the rows (a, b) of the pivot-(0, 1) lines anywhere
    (1, 7), at q^3 and at the sweep's own cap."""
    space = ProjectiveSpace(3, field_of(q))
    ids = line_table(space)
    for size in (1, 7, q ** 3, DirectionTable.LINES):
        lo, runs = 0, []
        for start, columns in space.line_runs(size):
            k = len(columns[0])
            assert start == lo and len(columns) == q + 1 and 0 < k <= size
            assert all(col.shape == (k,) for col in columns)
            runs.append(np.stack(columns, axis=1))
            lo += k
        assert np.array_equal(np.concatenate(runs), ids), size
    with pytest.raises(ValueError):
        next(ProjectiveSpace(2, field_of(q)).line_runs(7))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_line_point_ids_one_gather_matches_per_column_loop(q):
    """On 200 random lines of PG(3,q), as scalar rref makes their bases."""
    space = ProjectiveSpace(3, field_of(q))
    rng = random.Random(q)
    rows = []
    while len(rows) < 200:
        red, _ = rref(space.field, [[rng.randrange(q) for _ in range(4)] for _ in range(2)])
        if len(red) == 2:
            rows.append(red)
    assert np.array_equal(space.line_point_ids(rows), line_point_ids_by_column(space, rows))


@pytest.mark.parametrize("q", [3, 5, 7, 9])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_points_array_matches_enumeration(q, n):
    """points_np() and points() against the leading-coordinate enumeration."""
    space = ProjectiveSpace(n, Field(q) if q != 9 else Field(3, 2))
    expected = [(0,) * lead + (1,) + rest for lead in range(n + 1)
                for rest in itertools.product(range(q), repeat=n - lead)]
    arr = space.points_np()
    assert arr.dtype == np.int16 and not arr.flags.writeable
    assert arr.tolist() == [list(p) for p in expected]
    assert space.points() == tuple(expected)
    assert space.point_ids(arr).tolist() == list(range(space.npoints))


def test_scan_heavy_planes_finds_planted_plane(pg4, gf7):
    plane = span(pg4, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)])
    # six points of the plane with no three collinear: a conic-style graph
    pts = [pg4.normalize((1, t, 0, 0, gf7.mul(t, t))) for t in range(6)]
    assert all(plane.contains(p) for p in pts)
    # pad with points off the plane
    pts += [(1, 1, 1, 0, 1), (1, 2, 0, 1, 1)]
    scan = scan_heavy_planes(pg4, pts)
    assert scan.collinear_triple is None
    found = [(pl, mem) for pl, mem in scan.planes if len(mem) >= 5]
    assert len(found) == 1
    assert found[0][0].rows == plane.rows
    assert found[0][1] == (0, 1, 2, 3, 4, 5)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_rref_np_matches_rref(p, k):
    """Rows, pivots and rank of every stack equal the scalar rref's, with
    zero rows, repeated rows and rank-deficient stacks among them."""
    f = Field(p, k)
    rng = np.random.default_rng(p * 10 + k)
    for r, w in [(6, 5), (4, 4), (2, 4), (3, 5), (5, 3), (1, 5)]:
        stacks = rng.integers(0, f.q, size=(120, r, w)).astype(np.int16)
        stacks[0::4, r // 2] = 0                      # a zero row
        stacks[1::4, -1] = stacks[1::4, 0]            # a repeated row
        stacks[2::4, :, 0] = 0                        # a zero column
        # rank at most 1: multiples of one row
        stacks[3::4] = f.mul_np[rng.integers(0, f.q, size=(30, r, 1)), stacks[3::4, :1]]
        reduced, ranks = rref_np(f, stacks)
        assert reduced.shape == stacks.shape
        for stack, red, rank in zip(stacks.tolist(), reduced, ranks.tolist()):
            rows, pivots = rref(f, stack)
            assert rank == len(rows)
            assert tuple(map(tuple, red[:rank].tolist())) == rows
            assert tuple((red[:rank] != 0).argmax(axis=1).tolist()) == pivots
            assert not red[rank:].any()


@pytest.mark.parametrize("build", [
    lambda: Field(3), lambda: Field(2, 2), lambda: Field(2, 3), lambda: Field(3, 2),
    lambda: Field(11), lambda: Field(5, 2), lambda: Field(3, 3),
    lambda: QuadExtension(Field(3)).ext, lambda: QuadExtension(Field(2, 2)).ext,
    lambda: QuadExtension(Field(3, 2)).ext, lambda: QuadExtension(Field(11)).ext,
    lambda: QuadExtension(Field(31)).ext,
], ids=["GF3", "GF4", "GF8", "GF9", "GF11", "GF25", "GF27",
        "GF3^2", "GF4^2", "GF9^2", "GF11^2", "GF31^2"])
def test_matmul_np_matches_scalar_dot(build):
    """matmul_np is the field's a @ b: every entry equals scalar Field.dot of
    a row of a and a column of b, with batch axes broadcast from either
    side, and an empty batch gives an empty product."""
    f = build()
    rng = np.random.default_rng(f.q)
    for a_shape, b_shape in [((2, 1, 3, 4), (3, 4, 5)), ((3, 4), (2, 4, 2)),
                             ((4, 1, 6), (2, 1, 6, 1)), ((0, 2, 3), (3, 4))]:
        a = rng.integers(0, f.q, size=a_shape).astype(np.int16)
        b = rng.integers(0, f.q, size=b_shape).astype(np.int16)
        a[..., 0, :] = f.q - 1  # the largest digits, for the bound on the sums
        out = matmul_np(f, a, b)
        batch = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
        assert out.dtype == np.int16 and out.shape == batch + (a_shape[-2], b_shape[-1])
        a, b = np.broadcast_to(a, batch + a_shape[-2:]), np.broadcast_to(b, batch + b_shape[-2:])
        for idx in np.ndindex(out.shape):
            row, col = a[idx[:-1]].tolist(), b[idx[:-2] + (slice(None), idx[-1])].tolist()
            assert out[idx] == f.dot(row, col)


def test_rref_np_edge_cases(gf7):
    reduced, ranks = rref_np(gf7, np.zeros((0, 6, 5), dtype=np.int16))
    assert reduced.shape == (0, 6, 5) and ranks.shape == (0,)
    reduced, ranks = rref_np(gf7, np.zeros((3, 2, 4), dtype=np.int16))
    assert not reduced.any() and ranks.tolist() == [0, 0, 0]
    stacks = np.array([[[0, 2, 4], [0, 3, 6]]], dtype=np.int16)
    stacks_copy = stacks.copy()
    reduced, ranks = rref_np(gf7, stacks)
    assert reduced.tolist() == [[[0, 1, 2], [0, 0, 0]]] and ranks.tolist() == [1]
    assert (stacks == stacks_copy).all()  # the input is not modified


def test_rref_np_blocks(gf7, monkeypatch):
    from pgconics import projgeom
    stacks = np.random.default_rng(3).integers(0, 7, size=(50, 6, 5)).astype(np.int16)
    whole = rref_np(gf7, stacks)
    monkeypatch.setattr(projgeom, "RREF_BLOCK", 7)
    blocked = rref_np(gf7, stacks)
    assert (whole[0] == blocked[0]).all() and (whole[1] == blocked[1]).all()
