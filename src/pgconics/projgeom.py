"""Points, subspaces, incidence and enumeration for PG(n,q), n <= 5.

Points are normalized homogeneous tuples (first nonzero coordinate 1).
Subspaces carry a reduced-row-echelon basis over the field, so equality and
hashing are structural.  Enumeration is deterministic: pivot-column patterns
in lexicographic order, free entries in ascending code order.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np


class AmbientMismatch(ValueError):
    """Operands live in different ambient projective spaces."""


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of an n-dimensional GF(q) vector space."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# ---------------------------------------------------------------------------
# row reduction over a table-driven field


def rref(field, rows):
    """Reduced row echelon form; returns (rows_tuple, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return (), ()
    w = len(m[0])
    pivots = []
    r = 0
    for c in range(w):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        if inv != 1:
            m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                mi, mr = m[i], m[r]
                m[i] = [field.sub(mi[j], field.mul(f, mr[j])) for j in range(w)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def nullspace(field, rows):
    """Canonical basis of {x : rows . x = 0}, as RREF rows."""
    red, pivots = rref(field, rows)
    w = len(rows[0])
    free = [c for c in range(w) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * w
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = field.neg(red[i][f])
        basis.append(v)
    red2, _ = rref(field, basis) if basis else ((), ())
    return red2


def matrix_inverse(field, rows):
    """Inverse of a square matrix over the field, or None if singular."""
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(field, aug)
    if pivots != tuple(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def mat_mul(field, a, b):
    bt = list(zip(*b))
    return tuple(tuple(field.dot(ra, cb) for cb in bt) for ra in a)


# ---------------------------------------------------------------------------


class ProjectiveSpace:
    """PG(n, field); point list and point-id index are built lazily."""

    def __init__(self, n, field):
        self.n = n
        self.field = field
        self._points = None
        self._points_np = None
        self._line_tables = None

    @property
    def npoints(self):
        q = self.field.q
        return (q ** (self.n + 1) - 1) // (q - 1)

    def normalize(self, vec):
        """Canonical representative: first nonzero coordinate scaled to 1."""
        for i, x in enumerate(vec):
            if x:
                if x == 1:
                    return tuple(vec)
                inv, mul = self.field.inv(x), self.field.mul
                return tuple(vec[:i]) + (1,) + tuple(mul(inv, y) for y in vec[i + 1:])
        raise ValueError("zero vector is not a projective point")

    def points(self):
        """Every point as a tuple, in points_np() order, in one shared tuple."""
        if self._points is None:
            self._points = tuple(map(tuple, self.points_np().tolist()))
        return self._points

    def points_np(self):
        """Every point as a read-only int16 array (npoints, n+1), built once.

        Points with leading coordinate l come before those leading later; the
        coordinates after the leading 1 run in base-q order, last fastest.
        """
        if self._points_np is None:
            q, w = self.field.q, self.n + 1
            blocks = []
            for lead in range(w):
                tail = w - 1 - lead
                block = np.zeros((q ** tail, w), dtype=np.int16)
                block[:, lead] = 1
                tails = np.indices((q,) * tail, dtype=np.int16)
                block[:, lead + 1:] = tails.reshape(tail, q ** tail).T
                blocks.append(block)
            arr = np.concatenate(blocks)
            arr.flags.writeable = False
            self._points_np = arr
        return self._points_np

    def point_ids(self, arr):
        """Ids of the normalized points in the rows of arr, as an int64 array.

        The points with leading coordinate l come after the q^n + ... +
        q^(n-l+1) points that lead earlier, in base-q order.
        """
        arr = np.asarray(arr)
        place = self.field.q ** np.arange(self.n, -1, -1)
        lead = (arr != 0).argmax(axis=1)
        start = np.concatenate(([0], np.cumsum(place[:-1])))
        ids = start[lead] - place[lead]
        for j in range(self.n + 1):  # column by column: no int64 copy of arr
            ids += arr[:, j] * place[j]
        return ids

    def line_point_ids(self, rows):
        """Point ids of lines given by RREF bases, shape (k, 2, n+1) -> (k, q+1).

        Each row lists its line's points in Subspace.points() order: r0 + c r1
        for c < q, then r1, each normalized, as it leads with a pivot 1.
        """
        rows = np.asarray(rows, dtype=np.int16)
        pts = line_points_np(self.field, rows[:, 0], rows[:, 1])
        return self.point_ids(pts.reshape(-1, self.n + 1)).reshape(len(rows), -1)

    def line_runs(self, size):
        """The point ids of every line of PG(3,q), size lines at a time, in
        subspaces(1) order: (start, columns), where columns[t] (k,) holds
        point t, in Subspace.points() order, of lines start .. start + k - 1.

        The q^4 lines with pivots (0, 1) come first, those with r0 = (1, 0,
        a, b) and r1 = (0, 1, c, d) at position ((a q + b) q + c) q + d.
        Their point t < q, r0 + t r1, has the id U[t, a, c] + V[t, b, d]
        (point_ids), U = t q^2 + q (a + t c) and V = b + t d, and their
        point q, r1, the id q^3 + c q + d.  So a run's column t is one
        broadcast add over the rows (a, b) it meets, cut to the run.  The
        ids of the other lines are held, as int32 (q+1, lines).  Both are
        built on the first call and kept with the space.
        """
        if self.n != 3:
            raise ValueError("line runs are of PG(3,q)")
        q, head = self.field.q, self.field.q ** 4
        if self._line_tables is None:
            f, t, x, y = self.field, *np.ix_(*[range(q)] * 3)
            V = f.add_np[x, f.mul_np[t, y]].astype(np.intp)
            U = t * q * q + q * V
            rest = np.arange(head, gaussian_binomial(4, 2, q))
            held = np.ascontiguousarray(
                self.line_point_ids(self.subspace_rows(1, rest)).T, dtype=np.int32)
            for table in (U, V, held):
                table.flags.writeable = False
            self._line_tables = U, V, held
        U, V, held = self._line_tables
        for lo in range(0, head, size):
            hi = min(lo + size, head)
            a, b = np.divmod(np.arange(lo // (q * q), -(-hi // (q * q))), q)  # the rows met
            cut = slice(lo % (q * q), lo % (q * q) + hi - lo)
            u, v = U[:, a, :, None], V[:, b, None, :]
            yield lo, [(u[t] + v[t]).reshape(-1)[cut] for t in range(q)] + \
                [q ** 3 + np.arange(lo, hi) % (q * q)]
        for lo in range(0, held.shape[1], size):
            yield head + lo, list(held[:, lo:lo + size])

    def subspace_rows(self, d, index):
        """The RREF bases (m, d+1, n+1) int16 of the d-dimensional subspaces
        at the given positions of subspaces(d), without decoding the others."""
        q, k, lo = self.field.q, d + 1, 0
        index = np.asarray(index, dtype=np.int64)
        rows = np.zeros((len(index), k, self.n + 1), dtype=np.int16)
        for pivots, slots in self._patterns(k):
            at = np.flatnonzero((index >= lo) & (index < lo + q ** len(slots)))
            local = index[at] - lo
            rows[at[:, None], np.arange(k), pivots] = 1
            for i, col in reversed(slots):  # the last slot runs fastest
                local, rows[at, i, col] = np.divmod(local, q)
            lo += q ** len(slots)
        return rows

    def _patterns(self, k):
        """(pivots, free slots) of the k-row RREF bases, in subspaces() order:
        the slots (row, column) right of the row's pivot and off the pivots."""
        w = self.n + 1
        for pivots in itertools.combinations(range(w), k):
            yield pivots, [(i, c) for i, p in enumerate(pivots)
                           for c in range(p + 1, w) if c not in pivots]

    def subspaces(self, d):
        """All d-dimensional projective subspaces, each exactly once.

        Deterministic order: pivot patterns lexicographically, then free
        entries in ascending code order, the last fastest.
        """
        if 0 <= d <= self.n:
            count = gaussian_binomial(self.n + 1, d + 1, self.field.q)
            for lo in range(0, count, 4096):  # decoded a chunk at a time
                for rows in self.subspace_rows(d, np.arange(lo, min(lo + 4096, count))).tolist():
                    yield Subspace(self, tuple(map(tuple, rows)))

    def lines(self):
        return self.subspaces(1)

    def hyperplane(self, coord):
        """The coordinate hyperplane {x_coord = 0}."""
        rows = [tuple(1 if j == c else 0 for j in range(self.n + 1))
                for c in range(self.n + 1) if c != coord]
        return Subspace(self, tuple(rows))

    def __eq__(self, other):
        return (isinstance(other, ProjectiveSpace) and self.n == other.n
                and self.field == other.field)

    def __hash__(self):
        return hash((self.n, self.field))

    def __repr__(self):
        return f"PG({self.n},{self.field.q})"


class Subspace:
    """Projective subspace given by its canonical RREF basis rows."""

    __slots__ = ("space", "rows")

    def __init__(self, space, rows):
        self.space = space
        self.rows = rows

    @classmethod
    def from_vectors(cls, space, vectors):
        red, _ = rref(space.field, vectors)
        if not red:
            raise ValueError("no nonzero vectors given")
        return cls(space, red)

    @property
    def dim(self):
        return len(self.rows) - 1

    # perfbench/tracer.py wraps this by name; the package does not call it.
    def contains(self, pt):
        f = self.space.field
        v = list(pt)
        for row in self.rows:
            c = next(i for i, x in enumerate(row) if x)
            if v[c]:
                coef = v[c]
                v = [f.sub(v[j], f.mul(coef, row[j])) for j in range(len(v))]
        return not any(v)

    def points(self):
        """All points of the subspace ((q^(d+1)-1)/(q-1) of them), normalized.

        Point i is the i-th point of PG(d,q), read as coefficients of the
        basis rows: those leading with row l come before those leading later,
        the later coefficients in base-q order, last fastest.
        """
        f = self.space.field
        coeffs = ProjectiveSpace(self.dim, f).points_np()
        pts = matmul_np(f, coeffs, np.array(self.rows, dtype=np.int16))
        return list(map(tuple, normalize_rows_np(f, pts)[0].tolist()))

    def dual(self):
        """RREF basis of the annihilator {u : u . x = 0 for x in subspace}."""
        return nullspace(self.space.field, self.rows)

    def meet(self, other):
        if self.space != other.space:
            raise AmbientMismatch(f"{self.space} vs {other.space}")
        stacked = list(self.dual()) + list(other.dual())
        sol = nullspace(self.space.field, stacked)
        if not sol:
            return None
        return Subspace(self.space, sol)

    def to_text(self):
        return ";".join(",".join(str(x) for x in row) for row in self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.space == other.space
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.space.n, self.rows))

    def __lt__(self, other):
        return self.rows < other.rows

    def __repr__(self):
        return f"Subspace[{self.space}]({self.to_text()})"


def span(space, parts):
    """Smallest subspace containing the given points and/or subspaces."""
    if not parts:
        raise ValueError("span of nothing")
    vectors = []
    for part in parts:
        if isinstance(part, Subspace):
            if part.space != space:
                raise AmbientMismatch(f"{part.space} vs {space}")
            vectors.extend(part.rows)
        else:
            if len(part) != space.n + 1:
                raise AmbientMismatch(f"point {part} not in {space}")
            vectors.append(tuple(part))
    return Subspace.from_vectors(space, vectors)


def meet(a, b):
    """Intersection of two subspaces; None when empty."""
    return a.meet(b)


# ---------------------------------------------------------------------------
# vectorized helpers for the enumeration-heavy pipeline


def points_array(pts):
    return np.array(pts, dtype=np.int16)


def matmul_np(field, a, b):
    """The field's a @ b for int16 code arrays a (..., m, L) and b (..., L, n),
    batch axes broadcasting as in np.matmul.

    Each code of a becomes its k base-p digits and each code y of b the
    k x k matrix of x -> xy on digits (field.rep_np), so the product is one
    int32 matmul of (..., m, L*k) by (..., L*k, n*k), reduced mod p and read
    back as codes.  Exact while L*k*(p-1)^2 < 2^31; numpy's integer matmul
    runs no float and no BLAS.
    """
    k, p = field.k, field.p
    da = np.take(field.digits_np, a, axis=0).reshape(*a.shape[:-1], a.shape[-1] * k)
    # rep_np[y].T is stored contiguous: row s holds the digits of y p^s
    rb = np.take(field.rep_np.swapaxes(1, 2), b, axis=0).swapaxes(-3, -2)
    out = da @ rb.reshape(*b.shape[:-2], b.shape[-2] * k, b.shape[-1] * k)
    digits = (out - out // p * p).reshape(*out.shape[:-1], b.shape[-1], k)  # out mod p
    codes = digits[..., 0]
    for i in range(1, k):
        codes = codes + digits[..., i] * p ** i
    return codes.astype(np.int16)


def line_points_np(field, x, y):
    """The points x + c y (c = 0..q-1), then y, of the lines <x, y>: (..., q+1, n)."""
    c = np.arange(field.q)[:, None]
    pts = field.add_np[x[..., None, :], field.mul_np[c, y[..., None, :]]]
    return np.concatenate((pts, y[..., None, :]), axis=-2)


def reduce_rows_np(field, basis_rows, arr):
    """Eliminate the RREF basis rows from every row of arr (residues mod span)."""
    out = arr
    for row in basis_rows:
        c = next(i for i, x in enumerate(row) if x)
        coef = out[:, c]
        out = field.sub_np[out, field.mul_np[coef[:, None],
                                             np.asarray(row, dtype=np.int16)[None, :]]]
    return out


RREF_BLOCK = 4096  # stacks reduced at a time, bounding the working memory


def rref_np(field, stacks):
    """Reduced row echelon form of every matrix in an int16 array (k, r, w).

    Returns (reduced, ranks): reduced[i, :ranks[i]] are the rows rref gives
    for stacks[i], and its remaining rows are zero.  Columns are eliminated
    one at a time for all stacks at once, RREF_BLOCK stacks per pass.
    """
    out = np.array(stacks, dtype=np.int16)
    ranks = np.zeros(len(out), dtype=np.int64)
    for lo in range(0, len(out), RREF_BLOCK):
        m, rank = out[lo:lo + RREF_BLOCK], ranks[lo:lo + RREF_BLOCK]  # views
        height = np.arange(m.shape[1])
        for c in range(m.shape[2]):
            candidates = (m[:, :, c] != 0) & (height >= rank[:, None])
            sel = np.flatnonzero(candidates.any(axis=1))
            if not len(sel):
                continue
            r, pr = rank[sel], candidates[sel].argmax(axis=1)
            pivot = m[sel, pr]
            m[sel, pr] = m[sel, r]
            pivot = field.mul_np[field.inv_np[pivot[:, c]][:, None], pivot]
            coef = m[sel, :, c]
            coef[np.arange(len(sel)), r] = 0
            m[sel] = field.sub_np[m[sel], field.mul_np[coef[:, :, None], pivot[:, None, :]]]
            m[sel, r] = pivot
            rank[sel] += 1
    return out, ranks


def normalize_rows_np(field, arr):
    """Scale each nonzero row so its first nonzero entry is 1.

    Returns (normalized array, boolean mask of zero rows).
    """
    nz = arr != 0
    zero_rows = ~nz.any(axis=1)
    first = np.where(zero_rows, 0, nz.argmax(axis=1))
    lead = arr[np.arange(len(arr)), first]
    lead = np.where(lead == 0, 1, lead)
    scaled = field.mul_np[field.inv_np[lead][:, None], arr]
    return scaled, zero_rows


def group_rows(arr):
    """Group identical rows; returns (unique_rows, inverse, counts)."""
    a = np.ascontiguousarray(arr)
    view = a.view([("", a.dtype)] * a.shape[1]).ravel()
    uniq, inverse, counts = np.unique(view, return_inverse=True, return_counts=True)
    return uniq.view(a.dtype).reshape(-1, a.shape[1]), inverse, counts


class HeavyPlaneScan(NamedTuple):
    """Result of scan_heavy_planes: the planes, plus any anomalies found."""
    planes: list
    collinear_triple: tuple
    pair_conflict: tuple
    uncovered_pair: tuple


HEAVY = 5  # axiom 1's planes meet the point set in more than four points


def scan_heavy_planes(space, pts):
    """Planes meeting a point set in >= HEAVY points, by pair-seeded spans.

    For each point pair not yet known to lie in a found plane, all remaining
    points are reduced modulo the pair's line; equal canonical residues mean
    a common plane through the pair.  Avoids enumerating every plane of the
    ambient space.

    This is the witness path of the reconstruction's axioms stage: where
    the sweep of the lines at infinity settles the planes (the passing
    inputs) this scan does not run, and every anomaly below is reported
    from it.

    Returns a HeavyPlaneScan with:
      planes            list of (Subspace, member index tuple), dedup'd
      collinear_triple  indices of three collinear input points, or None
      pair_conflict     (i, j, plane_a, plane_b) if a pair lies in two found
                        planes, else None
      uncovered_pair    the first pair, in itertools.combinations order,
                        lying in no found plane, else None
    """
    field = space.field
    n = len(pts)
    arr = points_array(pts)
    pair_plane = {}
    planes = []
    uncovered = None
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in pair_plane:
                continue
            basis, _ = rref(field, (pts[i], pts[j]))
            res = reduce_rows_np(field, basis, arr)
            norm, zero = normalize_rows_np(field, res)
            for k in np.flatnonzero(zero):
                if k != i and k != j:
                    return HeavyPlaneScan(planes, (i, j, int(k)), None, None)
            _, inverse, counts = group_rows(norm)
            heavy = np.flatnonzero(counts >= HEAVY - 2)
            for g in heavy:
                members = [int(k) for k in np.flatnonzero(inverse == g)
                           if k != i and k != j]
                if len(members) < HEAVY - 2:
                    continue
                rows, _ = rref(field, list(basis) + [tuple(int(x) for x in norm[members[0]])])
                plane = Subspace(space, rows)
                pid = len(planes)
                mem = tuple(sorted(members + [i, j]))
                for a, b in itertools.combinations(mem, 2):
                    prev = pair_plane.get((a, b))
                    if prev is not None and planes[prev][0] != plane:
                        return HeavyPlaneScan(planes, None, (a, b, prev, pid), None)
                    pair_plane[(a, b)] = pid
                planes.append((plane, mem))
            # A heavy plane through i and j is found from this pair, so if
            # none was, the pair lies in none, and every earlier pair lies
            # in a found plane.
            if uncovered is None and (i, j) not in pair_plane:
                uncovered = (i, j)
    return HeavyPlaneScan(planes, None, None, uncovered)
