"""Reconstruction pipeline: from a q^2-point set in PG(4,q) to a certified conic.

The input is a set of q^2 affine points assumed to satisfy three incidence
axioms with respect to the affine planes of PG(4,q):

  1. every plane meeting the set in more than four points meets it in
     exactly q points forming an arc;
  2. every pair of points of the set lies in exactly one such plane;
  3. every other affine point lies on either zero or two such planes.

The stages below discover those planes, classify the hyperplane at infinity,
assemble a spread from tangent trace lines, certify that the spread is
regular (two independent ways), rebuild the translation plane and certify
that the point set completes to a conic there, and finally certify that no
other spread is compatible with the point set.  Every stage re-derives its
claims by exhaustive enumeration and fails loudly with a witness otherwise.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .galois import Field, QuadExtension, check_modulus, default_modulus
from .projgeom import (HEAVY, HeavyPlaneScan, Subspace, group_rows,
                       line_points_np, mat_mul, matmul_np, matrix_inverse,
                       normalize_rows_np, nullspace, points_array, reduce_rows_np, rref,
                       rref_np, scan_heavy_planes, span)
from .conics import (CompletionNotUnique, DegenerateInput, NotAnArc,
                     complete_q_arc, complete_q_arcs, conic_through_5, is_arc)
from .bruckbose import Spread, build_frame
from .report import FAIL, PASS, SKIPPED, WARN, StageRecord, witness_text


# ---------------------------------------------------------------------------
# errors


class CheckViolation(AssertionError):
    """Base class for failed pipeline checks; carries a printable witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class Axiom1Violation(CheckViolation):
    pass


class Axiom2Violation(CheckViolation):
    pass


class Axiom3Violation(CheckViolation):
    pass


class StructureViolation(CheckViolation):
    pass


class NotCollinear(CheckViolation):
    pass


class TangentDegenerate(CheckViolation):
    pass


class SpreadViolation(CheckViolation):
    pass


class NotSkew(CheckViolation):
    pass


class ClosureViolation(CheckViolation):
    pass


class UniquenessViolation(CheckViolation):
    pass


_CATCHABLE = (CheckViolation, NotAnArc, CompletionNotUnique, DegenerateInput)


# ---------------------------------------------------------------------------
# data types


@dataclass
class Planes:
    """The planes meeting the input in q points, one row per plane.

    axioms sets bases, the RREF bases (n, 3, 5), and members, the ids of
    the input points on each plane (n, q).  infinity_data adds traces, the
    RREF bases (n, 2, 4) of the lines in which the planes meet the
    hyperplane at infinity; completions, the points (n, 4) completing the
    members to a conic; and forms, the matrices (n, 3, 3) of those conics
    in plane coordinates, as conic_through_5 fits them to the first five
    members.  Both come from the batched fit complete_q_arcs.  A point's
    plane coordinates are its entries at the pivot columns of the plane's
    basis.
    """
    bases: np.ndarray
    members: np.ndarray
    traces: np.ndarray = None
    completions: np.ndarray = None
    forms: np.ndarray = None
    _table = None  # (member table, the members it was built from)

    def __len__(self):
        return len(self.bases)

    @property
    def pivots(self):
        """The pivot column of each basis row, (n, 3)."""
        return (self.bases != 0).argmax(axis=2)

    def arcs(self, points):
        """The members, rows of points, in plane coordinates: (n, q, 3)."""
        return points[self.members[:, :, None], self.pivots[:, None, :]]

    def member_table(self, width):
        """Boolean table (n, width): whether plane p carries input point k.

        Built once and kept, read-only, until width or members change."""
        kept = self._table
        if kept is None or kept[0].shape[1] != width or not np.array_equal(kept[1], self.members):
            table = np.zeros((len(self), width), dtype=bool)
            table[np.arange(len(self))[:, None], self.members] = True
            table.flags.writeable = False
            self._table = kept = table, self.members.copy()
        return kept[0]

    def text(self, p):
        """The basis of plane p, written as Subspace.to_text writes it."""
        return _rows_text(self.bases[p])


@dataclass
class SigmaClassification:
    completion_points: tuple
    free_points: tuple


@dataclass
class Regulus:
    lines: tuple
    opposite: tuple


class PipelineState:
    """Mutable context threaded through the stages."""

    def __init__(self, frame, C, conic=None, exploratory=False,
                 expect_classical=False):
        self.frame = frame
        self.base = frame.base
        self.q = frame.q
        self.space4 = frame.space4
        self.sigma = frame.sigma
        self.plane2 = frame.plane2
        self.C = tuple(sorted(frame.space4.normalize(p) for p in C)) if C else None
        self._C_arr = points_array(self.C) if self.C else None
        self.conic = conic
        self.exploratory = exploratory
        self.expect_classical = expect_classical
        self._directions = None
        # stage outputs
        self.planes = None
        self.plane_point_ids = None      # (planes, q^2+q+1) PG(4,q) point ids
        self.affine_plane_counts = None  # planes on each affine point off C, by id
        self.planes_through = None
        self.classes = None
        self.classification = None
        self.axis = None
        self.spread = None
        self.reguli = None
        self.regular = False  # set by klein_regularity; rebuild_arc aligns only a regular spread

    @property
    def directions(self):
        """The DirectionTable of the input points, rebuilt when _C_arr is replaced."""
        if self._directions is None or self._directions.arr is not self._C_arr:
            self._directions = DirectionTable(self)
        return self._directions


class DirectionTable:
    """Counts input points on the planes through lines at infinity.

    For affine a, b and a line l of the hyperplane at infinity, the plane
    <l, a> holds b exactly when the direction of ab (the point ab meets the
    hyperplane at infinity in) lies on l (Bruck-Bose).  So with T[P, a] the
    number of b != a in C whose direction from a is P, the plane <l, a>
    carries 1 + repeats[a] + sum over P on l of T[P, a] points of C: a
    repeated point has no direction and counts on every plane through a.
    own() reads that sum for given (l, a).

    levels() sweeps lines for the fullest plane through each.  A line's
    level is the most other input points on one plane <l, a> through an
    input point a, capped at LEVELS = HEAVY - 1; below the cap, the fullest
    plane through l carries 1 + level points.  So level 0 means no plane
    through l holds two input points, level <= 1 that none holds three
    (uniqueness's compatible axis-meeting lines), level >= 2 that one does
    (what uniqueness asks of every line outside the spread), and level 4
    that a plane through l carries HEAVY or more, one of axiom 1's planes.
    The sweep packs T once, as unit planes T >= u (u up to the cap) in bits
    over the input points.  Each point's count on <l, a> is a 3-bit binary
    counter held in bit planes s0, s1 and s2, preset from repeats capped at
    LEVELS; each line point adds its unit planes one increment at a time,
    and s2, once set, stays set, so the counter saturates at LEVELS.  A 0/1
    table without repeats has one unit plane and presets of zero.

    line_levels() reads the levels of every line of sigma off one sweep,
    run by run as sigma.line_runs() gives the lines' point ids, column by
    column, to WORDS words per bit plane and at most LINES lines.  The
    sweep also keeps the (line, point) entries at the cap for heavy() and
    the lines of level 0 or 1 for low(), which assemble_spread and
    uniqueness read instead of every line.  heavy() answers only when T is
    0/1 and no point repeats, as axiom 1 requires (T >= 2 means three
    collinear points); it returns None otherwise, without sweeping.  Such
    an input fails axiom 1, and the scan, which names the collinear triple,
    needs no sweep of every line first.
    """

    LEVELS = HEAVY - 1
    WORDS = 1 << 14  # 64-bit words per counter in one run of the sweep
    LINES = 1 << 12  # lines in one run at most, bounding a small field's run

    def __init__(self, state):
        f, arr = state.base, state._C_arr
        self.arr = arr
        self.sigma = state.sigma
        if not arr[:, 4].all():
            raise StructureViolation("input point inside the hyperplane at infinity")
        n = len(arr)
        aff = f.mul_np[f.inv_np[arr[:, 4]][:, None], arr[:, :4]]  # scaled to x4 = 1
        self.affine = aff
        # the direction from a to b is the direction from b to a, so each
        # pair a < b is normalized once and counted at both ends
        a, b = np.triu_indices(n, 1)
        dirs, zero = normalize_rows_np(f, f.sub_np[aff[b], aff[a]])
        self.repeats = (np.bincount(a[zero], minlength=n)
                        + np.bincount(b[zero], minlength=n)).astype(np.int16)
        # counts are below |C| = q^2, so int16 holds them for q <= 181
        self.T = np.zeros((state.sigma.npoints, n), dtype=np.int16)
        ids = state.sigma.point_ids(dirs[~zero]) * n
        # on the flat view with an int16 one, numpy's fast path for ufunc.at
        np.add.at(self.T.ravel(), np.concatenate((ids + a[~zero], ids + b[~zero])), np.int16(1))
        self.binary = self.T.max(initial=0) <= 1 and not self.repeats.any()
        self.words = -(-n // 64)  # uint64 words of bits over the input points

    def own(self, ids, points):
        """Input points on the plane <l, a> for each line l, given by its point
        ids (k, q+1), and each input point a in its row of points (k, m).
        The working memory is a few times that of the result, (k, m)."""
        flat, n = self.T.ravel(), self.T.shape[1]
        sums = 1 + self.repeats[points]
        for col in ids.T:
            sums += flat.take(col[:, None] * n + points)
        return sums

    def levels(self, columns):
        """The levels of k lines, int8, given their point ids as columns: q+1
        arrays (k,), columns[t] holding point t of each line (ids.T of an id
        table (k, q+1)).  Also their entries at the cap: (lines, points),
        each row index l and input point a whose plane <l, a> carries HEAVY
        or more input points, in (l, a) order.

        Adding a unit plane x to the counter s0 + 2 s1 + 4 s2: the carry
        c = s0 & x, s0 ^= x, s1 ^= c and s2 |= (old s1) & c.  The level
        is the number of the thresholds >= 1 (s0|s1|s2), >= 2 (s1|s2), >= 3
        ((s0&s1)|s2) and >= 4 (s2) set for some input point, and the
        entries at the cap are the bits of s2.  The working memory is 5 k
        words."""
        units, preset = self._packed
        buf = np.empty((5, len(columns[0]), preset.shape[1]), dtype=np.uint64)
        s0, x, carry, s2, s1 = buf  # buf[:4] ends as the thresholds >= 1 .. >= 4
        s0[...], s1[...], s2[...] = preset[:, None]
        for col in columns:
            for bits in units:
                np.take(bits, col, axis=0, out=x)
                np.bitwise_and(s0, x, out=carry)
                s0 ^= x
                np.bitwise_and(s1, carry, out=x)  # the carry out of s1
                s1 ^= carry
                s2 |= x
        np.bitwise_or(s1, s2, out=x)  # >= 2
        np.bitwise_and(s0, s1, out=carry)
        carry |= s2  # >= 3
        s0 |= x  # >= 1
        # nonzero words, OR-ed word by word: any(axis=2) over few words is slow
        hit = functools.reduce(np.bitwise_or, np.moveaxis(buf[:4], 2, 0)) != 0
        rows = np.flatnonzero(hit[-1])
        flags = np.unpackbits(s2[rows].view(np.uint8), axis=1, count=self.T.shape[1])
        r, a = np.nonzero(flags)
        return hit.sum(axis=0).astype(np.int8), (rows[r], a)

    _packed = functools.cached_property(lambda self: self._pack())

    def _pack(self):
        """The unit planes T >= u, u = 1 .. min(T.max(), LEVELS), one array
        (points of PG(3,q), words) each, and the presets (3, words): bits 0,
        1 and 2 of repeats capped at LEVELS, bits over the input points in
        uint64 words."""
        n = self.T.shape[1]

        def bits(flags):
            packed = np.zeros(flags.shape[:-1] + (8 * self.words,), dtype=np.uint8)
            packed[..., :-(-n // 8)] = np.packbits(flags, axis=-1)
            return packed.view(np.uint64)
        units = [bits(self.T >= u) for u in range(1, min(self.T.max(initial=0), self.LEVELS) + 1)]
        preset = np.minimum(self.repeats, self.LEVELS) >> np.arange(3)[:, None] & 1
        return units, bits(preset.astype(bool))

    @functools.cached_property
    def _sweep(self):
        """Every line of sigma swept once, in subspaces(1) order: [levels,
        then the lines and points of the entries at the cap, then the
        positions and point ids of the lines of level 0 or 1]."""
        parts = []
        for lo, columns in self.sigma.line_runs(min(self.LINES, self.WORDS // self.words)):
            level, (line, a) = self.levels(columns)  # a: the input points at the cap
            low = level <= 1
            parts.append((level, lo + line, a, lo + np.flatnonzero(low),
                          np.stack([col[low] for col in columns], axis=1)))
        return [np.concatenate(part) for part in zip(*parts)]

    def line_levels(self):
        """The level of every line of sigma, in subspaces(1) order, int8."""
        return self._sweep[0]

    def low(self):
        """The lines of level 0 or 1, kept from the sweep: (positions in
        subspaces(1), point ids (k, q+1))."""
        return self._sweep[3:]

    def heavy(self):
        """The sweep's entries at the cap, lines as subspaces(1) positions;
        None, without sweeping, unless T is 0/1 without repeats."""
        return self._sweep[1:3] if self.binary else None


# ---------------------------------------------------------------------------
# small geometric helpers


def _rows_text(rows):
    """Rows of coordinates, written as Subspace.to_text writes a basis."""
    return ";".join(",".join(map(str, row)) for row in np.asarray(rows).tolist())


def _residual_groups(state, basis5):
    """Group the input points by the plane they span with a basis (line) of PG(4,q).

    Returns (counts, inverse, normalized residuals).  Residuals are never zero
    because the basis lies at infinity while the points are affine.
    """
    arr = state._C_arr
    res = reduce_rows_np(state.base, basis5, arr)
    norm, zero = normalize_rows_np(state.base, res)
    if zero.any():
        raise StructureViolation("input point inside the hyperplane at infinity")
    _, inverse, counts = group_rows(norm)
    return counts, inverse, norm


def _heaviest_plane(state, rows):
    """The most input points on one plane through a line at infinity, given
    by its basis rows (2, 4), and that plane's basis as text (a witness)."""
    basis5 = [tuple(row) + (0,) for row in np.asarray(rows).tolist()]
    counts, inverse, _ = _residual_groups(state, basis5)
    first = int(np.flatnonzero(inverse == counts.argmax())[0])
    return int(counts.max()), span(state.space4, basis5 + [state.C[first]]).to_text()


def _plane_duals(f, bases):
    """The dual vectors of subspaces of PG(4,q) given by RREF bases (n, r, 5):
    (n, 5 - r, 5), one per free column c, 1 on c and -row[c] on each row's
    pivot, so that every basis row is orthogonal to every dual vector."""
    n, r = bases.shape[:2]
    k = np.arange(n)[:, None]
    lead = (bases != 0).argmax(axis=2)
    is_pivot = np.zeros((n, 5), dtype=bool)
    is_pivot[k, lead] = True
    free = np.flatnonzero(~is_pivot.ravel()).reshape(n, 5 - r) % 5
    duals = np.zeros((n, 5 - r, 5), dtype=np.int16)
    duals[k, np.arange(5 - r), free] = 1
    duals[k[:, :, None], np.arange(5 - r)[:, None], lead[:, None, :]] = \
        f.neg_np[bases[k[:, :, None], np.arange(r), free[:, :, None]]]
    return duals


def _three_space_duals(f, m, duals):
    """The dual vectors (P, 5) of the 3-spaces spanned by plane pairs (a, b)
    meeting in a line, from M = B_b N_a^T (P, 3, 2) and N_a (P, 2, 5).

    M has rank 1, and its first nonzero row (u, v) gives the dual (v, -u) N_a:
    orthogonal to plane a, and to plane b as every row of M is a multiple
    of (u, v).
    """
    first = m[np.arange(len(m)), (m != 0).any(axis=2).argmax(axis=1)]
    lam = np.stack((first[:, 1], f.neg_np[first[:, 0]]), axis=1)
    return matmul_np(f, lam[:, None, :], duals)[:, 0]


PAIR_BLOCK = 512  # plane pairs tested at a time, bounding the working memory


def _three_space_tests(f, duals, arr, planes, pairs):
    """Per pair (i, j) of planes and its 3-space, given by its dual vector
    (a row of duals): whether the points of arr inside it differ from the
    members of i and j.

    A 3-space of PG(4,q) is a hyperplane, so a point lies in it exactly when
    it is orthogonal to its dual vector: all points are tested against a
    block of duals in one matmul_np, PAIR_BLOCK pairs at a time.
    """
    member_of = planes.member_table(len(arr))
    foreign = np.zeros(len(duals), dtype=bool)
    for lo in range(0, len(duals), PAIR_BLOCK):
        block = slice(lo, lo + PAIR_BLOCK)
        inside = matmul_np(f, duals[block], arr.T) == 0
        own = member_of[pairs[block, 0]] | member_of[pairs[block, 1]]
        foreign[block] = (inside != own).any(axis=1)
    return foreign


def _spread_owner(sigma, ids):
    """Point id -> the index of its spread line, from the (lines, q+1)
    point ids of a spread; the lines partition PG(3,q)."""
    owner = np.empty(sigma.npoints, dtype=np.int64)
    owner[ids] = np.arange(len(ids))[:, None]
    return owner


# Plucker coordinates p01, p02, p03, p12, p13, p23 of the line <x, y>
_PLUCKER = (np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 3]))
# The plane <l, V> for a line l with Plucker coordinates p and a point V off
# it has dual vector d, d_k = sum over t of V[_DUAL_V[t, k]] * s[_DUAL_P[t, k]],
# where s is p followed by -p: the 3x3 minors of the matrix (l; V).
_DUAL_V = np.array([[1, 0, 0, 0], [2, 2, 1, 1], [3, 3, 3, 2]])
_DUAL_P = np.array([[5, 11, 4, 9], [10, 2, 8, 1], [3, 7, 0, 6]])

# the pairs of generating lines that regulus_from tests for skewness, in order
_SKEW_PAIRS = ((0, 1), (0, 2), (1, 2))


def _plucker_np(f, x, y):
    """Plucker coordinates of the lines <x, y>, over the last axis."""
    i, j = _PLUCKER
    return f.sub_np[f.mul_np[x[..., i], y[..., j]], f.mul_np[x[..., j], y[..., i]]]


def _meet_np(f, p, r):
    """Whether lines with Plucker coordinates p and r meet (or coincide): the
    Klein form p01 r23 - p02 r13 + p03 r12 + p12 r03 - p13 r02 + p23 r01 is 0."""
    t = f.mul_np[p, r[..., ::-1]]
    plus = f.add_np[f.add_np[t[..., 0], t[..., 2]], f.add_np[t[..., 3], t[..., 5]]]
    return plus == f.add_np[t[..., 1], t[..., 4]]


def _distinct(a):
    """np.unique(a).  A plain np.unique call imports numpy.ma (15-18 ms in a
    fresh process) to test whether a is masked; one asked for counts does
    not."""
    return np.unique(a, return_counts=True)[0]


def _isin(a, b):
    """np.isin(a, b) for integer arrays and a nonempty b.  np.isin calls a
    plain np.unique on a long b, and so imports numpy.ma too."""
    b = _distinct(b)
    return b[np.searchsorted(b, a).clip(max=len(b) - 1)] == a


def _point_codes(f, pts):
    """One integer per vector of pts (..., 6): the vector scaled to a leading
    1, read in base q; 0 for the zero vector."""
    scaled, _ = normalize_rows_np(f, pts.reshape(-1, 6))
    return (scaled.astype(np.int64) @ f.q ** np.arange(5, -1, -1)).reshape(pts.shape[:-1])


def _line_key_np(f, rows):
    """One integer per line <x, y>, rows (..., 2, 4) holding x and y: the
    _point_codes of its Plucker coordinates."""
    return _point_codes(f, _plucker_np(f, rows[..., 0, :], rows[..., 1, :]))


def _transversals_np(f, V, p2, r1, r2):
    """Through each point V (..., m, 4), the line meeting the line with Plucker
    coordinates p2 and the line <r1, r2> (skew).  The plane <l2, V> has dual
    d, and l3 meets it in W = (d.r2) r1 - (d.r1) r2; the transversal is <V, W>.
    Returns W."""
    signed = np.concatenate((p2, f.neg_np[p2]), axis=-1)[..., _DUAL_P]
    t = f.mul_np[V[..., _DUAL_V], signed[..., None, :, :]]
    d = f.add_np[f.add_np[t[..., 0, :], t[..., 1, :]], t[..., 2, :]]
    ab = matmul_np(f, d, np.stack((r1, r2), axis=-1))
    return f.sub_np[f.mul_np[ab[..., 1, None], r1[..., None, :]],
                    f.mul_np[ab[..., 0, None], r2[..., None, :]]]


@dataclass
class _ReguliBatch:
    """The reguli through triples (l1, l2, l3) of lines of PG(3,q).

    failed[k] is 1 + the index in _SKEW_PAIRS of the first pair of triple k
    whose lines meet, 0 if none.  spans[k] holds regulus k's q+1 lines, then
    its q+1 opposite lines, as spanning pairs: shape (k, 2, q+1, 2, 4).  The
    opposite line spans[k, 1, t] is the transversal through the t-th point
    of l1.  keys holds _line_key_np of the lines, (k, q+1).
    """
    failed: np.ndarray
    spans: np.ndarray
    keys: np.ndarray


def _regulus_batch(f, l1, l2, l3):
    """The regulus through each triple of lines given by bases (k, 2, 4),
    broadcasting, built as regulus_from does: through each point of l1 the
    line meeting l2 and l3 (the opposite regulus), then the common
    transversals of three of those."""
    l1, l2, l3 = np.broadcast_arrays(*(np.asarray(l, dtype=np.int16) for l in (l1, l2, l3)))
    p = [_plucker_np(f, l[:, 0], l[:, 1]) for l in (l1, l2, l3)]
    failed = np.zeros(len(l1), dtype=np.int64)
    for check, (i, j) in enumerate(_SKEW_PAIRS, 1):
        failed[(failed == 0) & _meet_np(f, p[i], p[j])] = check
    # Once the three lines are pairwise skew nothing below can fail, so it
    # is not tested.  A point V of l1 is off l2, and l3, skew to l2, does not
    # lie in the plane <l2, V>, so each transversal is a line.  The
    # transversals of three pairwise skew lines are pairwise skew, and the
    # transversals of three of those are q+1 distinct lines forming the
    # unique regulus through l1, l2 and l3 (Hirschfeld 1985).
    V = line_points_np(f, l1[:, 0], l1[:, 1])
    W = _transversals_np(f, V, p[1], l3[:, 0], l3[:, 1])
    U = line_points_np(f, V[:, 0], W[:, 0])
    W2 = _transversals_np(f, U, _plucker_np(f, V[:, 1], W[:, 1]), V[:, 2], W[:, 2])
    lines = np.stack((U, W2), axis=2)
    spans = np.stack((lines, np.stack((V, W), axis=2)), axis=1)
    return _ReguliBatch(failed=failed, spans=spans, keys=_line_key_np(f, lines))


def _regulus_failure(check, triple):
    """The NotSkew that regulus_from raises for a failed check number; the
    triple holds the three lines' basis rows."""
    a, b = (_rows_text(triple[i]) for i in _SKEW_PAIRS[check - 1])
    return NotSkew(f"lines are not pairwise skew: {a} / {b}")


def _reguli(sigma, spans):
    """Regulus objects for reguli given as spanning pairs (k, 2, q+1, 2, 4),
    lines then opposite lines, with one row reduction."""
    red, _ = rref_np(sigma.field, spans.reshape(-1, 2, 4))

    def subspaces(bases):
        return tuple(Subspace(sigma, rows)
                     for rows in sorted(tuple(map(tuple, b)) for b in bases.tolist()))
    return [Regulus(lines=subspaces(lines), opposite=subspaces(opposite))
            for lines, opposite in red.reshape(spans.shape)]


def regulus_from(sigma, l1, l2, l3):
    """The unique regulus containing three pairwise skew lines of PG(3,q).

    Built by transversals: through each point of l1 the unique line meeting
    l2 and l3 (the opposite regulus), then the common transversals of those.
    The single-triple case of _regulus_batch.
    """
    triple = [l.rows for l in (l1, l2, l3)]
    batch = _regulus_batch(sigma.field, *([rows] for rows in triple))
    if batch.failed[0]:
        raise _regulus_failure(batch.failed[0], triple)
    return _reguli(sigma, batch.spans)[0]


# perfbench/tracer.py wraps this by name; the pipeline uses _plucker_np.
def plucker(field, line):
    """Normalized Plucker 6-vector of a line of PG(3,q)."""
    a, b = line.rows
    def m(i, j):
        return field.sub(field.mul(a[i], b[j]), field.mul(a[j], b[i]))
    p = (m(0, 1), m(0, 2), m(0, 3), m(1, 2), m(1, 3), m(2, 3))
    for x in p:
        if x:
            inv = field.inv(x)
            return tuple(field.mul(inv, y) for y in p)
    raise ValueError("degenerate line")


def _swept_planes(state):
    """The planes carrying HEAVY or more input points, read off the line
    sweep, as scan_heavy_planes reports them; None where the scan must run.

    Each such plane is <l, a> for its trace line l and any member a
    (Bruck-Bose), and the sweep flags every member (l, a).  The members of
    one plane are the flagged a on l with one residue modulo l: eliminating
    l's RREF rows from a scaled to x4 = 1 leaves the plane's point with
    x4 = 1 and zeros at l's pivots.  The result is taken only when T is 0/1,
    every plane has q members and every pair of input points lies in
    exactly one plane, which fails for q < HEAVY.  Then the scan finds no
    collinear triple, no pair conflict and no uncovered pair, and it finds
    each plane at its least member pair, which no other plane holds; so its
    planes are these, in the lexicographic order of their member tuples.
    Every failure is left to the scan, whose witnesses it then reports.
    """
    q, f, table = state.q, state.base, state.directions
    heavy = table.heavy()
    if heavy is None:
        return None
    lines, points = heavy
    rows = state.sigma.subspace_rows(1, lines)
    pivots = (rows != 0).argmax(axis=2)
    at = np.arange(len(rows))
    res = table.affine[points]
    for r in range(2):
        coef = res[at, pivots[:, r]]
        res = f.sub_np[res, f.mul_np[coef[:, None], rows[:, r]]]
    key = lines * q ** 4 + res.astype(np.int64) @ q ** np.arange(3, -1, -1)
    _, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    if (counts != q).any():
        return None
    # entries come in (line, point) order, so members ascend in each plane
    entries = np.argsort(inverse, kind="stable").reshape(-1, q)
    members = points[entries]
    n = len(table.arr)
    i, j = np.triu_indices(q, 1)
    cover = np.bincount((members[:, i] * n + members[:, j]).ravel(), minlength=n * n)
    if not np.array_equal(cover.reshape(n, n), np.triu(np.ones((n, n), dtype=cover.dtype), 1)):
        return None
    order = np.lexsort(members.T[::-1])
    first = entries[order, 0]
    spans = np.zeros((len(first), 3, 5), dtype=np.int16)
    spans[:, :2, :4] = rows[first]
    spans[:, 2, :4] = res[first]
    spans[:, 2, 4] = 1
    bases = rref_np(f, spans)[0].tolist()
    planes = [(Subspace(state.space4, tuple(map(tuple, b))), tuple(m))
              for b, m in zip(bases, members[order].tolist())]
    return HeavyPlaneScan(planes, None, None, None)


def _find_planes(state):
    """The planes carrying HEAVY or more input points, with the anomalies
    that scan_heavy_planes reports: from the line sweep where it settles
    them, else from the scan."""
    swept = _swept_planes(state)
    return swept if swept is not None else scan_heavy_planes(state.space4, state.C)


# ---------------------------------------------------------------------------
# stages


def stage_axioms(state):
    q = state.q
    C = state.C
    if len(set(C)) != q * q:
        raise StructureViolation(f"expected {q * q} distinct points, got {len(set(C))}")
    if len(C) != q * q:  # q^2 distinct points and more entries; C is sorted
        repeated = next(p for p, r in zip(C, C[1:]) if p == r)
        raise StructureViolation(f"repeated point in the input: {repeated}")
    for p in C:
        if p[4] == 0:
            raise StructureViolation(f"point at infinity in the input: {p}")
    scan = _find_planes(state)
    if scan.collinear_triple is not None:
        i, j, k = scan.collinear_triple
        raise Axiom1Violation(f"three collinear points (ids {i},{j},{k})",
                              witness=_rows_text([C[x] for x in (i, j, k)]))
    if scan.pair_conflict is not None:
        a, b, p1, _ = scan.pair_conflict
        raise Axiom2Violation(f"point pair ({a},{b}) lies in two planes",
                              witness=scan.planes[p1][0].to_text())
    # C is affine and repeat-free, so three of its points are collinear
    # exactly when two of them have the same direction from the third, that
    # is when some direction count T[P, a] is 2 or more (Bruck-Bose).  Below
    # that, no three points of C are collinear, so every plane's members are
    # an arc and the per-plane test is implied.
    check_arcs = state.directions.T.max(initial=0) >= 2
    # the planes before the first one of the wrong size are tested first,
    # so that the first failing plane raises
    full = next((p for p, (_, members) in enumerate(scan.planes) if len(members) != q),
                len(scan.planes))
    planes = Planes(
        bases=np.array([plane.rows for plane, _ in scan.planes[:full]],
                       dtype=np.int16).reshape(-1, 3, 5),
        members=np.array([members for _, members in scan.planes[:full]],
                         dtype=np.int64).reshape(-1, q))
    if check_arcs:
        for p, arc in enumerate(planes.arcs(state._C_arr).tolist()):
            if not is_arc(state.plane2, arc)[0]:
                raise Axiom1Violation("plane points are not an arc", witness=planes.text(p))
    if full < len(scan.planes):
        plane, members = scan.planes[full]
        raise Axiom1Violation(f"plane carries {len(members)} points, expected {q}",
                              witness=plane.to_text())
    if scan.uncovered_pair is not None:
        raise Axiom2Violation(f"point pair {scan.uncovered_pair} lies in no plane",
                              witness=_rows_text([C[x] for x in scan.uncovered_pair]))
    # Now each pair of input points lies in exactly one plane and each plane
    # carries q of them, so the planes through a point split the other
    # q^2 - 1 points q - 1 at a time: every point lies on q + 1 planes, and
    # there are q^2 (q + 1) / q = q^2 + q planes.  Neither count is tested.

    # axiom 3 over the affine points of PG(4,q): every plane's points at
    # once, in Subspace.points() order, which is the order of points_np()
    f, space4 = state.base, state.space4
    coeffs = state.plane2.points_np()
    # The products need no normalizing: the first nonzero coefficient of a
    # point is 1 and picks an RREF row, whose pivot is 1 and whose column is
    # zero in the rows after it, while the rows before it are not taken.  So
    # each product's first nonzero entry is that pivot, and it is 1.
    pts = matmul_np(f, coeffs, planes.bases).reshape(-1, 5)
    ids = space4.point_ids(pts)
    counted = (pts[:, 4] != 0) & ~np.isin(ids, space4.point_ids(state._C_arr))
    counts = np.bincount(ids[counted], minlength=space4.npoints)
    bad = np.flatnonzero(counted & (counts[ids] != 2))
    if len(bad):
        raise Axiom3Violation(f"affine point on {counts[ids[bad[0]]]} planes",
                              witness=",".join(map(str, pts[bad[0]].tolist())))
    on_two = int(np.count_nonzero(counts))
    state.planes = planes
    state.plane_point_ids = ids.reshape(len(planes), len(coeffs))
    state.affine_plane_counts = counts
    # every point lies on q + 1 planes (above), listed in plane order
    state.planes_through = tuple(map(tuple, np.nonzero(planes.member_table(q * q).T)[1]
                                     .reshape(q * q, q + 1).tolist()))
    return {
        "points": q * q,
        "planes": len(planes),
        "pairs": q * q * (q * q - 1) // 2,
        "points_on_two_planes": on_two,
        "points_on_no_plane": q ** 4 - q * q - on_two,
        "planes_per_point": q + 1,
    }


def stage_parallel_classes(state):
    q = state.q
    planes = state.planes
    n = len(planes)
    # shared[i, j]: the members of plane j that plane i carries
    shared = planes.member_table(len(state.C))[:, planes.members].sum(axis=2)
    assigned = [-1] * n
    classes = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        group = [i] + np.flatnonzero(shared[i] == 0).tolist()
        if len(group) != q:
            raise StructureViolation(
                f"parallel class of plane {i} has {len(group)} members",
                witness=planes.text(i))
        meeting = np.argwhere(np.triu(shared[np.ix_(group, group)], 1))
        if len(meeting):
            raise StructureViolation(
                "parallel relation is not transitive",
                witness=planes.text(group[meeting[0, 0]]))
        cid = len(classes)
        for j in group:
            if assigned[j] >= 0:
                raise StructureViolation("plane in two parallel classes")
            assigned[j] = cid
        classes.append(tuple(group))
    # Every plane is now in exactly one class of exactly q planes, and axioms
    # left q^2 + q planes, so there are q + 1 classes: that is not tested.
    assigned = np.array(assigned)
    cross = np.triu(assigned[:, None] != assigned, 1)
    bad = np.argwhere(cross & (shared != 1))
    if len(bad):
        i, j = bad[0]
        raise StructureViolation(f"cross-class planes share {shared[i, j]} points",
                                 witness=planes.text(i))
    state.classes = tuple(classes)
    return {
        "classes": q + 1,
        "class_size": q,
        "same_class_pairs": (q + 1) * q * (q - 1) // 2,
        "cross_class_pairs_sharing_one": int(cross.sum()),
    }


def stage_infinity_data(state):
    q = state.q
    f = state.base
    planes = state.planes
    arcs = planes.arcs(state._C_arr)
    completions, forms, ok = complete_q_arcs(state.plane2, arcs)
    # normalized points through RREF bases, so normalized (see axioms)
    lifted = _from_intrinsic_np(f, planes.bases, completions)
    bad = np.flatnonzero(~ok | (lifted[:, 4] != 0))
    if len(bad):
        p = bad[0]
        if not ok[p]:
            # complete_q_arc rejects the arcs the batch rejects, and words why
            try:
                complete_q_arc(state.plane2, arcs[p].tolist())
            except (NotAnArc, CompletionNotUnique) as exc:
                raise StructureViolation(
                    f"arc completion failed: {exc}", witness=planes.text(p))
        raise StructureViolation("completion point is affine",
                                 witness=",".join(map(str, lifted[p].tolist())))
    planes.completions, planes.forms = lifted[:, :4], forms
    completions = list(map(tuple, planes.completions.tolist()))
    # With column x4 moved first, the RREF of an affine plane's basis has
    # its x4 pivot in row 0, so rows 1 and 2, without that column, are the
    # RREF basis of the plane's line at infinity, its trace line.  The
    # completion point has x4 = 0 and lies in the plane, so it lies on the
    # trace line: that is not tested.
    red, _ = rref_np(f, planes.bases[:, :, [4, 0, 1, 2, 3]])
    planes.traces = red[:, 1:, 1:]

    # Plane pairs (a, b), read off one product with the plane duals N (two
    # rows per plane): M = B_b N_a^T (3 x 2) maps plane b into the quotient
    # by plane a, so the pair spans 3 + rank M dimensions (Grassmann).  The
    # planes meet in a point exactly when M has rank 2, that is a nonzero
    # 2 x 2 minor.  Same-class pairs come first, then the pairs of classes
    # sharing a completion point.
    classes_of_comp = {}
    for cid, group in enumerate(state.classes):
        classes_of_comp.setdefault(completions[group[0]], []).append(cid)
    same = [list(itertools.combinations(group, 2)) for group in state.classes]
    cross = [(i, j) for cids in classes_of_comp.values() if len(cids) == 2
             for i in state.classes[cids[0]] for j in state.classes[cids[1]]]
    pairs = np.array([p for ps in same for p in ps] + cross, dtype=np.int64).reshape(-1, 2)
    bases = planes.bases
    duals = _plane_duals(f, bases)
    m = matmul_np(f, bases[pairs[:, 1]], duals[pairs[:, 0]].swapaxes(1, 2))
    n_same = len(pairs) - len(cross)
    u, w = m[:n_same, [0, 0, 1]], m[:n_same, [1, 2, 2]]  # the three row pairs
    minors = f.sub_np[f.mul_np[u[..., 0], w[..., 1]], f.mul_np[u[..., 1], w[..., 0]]]

    # Planes of one class share their completion and pairwise meet only
    # there.  Each plane holds its own completion, so once a class's
    # completions are equal, its planes hold it; only the meet is tested.
    met = minors.any(axis=1).tolist()
    start = 0
    for cid, group in enumerate(state.classes):
        comps = {completions[i] for i in group}
        if len(comps) != 1:
            raise StructureViolation(f"class {cid} has {len(comps)} completion points")
        for p, (a, b) in enumerate(same[cid], start):
            if not met[p]:
                raise StructureViolation(
                    f"class {cid} planes do not meet exactly in their completion point",
                    witness=planes.text(a))
        start += len(same[cid])

    # each completion point belongs to exactly two classes
    for comp, cids in classes_of_comp.items():
        if len(cids) != 2:
            raise StructureViolation(
                f"completion point {comp} belongs to {len(cids)} classes")
    # Each of the q+1 classes has one completion point and each completion
    # point is in two classes, so there are (q+1)/2 of them: not tested.
    completion_points = tuple(sorted(classes_of_comp))

    # The classification of the points at infinity by the trace lines on
    # them.  The trace lines are distinct, which is not tested: planes of one
    # class meet only in a point (rank 5 above), and planes of two classes
    # share one input point a (parallel_classes), while two planes through a
    # and one line at infinity are both <line, a>.
    sigma = state.sigma
    on_lines = np.bincount(sigma.line_point_ids(planes.traces).ravel(),
                           minlength=sigma.npoints)
    is_comp = np.zeros(sigma.npoints, dtype=bool)
    is_comp[sigma.point_ids(np.array(completion_points))] = True
    bad = np.flatnonzero(np.where(is_comp, on_lines != 2 * q, on_lines > 1))
    if len(bad):
        k, witness = on_lines[bad[0]], ",".join(map(str, sigma.points_np()[bad[0]].tolist()))
        if is_comp[bad[0]]:
            raise StructureViolation(
                f"completion point on {k} trace lines, expected {2 * q}", witness=witness)
        raise StructureViolation(f"point at infinity on {k} trace lines", witness=witness)
    free = sigma.points_np()[~is_comp & (on_lines == 0)]
    # The q^2+q trace lines make (q^2+q)(q+1) incidences.  The (q+1)/2
    # completion points take 2q each and every other point 0 or 1, so
    # q^3+q^2 points are simple and the (q+1)/2 left are free: not tested.

    # Completion-sharing planes are in two classes, so they share one input
    # point and their completion point, hence the line through both; being
    # distinct, they meet in that line and span a 3-space.  Neither that nor
    # the one shared point is tested.  The points of C inside the 3-space
    # are exactly those of the two planes.  A third plane inside it would
    # then have its q >= 3 members among them, but it shares at most one
    # with each of the two planes: that is not tested.
    cross_pairs = pairs[n_same:]
    space_duals = _three_space_duals(f, m[n_same:], duals[cross_pairs[:, 0]])
    foreign = _three_space_tests(f, space_duals, state._C_arr, planes, cross_pairs)
    if foreign.any():
        a, b = cross_pairs[foreign.argmax()]
        red, _ = rref_np(f, np.concatenate((bases[a], bases[b]))[None])
        raise StructureViolation("3-space contains foreign points",
                                 witness=_rows_text(red[0, :4]))

    state.classification = SigmaClassification(
        completion_points=completion_points,
        free_points=tuple(sorted(map(tuple, free.tolist()))))
    return {
        "completion_points": (q + 1) // 2,
        "free_points": (q + 1) // 2,
        "simple_points": q ** 3 + q ** 2,
        "trace_lines": q * q + q,
        "lines_per_completion": 2 * q,
        "line_meeting_pairs": len(cross),
        "three_space_checks": len(cross),
    }


def stage_t_infinity(state):
    q = state.q
    cls = state.classification
    # infinity_data leaves (q+1)/2 completion points, each on 2q trace lines,
    # and (q+1)/2 free points, on none: q+1 points, which is not tested.
    special = sorted(cls.completion_points + cls.free_points)
    axis = span(state.sigma, special)
    if axis.dim != 1:
        raise NotCollinear(f"special points span a {axis.dim}-dimensional subspace",
                           witness=_rows_text(special))
    # The q+1 special points are distinct and span a line, which has q+1
    # points, so they are all of its points: that is not tested.  No trace
    # line equals the axis, which is not tested either: infinity_data left
    # (q+1)/2 >= 1 free points on no trace line, and they lie on the axis.
    # every affine plane through the axis carries exactly one point
    level, _ = state.directions.levels(state.sigma.line_point_ids([axis.rows]).T)
    if level[0] != 0 or len(state.C) != q * q:
        k, witness = _heaviest_plane(state, axis.rows)
        raise StructureViolation(f"a plane through the axis carries {k} points",
                                 witness=witness)
    state.axis = axis
    return {
        "axis_points": q + 1,
        "planes_through_axis": q * q,
    }


def _from_intrinsic_np(f, bases, coeffs):
    """The points sum_j coeffs_j bases_j of subspaces with bases (..., k, n)."""
    return matmul_np(f, coeffs[..., None, :], bases)[..., 0, :]


def _tangent_traces(state, cids):
    """The tangent trace lines of the input points cids, as RREF bases (k, 2, 4).

    Each point's q+1 (point, plane) incidences are handled at once: the
    tangent's dual (A + A^T) a from the plane's form A, crossed with the plane's x4
    column, is the tangent's point at infinity in plane coordinates, lifted
    through the plane's basis.

    The checks, in tangent_trace's order: (1) q+1 planes through the point,
    then plane by plane (2) a tangent that is not the plane's line at
    infinity, (3) q+1 distinct trace points, (4) on one line, (5) which
    misses the axis, (6) and spans with the point a plane carrying no other
    input point.  Each point is flagged with the first check it fails, and
    the first flagged point raises it.  That each trace point is at infinity
    is not tested: its x4 is (t x x4) . x4 = 0, the dot product of the
    plane's x4 column with a cross product taken with that column.
    """
    q, f, sigma, planes = state.q, state.base, state.sigma, state.planes
    cids = np.asarray(cids, dtype=np.int64)
    through = [state.planes_through[c] for c in cids.tolist()]
    failed = np.zeros(len(cids), dtype=np.int64)

    def flag(check, bad):
        new = (failed == 0) & bad
        failed[new] = np.broadcast_to(check, failed.shape)[new]

    flag(1, np.array([len(t) != q + 1 for t in through], dtype=bool))
    pids = np.array([(list(t) + [0] * (q + 1))[:q + 1] for t in through],
                    dtype=np.int64).reshape(-1, q + 1)
    bases = planes.bases[pids]
    a = state._C_arr[cids[:, None, None], planes.pivots[pids]]  # plane coordinates
    forms = planes.forms[pids]
    polar = f.add_np[forms, forms.swapaxes(-1, -2)]
    t = matmul_np(f, polar, a[..., None])[..., 0]  # the tangent's dual
    x4 = bases[..., 4]
    direction = f.sub_np[f.mul_np[t[..., [1, 2, 0]], x4[..., [2, 0, 1]]],
                         f.mul_np[t[..., [2, 0, 1]], x4[..., [1, 2, 0]]]]
    degenerate = ~direction.any(axis=-1)
    flag(2, degenerate.any(axis=1))
    pts = _from_intrinsic_np(f, bases[..., :4], direction)  # lifted, without x4
    traces = normalize_rows_np(f, pts.reshape(-1, 4))[0].reshape(-1, q + 1, 4)
    ids = np.sort(sigma.point_ids(traces.reshape(-1, 4)).reshape(-1, q + 1), axis=1)
    distinct = 1 + (ids[:, 1:] != ids[:, :-1]).sum(axis=1)
    flag(3, distinct != q + 1)
    red, rank = rref_np(f, traces)
    flag(4, rank != 2)
    # lines only where checks 1-4 passed; elsewhere point 0, never read
    line_ids = np.zeros((len(cids), q + 1), dtype=np.int32)
    ok = failed == 0
    line_ids[ok] = sigma.line_point_ids(red[ok, :2])
    flag(5, np.isin(line_ids, sigma.line_point_ids([state.axis.rows])).any(axis=1))
    own = state.directions.own(line_ids, cids[:, None])[:, 0]
    flag(6, own != 1)

    bad = np.flatnonzero(failed)
    if len(bad):
        k = bad[0]
        cid, check = int(cids[k]), int(failed[k])
        if check == 1:
            raise StructureViolation(f"point {cid} on {len(through[k])} planes")
        if check == 2:
            raise TangentDegenerate("tangent line coincides with the trace line",
                                    witness=planes.text(pids[k, degenerate[k].argmax()]))
        if check == 3:
            raise StructureViolation(f"point {cid} has {int(distinct[k])} distinct trace points")
        if check == 4:
            raise NotCollinear(f"trace points of point {cid} are not collinear",
                               witness=_rows_text(traces[k]))
        if check == 5:
            raise StructureViolation(f"trace line of point {cid} meets the axis")
        raise StructureViolation(
            f"plane of point {cid} and its trace line carries {int(own[k])} points")
    return red[:, :2]


# perfbench/tracer.py wraps this by name; the pipeline uses _tangent_traces.
def tangent_trace(state, cid):
    """The tangent trace line of one input point.

    In each of the q+1 planes through the point, the tangent of the plane's
    conic at the point meets the hyperplane at infinity in one point; the
    q+1 trace points are asserted distinct and collinear, their line disjoint
    from the axis, and the plane spanned by the line and the point carries no
    other input point.  The single-point case of _tangent_traces.
    """
    rows = _tangent_traces(state, [cid])[0]
    return Subspace(state.sigma, tuple(map(tuple, rows.tolist())))


def stage_assemble_spread(state):
    q, planes, sigma = state.q, state.planes, state.sigma
    traces = _tangent_traces(state, range(q * q))
    lines = np.concatenate((traces, np.array([state.axis.rows], dtype=np.int16)))
    ids = sigma.line_point_ids(lines)
    cline_ids = sigma.line_point_ids(planes.traces)

    # trace lines vs planes: a plane's trace meets exactly the trace lines of
    # its own members; the first failing (plane, point) pair is reported
    on_trace = np.zeros((q * q, sigma.npoints), dtype=bool)
    on_trace[np.arange(q * q)[:, None], ids[:-1]] = True
    meets = on_trace[:, cline_ids].any(axis=2).T
    wrong = np.argwhere(meets != planes.member_table(q * q))
    if len(wrong):
        pid, cid = wrong[0].tolist()
        raise StructureViolation(
            f"plane {pid} vs trace line of point {cid}: meet={bool(meets[pid, cid])}",
            witness=planes.text(pid))

    # The q^2+1 lines are distinct, which is not tested.  Two input points
    # with one trace line would fail the test above on a plane through one of
    # them and not the other, and every trace line misses the axis (check 5
    # of _tangent_traces).  A repeated line would also overlap itself.
    counts = np.bincount(ids.ravel(), minlength=sigma.npoints)
    if (counts > 1).any():
        # line i is the first to meet an earlier line; j the first line it meets
        first = np.zeros(sigma.npoints, dtype=np.int64)  # point -> first line on it
        uniq, at = np.unique(ids.ravel(), return_index=True)
        first[uniq] = at // ids.shape[1]
        i = int(np.flatnonzero((first[ids] < np.arange(len(lines))[:, None]).any(axis=1))[0])
        j = int(first[ids[i]].min())
        raise SpreadViolation(
            "spread lines overlap",
            witness=_rows_text(lines[i]) + " | " + _rows_text(lines[j]))
    # The q^2+1 lines are pairwise disjoint, so they hold
    # (q^2+1)(q+1) points, all of PG(3,q): that they cover it is not tested.
    # line c < q^2 is the trace line of input point c
    state.spread = Spread(lines=lines, axis=q * q)

    # lines meeting the axis that are not C-plane traces: planes through them
    # carry at most two points, and exactly one together with a met trace line
    owner, at = _spread_owner(sigma, ids), np.full(sigma.npoints, -1)
    at[ids[-1]] = np.arange(q + 1)  # each axis point's place on the axis

    def swept(index, line_ids, trace):
        """The lines at positions index, with point ids line_ids, that meet
        the axis once and are not C-plane traces, with their keys (place of
        the axis point) npoints + (least other point), which determine them."""
        place = at[line_ids]
        key = place.max(axis=1) * len(at) + np.where(place < 0, line_ids, len(at)).min(axis=1)
        sel = np.flatnonzero((place >= 0).sum(axis=1) == 1)
        sel = sel[~trace[key[sel]]]
        return index[sel], line_ids[sel], key[sel]
    # each C-plane trace meets q member trace lines (checked above), which are
    # disjoint, so its last point lies on the axis
    trace = np.zeros((q + 1) * sigma.npoints, dtype=bool)
    trace[swept(np.arange(len(cline_ids)), cline_ids, trace)[2]] = True
    # (q+1)(q^2+q) lines meet the axis once (the spread partitions PG(3,q)),
    # the C-plane traces among them.  When the lines of level 0 or 1 give
    # all the others, no swept line is crowded; else every line is read.
    sweep, pts, key = swept(*state.directions.low(), trace)
    if len(sweep) != (q + 1) * (q * q + q) - np.count_nonzero(trace):
        parts = []
        for lo, columns in sigma.line_runs(DirectionTable.LINES):
            run = np.stack(columns, axis=1)
            parts.append(swept(lo + np.arange(len(run)), run, trace))
        sweep, pts, key = map(np.concatenate, zip(*parts))
    met = owner[pts]  # q * q on the axis point, masked out below
    crowded = state.directions.line_levels()[sweep] >= 2  # a 3-point plane
    extra = (state.directions.own(pts, np.minimum(met, q * q - 1)) != 1) & (met < q * q)
    bad = np.flatnonzero(crowded | extra.any(axis=1))
    if len(bad):
        # report the first bad line of the enumeration "each axis point V in
        # order, then each other point X by id": least (place of V, min X)
        i = bad[key[bad].argmin()]
        line = _rows_text(sigma.points_np()[pts[i, [0, -1]]])  # its RREF rows, r0 and r1
        if crowded[i]:
            raise StructureViolation(
                "plane through an axis-meeting line carries > 2 points", witness=line)
        cid = int(met[i][np.flatnonzero(extra[i])[0]])
        raise StructureViolation(
            f"plane through point {cid} and an axis-meeting line "
            "carries extra points", witness=line)
    return {
        "lines": q * q + 1,
        "trace_points_per_line": q + 1,
        "points_covered": sigma.npoints,
        "axis_meeting_lines_checked": len(sweep),
    }


def _affine_leads(state, pa, plk):
    """The closure's leads read off the affine plane of Klein residues: (i,
    j) index arrays in lexicographic order, or None where the residues of
    the Plucker points plk modulo pa are not the q^2 points of one."""
    q, f = state.q, state.base
    if len(plk) != q * q:
        return None
    res = reduce_rows_np(f, rref(f, (pa.tolist(),))[0], plk)
    red, rank = rref_np(f, res[None])
    if rank[0] != 3:
        return None
    # a vector of W is its coordinates at the pivot columns of W's RREF
    pts, _ = normalize_rows_np(f, res[:, (red[0, :3] != 0).argmax(axis=1)])
    # PG(2,q) is self-dual: its points are also the duals of its lines
    on = matmul_np(f, state.plane2.points_np(), pts.T) == 0
    counts = on.sum(axis=1)
    if counts.min() or len(_distinct(pts.astype(np.int64) @ q ** np.arange(3))) < q * q:
        return None
    # every line but the empty one holds q points; its two least lead
    members = np.nonzero(on[counts > 0])[1].reshape(-1, q)
    order = np.lexsort((members[:, 1], members[:, 0]))
    return members[order, 0], members[order, 1]


def stage_regulus_closure(state):
    """Greedy closure of the spread lines under the reguli through the axis.

    Pairs (i, j) of non-axis lines are visited in order; one not yet inside
    an accepted regulus must have its regulus with the axis in the spread,
    and that regulus is accepted.

    The stage checks leads, pairs in lexicographic order, in blocks of
    q^2 + q, building the reguli of a block in one batch: the first lead
    that is not skew, or whose regulus leaves the spread, fails.  The leads
    are the group minima of the affine plane of Klein residues where
    _affine_leads finds one, and every pair elsewhere.

    Every pair as a lead gives the pair-by-pair closure's result, as a
    failing pair is never covered.  A covered pair (i, j) lies on an
    accepted regulus R, and R passed.  The axis, i and j are three distinct
    lines of R, so they are pairwise skew, and R is the only regulus through
    them (Hirschfeld 1985).  So the pair passes.  Every failing pair is
    therefore a lead, and the pair-by-pair closure stops exactly at the
    first failing pair.  Where every pair is a lead and none fails, each
    regulus is accepted at its first pair.

    The affine leads.  Under the Klein correspondence the regulus through
    the axis a and skew lines i and j consists of the lines whose Plucker
    points lie on the plane <P(a), P(i), P(j)> (Hirschfeld 1985).  The
    residues R_j of the P(j) modulo P(a) must span a vector space W of rank
    3; read at the pivot columns of W's RREF they are points of the plane
    P(W), a PG(2,q).  Where they are q^2 distinct points and one line of
    P(W) holds none of them, they are the affine plane of that line, and
    every other line holds exactly q of them.  A Klein plane through P(a)
    and two spread lines is the line of P(W) through their residues, so the
    C(q^2, 2) pairs split into q^2 + q groups of C(q, 2), one per full line.
    A lead whose regulus passes covers exactly its group: its q non-axis
    lines are spread lines on its Klein plane, which holds exactly q of
    them.  So the pair-by-pair closure's leads are the group minima, in
    lexicographic order, up to its first failing lead; that is the first
    failing group minimum, and all q^2 + q of them are one block.

    If no pair of q^2 lines fails, _affine_leads applies, so q^2 lines that
    check every pair fail.  With no failing pair, the axis and the q^2
    lines are pairwise skew, so together they are a spread.  Project its
    Klein image from P(a): the residues miss the hyperplane P(a)^perp /
    P(a).  The residues of each regulus through the axis form an affine
    line of q points, and one such line passes through any two residues.
    For q >= 3 a subset of AG(4,q) closed under lines is an affine
    subspace, so the q^2 residues form an affine plane; at q = 2 every
    spread of PG(3,2) is regular.  With fewer than two non-axis lines
    (injected states only) there are no pairs, and the stage passes.
    """
    q, f, spread = state.q, state.base, state.spread
    bases = spread.lines[~spread.is_axis()]
    n = len(bases)
    axis_rows = spread.lines[[spread.axis]]
    spread_keys = _line_key_np(f, spread.lines)
    pa = _plucker_np(f, axis_rows[0, 0], axis_rows[0, 1])
    leads = _affine_leads(state, pa, _plucker_np(f, bases[:, 0], bases[:, 1]))
    li, lj = np.triu_indices(n, 1) if leads is None else leads
    step = q * q + q
    for lo in range(0, max(len(li), 1), step):  # one empty block where there are no pairs
        batch = _regulus_batch(f, axis_rows, bases[li[lo:lo + step]], bases[lj[lo:lo + step]])
        leaves = ~_isin(batch.keys, spread_keys).all(axis=1)
        bad = np.flatnonzero(batch.failed.astype(bool) | leaves)
        if len(bad):
            t = bad[0]
            i, j = int(li[lo + t]), int(lj[lo + t])
            if batch.failed[t]:
                raise _regulus_failure(batch.failed[t], (axis_rows[0], bases[i], bases[j]))
            raise ClosureViolation(
                f"regulus through pair ({i},{j}) leaves the spread",
                witness=_rows_text(bases[i]) + " | " + _rows_text(bases[j]))
    # A pass checks one block: the q^2 + q affine leads, or every pair of
    # fewer than q^2 lines (more are not pairwise skew).  Those lines are
    # closed under the reguli through the axis, so their residues form an
    # affine point or line (q >= 3): at most C(q, 2) < q^2 + q pairs.  At
    # q = 2 they are at most 3 lines.  Each regulus is held as its spanning
    # pairs (2, q+1, 2, 4), lines then opposite.
    reguli = batch.spans.astype(np.int16)
    if leads is None:  # every pair passed; a regulus is accepted at its first
        first = np.unique(np.sort(batch.keys, axis=1), axis=0, return_index=True)[1]
        reguli = reguli[np.sort(first)]
    if state.planes:
        hits = _isin(_line_key_np(f, reguli[:, 1]),
                     _line_key_np(f, state.planes.traces)).sum(axis=1)
        wrong = np.flatnonzero(hits != 1)
        if len(wrong):
            raise StructureViolation(
                f"opposite regulus contains {hits[wrong[0]]} trace lines")
    # There are q^2+q reguli, which is not tested.  A regulus is accepted for
    # a pair that no accepted one covers, and three pairwise skew lines lie
    # in exactly one regulus (Hirschfeld 1985).  So two accepted reguli share
    # the axis and at most one other line, and they cover the C(q^2, 2) pairs
    # of non-axis lines C(q, 2) pairs at a time.
    state.reguli = reguli
    # every pair is visited once: covered, passed over in its group or built
    out = {
        "pairs": n * (n - 1) // 2,
        "passes": n * (n - 1) // 2,
        "distinct_reguli": q * q + q,
    }
    if state.planes:
        out["opposites_with_one_trace_line"] = len(reguli)
    return out


def stage_klein_regularity(state):
    q, f, lines = state.q, state.base, state.spread.lines
    space5 = state.frame.space5
    # The Plucker vector of every line satisfies the Plucker relation
    # p01 p23 - p02 p13 + p03 p12 = 0, so no line's image is tested for
    # lying on the Klein quadric.
    pts = _plucker_np(f, lines[:, 0], lines[:, 1])
    image = _distinct(space5.point_ids(normalize_rows_np(f, pts)[0]))
    red, rank = rref_np(f, pts[None])
    span_dim = int(rank[0]) - 1
    verdict = span_dim == 3
    section = image[:0]
    if verdict:
        # the 3-space's points through its RREF rows, each leading with a 1
        x = _from_intrinsic_np(f, red[0, :4], state.sigma.points_np())
        klein = f.add_np[f.sub_np[f.mul_np[x[:, 0], x[:, 5]], f.mul_np[x[:, 1], x[:, 4]]],
                         f.mul_np[x[:, 2], x[:, 3]]]
        section = np.sort(space5.point_ids(x[klein == 0]))
        verdict = len(section) == q * q + 1 and np.array_equal(section, image)
    # A passing section is a cap, so it is not checked line by line.  It is
    # the section of the Klein quadric Q+(5,q) by a 3-space and has q^2+1
    # points; the other 3-space sections have (q+1)^2, q^2+q+1 or 2q^2+q+1
    # points, so this one is an elliptic quadric Q-(3,q), an ovoid
    # (Hirschfeld 1985).  Directly: for a, b on it, Q(a + tb) = t B(a, b),
    # and B(a, b) != 0 as Q-(3,q) holds no line, so ab meets it in a, b only.
    state.regular = verdict
    counts = {
        "lines_mapped": len(lines),
        "span_dim": span_dim,
        "section_size": len(section),
        "cap": int(verdict),
        "regular": int(verdict),
    }
    if not verdict:
        raise StructureViolation(
            f"spread is not regular (span dimension {span_dim}, "
            f"section {len(section)})")
    return counts


def stage_rebuild_arc(state):
    q, spread, frame = state.q, state.spread, state.frame
    is_axis = spread.is_axis()
    levels, _ = state.directions.levels(state.sigma.line_point_ids(spread.lines).T)
    bad = np.flatnonzero((levels > np.where(is_axis, 0, 1))
                         | (is_axis & (len(state.C) != q * q)))
    if len(bad):
        if not is_axis[bad[0]] or levels[bad[0]] > 0:
            k, witness = _heaviest_plane(state, spread.lines[bad[0]])
            raise NotAnArc(f"plane through a spread line carries {k} points",
                           witness=witness)
        raise NotAnArc("axis planes do not each carry one point")

    counts_out = {"arc_size": q * q + 1, "spread_lines_checked": len(spread.lines),
                  "conic_fit": 0, "alignment_identity": 0}
    if state.regular:
        A = align_spreads(state.sigma, spread, frame.spread)
        is_identity = A == _IDENTITY4
        f = state.base
        arr = state._C_arr
        A_np = np.array(A, dtype=np.int16)
        moved = matmul_np(f, arr[:, :4], A_np)
        up_points = list(map(tuple, frame.points_up(np.column_stack((moved, arr[:, 4]))).tolist()))
        # align_spreads maps every line into the frame's spread, so the
        # axis's image is a frame spread line
        axis_img_rows, _ = rref(f, matmul_np(f, spread.lines[spread.axis], A_np).tolist())
        t_inf_point = frame.linf_point(axis_img_rows)
        # The q^2+1 points are distinct, which is not tested.  C's points are
        # distinct and affine, diag(A, 1) is invertible (align_spreads checks
        # each factor of A), points_up is a bijection on the affine points,
        # and t_inf_point has z = 0.
        arc = sorted(up_points) + [t_inf_point]
        form = conic_through_5(frame.plane, arc[:5])
        off = np.flatnonzero(form.values(np.array(arc, dtype=np.int16)))
        if len(off):
            raise NotAnArc(f"lifted point {arc[off[0]]} is off the fitted conic")
        counts_out["conic_fit"] = 1
        counts_out["alignment_identity"] = int(is_identity)
        if is_identity and state.conic is not None:
            if form.normalized_key() != state.conic.form.normalized_key():
                raise StructureViolation("fitted conic differs from the input conic")
            counts_out["matches_input_conic"] = 1
    return counts_out


_IDENTITY4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def _spread_set(sigma, lines):
    """Graph-matrix coordinates of a spread (line bases) relative to its first lines.

    Writes PG(3,q) as a + b for the two lexicographically least spread lines
    and rescales so the third line is the identity graph; every further line
    becomes {(x, x M)} for an invertible 2x2 matrix M.  For a regular spread
    the matrices together with 0 and the scalars form a field of order q^2.

    Returns (basis_rows, {matrix: line_rows}).
    """
    f = sigma.field
    lines = sorted(lines)
    (u1, u2), (w1, w2), (c1, c2) = lines[:3]
    mc = matrix_inverse(f, (c1, c2, w1, w2))
    if mc is None:
        raise StructureViolation("spread lines are not skew")

    def graph_image(u):
        lam = tuple(f.dot(u, col) for col in zip(*mc))
        return tuple(f.add(f.mul(lam[2], x), f.mul(lam[3], y)) for x, y in zip(w1, w2))

    v1, v2 = graph_image(u1), graph_image(u2)
    basis = (u1, u2, v1, v2)
    binv = matrix_inverse(f, basis)
    if binv is None:
        raise StructureViolation("alignment basis is degenerate")
    mats = {}
    for rows in lines[2:]:
        e = tuple(tuple(f.dot(r, col) for col in zip(*binv)) for r in rows)
        X = ((e[0][0], e[0][1]), (e[1][0], e[1][1]))
        Y = ((e[0][2], e[0][3]), (e[1][2], e[1][3]))
        xinv = matrix_inverse(f, X)
        if xinv is None:
            raise StructureViolation("spread line is not a graph over the base line")
        mats[mat_mul(f, xinv, Y)] = rows
    return basis, mats


def align_spreads(sigma, spread_from, spread_to):
    """A projectivity of PG(3,q) mapping one regular spread onto another.

    Identical spreads map by the identity.  Otherwise both spreads are put
    in graph-matrix form; a regular spread's matrices generate a field
    GF(q^2) inside the 2x2 matrices, and an intertwiner P with
    M_d P = P M_d' conjugates one field onto the other, which carries the
    whole spread across (the field, hence the spread, is generated by any
    non-scalar member).
    """
    f = sigma.field
    from_rows = spread_from.rows_set()
    to_rows = spread_to.rows_set()
    if from_rows == to_rows:
        return _IDENTITY4
    basis_s, mats_s = _spread_set(sigma, from_rows)
    basis_t, mats_t = _spread_set(sigma, to_rows)

    def char_key(m):
        tr = f.add(m[0][0], m[1][1])
        det = f.sub(f.mul(m[0][0], m[1][1]), f.mul(m[0][1], m[1][0]))
        return tr, det

    d = next(m for m in sorted(mats_s)
             if m[0][1] != 0 or m[1][0] != 0 or m[0][0] != m[1][1])
    key = char_key(d)
    candidates = sorted(m for m in mats_t if char_key(m) == key)
    if not candidates:
        raise StructureViolation("no matching generator in the target spread")
    dt = d if d in candidates else candidates[0]

    # solve M_d P = P M_d' for P (2x2); nonzero solutions are invertible
    rows = []
    for i in range(2):
        for j in range(2):
            coeff = [0] * 4
            for k in range(2):
                coeff[k * 2 + j] = f.add(coeff[k * 2 + j], d[i][k])
                coeff[i * 2 + k] = f.sub(coeff[i * 2 + k], dt[k][j])
            rows.append(tuple(coeff))
    sols = nullspace(f, rows)
    if not sols:
        raise StructureViolation("no intertwiner between the spread fields")
    P = ((sols[0][0], sols[0][1]), (sols[0][2], sols[0][3]))
    if matrix_inverse(f, P) is None:
        raise StructureViolation("intertwiner is singular")
    blk = tuple(tuple(P[i % 2][j % 2] if (i < 2) == (j < 2) else 0 for j in range(4))
                for i in range(4))
    A = mat_mul(f, mat_mul(f, matrix_inverse(f, basis_s), blk), basis_t)
    for rows in from_rows:
        img, _ = rref(f, [tuple(f.dot(r, col) for col in zip(*A)) for r in rows])
        if img not in to_rows:
            raise StructureViolation("alignment does not map the spreads onto each other")
    return A


def stage_uniqueness(state):
    # The spread lines partition PG(3,q), so each point has one owner, and
    # a line is a spread line exactly when its first two points have one
    # owner (two points span a line), the axis when two or more of its
    # points lie on the axis, and meets the axis when exactly one does.
    # The partition holds for every spread reaching this stage:
    # assemble_spread's are q^2+1 disjoint lines ((q^2+1)(q+1) points, its
    # overlap check); perturb_spread_by_regulus swaps a regulus for its
    # opposite, which covers the same points; the frame's spread is checked
    # by its _verify.  So q^2 + q lines other than the axis pass
    # through each of its q + 1 points, meeting it there alone, the q^2 other
    # spread lines miss it, and the remaining lines lie outside the spread:
    # these counts are not taken.
    q, spread, sigma = state.q, state.spread, state.sigma
    owner = _spread_owner(sigma, sigma.line_point_ids(spread.lines))

    # opposite reguli of the axis reguli each contain a trace line (checked in
    # the closure stage); here the per-line argument:
    # a plane through a line carries 1 + its level points, below the cap, so
    # only the lines of level 0 or 1 are read
    _, ids = state.directions.low()
    on_axis = (owner == spread.axis)[ids].sum(axis=1)  # points on the axis
    violations = np.flatnonzero((on_axis == 0) & (owner[ids[:, 0]] != owner[ids[:, 1]]))
    if len(violations):
        raise UniquenessViolation(
            "a line outside the spread admits no 3-point plane",
            witness=_rows_text(sigma.points_np()[ids[violations[0], [0, -1]]]))  # r0, r1
    # of the (q^2+1)(q^2+q+1) lines, q^2+1 are spread lines and (q+1)(q^2+q) meet the axis once
    meeting, disjoint_outside = (q + 1) * (q * q + q), q ** 4 - q * q
    out = {
        "lines_disjoint_outside": disjoint_outside,
        "incompatible": disjoint_outside,
        "spread_lines_compatible": q * q + 1,
        "axis_meeting_lines": meeting,
        "axis_meeting_compatible": int(np.count_nonzero(on_axis == 1)),
        "opposites_with_trace_line": len(state.reguli),
    }
    if state.expect_classical:
        match = spread.rows_set() == state.frame.spread.rows_set()
        out["spread_matches_classical"] = int(match)
        if not match:
            raise StructureViolation(
                "reconstructed spread differs from the classical spread")
    return out


# (name, stage, state attributes it needs, state attributes it produces)
PIPELINE = (
    ("axioms", stage_axioms, ("C",), ("planes",)),
    ("parallel_classes", stage_parallel_classes, ("planes",), ("classes",)),
    ("infinity_data", stage_infinity_data, ("classes",), ("classification",)),
    ("t_infinity", stage_t_infinity, ("classification",), ("axis",)),
    ("assemble_spread", stage_assemble_spread, ("axis",), ("spread",)),
    ("regulus_closure", stage_regulus_closure, ("spread",), ("reguli",)),
    ("klein_regularity", stage_klein_regularity, ("spread",), ()),
    ("rebuild_arc", stage_rebuild_arc, ("spread",), ()),
    ("uniqueness", stage_uniqueness, ("spread", "reguli"), ()),
)


def run_stages(state, include=None):
    """Run the pipeline stages in order, gating each on its prerequisites.

    A failing stage is recorded with a witness; stages whose prerequisites
    are missing are recorded as skipped.  In exploratory mode violations are
    downgraded to warnings.
    """
    records = []
    for name, fn, requires, _ in PIPELINE:
        if include is not None and name not in include:
            continue
        if any(getattr(state, attr, None) is None for attr in requires):
            records.append(StageRecord(name=name, verdict=SKIPPED))
            continue
        t0 = time.perf_counter()
        try:
            counts = fn(state)
            verdict, witness = PASS, None
        except _CATCHABLE as exc:
            counts, witness = {}, witness_text(exc)
            verdict = WARN if state.exploratory else FAIL
        ms = (time.perf_counter() - t0) * 1000.0
        records.append(StageRecord(name=name, verdict=verdict, counts=counts,
                                   witness=witness, millis=ms))
    return records


def full_pipeline(C, frame, conic=None, exploratory=False, expect_classical=False):
    """Run every reconstruction stage on a point set; returns (records, state)."""
    state = PipelineState(frame, C, conic=conic, exploratory=exploratory,
                          expect_classical=expect_classical)
    records = run_stages(state)
    return records, state


def make_frame(q, modulus=None):
    """The Bruck-Bose frame of GF(q) in GF(q^2), modulus None for the
    default one.  Frames are shared: one per field, keyed by the resolved
    modulus, is kept for the calls that follow, so it must not be written
    to (its tables and spread are read-only)."""
    p, k = _factor_prime_power(q)
    modulus = default_modulus(p, k) if modulus is None else check_modulus(p, k, modulus)
    return _frame(p, k, modulus)


@functools.lru_cache(maxsize=4)
def _frame(p, k, modulus):
    return build_frame(QuadExtension(Field(p, k, modulus)))


def _factor_prime_power(q):
    p = next((p for p in range(2, q + 1) if q % p == 0), None)  # the least prime factor
    k = 1
    while p and p ** k < q:
        k += 1
    if p is None or p ** k != q:
        raise ValueError(f"{q} is not a prime power")
    return p, k


# ---------------------------------------------------------------------------
# negative-control helpers


def displace_point(frame, C, seed=0):
    """Swap the last point of C for a seed-derived affine point outside C."""
    import random as _random
    rng = _random.Random(seed)
    cset = set(C)
    q = frame.q
    while True:
        cand = frame.space4.normalize(tuple(rng.randrange(q) for _ in range(4)) + (1,))
        if cand not in cset:
            return tuple(sorted(list(C[:-1]) + [cand]))


def perturb_spread_by_regulus(sigma, spread):
    """Replace one regulus of the spread (avoiding the axis) by its opposite.

    The result is still a spread but is no longer regular; used as a
    negative control for the regularity checks.
    """
    rows = [tuple(map(tuple, line)) for line in spread.lines.tolist()]
    axis = rows[spread.axis]
    others = sorted(r for r in rows if r != axis)
    for triple in itertools.combinations(others, 3):
        reg = regulus_from(sigma, *(Subspace(sigma, r) for r in triple))
        reg_rows = {l.rows for l in reg.lines}
        if axis in reg_rows or not reg_rows <= set(rows):
            continue
        keep = [i for i, r in enumerate(rows) if r not in reg_rows]
        lines = np.concatenate((spread.lines[keep],
                                np.array([l.rows for l in reg.opposite], dtype=np.int16)))
        return Spread(lines=lines, axis=keep.index(spread.axis)), reg
    raise RuntimeError("no regulus avoiding the axis found")
