"""Conics, arcs and tangency in a projective plane of odd order.

A quadratic form is kept as a symmetric 3x3 matrix M (odd order makes the
symmetric representative canonical); a point P is on the conic iff
P M P^T = 0 and the tangent line at a conic point has dual coordinates M P.

complete_q_arcs completes a whole stack of q-arcs to their conics on
arrays, with one verdict per arc; the reconstruction fits every plane with
it.  complete_q_arc, the same fit for one arc, words the failure of an arc
the batch rejects, and is the oracle the tests compare the batch against.
"""

from __future__ import annotations

import itertools

import numpy as np

from .projgeom import Subspace, matmul_np, normalize_rows_np, nullspace, rref_np, span


class DegenerateInput(ValueError):
    """Input points do not determine a unique nondegenerate conic."""


class PointNotOnConic(ValueError):
    pass


class NotAnArc(ValueError):
    """A point set that should be an arc has three collinear points."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CompletionNotUnique(ValueError):
    """Arc completion did not produce a single point (corrupted input)."""


def _det3(f, m):
    a, b, c = m[0]
    d, e, g = m[1]
    h, i, j = m[2]
    t1 = f.mul(a, f.sub(f.mul(e, j), f.mul(g, i)))
    t2 = f.mul(b, f.sub(f.mul(d, j), f.mul(g, h)))
    t3 = f.mul(c, f.sub(f.mul(d, i), f.mul(e, h)))
    return f.add(f.sub(t1, t2), t3)


def _half(f):
    """The inverse of the element encoded 2 (of 1 + 1 in a prime field)."""
    return f.inv(2 % f.p if f.k == 1 else 2)


class QuadraticForm:
    """Symmetric 3x3 quadratic form over the plane's field."""

    __slots__ = ("space", "matrix", "_points", "_tangent_duals")

    def __init__(self, space, matrix):
        if space.n != 2:
            raise ValueError("quadratic forms live in a projective plane")
        f = space.field
        matrix = tuple(tuple(x for x in row) for row in matrix)
        for i in range(3):
            for j in range(3):
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError("matrix must be symmetric")
        self.space = space
        self.matrix = matrix
        self._points = None
        self._tangent_duals = None

    @classmethod
    def from_coefficients(cls, space, coeffs):
        """Build from (a, b, c, d, e, f) in a x^2 + b y^2 + c z^2 + d xy + e xz + f yz."""
        fld = space.field
        half = _half(fld)
        a, b, c, d, e, ff = coeffs
        m = (
            (a, fld.mul(half, d), fld.mul(half, e)),
            (fld.mul(half, d), b, fld.mul(half, ff)),
            (fld.mul(half, e), fld.mul(half, ff), c),
        )
        return cls(space, m)

    def coefficients(self):
        m, f = self.matrix, self.space.field
        return (m[0][0], m[1][1], m[2][2],
                f.add(m[0][1], m[0][1]), f.add(m[0][2], m[0][2]),
                f.add(m[1][2], m[1][2]))

    def evaluate(self, pt):
        f = self.space.field
        mp = tuple(f.dot(row, pt) for row in self.matrix)
        return f.dot(pt, mp)

    def values(self, pts):
        """P M P^T for every row P of an int16 array (k, 3), as the monomials
        of P times coefficients(): the diagonal entries and the doubled
        off-diagonal ones, equal to P M P^T in every characteristic."""
        f = self.space.field
        coeffs = np.array(self.coefficients(), dtype=np.int16)[:, None]
        return matmul_np(f, _monomials_np(f, pts), coeffs)[:, 0]

    def polar_dual(self, pt):
        """Dual coordinates M.P of the polar line of pt."""
        f = self.space.field
        return tuple(f.dot(row, pt) for row in self.matrix)

    def is_nondegenerate(self):
        return _det3(self.space.field, self.matrix) != 0

    def points(self):
        """The zeros of the form, in space.points() order.

        P M P^T is evaluated over the space's point array at once.
        """
        if self._points is None:
            pts = self.space.points_np()
            self._points = list(map(tuple, pts[self.values(pts) == 0].tolist()))
        return self._points

    def tangent_duals(self):
        """Dual vectors of the q+1 tangent lines, indexed like points()."""
        if self._tangent_duals is None:
            self._tangent_duals = [self.polar_dual(p) for p in self.points()]
        return self._tangent_duals

    def normalized_key(self):
        """Scalar-invariant fingerprint: first nonzero matrix entry scaled to 1."""
        flat = [x for row in self.matrix for x in row]
        return self.space.normalize(flat)

    def __eq__(self, other):
        return (isinstance(other, QuadraticForm) and self.space == other.space
                and self.normalized_key() == other.normalized_key())

    def __hash__(self):
        return hash((self.space.n, self.normalized_key()))

    def __repr__(self):
        return f"QuadraticForm({self.matrix})"


def _monomials_np(f, pts):
    """The monomials x^2, y^2, z^2, xy, xz, yz of the points (..., 3): (..., 6)."""
    x, y, z = (pts[..., i] for i in range(3))
    mul = f.mul_np
    return np.stack((mul[x, x], mul[y, y], mul[z, z], mul[x, y], mul[x, z], mul[y, z]),
                    axis=-1)


def conic_through_5(space, points):
    """The unique nondegenerate conic through 5 points in general position.

    Raises DegenerateInput when 3 of the points are collinear or the linear
    system does not have a one-dimensional solution space.
    """
    if len(points) != 5:
        raise DegenerateInput(f"need exactly 5 points, got {len(points)}")
    ok, witness = is_arc(space, points)
    if not ok:
        raise DegenerateInput(f"three collinear points: {witness}")
    f = space.field
    sol = nullspace(f, _monomials_np(f, np.array(points, dtype=np.int16)).tolist())
    if len(sol) != 1:
        raise DegenerateInput(f"solution space has dimension {len(sol)}")
    # nullspace returns RREF rows, so the solution is already scaled to a leading 1
    form = QuadraticForm.from_coefficients(space, sol[0])
    if not form.is_nondegenerate():
        raise DegenerateInput("five points lie on a degenerate conic")
    return form


def tangent_line(form, pt):
    """The tangent line of a nondegenerate conic at one of its points."""
    if form.evaluate(pt) != 0:
        raise PointNotOnConic(f"{pt} is not on the conic")
    if not form.is_nondegenerate():
        raise DegenerateInput("tangents require a nondegenerate form")
    dual = form.polar_dual(pt)
    return Subspace(form.space, nullspace(form.space.field, [dual]))


def is_arc(space, points):
    """(True, None) if no three of the points are collinear, else (False, triple).

    The points lie in a plane (3 coordinates): three are collinear when
    their determinant is 0.
    """
    f = space.field
    for triple in itertools.combinations(points, 3):
        if _det3(f, triple) == 0:
            return False, triple
    return True, None


def _raise_if_not_arc(space, points):
    ok, witness = is_arc(space, points)
    if not ok:
        raise NotAnArc(f"three collinear points: {witness}", witness) from None


def complete_q_arc(space, arc):
    """The unique point completing a q-arc of PG(2,q), q odd, to a conic.

    Fits the conic through the first five arc points, checks the whole arc
    lies on it, and returns the one conic point not in the arc.  A
    nondegenerate conic holds no three collinear points, so a point set on
    it is an arc; the full arc test runs only when the fit fails, to raise
    NotAnArc with the first collinear triple.
    """
    q = space.field.q
    if not all(any(p) for p in arc):
        raise NotAnArc("zero vector is not a projective point")
    arc = [space.normalize(p) for p in arc]
    if len(set(arc)) != q:
        raise NotAnArc(f"expected {q} distinct points, got {len(set(arc))}")
    try:
        form = conic_through_5(space, arc[:5])
    except DegenerateInput:
        _raise_if_not_arc(space, arc)
        raise
    on = set(form.points())
    arcset = set(arc)
    if not arcset <= on or len(on) != q + 1:
        _raise_if_not_arc(space, arc)
        raise CompletionNotUnique(
            f"arc does not extend to a single conic (|conic|={len(on)})")
    extra = on - arcset
    if len(extra) != 1:
        raise CompletionNotUnique(f"{len(extra)} completion candidates")
    return next(iter(extra)), form


def complete_q_arcs(space, arcs):
    """complete_q_arc for every arc of an int16 array (n, q, 3) at once.

    Returns (completions (n, 3), forms (n, 3, 3), ok (n,)): ok[i] is whether
    arc i passes every test below, which is whether complete_q_arc completes
    it, and then completions[i] and forms[i] are the completion point and
    the conic's matrix that complete_q_arc gives, element for element.  The
    rows of an arc that fails hold no meaning.
    """
    f, q = space.field, space.field.q
    n = len(arcs)
    flat, zero = normalize_rows_np(f, np.asarray(arcs, dtype=np.int16).reshape(-1, 3))
    ids = space.point_ids(flat).reshape(n, q)  # negative on a zero row, which fails
    ordered = np.sort(ids, axis=1)
    ok = ~zero.reshape(n, q).any(axis=1) & (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
    # The conic through the first five points, as conic_through_5 fits it:
    # the one-dimensional nullspace of the monomial system, read from its
    # RREF (1 on the free column, minus that column on the pivots) and
    # scaled to a leading 1.
    red, rank = rref_np(f, _monomials_np(f, flat.reshape(n, q, 3)[:, :5]))
    ok &= rank == 5
    k = np.arange(n)[:, None]
    pivots = (red != 0).argmax(axis=2)
    # the column of 0..5 not a pivot; clipped where the rank is below 5
    free = np.minimum(15 - pivots.sum(axis=1, keepdims=True), 5)
    sol = np.zeros((n, 6), dtype=np.int16)
    sol[k, free] = 1
    sol[k, pivots] = f.neg_np[red[k, np.arange(red.shape[1]), free]]  # q < 5: fewer rows
    a, b, c, d, e, g = normalize_rows_np(f, sol)[0].T
    # the matrix of QuadraticForm.from_coefficients, then its coefficients()
    hd, he, hg = f.mul_np[_half(f), np.stack((d, e, g))]
    forms = np.stack((a, hd, he, hd, b, hg, he, hg, c), axis=1).reshape(n, 3, 3)
    coeffs = np.stack((a, b, c, f.add_np[hd, hd], f.add_np[he, he], f.add_np[hg, hg]), axis=1)
    pts = space.points_np()
    # sum of coefficient * monomial is P M P^T, exactly, in any field
    on = matmul_np(f, coeffs, _monomials_np(f, pts).T) == 0
    ok &= (on.sum(axis=1) == q + 1) & on[k, ids].all(axis=1)
    # conic_through_5's tests of the five points (no three collinear) and
    # of the conic (det M != 0) are implied.  A form with q+1 zeros and
    # det M = 0 vanishes on a line: at odd q it is a repeated line, and at
    # even q every form evaluated here is the square of a linear form.  That
    # line would hold all q arc points, the first five among them, and the
    # conics through five collinear points contain their line, leaving rank
    # 3, not 5.  So the conic is nondegenerate and holds no three collinear
    # points.
    on[k, ids] = False
    return pts[on.argmax(axis=1)], forms, ok


def complete_q_arc_by_secants(space, arc):
    """Independent completion oracle: the point lying on no secant of the arc."""
    arc = [space.normalize(p) for p in arc]
    arcset = set(arc)
    on_secant = set(arcset)
    for a, b in itertools.combinations(arc, 2):
        on_secant.update(span(space, [a, b]).points())
    candidates = [p for p in space.points() if p not in on_secant]
    if len(candidates) != 1:
        raise CompletionNotUnique(f"{len(candidates)} secant-free points")
    return candidates[0]


def classify_vs_conic(form, pt):
    """"on", "exterior" (2 tangents through pt) or "interior" (0 tangents)."""
    f = form.space.field
    if form.evaluate(pt) == 0:
        return "on"
    hits = sum(1 for dual in form.tangent_duals() if f.dot(dual, pt) == 0)
    if hits == 2:
        return "exterior"
    if hits == 0:
        return "interior"
    raise DegenerateInput(f"{pt} lies on {hits} tangents")
