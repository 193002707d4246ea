"""The coordinate bridge between PG(2,q^2) and PG(4,q).

Coordinates are fixed once and for all: in PG(2,q^2) the distinguished line
at infinity is z = 0; in PG(4,q) the hyperplane at infinity is x4 = 0 and is
handled as its own PG(3,q) (coordinates x0..x3).  The classical regular
spread is  { {(x0, x1, (xm)0, (xm)1) : x in GF(q^2)} : m in GF(q^2) }
together with {(0, 0, y0, y1)}, and an affine point (a, b) of PG(2,q^2)
corresponds to (a0, a1, b0, b1, 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from .projgeom import (ProjectiveSpace, Subspace, matrix_inverse, mat_mul, matmul_np,
                       normalize_rows_np, nullspace)
from .conics import QuadraticForm, is_arc, tangent_line


class LemmaViolation(AssertionError):
    """A verified combinatorial property failed; carries the offending object."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class Spread:
    """Lines of PG(3,q) as RREF bases (n, 2, 4) int16, the axis at row axis."""
    lines: np.ndarray
    axis: int

    def is_axis(self):
        """Which lines equal the axis, (n,) bool."""
        return (self.lines == self.lines[self.axis]).all(axis=(1, 2))

    def rows_set(self):
        return {tuple(map(tuple, rows)) for rows in self.lines.tolist()}


class BruckBoseFrame:
    """Shared coordinate dictionary: PG(2,q^2), PG(4,q), sigma = PG(3,q), spread.

    Also PG(2,q) and PG(5,q), whose point tables the pipeline reads.  Each
    space builds its tables on first use and keeps them, so a frame that
    serves many calls builds them once."""

    def __init__(self, ext):
        self.ext = ext
        self.base = ext.base
        self.q = ext.base.q
        self.plane = ProjectiveSpace(2, ext.ext)
        self.space4 = ProjectiveSpace(4, ext.base)
        self.sigma = ProjectiveSpace(3, ext.base)
        self.plane2 = ProjectiveSpace(2, ext.base)  # plane coordinates of PG(4,q)'s planes
        self.space5 = ProjectiveSpace(5, ext.base)  # the Klein quadric's space
        self.l_inf = Subspace(self.plane, ((1, 0, 0), (0, 1, 0)))
        self._build_spread()
        self._verify()

    def _build_spread(self):
        ext, E = self.ext, self.ext.ext
        # Row m is the spread line {(x, x*m)} of GF(q^2)^2 as GF(q)^4: the
        # images of x = 1 and x = w.  These rows are already in RREF, whatever
        # m is: their pivots are 1 in columns 0 and 1, and each row is 0 in
        # the other's pivot column.  The axis x = 0 is row q^2.
        m = np.arange(E.q)
        lines = np.zeros((E.q + 1, 2, 4), dtype=np.int16)
        lines[:-1, 0, 0] = lines[:-1, 1, 1] = 1
        lines[:-1, 0, 2:] = np.column_stack(ext.decompose(m))
        lines[:-1, 1, 2:] = np.column_stack(ext.decompose(E.mul_np[ext.omega, m]))
        lines[-1] = ((0, 0, 1, 0), (0, 0, 0, 1))
        lines.flags.writeable = False
        self.spread = Spread(lines=lines, axis=E.q)

    # -- point correspondences ------------------------------------------------

    def point_up(self, pt):
        """Affine PG(4,q) point -> canonical PG(2,q^2) point."""
        return tuple(self.points_up([pt])[0].tolist())

    def points_down(self, pts):
        """Affine PG(2,q^2) points (k, 3) -> canonical PG(4,q) points (k, 5).

        (x, y, 1) goes to (x0, x1, y0, y1, 1), normalized, for x = x0 + x1 w.
        """
        pts = np.asarray(pts, dtype=np.int16).reshape(-1, 3)
        at_inf = np.flatnonzero(pts[:, 2] == 0)
        if len(at_inf):
            raise ValueError(f"{tuple(pts[at_inf[0]].tolist())} lies on the line at infinity")
        E = self.ext.ext
        xy = E.mul_np[E.inv_np[pts[:, 2:]], pts[:, :2]]
        out = np.ones((len(pts), 5), dtype=np.int16)
        out[:, 0:4:2], out[:, 1:4:2] = self.ext.decompose(xy)
        return normalize_rows_np(self.base, out)[0]

    def points_up(self, pts):
        """Affine PG(4,q) points (k, 5) -> canonical PG(2,q^2) points (k, 3)."""
        pts = np.asarray(pts, dtype=np.int16).reshape(-1, 5)
        at_inf = np.flatnonzero(pts[:, 4] == 0)
        if len(at_inf):
            raise ValueError(
                f"{tuple(pts[at_inf[0]].tolist())} lies in the hyperplane at infinity")
        f = self.base
        a = f.mul_np[f.inv_np[pts[:, 4:]], pts[:, :4]]
        out = np.ones((len(pts), 3), dtype=np.int16)
        out[:, :2] = self.ext.compose(a[:, 0:4:2], a[:, 1:4:2])
        return normalize_rows_np(self.ext.ext, out)[0]

    def affine_plane_points(self):
        """The affine points (x, y, 1) of PG(2,q^2), normalized, x-major: (q^4, 3)."""
        E = self.ext.ext
        xy = np.indices((E.q, E.q), dtype=np.int16).reshape(2, -1).T
        return normalize_rows_np(E, np.column_stack((xy, np.ones(len(xy), np.int16))))[0]

    def linf_point(self, rows):
        """The point of l_inf whose spread line has RREF rows (2, 4): (1, m, 0)
        for the line of slope m, (0, 1, 0) for the axis."""
        r0 = rows[0]
        if r0[0] == 0:
            return (0, 1, 0)
        return (1, int(self.ext.compose(r0[2], r0[3])), 0)

    # -- construction checks ---------------------------------------------------

    def _verify(self):
        counts = np.bincount(self.sigma.line_point_ids(self.spread.lines).ravel(),
                             minlength=self.sigma.npoints)
        if (counts > 1).any():
            raise AssertionError("spread lines are not pairwise skew")
        if (counts == 0).any():
            raise AssertionError("spread does not cover the hyperplane at infinity")
        # points_down scales (dec x, dec y, 1) by some lambda^-1 of GF(q), so
        # its last coordinate is lambda^-1, and points_up multiplies by that
        # coordinate's inverse lambda: it gets (dec x, dec y) back whenever
        # the GF(q) tables form a field (verify_field_axioms checks them).
        # So every affine point of PG(2,q^2) comes back from the round trip
        # exactly when compose(decompose(z)) = z for every code z of GF(q^2).
        z = np.arange(self.ext.ext.q)
        bad = np.flatnonzero(self.ext.compose(*self.ext.decompose(z)) != z)
        if len(bad):
            raise AssertionError(f"compose/decompose round trip failed at {bad[0]}")


def build_frame(ext):
    """Construct and verify the Bruck-Bose coordinate frame for GF(q) in GF(q^2)."""
    return BruckBoseFrame(ext)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TangentConic:
    """Nondegenerate conic of PG(2,q^2) tangent to the line at infinity."""

    form: QuadraticForm
    p_inf: tuple
    points: tuple
    affine_points: tuple
    seed: int = 0


def canonical_tangent_conic(frame):
    """The conic x^2 = yz: points {(t, t^2, 1)} plus (0, 1, 0)."""
    return random_tangent_conic(frame, 0)


def random_tangent_conic(frame, seed):
    """The canonical conic's image P -> P g under a seed-derived projectivity
    g fixing z = 0, listed from the parametrization (t, t^2, 1), (0, 1, 0).

    Seed 0 is reserved for the canonical conic itself.  g fixes the line
    z = 0, the tangent at (0, 1, 0), so the image is tangent to it at
    (0, 1, 0) g, and its other q^2 points are affine: neither is tested.
    """
    E = frame.ext.ext
    t = np.arange(E.q, dtype=np.int16)
    pts = np.vstack((np.column_stack((t, E.mul_np[t, t], np.ones_like(t))),
                     np.array([(0, 1, 0)], dtype=np.int16)))
    form = QuadraticForm.from_coefficients(frame.plane, (1, 0, 0, 0, 0, E.neg(1)))
    if seed != 0:
        rng = random.Random(seed)
        while True:
            a, b, d, e = (rng.randrange(E.q) for _ in range(4))
            if E.sub(E.mul(a, e), E.mul(b, d)) != 0:
                break
        c, ff = rng.randrange(E.q), rng.randrange(E.q)
        g = ((a, b, 0), (d, e, 0), (c, ff, 1))
        pts = matmul_np(E, pts, np.array(g, dtype=np.int16))
        # Q(P g^-1) vanishes on the image: its matrix is g^-1 A g^-T
        ginv = matrix_inverse(E, g)
        form = QuadraticForm(frame.plane, mat_mul(E, mat_mul(E, ginv, form.matrix),
                                                  tuple(zip(*ginv))))
    pts = tuple(sorted(map(tuple, normalize_rows_np(E, pts)[0].tolist())))
    return TangentConic(form=form, p_inf=next(p for p in pts if p[2] == 0), points=pts,
                        affine_points=tuple(p for p in pts if p[2] != 0), seed=seed)


def build_C(frame, conic):
    """Image of the conic's affine part in PG(4,q); exactly q^2 points."""
    pts = sorted(map(tuple, frame.points_down(conic.affine_points).tolist()))
    if len(set(pts)) != frame.q ** 2:
        raise AssertionError("affine conic part did not map to q^2 distinct points")
    return tuple(pts)


# ---------------------------------------------------------------------------
# Baer subplanes


def baer_subplane_through(frame, quadrangle):
    """The unique Baer subplane through a quadrangle, via a frame projectivity.

    Maps the standard frame e1, e2, e3, e1+e2+e3 onto the quadrangle and
    pushes the canonical GF(q)-subplane through the map.  Works for every
    prime power q, unlike the secant closure, which can stall on a proper
    subplane when q is not prime.
    """
    E = frame.ext.ext
    plane = frame.plane
    p1, p2, p3, p4 = (plane.normalize(p) for p in quadrangle)
    ok, witness = is_arc(plane, [p1, p2, p3, p4])
    if not ok:
        raise ValueError(f"three collinear points: {witness}")
    m = (p1, p2, p3)
    minv = matrix_inverse(E, m)
    lam = tuple(E.dot(p4, col) for col in zip(*minv))
    if 0 in lam:
        raise ValueError("quadrangle is degenerate")
    g = tuple(tuple(E.mul(lam[i], x) for x in m[i]) for i in range(3))
    out = set()
    for pt in frame.plane2.points():
        img = tuple(E.dot(pt, col) for col in zip(*g))
        out.add(plane.normalize(img))
    return frozenset(out)


# ---------------------------------------------------------------------------
# forward verification of the conic's combinatorial properties


@dataclass
class Lemma1Report:
    q: int
    plane_count: int
    arc_checks: int
    interior_count: int
    exterior_count: int
    spot_checks: int
    exterior_plane_pairs: dict = dc_field(repr=False, default_factory=dict)


def _tangent_counts(frame, conic, pts):
    """The number of tangents of a conic of PG(2,q^2) through each of pts (k, 3).

    For q odd it is 0 at an interior point, 1 on the conic and 2 at an
    exterior point: one table of the points on the tangent lines at the
    q^2+1 conic points.
    """
    plane = frame.plane
    tangents = [nullspace(frame.ext.ext, [conic.form.polar_dual(p)]) for p in conic.points]
    hits = np.bincount(plane.line_point_ids(tangents).ravel(), minlength=plane.npoints)
    return hits[plane.point_ids(pts)]


def verify_lemma1(frame, conic, spot_checks=10):
    """Check the three incidence properties of a tangent conic's affine part.

    In PG(4,q): (1) every affine plane on five or more image points carries
    exactly q of them forming an arc, (2) each point pair lies in exactly one
    such plane, (3) affine PG(2,q^2) points off the conic lie on 0 or 2 such
    planes, matching the interior/exterior split by tangent counting.  The
    reconstruction's axioms stage checks (1)-(3).  A sample of planes is
    rebuilt directly as Baer subplanes from a quadrangle.
    """
    from .reconstruct import CheckViolation, PipelineState, stage_axioms  # imports this module

    state = PipelineState(frame, build_C(frame, conic))
    try:
        stage_axioms(state)
    except CheckViolation as exc:
        raise LemmaViolation(str(exc), witness=exc.witness) from None
    C, planes = state.C, state.planes

    # part 3: plane counts of affine PG(2,q^2) points vs interior/exterior
    pts = frame.affine_plane_points()
    hits = _tangent_counts(frame, conic, pts)
    down = frame.space4.point_ids(frame.points_down(pts))
    k = state.affine_plane_counts[down]
    off = ~np.isin(frame.plane.point_ids(pts), frame.plane.point_ids(np.array(conic.points)))
    interior = off & (hits == 0) & (k == 0)
    exterior = off & (hits == 2) & (k == 2)
    bad = np.flatnonzero(off & ~interior & ~exterior)
    if len(bad):
        pt, h = tuple(pts[bad[0]].tolist()), hits[bad[0]]
        if h > 2:
            raise LemmaViolation(f"{pt} lies on {h} tangents", witness=pt)
        cls = ("interior", "on", "exterior")[h]
        raise LemmaViolation(f"point {pt} lies on {k[bad[0]]} planes but classifies as {cls}",
                             witness=pt)
    # the two planes of each exterior point, ascending: a stable sort of the
    # plane-major point ids keeps each point's planes in plane order
    ids = state.plane_point_ids
    order = np.argsort(ids, axis=None, kind="stable")
    at = np.searchsorted(ids.ravel()[order], down[exterior])
    pid = order // ids.shape[1]
    exterior_pairs = dict(zip(map(tuple, pts[exterior].tolist()),
                              map(tuple, np.column_stack((pid[at], pid[at + 1])).tolist())))

    done = 0
    for pid in sorted(range(len(planes)), key=lambda p: planes.bases[p].tolist())[:spot_checks]:
        A, B = C[planes.members[pid, 0]], C[planes.members[pid, 1]]
        P, Q = frame.point_up(A), frame.point_up(B)
        t_p = tangent_line(conic.form, P)
        X = t_p.meet(frame.l_inf).rows[0]
        subplane = baer_subplane_through(frame, (P, Q, X, conic.p_inf))
        down_affine = set(map(tuple, frame.points_down(
            [p for p in subplane if p[2] != 0]).tolist()))
        plane = Subspace(frame.space4, tuple(map(tuple, planes.bases[pid].tolist())))
        plane_affine = {p for p in plane.points() if p[4] != 0}
        if down_affine != plane_affine:
            raise LemmaViolation("quadrangle subplane does not match the plane",
                                 witness=plane)
        done += 1

    return Lemma1Report(q=frame.q, plane_count=len(planes), arc_checks=len(planes),
                        interior_count=int(interior.sum()),
                        exterior_count=int(exterior.sum()), spot_checks=done,
                        exterior_plane_pairs=exterior_pairs)


# ---------------------------------------------------------------------------
# dump format: one PG(4,q) point per line, canonical normalization


def write_c_dump(path, frame, points, seed):
    mod = frame.base.modulus
    lines = [f"q={frame.q} poly={','.join(map(str, mod))} seed={seed}"]
    for p in points:
        lines.append(",".join(str(x) for x in p))
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text
