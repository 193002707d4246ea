"""The coordinate bridge between PG(2,q^2) and PG(4,q).

Coordinates are fixed once and for all: in PG(2,q^2) the distinguished line
at infinity is z = 0; in PG(4,q) the hyperplane at infinity is x4 = 0 and is
handled as its own PG(3,q) (coordinates x0..x3).  The classical regular
spread is  { {(x0, x1, (xm)0, (xm)1) : x in GF(q^2)} : m in GF(q^2) }
together with {(0, 0, y0, y1)}, and an affine point (a, b) of PG(2,q^2)
corresponds to (a0, a1, b0, b1, 1).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field

from .projgeom import (ProjectiveSpace, Subspace, matrix_inverse, mat_mul,
                       rref, scan_heavy_planes, span)
from .conics import (DegenerateInput, QuadraticForm, classify_vs_conic, is_arc,
                     tangent_line)


class ClosureOverflow(RuntimeError):
    """Quadrangle closure exceeded the subplane size bound (internal bug guard)."""


class LemmaViolation(AssertionError):
    """A verified combinatorial property failed; carries the offending object."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _cross(f, u, v):
    return (
        f.sub(f.mul(u[1], v[2]), f.mul(u[2], v[1])),
        f.sub(f.mul(u[2], v[0]), f.mul(u[0], v[2])),
        f.sub(f.mul(u[0], v[1]), f.mul(u[1], v[0])),
    )


class BruckBoseFrame:
    """Shared coordinate dictionary: PG(2,q^2), PG(4,q), sigma = PG(3,q), spread."""

    def __init__(self, ext, check=True):
        self.ext = ext
        self.base = ext.base
        self.q = ext.base.q
        self.plane = ProjectiveSpace(2, ext.ext)
        self.space4 = ProjectiveSpace(4, ext.base)
        self.sigma = ProjectiveSpace(3, ext.base)
        self.l_inf = Subspace(self.plane, ((1, 0, 0), (0, 1, 0)))
        self._build_spread()
        if check:
            self._verify()

    def _build_spread(self):
        ext, base, q = self.ext, self.base, self.q
        E = ext.ext
        lines = []
        self.slope_of_line = {}
        self.line_of_slope = {}
        for m in range(E.q):
            wm = E.mul(ext.omega, m)
            rows, _ = rref(base, (
                (1, 0) + ext.decompose(m),
                (0, 1) + ext.decompose(wm),
            ))
            line = Subspace(self.sigma, rows)
            lines.append(line)
            self.slope_of_line[rows] = m
            self.line_of_slope[m] = line
        special = Subspace(self.sigma, ((0, 0, 1, 0), (0, 0, 0, 1)))
        lines.append(special)
        self.slope_of_line[special.rows] = "inf"
        self.line_of_slope["inf"] = special
        self.spread = tuple(lines)

    # -- point correspondences ------------------------------------------------

    def point_down(self, pt):
        """Affine PG(2,q^2) point -> canonical PG(4,q) point."""
        x, y, z = pt
        if z == 0:
            raise ValueError(f"{pt} lies on the line at infinity")
        E = self.ext.ext
        s = E.inv(z)
        a0, a1 = self.ext.decompose(E.mul(x, s))
        b0, b1 = self.ext.decompose(E.mul(y, s))
        return self.space4.normalize((a0, a1, b0, b1, 1))

    def point_up(self, pt):
        """Affine PG(4,q) point -> canonical PG(2,q^2) point."""
        if pt[4] == 0:
            raise ValueError(f"{pt} lies in the hyperplane at infinity")
        f = self.base
        s = f.inv(pt[4])
        a0, a1, b0, b1 = (f.mul(s, x) for x in pt[:4])
        a = self.ext.compose(a0, a1)
        b = self.ext.compose(b0, b1)
        return self.plane.normalize((a, b, 1))

    def linf_point_of_slope(self, m):
        if m == "inf":
            return (0, 1, 0)
        return self.plane.normalize((1, m, 0))

    def slope_of_linf_point(self, pt):
        if pt == (0, 1, 0):
            return "inf"
        if pt[2] != 0 or pt[0] != 1:
            raise ValueError(f"{pt} is not a normalized point of the line at infinity")
        return pt[1]

    def sigma_embed_point(self, pt4):
        return self.space4.normalize(tuple(pt4) + (0,))

    def sigma_slice_point(self, pt5):
        if pt5[4] != 0:
            raise ValueError(f"{pt5} is not at infinity")
        return self.sigma.normalize(pt5[:4])

    def sigma_embed_line(self, line):
        return Subspace(self.space4, tuple(r + (0,) for r in line.rows))

    def sigma_slice_line(self, sub5):
        rows = []
        for r in sub5.rows:
            if r[4] != 0:
                raise ValueError(f"{sub5} is not contained in the hyperplane at infinity")
            rows.append(r[:4])
        return Subspace(self.sigma, tuple(rows))

    def line_down(self, line):
        """PG(2,q^2) line (not the line at infinity) -> affine plane of PG(4,q)."""
        if line == self.l_inf:
            raise ValueError("the line at infinity has no affine plane image")
        inf_meet = line.meet(self.l_inf)
        m = self.slope_of_linf_point(inf_meet.rows[0])
        spread_line = self.line_of_slope[m]
        affine = next(p for p in line.points() if p[2] != 0)
        return span(self.space4, [self.sigma_embed_line(spread_line),
                                  self.point_down(affine)])

    # -- construction checks ---------------------------------------------------

    def _verify(self):
        sig_index = self.sigma.point_index()
        full = (1 << self.sigma.npoints) - 1
        masks = []
        for line in self.spread:
            mask = 0
            for p in line.points():
                mask |= 1 << sig_index[p]
            masks.append(mask)
        cover = 0
        for m in masks:
            if cover & m:
                raise AssertionError("spread lines are not pairwise skew")
            cover |= m
        if cover != full:
            raise AssertionError("spread does not cover the hyperplane at infinity")
        E = self.ext.ext
        for x in range(E.q):
            for y in range(E.q):
                pt = self.plane.normalize((x, y, 1))
                if self.point_up(self.point_down(pt)) != pt:
                    raise AssertionError(f"down/up round trip failed at {pt}")


def build_frame(ext, check=True):
    """Construct and verify the Bruck-Bose coordinate frame for GF(q) in GF(q^2)."""
    return BruckBoseFrame(ext, check=check)


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
    E = frame.ext.ext
    form = QuadraticForm.from_coefficients(frame.plane, (1, 0, 0, 0, 0, E.neg(1)))
    return _conic_from_form(frame, form, seed=0)


def _conic_from_form(frame, form, seed):
    pts = tuple(sorted(form.points()))
    on_linf = [p for p in pts if p[2] == 0]
    if len(on_linf) != 1:
        raise ValueError("conic is not tangent to the line at infinity")
    p_inf = on_linf[0]
    affine = tuple(p for p in pts if p[2] != 0)
    E = frame.ext.ext
    if len(affine) != E.q:
        raise ValueError(f"affine part has {len(affine)} points, expected {E.q}")
    return TangentConic(form=form, p_inf=p_inf, points=pts,
                        affine_points=affine, seed=seed)


def random_tangent_conic(frame, seed):
    """Seed-derived projectivity fixing z = 0 applied to the canonical conic.

    Seed 0 is reserved for the canonical conic itself.
    """
    base_conic = canonical_tangent_conic(frame)
    if seed == 0:
        return base_conic
    E = frame.ext.ext
    rng = random.Random(seed)
    while True:
        a, b, d, e = (rng.randrange(E.q) for _ in range(4))
        if E.sub(E.mul(a, e), E.mul(b, d)) != 0:
            break
    c, ff = rng.randrange(E.q), rng.randrange(E.q)
    g = ((a, b, 0), (d, e, 0), (c, ff, 1))
    ginv = matrix_inverse(E, g)
    ginv_t = tuple(zip(*ginv))
    new_m = mat_mul(E, mat_mul(E, ginv, base_conic.form.matrix), ginv_t)
    form = QuadraticForm(frame.plane, new_m)
    return _conic_from_form(frame, form, seed=seed)


def build_C(frame, conic):
    """Image of the conic's affine part in PG(4,q); exactly q^2 points."""
    pts = sorted(frame.point_down(p) for p in conic.affine_points)
    if len(set(pts)) != frame.q ** 2:
        raise AssertionError("affine conic part did not map to q^2 distinct points")
    return tuple(pts)


# ---------------------------------------------------------------------------
# Baer subplanes


def baer_closure(space, quadrangle, cap=None):
    """Secant-intersection closure of a quadrangle of PG(2,q^2).

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
        duals = {space.normalize(_cross(f, p, r))
                 for p, r in itertools.combinations(sorted(pts), 2)}
        duals = sorted(duals)
        new = set()
        for u, v in itertools.combinations(duals, 2):
            x = _cross(f, u, v)
            if any(x):
                new.add(space.normalize(x))
        if new <= pts:
            return frozenset(pts)
        pts |= new
        if len(pts) > cap:
            raise ClosureOverflow(f"closure reached {len(pts)} > {cap} points")


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
    sub = frame.base
    out = set()
    for pt in ProjectiveSpace(2, sub).points():
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
    pair_coverage_ok: bool
    interior_count: int
    exterior_count: int
    spot_checks: int
    exterior_plane_pairs: dict = dc_field(repr=False, default_factory=dict)


def verify_lemma1(frame, conic, spot_checks=10):
    """Check the three incidence properties of a tangent conic's affine part.

    In PG(4,q): (1) every affine plane on five or more image points carries
    exactly q of them forming an arc, (2) each point pair lies in exactly one
    such plane, (3) affine PG(2,q^2) points off the conic lie on 0 or 2 such
    planes, matching the interior/exterior split by tangent counting.  A
    sample of planes is rebuilt directly as Baer subplanes from a quadrangle.
    """
    q = frame.q
    C = build_C(frame, conic)
    scan = scan_heavy_planes(frame.space4, C, 5)
    if scan.collinear_triple is not None:
        raise LemmaViolation("three image points are collinear",
                             witness=scan.collinear_triple)
    if scan.pair_conflict is not None:
        raise LemmaViolation("a point pair lies in two planes",
                             witness=scan.pair_conflict)
    if scan.uncovered_pairs:
        raise LemmaViolation(f"{scan.uncovered_pairs} point pairs lie in no plane")
    if len(scan.planes) != q * q + q:
        raise LemmaViolation(f"found {len(scan.planes)} planes, expected {q * q + q}")
    arc_checks = 0
    for plane, members in scan.planes:
        if len(members) != q:
            raise LemmaViolation(f"plane carries {len(members)} points, expected {q}",
                                 witness=plane)
        pivots = tuple(next(i for i, x in enumerate(r) if x) for r in plane.rows)
        intr = [tuple(C[k][c] for c in pivots) for k in members]
        ok, witness = is_arc(ProjectiveSpace(2, frame.base), intr)
        if not ok:
            raise LemmaViolation("plane points are not an arc", witness=plane)
        arc_checks += 1

    # part 3: plane counts of affine PG(2,q^2) points vs interior/exterior
    down_count = {}
    for plane, members in scan.planes:
        for p in plane.points():
            if p[4] != 0:
                down_count[p] = down_count.get(p, 0) + 1
    cset = set(C)
    E = frame.ext.ext
    interior = exterior = 0
    plane_ids = {pl.rows: i for i, (pl, _) in enumerate(scan.planes)}
    on_planes = {}
    for plane, members in scan.planes:
        for p in plane.points():
            if p[4] != 0 and p not in cset:
                on_planes.setdefault(p, []).append(plane_ids[plane.rows])
    exterior_pairs = {}
    for x in range(E.q):
        for y in range(E.q):
            pt = frame.plane.normalize((x, y, 1))
            if pt in conic.points:
                continue
            down = frame.point_down(pt)
            k = down_count.get(down, 0)
            try:
                cls = classify_vs_conic(conic.form, pt)
            except DegenerateInput as exc:
                raise LemmaViolation(str(exc), witness=pt) from None
            if k == 0 and cls == "interior":
                interior += 1
            elif k == 2 and cls == "exterior":
                exterior += 1
                exterior_pairs[pt] = tuple(on_planes[down])
            else:
                raise LemmaViolation(
                    f"point {pt} lies on {k} planes but classifies as {cls}",
                    witness=pt)

    done = 0
    plane_space = ProjectiveSpace(2, frame.base)
    for plane, members in sorted(scan.planes)[:spot_checks]:
        A, B = C[members[0]], C[members[1]]
        P, Q = frame.point_up(A), frame.point_up(B)
        t_p = tangent_line(conic.form, P)
        X = t_p.meet(frame.l_inf).rows[0]
        quad = (P, Q, X, conic.p_inf)
        if frame.base.k == 1:
            subplane = baer_closure(frame.plane, quad)
        else:
            subplane = baer_subplane_through(frame, quad)
        down_affine = {frame.point_down(p) for p in subplane if p[2] != 0}
        plane_affine = {p for p in plane.points() if p[4] != 0}
        if down_affine != plane_affine:
            raise LemmaViolation("quadrangle subplane does not match the plane",
                                 witness=plane)
        done += 1

    return Lemma1Report(q=q, plane_count=len(scan.planes), arc_checks=arc_checks,
                        pair_coverage_ok=True, interior_count=interior,
                        exterior_count=exterior, spot_checks=done,
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
