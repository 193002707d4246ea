"""Forward direction: a tangent conic of PG(2,49) becomes 49 points of PG(4,7).

Builds the coordinate frame, maps the conic's affine points down, and verifies
the incidence properties the reconstruction relies on: 56 planes carrying
7-point arcs, every point pair in exactly one of them, and every other affine
plane point of PG(2,49) on either 0 (interior) or 2 (exterior) of them.
"""

from pgconics import (Field, QuadExtension, build_C, build_frame,
                      canonical_tangent_conic, verify_lemma1, write_c_dump)

frame = build_frame(QuadExtension(Field(7)))
print("frame: PG(2,49) over", frame.ext.ext, "with", len(frame.spread.lines),
      "classical spread lines in the hyperplane at infinity")

conic = canonical_tangent_conic(frame)
print("conic x^2 = yz:", len(conic.points), "points, tangent at", conic.p_inf)

C = build_C(frame, conic)
print("image point set:", len(C), "affine points of PG(4,7); first three:", C[:3])

report = verify_lemma1(frame, conic)
print("\nincidence properties:")
print("  planes found:               ", report.plane_count)
print("  arcs verified:              ", report.arc_checks)
print("  interior points on 0 planes:", report.interior_count)
print("  exterior points on 2 planes:", report.exterior_count)
print("  subplane rebuilds matched:  ", report.spot_checks)

path = "demo-C-q7.txt"
write_c_dump(path, frame, C, seed=0)
print("\npoint dump written to", path, "(reconstruct it with:")
print("  pgconics reconstruct --q 7 --in", path, ")")
