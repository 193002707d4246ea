"""What failure looks like: corrupted inputs must fail loudly, with witnesses.

Three controls: a displaced point breaks the incidence axioms; replacing one
regulus of the classical spread by its opposite breaks regularity (caught by
both independent checks); a corrupted point set fed straight to the plane
rebuild yields a three-point plane witness.
"""

from pgconics import (Field, QuadExtension, PipelineState, build_C, build_frame,
                      canonical_tangent_conic, displace_point, full_pipeline,
                      perturb_spread_by_regulus, run_stages)

frame = build_frame(QuadExtension(Field(7)))
conic = canonical_tangent_conic(frame)
C = build_C(frame, conic)

print("-- control 1: one point displaced --")
bad = displace_point(frame, C, seed=1)
records, _ = full_pipeline(bad, frame=frame)
for r in records:
    if r.verdict != "skipped":
        print(f"  [{r.verdict}] {r.name}" + (f": {r.witness}" if r.witness else ""))

print("\n-- control 2: one regulus of the classical spread flipped --")
spread, regulus = perturb_spread_by_regulus(frame.sigma, frame.spread)
state = PipelineState(frame, C)
state.spread = spread
for r in run_stages(state, include={"regulus_closure", "klein_regularity"}):
    print(f"  [{r.verdict}] {r.name}: {r.witness}")

print("\n-- control 3: corrupted points against the classical spread --")
state = PipelineState(frame, displace_point(frame, C, seed=2))
state.spread = frame.spread
state.regular = True
for r in run_stages(state, include={"rebuild_arc"}):
    print(f"  [{r.verdict}] {r.name}: {r.witness}")
