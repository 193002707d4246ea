"""The full reconstruction pipeline, stage by stage.

Starting from the 49 image points alone (no knowledge of the conic), the
pipeline discovers the planes, classifies the hyperplane at infinity,
assembles the spread from tangent trace lines, certifies regularity two
independent ways, rebuilds the translation plane, fits the conic, and
certifies that no other spread is compatible.
"""

from pgconics import (Field, QuadExtension, build_C, build_frame,
                      canonical_tangent_conic, full_pipeline)

frame = build_frame(QuadExtension(Field(7)))
conic = canonical_tangent_conic(frame)
C = build_C(frame, conic)

records, state = full_pipeline(C, frame=frame, conic=conic, expect_classical=True)
width = max(len(r.name) for r in records)
for r in records:
    counts = " ".join(f"{k}={v}" for k, v in r.counts.items())
    print(f"[{r.verdict:>4}] {r.name:<{width}} {r.millis:8.1f} ms  {counts}")

print("\nreconstructed spread equals the classical one:",
      state.spread.rows_set() == frame.spread.rows_set())
# rebuild_arc compares the conic it fits with the input conic, and fails if they differ
rebuild = next(r for r in records if r.name == "rebuild_arc")
print("fitted conic equals the input conic:",
      rebuild.counts.get("matches_input_conic") == 1)
