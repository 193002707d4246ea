"""Finite-geometry toolkit: Bruck-Bose representation of PG(2,q^2) in PG(4,q),
spreads and reguli of PG(3,q), and reconstruction of a conic from the
combinatorial footprint of its q^2 affine points.
"""

from .galois import (DivisionByZero, Field, QuadExtension, quadratic_character,
                     verify_field_axioms)
from .projgeom import (AmbientMismatch, ProjectiveSpace, Subspace,
                       gaussian_binomial, meet, span)
from .conics import (CompletionNotUnique, DegenerateInput, NotAnArc,
                     PointNotOnConic, QuadraticForm, classify_vs_conic,
                     complete_q_arc, complete_q_arc_by_secants,
                     conic_through_5, is_arc, tangent_line)
from .bruckbose import (BruckBoseFrame, ClosureOverflow, LemmaViolation,
                        TangentConic, baer_closure, baer_subplane_through,
                        build_C, build_frame, canonical_tangent_conic,
                        random_tangent_conic, verify_lemma1, write_c_dump)
from .reconstruct import (Axiom1Violation, Axiom2Violation, Axiom3Violation,
                          CheckViolation, ClosureViolation, NotCollinear,
                          NotSkew, PipelineState, Regulus,
                          SigmaClassification, Spread, SpreadViolation,
                          StructureViolation, TangentDegenerate,
                          UniquenessViolation, align_spreads, classical_spread,
                          displace_point, full_pipeline, make_frame,
                          perturb_spread_by_regulus, plucker, regulus_from,
                          run_stages, tangent_trace)
from .report import Report, StageRecord

__version__ = "0.1.0"
