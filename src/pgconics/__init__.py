"""Finite-geometry toolkit: Bruck-Bose representation of PG(2,q^2) in PG(4,q),
spreads and reguli of PG(3,q), and reconstruction of a conic from the
combinatorial footprint of its q^2 affine points.
"""

from .galois import Field, QuadExtension, quadratic_character, verify_field_axioms
from .projgeom import ProjectiveSpace, Subspace, gaussian_binomial, meet, span
from .conics import (CompletionNotUnique, DegenerateInput, NotAnArc, QuadraticForm,
                     classify_vs_conic, complete_q_arc, complete_q_arc_by_secants,
                     conic_through_5, is_arc, tangent_line)
from .bruckbose import (LemmaViolation, build_C, build_frame, canonical_tangent_conic,
                        random_tangent_conic, verify_lemma1, write_c_dump)
from .reconstruct import (CheckViolation, PipelineState, displace_point, full_pipeline,
                          make_frame, perturb_spread_by_regulus, run_stages)
from .report import Report, StageRecord

__version__ = "0.1.0"
