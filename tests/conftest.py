import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from pgconics import reconstruct
from pgconics.galois import Field, QuadExtension
from pgconics.bruckbose import build_frame, canonical_tangent_conic, build_C
from pgconics.reconstruct import full_pipeline

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic; the pipeline's run time varies, so no per-example deadline.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def gf7():
    return Field(7)


@pytest.fixture(scope="session")
def gf9():
    return Field(3, 2)


@pytest.fixture(scope="session")
def ext7(gf7):
    return QuadExtension(gf7)


@pytest.fixture(scope="session")
def frame7(ext7):
    return build_frame(ext7)


@pytest.fixture(scope="session")
def conic7(frame7):
    return canonical_tangent_conic(frame7)


@pytest.fixture(scope="session")
def c7(frame7, conic7):
    return build_C(frame7, conic7)


@pytest.fixture(scope="session")
def run7(frame7, conic7, c7):
    """Full q=7 round trip on the canonical conic: (records, state)."""
    return full_pipeline(c7, frame=frame7, conic=conic7, expect_classical=True)


@pytest.fixture(scope="session")
def frame9(gf9):
    return build_frame(QuadExtension(gf9))


def _closure_record(state, unpruned=False):
    """regulus_closure's verdict, witness, counts and reguli on state;
    unpruned, every open pair of a row is its own group, as before the rows
    were grouped by Klein plane."""
    state.reguli = None
    with mock.patch.object(reconstruct, "_klein_plane_codes",
                           lambda f, pa, pi, pj: np.arange(1, len(pj) + 1)) if unpruned \
            else contextlib.nullcontext():
        rec = reconstruct.run_stages(state, include={"regulus_closure"})[0]
    reguli = None if state.reguli is None else state.reguli.tolist()
    return rec.verdict, rec.witness, rec.counts, reguli


@pytest.fixture(scope="session")
def closure_record():
    """_closure_record, for tests that compare the pruned regulus closure
    with the unpruned one."""
    return _closure_record
