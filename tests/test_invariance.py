"""The verdict depends on the geometry, not the coordinates.

A collineation x -> x [[A, 0], [t, 1]] of PG(4,q), A invertible over GF(q)
and t a vector, fixes the hyperplane at infinity x4 = 0.  It maps a regular
spread of that hyperplane to a regular spread and the image of a conic to the
image of a conic (Bruck-Bose), and it maps an input with displaced points to
an input with as many displaced points.  So `reconstruct` must give the image
of a dump the same exit code, the same stage verdicts and the same counts as
the dump itself.  The one exception is rebuild_arc's alignment_identity,
which records whether the spread found is the frame's classical one.
"""

import contextlib
import io
import json
import os
import random
import tempfile

from hypothesis import example, given, settings, strategies as st

from pgconics.bruckbose import build_C, random_tangent_conic, write_c_dump
from pgconics.cli import main
from pgconics.projgeom import mat_mul, matrix_inverse
from pgconics.reconstruct import make_frame


def collineation(q, rng):
    """The 5 x 5 matrix [[A, 0], [t, 1]] for a random invertible 4 x 4 A."""
    f = make_frame(q).base
    while True:
        A = [[rng.randrange(q) for _ in range(4)] for _ in range(4)]
        if matrix_inverse(f, A) is not None:
            break
    t = [rng.randrange(q) for _ in range(4)]
    return [row + [0] for row in A] + [t + [1]]


def displaced_input(q, seed, displaced, rng):
    """The image of the seed's conic with `displaced` points swapped for
    affine points off it, sorted."""
    frame = make_frame(q)
    C = list(build_C(frame, random_tangent_conic(frame, seed)))
    taken = set(C)
    for i in rng.sample(range(len(C)), displaced):
        while True:
            cand = frame.space4.normalize(tuple(rng.randrange(q) for _ in range(4)) + (1,))
            if cand not in taken:
                break
        taken.add(cand)
        C[i] = cand
    return sorted(C)


def apply(q, C, M):
    space = make_frame(q).space4
    return sorted(space.normalize(x) for x in mat_mul(space.field, C, M))


def reconstruct(q, C):
    """Exit code and (name, verdict, counts) of each stage of `reconstruct`
    on a dump of C, alignment_identity left out."""
    frame = make_frame(q)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.txt")
        write_c_dump(path, frame, C, 0)
        argv = ["reconstruct", "--q", str(q), "--in", path, "--threads", "1"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + (["--exploratory"] if q < 7 else []))
    stages = json.loads(out.getvalue())["stages"]
    for s in stages:
        s["counts"].pop("alignment_identity", None)
    return code, [(s["name"], s["verdict"], s["counts"]) for s in stages]


@settings(max_examples=24)
@given(st.sampled_from([5, 7, 9]), st.integers(0, 16), st.integers(0, 3),
       st.integers(0, 2 ** 32))
@example(7, 0, 0, 0)
@example(9, 5, 0, 1)
@example(5, 3, 0, 2)
@example(7, 1, 1, 3)
@example(9, 2, 2, 4)
@example(7, 16, 3, 5)
@example(5, 0, 1, 6)
def test_verdict_is_invariant_under_collineations(q, seed, displaced, map_seed):
    """Conic images (displaced = 0) and inputs with 1-3 displaced points;
    map_seed draws the displaced points and the collineation."""
    rng = random.Random(map_seed)
    C = displaced_input(q, seed, displaced, rng)
    image = apply(q, C, collineation(q, rng))
    assert len(set(image)) == len(C) and all(x[4] for x in image)
    code, stages = reconstruct(q, C)
    assert code == (0 if displaced == 0 or q < 7 else 1)
    assert reconstruct(q, image) == (code, stages)
