import itertools

import pytest
from hypothesis import settings

from pgconics import reconstruct
from pgconics.galois import Field, QuadExtension
from pgconics.projgeom import Subspace, span
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


def _frame_lines(frame):
    """The frame's spread lines as Subspaces of sigma, in row order."""
    return [Subspace(frame.sigma, tuple(map(tuple, rows)))
            for rows in frame.spread.lines.tolist()]


@pytest.fixture(scope="session")
def frame_lines():
    """_frame_lines: the frame's spread as a list of Subspaces."""
    return _frame_lines


def _reguli_rows(reguli):
    return [([l.rows for l in r.lines], [l.rows for l in r.opposite]) for r in reguli]


def _scalar_transversal(sigma, V, l2, l3):
    """The unique line through V meeting the skew lines l2 and l3."""
    f = sigma.field
    d = span(sigma, [l2, V]).dual()[0]
    r1, r2 = l3.rows
    a, b = f.dot(d, r1), f.dot(d, r2)
    if a == 0 and b == 0:
        raise reconstruct.NotSkew("third line lies in the plane of the first two")
    W = tuple(f.sub(f.mul(b, x), f.mul(a, y)) for x, y in zip(r1, r2))
    return span(sigma, [V, W])


def _scalar_regulus_from(sigma, l1, l2, l3):
    """The regulus through three lines, built point by point with scalar
    field operations, independently of reconstruct's batched construction."""
    for a, b in itertools.combinations((l1, l2, l3), 2):
        if a.meet(b) is not None:
            raise reconstruct.NotSkew(
                f"lines are not pairwise skew: {a.to_text()} / {b.to_text()}")
    opposite = [_scalar_transversal(sigma, V, l2, l3) for V in l1.points()]
    if len({t.rows for t in opposite}) != len(opposite):
        raise reconstruct.NotSkew("transversals are not distinct")
    o1, o2, o3 = opposite[:3]
    lines = [_scalar_transversal(sigma, U, o2, o3) for U in o1.points()]
    rows = {t.rows for t in lines}
    if len(rows) != len(lines):
        raise reconstruct.NotSkew("regulus lines are not distinct")
    if any(l.rows not in rows for l in (l1, l2, l3)):
        raise reconstruct.NotSkew("regulus does not contain its generating lines")
    return reconstruct.Regulus(lines=tuple(sorted(lines)), opposite=tuple(sorted(opposite)))


def _closure_record(state):
    """regulus_closure's verdict, witness, counts and reguli (RREF line rows,
    in the order accepted) on state."""
    state.reguli = None
    rec = reconstruct.run_stages(state, include={"regulus_closure"})[0]
    reguli = None if state.reguli is None else \
        _reguli_rows(reconstruct._reguli(state.sigma, state.reguli))
    return rec.verdict, rec.witness, rec.counts, reguli


def scalar_closure(sigma, spread):
    """(reguli, passes) of the greedy closure, pair by pair: one
    _scalar_regulus_from per open pair of non-axis lines.  It raises at the
    first pair whose lines are not skew (NotSkew) or whose regulus leaves
    the spread (ClosureViolation), with regulus_closure's message and
    witness."""
    def subspace(rows):
        return Subspace(sigma, tuple(map(tuple, rows)))
    axis = subspace(spread.lines[spread.axis].tolist())
    lines = [subspace(rows) for rows in spread.lines[~spread.is_axis()].tolist()]
    rows_set = spread.rows_set()
    idx = {l.rows: i for i, l in enumerate(lines)}  # a repeated line: its last copy
    covered, reguli, passes = set(), [], 0
    for i, j in itertools.combinations(range(len(lines)), 2):
        passes += 1
        if (i, j) in covered:
            continue
        reg = _scalar_regulus_from(sigma, axis, lines[i], lines[j])
        if any(l.rows not in rows_set for l in reg.lines):
            raise reconstruct.ClosureViolation(
                f"regulus through pair ({i},{j}) leaves the spread",
                witness=lines[i].to_text() + " | " + lines[j].to_text())
        reguli.append(reg)
        covered.update(itertools.combinations(sorted(idx[l.rows] for l in reg.lines
                                                     if l.rows in idx), 2))
    return reguli, passes


def _closure_oracle(state):
    """_closure_record's tuple from scalar_closure, with the opposite
    regulus of each accepted regulus holding one trace line."""
    try:
        reguli, passes = scalar_closure(state.sigma, state.spread)
        n = len(state.spread.lines) - 1
        counts = {"pairs": n * (n - 1) // 2, "passes": passes, "distinct_reguli": len(reguli)}
        if state.planes:
            traces = {tuple(map(tuple, rows)) for rows in state.planes.traces.tolist()}
            for r in reguli:
                hits = sum(l.rows in traces for l in r.opposite)
                if hits != 1:
                    raise reconstruct.StructureViolation(
                        f"opposite regulus contains {hits} trace lines")
            counts["opposites_with_one_trace_line"] = len(reguli)
    except reconstruct.CheckViolation as exc:
        witness = f"{type(exc).__name__}: {exc}" + (f" [{exc.witness}]" if exc.witness else "")
        return ("warn" if state.exploratory else "fail"), witness, {}, None
    return "pass", None, counts, _reguli_rows(reguli)


@pytest.fixture(scope="session")
def closure_record():
    """_closure_record, for tests that compare the regulus closure with
    closure_oracle."""
    return _closure_record


@pytest.fixture(scope="session")
def closure_oracle():
    """_closure_oracle: the pair-by-pair closure that closure_record must
    match in verdict, witness, counts and reguli."""
    return _closure_oracle


@pytest.fixture(scope="session")
def reguli_rows():
    """_reguli_rows: reguli as lists of their line rows, then opposite rows."""
    return _reguli_rows


@pytest.fixture(scope="session")
def scalar_regulus_from():
    """_scalar_regulus_from: the scalar regulus construction that
    regulus_from and the closure are compared with."""
    return _scalar_regulus_from
