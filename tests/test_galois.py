import numpy as np
import pytest
from hypothesis import given, strategies as st

from pgconics.galois import (DivisionByZero, Field, QuadExtension, default_modulus,
                             is_irreducible, quadratic_character,
                             verify_field_axioms)


def test_prime_field_arithmetic(gf7):
    assert gf7.mul(3, 5) == 1
    assert gf7.inv(4) == 2
    assert gf7.add(5, 4) == 2
    assert gf7.sub(2, 5) == 4
    assert gf7.neg(3) == 4
    assert gf7.pow(3, 6) == 1
    assert gf7.div(1, 4) == 2


def test_gf9_multiplication(gf9):
    # GF(9) = GF(3)[x]/(x^2+1); the class of x has code 3 and x*x = -1 = 2
    assert gf9.modulus == (1, 0, 1)
    assert gf9.mul(3, 3) == 2


@pytest.mark.parametrize("build", [
    lambda: Field(7), lambda: Field(3, 2), lambda: Field(11), lambda: Field(13),
    lambda: QuadExtension(Field(7)).ext, lambda: QuadExtension(Field(3, 2)).ext,
    lambda: QuadExtension(Field(11)).ext, lambda: QuadExtension(Field(13)).ext,
])
def test_field_axioms_exhaustive(build):
    field = build()
    checks = verify_field_axioms(field)
    assert all(checks.values()), checks


def test_division_by_zero(gf7):
    with pytest.raises(DivisionByZero):
        gf7.inv(0)
    with pytest.raises(DivisionByZero):
        gf7.div(3, 0)


def test_quadratic_character(gf7):
    assert quadratic_character(gf7, 2) == "square"   # 3^2 = 2 mod 7
    assert quadratic_character(gf7, 3) == "nonsquare"
    assert quadratic_character(gf7, 0) == "zero"
    # brute-force oracle: squares mod 7
    squares = {gf7.mul(x, x) for x in range(1, 7)}
    assert squares == {1, 2, 4}
    for a in range(1, 7):
        expect = "square" if a in squares else "nonsquare"
        assert quadratic_character(gf7, a) == expect


@pytest.mark.parametrize("field", [Field(7), Field(3, 2), QuadExtension(Field(7)).ext])
def test_quadratic_character_multiplicative(field):
    for a in range(1, field.q):
        for b in range(1, field.q):
            ca = quadratic_character(field, a)
            cb = quadratic_character(field, b)
            cab = quadratic_character(field, field.mul(a, b))
            assert cab == ("square" if ca == cb else "nonsquare")


def test_embed_decompose_roundtrip_gf49(ext7):
    for x in range(49):
        x0, x1 = ext7.decompose(x)
        assert ext7.compose(x0, x1) == x
    for a in range(7):
        assert ext7.decompose(a) == (a, 0)
    assert ext7.decompose(ext7.omega) == (0, 1)


@pytest.mark.parametrize("q", [7, 9, 11, 13])
def test_frobenius_fixes_exactly_the_subfield(q):
    base = Field(q) if q in (7, 11, 13) else Field(3, 2)
    ext = QuadExtension(base)
    fixed = [x for x in range(ext.ext.q) if ext.frobenius(x) == x]
    assert fixed == list(range(base.q))
    # and frobenius is an automorphism
    E = ext.ext
    for a in range(0, E.q, 7):
        for b in range(0, E.q, 5):
            assert ext.frobenius(E.mul(a, b)) == E.mul(ext.frobenius(a), ext.frobenius(b))
            assert ext.frobenius(E.add(a, b)) == E.add(ext.frobenius(a), ext.frobenius(b))


def test_default_modulus_deterministic():
    assert default_modulus(3, 2) == (1, 0, 1)
    assert default_modulus(7, 1) == (0, 1)
    assert Field(3, 2).modulus == Field(3, 2).modulus


def test_reducible_modulus_rejected():
    assert not is_irreducible([0, 0, 1], 3)  # x^2
    with pytest.raises(ValueError):
        Field(3, 2, (0, 0, 1))
    with pytest.raises(ValueError):
        Field(4)  # not prime


@given(st.integers(min_value=0, max_value=48), st.integers(min_value=0, max_value=48))
def test_gf49_commutative_and_char_property(a, b):
    ext = _EXT49
    E = ext.ext
    assert E.mul(a, b) == E.mul(b, a)
    if a and b:
        ca, cb = quadratic_character(E, a), quadratic_character(E, b)
        assert quadratic_character(E, E.mul(a, b)) == (
            "square" if ca == cb else "nonsquare")


_EXT49 = QuadExtension(Field(7))


def scalar_tables(add, mul):
    """neg, inv and sub from add and mul, entry by entry."""
    q = len(add)
    neg = [add[a].index(0) for a in range(q)]
    inv = [0] + [mul[a].index(1) for a in range(1, q)]
    return neg, inv, [[add[a][neg[b]] for b in range(q)] for a in range(q)]


def scalar_quadratic_tables(base, s, t):
    """add and mul of GF(q^2) = GF(q)[w], w^2 = s*w + t, entry by entry on
    the codes x0 + q*x1."""
    q = base.q
    add = [[0] * (q * q) for _ in range(q * q)]
    mul = [[0] * (q * q) for _ in range(q * q)]
    for a in range(q * q):
        a0, a1 = a % q, a // q
        for b in range(q * q):
            b0, b1 = b % q, b // q
            add[a][b] = base.add(a0, b0) + q * base.add(a1, b1)
            # (a0+a1w)(b0+b1w), w^2 = sw + t
            cross = base.mul(a1, b1)
            c0 = base.add(base.mul(a0, b0), base.mul(t, cross))
            c1 = base.add(base.add(base.mul(a0, b1), base.mul(a1, b0)), base.mul(s, cross))
            mul[a][b] = c0 + q * c1
    return add, mul


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_tables_match_scalar_formula(p, k):
    """Every table of GF(q) and GF(q^2) (q^2 = 9 ... 169), as an int16 array
    and as the lists the scalar operations read, equals the entry-by-entry
    formula.  The digits read back as the codes, and the regular
    representation times the digits of y is the digits of x * y, mod p."""
    base = Field(p, k)
    ext = QuadExtension(base)
    for field, (add, mul) in ((base, (base._add, base._mul)),
                              (ext.ext, scalar_quadratic_tables(base, ext.s, ext.t))):
        expected = dict(zip(("add", "mul", "neg", "inv", "sub"),
                            (add, mul, *scalar_tables(add, mul))))
        for name, table in expected.items():
            assert getattr(field, "_" + name) == table, name
            array = getattr(field, name + "_np")
            assert array.dtype == np.int16
            assert array.tobytes() == np.array(table, dtype=np.int16).tobytes(), name
        digits, rep = field.digits_np, field.rep_np
        assert digits.dtype == rep.dtype == np.int32
        assert digits.shape == (field.q, field.k) and rep.shape == (field.q, field.k, field.k)
        assert (digits @ p ** np.arange(field.k) == np.arange(field.q)).all()
        products = np.einsum("xrs,ys->xyr", rep, digits) % p
        assert (products == digits[field.mul_np]).all()
