import itertools
import random

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
    assert gf7.mul(1, gf7.inv(4)) == 2


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


def check_scalar_operations(field, add, mul):
    """add, sub, mul, neg, inv and div of field equal the formula tables add
    and mul (and the neg, inv and sub derived from them) on every pair, as
    Python ints, and each int16 array holds the same table; dot and pow
    agree with the formula on samples."""
    q = field.q
    neg, inv, sub = scalar_tables(add, mul)
    for name, table in zip(("add", "mul", "neg", "inv", "sub"), (add, mul, neg, inv, sub)):
        array = getattr(field, name + "_np")
        assert array.dtype == np.int16
        assert array.tobytes() == np.array(table, dtype=np.int16).tobytes(), name
    for a in range(q):
        assert field.neg(a) == neg[a] and type(field.neg(a)) is int
        if a:
            assert field.inv(a) == inv[a] and type(field.inv(a)) is int
        for b in range(q):
            got = (field.add(a, b), field.sub(a, b), field.mul(a, b))
            assert got == (add[a][b], sub[a][b], mul[a][b]), (a, b)
            assert all(type(x) is int for x in got)
    with pytest.raises(DivisionByZero):
        field.inv(0)
    with pytest.raises(DivisionByZero):
        field.pow(0, -1)
    rng = random.Random(q)
    for n in (0, 1, 2, 5, 6):
        for _ in range(10):
            u = [rng.randrange(q) for _ in range(n)]
            v = [rng.randrange(q) for _ in range(n)]
            expected = 0
            for x, y in zip(u, v):
                expected = add[expected][mul[x][y]]
            assert field.dot(u, v) == expected and type(field.dot(u, v)) is int
    for a in rng.sample(range(q), min(q, 12)) + [0, 1]:
        power = inverse_power = 1
        for e in range(2 * q + 1):
            assert field.pow(a, e) == power, (a, e)
            if a:
                assert field.pow(a, -e) == inverse_power, (a, -e)
                inverse_power = mul[inverse_power][inv[a]]
            power = mul[power][a]


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_tables_match_scalar_formula(p, k):
    """GF(q) against polynomial arithmetic modulo its modulus and GF(q^2)
    (q^2 = 9 ... 169) against the entry-by-entry formula of GF(q)[w]: every
    scalar operation and every int16 table.  The digits read back as the
    codes, and the regular representation times the digits of y is the
    digits of x * y, mod p."""
    base = Field(p, k)
    ext = QuadExtension(base)
    for field, (add, mul) in ((base, schoolbook_tables(p, base.modulus)),
                              (ext.ext, scalar_quadratic_tables(base, ext.s, ext.t))):
        check_scalar_operations(field, add, mul)
        digits, rep = field.digits_np, field.rep_np
        assert digits.dtype == rep.dtype == np.int32
        assert digits.shape == (field.q, field.k) and rep.shape == (field.q, field.k, field.k)
        assert (digits @ p ** np.arange(field.k) == np.arange(field.q)).all()
        products = np.einsum("xrs,ys->xyr", rep, digits) % p
        assert (products == digits[field.mul_np]).all()


def schoolbook_tables(p, modulus):
    """add and mul of GF(p)[x]/(modulus), entry by entry: each code is its
    base-p digits, little-endian, and a product is the polynomial product
    reduced modulo the monic modulus by long division."""
    k = len(modulus) - 1
    q = p ** k

    def digits(c):
        return [c // p ** i % p for i in range(k)]

    def code(coeffs):
        return sum(c * p ** i for i, c in enumerate(coeffs))

    add = [[code([(x + y) % p for x, y in zip(digits(a), digits(b))]) for b in range(q)]
           for a in range(q)]
    mul = []
    for a in range(q):
        row = []
        for b in range(q):
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(digits(a)):
                for j, y in enumerate(digits(b)):
                    prod[i + j] = (prod[i + j] + x * y) % p
            for top in range(2 * k - 2, k - 1, -1):
                lead, prod[top] = prod[top], 0
                for i, m in enumerate(modulus[:-1]):
                    prod[top - k + i] = (prod[top - k + i] - lead * m) % p
            row.append(code(prod[:k]))
        mul.append(row)
    return add, mul


@pytest.mark.parametrize("p,k,modulus", [
    (2, 2, None), (2, 3, None), (2, 4, None), (3, 2, None), (3, 3, None),
    (5, 2, None), (7, 2, None), (3, 2, (2, 1, 1)),
])
def test_prime_power_tables_match_schoolbook(p, k, modulus):
    """GF(4), GF(8), GF(16), GF(9), GF(27), GF(25) and GF(49) with their
    default moduli, and GF(9) = GF(3)[x]/(x^2 + x + 2): every scalar
    operation and every table equals polynomial arithmetic modulo the
    modulus, computed entry by entry."""
    field = Field(p, k, modulus)
    assert modulus is None or field.modulus == modulus
    check_scalar_operations(field, *schoolbook_tables(p, field.modulus))


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                                 (5, 1), (5, 2)])
def test_irreducible_count_matches_gauss(p, d):
    """is_irreducible finds (1/d) sum_{e | d} mu(d/e) p^e monic irreducibles
    of degree d over GF(p)."""
    found = sum(is_irreducible(list(low) + [1], p)
                for low in itertools.product(range(p), repeat=d))
    assert found == sum(mobius(d // e) * p ** e for e in range(1, d + 1) if d % e == 0) // d


def test_default_modulus_pins():
    assert default_modulus(3, 3) == (1, 2, 0, 1)  # x^3 + 2x + 1
    assert default_modulus(5, 2) == (2, 0, 1)  # x^2 + 2


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
                                 (13, 1), (5, 2)])
def test_canonical_pair_matches_brute_force(p, k):
    """QuadExtension's (s, t) is the first pair in s*q + t order for which
    x^2 - s*x - t has no root, found by scalar search."""
    base = Field(p, k)
    q = base.q

    def has_root(s, t):
        return any(base.sub(base.mul(x, x), base.mul(s, x)) == t for x in range(q))

    ext = QuadExtension(base)
    assert (ext.s, ext.t) == next(divmod(n, q) for n in range(q * q)
                                  if not has_root(*divmod(n, q)))
