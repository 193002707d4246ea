"""Exact arithmetic in GF(p^k), plus canonical quadratic extensions.

Every field here is a quotient ring F[x]/(m) of a smaller field F by a monic
m of degree d, and its tables come from one builder (_quotient_tables): the
class of c_0 + c_1 x + ... + c_{d-1} x^{d-1} has the code
sum_i c_i |F|^i, and a product is the schoolbook convolution of the
coefficients reduced modulo m.  GF(p^k) is GF(p)[x]/(modulus), so the base-p
digits of a code are the element's coefficients in the polynomial basis,
little-endian.  The ring F[x]/(m) is a field exactly when it has no zero
divisors, which is how is_irreducible tests a modulus.  All arithmetic is
table driven, so it is exact and uniform across prime and prime-power orders.

Each table is held once, as an int16 array (add_np, sub_np, mul_np, neg_np,
inv_np): the array kernels index it, and the scalar operations (add, mul,
inv, dot, ...) read one entry of it as an int.  Besides the q x q operation
tables, every field keeps the base-p digits of each code (digits_np) and the
regular representation (rep_np): for each x, the k x k matrix over GF(p) of
y -> xy on those digits.  Addition is digit-wise mod p in every encoding
here, so the digits are GF(p) coordinates, and a product of matrices over
the field is an integer product of digit and representation matrices,
reduced mod p (projgeom.matmul_np).

A quadratic extension GF(q^2) = GF(q)[w], w^2 = s*w + t, is GF(q)[x]/(x^2 -
s*x - t): it encodes x = x0 + x1*w as the integer x0 + q*x1 where x0, x1 are
GF(q) codes.  The embedded copy of GF(q) is therefore exactly the codes
0..q-1.
"""

from __future__ import annotations

import functools

import numpy as np


class DivisionByZero(ZeroDivisionError):
    """Division or inversion of the zero element."""


def is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(n ** 0.5) + 1):
        if n % d == 0:
            return False
    return True


def _quotient_tables(add, mul, low):
    """The add and mul tables of F[x]/(x^d - sum_i low[i] x^i), given the
    add and mul tables of a field F of order r and d = len(low).

    The class of c_0 + c_1 x + ... + c_{d-1} x^{d-1} has the code
    sum_i c_i r^i.  The product is the schoolbook convolution of the digits,
    reduced from the top degree by x^d = sum_i low[i] x^i.
    """
    r, d = len(add), len(low)
    add, mul = (np.asarray(t, dtype=np.int32).ravel() for t in (add, mul))

    def op(table, x, y):
        return np.take(table, x * r + y)

    powers = r ** np.arange(d, dtype=np.int32)
    digits = np.arange(r ** d, dtype=np.int32)[:, None] // powers % r
    a, b = digits[:, None, :], digits[None, :, :]
    prod = {}
    for i in range(d):
        for j in range(d):
            term = op(mul, a[..., i], b[..., j])
            prod[i + j] = op(add, prod[i + j], term) if i + j in prod else term
    for top in range(2 * d - 2, d - 1, -1):
        for i, c in enumerate(low):
            prod[top - d + i] = op(add, prod[top - d + i], op(mul, prod[top], c))
    return op(add, a, b) @ powers, sum(prod[i] * powers[i] for i in range(d))


def _modulus_tables(p, modulus):
    """The add and mul tables of GF(p)[x]/(modulus), for a monic modulus."""
    i = np.arange(p)
    return _quotient_tables((i[:, None] + i) % p, i[:, None] * i % p,
                            [-c % p for c in modulus[:-1]])


def is_irreducible(modulus, p):
    """True if modulus is a monic irreducible of degree >= 1 over GF(p): the
    ring GF(p)[x]/(modulus) has no zero divisors."""
    m = list(modulus)
    while m and m[-1] == 0:
        m.pop()
    if len(m) < 2 or m[-1] != 1:
        return False
    _, mul = _modulus_tables(p, m)
    return bool((mul[1:, 1:] != 0).all())


@functools.cache
def default_modulus(p, k):
    """Lexicographically least monic irreducible of degree k over GF(p).

    "Least" by the base-p integer encoding of the non-leading coefficients,
    so the choice is deterministic across runs.  Memoized: each test of a
    candidate builds the tables of GF(p)[x]/(candidate).
    """
    for code in range(p ** k):
        cand = [code // p ** i % p for i in range(k)] + [1]
        if is_irreducible(cand, p):
            return tuple(cand)
    raise ValueError(f"no irreducible polynomial of degree {k} over GF({p})")


def check_modulus(p, k, modulus):
    """The modulus reduced mod p; ValueError unless it is monic irreducible of degree k."""
    return _checked_modulus(p, k, tuple(int(c) % p for c in modulus))


@functools.lru_cache(maxsize=64)
def _checked_modulus(p, k, modulus):
    """check_modulus on a reduced tuple, memoized like default_modulus."""
    if len(modulus) != k + 1 or modulus[-1] != 1:
        raise ValueError(f"modulus must be monic of degree {k}")
    if not is_irreducible(modulus, p):
        raise ValueError(f"modulus {modulus} is reducible over GF({p})")
    return modulus


# ---------------------------------------------------------------------------


class Field:
    """GF(p^k) with dense operation tables; elements are int codes 0..q-1."""

    def __init__(self, p, k=1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        modulus = default_modulus(p, k) if modulus is None else check_modulus(p, k, modulus)
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = modulus
        self.token = f"GF({self.q};{','.join(map(str, modulus))})"
        self._finish_tables(*_modulus_tables(p, modulus))

    @classmethod
    def _quadratic(cls, base, s, t):
        """GF(q^2) over an existing GF(q), w^2 = s*w + t; codes are x0 + q*x1."""
        self = cls.__new__(cls)
        self.p = base.p
        self.k = 2 * base.k
        self.q = base.q ** 2
        self.modulus = None
        self.token = f"{base.token}[w;{s},{t}]"
        self._finish_tables(*_quotient_tables(base.add_np, base.mul_np, (t, s)))
        return self

    def _finish_tables(self, add, mul):
        """Store the add and mul tables and derive neg, inv and sub, all
        int16 arrays; then the int32 digits (q, k) and regular representation
        (q, k, k), rep_np[x] @ digits_np[y] = digits_np[x * y] mod p.  Every
        table is read-only: a frame, and so its fields, serves every call
        for its field in a process."""
        dtype = np.int16
        self.add_np = np.asarray(add, dtype=dtype)
        self.mul_np = np.asarray(mul, dtype=dtype)
        self.neg_np = np.argmax(self.add_np == 0, axis=1).astype(dtype)
        self.inv_np = np.argmax(self.mul_np == 1, axis=1).astype(dtype)  # 0 at 0
        self.sub_np = self.add_np[:, self.neg_np]
        powers = self.p ** np.arange(self.k)
        self.digits_np = (np.arange(self.q)[:, None] // powers % self.p).astype(np.int32)
        # column j of rep_np[x]: the digits of x times the j-th basis element
        self.rep_np = self.digits_np[self.mul_np[:, powers]].transpose(0, 2, 1)
        for table in (self.add_np, self.mul_np, self.neg_np, self.inv_np, self.sub_np,
                      self.digits_np, self.rep_np):
            table.flags.writeable = False

    # -- scalar operations ---------------------------------------------------

    def add(self, a, b):
        return self.add_np.item(a, b)

    def sub(self, a, b):
        return self.sub_np.item(a, b)

    def mul(self, a, b):
        return self.mul_np.item(a, b)

    def neg(self, a):
        return self.neg_np.item(a)

    def inv(self, a):
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self.token}")
        return self.inv_np.item(a)

    def pow(self, a, e):
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        mul = self.mul_np.item
        while e:
            if e & 1:
                r = mul(r, a)
            a = mul(a, a)
            e >>= 1
        return r

    def dot(self, u, v):
        r = 0
        add, mul = self.add_np.item, self.mul_np.item
        for x, y in zip(u, v):
            r = add(r, mul(x, y))
        return r

    def __eq__(self, other):
        return isinstance(other, Field) and self.token == other.token

    def __hash__(self):
        return hash(self.token)

    def __repr__(self):
        return self.token


def quadratic_character(field, a):
    """Classify a as "square", "nonsquare" or "zero" in a field of odd order."""
    if field.q % 2 == 0:
        raise ValueError("quadratic character requires odd order")
    if a == 0:
        return "zero"
    return "square" if field.pow(a, (field.q - 1) // 2) == 1 else "nonsquare"


class QuadExtension:
    """GF(q^2) = GF(q)[w] with w^2 = s*w + t for the canonical irreducible (s,t).

    (s, t) is the first pair, in ascending s*q + t order, for which
    X^2 - s*X - t has no root in GF(q).  compose/decompose convert between
    pairs of GF(q) codes and GF(q^2) codes; the GF(q) code a is itself the
    GF(q^2) code of a, so decompose(a) == (a, 0).
    """

    def __init__(self, base):
        self.base = base
        self.s, self.t = self._canonical_pair(base)
        self.ext = Field._quadratic(base, self.s, self.t)
        self.omega = base.q  # code of (0, 1)

    @staticmethod
    def _canonical_pair(base):
        # roots[s, t]: X^2 - s*X - t has a root x, i.e. t = x^2 - s*x
        q = base.q
        roots = np.zeros((q, q), dtype=bool)
        roots[np.arange(q)[:, None], base.sub_np[np.diagonal(base.mul_np), base.mul_np]] = True
        return divmod(int(np.flatnonzero(~roots)[0]), q)

    def decompose(self, x):
        """GF(q^2) code -> (x0, x1) with x = x0 + x1*w; also elementwise on arrays."""
        return x % self.base.q, x // self.base.q

    def compose(self, x0, x1):
        """(x0, x1) -> the GF(q^2) code of x0 + x1*w; also elementwise on arrays."""
        return x0 + self.base.q * x1

    def frobenius(self, x):
        return self.ext.pow(x, self.base.q)

    def __repr__(self):
        return f"QuadExtension({self.base.token}; w^2={self.s}w+{self.t})"


def verify_field_axioms(field):
    """Exhaustive table check of the field axioms; returns a dict of booleans.

    Meant for small q (the tables are q x q); associativity and
    distributivity are checked over all q^3 triples via numpy broadcasting.
    """
    q = field.q
    add, mul = field.add_np, field.mul_np
    checks = {}
    checks["add_commutative"] = bool((add == add.T).all())
    checks["mul_commutative"] = bool((mul == mul.T).all())
    checks["add_associative"] = bool((add[add, :] == add[:, add]).all())
    checks["mul_associative"] = bool((mul[mul, :] == mul[:, mul]).all())
    checks["distributive"] = bool(
        (mul[:, add] == add[mul[:, :, None], mul[:, None, :]]).all()
    )
    checks["add_identity"] = bool((add[0] == np.arange(q)).all())
    checks["mul_identity"] = bool((mul[1] == np.arange(q)).all())
    checks["add_inverse"] = all((add[a] == 0).sum() == 1 for a in range(q))
    checks["mul_inverse"] = all((mul[a] == 1).sum() == 1 for a in range(1, q))
    checks["no_zero_divisors"] = bool((mul[1:, 1:] != 0).all())
    return checks
