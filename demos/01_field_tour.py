"""Tour of the exact field arithmetic layer.

Builds GF(7), its canonical quadratic extension GF(49), and the non-prime
field GF(9), then shows the operations the geometry layers depend on.
"""

from pgconics import Field, QuadExtension, quadratic_character, verify_field_axioms

f7 = Field(7)
print("GF(7):", f7)
print("  3 * 5 =", f7.mul(3, 5))
print("  4^-1  =", f7.inv(4))
print("  characters:", {a: quadratic_character(f7, a) for a in range(7)})

f9 = Field(3, 2)
print("\nGF(9) with modulus", f9.modulus, "(x^2 + 1 over GF(3))")
x = 3  # the class of x
print("  x * x =", f9.mul(x, x), " (= -1 mod 3)")
print("  axioms:", all(verify_field_axioms(f9).values()))

ext = QuadExtension(f7)
print("\nGF(49) as GF(7)[w], w^2 = %d*w + %d" % (ext.s, ext.t))
E = ext.ext
w = ext.omega
print("  w^2 =", E.mul(w, w), "-> decomposes as", ext.decompose(E.mul(w, w)))
fixed = [z for z in range(E.q) if ext.frobenius(z) == z]
print("  Frobenius z -> z^7 fixes exactly the embedded GF(7):", fixed == list(range(7)))
