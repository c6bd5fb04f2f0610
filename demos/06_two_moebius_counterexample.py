"""Two equal-modulus Moebius components break the squared bound below sqrt(11/27).

The squared functional, as the library formalises it, takes the
componentwise maximum Q_n = max_i |c_n^(i)| of the coefficient moduli.  The
equimodular slice (M_x(t), M_x(t^2)), M_x(t) = (x + t)/(1 + x t), lets the
first component supply the odd orders and the second the even ones, so its
value exceeds 1 at r = 77/128, below the paper's radius sqrt(11/27).  The
script prints the exact value on Fractions next to the float enclosure.

M_x has |c_n| = M x^(n-1) with M = 1 - x^2, so Q_n is M x^(n-1) at odd n and
M x^(n/2-1) at even n.  The sup of the slice modulus is the first
component's, SP = (x + r)/(1 + x r), taken at t = r, and the value is

    SP^2 + M^2 r^2 / (1 - x^4 r^4) + M^2 r^4 / (1 - x^2 r^4).
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from polybohr import (
    FunctionalSpec,
    PolydiscSlice,
    SQUARED_FUNCTIONAL_RADIUS,
    TruncatedSeries,
    eval_functional,
    mobius_series,
    verify_theorem,
)

x, r = Fraction(215, 512), Fraction(77, 128)
big_m = 1 - x * x
sp = (x + r) / (1 + x * r)
exact = sp**2 + big_m**2 * r**2 / (1 - x**4 * r**4) + big_m**2 * r**4 / (1 - x**2 * r**4)
assert r * r < Fraction(11, 27) and exact > 1

g = mobius_series(float(x), "plus", 64)  # x and r are dyadic: their floats are exact
spread = np.zeros(64, dtype=np.complex128)
spread[1::2] = g.coeffs[:32]  # M_x(t^2): coefficient n of M_x at order 2n
s = PolydiscSlice.from_components([g, TruncatedSeries(g.a0, spread, schur_certified=True)])
spec = FunctionalSpec.improved_squared()
value = eval_functional(s, spec, float(r))

with localcontext() as ctx:
    ctx.prec = 22
    digits = Decimal(exact.numerator) / Decimal(exact.denominator)
print(f"slice (M_x(t), M_x(t^2)), x = {x}, at r = {r} = {float(r)} < sqrt(11/27) = {SQUARED_FUNCTIONAL_RADIUS:.12g}")
print(f"exact value: {exact}")
print(f"           = {digits}...")
print(f"float enclosure: [lower, upper] = [{value.lower!r}, {value.upper!r}]")
below = float(exact - Fraction(value.upper))
print(f"lower - exact = {float(Fraction(value.lower) - exact):.2g}")
print(f"upper - exact = {-below:.2g}")
print(f"verify_theorem at r: {'holds' if verify_theorem(s, spec, float(r))[0] else 'fails'}\n")

print("Both the exact value and the float lower exceed 1 below the paper's radius: the")
print("componentwise maximum Q_n lets two equal-modulus components push the squared sum")
print(f"past 1.  The float upper lies {below:.2g} below the exact value, so on this slice it")
print("is not an upper bound: the evaluator does not yet round outward (ROADMAP item 2).")
