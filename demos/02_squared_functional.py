"""The squared majorant functional and its sqrt(11/27) radius.

For an m-component polydisc slice with equal initial moduli, the functional

    (sup of the slice modulus)^2 + sum_n (max_i |c_n^(i)|)^2 r^(2n)

stays at most 1 up to r = sqrt(11/27) when a single component dominates the
coefficient norms, and the radius is attained by the disc-automorphism
family with parameter sqrt(3/11).  The script walks the radius sweep, the
equality point, a witness past the radius, and the multi-component caveat.
"""

import numpy as np

from polybohr import (
    FunctionalSpec,
    PolydiscSlice,
    SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA,
    SQUARED_FUNCTIONAL_RADIUS,
    TruncatedSeries,
    eval_functional,
    extremal_slice,
    find_witness,
)

spec = FunctionalSpec.improved_squared()
lam = SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA
radius = SQUARED_FUNCTIONAL_RADIUS
print(f"sharp radius: sqrt(11/27) = {radius:.12g}")
print(f"extremal parameter: sqrt(3/11) = {lam:.12g}\n")

print("Sweep on the extremal family (delta = r - radius):")
print(f"{'delta':>9} {'lower':>16} {'upper':>16}")
for delta in (-0.2, -0.05, -0.01, 0.0, 0.01, 0.05):
    value = eval_functional(extremal_slice(spec, lam, m=2), spec, radius + delta)
    print(f"{delta:9.3f} {value.lower:16.12f} {value.upper:16.12f}")
print("    -> equality exactly at the radius; above it the bound breaks.\n")

w = find_witness(spec, radius + 1e-3)
print(f"witness at r = radius + 1e-3: lambda = {w.lam:.12g}, value = {w.value_lower:.12g} (margin {w.margin:.3e})\n")

print("Caveat: the radius presumes one component dominates every coefficient")
print("order.  Components concentrating mass at different orders escape it:")


def monomial(power, n_terms=64):
    coeffs = np.zeros(n_terms, dtype=complex)
    coeffs[power - 1] = 1.0
    return TruncatedSeries(a0=0.0, coeffs=coeffs, schur_certified=True)


for powers in ([1], [1, 2], [1, 2, 3]):
    s = PolydiscSlice.from_components([monomial(p) for p in powers])
    value = eval_functional(s, spec, radius)
    label = ", ".join(f"t^{p}" if p > 1 else "t" for p in powers)
    verdict = "respects the bound" if value.upper <= 1 else "EXCEEDS the bound rigorously"
    print(f"  ({label}):  value {value.lower:.6f}  -> {verdict}")
exact = 2 * radius**2 + radius**4 + radius**6
print(f"  the three-component value is exactly 2r^2 + r^4 + r^6 = {exact:.6f}")
