"""Composition with a vanishing-to-order-k self-map: the r_k radii.

Precomposing the slice with t -> t^k weakens the leading modulus term, so
the sharp radius r_k grows with k.  It solves

    (1 - r^k) / (1 + r^k) - 2 r / (1 - r) = 0,

a strictly decreasing function of r.  The solver bisects it in floats down
to two adjacent floats and checks their signs exactly, so r_k is the largest
float below the root.  k = 1 reduces algebraically to r^2 + 4r - 1 = 0, i.e.
r_1 = sqrt(5) - 2; as k grows the radii climb toward 1/3, the classical
majorant-sum radius.
"""

import math

from polybohr import (
    FunctionalSpec,
    composed_radius_equation,
    find_witness,
    random_equimodular_slice,
    solve_radius,
    verify_theorem,
)

print(f"{'k':>3} {'r_k':>16} {'residual':>12} {'iterations':>11}")
for k in range(1, 11):
    result = solve_radius(k=k)
    print(f"{k:3d} {result.radius:16.12f} {result.residual:12.2e} {result.iterations:11d}")
print(f"{'':>3} {'1/3 = ' + format(1/3, '.12f'):>16}   (limit as k grows)\n")

print(f"k = 1 closed form: sqrt(5) - 2 = {math.sqrt(5) - 2:.15f}")
print(f"solver agrees to   {abs(solve_radius(k=1).radius - (math.sqrt(5) - 2)):.2e}\n")

print("The equation's value at a few radii (k = 2): positive below the root,")
print("negative above, strictly decreasing in between:")
for r in (0.0, 0.2, solve_radius(k=2).radius, 0.4):
    print(f"  r = {r:.6f}: {composed_radius_equation(r, 2):+.6f}")
print()

for k in (1, 2, 3):
    spec = FunctionalSpec.composed(k)
    r_k = solve_radius(k=k).radius
    passed = sum(verify_theorem(random_equimodular_slice(seed), spec, r_k)[0] for seed in range(200))
    w = find_witness(spec, r_k + 1e-3)
    print(
        f"k = {k}: {passed}/200 random slices verified at r_k; "
        f"witness at r_k + 1e-3 has value {w.value_lower:.10f}"
    )
