"""Scalar margin functions, sharp radii, and the composed radius solver.

Each of the three polydisc functionals comes with a pair of scalar
functions: a *slack* (or *bound*) function of the worst-case initial
modulus x and the radius r, whose nonpositivity proves the inequality up
to the sharp radius, and an *excess* function of the extremal-family
parameter, whose positivity past the radius proves the radius cannot grow.
They are plain real formulas, written with integer literals: a float input
keeps the bits of the float formula, and a ``Fraction`` input gives the
exact value.  This module evaluates them, certifies the degree-six
factorization identity behind the squared functional's radius, and solves
the composed functional's radius equation

    (1 - r^k) / (1 + r^k) - 2 r / (1 - r) = 0.

On 0 < r < 1 it has the sign of P_k(r) = 1 - 3r - r^k - r^(k+1), whose
coefficients change sign once, so it has exactly one positive root;
:func:`solve_radius` returns the largest float below it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:  # pragma: no cover
    from .functionals import FunctionalSpec

#: Sharp radius of the squared functional, sqrt(11/27).
SQUARED_FUNCTIONAL_RADIUS = math.sqrt(11.0 / 27.0)

#: Extremal-family parameter at which the squared functional attains 1.
SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA = math.sqrt(3.0 / 11.0)

#: Sharp radii of the refined functional for exponents p = 1 and p = 2.
REFINED_RADIUS_P1 = 0.2
REFINED_RADIUS_P2 = 1.0 / 3.0

#: Classical majorant-sum radius for scalar Schur functions.
CLASSICAL_RADIUS = 1.0 / 3.0


def _check_unit(value: float, name: str, positive: bool = False, closed: bool = False, top: float = 1.0) -> None:
    """Each radius, parameter and tolerance: in [0, top), or (0, top) if ``positive``, [0, top] if ``closed``."""
    try:
        if (0.0 < value if positive else 0.0 <= value) and (value <= top if closed else value < top):
            return
    except TypeError:  # a str, None or a complex
        pass
    raise DomainError(f"{name} must lie in {'(' if positive else '['}0, {top:g}{']' if closed else ')'}, got {value!r}")


def _check_count(value: int, name: str, least: int = 1, most: float = sys.float_info.max) -> int:
    """The rule of every count, order and seed: an integer >= ``least`` (integral floats, numpy ints and bools
    pass), returned as the int it equals.  A count's cap at the largest float keeps r**k from overflowing as k
    converts to a float; a seed has none."""
    try:
        if least <= value <= most and (count := int(value)) == value:
            return count
    except (TypeError, OverflowError):  # a str, None or a complex; an infinite seed
        pass
    raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def squared_functional_slack(x: float, r: float) -> float:
    """Slack of the squared functional's worst-case bound against 1.

    ((x + r)/(1 + x r))^2 + r^2 (1 - x^2)^2 / (1 - x^2 r^2) - 1; nonpositive
    exactly when the squared functional stays at most 1 for all certified
    equimodular slices with initial modulus x at radius r.
    """
    _check_unit(x, "x")
    _check_unit(r, "r")
    u = (x + r) / (1 + x * r)
    return u * u + r * r * (1 - x * x) ** 2 / (1 - x * x * r * r) - 1


def slack_polynomial(x: float) -> float:
    """Degree-six polynomial whose sign on [0, 1] decides the sharp radius.

    121 x^6 + 66 s x^5 - 121 x^4 - 132 s x^3 + 135 x^2 + 66 s x - 135 with
    s = sqrt(33).  Equals the numerator of the squared functional's slack at
    r = sqrt(11/27), up to a positive factor.
    """
    _check_unit(x, "x", closed=True)
    s = math.sqrt(33.0)
    return (
        121.0 * x**6
        + 66.0 * s * x**5
        - 121.0 * x**4
        - 132.0 * s * x**3
        + 135.0 * x**2
        + 66.0 * s * x
        - 135.0
    )


def slack_polynomial_factored(x: float) -> float:
    """Factored form 121 (x^2-1)(x + 5 q)(x + 3 q)(x - q)^2, q = sqrt(3/11).

    Manifestly nonpositive on [0, 1], with a double root at x = q: the
    parameter of the extremal family attaining equality.
    """
    _check_unit(x, "x", closed=True)
    q = SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA
    return 121.0 * (x * x - 1.0) * (x + 5.0 * q) * (x + 3.0 * q) * (x - q) ** 2


def check_slack_factorization(samples: int, tol: float = 1e-9) -> bool:
    """Certify the degree-six identity by dense sampling on [0, 1).

    True iff expanded and factored forms agree to ``tol`` at ``samples``
    equispaced points and the factored form is nonpositive there.  Seven
    agreement points already pin a degree-six identity; dense sampling
    guards conditioning.  ``tol`` must be finite and >= 0.
    """
    samples = _check_count(samples, "samples")
    _check_unit(tol, "tol", top=math.inf)
    for j in range(samples):
        x = j / samples
        lhs = slack_polynomial(x)
        rhs = slack_polynomial_factored(x)
        if abs(lhs - rhs) > tol or rhs > tol:
            return False
    return True


def refined_slack_p1(x: float, r: float) -> float:
    """2 (1 + x) r/(1 - r) - 1: worst-case slack driver for exponent 1."""
    _check_unit(x, "x")
    _check_unit(r, "r")
    return 2 * (1 + x) * r / (1 - r) - 1


def refined_slack_p2(r: float) -> float:
    """(3 r - 1)/(1 - r): worst-case slack driver for exponent 2."""
    _check_unit(r, "r")
    return (3 * r - 1) / (1 - r)


def refined_extremal_excess_p1(lam: float, r: float) -> float:
    """(1+lam) r/(1-lam r) + (1+lam) r/(1-r) - 1.

    The refined functional on the reflected Moebius family equals
    1 + (1 - lam) * this, so positivity past the radius certifies sharpness.
    Tends to (5r - 1)/(1 - r) as lam -> 1.
    """
    _check_unit(lam, "lam")
    _check_unit(r, "r")
    return (1 + lam) * r / (1 - lam * r) + (1 + lam) * r / (1 - r) - 1


def refined_extremal_excess_p2(lam: float, r: float) -> float:
    """r/(1-lam r) + r/(1-r) - 1; functional = 1 + (1 - lam^2) * this.

    Tends to (3r - 1)/(1 - r) as lam -> 1.
    """
    _check_unit(lam, "lam")
    _check_unit(r, "r")
    return r / (1 - lam * r) + r / (1 - r) - 1


def composed_functional_bound(x: float, r: float, k: int) -> float:
    """(x + r^k)/(1 + x r^k) + (1 - x^2) r/(1 - r).

    Upper bound for the composed functional on certified equimodular slices
    with initial modulus x; at most 1 exactly up to the order-k radius.
    """
    _check_unit(x, "x")
    _check_unit(r, "r")
    rk = r ** _check_count(k, "composition order k")
    return (x + rk) / (1 + x * rk) + (1 - x * x) * r / (1 - r)


def composed_radius_equation(r: float, k: int) -> float:
    """(1 - r^k)/(1 + r^k) - 2 r/(1 - r); equals 1 at r = 0, strictly decreasing."""
    _check_unit(r, "r")
    rk = r ** _check_count(k, "composition order k")
    return (1 - rk) / (1 + rk) - 2 * r / (1 - r)


def composed_extremal_excess(lam: float, r: float, k: int) -> float:
    """Excess of the composed functional on the Moebius family.

    The functional on the plus-family equals 1 + (1 - lam) * this.  The raw
    form ((lam + r^k)/(1 + lam r^k) - 1)/(1 - lam) + (1 + lam) r/(1 - r) has
    a removable singularity at lam = 1; the first ratio simplifies exactly
    to -(1 - r^k)/(1 + lam r^k), which this function evaluates.  As
    lam -> 1 the value tends to the negated radius equation.
    """
    _check_unit(lam, "lam")
    _check_unit(r, "r")
    rk = r ** _check_count(k, "composition order k")
    return -(1 - rk) / (1 + lam * rk) + (1 + lam) * r / (1 - r)


@dataclass(frozen=True)
class RadiusResult:
    """Solved radius with its final bracket, residual, and bisection count."""

    radius: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    iterations: int


def _radius_polynomial_sign(r: float, k: int) -> int:
    """Exact sign of P_k(r) = 1 - 3r - r^k - r^(k+1) at a float r >= 0.

    P_k(a/d) d^(k+1) = d^k (d - 3a) - a^k (d + a).  This is negative when
    d <= 3a, and positive when k >= (d + a).bit_length(), because then
    d^k > 3^k a^k and 2^k > d + a; only the remaining small k need powers.
    """
    a, d = r.as_integer_ratio()
    if d <= 3 * a:
        return -1
    if k >= (d + a).bit_length():
        return 1
    return 1 if d**k * (d - 3 * a) > a**k * (d + a) else -1


def solve_radius(k: int) -> RadiusResult:
    """Solve the composed functional's radius equation for order ``k``.

    Bisects (0, 1/2) on the exact sign of P_k until the bracket ends are
    adjacent floats, so P_k is positive at the lower end and negative at the
    upper end.  The radius is the lower end: the largest float below the
    root.  P_k has no rational root in (0, 1), so no sign is zero.
    """
    k = _check_count(k, "composition order k")
    lo, hi = 0.0, 0.5
    iterations = 0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _radius_polynomial_sign(mid, k) > 0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return RadiusResult(
        radius=lo,
        bracket_lo=lo,
        bracket_hi=hi,
        residual=composed_radius_equation(lo, k),
        iterations=iterations,
    )


@functools.lru_cache(maxsize=64)
def _composed_radius(k: int) -> float:
    """Solved order-k radius, memoized per k.

    Verification and witness searches ask for it once per slice or
    candidate; the solve is deterministic, so one bisection per k suffices.
    """
    return solve_radius(k=k).radius


def closed_form_radius(spec: "FunctionalSpec") -> float:
    """Sharp radius of a functional: the largest r at which it stays <= 1.

    sqrt(11/27) for the squared kind, 1/5 and 1/3 for the refined kind at
    p = 1 and p = 2, the solved root for the composed kind, and 1/3 for the
    classical majorant sum.
    """
    kind = spec.kind
    if kind == "improved_squared":
        return SQUARED_FUNCTIONAL_RADIUS
    if kind == "refined_p":
        return REFINED_RADIUS_P1 if spec.p == 1 else REFINED_RADIUS_P2
    if kind == "composed_k":
        return _composed_radius(spec.k)
    if kind == "classical":
        return CLASSICAL_RADIUS
    raise DomainError(f"unknown functional kind {kind!r}")
