"""Scalar margin functions, sharp radii, and a bracketing root solver.

Each of the three polydisc functionals comes with a pair of scalar
functions: a *slack* (or *bound*) function of the worst-case initial
modulus x and the radius r, whose nonpositivity proves the inequality up
to the sharp radius, and an *excess* function of the extremal-family
parameter, whose positivity past the radius proves the radius cannot grow.
They are plain real formulas; this module evaluates them, certifies the
degree-six factorization identity behind the squared functional's radius,
and solves the composed functional's radius equation

    (1 - r^k) / (1 + r^k) - 2 r / (1 - r) = 0

by bisection on the fixed bracket :data:`SOLVER_BRACKET`, reporting the final
bracket, the residual and the iteration count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, SolverError

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


def _check_unit(value: float, name: str) -> None:
    if not 0.0 <= value < 1.0:
        raise DomainError(f"{name} must lie in [0, 1), got {value}")


def _check_order(k: int) -> None:
    if int(k) != k or k < 1:
        raise DomainError(f"composition order k must be a positive integer, got {k}")


def squared_functional_slack(x: float, r: float) -> float:
    """Slack of the squared functional's worst-case bound against 1.

    ((x + r)/(1 + x r))^2 + r^2 (1 - x^2)^2 / (1 - x^2 r^2) - 1; nonpositive
    exactly when the squared functional stays at most 1 for all certified
    equimodular slices with initial modulus x at radius r.
    """
    _check_unit(x, "x")
    _check_unit(r, "r")
    u = (x + r) / (1.0 + x * r)
    return u * u + r * r * (1.0 - x * x) ** 2 / (1.0 - x * x * r * r) - 1.0


def slack_polynomial(x: float) -> float:
    """Degree-six polynomial whose sign on [0, 1] decides the sharp radius.

    121 x^6 + 66 s x^5 - 121 x^4 - 132 s x^3 + 135 x^2 + 66 s x - 135 with
    s = sqrt(33).  Equals the numerator of the squared functional's slack at
    r = sqrt(11/27), up to a positive factor.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
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
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    q = SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA
    return 121.0 * (x * x - 1.0) * (x + 5.0 * q) * (x + 3.0 * q) * (x - q) ** 2


def check_slack_factorization(samples: int, tol: float = 1e-9) -> bool:
    """Certify the degree-six identity by dense sampling on [0, 1).

    True iff expanded and factored forms agree to ``tol`` at ``samples``
    equispaced points and the factored form is nonpositive there.  Seven
    agreement points already pin a degree-six identity; dense sampling
    guards conditioning.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
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
    return 2.0 * (1.0 + x) * r / (1.0 - r) - 1.0


def refined_slack_p2(r: float) -> float:
    """(3 r - 1)/(1 - r): worst-case slack driver for exponent 2."""
    _check_unit(r, "r")
    return (3.0 * r - 1.0) / (1.0 - r)


def refined_extremal_excess_p1(lam: float, r: float) -> float:
    """(1+lam) r/(1-lam r) + (1+lam) r/(1-r) - 1.

    The refined functional on the reflected Moebius family equals
    1 + (1 - lam) * this, so positivity past the radius certifies sharpness.
    Tends to (5r - 1)/(1 - r) as lam -> 1.
    """
    _check_unit(lam, "lam")
    _check_unit(r, "r")
    return (1.0 + lam) * r / (1.0 - lam * r) + (1.0 + lam) * r / (1.0 - r) - 1.0


def refined_extremal_excess_p2(lam: float, r: float) -> float:
    """r/(1-lam r) + r/(1-r) - 1; functional = 1 + (1 - lam^2) * this.

    Tends to (3r - 1)/(1 - r) as lam -> 1.
    """
    _check_unit(lam, "lam")
    _check_unit(r, "r")
    return r / (1.0 - lam * r) + r / (1.0 - r) - 1.0


def composed_functional_bound(x: float, r: float, k: int) -> float:
    """(x + r^k)/(1 + x r^k) + (1 - x^2) r/(1 - r).

    Upper bound for the composed functional on certified equimodular slices
    with initial modulus x; at most 1 exactly up to the order-k radius.
    """
    _check_unit(x, "x")
    _check_unit(r, "r")
    _check_order(k)
    rk = r**k
    return (x + rk) / (1.0 + x * rk) + (1.0 - x * x) * r / (1.0 - r)


def composed_radius_equation(r: float, k: int) -> float:
    """(1 - r^k)/(1 + r^k) - 2 r/(1 - r); equals 1 at r = 0, strictly decreasing."""
    _check_unit(r, "r")
    _check_order(k)
    rk = r**k
    return (1.0 - rk) / (1.0 + rk) - 2.0 * r / (1.0 - r)


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
    _check_order(k)
    rk = r**k
    return -(1.0 - rk) / (1.0 + lam * rk) + (1.0 + lam) * r / (1.0 - r)


@dataclass(frozen=True)
class RadiusResult:
    """Solved radius with its final bracket, residual, and iteration count."""

    radius: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    iterations: int

    def __post_init__(self) -> None:
        if not self.bracket_lo <= self.radius <= self.bracket_hi:
            raise SolverError("radius must lie inside its bracket")


#: Bisection settings: the search bracket inside (0, 1), the final bracket
#: width, the iteration cap, and the samples of the monotonicity check.
SOLVER_BRACKET = (1e-9, 1.0 - 1e-9)
SOLVER_TOL = 1e-12
SOLVER_MAX_ITERATIONS = 200
MONOTONICITY_SAMPLES = 64


def solve_decreasing_root(func: Callable[[float], float]) -> RadiusResult:
    """Bisect a strictly decreasing function on :data:`SOLVER_BRACKET` to a
    bracket of width <= :data:`SOLVER_TOL`.

    Verifies the sign change and (by coarse sampling) the claimed
    monotonicity before iterating; both failures raise :class:`SolverError`
    rather than returning a spurious root.
    """
    lo, hi = SOLVER_BRACKET
    flo, fhi = func(lo), func(hi)
    if not (flo > 0.0 > fhi):
        raise SolverError(
            f"no sign change on [{lo}, {hi}]: f(lo) = {flo}, f(hi) = {fhi}"
        )
    prev = flo
    for j in range(1, MONOTONICITY_SAMPLES + 1):
        value = func(lo + (hi - lo) * j / MONOTONICITY_SAMPLES)
        if value >= prev:
            raise SolverError("target function is not strictly decreasing on the bracket")
        prev = value
    iterations = 0
    while hi - lo > SOLVER_TOL and iterations < SOLVER_MAX_ITERATIONS:
        mid = 0.5 * (lo + hi)
        if func(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    root = 0.5 * (lo + hi)
    return RadiusResult(
        radius=root,
        bracket_lo=lo,
        bracket_hi=hi,
        residual=func(root),
        iterations=iterations,
    )


def solve_radius(k: int) -> RadiusResult:
    """Solve the composed functional's radius equation for order ``k``."""
    _check_order(k)
    return solve_decreasing_root(lambda r: composed_radius_equation(r, k))


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
