"""Extremal families, sharpness witnesses, and equal-modulus counterexamples.

Each sharp radius is certified from both sides.  Validity below the radius
is the job of :func:`polybohr.functionals.verify_theorem`; this module
supplies the other side: for any r past the radius it searches the
one-parameter Moebius families

    plus:  g(t) = (lam + t) / (1 + lam t)     (squared and composed kinds)
    minus: g(t) = (lam - t) / (1 - lam t)     (refined kind)

tensored over m identical components, for a parameter lam whose *lower*
functional value exceeds 1.  Such a witness is a finite certificate that
the radius cannot be enlarged.  The squared kind has a fixed interior
extremal parameter; the refined and composed kinds need lam -> 1, which a
dyadic grid 1 - 2^-j resolves cheaply.

The module also rebuilds the two-component slices with unequal initial
moduli that push each functional above 1 at radii where the equimodular
version is provably at most 1, demonstrating that the equal-modulus
hypothesis cannot be dropped.  Those evaluations skip the equimodularity
check on purpose and report both the direct functional value and the
staged closed-form bound, which predicts the excess as a2 -> 1.

Unimodular component rotations leave every sup-norm quantity unchanged, so
all families fix the rotation to the identity without loss of generality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, PreconditionError, WitnessSearchError
from .functionals import FunctionalSpec, _evaluate, eval_functional
from .radii import SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA, _check_count, _check_unit, closed_form_radius
from .series import DEFAULT_ORDER, _mobius_rows
from .slices import PolydiscSlice

#: A witness must clear 1 by at least this much to be reported.
WITNESS_MARGIN = 1e-12


@dataclass(frozen=True)
class SharpnessWitness:
    """A concrete (lam, r) with functional lower value above 1.

    Existence proves the functional's radius cannot be enlarged to r.
    """

    spec: FunctionalSpec
    lam: float
    r: float
    value_lower: float

    @property
    def margin(self) -> float:
        return self.value_lower - 1.0

    def __post_init__(self) -> None:
        if not self.margin > 0.0:
            raise DomainError("a witness must have value_lower > 1")
        if not self.r > closed_form_radius(self.spec):
            raise DomainError("witness radius must exceed the sharp radius")


@dataclass(frozen=True)
class CounterexampleReport:
    """Outcome of evaluating a functional on an unequal-modulus slice.

    ``value_lower``/``value_upper`` enclose the direct functional value;
    ``analytic_bound`` is the staged closed-form lower bound whose a2 -> 1
    limit exceeds 1.  ``succeeded`` records value_lower > 1.
    """

    spec: FunctionalSpec
    a1: float
    a2: float
    r: float
    value_lower: float
    value_upper: float
    analytic_bound: float
    succeeded: bool


def _family_sign(spec: FunctionalSpec) -> str:
    return "minus" if spec.kind == "refined_p" else "plus"


def extremal_slice(spec: FunctionalSpec, lam: float, m: int = 1, n_terms: int = DEFAULT_ORDER) -> PolydiscSlice:
    """The m-component Moebius family on which a functional peaks.

    All components are equal, so the slice is equimodular by construction.  Its
    rows come from the family's closed form straight into the slice, which
    checks each row once by the Schur row rule.
    """
    _check_unit(lam, "extremal parameter", positive=True)
    m = _check_count(m, "component count m")
    rows = _mobius_rows([lam], _family_sign(spec), n_terms)
    return PolydiscSlice._owning(rows if m == 1 else rows.repeat(m, axis=0), [m])


def find_witness(spec: FunctionalSpec, r: float, m: int = 1, n_terms: int = DEFAULT_ORDER) -> SharpnessWitness:
    """Scan the extremal family for a functional value above 1 at radius r.

    Requires r strictly beyond the sharp radius (below it no witness can
    exist and the scan would be a bug in the caller).  Scans lam = 1 - 2^-j,
    j = 1 .. 40, which resolves the lam -> 1 regime; the squared kind scans
    its interior extremal parameter sqrt(3/11) first, so its witnesses land
    there deterministically.  Returns the first witness in that order with
    margin above :data:`WITNESS_MARGIN`; raises :class:`WitnessSearchError`
    if none clears it.  At r = radius + 1e-9 the scan holds lam whose exact
    family value exceeds 1, by about 1e-17: below :data:`WITNESS_MARGIN` and
    one ulp of 1, so only the closed forms of :mod:`polybohr.radii` on
    ``Fraction``s show it (ROADMAP item 17).

    From r = 0.95 on, the squared kind finds no witness at order 64: its
    modulus tail budget outgrows the margin (the README's known limits).
    """
    _check_unit(r, "radius")
    radius = closed_form_radius(spec)
    if r <= radius:
        raise PreconditionError(
            f"witness search needs r above the sharp radius {radius}, got {r}"
        )
    first = [SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA] if spec.kind == "improved_squared" else []
    for lam in [*first, *(1.0 - 0.5**j for j in range(1, 41))]:
        value = eval_functional(extremal_slice(spec, lam, m, n_terms), spec, r)
        if value.lower > 1.0 + WITNESS_MARGIN:
            return SharpnessWitness(spec=spec, lam=lam, r=r, value_lower=value.lower)
    raise WitnessSearchError(f"no witness for {spec.kind} at r = {r} on a depth-40 grid")


_COUNTEREXAMPLE_RANGES = {
    "improved_squared": math.sqrt(1.0 / 3.0),
    "refined_p": 1.0 / math.sqrt(2.0),
    "composed_k": 0.0,
}


def counterexample_analytic_bound(spec: FunctionalSpec, a1: float, a2: float, r: float) -> float:
    """Staged closed-form lower bound for the unequal-modulus functional.

    These are the a2 -> 1 limit expressions of the term-by-term bounding
    chains; each exceeds 1 for the admissible parameter ranges, which is
    what makes the two-component slices genuine counterexamples.  Other
    kinds and parameters outside floor < a1 < a2 < 1, 0 < r < 1 raise
    :class:`DomainError`: a1 and a2 each by the rule of every parameter
    (``radii._check_unit``), then their order.
    """
    if spec.kind not in _COUNTEREXAMPLE_RANGES:
        raise DomainError(f"no counterexample family for kind {spec.kind!r}")
    floor = _COUNTEREXAMPLE_RANGES[spec.kind]
    _check_unit(a1, "a1")
    _check_unit(a2, "a2")
    if not floor < a1 < a2:
        raise DomainError(f"{spec.kind} counterexample needs {floor} < a1 < a2 < 1, got a1={a1}, a2={a2}")
    _check_unit(r, "radius", positive=True)
    m1 = 1.0 - a1 * a1
    if spec.kind == "improved_squared":
        return 1.0 + m1 * m1 * r * r * (1.0 + a1 * a1 * r * r)
    if spec.kind == "refined_p":
        poly1 = 1.0 + a1 * r + (a1 * r) ** 2
        poly2 = 1.0 + (a1 * r) ** 2 + (a1 * r) ** 4
        return 1.0 + m1 * r * poly1 + (1.0 + r) * m1 * m1 * r * r * poly2 / (2.0 * (1.0 - r))
    return 1.0 + m1 * r + (1.0 + a2 * r) * m1 * m1 * r * r / ((1.0 - r) * (1.0 + a2))


def reproduce_counterexample(
    spec: FunctionalSpec, a1: float, a2: float, r: float, n_terms: int = DEFAULT_ORDER
) -> CounterexampleReport:
    """Evaluate a functional on the two-component unequal-modulus slice.

    The components are the Moebius maps with parameters a1 < a2 (reflected
    for the refined kind), which is exactly the configuration excluded by
    the equimodularity hypothesis; :func:`counterexample_analytic_bound`
    checks the parameters first.  Success means the direct lower value
    exceeds 1; a failed report (value_lower <= 1) is returned rather than
    raised, since the caller may simply need a2 closer to 1 or a larger r.
    """
    bound = counterexample_analytic_bound(spec, a1, a2, r)
    rows = _mobius_rows([a1, a2], _family_sign(spec), n_terms)
    # The slice is not equimodular on purpose, so building and evaluating it skip that hypothesis.
    [value] = _evaluate(PolydiscSlice._owning(rows, [2], hypothesis=False), spec, r)
    return CounterexampleReport(
        spec=spec,
        a1=a1,
        a2=a2,
        r=r,
        value_lower=value.lower,
        value_upper=value.upper,
        analytic_bound=bound,
        succeeded=value.lower > 1.0,
    )
