"""The three polydisc majorant functionals and the classical majorant sum.

For a certified equimodular slice with coefficient norms
a_norm = max_i |a0^(i)| and Q_n = max_i |c_n^(i)|, and with
w(r) = 1/(1 + a_norm) + r/(1 - r), the functionals are

* ``improved_squared``:  max_i sup |g_i|^2            + sum Q_n^2 r^(2n)
* ``refined_p``:         max_i sup |g_i - a0^(i)|
                         + a_norm^p + sum Q_n r^n + w(r) sum Q_n^2 r^(2n)
* ``composed_k``:        max_i sup |g_i(t^k)|
                         + sum Q_n r^n + w(r) sum Q_n^2 r^(2n)
* ``classical`` (m = 1): |a0| + sum |c_n| r^n

Every evaluation is two-sided.  The *upper* value replaces each modulus
term by a closed-form bound and adds the geometric tail budgets of the
truncated sums, so "upper <= 1" assertions are rigorous: max_i sup |g_i|
and max_i sup |g_i(t^k)| by their Schwarz-Pick bounds, and
max_i sup |g_i - a0^(i)| by the triangle inequality taken in each
component on its own, max_i sum |c_n^(i)| r^n (never larger than
sum Q_n r^n, which mixes the largest coefficients of different components).
The *lower* value replaces each modulus term by a phase-sampled evaluation
minus its truncation budget and keeps the (under-counted) truncated sums,
so "lower > 1" witnesses are equally rigorous up to the evaluation's
rounding.  Verification never mixes the two directions.
All three modulus terms sample one circle primitive, every component on
``phases`` equally spaced points by one power-table product each
(:func:`eval_series_many`, rounding error about 1e-16 at the default order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, CertificationError, PreconditionError
from .radii import closed_form_radius
from .slices import (
    DEFAULT_PHASES,
    PolydiscSlice,
    _circle_values,
    coefficient_norms,
    schwarz_compose,
    schwarz_pick_bound,
    slice_tail_bound,
    sup_modulus,
)

#: Tolerance for "functional stays at most 1" assertions.
VERIFY_TOL = 1e-10

_KINDS = ("improved_squared", "refined_p", "composed_k", "classical")


@dataclass(frozen=True)
class FunctionalSpec:
    """Which functional to evaluate, plus its exponent or composition order.

    ``p`` must be given exactly for the refined kind (1 or 2), ``k`` exactly
    for the composed kind (a positive integer).
    """

    kind: str
    p: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if (self.kind == "refined_p") != (self.p is not None):
            raise DomainError("exponent p is required exactly for kind 'refined_p'")
        if (self.kind == "composed_k") != (self.k is not None):
            raise DomainError("order k is required exactly for kind 'composed_k'")
        if self.p is not None and self.p not in (1, 2):
            raise DomainError(f"p must be 1 or 2, got {self.p}")
        if self.k is not None and (int(self.k) != self.k or self.k < 1):
            raise DomainError(f"k must be a positive integer, got {self.k}")
        # Store plain ints: a float k such as 2.0 would break slicing by k, and
        # an np.int64 would turn every r**k downstream into np.float64.
        for name in ("p", "k"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, int(getattr(self, name)))

    @classmethod
    def improved_squared(cls) -> "FunctionalSpec":
        return cls(kind="improved_squared")

    @classmethod
    def refined(cls, p: int) -> "FunctionalSpec":
        return cls(kind="refined_p", p=p)

    @classmethod
    def composed(cls, k: int) -> "FunctionalSpec":
        return cls(kind="composed_k", k=k)

    @classmethod
    def classical(cls) -> "FunctionalSpec":
        return cls(kind="classical")


@dataclass(frozen=True)
class FunctionalValue:
    """Two-sided enclosure of a functional evaluation.

    ``truncated`` uses closed-form modulus bounds and truncated sums;
    ``upper = truncated + tail`` adds the geometric tail budgets;
    ``lower`` swaps the modulus bounds for sampled evaluations less their
    truncation budgets (and equals ``truncated`` for kinds without a
    modulus term).
    """

    truncated: float
    tail: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.tail < 0.0:
            raise DomainError("tail must be nonnegative")
        if self.lower > self.upper + 1e-15:
            raise DomainError("lower bound exceeds upper bound")


def _weight(a_norm: float, r: float) -> float:
    return 1.0 / (1.0 + a_norm) + r / (1.0 - r)


def _sampled_diff_sup(s: PolydiscSlice, r: float, phases: int) -> float:
    """Sampled sup of max_i |g_i(t) - g_i(0)| over |t| = r."""
    a0 = np.array([[comp.a0] for comp in s.components])
    return float(np.max(np.abs(_circle_values(s, r, phases) - a0)))


def eval_functional(
    s: PolydiscSlice,
    spec: FunctionalSpec,
    r: float,
    phases: int = DEFAULT_PHASES,
    allow_non_equimodular: bool = False,
) -> FunctionalValue:
    """Evaluate a functional on a slice at radius r, with tail budgets.

    Requires every component to be Schur-certified (the closed-form bounds
    and tail budgets are meaningless otherwise) and, for the three
    theorem-style kinds, an equimodular slice; ``allow_non_equimodular``
    exists for the counterexample driver, which deliberately evaluates the
    functionals where their hypotheses fail.  The classical kind is the
    scalar majorant sum and demands a single component.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r}")
    if not s.certified:
        raise CertificationError("functional evaluation requires certified components")
    if spec.kind == "classical":
        if s.m != 1:
            raise PreconditionError("classical majorant sum is defined for single-component slices")
    elif not s.equimodular and not allow_non_equimodular:
        raise PreconditionError(
            "slice is not equimodular; the functional bounds require equal initial moduli"
        )

    norms = coefficient_norms(s)
    x = norms.a_norm
    n = s.truncation_order
    rn = r ** np.arange(1, n + 1)
    s1 = float(np.dot(norms.q, rn))
    s2 = float(np.dot(norms.q**2, rn**2))
    t_lin = slice_tail_bound(s, r, "linear_sum").value
    t_sq = slice_tail_bound(s, r, "square_sum").value
    t_mod = slice_tail_bound(s, r, "modulus").value

    if spec.kind == "classical":
        truncated = x + s1
        return FunctionalValue(truncated=truncated, tail=t_lin, lower=truncated, upper=truncated + t_lin)

    if spec.kind == "improved_squared":
        u_up = schwarz_pick_bound(x, r)
        u_low = max(sup_modulus(s, r, phases) - t_mod, 0.0)
        truncated = u_up * u_up + s2
        return FunctionalValue(
            truncated=truncated,
            tail=t_sq,
            lower=u_low * u_low + s2,
            upper=truncated + t_sq,
        )

    w = _weight(x, r)
    if spec.kind == "refined_p":
        assert spec.p is not None
        # sup |g_i - g_i(0)| <= sum_n |c_n^(i)| r^n, taken per component (the
        # componentwise max Q_n would mix components); one t_lin covers its tail
        d_up = float(np.max(norms.moduli @ rn))
        d_low = max(_sampled_diff_sup(s, r, phases) - t_mod, 0.0)
        truncated = d_up + x**spec.p + s1 + w * s2
        tail = 2.0 * t_lin + w * t_sq
        return FunctionalValue(
            truncated=truncated,
            tail=tail,
            lower=d_low + x**spec.p + s1 + w * s2,
            upper=truncated + tail,
        )

    assert spec.kind == "composed_k" and spec.k is not None
    c_up = schwarz_pick_bound(x, r**spec.k)
    # g_i(t^k) keeps a0^(i) and the truncation order, so t_mod is its budget too
    c_low = max(sup_modulus(schwarz_compose(s, spec.k), r, phases) - t_mod, 0.0)
    truncated = c_up + s1 + w * s2
    tail = t_lin + w * t_sq
    return FunctionalValue(
        truncated=truncated,
        tail=tail,
        lower=c_low + s1 + w * s2,
        upper=truncated + tail,
    )


def verify_theorem(
    s: PolydiscSlice,
    spec: FunctionalSpec,
    r: float,
    phases: int = DEFAULT_PHASES,
) -> tuple[bool, FunctionalValue]:
    """Check that a functional stays at most 1 on a slice at radius r.

    Only meaningful at or below the functional's sharp radius, which is
    enforced: past the radius the inequality is expected to fail on
    extremal slices, and a witness search is the right tool instead.

    A False result means the certified upper bound exceeds 1 + :data:`VERIFY_TOL`,
    the one tolerance of every verification.  If the returned value's *lower*
    bound also exceeds 1, the slice genuinely violates the inequality: this
    can happen for the squared and p = 2 functionals when several components
    dominate different coefficient orders (e.g. the slice (t, t^2, t^3)), a
    regime in which the nominal radii do not apply.  Single-component slices
    and slices whose components agree up to unimodular factors never trigger
    it.
    """
    radius = closed_form_radius(spec)
    if r > radius + 1e-12:
        raise PreconditionError(
            f"r = {r} exceeds the sharp radius {radius}; run a witness search instead"
        )
    value = eval_functional(s, spec, r, phases=phases)
    return value.upper <= 1.0 + VERIFY_TOL, value
