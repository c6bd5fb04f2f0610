"""The three polydisc majorant functionals and the classical majorant sum.

For a certified equimodular slice with coefficient norms
a_norm = max_i |a0^(i)| and Q_n = max_i |c_n^(i)|, each functional is a
modulus term plus a constant plus a S1 + b S2, with S1 = sum Q_n r^n,
S2 = sum Q_n^2 r^(2n) and w(r) = 1/(1 + a_norm) + r/(1 - r):

    kind                 modulus term               constant   a   b
    improved_squared     max_i sup |g_i|^2          0          0   1
    refined_p            max_i sup |g_i - a0^(i)|   a_norm^p   1   w(r)
    composed_k           max_i sup |g_i(t^k)|       0          1   w(r)
    classical (m = 1)    |a0|                       0          1   0

Each kind has one such row, with an upper bound, a lower bound and a tail
budget for the modulus term, and one function assembles every kind from
its row.  :func:`eval_functional_batch` is the one evaluator: it reads
a_norm, Q_n and the tail cap M from the ``SliceBatch`` that reduced them
once, and :func:`eval_functional` runs it on the batch a slice is made with.

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
All three modulus terms sample every component on :data:`slices.PHASES`
equally spaced points by one :func:`eval_series_many` call, a product of the
batch's rows with one memoized power table (rounding error about 1e-16 at
the default order).  The composed kind samples g_i itself on the circle
|s| = r^k, since sup_{|t|=r} |g_i(t^k)| = sup_{|s|=r^k} |g_i(s)|.  A slice
keeps its bits in any batch: its sums and circle values are per-row
products (one BLAS call per row) and maxima are exact, as
``tests/test_slice_batch.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, CertificationError, PreconditionError
from .radii import _check_count, _check_unit, closed_form_radius
from .series import _tail_value, eval_series_many
from .slices import (
    PolydiscSlice, SliceBatch, _radius_powers, _slice_max, phase_grid, schwarz_pick_bound, sup_modulus,
)

_KINDS = ("improved_squared", "refined_p", "composed_k", "classical")


@dataclass(frozen=True)
class FunctionalSpec:
    """Which functional to evaluate, plus its exponent or composition order.

    ``p`` must be given exactly for the refined kind (1 or 2), ``k`` exactly
    for the composed kind (an integer >= 1, by ``radii._check_count``).
    """

    kind: str
    p: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        for name, owner in (("p", "refined_p"), ("k", "composed_k")):
            if self.kind == owner and getattr(self, name) is None:
                raise DomainError(f"kind {owner!r} requires {name}")
            if self.kind != owner and getattr(self, name) is not None:
                raise DomainError(f"{name} applies only to kind {owner!r}, not to {self.kind!r}")
        if self.p is not None:
            if self.p not in (1, 2):
                raise DomainError(f"p must be 1 or 2, got {self.p!r}")
            # A plain int, as _check_count returns for k: an np.int64 would make a_norm**p an np.float64.
            object.__setattr__(self, "p", int(self.p))
        if self.k is not None:
            object.__setattr__(self, "k", _check_count(self.k, "composition order k"))

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


def eval_functional(s: PolydiscSlice, spec: FunctionalSpec, r: float) -> FunctionalValue:
    """Evaluate a functional on a slice at radius r, with tail budgets.

    Requires every component to be Schur-certified (the closed-form bounds
    and tail budgets are meaningless otherwise) and, for the three
    theorem-style kinds, an equimodular slice.  The rest is
    :func:`eval_functional_batch` on the slice's one-slice batch, which
    checks the radius and that the classical sum has one component.
    """
    if not s.certified:
        raise CertificationError("functional evaluation requires certified components")
    if spec.kind != "classical" and not s.equimodular:
        raise PreconditionError("slice is not equimodular; the functional bounds require equal initial moduli")
    return eval_functional_batch(s._batch, spec, r)[0]


def _assemble(
    spec: FunctionalSpec, r: float, x, s1, s2, t_lin, t_sq, sampled, termwise,
) -> FunctionalValue | list[FunctionalValue]:
    """Pick the kind's term row and assemble its value, over floats or over arrays.

    ``x`` is a_norm, ``s1`` and ``s2`` the truncated sums, ``t_lin`` and
    ``t_sq`` their tail budgets, ``sampled`` the phase-sampled sup of the
    kind's modulus term (None for classical) and ``termwise`` the refined
    kind's per-component upper bound.  The row is modulus upper, lower and
    tail, then constant, a and b.  Floats give one value, through Python's
    ``max`` and ``x**p``; arrays (one entry per slice) give one value per
    slice with the same bits, since every other step is one IEEE operation
    elementwise, and ``a_norm**2`` keeps Python's ``pow`` (numpy squares by
    ``x*x``).
    """
    one = isinstance(x, float)
    w = 1.0 / (1.0 + x) + r / (1.0 - r)
    if spec.kind == "classical":
        up, low, t_up, const, a, b = x, x, 0.0, 0.0, 1.0, 0.0
    else:
        assert sampled is not None
        low = max(sampled - t_lin, 0.0) if one else np.maximum(sampled - t_lin, 0.0)
        if spec.kind == "improved_squared":
            u_up = schwarz_pick_bound(x, r)
            up, low, t_up, const, a, b = u_up * u_up, low * low, 0.0, 0.0, 0.0, 1.0
        elif spec.kind == "refined_p":
            assert spec.p is not None and termwise is not None
            const = x**spec.p if one else np.array([norm**spec.p for norm in x.tolist()])
            up, t_up, a, b = termwise, t_lin, 1.0, w
        else:
            assert spec.kind == "composed_k" and spec.k is not None
            up, t_up, const, a, b = schwarz_pick_bound(x, r**spec.k), 0.0, 0.0, 1.0, w
    # Adding 0.0 and multiplying by 1.0 or 0.0 are exact, so each kind keeps
    # the bits of its own written-out formula.
    truncated = up + const + a * s1 + b * s2
    tail = t_up + a * t_lin + b * t_sq
    fields = (truncated, tail, low + const + a * s1 + b * s2, truncated + tail)
    if one:
        return FunctionalValue(*fields)
    return list(map(FunctionalValue, *(column.tolist() for column in fields)))


def eval_functional_batch(batch: SliceBatch, spec: FunctionalSpec, r: float) -> list[FunctionalValue]:
    """The functional on every slice of a batch at radius r, with tail budgets.

    The squared and composed kinds sample the circle through
    :func:`sup_modulus`, the refined kind through :func:`eval_series_many`.
    A batch from the public constructor is certified and equimodular; the
    classical kind also demands one component per slice.  A batch of several
    slices assembles its values as columns; a one-slice batch on Python floats.
    """
    _check_unit(r, "radius")
    # Every count is at least 1, so all are 1 exactly when there are as many rows as slices.
    if spec.kind == "classical" and batch.rows.shape[0] != len(batch):
        raise PreconditionError("classical majorant sum is defined for single-component slices")
    n, q = batch.truncation_order, batch.q
    rn, rn2 = _radius_powers(r, n)
    # One BLAS dot per row, as np.dot on one row (vecdot conjugates nothing real).
    s1, s2 = np.vecdot(q, rn), np.vecdot(q**2, rn2)
    sampled = termwise = None
    if spec.kind == "refined_p":
        # sup |g_i - g_i(0)| <= sum_n |c_n^(i)| r^n, taken per component (the
        # componentwise max Q_n would mix components); one t_lin covers its tail
        termwise = _slice_max(np.vecdot(batch.coeff_moduli, rn), batch.starts)
        values = eval_series_many(batch, phase_grid(r)) - batch.a0
        sampled = _slice_max(np.abs(values).max(axis=1), batch.starts)
    elif spec.kind != "classical":
        # sup over |t| = r of |g_i(t^k)| is the sup of |g_i| over |s| = r^k, where the
        # truncation error M r^(k(N+1))/(1 - r^k) is at most t_lin = M r^(N+1)/(1 - r), as r^k <= r.
        sampled = sup_modulus(batch, r**spec.k if spec.kind == "composed_k" else r)
    columns = [batch.a_norm, s1, s2, batch.tail_cap, sampled, termwise]
    if len(batch) == 1:
        columns = [None if column is None else column.item() for column in columns]
    x, sum1, sum2, cap, sampled, termwise = columns
    # Tail budgets on the caps: an array's IEEE operations are a float's; the modulus budget is the linear-sum one.
    values = _assemble(
        spec, r, x, sum1, sum2, _tail_value(cap, r, n, "linear_sum"), _tail_value(cap, r, n, "square_sum"),
        sampled, termwise,
    )
    return [values] if len(batch) == 1 else values


def verify_theorem(s: PolydiscSlice, spec: FunctionalSpec, r: float) -> tuple[bool, FunctionalValue]:
    """Check that a functional stays at most 1 on a slice at radius r.

    Only meaningful at or below the functional's sharp radius, which is
    enforced: past the radius the inequality is expected to fail on
    extremal slices, and a witness search is the right tool instead.

    A False result means the certified upper bound exceeds 1.  If the
    value's *lower* bound also exceeds 1, the slice genuinely violates the
    inequality, otherwise the verdict is inconclusive.  Genuine failures
    happen for the squared and p = 2 functionals when several components
    dominate different coefficient orders (e.g. the slice (t, t^2, t^3)), a
    regime in which the nominal radii do not apply.  Single-component slices
    and slices whose components agree up to unimodular factors never trigger
    them.
    """
    _check_below_radius(spec, r)
    value = eval_functional(s, spec, r)
    return value.upper <= 1.0, value


def verify_batch(batch: SliceBatch, spec: FunctionalSpec, r: float) -> list[tuple[bool, FunctionalValue]]:
    """:func:`verify_theorem` on every slice of a batch, through :func:`eval_functional_batch`."""
    _check_below_radius(spec, r)
    return [(value.upper <= 1.0, value) for value in eval_functional_batch(batch, spec, r)]


def _check_below_radius(spec: FunctionalSpec, r: float) -> None:
    radius = closed_form_radius(spec)
    if r > radius:
        raise PreconditionError(
            f"r = {r} exceeds the sharp radius {radius}; run a witness search instead"
        )
