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
its row, for :func:`eval_functional` on one slice and for
:func:`eval_functional_batch` on every slice of a ``SliceBatch``.

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
equally spaced points by a product with one memoized power table
(rounding error about 1e-16 at the default order): one
:func:`eval_series_many` call per component on a single slice, one
stacked product over a batch's rows.  The composed kind samples g_i itself
on the circle |s| = r^k, since sup_{|t|=r} |g_i(t^k)| = sup_{|s|=r^k} |g_i(s)|.

The batch keeps the per-slice bits: its sums, the refined kind's
per-component sums and the circle values are stacked per-row products (one
BLAS call per row, as a single slice makes), |a0| is
``np.hypot`` (Python's ``abs`` of a complex; ``np.abs`` differs in the last
bit on some inputs) and 1 - |a0|^2 squares by Python's ``pow`` (numpy's
square differs from it on some inputs); ``tests/test_slice_batch.py`` pins
the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, CertificationError, PreconditionError
from .radii import _check_order, closed_form_radius
from .series import _power_table, _tail_value
from .slices import (
    PolydiscSlice,
    SliceBatch,
    _circle_values,
    coefficient_norms,
    phase_grid,
    schwarz_pick_bound,
    slice_tail_bound,
    sup_modulus,
)

_KINDS = ("improved_squared", "refined_p", "composed_k", "classical")


@dataclass(frozen=True)
class FunctionalSpec:
    """Which functional to evaluate, plus its exponent or composition order.

    ``p`` must be given exactly for the refined kind (1 or 2), ``k`` exactly
    for the composed kind (a positive integer no larger than the largest float).
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
        if self.p is not None and self.p not in (1, 2):
            raise DomainError(f"p must be 1 or 2, got {self.p}")
        if self.k is not None:
            _check_order(self.k)
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


def eval_functional(
    s: PolydiscSlice,
    spec: FunctionalSpec,
    r: float,
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
    n = s.truncation_order
    rn = r ** np.arange(1, n + 1)
    s1 = float(np.dot(norms.q, rn))
    s2 = float(np.dot(norms.q**2, rn**2))
    # The modulus budget M r^(N+1)/(1 - r) is the linear-sum budget, bit for bit.
    t_lin = slice_tail_bound(s, r, "linear_sum").value
    t_sq = slice_tail_bound(s, r, "square_sum").value
    sampled = termwise = None
    if spec.kind == "improved_squared":
        sampled = sup_modulus(s, r)
    elif spec.kind == "refined_p":
        # sup |g_i - g_i(0)| <= sum_n |c_n^(i)| r^n, taken per component (the
        # componentwise max Q_n would mix components); one t_lin covers its tail
        termwise = max(float(np.dot(row, rn)) for row in norms.moduli)
        a0 = np.array([[comp.a0] for comp in s.components])
        sampled = float(np.max(np.abs(_circle_values(s, r) - a0)))
    elif spec.kind == "composed_k":
        # sup over |t| = r of |g_i(t^k)| is the sup of |g_i| over |s| = r^k.
        # There the truncation error M r^(k(N+1))/(1 - r^k) is at most
        # t_lin = M r^(N+1)/(1 - r), as r^k <= r.
        sampled = sup_modulus(s, r**spec.k)
    return _assemble(spec, r, norms.a_norm, s1, s2, t_lin, t_sq, sampled, termwise)


def _assemble(
    spec: FunctionalSpec, r: float, x: float, s1: float, s2: float, t_lin: float, t_sq: float,
    sampled: float | None, termwise: float | None,
) -> FunctionalValue:
    """Pick the kind's term row and assemble its value.

    ``x`` is a_norm, ``s1`` and ``s2`` the truncated sums, ``t_lin`` and
    ``t_sq`` their tail budgets, ``sampled`` the phase-sampled sup of the
    kind's modulus term (None for classical) and ``termwise`` the refined
    kind's per-component upper bound.  The row is modulus upper, lower and
    tail, then constant, a and b.
    """
    w = 1.0 / (1.0 + x) + r / (1.0 - r)
    if spec.kind == "classical":
        up, low, t_up, const, a, b = x, x, 0.0, 0.0, 1.0, 0.0
    else:
        assert sampled is not None
        low = max(sampled - t_lin, 0.0)
        if spec.kind == "improved_squared":
            u_up = schwarz_pick_bound(x, r)
            up, low, t_up, const, a, b = u_up * u_up, low * low, 0.0, 0.0, 0.0, 1.0
        elif spec.kind == "refined_p":
            assert spec.p is not None and termwise is not None
            up, t_up, const, a, b = termwise, t_lin, x**spec.p, 1.0, w
        else:
            assert spec.kind == "composed_k" and spec.k is not None
            up, t_up, const, a, b = schwarz_pick_bound(x, r**spec.k), 0.0, 0.0, 1.0, w
    # Adding 0.0 and multiplying by 1.0 or 0.0 are exact, so each kind keeps
    # the bits of its own written-out formula.
    truncated = up + const + a * s1 + b * s2
    tail = t_up + a * t_lin + b * t_sq
    return FunctionalValue(
        truncated=truncated,
        tail=tail,
        lower=low + const + a * s1 + b * s2,
        upper=truncated + tail,
    )


def eval_functional_batch(batch: SliceBatch, spec: FunctionalSpec, r: float) -> list[FunctionalValue]:
    """:func:`eval_functional` on every slice of a batch, bit for bit.

    The reductions run over the whole batch: a_norm, Q_n and the tail bound
    M by ``np.maximum.reduceat`` over each slice's rows, S1 and S2 as stacked
    per-row products, the refined kind's per-component sums as one stacked
    per-row product reduced per slice, and every component's circle values
    from one power table (of the circle |s| = r^k for the composed kind) and
    one stacked product with the coefficients.  Each such product runs the
    same BLAS call per row as the per-slice path.  Each value is then
    assembled as :func:`eval_functional` assembles it.  The batch is
    certified and equimodular by construction; the classical kind still
    demands one component per slice.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r}")
    if spec.kind == "classical" and np.any(batch.counts != 1):
        raise PreconditionError("classical majorant sum is defined for single-component slices")
    if len(batch) == 0:
        return []
    n, starts = batch.truncation_order, batch.starts
    rn = r ** np.arange(1, n + 1)
    q = np.maximum.reduceat(batch.coeff_moduli, starts, axis=0)
    s1 = (q[:, np.newaxis, :] @ rn[:, np.newaxis])[:, 0, 0]
    s2 = ((q**2)[:, np.newaxis, :] @ (rn**2)[:, np.newaxis])[:, 0, 0]
    cap = np.maximum(np.maximum.reduceat(batch.caps, starts), 0.0)
    t_lin = _tail_value(cap, r, n, "linear_sum")
    t_sq = _tail_value(cap, r, n, "square_sum")
    sampled = termwise = [None] * len(batch)
    if spec.kind != "classical":
        ts = phase_grid(r**spec.k if spec.kind == "composed_k" else r)
        a0 = batch.rows[:, :1]
        values = (_power_table(ts.tobytes(), ts.shape, n) @ batch.coeffs[:, :, np.newaxis])[:, :, 0]
        values += a0
        if spec.kind == "refined_p":
            values -= a0
            sums = (batch.coeff_moduli[:, np.newaxis, :] @ rn[:, np.newaxis])[:, 0, 0]
            termwise = np.maximum.reduceat(sums, starts).tolist()
        sampled = np.maximum.reduceat(np.abs(values).max(axis=1), starts).tolist()
    x = np.maximum.reduceat(batch.a0_moduli, starts)
    return [
        _assemble(spec, r, *row)
        for row in zip(x.tolist(), s1.tolist(), s2.tolist(), t_lin.tolist(), t_sq.tolist(), sampled, termwise)
    ]


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
