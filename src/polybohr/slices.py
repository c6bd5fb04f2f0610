"""Polydisc slices: m component series sharing one slice direction.

A map F from a Banach ball into the closed unit polydisc, restricted to a
complex line through the origin, becomes a tuple of disc slices
(g_1(t), ..., g_m(t)) with the sup-norm structure of the polydisc.  The
functionals downstream consume the sampled sup of max_i |g_i| on circles
|t| = r and reductions of such a tuple, which a :class:`SliceBatch` computes
once.  A :class:`PolydiscSlice` is a one-slice batch.

The theorems need the *equimodular* initial condition |a0^(i)| = max_j |a0^(j)|
for every component.  Public and seeded batches raise :class:`PreconditionError`
without it when they are built; any other slice only flags it, and
``functionals.eval_functional_batch`` refuses a flagged slice.  Only
``sharpness.reproduce_counterexample`` evaluates one, unchecked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CertificationError, DomainError, PreconditionError
from .radii import _check_count, _check_unit
from .series import (
    CIRCLE_CACHE_SIZE, DEFAULT_ORDER, TailBudget, TailTermKind, TruncatedSeries, _complex_array, _schur_caps,
    _seeded_rows, _tail_value, eval_series_many,
)

#: Modulus spread below which initial values count as equimodular.  It
#: decides which slices the theorems cover and enters no bound: the
#: enclosures use max |a0| and the tail budgets min |a0|.
EQUIMODULAR_TOL = 1e-14

#: Number of equally spaced phases on every sampled circle.  Only lower
#: bounds sample the circle, so no verdict of an upper bound depends on it.
PHASES = 64


class CoefficientNorms(NamedTuple):
    """Sup-norm reductions a_norm = max_i |a0^(i)|, Q_n = max_i |c_n^(i)| and the ``moduli`` |c_n^(i)|, shape (m, N)."""

    a_norm: float
    q: np.ndarray
    moduli: np.ndarray


def coefficient_norms(s: PolydiscSlice) -> CoefficientNorms:
    """Componentwise-max initial value and coefficient moduli, read-only, from the slice's reductions."""
    return CoefficientNorms(a_norm=float(s.a_norm[0]), q=s.q[0], moduli=s.coeff_moduli)


def schwarz_pick_bound(a_norm: float, r: float) -> float:
    """Growth bound (a_norm + r) / (1 + a_norm r) for certified slices at |t| = r.

    Sharp for Moebius components, and monotone in a_norm, so it bounds
    max_i |g_i| whenever every component is Schur-certified.
    """
    return (a_norm + r) / (1.0 + a_norm * r)


@functools.lru_cache(maxsize=CIRCLE_CACHE_SIZE)
def phase_grid(r: float) -> np.ndarray:
    """Points r * exp(2 pi i j / PHASES), j = 0 .. PHASES-1, as a read-only array.

    Memoized per radius for the last :data:`CIRCLE_CACHE_SIZE` distinct
    radii (1 KB each); every caller shares the returned array.
    """
    theta = 2.0 * np.pi * np.arange(PHASES) / PHASES
    grid = r * np.exp(1j * theta)
    grid.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=CIRCLE_CACHE_SIZE)
def _radius_powers(r: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only weights r^n and r^(2n), n = 1 .. N, of the sums S1 and S2, memoized like :func:`phase_grid`."""
    rn = r ** np.arange(1, n + 1)
    for weights in (rn, rn2 := rn**2):
        weights.setflags(write=False)
    return rn, rn2


def sup_modulus(s: SliceBatch, r: float) -> float | np.ndarray:
    """Sampled sup of max_i |g_i(t)| over |t| = r, at :data:`PHASES` phases.

    A float for a :class:`PolydiscSlice` and one per slice for any other :class:`SliceBatch`.  A lower bound on
    the true sup (the grid always contains t = r itself); pair it with :func:`schwarz_pick_bound` for a two-sided
    enclosure.  The power-table rounding (about 1e-16) is not subtracted.
    """
    _check_unit(r, "radius")
    sups = _slice_max(np.abs(eval_series_many(s, phase_grid(r))).max(axis=1), s.starts)
    return float(sups[0]) if isinstance(s, PolydiscSlice) else sups


def _slice_max(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Maxima of ``values`` over each slice's rows; one slice takes a max, one row none: about 2 us less each."""
    if starts.size != 1:
        return np.maximum.reduceat(values, starts)
    return values if values.shape[0] == 1 else values.max(axis=0, keepdims=True)


def schwarz_compose(s: PolydiscSlice, k: int) -> PolydiscSlice:
    """Precompose each component with t -> t^k, re-truncated at the shared order.

    The coefficient of t^(k n) in g(t^k) is c_n; indices beyond the truncation order are dropped (for k larger than
    the order only the constant term survives).  Schur certification is preserved: composing with a disc self-map
    cannot leave the Schur class.  The evaluator does not call it: it samples g itself on the circle |s| = r^k.
    """
    k = _check_count(k, "composition order k")
    if k == 1:
        return s
    rows = np.zeros_like(s.rows)
    rows[:, 0], rows[:, k::k] = s.rows[:, 0], s.rows[:, 1 : s.truncation_order // k + 1]  # c_j to t^(kj)
    return PolydiscSlice._owning(rows, [s.m], certified=s.certified, hypothesis=False)


def slice_tail_bound(s: PolydiscSlice, r: float, term_kind: TailTermKind) -> TailBudget:
    """Tail budget valid for the componentwise-max sums of a slice.

    Q_n <= max_i (1 - |a0^(i)|^2) for every n, and each budget is nondecreasing
    in M = 1 - |a0|^2 (IEEE rounding is monotone), so the budget of the largest
    M, the slice's ``tail_cap``, is exactly the worst component's budget.
    """
    if not s.certified:
        raise CertificationError("tail bounds require Schur-certified components")
    _check_unit(r, "radius")
    return TailBudget(value=_tail_value(float(s.tail_cap[0]), r, s.truncation_order, term_kind))


@dataclass(frozen=True, eq=False)
class SliceBatch:
    """Slices as one struct of arrays, with their reductions computed once.

    ``rows`` (shape (R, N + 1)) holds a0, c_1, ..., c_N of every component, slice after slice, and ``counts`` the
    component count of each slice: a 1-d sequence whose entries each pass ``radii._check_count``.  The constructor
    copies the rows and runs the checks of ``TruncatedSeries(schur_certified=True)`` on every row (the row rule is
    ``series._schur_caps``), plus :class:`PreconditionError` for a slice that is not equimodular.  It keeps the views
    ``coeffs`` and ``a0`` (the (R, 1) column) of ``rows``, ``a0_moduli`` = |a0|, ``coeff_moduli``, each slice's
    first row ``starts`` and the per-slice reductions: ``a_norm`` = max_i |a0^(i)|, ``q`` = Q_n = max_i |c_n^(i)|
    and ``tail_cap`` = the max of that rule's caps max(1 - |a0^(i)|^2, 0).  Two flags cover the whole batch:
    ``certified`` and ``equimodular``, the one equimodularity rule a_norm - min_i |a0^(i)| <= :data:`EQUIMODULAR_TOL`
    on every slice.  Only a one-slice batch is ever built without that rule, so a batch of several slices is
    equimodular or was never made.  Read-only, 1.7 to 2 times the row bytes.
    """

    rows: np.ndarray
    counts: np.ndarray
    coeffs: np.ndarray = field(init=False, repr=False)
    a0: np.ndarray = field(init=False, repr=False)
    a0_moduli: np.ndarray = field(init=False, repr=False)
    coeff_moduli: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)
    a_norm: np.ndarray = field(init=False, repr=False)
    q: np.ndarray = field(init=False, repr=False)
    tail_cap: np.ndarray = field(init=False, repr=False)
    equimodular: bool = field(init=False, repr=False)
    certified: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not np.iterable(self.counts) or any(np.ndim(count) for count in self.counts):
            raise DomainError(f"counts must be a 1-d sequence, got {self.counts!r}")
        counts = [_check_count(count, "component count") for count in self.counts]
        self._take(_complex_array(self.rows, "rows").copy(), counts)

    @classmethod
    def _owning(cls, rows: np.ndarray, counts: Sequence[int], certified=True, hypothesis=True) -> "SliceBatch":
        """A batch that takes ``rows``, a complex128 array no one else holds, without a copy, and checks it as the
        constructor does: the coefficient bound only when ``certified``, equimodularity only with ``hypothesis``."""
        (batch := object.__new__(cls))._take(rows, counts, certified, hypothesis)
        return batch

    def _take(self, rows: np.ndarray, counts: Sequence[int], certified=True, hypothesis=True) -> None:
        if rows.ndim != 2 or rows.shape[1] < 2:
            raise DomainError("coeffs must be a nonempty finite 1-d sequence")
        # |a0|, max(1 - |a0|^2, 0) and |c_n| side by side: one per-slice max gives a_norm, tail_cap and Q_n.
        moduli = np.empty((rows.shape[0], rows.shape[1] + 1))
        np.abs(rows[:, 1:], out=moduli[:, 2:])
        a0_moduli, worst = [abs(a0) for a0 in rows[:, 0].tolist()], moduli[:, 2:].max(axis=1).tolist()
        # NaN and inf reach the row maxima; a finite c_n whose modulus overflows reaches them too, and passes.
        if not math.isfinite(sum(worst)) and not np.isfinite(rows[:, 1:]).all():
            raise DomainError("coeffs must be a nonempty finite 1-d sequence")
        if sum(counts) != rows.shape[0]:
            raise DomainError(f"component counts add up to {sum(counts)}, not to the {rows.shape[0]} rows")
        moduli[:, 0], moduli[:, 1] = a0_moduli, _schur_caps(a0_moduli, worst if certified else None)
        if len(counts) == 1:  # one slice: shared index arrays, and the spread on Python floats
            spread = max(a0_moduli) - min(a0_moduli)
            counts, starts = _one_slice(counts[0])
        else:
            counts = np.array(counts, dtype=np.intp)
            starts = np.add.accumulate(counts) - counts
            spreads = np.maximum.reduceat(moduli[:, 0], starts) - np.minimum.reduceat(moduli[:, 0], starts)
            spread = float(spreads.max(initial=0.0))
            for arr in (counts, starts):
                arr.setflags(write=False)
        if hypothesis and spread > EQUIMODULAR_TOL:
            raise PreconditionError(
                f"slice is not equimodular: initial moduli spread {spread} exceeds {EQUIMODULAR_TOL}"
            )
        maxima = _slice_max(moduli, starts)
        for arr in (rows, moduli, maxima):  # and so every view of them
            arr.setflags(write=False)
        self.__dict__.update(
            rows=rows, counts=counts, coeffs=rows[:, 1:], a0=rows[:, :1], a0_moduli=moduli[:, 0],
            coeff_moduli=moduli[:, 2:], starts=starts, a_norm=maxima[:, 0], tail_cap=maxima[:, 1], q=maxima[:, 2:],
            equimodular=spread <= EQUIMODULAR_TOL, certified=certified,
        )

    def __len__(self) -> int:
        return int(self.counts.size)

    @property
    def truncation_order(self) -> int:
        return int(self.coeffs.shape[1])

    def slices(self) -> list[PolydiscSlice]:
        """The batch as per-slice objects, bit for bit: slices that view its rows and reductions."""
        out = []
        for i, (lo, hi) in enumerate(zip(self.starts.tolist(), (self.starts + self.counts).tolist())):
            rows, part, one = slice(lo, hi), object.__new__(PolydiscSlice), slice(i, i + 1)
            part.__dict__.update(
                rows=self.rows[rows], counts=self.counts[one], coeffs=self.coeffs[rows], a0=self.a0[rows],
                a0_moduli=self.a0_moduli[rows], coeff_moduli=self.coeff_moduli[rows], starts=self.starts[:1],  # [0]
                a_norm=self.a_norm[one], tail_cap=self.tail_cap[one], q=self.q[one],
                equimodular=self.equimodular, certified=self.certified,
            )
            out.append(part)
        return out


class PolydiscSlice(SliceBatch):
    """m component series with a shared truncation order: a :class:`SliceBatch` of exactly one slice, whose
    constructor flags unequal moduli rather than raising.  ``components`` builds read-only views of the rows."""

    def __init__(self, components: Sequence[TruncatedSeries]) -> None:
        comps = tuple(components)
        if len(comps) < 1:
            raise DomainError("a slice needs at least one component")
        orders = {c.truncation_order for c in comps}
        if len(orders) != 1:
            raise DomainError(f"components must share a truncation order, got {sorted(orders)}")
        rows = np.empty((len(comps), orders.pop() + 1), dtype=np.complex128)
        for row, comp in zip(rows, comps):
            row[0], row[1:] = comp.a0, comp.coeffs
        self._take(rows, [len(comps)], all(c.schur_certified for c in comps), hypothesis=False)

    @classmethod
    def from_components(cls, components: Sequence[TruncatedSeries]) -> "PolydiscSlice":
        """Build a slice from any sequence of components."""
        return cls(components)

    @property
    def components(self) -> tuple[TruncatedSeries, ...]:
        return tuple(TruncatedSeries._view(row, self.certified) for row in self.rows)

    @property
    def m(self) -> int:
        return self.rows.shape[0]


@functools.lru_cache(maxsize=16)
def _one_slice(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``counts`` [m] and ``starts`` [0] of one-slice batches, shared by them all."""
    for arr in (index := (np.array([m], dtype=np.intp), np.zeros(1, dtype=np.intp))):
        arr.setflags(write=False)
    return index


def random_slice_batch(
    seeds: Iterable[int], m: int | None = None, n_terms: int = DEFAULT_ORDER, scalar: bool = False
) -> SliceBatch:
    """The slices of :func:`random_equimodular_slice` for each seed, as one batch.

    With ``scalar``, the one-component slices of ``random_schur_series``
    instead; ``m`` must then be omitted.  Every :data:`~polybohr.series.SYNTH_CHUNK`
    seeds are drawn and synthesized as one block, so the temporaries stay
    bounded on any seed range; ``verify`` passes one such chunk at a time.
    """
    rows, counts = _seeded_rows(seeds, n_terms, m=m, scalar=scalar)
    return SliceBatch._owning(rows, counts)


def random_equimodular_slice(seed: int, m: int | None = None, n_terms: int = DEFAULT_ORDER) -> PolydiscSlice:
    """Draw a certified slice whose initial values share one modulus.

    Each component gets its own Schur parameters, except that every leading
    parameter is forced onto a common circle |g_0| = rho (with independent
    phases), which pins |a0^(i)| = rho for all components.  The output is
    reproducible per ``seed``; ``m`` is drawn from {1, 2, 3} when omitted.
    """
    return PolydiscSlice._owning(*_seeded_rows([seed], n_terms, m=m))
