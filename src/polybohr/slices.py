"""Polydisc slices: m component series sharing one slice direction.

A map F from a Banach ball into the closed unit polydisc, restricted to a
complex line through the origin, becomes a tuple of disc slices
(g_1(t), ..., g_m(t)) with the sup-norm structure of the polydisc.  The
functionals downstream consume two reductions of such a tuple: the
componentwise-max coefficient norms Q_n = max_i |c_n^(i)|, and the sampled
sup of max_i |g_i| on circles |t| = r.

All verification entry points require the *equimodular* initial condition
|a0^(i)| = max_j |a0^(j)| for every component; the counterexample driver is
the only consumer allowed to bypass it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CertificationError, DomainError, PreconditionError
from .series import (
    CIRCLE_CACHE_SIZE,
    COEFF_SLACK,
    DEFAULT_ORDER,
    TailBudget,
    TailTermKind,
    TruncatedSeries,
    _certified,
    _seeded_rows,
    eval_series_many,
    tail_bound,
)

#: Modulus spread below which initial values count as equimodular.
EQUIMODULAR_TOL = 1e-14

#: Number of equally spaced phases on every sampled circle.  Only lower
#: bounds sample the circle, so no verdict of an upper bound depends on it.
PHASES = 64


@dataclass(frozen=True, eq=False)
class PolydiscSlice:
    """m component series with shared truncation order.

    ``equimodular`` is derived from the components: True when their initial
    values share one modulus to :data:`EQUIMODULAR_TOL`.
    """

    components: tuple[TruncatedSeries, ...]
    equimodular: bool = field(init=False)

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if len(comps) < 1:
            raise DomainError("a slice needs at least one component")
        orders = {c.truncation_order for c in comps}
        if len(orders) != 1:
            raise DomainError(f"components must share a truncation order, got {sorted(orders)}")
        object.__setattr__(self, "components", comps)
        moduli = [abs(c.a0) for c in comps]
        object.__setattr__(self, "equimodular", max(moduli) - min(moduli) <= EQUIMODULAR_TOL)

    @classmethod
    def from_components(cls, components: Sequence[TruncatedSeries]) -> "PolydiscSlice":
        """Build a slice from any sequence of components."""
        return cls(components=tuple(components))

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def truncation_order(self) -> int:
        return self.components[0].truncation_order

    @property
    def certified(self) -> bool:
        return all(c.schur_certified for c in self.components)


class CoefficientNorms(NamedTuple):
    """Sup-norm reductions a_norm = max_i |a0^(i)| and Q_n = max_i |c_n^(i)|,
    with the per-component moduli |c_n^(i)| they reduce (``moduli``, shape (m, N))."""

    a_norm: float
    q: np.ndarray
    moduli: np.ndarray


def coefficient_norms(s: PolydiscSlice) -> CoefficientNorms:
    """Componentwise-max initial value and coefficient moduli."""
    stack = np.abs(np.array([c.coeffs for c in s.components]))
    a_norm = max(abs(c.a0) for c in s.components)
    return CoefficientNorms(a_norm=float(a_norm), q=stack.max(axis=0), moduli=stack)


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


def _circle_values(s: PolydiscSlice, r: float) -> np.ndarray:
    """Values g_i(t) on the phase grid of radius r, shape (m, PHASES): one
    :func:`eval_series_many` call per component, for every sampled modulus
    term of :func:`functionals.eval_functional`."""
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r}")
    ts = phase_grid(r)
    return np.array([eval_series_many(comp, ts) for comp in s.components])


def sup_modulus(s: PolydiscSlice, r: float) -> float:
    """Sampled sup of max_i |g_i(t)| over |t| = r, at :data:`PHASES` phases.

    A lower bound on the true sup (the grid always contains t = r itself);
    pair it with :func:`schwarz_pick_bound` for a two-sided enclosure.  The
    power-table rounding of :func:`eval_series_many` (about 1e-16) is not subtracted.
    """
    return float(np.max(np.abs(_circle_values(s, r))))


def schwarz_compose(s: PolydiscSlice, k: int) -> PolydiscSlice:
    """Precompose each component with t -> t^k, re-truncated at the shared order.

    The coefficient of t^(k n) in g(t^k) is c_n; indices beyond the
    truncation order are dropped (for k larger than the order only the
    constant term survives).  Schur certification is preserved: composing
    with a disc self-map cannot leave the Schur class.
    """
    if k < 1:
        raise DomainError(f"composition order k must be >= 1, got {k}")
    if k == 1:
        return s
    n = s.truncation_order
    out = []
    for comp in s.components:
        coeffs = np.zeros(n, dtype=np.complex128)
        coeffs[k - 1 :: k] = comp.coeffs[: n // k]  # c_j to t^(k j) for k j <= n
        out.append(TruncatedSeries(a0=comp.a0, coeffs=coeffs, schur_certified=comp.schur_certified))
    return PolydiscSlice(components=tuple(out))


def slice_tail_bound(s: PolydiscSlice, r: float, term_kind: TailTermKind) -> TailBudget:
    """Tail budget valid for the componentwise-max sums of a slice.

    Q_n <= max_i (1 - |a0^(i)|^2) for every n, so the worst single
    component's geometric tail bounds the Q-sum tails as well.  Components share
    N and each budget is nondecreasing in M = 1 - |a0|^2 (IEEE rounding is
    monotone), so the component with the largest M gives exactly the worst budget.
    """
    if not s.certified:
        raise CertificationError("tail bounds require Schur-certified components")
    return tail_bound(max(s.components, key=lambda c: 1.0 - abs(c.a0) ** 2), r, term_kind)


@dataclass(frozen=True, eq=False)
class SliceBatch:
    """Certified equimodular slices as one struct of arrays.

    ``rows`` (shape (R, N + 1)) holds a0, c_1, ..., c_N of every component,
    slice after slice, and ``counts`` the component count of each slice.
    Construction runs the checks of ``TruncatedSeries(schur_certified=True)``
    on every row, vectorised, with the same thresholds and exception types,
    raises :class:`PreconditionError` for a slice whose ``PolydiscSlice``
    would not be equimodular, and keeps the reductions it computes: the
    moduli |a0| (``a0_moduli``, as Python's ``abs`` gives them, by
    ``np.hypot``), the coefficient bounds 1 - |a0|^2 (``caps``, squared by
    Python's ``pow`` like ``tail_bound``, whose bits numpy's square does not
    always share), the coefficients (``coeffs``, a read-only (R, N) view of
    ``rows``), their moduli (``coeff_moduli``) and the first row of each
    slice (``starts``).  The batch holds about 1.5 times the bytes of its
    rows: the copied rows and the moduli.
    """

    rows: np.ndarray
    counts: np.ndarray
    coeffs: np.ndarray = field(init=False, repr=False)
    coeff_moduli: np.ndarray = field(init=False, repr=False)
    a0_moduli: np.ndarray = field(init=False, repr=False)
    caps: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=np.complex128)
        counts = np.array(self.counts, dtype=np.intp).reshape(-1)
        if rows.ndim != 2 or rows.shape[1] < 2 or not np.all(np.isfinite(rows[:, 1:])):
            raise DomainError("coeffs must be a nonempty finite 1-d sequence")
        if np.any(counts < 1):
            raise DomainError("a slice needs at least one component")
        if counts.sum() != rows.shape[0]:
            raise DomainError(f"component counts add up to {counts.sum()}, not to the {rows.shape[0]} rows")
        a0_moduli = np.hypot(rows[:, 0].real, rows[:, 0].imag)
        above = ~(a0_moduli <= 1.0 + 1e-15)  # also flags a NaN a0
        if above.any():
            raise DomainError(f"|a0| = {a0_moduli[above][0]} must be finite and at most 1")
        caps = 1.0 - np.array([x**2 for x in a0_moduli.tolist()], dtype=np.float64)
        coeffs = rows[:, 1:]
        coeff_moduli = np.abs(coeffs)
        worst = coeff_moduli.max(axis=1)
        bad = np.flatnonzero(worst > caps + COEFF_SLACK)
        if bad.size:
            raise CertificationError(
                f"certified series violates coefficient bound: "
                f"max |c_n| = {worst[bad[0]]} > 1 - |a0|^2 = {caps[bad[0]]}"
            )
        starts = np.cumsum(counts) - counts
        if starts.size:
            spread = np.maximum.reduceat(a0_moduli, starts) - np.minimum.reduceat(a0_moduli, starts)
            if np.any(spread > EQUIMODULAR_TOL):
                raise PreconditionError(
                    f"slice is not equimodular: initial moduli spread {spread.max()} exceeds {EQUIMODULAR_TOL}"
                )
        arrays = dict(
            rows=rows, counts=counts, coeffs=coeffs, coeff_moduli=coeff_moduli, a0_moduli=a0_moduli, caps=caps, starts=starts
        )
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.counts.size)

    @property
    def truncation_order(self) -> int:
        return int(self.coeffs.shape[1])

    def slices(self) -> list[PolydiscSlice]:
        """The batch as per-slice objects, bit for bit."""
        return _slices(self.rows, self.counts.tolist())


def _slices(rows: np.ndarray, counts: Sequence[int]) -> list[PolydiscSlice]:
    """Certified equimodular slices of ``counts[i]`` consecutive rows each."""
    comps = [_certified(row) for row in rows]
    out, start = [], 0
    for count in counts:
        out.append(PolydiscSlice(components=tuple(comps[start : start + count])))
        start += count
    return out


def random_slice_batch(
    seeds: Iterable[int],
    m: int | None = None,
    n_terms: int = DEFAULT_ORDER,
    scalar: bool = False,
) -> SliceBatch:
    """The slices of :func:`random_equimodular_slice` for each seed, as one batch.

    With ``scalar``, the one-component slices of ``random_schur_series``
    instead; ``m`` must then be omitted.  Every :data:`~polybohr.series.SYNTH_CHUNK`
    seeds are drawn and synthesized as one block, so the temporaries stay
    bounded on any seed range; ``verify`` passes one such chunk at a time.
    """
    rows, counts = _seeded_rows(seeds, n_terms, m=m, scalar=scalar)
    return SliceBatch(rows=rows, counts=counts)


def random_equimodular_slice(
    seed: int,
    m: int | None = None,
    n_terms: int = DEFAULT_ORDER,
) -> PolydiscSlice:
    """Draw a certified slice whose initial values share one modulus.

    Each component gets its own Schur parameters, except that every leading
    parameter is forced onto a common circle |g_0| = rho (with independent
    phases), which pins |a0^(i)| = rho for all components.

    Args:
        seed: RNG seed; output is reproducible.
        m: component count; drawn from {1, 2, 3} when omitted.
    """
    return _slices(*_seeded_rows([seed], n_terms, m=m))[0]
