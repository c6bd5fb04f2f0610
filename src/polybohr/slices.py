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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CertificationError, DomainError, PreconditionError
from .series import (
    CIRCLE_CACHE_SIZE,
    DEFAULT_ORDER,
    TailBudget,
    TailTermKind,
    TruncatedSeries,
    _certified,
    _synthesize_rows,
    eval_series_many,
    tail_bound,
)

#: Modulus spread below which initial values count as equimodular.
EQUIMODULAR_TOL = 1e-14

#: Default number of equally spaced phases for circle sampling.
DEFAULT_PHASES = 64


@dataclass(frozen=True, eq=False)
class PolydiscSlice:
    """m component series with shared truncation order.

    ``equimodular`` asserts that all components have initial values of the
    same modulus (to :data:`EQUIMODULAR_TOL`); the flag is validated at
    construction so a True value can be trusted downstream.
    """

    components: tuple[TruncatedSeries, ...]
    equimodular: bool

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if len(comps) < 1:
            raise DomainError("a slice needs at least one component")
        orders = {c.truncation_order for c in comps}
        if len(orders) != 1:
            raise DomainError(f"components must share a truncation order, got {sorted(orders)}")
        object.__setattr__(self, "components", comps)
        moduli = [abs(c.a0) for c in comps]
        spread = max(moduli) - min(moduli)
        if self.equimodular and spread > EQUIMODULAR_TOL:
            raise PreconditionError(
                f"slice marked equimodular but initial moduli spread {spread} exceeds {EQUIMODULAR_TOL}"
            )

    @classmethod
    def from_components(cls, components: Sequence[TruncatedSeries]) -> "PolydiscSlice":
        """Build a slice, detecting equimodularity from the data."""
        comps = tuple(components)
        moduli = [abs(c.a0) for c in comps]
        flag = bool(comps) and max(moduli) - min(moduli) <= EQUIMODULAR_TOL
        return cls(components=comps, equimodular=flag)

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def truncation_order(self) -> int:
        return self.components[0].truncation_order

    @property
    def certified(self) -> bool:
        return all(c.schur_certified for c in self.components)


@dataclass(frozen=True)
class CoefficientNorms:
    """Sup-norm reductions a_norm = max_i |a0^(i)| and Q_n = max_i |c_n^(i)|,
    with the per-component moduli |c_n^(i)| they reduce (``moduli``, shape (m, N))."""

    a_norm: float
    q: np.ndarray
    moduli: np.ndarray

    def __post_init__(self) -> None:
        for name in ("q", "moduli"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


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
def phase_grid(r: float, phases: int) -> np.ndarray:
    """Points r * exp(2 pi i j / phases), j = 0 .. phases-1, as a read-only array.

    Memoized per ``(r, phases)`` for the last :data:`CIRCLE_CACHE_SIZE`
    distinct pairs (1 KB each at 64 phases); every caller shares the returned array.
    """
    if phases < 1:
        raise DomainError(f"phases must be >= 1, got {phases}")
    theta = 2.0 * np.pi * np.arange(phases) / phases
    grid = r * np.exp(1j * theta)
    grid.flags.writeable = False
    return grid


def _circle_values(s: PolydiscSlice, r: float, phases: int) -> np.ndarray:
    """Values g_i(t) on the phase grid of radius r, shape (m, phases): one
    :func:`eval_series_many` call per component, for every sampled modulus term."""
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r}")
    ts = phase_grid(r, phases)
    return np.array([eval_series_many(comp, ts) for comp in s.components])


def sup_modulus(s: PolydiscSlice, r: float, phases: int = DEFAULT_PHASES) -> float:
    """Sampled sup of max_i |g_i(t)| over |t| = r.

    A lower bound on the true sup (the grid always contains t = r itself);
    pair it with :func:`schwarz_pick_bound` for a two-sided enclosure.  The
    power-table rounding of :func:`eval_series_many` (about 1e-16) is not subtracted.
    """
    return float(np.max(np.abs(_circle_values(s, r, phases))))


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
    return PolydiscSlice(components=tuple(out), equimodular=s.equimodular)


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


def random_equimodular_slices(
    seeds: Iterable[int],
    m: int | None = None,
    n_terms: int = DEFAULT_ORDER,
) -> list[PolydiscSlice]:
    """:func:`random_equimodular_slice` for each seed, synthesized as one block.

    Draws every seed's parameters in the single-seed order, then makes one
    batched synthesis call over all components.
    """
    if m is not None and m < 1:
        raise DomainError(f"component count must be >= 1, got {m}")
    rows, counts = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 4)) if m is None else m
        rho = np.sqrt(rng.uniform(0.0, 1.0))
        for _ in range(count):
            radius = np.sqrt(rng.uniform(0.0, 1.0, size=n_terms + 1))
            angle = rng.uniform(0.0, 2.0 * np.pi, size=n_terms + 1)
            params = radius * np.exp(1j * angle)
            params[0] = rho * np.exp(1j * angle[0])
            rows.append(params)
        counts.append(count)
    params = np.array(rows, dtype=np.complex128).reshape(len(rows), n_terms + 1)
    comps = [_certified(row) for row in _synthesize_rows(params, n_terms)]
    out, start = [], 0
    for count in counts:
        out.append(PolydiscSlice(components=tuple(comps[start : start + count]), equimodular=True))
        start += count
    return out


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
    return random_equimodular_slices([seed], m=m, n_terms=n_terms)[0]
