"""Truncated power series for self-maps of the unit disc.

Everything downstream works on one-variable slices g(t) = a0 + sum c_n t^n
of a map into the closed unit polydisc, restricted to a complex line through
the origin.  A slice of such a map is a Schur function: holomorphic on the
disc with |g| <= 1.  Two structural facts about Schur functions drive all
tail accounting:

* coefficient bound: |c_n| <= 1 - |a0|^2 for every n >= 1;
* Schwarz-Pick growth: |g(t)| <= (|a0| + r) / (1 + |a0| r) for |t| = r.

A ``TruncatedSeries`` stores the first N coefficients together with a
``schur_certified`` flag.  The flag is set only by constructions that
guarantee Schur-class membership (Moebius maps, the Schur-parameter
recursion below), and it is what licenses the geometric tail bounds of
:func:`tail_bound`: all discarded coefficients are bounded by
1 - |a0|^2, so every truncated functional evaluation can be promoted to a
rigorous two-sided enclosure of the untruncated value.

Reproducibility: Schur synthesis is bit-reproducible for a given seed on
one machine, whether series are synthesized alone or in batches.  Across
machines it may not be: the truncated quotient's dot products run OpenBLAS
``cblas_zdotu_sub`` (through ``np.dot``, or numpy's stacked ``matmul``, one
call per row), whose kernel OpenBLAS picks per CPU (DYNAMIC_ARCH builds),
and the numerator/denominator recursion amplifies rounding by up to 3.1e-5,
so the stored coefficients of one seed can differ from one CPU to another.
``tests/test_synthesis_blocks.py`` pins that both paths give the same bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import CertificationError, DomainError

#: Default truncation order used throughout the package.
DEFAULT_ORDER = 64

#: Slack allowed on the coefficient bound when validating certified series.
#: Well above double-precision accumulation error at the default order.
COEFF_SLACK = 1e-12

#: Parameter rows per block of the batched Schur synthesis; bounds the
#: (rows, N + 1) temporaries of the recursion.
SYNTH_CHUNK = 64

#: Distinct point sets whose power tables (and radii whose phase grids) stay
#: cached; a 64-point table at order 64 takes 64 KB.
CIRCLE_CACHE_SIZE = 8


@dataclass(frozen=True)
class TailBudget:
    """Upper bound on the part of a functional term lost to truncation."""

    value: float

    def __post_init__(self) -> None:
        if not (self.value >= 0.0 and np.isfinite(self.value)):
            raise DomainError(f"tail budget must be finite and >= 0, got {self.value}")


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """First N + 1 Taylor coefficients a0, c_1, ..., c_N of a disc slice.

    Args:
        a0: constant term, |a0| <= 1.
        coeffs: finite coefficients c_1 ... c_N (N >= 1).
        schur_certified: set True only when the construction guarantees
            |g| <= 1 on the whole disc.  Certified series must satisfy the
            coefficient bound |c_n| <= 1 - |a0|^2; a violation is a bug in
            the construction, not data to be tolerated.
    """

    a0: complex
    coeffs: np.ndarray
    schur_certified: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1 or not np.all(np.isfinite(arr)):
            raise DomainError("coeffs must be a nonempty finite 1-d sequence")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "a0", complex(self.a0))
        if not abs(self.a0) <= 1.0 + 1e-15:  # also rejects a NaN a0
            raise DomainError(f"|a0| = {abs(self.a0)} must be finite and at most 1")
        if self.schur_certified:
            cap = 1.0 - abs(self.a0) ** 2
            worst = float(np.max(np.abs(arr)))
            if worst > cap + COEFF_SLACK:
                raise CertificationError(
                    f"certified series violates coefficient bound: "
                    f"max |c_n| = {worst} > 1 - |a0|^2 = {cap}"
                )

    @property
    def truncation_order(self) -> int:
        return int(self.coeffs.size)


MobiusSign = Literal["plus", "minus"]


def mobius_series(lam: float, sign: MobiusSign, n_terms: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Expand a real-parameter disc automorphism as a truncated series.

    ``sign="plus"`` expands g(t) = (lam + t) / (1 + lam t), whose
    coefficients are c_n = (-1)^(n-1) lam^(n-1) (1 - lam^2);
    ``sign="minus"`` expands g(t) = (lam - t) / (1 - lam t), with
    c_n = -lam^(n-1) (1 - lam^2).  Both attain the coefficient bound
    at n = 1: |c_1| = 1 - lam^2.

    Args:
        lam: parameter in [0, 1).
        sign: "plus" or "minus".
        n_terms: truncation order N >= 1.
    """
    if not 0.0 <= lam < 1.0:
        raise DomainError(f"lambda must lie in [0, 1), got {lam}")
    if n_terms < 1:
        raise DomainError(f"truncation order must be >= 1, got {n_terms}")
    n = np.arange(n_terms)
    powers = lam**n  # lam^0 = 1 even at lam = 0
    if sign == "plus":
        coeffs = (1.0 - lam * lam) * powers * (-1.0) ** n
    elif sign == "minus":
        coeffs = -(1.0 - lam * lam) * powers
    else:
        raise DomainError(f"sign must be 'plus' or 'minus', got {sign!r}")
    return TruncatedSeries(a0=lam, coeffs=coeffs.astype(np.complex128), schur_certified=True)


def _synthesize_rows(params: np.ndarray, n_terms: int) -> np.ndarray:
    """Coefficients a0, c_1 .. c_N of the Schur function of each parameter row.

    Works through :data:`SYNTH_CHUNK` rows at a time to bound the
    temporaries.  Each block runs the numerator/denominator recursion of
    :func:`schur_series_from_params` once per parameter index, then the
    truncated quotient p/q once per coefficient: coefficient n of every row
    is p_n minus one stacked (1, n) @ (n, 1) product of q_1 .. q_n with the
    row's coefficients n - 1, ..., 0, which are built reversed (coefficient
    n at index -1 - n) so that each product reads contiguous slices.  A
    block of one row, as the per-slice constructors synthesize, takes
    ``np.dot`` instead, which costs less than a stacked product of one.
    Every row sees the same elementwise arithmetic and the same BLAS dot as
    a block of its own, so its bits do not depend on its block.

    Args:
        params: (rows, K) block of Schur parameters, K >= 1.
        n_terms: truncation order N.

    Returns:
        (rows, N + 1) array; row i holds a0, c_1, ..., c_N of row i.
    """
    if n_terms < 1:
        raise DomainError(f"truncation order must be >= 1, got {n_terms}")
    rows, width = params.shape[0], n_terms + 1
    out = np.empty((rows, width), dtype=np.complex128)
    for start in range(0, rows, SYNTH_CHUNK):
        block = params[start : start + SYNTH_CHUNK]
        # gammas[j] multiplies (q, t p) by (g_j, conj g_j), row by row.
        gammas = np.stack((block.T, np.conj(block.T)), axis=1)[..., np.newaxis]
        pq = np.zeros((2, block.shape[0], width), dtype=np.complex128)  # tail f = 0
        pq[1, :, 0] = 1.0
        factors = np.zeros_like(pq)
        for j in range(block.shape[1] - 1, -1, -1):
            factors[0] = pq[1]
            factors[1, :, 1:] = pq[0, :, :-1]  # t * p, truncated
            # gamma first, as in g * q: numpy's complex multiply is not
            # bitwise symmetric in its operands.
            np.multiply(gammas[j], factors, out=pq)  # (g q, conj(g) t p)
            pq += factors[::-1]  # (g q + t p, conj(g) t p + q)
        p, q = pq
        rev = np.empty_like(p)
        rev[:, -1] = p[:, 0]
        if block.shape[0] == 1:
            p1, q1, rev1 = p[0], q[0], rev[0]
            for n in range(1, width):
                rev1[-1 - n] = p1[n] - np.dot(q1[1 : n + 1], rev1[width - n :])
        else:
            for n in range(1, width):
                dots = q[:, np.newaxis, 1 : n + 1] @ rev[:, width - n :, np.newaxis]
                rev[:, -1 - n] = p[:, n] - dots[:, 0, 0]
        out[start : start + block.shape[0]] = rev[:, ::-1]
    return out


def _certified(row: np.ndarray) -> TruncatedSeries:
    """The certified series of one synthesized row a0, c_1, ..., c_N."""
    return TruncatedSeries(a0=row[0], coeffs=row[1:], schur_certified=True)


def schur_series_from_params(params: Sequence[complex], n_terms: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Synthesize a certified Schur function from its Schur parameters.

    The continued-fraction recursion

        f_j(t) = (g_j + t f_{j+1}(t)) / (1 + conj(g_j) t f_{j+1}(t))

    with the tail function f_{K+1} identically zero maps any parameter
    sequence g_0 ... g_K with |g_j| <= 1 to a Schur function, and every
    Schur function arises this way.  The all-zero sequence yields the zero
    function; the sequence (lam, 1) terminates at a unimodular parameter
    and reproduces the Moebius map (lam + t)/(1 + lam t) exactly.

    Internally the recursion is carried on numerator/denominator polynomial
    pairs (no intermediate divisions), followed by a single truncated
    quotient; the denominator's constant term is 1 by construction.

    Args:
        params: Schur parameters, each of modulus <= 1.
        n_terms: truncation order of the returned series.
    """
    if n_terms < 1:
        raise DomainError(f"truncation order must be >= 1, got {n_terms}")
    gams = np.asarray(params, dtype=np.complex128)
    if gams.ndim != 1 or gams.size < 1:
        raise DomainError("params must be a nonempty 1-d sequence")
    if np.any(np.abs(gams) > 1.0 + 1e-15):
        raise DomainError("Schur parameters must have modulus <= 1")
    return _certified(_synthesize_rows(gams[np.newaxis, :], n_terms)[0])


def random_schur_series_many(seeds: Iterable[int], n_terms: int = DEFAULT_ORDER) -> list[TruncatedSeries]:
    """:func:`random_schur_series` for each seed, synthesized as one block."""
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        radius = np.sqrt(rng.uniform(0.0, 1.0, size=n_terms + 1))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n_terms + 1)
        rows.append(radius * np.exp(1j * angle))
    params = np.array(rows, dtype=np.complex128).reshape(len(rows), n_terms + 1)
    return [_certified(row) for row in _synthesize_rows(params, n_terms)]


def random_schur_series(seed: int, n_terms: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Draw a reproducible certified Schur-class series.

    Uses n_terms + 1 Schur parameters sampled uniformly from the closed
    unit disc with a seeded generator, so membership in the Schur class is
    guaranteed by construction rather than by rejection.
    """
    return random_schur_series_many([seed], n_terms)[0]


def eval_series_many(s: TruncatedSeries, ts: np.ndarray) -> np.ndarray:
    """Evaluate a0 + sum c_n t^n at every point of ``ts`` (any shape), |t| < 1.

    One matrix-vector product of the power table t^1 ... t^N with the
    coefficients.  The table (one ``np.multiply.accumulate``, read-only, 64 KB
    for 64 points at N = 64) is memoized by content, ``(ts.tobytes(),
    ts.shape, N)``, for the last :data:`CIRCLE_CACHE_SIZE` keys: a repeated
    circle skips it, and points changed in place are never served stale.
    The absolute error is of order N u sum |c_n| |t|^n (u = 2^-53); an
    80-digit reference measures about 1e-16 at N = 64.  A non-finite point
    or |t| >= 1 raises DomainError.
    """
    ts = np.asarray(ts, dtype=np.complex128)
    return s.a0 + _power_table(ts.tobytes(), ts.shape, s.coeffs.size) @ s.coeffs


@functools.lru_cache(maxsize=CIRCLE_CACHE_SIZE)
def _power_table(points: bytes, shape: tuple[int, ...], n: int) -> np.ndarray:
    """Read-only table t^1 ... t^n of the complex128 points ``points`` (C order), shape ``shape + (n,)``."""
    ts = np.frombuffer(points, dtype=np.complex128).reshape(shape)
    if not np.all(np.abs(ts) < 1.0):
        raise DomainError("all evaluation points must be finite with |t| < 1")
    table = np.multiply.accumulate(np.broadcast_to(ts[..., np.newaxis], shape + (n,)), axis=-1)
    table.flags.writeable = False
    return table


TailTermKind = Literal["linear_sum", "square_sum", "modulus"]


def tail_bound(s: TruncatedSeries, r: float, term_kind: TailTermKind) -> TailBudget:
    """Bound the discarded tail of a functional term at radius r.

    For a certified series every coefficient beyond the truncation order is
    bounded by M = 1 - |a0|^2, so with N = truncation order:

    * ``linear_sum``: sum_{n>N} |c_n| r^n      <= M r^(N+1) / (1 - r)
    * ``square_sum``: sum_{n>N} |c_n|^2 r^(2n) <= M^2 r^(2N+2) / (1 - r^2)
    * ``modulus``:    |sum_{n>N} c_n t^n|      <= M r^(N+1) / (1 - r)

    M is clamped at 0: ``TruncatedSeries`` admits |a0| up to 1 + 1e-15, where
    1 - |a0|^2 rounds below zero, and certifies only |c_n| <= M + COEFF_SLACK
    there.  Only certified series carry this guarantee; anything else raises.
    """
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius must lie in [0, 1), got {r}")
    if not s.schur_certified:
        raise CertificationError("tail bounds require a Schur-certified series")
    m = max(1.0 - abs(s.a0) ** 2, 0.0)
    n = s.truncation_order
    if term_kind in ("linear_sum", "modulus"):
        value = m * r ** (n + 1) / (1.0 - r)
    elif term_kind == "square_sum":
        value = m * m * r ** (2 * n + 2) / (1.0 - r * r)
    else:
        raise DomainError(f"unknown tail term kind {term_kind!r}")
    return TailBudget(value=float(value))
