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

Reproducibility: Schur synthesis is bit-reproducible for a given seed on one
machine, whether series are synthesized alone or in batches: every block
makes the same multiplies, gamma first, and the same adds on every order
that can be nonzero, whatever its caps or layout.  Across machines it may not be: the
truncated quotient's dot products run OpenBLAS ``cblas_zdotu_sub`` (through
``np.dot``, or numpy's stacked ``matmul``, one call per row), whose kernel
OpenBLAS picks per CPU (DYNAMIC_ARCH builds); numpy's complex multiply is
FMA-contracted in its dispatched x86-64-v3 (AVX2) and v4 loops and not in
its baseline one; and the numerator/denominator recursion amplifies rounding
by up to 3.1e-5, so the stored coefficients of one seed can differ from one
CPU to another.  ``tests/test_synthesis_blocks.py`` pins that every block
size gives a row the bits of its one-row synthesis; CI runs it again under
two forced OpenBLAS core types, for the quotient's dots, and with numpy's
dispatched SIMD loops switched off, all of them or the AVX-512 ones alone,
for the recursion's multiplies and adds.

Seeded series: seed s, an integer >= 0, draws from ``np.random.default_rng(s)``,
a PCG64 seeded by ``SeedSequence(s)``; numpy NEP 19 fixes both algorithms.  A
draw block of :data:`COLUMN_SEEDS` or more seeds, all below 2**64, hashes them
as uint32 columns (:func:`_pcg64_states`) and sets each state on one reused
generator, so every uniform keeps its bits; other blocks take ``default_rng``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .errors import CertificationError, DomainError
from .radii import _check_count, _check_unit

#: Default truncation order used throughout the package.
DEFAULT_ORDER = 64

#: Slack allowed on the coefficient bound when validating certified series.
#: Well above double-precision accumulation error at the default order.
COEFF_SLACK = 1e-12

#: Seeds per synthesis block (about two rows a seed, at most three) and per
#: ``verify`` batch; bounds the temporaries of the draw, synthesis and batch
#: evaluation whatever the number of seeds.  A block's level-major parameters,
#: recursion buffer and rows peak at about 6.2 times its rows' bytes.
SYNTH_CHUNK = 128

#: Rows times the orders between two caps of the synthesis recursion (:func:`_synthesize_rows`): 48 orders on one
#: row, 16 on three, 2 (the least) from 17 rows on, where a level's parameters stay a broadcast row.
SYNTH_CAP_ROWS = 48

#: Seeds from which a block derives its generator states as columns (:func:`_pcg64_states`): the column hash has a
#: fixed cost of about 0.3 ms, so below about 25 seeds one ``np.random.default_rng`` per seed costs less.
COLUMN_SEEDS = 32

#: Distinct point sets whose power tables (and radii whose phase grids) stay
#: cached; a 64-point table at order 64 takes 64 KB.
CIRCLE_CACHE_SIZE = 8


@dataclass(frozen=True)
class TailBudget:
    """Upper bound on the part of a functional term lost to truncation."""

    value: float

    def __post_init__(self) -> None:
        _check_unit(self.value, "tail budget", top=math.inf)


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

    @classmethod
    def _view(cls, row: np.ndarray, certified: bool) -> "TruncatedSeries":
        """The series of a read-only row a0, c_1, ..., c_N that passed these checks, as a view: no copy, no re-check."""
        vars(series := object.__new__(cls)).update(a0=complex(row[0]), coeffs=row[1:], schur_certified=certified)
        return series

    def __post_init__(self) -> None:
        arr = _complex_array(self.coeffs, "coeffs").copy()
        if arr.ndim != 1 or arr.size < 1 or not np.all(np.isfinite(arr)):
            raise DomainError("coeffs must be a nonempty finite 1-d sequence")
        if (a0 := _complex_array(self.a0, "a0")).ndim:
            raise DomainError(f"a0 must be one number, got {self.a0!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "a0", complex(a0))
        _schur_caps([abs(self.a0)], [float(np.max(np.abs(arr)))] if self.schur_certified else None)

    @property
    def truncation_order(self) -> int:
        return int(self.coeffs.size)


def _complex_array(value, name: str) -> np.ndarray:
    """The rule of every complex input: numbers, not text, None or other objects, as complex128 (no copy of one)."""
    try:
        if (arr := np.asarray(value)).dtype.kind in "biufc":  # bools, ints, floats and complex numbers
            return arr.astype(np.complex128, copy=False)
    except ValueError:  # a ragged sequence
        pass
    raise DomainError(f"{name} must be numeric, got {value!r}")


def _schur_caps(a0_moduli: list[float], worst: list[float] | None) -> list[float]:
    """The Schur-row rule: |a0| <= 1 + 1e-15 (a NaN fails it) and, for certified rows with largest |c_n| ``worst``,
    max |c_n| <= 1 - |a0|^2 + COEFF_SLACK.  Returns the caps 1 - |a0|^2 clamped at 0 (they round below 0 just past
    |a0| = 1), on Python floats, so a row has the same bits alone or in a batch."""
    for x in a0_moduli:
        if not x <= 1.0 + 1e-15:
            raise DomainError(f"|a0| = {x} must be finite and at most 1")
    caps = [1.0 - x * x for x in a0_moduli]
    for most, cap in zip(worst or (), caps):
        if most > cap + COEFF_SLACK:
            raise CertificationError(
                f"certified series violates coefficient bound: max |c_n| = {most} > 1 - |a0|^2 = {cap}"
            )
    return [max(cap, 0.0) for cap in caps]


MobiusSign = Literal["plus", "minus"]


def mobius_series(lam: float, sign: MobiusSign, n_terms: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Expand a real-parameter disc automorphism as a truncated series.

    ``sign="plus"`` expands g(t) = (lam + t) / (1 + lam t), whose
    coefficients are c_n = (-1)^(n-1) lam^(n-1) (1 - lam^2);
    ``sign="minus"`` expands g(t) = (lam - t) / (1 - lam t), with
    c_n = -lam^(n-1) (1 - lam^2).  Both attain the coefficient bound
    at n = 1: |c_1| = 1 - lam^2.  The coefficients are the row of :func:`_mobius_rows`.

    Args:
        lam: parameter in [0, 1).
        sign: "plus" or "minus".
        n_terms: truncation order N >= 1.
    """
    lam = _check_unit(lam, "lambda")
    row = _mobius_rows([lam], sign, n_terms)[0]
    return TruncatedSeries(a0=row[0], coeffs=row[1:], schur_certified=True)


def _mobius_rows(lams: Sequence[float], sign: MobiusSign, n_terms: int) -> np.ndarray:
    """Rows a0, c_1, ..., c_N of the :func:`mobius_series` of each parameter, from the family's closed form: the
    one formula of every Moebius slice.  The parameters are the caller's to check."""
    n = np.arange(_check_count(n_terms, "truncation order"))
    if sign not in ("plus", "minus"):
        raise DomainError(f"sign must be 'plus' or 'minus', got {sign!r}")
    rows = np.empty((len(lams), n.size + 1), dtype=np.complex128)
    for row, lam in zip(rows, lams):
        row[0], coeffs = lam, (1.0 - lam * lam if sign == "plus" else -(1.0 - lam * lam)) * lam**n  # lam^0 = 1 at 0
        if sign == "plus":
            coeffs[1::2] *= -1.0  # (-1)^n: a negation, exact
        row[1:] = coeffs
    return rows


def _synthesize_rows(params: np.ndarray, n_terms: int) -> np.ndarray:
    """Coefficients a0, c_1 .. c_N of the Schur function of each parameter row.

    The whole call is one block; the callers bound its rows.  Level s reads
    parameter K - 1 - s as a contiguous row: a (rows, K) view of level-major
    storage (:func:`_seeded_rows`) is read in place, other layouts are copied
    once, and each cap conjugates only its own levels.  The recursion
    of :func:`schur_series_from_params` runs rows innermost, as a ping-pong
    between the two halves of one buffer, each a zero order, p and q, so
    that t p is a view.  Level s reads one half and writes p' = g q + t p and
    q' = conj(g) t p + q into the other: two multiplies, g first, and two
    in-place adds, no copy.  After s levels p and q have degree below s, so
    a level updates only the orders below a cap at least s; the caps are
    :data:`SYNTH_CAP_ROWS` // rows orders apart (at least 2), with views
    made once per cap.  On one to three rows a ufunc's fixed cost outweighs
    the orders past the degree, and slicing once a level would cost more;
    on a block the caps follow the degree.  Where caps lie more than 2 orders
    apart (at most 16 rows), each cap lays its levels' g and conj(g) out over
    the orders below it, so every multiply has operands of one shape and skips
    numpy's broadcast iterator; a larger block multiplies by the (1, rows) g,
    as a layout would cost a write per multiplied element.  Orders past the
    degree stay +0.0: g 0 + 0.0 and conj(g) 0 + 0.0 are +0.0.  The truncated
    quotient p/q of the transposed, contiguous p and q runs once per coefficient:
    coefficient n of every row is p_n minus one stacked (1, n) @ (n, 1)
    product of q_1 .. q_n with the row's coefficients n - 1, ..., 0, which
    are built reversed (coefficient n at index -1 - n) so that each product
    reads contiguous slices.  A block of one row takes ``np.dot`` instead,
    which costs less than a stacked product of one.  Every row sees the same
    elementwise arithmetic and the same BLAS dot as a block of its own, so
    its bits do not depend on its block.

    Args:
        params: (rows, K) block of Schur parameters, K >= 1, in any layout.
        n_terms: truncation order N.

    Returns:
        (rows, N + 1) array; row i holds a0, c_1, ..., c_N of row i.
    """
    (rows, k), width = params.shape, n_terms + 1
    gammas = np.ascontiguousarray(params.T[::-1, np.newaxis])  # level s multiplies by parameter K - 1 - s
    halves = np.zeros((2, 2 * width + 1, rows), dtype=np.complex128)  # (zero order, p, q) each
    halves[0, width + 1] = 1.0  # (p, q) = (0, 1): tail f = 0
    step, done = max(2, SYNTH_CAP_ROWS // rows), 0
    while done < k:
        cap = min(done + step, width)
        stop = k if cap == width else min(cap, k)  # level s updates orders below min(s + 1, N + 1)
        # (t p, q) of the half read and (p', q') of the half written, on the orders below cap.
        views = [
            (src[:cap], src[width + 1 : width + 1 + cap], dst[1 : cap + 1], dst[width + 1 : width + 1 + cap])
            for src, dst in (halves, halves[::-1])
        ]
        gs, conj_gs = gammas[done:stop], np.conj(gammas[done:stop])
        if step > 2:  # at most 16 rows: each level's g laid out over the cap, so no multiply broadcasts
            gs, conj_gs = np.repeat(gs, cap, axis=1), np.repeat(conj_gs, cap, axis=1)
        for s, g, conj_g in zip(range(done, stop), gs, conj_gs):
            tp, q, p_out, q_out = views[s & 1]
            # gamma first: numpy's complex multiply is not bitwise symmetric in its operands.
            np.multiply(g, q, p_out)
            p_out += tp  # g q + t p; order 0 gets its + 0.0
            np.multiply(conj_g, tp, q_out)
            q_out += q  # conj(g) t p + q
        done = stop
    # The transposed p and q go into the half last read, and rev over the final p and q.
    held, free = halves[k % 2], halves[1 - k % 2]
    p, q = transposed = free.reshape(-1)[: 2 * rows * width].reshape(2, rows, width)
    transposed[...] = held[1:].reshape(2, width, rows).transpose(0, 2, 1)
    rev = held.reshape(-1)[: rows * width].reshape(rows, width)
    rev[:, -1] = p[:, 0]
    if rows == 1:
        p1, q1, rev1 = p[0], q[0], rev[0]
        for n in range(1, width):
            rev1[-1 - n] = p1[n] - np.dot(q1[1 : n + 1], rev1[width - n :])
    else:
        q3, rev3 = q[:, np.newaxis], rev[:, :, np.newaxis]
        for n in range(1, width):
            dots = q3[:, :, 1 : n + 1] @ rev3[:, width - n :]
            rev[:, -1 - n] = p[:, n] - dots[:, 0, 0]
    return np.ascontiguousarray(rev[:, ::-1])


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
    n_terms = _check_count(n_terms, "truncation order")
    gams = _complex_array(params, "params")
    if gams.ndim != 1 or gams.size < 1 or not np.all(np.abs(gams) <= 1.0 + 1e-15):  # a NaN fails it
        raise DomainError(f"Schur parameters must be a nonempty 1-d sequence of moduli <= 1, got {params!r}")
    [row] = _synthesize_rows(gams[np.newaxis, :], n_terms)
    return TruncatedSeries(a0=row[0], coeffs=row[1:], schur_certified=True)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init, init mult, init mult^2, ... mod 2^32 as a (count, 1) uint32 column: the multipliers that a
    SeedSequence hash steps through, the same for every seed."""
    consts = [init]
    while len(consts) < count:
        consts.append(consts[-1] * mult % 2**32)
    return np.array(consts, dtype=np.uint32)[:, np.newaxis]


# SeedSequence (numpy NEP 19): INIT_A/MULT_A for the 4 pool words and 12 mixes, INIT_B/MULT_B for 8 output words.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``words`` (uint32, in place) with its multiplier in ``consts``, which
    holds one more: xor it, multiply by the next one, and fold the high half down."""
    words ^= consts[:-1]
    words *= consts[1:]
    words ^= words >> 16
    return words


def _pcg64_states(seeds: list[int]) -> list[dict]:
    """The ``bit_generator.state`` of ``np.random.PCG64(seed)`` for each seed, all below 2**64.

    ``PCG64(seed)`` takes four uint64 words from ``SeedSequence(seed)``: the seed's little-endian 32-bit words
    (two, zero-padded to four) are hashed into a pool of four, each pool word is mixed into the other three,
    and the pool is hashed out to eight 32-bit words, read in little-endian pairs as the high and low halves of a
    128-bit state s and stream seq.  PCG's srandom sets inc = 2 seq + 1 and takes two LCG steps from 0, adding s
    in between.  Every step runs on uint32 columns, one entry per seed (uint32 arithmetic wraps as SeedSequence's
    does); only the 128-bit arithmetic runs on Python ints.
    """
    low = np.array(seeds, dtype=np.uint64)
    words = np.zeros((4, len(seeds)), dtype=np.uint32)
    words[0], words[1] = low & 0xFFFFFFFF, low >> 32
    pool = _hashmix(words, _HASH_A[:5])
    for src in range(4):
        others = [dst for dst in range(4) if dst != src]
        hashed = _hashmix(pool[[src] * 3], _HASH_A[4 + 3 * src : 8 + 3 * src])
        mixed = _MIX_L * pool[others] - _MIX_R * hashed
        mixed ^= mixed >> 16
        pool[others] = mixed
    out = _hashmix(pool[[0, 1, 2, 3] * 2], _HASH_B).astype(np.uint64)
    states = []
    for s_hi, s_lo, seq_hi, seq_lo in zip(*(out[0::2] | out[1::2] << 32).tolist()):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) % 2**128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) % 2**128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


def _generators(seeds: list[int]) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(seed)`` for each seed in turn, bit for bit.  A block of :data:`COLUMN_SEEDS` seeds or
    more, all below 2**64, sets one generator to each seed's :func:`_pcg64_states` state instead; the caller is done
    with it before the next seed."""
    if len(seeds) < COLUMN_SEEDS or max(seeds) >= 2**64:
        yield from map(np.random.default_rng, seeds)
        return
    shared = np.random.default_rng(0)
    for state in _pcg64_states(seeds):
        shared.bit_generator.state = state
        yield shared


def _seeded_rows(
    seeds: Iterable[int], n_terms: int, m: int | None = None, scalar: bool = False
) -> tuple[np.ndarray, list[int]]:
    """Synthesized rows a0, c_1, ..., c_N of every seed's components, and the count per seed.

    The draw and synthesis behind every seeded constructor.  Every seed must
    be an integer >= 0 (``radii._check_count``), checked before any draw, and
    draws from its generator of :func:`_generators`.  ``scalar`` draws
    one unconstrained series per seed (:func:`random_schur_series`) and takes
    no ``m``; otherwise a seed draws its component count (unless ``m`` is
    given) and one shared initial modulus rho, then each component's
    parameters, as ``slices.random_equimodular_slice`` documents.  A component's 2(N + 1)
    uniforms come from one ``rng.random`` call: ``uniform(0, h)`` is
    ``0.0 + h u`` for the same u, so the radii sqrt(u) and the angles 2 pi u
    keep the bits of separate ``uniform`` draws.  Every :data:`SYNTH_CHUNK`
    seeds are drawn and synthesized as one block, so the temporaries stay
    bounded whatever the number of seeds; a row's bits do not depend on its
    block.  Its uniforms are transposed once to level-major (2, N + 1, rows)
    storage, orders reversed.  The angles go into the imaginary part of one
    zeroed complex array, exponentiated and scaled by the radii (rho in the
    last level) in place, each a contiguous ufunc, and the synthesis reads a
    view of it: ``1j * x`` is exactly (+0.0, x), so the bits are those of
    ``sqrt(u) * exp(1j * 2 pi u)``.
    """
    n_terms = _check_count(n_terms, "truncation order")
    if m is not None:
        m = _check_count(m, "component count m")
    if scalar and m is not None:
        raise DomainError("scalar series have one component; a component count cannot be given")
    seeds = [_check_count(seed, "seed", least=0, most=math.inf) for seed in seeds]
    width = n_terms + 1
    blocks, counts = [], []
    for start in range(0, len(seeds), SYNTH_CHUNK):
        uniforms, rhos = [], []
        for rng in _generators(seeds[start : start + SYNTH_CHUNK]):
            count = 1
            if not scalar:
                count = int(rng.integers(1, 4)) if m is None else m
                rhos += [rng.random()] * count
            uniforms.append(rng.random((count, 2, width)))
            counts.append(count)
        radii, angles = np.ascontiguousarray(np.concatenate(uniforms).transpose(1, 2, 0)[:, ::-1])  # (2, N + 1, rows)
        del uniforms
        params = np.zeros(angles.shape, dtype=np.complex128)  # level s holds parameter N - s
        np.multiply(2.0 * np.pi, angles, out=params.imag)
        np.exp(params, out=params)
        if not scalar:
            radii[-1] = rhos
        np.multiply(np.sqrt(radii, out=radii), params, out=params)
        del radii, angles
        blocks.append(_synthesize_rows(params[::-1].T, n_terms))
    if len(blocks) == 1:
        return blocks[0], counts
    return (np.concatenate(blocks) if blocks else np.empty((0, width), dtype=np.complex128)), counts


def random_schur_series(seed: int, n_terms: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Draw a reproducible certified Schur-class series.

    Uses n_terms + 1 Schur parameters sampled uniformly from the closed
    unit disc with a seeded generator, so membership in the Schur class is
    guaranteed by construction rather than by rejection.
    """
    [row] = _seeded_rows([seed], n_terms, scalar=True)[0]
    return TruncatedSeries(a0=row[0], coeffs=row[1:], schur_certified=True)


def eval_series_many(s, ts: np.ndarray) -> np.ndarray:
    """Evaluate a0 + sum c_n t^n at every point of ``ts``, |t| < 1.

    ``s`` is a :class:`TruncatedSeries` (``ts`` of any shape, a result of its
    shape) or a ``slices.SliceBatch`` (a 1-d ``ts`` only, else DomainError;
    a result of shape (R, len(ts))).  One matrix-vector product of the
    power table t^1 ... t^N per row, so a batch row keeps the bits of its
    series.  The table (one ``np.multiply.accumulate``, read-only, 64 KB for
    64 points at N = 64) is memoized by content, ``(ts.tobytes(), ts.shape,
    N)``, for the last :data:`CIRCLE_CACHE_SIZE` keys: a repeated circle
    skips it, and points changed in place are never served stale.
    The absolute error is of order N u sum |c_n| |t|^n (u = 2^-53); an
    80-digit reference measures about 1e-16 at N = 64.  A non-finite point
    or |t| >= 1 raises DomainError.
    """
    ts = _complex_array(ts, "ts")
    if s.coeffs.ndim == 2 and ts.ndim != 1:
        raise DomainError(f"a batch is evaluated at a 1-d ts, got shape {ts.shape}")
    return s.a0 + (_power_table(ts.tobytes(), ts.shape, s.coeffs.shape[-1]) @ s.coeffs[..., np.newaxis])[..., 0]


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

    M is the clamped cap of :func:`_schur_caps`, which certified only
    |c_n| <= M + COEFF_SLACK.  Only certified series carry this guarantee;
    anything else raises.
    """
    r = _check_unit(r, "radius")
    if not s.schur_certified:
        raise CertificationError("tail bounds require a Schur-certified series")
    return TailBudget(value=float(_tail_value(_schur_caps([abs(s.a0)], None)[0], r, s.truncation_order, term_kind)))


def _tail_value(m, r: float, n: int, term_kind: TailTermKind):
    """The :func:`tail_bound` formula for coefficient bound ``m`` (a float, or
    an array for a batch: the same IEEE operations element by element)."""
    if term_kind in ("linear_sum", "modulus"):
        return m * r ** (n + 1) / (1.0 - r)
    if term_kind == "square_sum":
        return m * m * r ** (2 * n + 2) / (1.0 - r * r)
    raise DomainError(f"unknown tail term kind {term_kind!r}")
