"""Batched Schur synthesis against the one-series loop it replaced.

The reference below is the former per-series implementation: the 1-d
numerator/denominator recursion, one parameter at a time, and a truncated
quotient whose dot products read the output through a negative-stride
view.  The batched kernel keeps the elementwise arithmetic and the BLAS
dot of every coefficient, so the results must agree bit for bit, not
merely to a tolerance.
"""

import numpy as np
import pytest

from polybohr import random_equimodular_slice, random_schur_series, random_slice_batch, schur_series_from_params
from polybohr.series import SYNTH_CHUNK


def reference_quotient(num, den, n_terms):
    out = np.zeros(n_terms + 1, dtype=np.complex128)
    num = num[: n_terms + 1]
    for n in range(n_terms + 1):
        acc = num[n] if n < num.size else 0.0
        jmax = min(n, den.size - 1)
        if jmax >= 1:
            acc -= np.dot(den[1 : jmax + 1], out[n - 1 :: -1][:jmax])
        out[n] = acc
    return out


def reference_synthesis(params, n_terms):
    """a0, c_1, ..., c_N by the one-series recursion."""
    gams = np.asarray(params, dtype=np.complex128)
    width = n_terms + 1
    p = np.zeros(width, dtype=np.complex128)
    q = np.zeros(width, dtype=np.complex128)
    q[0] = 1.0
    for g in gams[::-1]:
        tp = np.zeros(width, dtype=np.complex128)
        tp[1:] = p[:-1]
        p, q = g * q + tp, q + np.conj(g) * tp
    return reference_quotient(p, q, n_terms)


def reference_scalar(seed, n_terms):
    rng = np.random.default_rng(seed)
    radius = np.sqrt(rng.uniform(0.0, 1.0, size=n_terms + 1))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n_terms + 1)
    return reference_synthesis(radius * np.exp(1j * angle), n_terms)


def reference_slice(seed, m, n_terms):
    rng = np.random.default_rng(seed)
    if m is None:
        m = int(rng.integers(1, 4))
    rho = np.sqrt(rng.uniform(0.0, 1.0))
    comps = []
    for _ in range(m):
        radius = np.sqrt(rng.uniform(0.0, 1.0, size=n_terms + 1))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n_terms + 1)
        params = radius * np.exp(1j * angle)
        params[0] = rho * np.exp(1j * angle[0])
        comps.append(reference_synthesis(params, n_terms))
    return comps


def assert_same_series(series, expected):
    """Bit for bit, as uint64: ``np.array_equal`` would take -0.0 for +0.0."""
    got = np.concatenate(([series.a0], series.coeffs)).astype(np.complex128)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def assert_same_slice(sl, expected):
    assert sl.m == len(expected)
    for comp, ref in zip(sl.components, expected):
        assert_same_series(comp, ref)


@pytest.mark.parametrize("m", [None, 1, 2, 3])
def test_equimodular_slices_match_reference(m):
    for seed in range(200):
        assert_same_slice(random_equimodular_slice(seed, m=m), reference_slice(seed, m, 64))


@pytest.mark.parametrize("n_terms", [8, 24, 64])
def test_scalar_series_match_reference(n_terms):
    for seed in range(200):
        assert_same_series(random_schur_series(seed, n_terms), reference_scalar(seed, n_terms))


@pytest.mark.parametrize("n_terms", [8, 24])
def test_short_truncations_of_slices_match_reference(n_terms):
    for seed in range(50):
        assert_same_slice(random_equimodular_slice(seed, n_terms=n_terms), reference_slice(seed, None, n_terms))


#: Explicit Schur parameters and truncation orders, synthesized alone here and in blocks in test_synthesis_blocks.
EDGE_PARAMS = [
    ([0.25, 1.0], 16),
    ([0.8, 1.0], 64),
    ([0.5], 8),
    ([0.3 + 0.4j, 0.2, -0.7j], 8),
    ([0.0] * 9, 8),
    ([0.9j, -0.5, 0.1 + 0.1j, 1.0], 24),
    # Edges of the live orders: K = 1, K << N + 1, K and N + 1 on both
    # sides of a cap, and real Moebius maps, whose coefficients have
    # imaginary parts exactly zero, so that a signed zero would show.
    ([0.7j], 64),
    ([0.3, -0.2, 0.1], 64),
    ([-0.6, 1.0], 64),
    ([-0.6, 1.0], 7),
    ([0.5, -1.0], 64),
    ([0.25, 1.0], 8),
    ([0.9, -0.6, 0.3, 0.0, -0.3, 0.6, -0.9, 0.45, 1.0], 15),
    ([0.2 - 0.1j] * 17, 16),
    ([-0.1 + 0.3j] * 49, 48),
    # g q_0 has imaginary part -0.0 here; the t p term's zero order makes it +0.0.
    ([complex(-0.5, -0.0)], 8),
    ([complex(-0.5, -0.0), 0.25, 1.0], 16),
]


@pytest.mark.parametrize("params, n_terms", EDGE_PARAMS)
def test_explicit_parameters_match_reference(params, n_terms):
    assert_same_series(schur_series_from_params(params, n_terms), reference_synthesis(params, n_terms))


def test_batches_across_chunk_boundaries_match_reference():
    seeds = range(SYNTH_CHUNK + 10)
    batch = random_slice_batch(seeds, n_terms=24, scalar=True).slices()
    assert len(batch) == len(seeds)
    for seed, sl in zip(seeds, batch):
        assert_same_slice(sl, [reference_scalar(seed, 24)])
    seeds = range(100, 100 + SYNTH_CHUNK)  # 3 rows per seed: the largest block of a verify chunk
    slices = random_slice_batch(seeds, m=3, n_terms=24).slices()
    assert len(slices) == len(seeds)
    for seed, sl in zip(seeds, slices):
        assert_same_slice(sl, reference_slice(seed, 3, 24))


def test_empty_batches():
    assert random_slice_batch([], scalar=True).slices() == []
    assert random_slice_batch([]).slices() == []
