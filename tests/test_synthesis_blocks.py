"""A synthesized row's bits do not depend on the block it is synthesized in.

``_synthesize_rows`` takes each call as one block, and two paths through the
truncated quotient: a block of several rows runs one stacked product per
coefficient, and a block of one row runs ``np.dot``.  Every row of every block
below must equal, bit for bit, both a one-row call on the same parameters and
the one-series reference of ``test_synthesis_reference``.  The block sizes are
the ones the callers form: one to three rows for a per-slice constructor, and
for a block of :data:`SYNTH_CHUNK` = 128 seeds (one ``verify`` chunk, or one
block of a longer seed range) 128 rows (classical) or 128 to 384 (mixed
component counts; a 384-row block at N = 64 and one at N = 24 are checked
against the reference).  The recursion updates only the orders below a cap,
and its caps are :data:`SYNTH_CAP_ROWS` // rows orders apart, at least 2:
48, 24 and 16 on one to three rows, 9 on five, 3 on 16 and 2 from 17 rows on.
The block sizes cover each of these spacings, and K and N + 1 fall on both
sides of the caps of 2, 3 and 32 rows.  The spacing also sets how a level
multiplies: a block of at most :data:`FEW_ROWS` = 16 rows (caps more than 2
orders apart) lays each level's parameters out over the orders they
multiply, and a larger block multiplies by the broadcast (1, rows) row.
The block sizes hold 16 and 17, one on each side, and every edge row keeps
its bits between a few-row block and a broadcast one.  The draw hands the
kernel a (rows, K) view of level-major storage, which the recursion reads in
place; a row-major block, that view and a strided slice give the same bits,
and the view saves the kernel's copy.  Blocked synthesis keeps its
temporaries bounded on long seed ranges, and so does a batch built from them;
one drawn block peaks below 6.5 times its rows, and a 384-row call peaks
within 10 % of the peak before the ping-pong.

A block of :data:`COLUMN_SEEDS` or more seeds, all below 2**64, computes the
state of each seed's ``PCG64(SeedSequence(seed))`` as columns instead of
building a ``np.random.default_rng`` per seed; the states, and so every drawn
row, must be those of ``np.random.default_rng(seed)``, for seeds of one and two
32-bit words.  A block that holds a seed from 2**64 on draws every seed from
its own ``np.random.default_rng``, and keeps the same rows.
"""

import tracemalloc

import numpy as np
import pytest

from polybohr.series import (
    COLUMN_SEEDS, SYNTH_CAP_ROWS, _generators, _pcg64_states, _seeded_rows, _synthesize_rows,
)
from polybohr.slices import random_slice_batch
from test_synthesis_reference import EDGE_PARAMS, reference_scalar, reference_slice, reference_synthesis

#: The most rows whose caps lie more than 2 orders apart: the largest block that lays out its parameters.
FEW_ROWS = SYNTH_CAP_ROWS // 3

BLOCK_SIZES = [1, 2, 3, 5, FEW_ROWS, FEW_ROWS + 1, 63, 64, 65, 128, 129]

#: Seeds of two to seven 32-bit words; a block that holds one from 2**64 on draws each seed from its own generator.
LARGE_SEEDS = [
    2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 1, 2**96 + 3, 2**128 - 1, 2**128, 2**128 + 5, 2**200,
]


def random_params(rows, k, seed):
    """(rows, k) Schur parameters drawn uniformly from the unit disc."""
    rng = np.random.default_rng(seed)
    return np.sqrt(rng.uniform(0.0, 1.0, size=(rows, k))) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=(rows, k)))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("rows", BLOCK_SIZES)
@pytest.mark.parametrize("n_terms", [1, 64])
@pytest.mark.parametrize("extra_params", [-1, 6], ids=["K<N+1", "K>N+1"])
def test_every_row_matches_its_one_row_synthesis(rows, n_terms, extra_params):
    k = max(1, n_terms + 1 + extra_params)
    params = random_params(rows, k, seed=[rows, n_terms, k])
    block = _synthesize_rows(params, n_terms)
    assert block.shape == (rows, n_terms + 1)
    for i in range(rows):
        alone = _synthesize_rows(params[i : i + 1], n_terms)[0]
        assert same_bits(block[i], alone), f"row {i} of {rows}"
        assert same_bits(alone, reference_synthesis(params[i], n_terms)), f"row {i} of {rows}"


@pytest.mark.parametrize("rows", [2, 3, 32])
@pytest.mark.parametrize("n_terms", [7, 8, 15, 16, 23, 24, 47, 48])
@pytest.mark.parametrize("k", [1, 8, 9, 16, 17, 24, 25, 48, 49])
def test_rows_keep_their_bits_on_both_sides_of_each_cap(k, n_terms, rows):
    params = random_params(rows, k, seed=[k, n_terms])
    block = _synthesize_rows(params, n_terms)
    for i in range(rows):
        alone = _synthesize_rows(params[i : i + 1], n_terms)[0]
        assert same_bits(block[i], alone), f"row {i}"
        assert same_bits(alone, reference_synthesis(params[i], n_terms)), f"row {i}"


@pytest.mark.parametrize("params, n_terms", EDGE_PARAMS)
def test_edge_parameters_keep_their_bits_in_a_block(params, n_terms):
    # Real Moebius parameters, zeros and unimodular ends, each repeated down a
    # block of 32 rows: a signed zero left on an order past the degree would show.
    block = _synthesize_rows(np.tile(np.asarray(params, dtype=np.complex128), (32, 1)), n_terms)
    expected = reference_synthesis(params, n_terms)
    for i in range(32):
        assert same_bits(block[i], expected), f"row {i}"


@pytest.mark.parametrize("rows", [1, 3, FEW_ROWS])
@pytest.mark.parametrize("params, n_terms", EDGE_PARAMS)
def test_edge_rows_of_a_few_row_block_are_the_rows_of_a_broadcast_block(params, n_terms, rows):
    # The edge row is the last row of a few-row block and sits at the same place in a block of FEW_ROWS + 1
    # rows, filled up with random rows; the -0.0 of complex(-0.5, -0.0) must meet the same arithmetic in both.
    edge = np.asarray(params, dtype=np.complex128)
    others = random_params(FEW_ROWS, edge.size, seed=[rows, edge.size, n_terms])
    block = np.vstack([others[: rows - 1], edge, others[rows - 1 :]])
    assert same_bits(_synthesize_rows(block[:rows], n_terms), _synthesize_rows(block, n_terms)[:rows])


def level_major_view(params):
    """``params`` as ``_seeded_rows`` hands a block over: a (rows, K) view of (K, rows) storage, orders reversed."""
    return np.ascontiguousarray(params[:, ::-1].T)[::-1].T


@pytest.mark.parametrize("rows", [1, 3, FEW_ROWS, FEW_ROWS + 1, 264])
@pytest.mark.parametrize("n_terms", [8, 64])
def test_a_block_keeps_its_bits_in_every_layout(rows, n_terms):
    params = random_params(rows, n_terms + 1, seed=[rows, n_terms, 3])
    expected = _synthesize_rows(params, n_terms)
    view = level_major_view(params)
    strided = np.zeros((rows, 2 * (n_terms + 1)), dtype=np.complex128)[:, 1::2]
    strided[...] = params
    assert same_bits(np.ascontiguousarray(view), params) and not (view.flags.c_contiguous or strided.flags.c_contiguous)
    for layout in (view, strided):
        assert same_bits(_synthesize_rows(layout, n_terms), expected)


def test_a_level_major_view_is_read_without_a_copy():
    # The kernel's only copy of a row-major block is its level-major parameters; a view of level-major storage
    # skips it, so its call peaks that many bytes lower.
    params = random_params(264, 65, seed=264)
    peaks = []
    for layout in (params, level_major_view(params)):
        _synthesize_rows(layout[:32], 64)
        tracemalloc.start()
        try:
            _synthesize_rows(layout, 64)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] - peaks[1] >= params.nbytes, f"peaks {peaks} B for {params.nbytes} B of parameters"


def test_a_row_keeps_its_bits_at_every_position():
    params = random_params(65, 70, seed=1)
    row = params[:1]
    alone = _synthesize_rows(row, 64)[0]
    for position in range(len(params)):
        block = params.copy()
        block[position] = row[0]
        assert same_bits(_synthesize_rows(block, 64)[position], alone), f"position {position}"


@pytest.mark.parametrize("m", [None, 3])
def test_long_seed_ranges_peak_below_three_times_their_rows(m):
    _seeded_rows(range(2), 64, m=m)  # lazy imports and caches outside the measurement
    tracemalloc.start()
    try:
        rows, _ = _seeded_rows(range(1000), 64, m=m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * rows.nbytes, f"peak {peak} B for {rows.nbytes} B of rows"


@pytest.mark.parametrize("m, scalar", [(None, False), (3, False), (None, True)], ids=["mixed", "m3", "scalar"])
def test_one_block_peaks_below_six_and_a_half_times_its_rows(m, scalar):
    # One 128-seed block holds its level-major parameters, the recursion buffer (about four times the rows'
    # bytes), a cap's conj and its rows: about 6.2 times the rows.  A full copy of the parameters, or of their
    # conj, would add one more.
    _seeded_rows(range(2), 64, m=m, scalar=scalar)
    tracemalloc.start()
    try:
        rows, _ = _seeded_rows(range(128), 64, m=m, scalar=scalar)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * rows.nbytes, f"peak {peak} B for {rows.nbytes} B of rows"


@pytest.mark.parametrize("m", [None, 3])
def test_long_seed_range_batches_peak_below_three_times_their_rows(m):
    # The batch takes the synthesized rows without a copy and keeps its
    # coefficients as a view of them, so it peaks where the synthesis does
    # (2.11 times the rows); the bound is that peak plus 10 %.
    random_slice_batch(range(2), m=m)
    tracemalloc.start()
    try:
        batch = random_slice_batch(range(1000), m=m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.33 * batch.rows.nbytes, f"peak {peak} B for {batch.rows.nbytes} B of rows"


def test_a_384_row_call_peaks_within_10_percent_of_the_copying_recursion():
    # Before the ping-pong, the recursion copied into a factor buffer, and this
    # call (K = 65) peaked at 2803696 B with numpy 2.4.6: gammas, the one
    # 4 (N + 1) x rows buffer and the returned rows.  The ping-pong keeps that
    # one buffer (plus a zero order per half); the bound is that peak plus
    # 10 %.  The figure moves with numpy's own allocations.
    params = random_params(384, 65, seed=384)
    _synthesize_rows(params[:32], 64)
    tracemalloc.start()
    try:
        _synthesize_rows(params, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2803696, f"peak {peak} B"


#: A 128-seed block whose seeds straddle 2**64: the column hash takes none of them.
STRADDLE = range(2**64 - 64, 2**64 + 64)


def test_column_states_are_the_states_of_pcg64():
    seeds = [*range(10000), *(seed for seed in LARGE_SEEDS if seed < 2**64)]
    assert seeds[-4:] == [2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]
    for seed, state in zip(seeds, _pcg64_states(seeds), strict=True):
        assert state == np.random.PCG64(seed).state, seed


@pytest.mark.parametrize(
    "seeds", [range(COLUMN_SEEDS - 1), range(COLUMN_SEEDS), [*range(40), *LARGE_SEEDS], STRADDLE]
)
def test_every_generator_starts_in_its_seed_s_state(seeds):
    seeds = list(seeds)
    got = [rng.bit_generator.state for rng in _generators(seeds)]  # each read before the next is set
    assert got == [np.random.default_rng(seed).bit_generator.state for seed in seeds]


def reference_rows(seeds, n_terms, m, scalar):
    """Each seed's components by ``test_synthesis_reference``'s one-series draw from ``np.random.default_rng``."""
    comps = [[reference_scalar(seed, n_terms)] if scalar else reference_slice(seed, m, n_terms) for seed in seeds]
    return np.array([row for rows in comps for row in rows]), [len(rows) for rows in comps]


@pytest.mark.parametrize("count", [1, COLUMN_SEEDS - 1, COLUMN_SEEDS, 128, 129])
@pytest.mark.parametrize(
    "m, scalar", [(None, False), (1, False), (3, False), (None, True)], ids=["mixed", "m1", "m3", "scalar"]
)
def test_seeded_rows_are_the_per_seed_default_rng_rows(count, m, scalar):
    seeds = range(1000, 1000 + count)
    rows, counts = _seeded_rows(seeds, 8, m=m, scalar=scalar)
    expected, expected_counts = reference_rows(seeds, 8, m, scalar)
    assert counts == expected_counts
    assert same_bits(rows, expected)


def test_a_three_component_verify_block_at_the_default_order_matches_the_reference():
    seeds = range(100, 100 + 128)  # one SYNTH_CHUNK of 384 rows at N = 64: the largest block verify forms
    rows, counts = _seeded_rows(seeds, 64, m=3)
    expected, expected_counts = reference_rows(seeds, 64, 3, False)
    assert rows.shape == (384, 65) and counts == expected_counts
    assert same_bits(rows, expected)


@pytest.mark.parametrize("m, scalar", [(None, False), (None, True)], ids=["mixed", "scalar"])
def test_large_seeds_keep_their_rows_in_a_column_block(m, scalar):
    seeds = [*range(40), *LARGE_SEEDS]
    rows, counts = _seeded_rows(seeds, 8, m=m, scalar=scalar)
    expected, expected_counts = reference_rows(seeds, 8, m, scalar)
    assert counts == expected_counts
    assert same_bits(rows, expected)


@pytest.mark.parametrize("m, scalar", [(None, False), (None, True)], ids=["mixed", "scalar"])
def test_a_block_that_straddles_2_64_keeps_its_rows(m, scalar):
    rows, counts = _seeded_rows(STRADDLE, 8, m=m, scalar=scalar)
    expected, expected_counts = reference_rows(STRADDLE, 8, m, scalar)
    assert counts == expected_counts
    assert same_bits(rows, expected)
