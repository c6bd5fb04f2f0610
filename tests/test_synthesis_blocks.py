"""A synthesized row's bits do not depend on the block it is synthesized in.

``_synthesize_rows`` takes two paths through the truncated quotient: a block
of several rows runs one stacked product per coefficient, and a block of one
row runs ``np.dot``.  Every row of every block below must equal, bit for bit,
both a one-row call on the same parameters and the one-series reference of
``test_synthesis_reference``.  The block sizes put rows on both sides of the
:data:`SYNTH_CHUNK` boundaries, including a trailing chunk of one row, which
takes the ``np.dot`` path inside a larger call.
"""

import numpy as np
import pytest

from polybohr.series import SYNTH_CHUNK, _synthesize_rows
from test_synthesis_reference import reference_synthesis

BLOCK_SIZES = [1, 2, SYNTH_CHUNK - 1, SYNTH_CHUNK, SYNTH_CHUNK + 1, 2 * SYNTH_CHUNK + 1]


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


def test_a_row_keeps_its_bits_at_every_position():
    params = random_params(SYNTH_CHUNK + 1, 70, seed=1)
    row = params[:1]
    alone = _synthesize_rows(row, 64)[0]
    for position in range(SYNTH_CHUNK + 1):
        block = params.copy()
        block[position] = row[0]
        assert same_bits(_synthesize_rows(block, 64)[position], alone), f"position {position}"
