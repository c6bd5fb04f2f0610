"""Shared corpora and helper constructors for the test suite."""

import numpy as np
import pytest

from polybohr import PolydiscSlice, TruncatedSeries, random_slice_batch

CORPUS_SIZE = 1000


@pytest.fixture(scope="session")
def corpus_batch():
    """1000 random certified equimodular slices, m in {1, 2, 3}, order 64, as one batch."""
    return random_slice_batch(range(CORPUS_SIZE))


@pytest.fixture(scope="session")
def corpus_series_batch():
    """1000 random certified scalar series, order 64, as one batch of one-component slices."""
    return random_slice_batch(range(CORPUS_SIZE), scalar=True)


@pytest.fixture(scope="session")
def corpus_slices(corpus_batch):
    """The slices of :func:`corpus_batch`."""
    return corpus_batch.slices()


@pytest.fixture(scope="session")
def corpus_series(corpus_series_batch):
    """The series of :func:`corpus_series_batch`."""
    return [s.components[0] for s in corpus_series_batch.slices()]


def monomial_series(power: int, n_terms: int = 64) -> TruncatedSeries:
    """The certified series of t -> t^power."""
    coeffs = np.zeros(n_terms, dtype=np.complex128)
    coeffs[power - 1] = 1.0
    return TruncatedSeries(a0=0.0, coeffs=coeffs, schur_certified=True)


def monomial_slice(powers, n_terms: int = 64) -> PolydiscSlice:
    """Slice with components (t^p for p in powers); certified, equimodular (a = 0)."""
    return PolydiscSlice.from_components([monomial_series(p, n_terms) for p in powers])
