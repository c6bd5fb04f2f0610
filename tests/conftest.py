"""Shared corpora and helper constructors for the test suite."""

import numpy as np
import pytest

from polybohr import PolydiscSlice, TruncatedSeries, random_equimodular_slices, random_schur_series_many

CORPUS_SIZE = 1000


@pytest.fixture(scope="session")
def corpus_slices():
    """1000 random certified equimodular slices, m in {1, 2, 3}, order 64."""
    return random_equimodular_slices(range(CORPUS_SIZE))


@pytest.fixture(scope="session")
def corpus_series():
    """1000 random certified scalar series, order 64."""
    return random_schur_series_many(range(CORPUS_SIZE))


def monomial_series(power: int, n_terms: int = 64) -> TruncatedSeries:
    """The certified series of t -> t^power."""
    coeffs = np.zeros(n_terms, dtype=np.complex128)
    coeffs[power - 1] = 1.0
    return TruncatedSeries(a0=0.0, coeffs=coeffs, schur_certified=True)


def monomial_slice(powers, n_terms: int = 64) -> PolydiscSlice:
    """Slice with components (t^p for p in powers); certified, equimodular (a = 0)."""
    return PolydiscSlice.from_components([monomial_series(p, n_terms) for p in powers])
