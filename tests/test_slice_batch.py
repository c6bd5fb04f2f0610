"""The batch path of ``verify`` against the per-slice path, bit for bit.

``eval_functional_batch`` must give every slice of a ``SliceBatch`` the
``lower``, ``upper``, ``tail`` and ``truncated`` that ``eval_functional``
gives the same slice alone, whatever the batch's size and the slice's place
in it.  ``SliceBatch`` must reject what ``TruncatedSeries(schur_certified=True)``
rejects, and what the evaluator rejects on a ``PolydiscSlice`` that is not
equimodular, with the same exceptions, and ``verify_batch`` must apply
``verify_theorem``'s radius precondition and its ``upper <= 1`` verdict.
A batch's values are Python floats, whether it assembles them on floats
(one slice) or as columns (several).
"""

import functools
import math

import numpy as np
import pytest

from polybohr import FunctionalSpec, PolydiscSlice, random_equimodular_slice, random_schur_series
from polybohr.errors import CertificationError, DomainError, PreconditionError
from polybohr.functionals import eval_functional, eval_functional_batch, verify_batch, verify_theorem
from polybohr.radii import closed_form_radius
from polybohr.series import COEFF_SLACK, SYNTH_CHUNK, TruncatedSeries
from polybohr.slices import EQUIMODULAR_TOL, SliceBatch, random_slice_batch

SPECS = {
    "improved_squared": FunctionalSpec.improved_squared(),
    "refined_p1": FunctionalSpec.refined(1),
    "refined_p2": FunctionalSpec.refined(2),
    "composed_k1": FunctionalSpec.composed(1),
    "composed_k2": FunctionalSpec.composed(2),
    "composed_k3": FunctionalSpec.composed(3),
    "classical": FunctionalSpec.classical(),
}
SEEDS = range(200)
BATCH_SIZES = sorted({1, 2, 63, 64, 65, SYNTH_CHUNK})  # SYNTH_CHUNK: one verify chunk


@functools.lru_cache(maxsize=None)
def corpus(scalar):
    """Seeds 0..199 one by one: scalar series for classical, mixed m otherwise."""
    if scalar:
        return tuple(PolydiscSlice.from_components([random_schur_series(seed)]) for seed in SEEDS)
    return tuple(random_equimodular_slice(seed) for seed in SEEDS)


@functools.lru_cache(maxsize=None)
def seeded_batch(scalar):
    """Seeds 0..199 as the CLI draws them, in one batch."""
    return random_slice_batch(SEEDS, scalar=scalar)


def slices_of(label):
    return corpus(label == "classical")


def component_rows(sl):
    return np.array([[comp.a0, *comp.coeffs] for comp in sl.components], dtype=np.complex128)


def batch_of(slices):
    return SliceBatch(rows=np.concatenate([component_rows(sl) for sl in slices]), counts=[sl.m for sl in slices])


def sub_batches(batch, size):
    """Consecutive slices of ``batch``, ``size`` at a time, each as a batch of its own."""
    ends = np.cumsum(batch.counts)
    for first in range(0, len(batch), size):
        last = min(first + size, len(batch)) - 1
        yield SliceBatch(rows=batch.rows[batch.starts[first] : ends[last]], counts=batch.counts[first : last + 1])


def bits(value):
    return tuple(float.hex(getattr(value, name)) for name in ("lower", "upper", "tail", "truncated"))


@functools.lru_cache(maxsize=None)
def per_slice(label, r):
    return [bits(eval_functional(sl, SPECS[label], r)) for sl in slices_of(label)]


def test_the_corpus_mixes_component_counts():
    assert {sl.m for sl in corpus(False)} == {1, 2, 3}


@pytest.mark.parametrize("scalar", [False, True])
def test_seeded_batch_holds_the_per_seed_slices(scalar):
    batch = seeded_batch(scalar)
    assert batch.counts.tolist() == [sl.m for sl in corpus(scalar)]
    expected = np.concatenate([component_rows(sl) for sl in corpus(scalar)])
    assert np.array_equal(batch.rows.view(np.uint64), expected.view(np.uint64))
    for got, want in zip(batch.slices(), corpus(scalar)):
        assert got.equimodular and [c.a0 for c in got.components] == [c.a0 for c in want.components]


def test_scalar_batches_reject_a_component_count():
    with pytest.raises(DomainError):
        random_slice_batch(range(5), m=3, scalar=True)
    assert random_slice_batch(range(5), scalar=True).counts.tolist() == [1] * 5


@pytest.mark.parametrize("label", SPECS)
@pytest.mark.parametrize("size", BATCH_SIZES)
def test_batches_match_per_slice_evaluation(label, size):
    r = closed_form_radius(SPECS[label])
    got = []
    for batch in sub_batches(seeded_batch(label == "classical"), size):
        got += [bits(value) for value in eval_functional_batch(batch, SPECS[label], r)]
    assert got == per_slice(label, r)


@pytest.mark.parametrize("label", SPECS)
def test_a_thousand_slice_batch_gives_python_floats_with_the_per_slice_bits(
    label, corpus_batch, corpus_slices, corpus_series_batch, corpus_series
):
    # A batch of several slices assembles its values as columns and hands out their .tolist() floats.
    spec = SPECS[label]
    if label == "classical":
        batch, slices = corpus_series_batch, [PolydiscSlice.from_components([series]) for series in corpus_series]
    else:
        batch, slices = corpus_batch, corpus_slices
    for r in (0.1, closed_form_radius(spec), 0.5):
        values = eval_functional_batch(batch, spec, r)
        fields = [getattr(value, name) for value in values for name in ("lower", "upper", "tail", "truncated")]
        assert {type(field) for field in fields} == {float}
        assert [bits(value) for value in values] == [bits(eval_functional(sl, spec, r)) for sl in slices], r


@pytest.mark.parametrize("label", ["refined_p1", "refined_p2"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_batches_of_one_component_count_match_per_slice_evaluation(label, m):
    spec, r = SPECS[label], closed_form_radius(SPECS[label])
    batch = random_slice_batch(range(SYNTH_CHUNK + 1), m=m)
    assert set(batch.counts.tolist()) == {m}
    expected = [bits(eval_functional(random_equimodular_slice(seed, m=m), spec, r)) for seed in range(len(batch))]
    assert [bits(value) for value in eval_functional_batch(batch, spec, r)] == expected


@pytest.mark.parametrize("label", SPECS)
def test_a_slice_keeps_its_bits_at_every_position(label):
    spec, r = SPECS[label], closed_form_radius(SPECS[label])
    others = list(slices_of(label)[: SYNTH_CHUNK + 1])
    probe = next(sl for sl in reversed(slices_of(label)) if sl.m == (1 if label == "classical" else 3))
    expected = bits(eval_functional(probe, spec, r))
    blocks, counts = [component_rows(sl) for sl in others], [sl.m for sl in others]
    for position in range(len(others)):
        batch = SliceBatch(
            rows=np.concatenate([*blocks[:position], component_rows(probe), *blocks[position + 1 :]]),
            counts=[*counts[:position], probe.m, *counts[position + 1 :]],
        )
        assert bits(eval_functional_batch(batch, spec, r)[position]) == expected, f"position {position}"


@pytest.mark.parametrize("seed", [5, 17])
def test_evaluation_order_does_not_change_a_slice_s_bits(seed):
    # Each slice is reduced when it is made, so no evaluation leaves state for the next.
    bases = {False: random_equimodular_slice(seed, m=3), True: PolydiscSlice.from_components([random_schur_series(seed)])}

    def copy(label):
        return PolydiscSlice.from_components(bases[label == "classical"].components)

    cases = [(label, r) for label in SPECS for r in (0.05, 0.3, 0.6)]
    fresh = {(label, r): bits(eval_functional(copy(label), SPECS[label], r)) for label, r in cases}
    for order in (cases, cases[::-1]):
        slices = {False: copy("refined_p1"), True: copy("classical")}
        got = {(label, r): bits(eval_functional(slices[label == "classical"], SPECS[label], r)) for label, r in order}
        assert got == fresh


@pytest.mark.parametrize("label", SPECS)
def test_a_fresh_slice_s_first_evaluation_is_its_second_and_its_batch_row(label):
    # Fresh from each constructor path: cut from a batch, rebuilt from components, and drawn per
    # seed (every eighth seed: a draw costs about 20 times an evaluation).
    scalar, spec, r = label == "classical", SPECS[label], closed_form_radius(SPECS[label])
    rows = [bits(value) for value in eval_functional_batch(seeded_batch(scalar), spec, r)]
    cut = random_slice_batch(SEEDS, scalar=scalar).slices()
    rebuilt = [PolydiscSlice(components=sl.components) for sl in corpus(scalar)]
    drawn = [
        PolydiscSlice.from_components([random_schur_series(seed)]) if scalar else random_equimodular_slice(seed)
        for seed in SEEDS[::8]
    ]
    for path, slices, expected in (("cut", cut, rows), ("rebuilt", rebuilt, rows), ("drawn", drawn, rows[::8])):
        first = [bits(eval_functional(sl, spec, r)) for sl in slices]
        assert first == expected, path
        assert [bits(eval_functional(sl, spec, r)) for sl in slices] == expected, path


@pytest.mark.parametrize("label", SPECS)
def test_verify_batch_applies_the_radius_precondition_and_tolerance(label):
    spec = SPECS[label]
    slices = slices_of(label)[: SYNTH_CHUNK + 1]
    batch = batch_of(slices)
    radius = closed_form_radius(spec)
    expected = [verify_theorem(sl, spec, radius) for sl in slices]
    got = verify_batch(batch, spec, radius)
    assert [(ok, bits(v)) for ok, v in got] == [(ok, bits(v)) for ok, v in expected]
    for r in (math.nextafter(radius, 1.0), radius + 5e-13, radius + 2e-12, 0.99):
        with pytest.raises(PreconditionError):
            verify_theorem(slices[0], spec, r)
        with pytest.raises(PreconditionError):
            verify_batch(batch, spec, r)


def test_squared_verification_reports_failures_at_the_radius():
    # The mixed corpus holds slices that fail the squared bound (acceptance 1b):
    # the batch must flag exactly the rows the per-slice path flags.
    spec = SPECS["improved_squared"]
    radius = closed_form_radius(spec)
    flags = [ok for ok, _ in verify_batch(seeded_batch(False), spec, radius)]
    assert not all(flags)
    assert flags == [verify_theorem(sl, spec, radius)[0] for sl in corpus(False)]


# ---------------------------------------------------------------- validation


def rows_of(*a0s, n=8, coeff=0.0):
    rows = np.full((len(a0s), n + 1), coeff, dtype=np.complex128)
    rows[:, 0] = a0s
    return rows


def assert_both_reject(error, rows, counts):
    """The batch constructor raises the exception type that the per-object
    constructors raise, or, for a modulus spread, that ``eval_functional`` raises."""
    with pytest.raises(error):
        SliceBatch(rows=rows, counts=counts)
    with pytest.raises(error):
        start = 0
        for count in counts:
            comps = [TruncatedSeries(a0=row[0], coeffs=row[1:], schur_certified=True) for row in rows[start : start + count]]
            eval_functional(PolydiscSlice(components=tuple(comps)), SPECS["improved_squared"], 0.3)
            start += count


def assert_both_accept(rows, counts):
    batch = SliceBatch(rows=rows, counts=counts)
    assert len(batch.slices()) == len(counts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_coefficient_is_a_domain_error(bad):
    rows = rows_of(0.5, 0.5j)
    rows[1, 3] = bad
    assert_both_reject(DomainError, rows, [2])


@pytest.mark.parametrize("a0", [1.0 + 1e-14, 1.5j, np.nan, complex(np.inf, 0.0)])
def test_initial_value_above_one_is_a_domain_error(a0):
    assert_both_reject(DomainError, rows_of(a0), [1])


def test_initial_value_at_the_rounding_allowance_is_accepted():
    assert_both_accept(rows_of(np.nextafter(1.0, 2.0), 1j), [1, 1])


def test_coefficient_bound_is_a_certification_error():
    cap = 1.0 - 0.6**2
    rows = rows_of(0.6, -0.6)
    rows[1, 5] = cap + 2 * COEFF_SLACK
    assert_both_reject(CertificationError, rows, [2])
    rows[1, 5] = cap + 0.5 * COEFF_SLACK
    assert_both_accept(rows, [2])


def test_modulus_spread_is_a_precondition_error():
    assert_both_reject(PreconditionError, rows_of(0.5, 0.5 + 2 * EQUIMODULAR_TOL), [2])
    assert_both_accept(rows_of(0.5, 0.5 + 0.5 * EQUIMODULAR_TOL, 0.9), [2, 1])


def test_classical_needs_one_component_per_slice():
    batch = SliceBatch(rows=rows_of(0.5, 0.5, 0.2), counts=[2, 1])
    with pytest.raises(PreconditionError):
        eval_functional_batch(batch, SPECS["classical"], 0.3)
    with pytest.raises(PreconditionError):
        eval_functional(batch.slices()[0], SPECS["classical"], 0.3)


def test_eval_functional_takes_one_slice():
    batch = SliceBatch(rows=rows_of(0.5, 0.5, 0.2), counts=[2, 1])
    for several in (batch, random_slice_batch(range(3)), random_slice_batch([])):
        with pytest.raises(DomainError, match="takes one slice"):
            eval_functional(several, SPECS["composed_k2"], 0.3)


@pytest.mark.parametrize("counts", [[2, 0, 1], [1, 1], [4]])
def test_counts_must_partition_the_rows(counts):
    with pytest.raises(DomainError):
        SliceBatch(rows=rows_of(0.1, 0.2, 0.3), counts=counts)


def test_radius_outside_the_disc_is_a_domain_error():
    batch = SliceBatch(rows=rows_of(0.5), counts=[1])
    for r in (-0.1, 1.0):
        with pytest.raises(DomainError):
            eval_functional_batch(batch, SPECS["refined_p1"], r)


def test_empty_batch():
    batch = random_slice_batch([])
    assert len(batch) == 0 and batch.slices() == []
    assert eval_functional_batch(batch, SPECS["composed_k2"], 0.3) == []
