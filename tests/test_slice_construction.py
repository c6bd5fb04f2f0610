"""Slices built straight into their one-slice batches.

``extremal_slice`` and ``reproduce_counterexample`` write their rows from the
Moebius closed form into a checked one-slice ``SliceBatch``; they must match,
bit for bit, the slices made from ``mobius_series`` components.  Every
construction path applies the same row rules with the same exceptions and
messages (the row maxima carry the finite check), and a slice builds its
``components`` only on request, as uncopied read-only views of its rows.
"""

import math

import numpy as np
import pytest

import polybohr.sharpness as sharpness
import polybohr.slices as slices
from conftest import monomial_slice
from polybohr import (
    FunctionalSpec,
    PolydiscSlice,
    TruncatedSeries,
    eval_functional,
    extremal_slice,
    find_witness,
    mobius_series,
    random_equimodular_slice,
    reproduce_counterexample,
    schwarz_compose,
)
from polybohr.errors import CertificationError, DomainError, PreconditionError
from polybohr.functionals import eval_functional_batch
from polybohr.slices import EQUIMODULAR_TOL, SliceBatch, random_slice_batch

KINDS = (
    FunctionalSpec.improved_squared(),
    FunctionalSpec.refined(1),
    FunctionalSpec.refined(2),
    FunctionalSpec.composed(1),
    FunctionalSpec.composed(2),
    FunctionalSpec.composed(3),
)
#: One kind of each family sign: "plus" (squared, composed) and "minus" (refined).
FAMILIES = (FunctionalSpec.improved_squared(), FunctionalSpec.refined(1))
LAMBDAS = (1e-3, math.sqrt(3.0 / 11.0), 0.5, *(1.0 - 0.5**j for j in range(1, 41)))
ORDERS = (1, 8, 64, 100)
BATCH_FIELDS = ("rows", "counts", "coeffs", "a0", "a0_moduli", "coeff_moduli", "starts", "a_norm", "q", "tail_cap")
#: The demos/05 cases: (spec, a1, r), each at every a2 below.
COUNTEREXAMPLES = (
    (FunctionalSpec.improved_squared(), 0.6, 0.7),
    (FunctionalSpec.refined(1), 0.75, 0.5),
    (FunctionalSpec.composed(1), 0.5, 0.5),
)
COUNTEREXAMPLE_A2 = (0.9, 0.99, 1.0 - 1e-4)


def bits(array):
    """The raw bits of an array, complex entries as two uint64 words."""
    array = np.ascontiguousarray(array)
    return array.shape, array.dtype.str, array.view(np.uint8).tobytes()


def assert_same_batch(got, want):
    for name in BATCH_FIELDS:
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert got.equimodular.tolist() == want.equimodular.tolist() and got.certified is want.certified


def written_out_rows(lams, sign, n_terms):
    """The Moebius rows as ``mobius_series`` wrote them before the rows were shared: lam^n times (-1)^n by a
    power, a0 = lam, and the real coefficients cast to complex."""
    n = np.arange(n_terms)
    rows = []
    for lam in lams:
        powers = lam**n
        coeffs = (1.0 - lam * lam) * powers * (-1.0) ** n if sign == "plus" else -(1.0 - lam * lam) * powers
        rows.append(np.concatenate([[complex(lam)], coeffs.astype(np.complex128)]))
    return np.array(rows)


def hexes(value):
    return tuple(map(float.hex, vars(value).values()))


def values(batch, kinds, r):
    return [hexes(value) for spec in kinds for value in eval_functional_batch(batch, spec, r)]


class TestClosedFormRows:
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n_terms", ORDERS)
    def test_extremal_slice_matches_its_mobius_components(self, spec, m, n_terms):
        sign = sharpness._family_sign(spec)
        kinds = (*KINDS, FunctionalSpec.classical()) if m == 1 else KINDS
        for lam in LAMBDAS:
            got = extremal_slice(spec, lam, m, n_terms)
            want = PolydiscSlice(components=(mobius_series(lam, sign, n_terms),) * m)
            assert_same_batch(got._batch, want._batch)
            assert bits(got._batch.rows) == bits(np.repeat(written_out_rows([lam], sign, n_terms), m, axis=0))
            assert got.equimodular and got.certified
            for r in (0.3, 0.7):
                assert values(got._batch, kinds, r) == values(want._batch, kinds, r), (lam, r)
                assert [hexes(eval_functional(got, k, r)) for k in kinds] == values(want._batch, kinds, r)

    @pytest.mark.parametrize(("spec", "a1", "r"), COUNTEREXAMPLES, ids=lambda v: getattr(v, "kind", str(v)))
    def test_counterexample_matches_its_mobius_components(self, monkeypatch, spec, a1, r):
        sign, taken = sharpness._family_sign(spec), []

        def evaluate(batch, *args):
            taken.append(batch)
            return eval_functional_batch(batch, *args)

        monkeypatch.setattr(sharpness, "eval_functional_batch", evaluate)
        for a2 in COUNTEREXAMPLE_A2:
            report = reproduce_counterexample(spec, a1, a2, r)
            want = PolydiscSlice(components=(mobius_series(a1, sign), mobius_series(a2, sign)))._batch
            assert_same_batch(taken[-1], want)
            assert bits(want.rows) == bits(written_out_rows([a1, a2], sign, 64))
            [value] = eval_functional_batch(want, spec, r)
            assert (report.value_lower, report.value_upper) == (value.lower, value.upper)
            assert report.succeeded is (value.lower > 1.0) and not taken[-1].equimodular[0]


# ---------------------------------------------------------------- row rules


def row(a0=0.5, n_terms=8):
    """A Schur row a0, (1 - |a0|^2)/2, 0, ..., 0."""
    out = np.zeros(n_terms + 1, dtype=np.complex128)
    out[:2] = a0, (1.0 - abs(a0) ** 2) / 2
    return out


def with_entry(index, value, a0=0.5):
    out = row(a0)
    out[index] = value
    return out


#: Bad single rows, each with what ``TruncatedSeries(schur_certified=True)`` raises on it.
BAD_ROWS = {
    "nan": (with_entry(3, np.nan), DomainError, "coeffs must be a nonempty finite 1-d sequence"),
    "+inf": (with_entry(3, np.inf), DomainError, "coeffs must be a nonempty finite 1-d sequence"),
    "-inf": (with_entry(3, -np.inf), DomainError, "coeffs must be a nonempty finite 1-d sequence"),
    "nan-imag": (with_entry(8, complex(0.0, np.nan)), DomainError, "coeffs must be a nonempty finite 1-d sequence"),
    "a0-nan": (with_entry(0, np.nan), DomainError, "|a0| = nan must be finite and at most 1"),
    "a0-above-one": (
        with_entry(1, 0.0, a0=1.0 + 2e-15), DomainError, f"|a0| = {abs(1.0 + 2e-15)} must be finite and at most 1"
    ),
    "bound": (
        with_entry(5, 0.64 + 2e-12, a0=0.6),
        CertificationError,
        "certified series violates coefficient bound: max |c_n| = 0.640000000002 > 1 - |a0|^2 = 0.64",
    ),
    # Finite, but its modulus overflows to inf: the finite check must let it through to the bound.
    "modulus-overflow": (
        with_entry(2, complex(1.5e308, 1.5e308)),
        CertificationError,
        "certified series violates coefficient bound: max |c_n| = inf > 1 - |a0|^2 = 0.75",
    ),
}


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def seeded_with(monkeypatch, rows):
    monkeypatch.setattr(slices, "_seeded_rows", lambda *args, **kwargs: (rows.copy(), [len(rows)]))


def closed_form_with(monkeypatch, rows):
    monkeypatch.setattr(sharpness, "_mobius_rows", lambda *args, **kwargs: rows.copy())


@pytest.mark.parametrize("case", BAD_ROWS)
@pytest.mark.parametrize("m", [1, 2])
def test_every_construction_path_applies_the_row_rules(monkeypatch, case, m):
    bad, error, message = BAD_ROWS[case]
    assert raised(lambda: TruncatedSeries(a0=bad[0], coeffs=bad[1:], schur_certified=True)) == (error, message)
    good = row(abs(complex(bad[0])) if math.isfinite(abs(complex(bad[0]))) else 0.5)
    rows = np.array([good, bad][-m:])
    paths = {
        "public": lambda: SliceBatch(rows=rows, counts=[m]),
        "components": lambda: PolydiscSlice(
            components=[TruncatedSeries(a0=r[0], coeffs=r[1:], schur_certified=True) for r in rows]
        ),
        "seeded slice": lambda: (seeded_with(monkeypatch, rows), random_equimodular_slice(0)),
        "seeded batch": lambda: (seeded_with(monkeypatch, rows), random_slice_batch([0])),
        "counterexample": lambda: (
            closed_form_with(monkeypatch, np.array([good, bad])),
            reproduce_counterexample(FunctionalSpec.composed(1), 0.5, 0.9, 0.5),
        ),
    }
    if m == 1:
        paths["closed form"] = lambda: (closed_form_with(monkeypatch, rows), extremal_slice(FAMILIES[0], 0.5))
    for name, call in paths.items():
        assert raised(call) == (error, message), name


def test_a_non_equimodular_batch_is_a_precondition_error_and_a_counterexample_evaluates(monkeypatch):
    rows = np.array([row(0.5), row(0.9)])
    message = f"slice is not equimodular: initial moduli spread {0.9 - 0.5} exceeds {EQUIMODULAR_TOL}"
    assert raised(lambda: SliceBatch(rows=rows, counts=[2])) == (PreconditionError, message)
    assert raised(lambda: SliceBatch(rows=np.concatenate([rows[:1], rows]), counts=[1, 2])) == (
        PreconditionError, message,
    )
    seeded_with(monkeypatch, rows)
    assert raised(lambda: random_slice_batch([0])) == (PreconditionError, message)
    # The same rows make a slice from components, flagged and refused by the evaluator, and a counterexample.
    mixed = PolydiscSlice(components=[TruncatedSeries(a0=r[0], coeffs=r[1:], schur_certified=True) for r in rows])
    assert mixed.certified and not mixed.equimodular
    with pytest.raises(PreconditionError):
        eval_functional(mixed, FunctionalSpec.composed(1), 0.5)
    closed_form_with(monkeypatch, rows)
    report = reproduce_counterexample(FunctionalSpec.composed(1), 0.5, 0.9, 0.5)
    [value] = eval_functional_batch(mixed._batch, FunctionalSpec.composed(1), 0.5)
    assert (report.value_lower, report.value_upper) == (value.lower, value.upper)
    batch = SliceBatch._owning(rows.copy(), [2], hypothesis=False)
    assert batch.equimodular.tolist() == [False] and batch.certified


# ---------------------------------------------------------------- components on request


def parent_view(sl):
    """m, truncation order, certified and equimodular, derived from the components the way slices derived them
    when they held their components."""
    comps = sl.components
    moduli = [abs(c.a0) for c in comps]
    return (
        len(comps), comps[0].truncation_order, all(c.schur_certified for c in comps),
        max(moduli) - min(moduli) <= EQUIMODULAR_TOL,
    )


class TestComponentsOnRequest:
    def test_components_are_read_only_certified_views_of_the_rows(self, corpus_slices):
        for sl in (*corpus_slices[:50], extremal_slice(FAMILIES[1], 0.75, m=3), random_equimodular_slice(5, m=2)):
            comps, rows = sl.components, sl._batch.rows
            assert len(comps) == sl.m == rows.shape[0]
            for comp, r in zip(comps, rows):
                assert np.shares_memory(comp.coeffs, rows) and not comp.coeffs.flags.writeable
                assert comp.schur_certified and type(comp.a0) is complex
                assert bits(np.array([comp.a0, *comp.coeffs])) == bits(r)
                with pytest.raises(ValueError):
                    comp.coeffs[0] = 0.0

    def test_a_slice_of_uncertified_components_has_uncertified_views(self):
        loose = TruncatedSeries(a0=0.5, coeffs=np.full(8, 0.9))
        sl = PolydiscSlice.from_components([loose, mobius_series(0.5, "plus", 8)])
        assert not sl.certified and [c.schur_certified for c in sl.components] == [False, False]

    def test_schwarz_compose_builds_from_unequal_moduli_and_uncertified_slices(self):
        # Its batch checks the rows but not the hypothesis; the evaluator still refuses both slices.
        mixed = PolydiscSlice(components=(mobius_series(0.6, "plus", 12), mobius_series(0.9, "minus", 12)))
        loose = PolydiscSlice(components=(TruncatedSeries(a0=0.5, coeffs=np.full(12, 0.9)),))
        for sl, error in ((mixed, PreconditionError), (loose, CertificationError)):
            composed = schwarz_compose(sl, 3)
            assert (composed.m, composed.certified, composed.equimodular) == (sl.m, sl.certified, sl.equimodular)
            assert bits(composed._batch.rows[:, 3::3]) == bits(sl._batch.rows[:, 1:5])
            assert not np.delete(composed._batch.rows, [0, 3, 6, 9, 12], axis=1).any()
            with pytest.raises(error):
                eval_functional(composed, FunctionalSpec.composed(1), 0.3)
        assert not mixed.equimodular and not loose.certified

    def test_a_witness_search_builds_no_series(self, monkeypatch):
        built, post_init = [], TruncatedSeries.__post_init__

        def counting(series_):
            built.append(series_)
            post_init(series_)

        monkeypatch.setattr(TruncatedSeries, "__post_init__", counting)
        for spec in (*KINDS, FunctionalSpec.classical()):
            for m in ((1,) if spec.kind == "classical" else (1, 3)):
                find_witness(spec, 0.9 if spec.kind == "improved_squared" else 0.6, m=m)
        reproduce_counterexample(FunctionalSpec.refined(1), 0.75, 0.99, 0.5)
        assert built == []
        mobius_series(0.5, "plus")
        assert len(built) == 1

    def test_slice_properties_match_their_components(self, corpus_slices):
        monomials = [monomial_slice(powers) for powers in ([1], [1, 2], [1, 2, 3], [2, 5], [64])]
        mixed = PolydiscSlice(components=(mobius_series(0.6, "plus", 12), mobius_series(0.9, "minus", 12)))
        for sl in (*corpus_slices, *monomials, mixed):
            assert (sl.m, sl.truncation_order, sl.certified, sl.equimodular) == parent_view(sl)
        assert [parent_view(sl) for sl in monomials] == [(m, 64, True, True) for m in (1, 2, 3, 2, 1)]
        assert parent_view(mixed)[3] is False

    def test_one_slice_batches_share_read_only_index_arrays(self):
        one, two = extremal_slice(FAMILIES[0], 0.5), extremal_slice(FAMILIES[0], 0.25)
        assert one._batch.counts is two._batch.counts and one._batch.starts is two._batch.starts
        for name in ("counts", "starts", "equimodular"):
            assert not getattr(one._batch, name).flags.writeable, name
        batch = random_slice_batch(range(5))
        for name in ("counts", "starts", "equimodular"):
            assert not getattr(batch, name).flags.writeable, name
        assert batch.equimodular.tolist() == [True] * 5
