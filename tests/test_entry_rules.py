"""Every public entry point rejects an input outside its domain with
``DomainError``, before it does any work: radii and lambda outside [0, 1),
truncation orders, component counts, sample counts and composition orders
that are not an integer ≥ 1, seeds that are not an integer ≥ 0, batch
counts that are not a 1-d sequence of such counts, counterexample parameters
outside their family's ranges, a batch evaluated at points that are not
a 1-d array, an x of the slack polynomials outside [0, 1] and a tolerance that
is not a finite number >= 0.  An input that does not
compare with a number (a str, None) breaks the rule it reaches with a
``DomainError`` that names the input, and so does an array input (batch rows,
series coefficients and a0, evaluation points, Schur parameters) that holds
text or None.  An integral float is the integer it equals: it gives that
integer's bits."""

import math
from fractions import Fraction

import numpy as np
import pytest

import polybohr.series as series
import polybohr.sharpness as sharpness
from polybohr.radii import _check_count, _check_unit
from polybohr.slices import SliceBatch
from polybohr import (
    DomainError,
    FunctionalSpec,
    PolydiscSlice,
    TruncatedSeries,
    check_slack_factorization,
    counterexample_analytic_bound,
    eval_functional,
    eval_functional_batch,
    eval_series_many,
    extremal_slice,
    find_witness,
    mobius_series,
    random_equimodular_slice,
    random_schur_series,
    random_slice_batch,
    reproduce_counterexample,
    schur_series_from_params,
    schwarz_compose,
    slack_polynomial,
    slack_polynomial_factored,
    slice_tail_bound,
    solve_radius,
    sup_modulus,
    tail_bound,
)

SQUARED = FunctionalSpec.improved_squared()
SLICE = random_equimodular_slice(0, m=2, n_terms=16)
BATCH = random_slice_batch(range(3), n_terms=16)
SERIES = mobius_series(0.5, "plus", 16)

RADIUS = {
    "eval_functional": lambda r: eval_functional(SLICE, SQUARED, r),
    "eval_functional_batch": lambda r: eval_functional_batch(BATCH, SQUARED, r),
    "sup_modulus(slice)": lambda r: sup_modulus(SLICE, r),
    "sup_modulus(batch)": lambda r: sup_modulus(BATCH, r),
    "tail_bound": lambda r: tail_bound(SERIES, r, "linear_sum"),
    "slice_tail_bound": lambda r: slice_tail_bound(SLICE, r, "linear_sum"),
    "mobius_series(lambda)": lambda lam: mobius_series(lam, "plus"),
    "find_witness": lambda r: find_witness(SQUARED, r),
}

N_TERMS = {
    "mobius_series": lambda n: mobius_series(0.5, "plus", n),
    "schur_series_from_params": lambda n: schur_series_from_params([0.5, 0.25j], n),
    "random_schur_series": lambda n: random_schur_series(0, n_terms=n),
    "random_equimodular_slice": lambda n: random_equimodular_slice(0, n_terms=n),
    "random_slice_batch": lambda n: random_slice_batch(range(2), n_terms=n),
    "find_witness": lambda n: find_witness(SQUARED, 0.7, n_terms=n),
    "reproduce_counterexample": lambda n: reproduce_counterexample(FunctionalSpec.composed(1), 0.5, 0.9, 0.5, n_terms=n),
}

M = {
    "random_equimodular_slice": lambda m: random_equimodular_slice(0, m=m),
    "random_slice_batch": lambda m: random_slice_batch(range(2), m=m),
    "extremal_slice": lambda m: extremal_slice(SQUARED, 0.5, m=m),
    "find_witness": lambda m: find_witness(SQUARED, 0.7, m=m),
}

#: A one-component slice and a two-component one, as batch rows.
ROWS = np.concatenate([random_slice_batch([1], m=1, n_terms=16).rows, SLICE.rows])

#: SliceBatch counts for the two rows of SLICE that are not a 1-d sequence of integers >= 1.
BATCH_COUNTS = ([1.7, 1.2], [2.9], [math.nan, 1], [[1], [1]], [[1], [1, 2]], 2)

#: Entry points that take a count or an order, each with an integer to pass also as a float.
INTEGRAL_FLOATS = {
    "schwarz_compose": (lambda k: schwarz_compose(SLICE, k), 2),
    "solve_radius": (solve_radius, 20),
    "random_schur_series": (lambda n: PolydiscSlice(components=(random_schur_series(0, n_terms=n),)), 16),
    "random_equimodular_slice": (lambda m: random_equimodular_slice(0, m=m), 2),
    "SliceBatch(counts)": (lambda c: SliceBatch(rows=ROWS, counts=[c - 1, c]), 2),
}

#: Inputs that do not compare with a number: (call, value, the message of its DomainError).
NON_NUMERIC = {
    "extremal_slice-m": (
        lambda m: extremal_slice(SQUARED, 0.5, m=m), "2", "component count m must be an integer >= 1, got '2'"
    ),
    "mobius_series-n_terms": (
        lambda n: mobius_series(0.5, "plus", n), None, "truncation order must be an integer >= 1, got None"
    ),
    "find_witness-r": (lambda r: find_witness(SQUARED, r), "0.7", "radius must lie in [0, 1), got '0.7'"),
    "SliceBatch-counts": (
        lambda c: SliceBatch(rows=SLICE.rows, counts=c), ["1", 1],
        "component count must be an integer >= 1, got '1'",
    ),
    "counterexample_analytic_bound-r": (
        lambda r: counterexample_analytic_bound(FunctionalSpec.composed(1), 0.5, 0.9, r), "0.5",
        "radius must lie in (0, 1), got '0.5'",
    ),
    "extremal_slice-lambda": (
        lambda lam: extremal_slice(SQUARED, lam), "0.5", "extremal parameter must lie in (0, 1), got '0.5'"
    ),
    "counterexample_analytic_bound-a1": (
        lambda a1: counterexample_analytic_bound(FunctionalSpec.composed(1), a1, 0.9, 0.5), "0.5",
        "a1 must lie in [0, 1), got '0.5'",
    ),
    "counterexample_analytic_bound-a2": (
        lambda a2: counterexample_analytic_bound(FunctionalSpec.composed(1), 0.5, a2, 0.5), None,
        "a2 must lie in [0, 1), got None",
    ),
    "reproduce_counterexample-a1": (
        lambda a1: reproduce_before_building((FunctionalSpec.composed(1), a1, 0.9, 0.5)), "0.5",
        "a1 must lie in [0, 1), got '0.5'",
    ),
    "check_slack_factorization-tol": (
        lambda tol: check_slack_factorization(10, tol), "x", "tol must lie in [0, inf), got 'x'"
    ),
    "slack_polynomial-x": (slack_polynomial, "0.5", "x must lie in [0, 1], got '0.5'"),
    "slack_polynomial_factored-x": (slack_polynomial_factored, None, "x must lie in [0, 1], got None"),
    "SliceBatch-rows": (
        lambda rows: SliceBatch(rows=rows, counts=[1]), [["a", "b"]], "rows must be numeric, got [['a', 'b']]"
    ),
    "TruncatedSeries-a0-str": (lambda a0: TruncatedSeries(a0=a0, coeffs=[0.1]), "x", "a0 must be numeric, got 'x'"),
    "TruncatedSeries-a0-none": (lambda a0: TruncatedSeries(a0=a0, coeffs=[0.1]), None, "a0 must be numeric, got None"),
    "TruncatedSeries-coeffs": (lambda c: TruncatedSeries(0.0, c), ["a"], "coeffs must be numeric, got ['a']"),
    "eval_series_many-ts": (lambda ts: eval_series_many(SERIES, ts), "abc", "ts must be numeric, got 'abc'"),
    "schur_series_from_params-str": (schur_series_from_params, ["a"], "params must be numeric, got ['a']"),
    "schur_series_from_params-nan": (
        schur_series_from_params, [math.nan],
        "Schur parameters must be a nonempty 1-d sequence of moduli <= 1, got [nan]",
    ),
    "FunctionalSpec.refined-p": (FunctionalSpec.refined, "2", "p must be 1 or 2, got '2'"),
}

#: Seeds that are not an integer >= 0, each with the message of its DomainError.
BAD_SEEDS = {
    "negative": (-1, "seed must be an integer >= 0, got -1"),
    "fraction": (1.5, "seed must be an integer >= 0, got 1.5"),
    "nan": (math.nan, "seed must be an integer >= 0, got nan"),
    "inf": (math.inf, "seed must be an integer >= 0, got inf"),
    "str": ("3", "seed must be an integer >= 0, got '3'"),
    "none": (None, "seed must be an integer >= 0, got None"),
}

#: Seeded constructors: alone, in a block short of the column hash, and last in a block that takes it.
SEEDED = {
    "random_schur_series": random_schur_series,
    "random_equimodular_slice": random_equimodular_slice,
    "random_slice_batch": lambda seed: random_slice_batch([0, seed]),
    "random_slice_batch(block)": lambda seed: random_slice_batch([*range(series.COLUMN_SEEDS), seed]),
}

COUNTEREXAMPLE = {
    "no-family": (FunctionalSpec.classical(), 0.5, 0.9, 0.5),
    "a1-below-floor": (SQUARED, 0.5, 0.9, 0.5),
    "a1-above-a2": (FunctionalSpec.refined(1), 0.9, 0.5, 0.5),
    "a2-at-1": (FunctionalSpec.refined(1), 0.8, 1.0, 0.5),
    "r-past-1": (FunctionalSpec.refined(1), 0.9, 0.95, 2.0),
    "r-at-0": (FunctionalSpec.composed(1), 0.5, 0.9, 0.0),
    "r-nan": (FunctionalSpec.composed(1), 0.5, 0.9, math.nan),
}


def reproduce_before_building(args):
    """reproduce_counterexample with a slice constructor that fails the test if called."""

    def fail(*_args, **_kwargs):
        raise AssertionError("built a slice before checking the input")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sharpness, "_mobius_rows", fail)
        reproduce_counterexample(*args)


def seeded_before_drawing(call, seed):
    """A seeded constructor whose draw fails the test if it starts."""

    def fail(*_args, **_kwargs):
        raise AssertionError("drew a seed before checking them all")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_generators", fail)
        call(seed)


def _cases():
    """(call, value) pairs; each call must raise DomainError on its value."""
    for name, call in RADIUS.items():
        for r in (1.0, -0.1, math.nan):
            yield pytest.param(call, r, id=f"{name}-{r}")
    for name, call in N_TERMS.items():
        for n in (0, -1, -3, 2.5, math.nan):
            yield pytest.param(call, n, id=f"{name}-n_terms={n}")
    for name, call in M.items():
        for m in (0, -1, 2.5, math.nan):
            yield pytest.param(call, m, id=f"{name}-m={m}")
    for counts in BATCH_COUNTS:
        yield pytest.param(lambda c: SliceBatch(rows=SLICE.rows, counts=c), counts, id=f"SliceBatch-counts={counts}")
    for samples in (0, 2.5, math.nan):
        yield pytest.param(check_slack_factorization, samples, id=f"check_slack_factorization-samples={samples}")
    for tol in (math.nan, -1e-9, math.inf, "x", None):
        yield pytest.param(lambda t: check_slack_factorization(10, t), tol, id=f"check_slack_factorization-tol={tol}")
    for call in (slack_polynomial, slack_polynomial_factored):
        for x in (-0.1, 1.1, math.nan, "0.5", None):
            yield pytest.param(call, x, id=f"{call.__name__}-x={x}")
    for k in (0, 2.5):
        yield pytest.param(lambda k: schwarz_compose(SLICE, k), k, id=f"schwarz_compose-k={k}")
    for name, args in COUNTEREXAMPLE.items():
        yield pytest.param(lambda a: counterexample_analytic_bound(*a), args, id=f"counterexample_analytic_bound-{name}")
        yield pytest.param(reproduce_before_building, args, id=f"reproduce_counterexample-{name}")
    for shape in ((), (2, 2)):
        ts = np.full(shape, 0.3)
        yield pytest.param(lambda t: eval_series_many(BATCH, t), ts, id=f"eval_series_many(batch)-ts-{ts.ndim}d")


@pytest.mark.parametrize(("call", "value"), _cases())
def test_entry_point_rejects_out_of_domain_input(call, value):
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize(("call", "value", "message"), NON_NUMERIC.values(), ids=NON_NUMERIC)
def test_non_numeric_input_is_a_named_domain_error(call, value, message):
    with pytest.raises(DomainError) as raised:
        call(value)
    assert str(raised.value) == message


def test_fractions_numpy_scalars_and_bools_keep_their_results():
    assert [_check_count(v, "n") for v in (True, np.int64(3), Fraction(4), np.float64(2.0))] == [1, 3, 4, 2]
    for r in (Fraction(1, 2), np.float64(0.5), np.float32(0.0), False):
        _check_unit(r, "r")
    for bad in (Fraction(5, 2), np.int64(0), False):
        with pytest.raises(DomainError):
            _check_count(bad, "n")
    for bad in (Fraction(1), np.float64(1.0), True):
        with pytest.raises(DomainError):
            _check_unit(bad, "r")


@pytest.mark.parametrize(("call", "value"), INTEGRAL_FLOATS.values(), ids=INTEGRAL_FLOATS)
def test_integral_float_gives_its_ints_bits(call, value):
    as_float, as_int = call(float(value)), call(value)
    if isinstance(as_int, SliceBatch):
        assert as_float.rows.tobytes() == as_int.rows.tobytes()
        assert as_float.counts.tobytes() == as_int.counts.tobytes()
    else:  # a radius result: repr writes every float exactly
        assert repr(as_float) == repr(as_int)


@pytest.mark.parametrize(("seed", "message"), BAD_SEEDS.values(), ids=BAD_SEEDS)
@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED)
def test_a_seed_that_is_not_an_integer_from_0_is_a_named_domain_error(call, seed, message):
    with pytest.raises(DomainError) as raised:
        seeded_before_drawing(call, seed)
    assert str(raised.value) == message


@pytest.mark.parametrize("count", [1, series.COLUMN_SEEDS])
def test_numpy_int_bool_and_integral_float_seeds_draw_their_ints_streams(count):
    pairs = ((np.int64(5), 5), (np.uint64(2**63), 2**63), (True, 1), (False, 0), (5.0, 5), (Fraction(7), 7))
    for seed, as_int in pairs:
        got, want = random_slice_batch([seed] * count), random_slice_batch([as_int] * count)
        assert got.rows.tobytes() == want.rows.tobytes(), repr(seed)
        assert got.counts.tobytes() == want.counts.tobytes(), repr(seed)


def test_the_slack_polynomials_take_x_1_and_a_tolerance_keeps_its_result():
    assert slack_polynomial(1.0) == slack_polynomial_factored(1.0) == 0.0
    assert check_slack_factorization(50, tol=1e-9)
    check_slack_factorization(10, 0)  # the closed end of [0, inf)
