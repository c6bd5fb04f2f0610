"""Extremal slices, witness search, and unequal-modulus counterexamples."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from polybohr import (
    DomainError,
    FunctionalSpec,
    PreconditionError,
    SharpnessWitness,
    WitnessSearchError,
    SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA,
    SQUARED_FUNCTIONAL_RADIUS,
    closed_form_radius,
    coefficient_norms,
    composed_extremal_excess,
    counterexample_analytic_bound,
    eval_functional,
    eval_functional_batch,
    extremal_slice,
    find_witness,
    refined_extremal_excess_p1,
    refined_extremal_excess_p2,
    reproduce_counterexample,
    squared_functional_slack,
)
import polybohr.sharpness as sharpness
from polybohr.sharpness import WITNESS_MARGIN

ALL_THEOREM_SPECS = [
    FunctionalSpec.improved_squared(),
    FunctionalSpec.refined(1),
    FunctionalSpec.refined(2),
    FunctionalSpec.composed(1),
    FunctionalSpec.composed(2),
    FunctionalSpec.composed(3),
]


#: The witness kinds of the benchmark's sharpness workload.
WORKLOAD_WITNESS_SPECS = [*ALL_THEOREM_SPECS, FunctionalSpec.composed(4)]


def family_value(spec, lam, r):
    """The functional on the kind's Moebius family at lam, by the closed forms of ``radii``: exact on Fractions."""
    if spec.kind == "improved_squared":
        return 1 + squared_functional_slack(lam, r)
    if spec.kind == "composed_k":
        return 1 + (1 - lam) * composed_extremal_excess(lam, r, spec.k)
    if spec.p == 1:
        return 1 + (1 - lam) * refined_extremal_excess_p1(lam, r)
    return 1 + (1 - lam * lam) * refined_extremal_excess_p2(lam, r)


class TestExtremalSlice:
    def test_squared_family_at_its_parameter(self):
        lam = SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA
        s = extremal_slice(FunctionalSpec.improved_squared(), lam, m=2)
        norms = coefficient_norms(s)
        assert norms.a_norm == pytest.approx(lam, abs=1e-15)
        assert norms.q[0] == pytest.approx(8.0 / 11.0, abs=1e-14)
        assert s.equimodular and s.certified

    def test_refined_family_is_reflected(self):
        s = extremal_slice(FunctionalSpec.refined(2), 0.5, m=1)
        comp = s.components[0]
        assert comp.a0 == pytest.approx(0.5)
        assert comp.coeffs[0] == pytest.approx(-0.75)

    def test_composed_family_is_plus(self):
        s = extremal_slice(FunctionalSpec.composed(2), 0.5, m=1)
        assert s.components[0].coeffs[0] == pytest.approx(0.75)

    def test_small_parameter_approaches_identity_family(self):
        s = extremal_slice(FunctionalSpec.composed(1), 1e-9, m=1)
        assert coefficient_norms(s).a_norm == pytest.approx(0.0, abs=1e-8)
        assert s.components[0].coeffs[0] == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            extremal_slice(FunctionalSpec.improved_squared(), 0.0)
        with pytest.raises(DomainError):
            extremal_slice(FunctionalSpec.improved_squared(), 1.0)
        with pytest.raises(DomainError):
            extremal_slice(FunctionalSpec.improved_squared(), 0.5, m=0)


#: find_witness's lam at radius + delta, for each delta of WITNESS_DELTAS: the squared kind's
#: extremal parameter, and 1 - 2^-j for the exponents j listed for every other kind.
WITNESS_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-6)
WITNESS_EXPONENTS = [
    (FunctionalSpec.refined(1), (1, 4, 7, 10, 17)),
    (FunctionalSpec.refined(2), (1, 3, 6, 10, 16)),
    (FunctionalSpec.composed(1), (1, 4, 7, 10, 17)),
    (FunctionalSpec.composed(2), (1, 4, 7, 10, 17)),
    (FunctionalSpec.composed(3), (1, 4, 7, 10, 17)),
    (FunctionalSpec.composed(4), (1, 4, 7, 11, 17)),
    (FunctionalSpec.classical(), (2, 5, 8, 12, 18)),
]


class TestWitnessGrid:
    def test_squared_search_lands_on_its_extremal_parameter_first(self):
        spec = FunctionalSpec.improved_squared()
        lams = [find_witness(spec, closed_form_radius(spec) + delta).lam for delta in WITNESS_DELTAS]
        assert lams == [SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA] * len(WITNESS_DELTAS)

    @pytest.mark.parametrize(("spec", "exponents"), WITNESS_EXPONENTS, ids=repr)
    def test_other_searches_scan_the_dyadic_points_in_order(self, spec, exponents):
        lams = [find_witness(spec, closed_form_radius(spec) + delta).lam for delta in WITNESS_DELTAS]
        assert lams == [1.0 - 0.5**j for j in exponents]

    @pytest.mark.parametrize("spec", WORKLOAD_WITNESS_SPECS, ids=repr)
    def test_family_value_matches_the_evaluator(self, spec):
        r = closed_form_radius(spec) + 0.01
        value = eval_functional(extremal_slice(spec, 0.5), spec, r)
        exact = float(family_value(spec, Fraction(0.5), Fraction(r)))
        assert value.lower - 1e-15 <= exact <= value.upper + 1e-15  # the float enclosure may miss it by an ulp

    @pytest.mark.parametrize("delta", [1e-9, 1e-12])
    @pytest.mark.parametrize("spec", WORKLOAD_WITNESS_SPECS, ids=repr)
    def test_grid_holds_an_exact_witness_just_past_the_radius(self, spec, delta):
        # For the lam -> 1 kinds the margin is below one ulp of 1, so find_witness
        # cannot show it in floats; on Fractions the closed forms can.
        r = Fraction(closed_form_radius(spec) + delta)
        grid = [SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA] * (spec.kind == "improved_squared") + [1 - 0.5**j for j in range(1, 41)]
        assert any(family_value(spec, Fraction(lam), r) > 1 for lam in grid)


class TestFindWitness:
    def test_squared_witness_lands_at_extremal_parameter(self):
        w = find_witness(FunctionalSpec.improved_squared(), SQUARED_FUNCTIONAL_RADIUS + 0.01)
        assert w.lam == SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA
        assert w.margin > 0.0

    def test_all_functionals_have_witnesses_just_past_radius(self):
        for spec in ALL_THEOREM_SPECS:
            radius = closed_form_radius(spec)
            w = find_witness(spec, radius + 1e-3)
            assert w.margin > 0.0
            assert w.r > radius

    def test_witnesses_throughout_tenth_beyond_radius(self):
        for spec in ALL_THEOREM_SPECS:
            radius = closed_form_radius(spec)
            for j in range(1, 11):
                r = radius + 0.1 * j / 10.0
                w = find_witness(spec, r)
                assert w.value_lower > 1.0

    def test_dyadic_parameter_for_refined_witnesses(self):
        w = find_witness(FunctionalSpec.refined(2), 1.0 / 3.0 + 1e-3)
        j = round(-math.log2(1.0 - w.lam))
        assert 1 <= j <= 40 and w.lam == 1.0 - 0.5**j

    def test_no_false_witness_at_or_below_radius(self):
        # Consistency: on the extremal family the functional stays within
        # 1 + 1e-10 for every r up to the radius, for a dense parameter grid.
        for spec in ALL_THEOREM_SPECS:
            radius = closed_form_radius(spec)
            for lam in np.linspace(0.01, 0.99, 100):
                s = extremal_slice(spec, lam)
                value = eval_functional(s, spec, radius)
                assert value.lower <= 1.0 + 1e-10

    def test_requires_radius_beyond_sharp(self):
        with pytest.raises(PreconditionError):
            find_witness(FunctionalSpec.refined(1), 0.19)

    @pytest.mark.parametrize("spec", [*ALL_THEOREM_SPECS, FunctionalSpec.classical()])
    def test_witness_at_the_radius_is_rejected(self, spec):
        with pytest.raises(DomainError):
            SharpnessWitness(spec, lam=0.5, r=closed_form_radius(spec), value_lower=1.5)

    def test_frozen_example_values(self):
        # Spot values of the functional on the extremal family past the radius.
        v1 = eval_functional(extremal_slice(FunctionalSpec.refined(2), 0.9), FunctionalSpec.refined(2), 0.4)
        assert v1.lower == pytest.approx(1.0554166666666667, abs=1e-10)
        v2 = eval_functional(extremal_slice(FunctionalSpec.composed(1), 0.95), FunctionalSpec.composed(1), 0.3)
        assert v2.lower == pytest.approx(1.0145483602001113, abs=1e-10)


def _witness_or_none(spec, r, m):
    try:
        w = find_witness(spec, r, m=m)
    except WitnessSearchError:
        return None
    return w.lam, w.value_lower.hex()


class TestComponentCount:
    """The family's m components are equal, so every value, and every witness, is that of m = 1."""

    @pytest.mark.parametrize("delta", [1e-3, 1e-9])
    @pytest.mark.parametrize("spec", WORKLOAD_WITNESS_SPECS, ids=repr)
    def test_witness_does_not_depend_on_m(self, spec, delta):
        r = closed_form_radius(spec) + delta
        assert _witness_or_none(spec, r, m=3) == _witness_or_none(spec, r, m=1)

    @pytest.mark.parametrize("offset", [-0.01, 0.0, 1e-9, 1e-3])
    @pytest.mark.parametrize("spec", WORKLOAD_WITNESS_SPECS, ids=repr)
    def test_family_value_does_not_depend_on_m(self, spec, offset):
        # find_witness evaluates one component for every m: each reduction over the equal rows
        # (a_norm, Q_n, the tail cap, the sampled sup, the refined per-component sum) keeps its bits.
        r = closed_form_radius(spec) + offset

        def bits(lam, m):
            value = eval_functional(extremal_slice(spec, lam, m), spec, r)
            return [x.hex() for x in (value.lower, value.upper, value.tail, value.truncated)]

        for lam in (SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA, 1.0 - 0.5, 1.0 - 0.5**20, 1.0 - 0.5**40):
            one = bits(lam, 1)
            assert [bits(lam, m) for m in (2, 3, 8)] == [one] * 3, lam

    @pytest.mark.parametrize("m", [0, 1.5, "3"])
    def test_an_invalid_count_is_a_domain_error_after_the_radius_rules(self, m):
        spec = FunctionalSpec.improved_squared()
        radius = closed_form_radius(spec)
        with pytest.raises(DomainError, match=re.escape(f"component count m must be an integer >= 1, got {m!r}")):
            find_witness(spec, radius + 1e-3, m=m)
        for r in (radius, radius - 1e-3):
            with pytest.raises(PreconditionError, match="needs r above the sharp radius"):
                find_witness(spec, r, m=m)
        with pytest.raises(DomainError, match="radius must lie in"):
            find_witness(spec, 1.0, m=m)

    @pytest.mark.parametrize("m", [2, 3, 10**12])
    def test_the_classical_sum_rejects_several_components_by_the_evaluator_rule(self, m):
        message = "^classical majorant sum is defined for single-component slices$"
        with pytest.raises(PreconditionError, match=message) as info:
            find_witness(FunctionalSpec.classical(), 0.4, m=m)
        assert info.traceback[-1].name == "_evaluate"

    @pytest.mark.parametrize("spec", [FunctionalSpec.improved_squared(), FunctionalSpec.refined(1)], ids=repr)
    def test_a_huge_count_gives_the_one_component_witness(self, spec):
        # m rows of the family would take terabytes; the search evaluates one.
        r = closed_form_radius(spec) + 1e-3
        assert find_witness(spec, r, m=10**12) == find_witness(spec, r, m=1)


def sequential_witness(spec, r, m):
    """The search as a loop of one-slice evaluations of the m-component family, one per lam in grid order."""
    first = [SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA] if spec.kind == "improved_squared" else []
    for lam in [*first, *(1.0 - 0.5**j for j in range(1, 41))]:
        value = eval_functional(extremal_slice(spec, lam, m), spec, r)
        if value.lower > 1.0 + WITNESS_MARGIN:
            return lam, value.lower.hex()
    raise WitnessSearchError(f"no witness at r = {r}")


def _outcome(search, spec, r, m):
    """(lam, value_lower.hex()) of a search, or the type of the error it raised."""
    try:
        result = search(spec, r, m)
    except (WitnessSearchError, PreconditionError) as error:
        return type(error)
    return result if isinstance(result, tuple) else (result.lam, result.value_lower.hex())


class TestChunkedSearch:
    """find_witness evaluates its grid in chunks of 1, 2, 4, 8, 16 and the rest: each outcome is the sequential one."""

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("spec", [*WORKLOAD_WITNESS_SPECS, FunctionalSpec.classical()], ids=repr)
    def test_outcome_is_the_sequential_searchs(self, spec, delta, m):
        r = closed_form_radius(spec) + delta
        assert _outcome(find_witness, spec, r, m) == _outcome(sequential_witness, spec, r, m)

    @pytest.mark.parametrize("m", [1, 3])
    def test_the_squared_kind_exhausts_its_grid_at_095_as_the_sequential_search_does(self, m):
        spec = FunctionalSpec.improved_squared()
        assert _outcome(find_witness, spec, 0.95, m) == _outcome(sequential_witness, spec, 0.95, m) == WitnessSearchError

    @pytest.mark.parametrize(
        ("spec", "r", "sizes"),
        [
            (FunctionalSpec.composed(4), closed_form_radius(FunctionalSpec.composed(4)) + 1e-9, [1, 2, 4, 8, 16, 9]),
            (FunctionalSpec.improved_squared(), 0.95, [1, 2, 4, 8, 16, 10]),
        ],
        ids=["composed_k4", "improved_squared"],
    )
    def test_an_exhausted_grid_takes_six_batch_calls_in_doubling_chunks(self, monkeypatch, spec, r, sizes):
        chunks = []

        def recording(batch, spec, r):
            chunks.append(batch.rows[:, 0].real.tolist())  # each slice's a0 is its lam
            return eval_functional_batch(batch, spec, r)

        monkeypatch.setattr(sharpness, "eval_functional_batch", recording)
        with pytest.raises(WitnessSearchError):
            find_witness(spec, r)
        first = [SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA] if spec.kind == "improved_squared" else []
        assert [len(chunk) for chunk in chunks] == sizes
        assert sum(chunks, []) == [*first, *(1.0 - 0.5**j for j in range(1, 41))]

    def test_the_first_lam_of_a_chunk_to_clear_the_margin_wins_in_grid_order(self):
        # At r = 1/5 + 1e-4 the refined p=1 search reaches its fourth chunk, j = 8 .. 15.  j = 8 and 9 stay below
        # the margin; j = 10 .. 15 all clear it, and a later one clears it by more than j = 10 does.
        spec = FunctionalSpec.refined(1)
        r = closed_form_radius(spec) + 1e-4
        lowers = [eval_functional(extremal_slice(spec, 1.0 - 0.5**j), spec, r).lower for j in range(8, 16)]
        clear = [lower > 1.0 + WITNESS_MARGIN for lower in lowers]
        assert clear == [False, False, True, True, True, True, True, True]
        assert max(lowers[3:]) > lowers[2]
        w = find_witness(spec, r)
        assert (w.lam, w.value_lower) == (1.0 - 0.5**10, lowers[2])


class TestCounterexamples:
    def test_squared_counterexample(self):
        spec = FunctionalSpec.improved_squared()
        rep = reproduce_counterexample(spec, 0.6, 1.0 - 1e-4, 0.7)
        assert rep.succeeded and rep.value_lower > 1.0
        assert rep.value_lower >= rep.analytic_bound - 1e-6
        assert rep.analytic_bound == pytest.approx(1.0 + 0.4096 * 0.49 * (1.0 + 0.36 * 0.49), abs=1e-12)

    def test_refined_counterexample(self):
        rep = reproduce_counterexample(FunctionalSpec.refined(1), 0.75, 1.0 - 1e-4, 0.5)
        assert rep.succeeded and rep.value_lower > 1.0
        assert rep.value_lower >= rep.analytic_bound - 1e-6

    def test_composed_counterexample(self):
        rep = reproduce_counterexample(FunctionalSpec.composed(1), 0.5, 1.0 - 1e-4, 0.5)
        assert rep.succeeded and rep.value_lower > 1.0
        assert rep.value_lower >= rep.analytic_bound - 1e-6

    def test_values_keep_their_bits(self):
        # Each counterexample slice is evaluated without the equimodularity check, bit for bit as before.
        cases = (
            (FunctionalSpec.improved_squared(), 0.6, 0.7, "0x1.3e603a43a25f7p+0", "0x1.3e603a4532f11p+0"),
            (FunctionalSpec.refined(1), 0.75, 0.5, "0x1.c88e7babab773p+0", "0x1.c88e7babab773p+0"),
            (FunctionalSpec.composed(1), 0.5, 0.5, "0x1.b997a9939db85p+0", "0x1.b997a9939db85p+0"),
        )
        for spec, a1, r, lower, upper in cases:
            rep = reproduce_counterexample(spec, a1, 0.9999, r)
            assert (rep.value_lower.hex(), rep.value_upper.hex()) == (lower, upper), spec.kind

    def test_enclosure_straddles_one_lower_upper(self):
        rep = reproduce_counterexample(FunctionalSpec.improved_squared(), 0.6, 1.0 - 1e-4, 0.7)
        assert rep.value_lower <= rep.value_upper

    def test_failure_flag_when_value_stays_below_one(self):
        # Tiny radius: the functional cannot exceed 1; report, don't raise.
        rep = reproduce_counterexample(FunctionalSpec.improved_squared(), 0.6, 0.7, 0.05)
        assert not rep.succeeded
        assert rep.value_lower <= 1.0

    def test_range_validation(self):
        with pytest.raises(DomainError):
            reproduce_counterexample(FunctionalSpec.improved_squared(), 0.5, 0.9, 0.5)  # a1 <= sqrt(1/3)
        with pytest.raises(DomainError):
            reproduce_counterexample(FunctionalSpec.refined(1), 0.7, 0.9, 0.5)  # a1 <= 1/sqrt(2)
        with pytest.raises(DomainError):
            reproduce_counterexample(FunctionalSpec.composed(1), 0.9, 0.8, 0.5)  # a1 >= a2
        with pytest.raises(DomainError):
            reproduce_counterexample(FunctionalSpec.classical(), 0.5, 0.9, 0.5)

    def test_analytic_bounds_exceed_one_in_limit(self):
        # The closed-form chains exceed 1 on their admissible ranges.
        assert counterexample_analytic_bound(FunctionalSpec.improved_squared(), 0.6, 1.0 - 1e-9, 0.7) > 1.0
        assert counterexample_analytic_bound(FunctionalSpec.refined(1), 0.75, 1.0 - 1e-9, 0.5) > 1.0
        assert counterexample_analytic_bound(FunctionalSpec.composed(1), 0.5, 1.0 - 1e-9, 0.5) > 1.0
