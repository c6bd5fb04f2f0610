"""Extremal slices, witness search, and unequal-modulus counterexamples."""

import math

import numpy as np
import pytest

from polybohr import (
    DomainError,
    FunctionalSpec,
    PreconditionError,
    SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA,
    SQUARED_FUNCTIONAL_RADIUS,
    closed_form_radius,
    coefficient_norms,
    counterexample_analytic_bound,
    eval_functional,
    extremal_slice,
    find_witness,
    reproduce_counterexample,
    witness_lambda_grid,
)
from polybohr.sharpness import DEFAULT_LAMBDA_GRID

ALL_THEOREM_SPECS = [
    FunctionalSpec.improved_squared(),
    FunctionalSpec.refined(1),
    FunctionalSpec.refined(2),
    FunctionalSpec.composed(1),
    FunctionalSpec.composed(2),
    FunctionalSpec.composed(3),
]


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


class TestWitnessGrid:
    def test_squared_grid_leads_with_extremal_parameter(self):
        grid = witness_lambda_grid(FunctionalSpec.improved_squared())
        assert grid[0] == SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA
        assert grid[1:6] == [0.5, 0.75, 0.875, 0.9375, 0.96875]
        assert grid[1:] == witness_lambda_grid(FunctionalSpec.refined(1))

    def test_dyadic_grid_for_other_kinds(self):
        grid = witness_lambda_grid(FunctionalSpec.refined(1))
        assert grid[:4] == [0.5, 0.75, 0.875, 0.9375]
        assert grid == [1.0 - 0.5**j for j in range(1, DEFAULT_LAMBDA_GRID + 1)]


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
                value = eval_functional(s, spec, radius, phases=4)
                assert value.lower <= 1.0 + 1e-10

    def test_requires_radius_beyond_sharp(self):
        with pytest.raises(PreconditionError):
            find_witness(FunctionalSpec.refined(1), 0.19)

    def test_frozen_example_values(self):
        # Spot values of the functional on the extremal family past the radius.
        v1 = eval_functional(extremal_slice(FunctionalSpec.refined(2), 0.9), FunctionalSpec.refined(2), 0.4)
        assert v1.lower == pytest.approx(1.0554166666666667, abs=1e-10)
        v2 = eval_functional(extremal_slice(FunctionalSpec.composed(1), 0.95), FunctionalSpec.composed(1), 0.3)
        assert v2.lower == pytest.approx(1.0145483602001113, abs=1e-10)


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
