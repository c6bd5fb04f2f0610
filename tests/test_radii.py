"""Scalar margin functions, the factorization identity, and the radius solver."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybohr import (
    CLASSICAL_RADIUS,
    REFINED_RADIUS_P1,
    REFINED_RADIUS_P2,
    DomainError,
    FunctionalSpec,
    SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA,
    SQUARED_FUNCTIONAL_RADIUS,
    check_slack_factorization,
    closed_form_radius,
    composed_extremal_excess,
    composed_functional_bound,
    composed_radius_equation,
    refined_extremal_excess_p1,
    refined_extremal_excess_p2,
    refined_slack_p1,
    refined_slack_p2,
    slack_polynomial,
    slack_polynomial_factored,
    solve_radius,
    squared_functional_slack,
)


def composed_polynomial(k):
    """P_k(r) = 1 - 3r - r^k - r^(k+1): the radius equation's numerator, decreasing on r > 0."""
    return lambda r: 1 - 3 * r - r**k - r ** (k + 1)


def bisect_oracle(func, lo=0.0, hi=1.0, steps=200):
    """Plain bisection oracle for an increasing function with f(lo) < 0 < f(hi)."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if func(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestSquaredFunctionalSlack:
    def test_at_origin(self):
        assert squared_functional_slack(0.0, 0.0) == pytest.approx(-1.0)

    def test_nonpositive_on_grid_up_to_radius(self):
        xs = np.linspace(0.0, 0.999, 200)
        rs = np.linspace(0.0, SQUARED_FUNCTIONAL_RADIUS, 200)
        worst = max(squared_functional_slack(x, r) for x in xs for r in rs)
        assert worst <= 1e-12

    def test_zero_at_extremal_point(self):
        slack = squared_functional_slack(SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA, SQUARED_FUNCTIONAL_RADIUS)
        assert abs(slack) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            squared_functional_slack(1.0, 0.5)
        with pytest.raises(DomainError):
            squared_functional_slack(0.5, 1.0)


class TestSlackPolynomial:
    def test_value_at_zero_both_forms(self):
        assert slack_polynomial(0.0) == pytest.approx(-135.0, abs=1e-12)
        assert slack_polynomial_factored(0.0) == pytest.approx(-135.0, abs=1e-9)

    def test_double_root_at_extremal_parameter(self):
        q = SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA
        assert abs(slack_polynomial(q)) < 1e-9
        assert slack_polynomial_factored(q) == 0.0

    def test_vanishes_at_one(self):
        # 121 + 66 s - 121 - 132 s + 135 + 66 s - 135 = 0 exactly.
        assert abs(slack_polynomial(1.0)) < 1e-12
        assert slack_polynomial_factored(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_factorization_certificate(self):
        assert check_slack_factorization(50)
        assert check_slack_factorization(500)

    def test_forms_agree_densely(self):
        for x in np.linspace(0.0, 0.999, 101):
            assert slack_polynomial(x) == pytest.approx(slack_polynomial_factored(x), abs=1e-9)
            assert slack_polynomial_factored(x) <= 1e-12


class TestRefinedSlacks:
    def test_slack_p1_zero_at_limit_radius(self):
        # lim_{x->1} slack = 4r/(1-r) - 1 vanishes at r = 1/5.
        assert refined_slack_p1(1.0 - 1e-12, 0.2) == pytest.approx(0.0, abs=1e-10)

    def test_slack_p1_nonpositive_below_radius(self):
        for x in np.linspace(0.0, 0.999, 50):
            for r in np.linspace(0.0, 0.2, 25):
                assert refined_slack_p1(x, r) <= 1e-12

    def test_slack_p2_sign_change_at_third(self):
        assert refined_slack_p2(1.0 / 3.0) == pytest.approx(0.0, abs=1e-15)
        assert refined_slack_p2(0.3) < 0.0 < refined_slack_p2(0.35)

    def test_excess_p1_limit(self):
        # lambda -> 1 limit is (5r - 1)/(1 - r).
        for r in (0.1, 0.25, 0.5):
            limit = (5.0 * r - 1.0) / (1.0 - r)
            assert refined_extremal_excess_p1(1.0 - 1e-6, r) == pytest.approx(limit, abs=1e-4)

    def test_excess_p2_limit(self):
        for r in (0.1, 1.0 / 3.0, 0.5):
            limit = (3.0 * r - 1.0) / (1.0 - r)
            assert refined_extremal_excess_p2(1.0 - 1e-6, r) == pytest.approx(limit, abs=1e-4)


class TestComposedFunctions:
    def test_radius_equation_at_zero(self):
        for k in (1, 2, 3, 7):
            assert composed_radius_equation(0.0, k) == pytest.approx(1.0)

    def test_radius_equation_strictly_decreasing(self):
        for k in (1, 2, 3, 4):
            values = [composed_radius_equation(r, k) for r in np.linspace(0.0, 0.99, 60)]
            assert np.all(np.diff(values) < 0.0)

    def test_excess_limit_is_negated_radius_equation(self):
        for k in (1, 2, 3):
            for r in (0.1, 0.25, 0.3):
                assert composed_extremal_excess(1.0 - 1e-6, r, k) == pytest.approx(
                    -composed_radius_equation(r, k), abs=1e-4
                )

    def test_excess_agrees_with_raw_formula(self):
        # The implementation cancels the removable factor; check against the
        # uncancelled expression away from lambda = 1.
        for lam in (0.2, 0.5, 0.9):
            for r in (0.1, 0.3):
                for k in (1, 2):
                    raw = ((lam + r**k) / (1.0 + lam * r**k) - 1.0) / (1.0 - lam) + (1.0 + lam) * r / (1.0 - r)
                    assert composed_extremal_excess(lam, r, k) == pytest.approx(raw, abs=1e-12)

    def test_bound_function_spot_value(self):
        assert composed_functional_bound(0.0, 0.2, 3) == pytest.approx(0.2**3 + 0.2 / 0.8)

    def test_frozen_witness_value(self):
        assert composed_extremal_excess(0.95, 0.3, 1) == pytest.approx(0.29096720400222353, abs=1e-12)


CLOSED_FORMS = {
    "squared_functional_slack": squared_functional_slack,
    "refined_slack_p1": refined_slack_p1,
    "refined_slack_p2": lambda x, r: refined_slack_p2(r),
    "refined_extremal_excess_p1": refined_extremal_excess_p1,
    "refined_extremal_excess_p2": refined_extremal_excess_p2,
    "composed_functional_bound": lambda x, r: composed_functional_bound(x, r, 3),
    "composed_radius_equation": lambda x, r: composed_radius_equation(r, 3),
    "composed_extremal_excess": lambda x, r: composed_extremal_excess(x, r, 3),
}


@pytest.mark.parametrize("form", CLOSED_FORMS.values(), ids=CLOSED_FORMS)
def test_closed_form_is_exact_on_fractions(form):
    x, r = 0.3, 0.25
    exact = form(Fraction(x), Fraction(r))
    assert type(exact) is Fraction
    assert float(exact) == pytest.approx(form(x, r), rel=1e-14, abs=1e-15)


class TestSolver:
    def test_order_one_root_is_sqrt5_minus_2(self):
        result = solve_radius(k=1)
        assert result.radius == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-10)
        assert abs(result.residual) <= 1e-10
        assert result.bracket_hi - result.bracket_lo <= 1e-12

    def test_order_two_matches_cubic_oracle(self):
        # Algebraic reduction of the k=2 equation: r^3 + r^2 + 3r - 1 = 0.
        oracle = bisect_oracle(lambda r: r**3 + r**2 + 3.0 * r - 1.0)
        assert solve_radius(k=2).radius == pytest.approx(oracle, abs=1e-10)

    def test_radii_increase_toward_one_third(self):
        radii = [solve_radius(k=k).radius for k in range(1, 11)]
        assert np.all(np.diff(radii) > 0.0)
        assert all(r < 1.0 / 3.0 for r in radii)

    @pytest.mark.parametrize("k", [*range(1, 65), 1000])
    def test_bracket_is_the_adjacent_float_pair_around_the_root(self, k):
        result = solve_radius(k)
        poly = composed_polynomial(k)
        assert poly(Fraction(result.bracket_lo)) > 0 > poly(Fraction(result.bracket_hi))
        assert result.bracket_hi == math.nextafter(result.bracket_lo, 1.0)
        assert result.radius == result.bracket_lo == closed_form_radius(FunctionalSpec.composed(k))

    def test_huge_order_is_cheap(self):
        # Past the bit length of the bracket's fractions the exact sign needs no powers.
        start = time.perf_counter()
        result = solve_radius(10**9)
        assert time.perf_counter() - start < 0.1
        assert result.radius == 1.0 / 3.0

    @given(k=st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_residual_small_for_all_orders(self, k):
        result = solve_radius(k=k)
        assert abs(result.residual) <= 1e-10
        assert 0.0 < result.radius < 1.0 / 3.0


class TestClosedFormRadius:
    def test_all_kinds(self):
        assert closed_form_radius(FunctionalSpec.improved_squared()) == pytest.approx(
            0.6382847385042254, abs=1e-15
        )
        assert closed_form_radius(FunctionalSpec.refined(1)) == pytest.approx(0.2)
        assert closed_form_radius(FunctionalSpec.refined(2)) == pytest.approx(1.0 / 3.0)
        assert closed_form_radius(FunctionalSpec.composed(1)) == pytest.approx(
            0.2360679774997898, abs=1e-10
        )
        assert closed_form_radius(FunctionalSpec.classical()) == pytest.approx(1.0 / 3.0)

    def test_composed_radius_equals_fresh_solve(self):
        # Asked twice: the second answer comes from the memoized solve.
        for _ in range(2):
            for k in range(1, 65):
                assert closed_form_radius(FunctionalSpec.composed(k)) == solve_radius(k).radius

    def test_solve_radius_still_solves_each_call(self):
        assert solve_radius(3) is not solve_radius(3)

    @pytest.mark.parametrize(
        "radius, poly",
        [
            pytest.param(SQUARED_FUNCTIONAL_RADIUS, lambda r: 11 - 27 * r * r, id="improved_squared"),
            pytest.param(
                REFINED_RADIUS_P1,
                lambda r: 1 - 5 * r,
                id="refined_p1",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the float 0.2 lies one ulp (1.1e-17) above 1/5, and bench/workloads.py "
                    "pins EXPECTED_RADII['refined_p1'] == 0.2",
                ),
            ),
            pytest.param(REFINED_RADIUS_P2, lambda r: 1 - 3 * r, id="refined_p2"),
            pytest.param(CLASSICAL_RADIUS, lambda r: 1 - 3 * r, id="classical"),
        ],
    )
    def test_radius_is_the_float_just_below_its_exact_value(self, radius, poly):
        # poly decreases through zero at the exact radius.
        assert poly(Fraction(radius)) > 0 > poly(Fraction(math.nextafter(radius, 1.0)))
