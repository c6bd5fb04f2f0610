"""Acceptance gate: nine numbered criteria, one class each, verbatim tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion part.

One sub-criterion is implemented exactly as stated and FAILS, deliberately.
Criterion 1's random-corpus check asserts that the squared functional stays
at most 1 + 1e-10 on *every* random certified equimodular slice with up to
three components.  That claim is false: slices whose components concentrate
their coefficient mass at different orders (minimal example: components t,
t^2, t^3, all certified, all with initial value 0) push the componentwise-max
coefficient sums past the single-component bound, and the functional
rigorously exceeds 1 at the nominal radius: the library's *lower* bounds,
which are sound regardless of evaluation method, exceed 1 on 22 corpus
slices.  The radii are correct for single-component slices and for families
whose components agree up to unimodular factors (in particular every
extremal family used by the sharpness witnesses); see README for the full
analysis.  The failure below is a finding about the stated criterion, not a
bug.

Criterion 3's p=2 random-corpus check passes.  The same slice (t, t^2, t^3)
violates the refined p=2 bound rigorously, but no corpus slice does; the
corpus failures it once reported were loose upper bounds of the modulus
term, not violations.
"""

import math

import numpy as np
import pytest

from polybohr import (
    FunctionalSpec,
    PolydiscSlice,
    SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA,
    SQUARED_FUNCTIONAL_RADIUS,
    check_slack_factorization,
    closed_form_radius,
    composed_extremal_excess,
    composed_radius_equation,
    eval_functional,
    eval_series_many,
    extremal_slice,
    find_witness,
    mobius_series,
    refined_extremal_excess_p1,
    refined_extremal_excess_p2,
    reproduce_counterexample,
    schwarz_pick_bound,
    slack_polynomial,
    slack_polynomial_factored,
    solve_radius,
    tail_bound,
)

from conftest import monomial_slice

R_SQUARED = SQUARED_FUNCTIONAL_RADIUS
TOL = 1e-10


def _report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def _corpus_failures(corpus, spec, r):
    bad = []
    for seed, s in enumerate(corpus):
        value = eval_functional(s, spec, r)
        if value.upper > 1.0 + TOL:
            bad.append((seed, s.m, value.upper, value.lower))
    return bad


class TestCriterion1SharpRadiusSquared:
    def test_closed_form_radius_value(self):
        radius = closed_form_radius(FunctionalSpec.improved_squared())
        assert radius == math.sqrt(11.0 / 27.0)
        assert f"{radius:.12f}".startswith("0.638284738504")
        _report("1a PASS: squared-functional radius = sqrt(11/27) = 0.638284738504...")

    def test_corpus_bound_at_radius(self, corpus_slices):
        bad = _corpus_failures(corpus_slices, FunctionalSpec.improved_squared(), R_SQUARED)
        genuine = [b for b in bad if b[3] > 1.0]
        if not bad:
            _report("1b PASS: upper <= 1 + 1e-10 on all 1000 random slices")
        assert not bad, (
            f"criterion as stated is unattainable: {len(bad)}/1000 random certified "
            f"equimodular slices exceed 1 + 1e-10 at r = sqrt(11/27); on {len(genuine)} "
            f"of them the rigorous lower bound itself exceeds 1, so the inequality is "
            f"genuinely violated (worst upper {max(b[2] for b in bad):.6f}). Minimal "
            f"crafted example: slice (t, t^2, t^3) has exact value 2r^2 + r^4 + r^6 = "
            f"{2 * R_SQUARED**2 + R_SQUARED**4 + R_SQUARED**6:.6f} > 1. The equimodular slice "
            f"(M_x(t), M_x(t^2)), M_x(t) = (x + t)/(1 + x t), x = 215/512, exceeds 1 already at "
            f"r = 77/128 < sqrt(11/27): exact value >= 1.002470 (TestCorpusBoundary::"
            f"test_two_moebius_components_violate_the_squared_bound_below_its_radius). The bound as "
            f"stated holds only when one component dominates all coefficient orders; "
            f"see README and tests/test_functionals.py::TestCorpusBoundary."
        )

    def test_witness_just_past_radius(self):
        w = find_witness(FunctionalSpec.improved_squared(), R_SQUARED + 1e-3)
        assert w.margin > 0.0
        _report(f"1c PASS: witness at r + 1e-3 with margin {w.margin:.3e}")


class TestCriterion2ExtremalEquality:
    def test_functional_value_is_one(self):
        s = extremal_slice(FunctionalSpec.improved_squared(), SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA, m=2)
        value = eval_functional(s, FunctionalSpec.improved_squared(), R_SQUARED)
        assert value.upper == pytest.approx(1.0, abs=1e-8)
        assert value.lower == pytest.approx(1.0, abs=1e-8)
        _report(f"2 PASS: extremal family attains 1 within 1e-8 (enclosure [{value.lower:.12f}, {value.upper:.12f}])")


class TestCriterion3SharpRadiiRefined:
    def test_corpus_bound_p1_at_one_fifth(self, corpus_slices):
        bad = _corpus_failures(corpus_slices, FunctionalSpec.refined(1), 0.2)
        assert not bad, f"refined p=1 failures at r=1/5: {bad[:5]}"
        _report("3a PASS: refined p=1 upper <= 1 + 1e-10 on all 1000 random slices at r = 1/5")

    def test_corpus_bound_p2_at_one_third(self, corpus_slices):
        bad = _corpus_failures(corpus_slices, FunctionalSpec.refined(2), 1.0 / 3.0)
        genuine = [b for b in bad if b[3] > 1.0]
        if not bad:
            _report("3b PASS: refined p=2 upper <= 1 + 1e-10 on all 1000 random slices at r = 1/3")
        assert not bad, (
            f"{len(bad)}/1000 random slices exceed 1 + 1e-10 for the refined p=2 functional "
            f"at r = 1/3 (worst upper {max(b[2] for b in bad):.6f}): {len(genuine)} genuine "
            f"(lower > 1), {len(bad) - len(genuine)} inconclusive (lower <= 1 < upper: a loose "
            f"enclosure, not a violation). (seed, m, upper, lower) of the first rows: {bad[:5]}. "
            f"A genuine row is possible for multi-component slices: (t, t^2, t^3) attains "
            f"{eval_functional(monomial_slice([1, 2, 3]), FunctionalSpec.refined(2), 1.0 / 3.0).lower:.6f} > 1 "
            f"rigorously; see README."
        )

    def test_witnesses_with_dyadic_parameters(self):
        for p, radius in ((1, 0.2), (2, 1.0 / 3.0)):
            w = find_witness(FunctionalSpec.refined(p), radius + 1e-3)
            assert w.margin > 0.0
            j = round(-math.log2(1.0 - w.lam))
            assert 1 <= j <= 40 and w.lam == 1.0 - 0.5**j
            _report(f"3c PASS: refined p={p} witness at r_p + 1e-3, lambda = 1 - 2^-{j}, margin {w.margin:.3e}")


class TestCriterion4ComposedRootEquation:
    def test_order_one_root(self):
        result = solve_radius(k=1)
        assert result.radius == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-10)
        _report(f"4a PASS: k=1 radius {result.radius:.12f} = sqrt(5) - 2 within 1e-10")

    def test_order_two_root_matches_cubic(self):
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid**3 + mid**2 + 3.0 * mid - 1.0 > 0.0:
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        assert solve_radius(k=2).radius == pytest.approx(oracle, abs=1e-10)
        _report(f"4b PASS: k=2 radius matches cubic-oracle root {oracle:.12f} within 1e-10")

    def test_radii_increase_and_stay_below_one_third(self):
        radii = [solve_radius(k=k).radius for k in range(1, 11)]
        assert np.all(np.diff(radii) > 0.0)
        assert all(r < 1.0 / 3.0 for r in radii)
        _report("4c PASS: r_k strictly increasing and below 1/3 for k <= 10")

    def test_corpus_bound_and_witness_for_first_orders(self, corpus_slices):
        for k in (1, 2, 3):
            r_k = solve_radius(k=k).radius
            bad = _corpus_failures(corpus_slices, FunctionalSpec.composed(k), r_k)
            assert not bad, f"composed k={k} failures at r_k: {bad[:5]}"
            w = find_witness(FunctionalSpec.composed(k), r_k + 1e-3)
            assert w.margin > 0.0
        _report("4d PASS: composed k=1,2,3 verified on all 1000 slices at r_k; witnesses at r_k + 1e-3")


class TestCriterion5FactorizationIdentity:
    def test_sextic_identity_at_fifty_points(self):
        assert check_slack_factorization(50, tol=1e-9)
        for j in range(50):
            x = j / 50.0
            assert slack_polynomial(x) == pytest.approx(slack_polynomial_factored(x), abs=1e-9)
            assert slack_polynomial_factored(x) <= 1e-12
        _report("5 PASS: degree-six identity agrees to 1e-9 at 50 points, factored form <= 0")


class TestCriterion6CoefficientBoundSuite:
    RADII = np.arange(0.1, 0.95, 0.1)

    def test_coefficient_and_sum_bounds(self, corpus_series):
        for s in corpus_series:
            a = abs(s.a0)
            cap = 1.0 - a * a
            mods = np.abs(s.coeffs)
            assert np.max(mods) <= cap + 1e-12
            n = np.arange(1, s.truncation_order + 1)
            for r in self.RADII:
                rn = r**n
                for p in (1, 2):
                    assert float(np.sum(mods**2 * r ** (p * n))) <= r**p * cap**2 / (1.0 - a * a * r**p) + TOL
                combined = float(np.sum(mods * rn)) + (1.0 / (1.0 + a) + r / (1.0 - r)) * float(
                    np.sum(mods**2 * rn**2)
                )
                assert combined <= cap * r / (1.0 - r) + TOL
        _report("6a PASS: coefficient, square-sum (p=1,2) and combined bounds on 1000 series, r = 0.1..0.9")

    def test_growth_bound_at_64_phases(self, corpus_series):
        theta = np.exp(2j * np.pi * np.arange(64) / 64.0)
        for s in corpus_series:
            a = abs(s.a0)
            for r in self.RADII:
                sampled = float(np.max(np.abs(eval_series_many(s, r * theta))))
                budget = tail_bound(s, float(r), "modulus").value
                assert sampled <= schwarz_pick_bound(a, float(r)) + budget + TOL
        _report("6b PASS: growth bound holds at 64 sampled phases on 1000 series")


class TestCriterion7Counterexamples:
    CASES = (
        (FunctionalSpec.improved_squared(), 0.6, 0.7),
        (FunctionalSpec.refined(1), 0.75, 0.5),
        (FunctionalSpec.composed(1), 0.5, 0.5),
    )

    def test_unequal_modulus_slices_break_the_bounds(self):
        for spec, a1, r in self.CASES:
            rep = reproduce_counterexample(spec, a1, 1.0 - 1e-4, r)
            assert rep.succeeded and rep.value_lower > 1.0
            assert rep.value_lower >= rep.analytic_bound - 1e-6
            _report(
                f"7 PASS: {spec.kind} counterexample (a1={a1}, a2=1-1e-4, r={r}) "
                f"value {rep.value_lower:.6f} > 1 (closed-form bound {rep.analytic_bound:.6f})"
            )


class TestCriterion8ClassicalBaseline:
    def test_closed_form_and_bound_at_one_third(self):
        for lam in np.linspace(0.0, 0.999, 41):
            s = PolydiscSlice.from_components([mobius_series(float(lam), "plus", 64)])
            value = eval_functional(s, FunctionalSpec.classical(), 1.0 / 3.0)
            expected = lam + (1.0 - lam * lam) / (3.0 - lam)
            assert value.truncated == pytest.approx(expected, abs=TOL)
            assert expected <= 1.0 + 1e-15
        _report("8a PASS: classical sum at r = 1/3 equals lam + (1-lam^2)/(3-lam) within 1e-10 and stays <= 1")

    def test_exceeds_one_past_radius(self):
        s = PolydiscSlice.from_components([mobius_series(1.0 - 1e-3, "plus", 64)])
        value = eval_functional(s, FunctionalSpec.classical(), 1.0 / 3.0 + 1e-2)
        assert value.lower > 1.0
        _report(f"8b PASS: classical sum exceeds 1 at r = 1/3 + 1e-2 for lam = 1 - 1e-3 (value {value.lower:.8f})")


class TestCriterion9LimitChecks:
    def test_extremal_excess_limits(self):
        lam = 1.0 - 1e-6
        for r in (0.1, 0.21, 0.3):
            assert refined_extremal_excess_p1(lam, r) == pytest.approx((5.0 * r - 1.0) / (1.0 - r), abs=1e-4)
        for r in (0.1, 0.3, 0.4):
            assert refined_extremal_excess_p2(lam, r) == pytest.approx((3.0 * r - 1.0) / (1.0 - r), abs=1e-4)
        for k in (1, 2, 3):
            for r in (0.1, 0.25, 0.3):
                assert composed_extremal_excess(lam, r, k) == pytest.approx(
                    -composed_radius_equation(r, k), abs=1e-4
                )
        _report("9 PASS: extremal-excess functions at lam = 1 - 1e-6 match their limits within 1e-4")
