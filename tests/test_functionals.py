"""Functional evaluation: closed-form oracles, enclosure discipline, corpora.

The corpus tests pin the true mathematical boundary of the inequalities:

* the refined p=1 check and the composed-k checks hold on the *full* random
  corpus at their radii (provably safe even when different components
  dominate different coefficient orders);
* the squared and refined p=2 checks hold on single-component slices and on
  rank-one families, but genuinely fail on slices like (t, t^2, t^3), whose
  componentwise-max coefficient sums escape the single-component bound; the
  library detects those with a rigorous lower bound above 1.  The equimodular
  slice (M_x(t), M_x(t^2)), x = 215/512, fails the squared check already at
  r = 77/128, below its radius, as an exact ``Fraction`` value shows.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybohr import (
    CertificationError,
    DomainError,
    FunctionalSpec,
    PolydiscSlice,
    PreconditionError,
    SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA,
    SQUARED_FUNCTIONAL_RADIUS,
    TruncatedSeries,
    closed_form_radius,
    eval_functional,
    extremal_slice,
    find_witness,
    mobius_series,
    random_equimodular_slice,
    solve_radius,
    verify_theorem,
)
from polybohr.functionals import FunctionalValue, _assemble, _evaluate, eval_functional_batch, verify_batch
from polybohr.slices import SliceBatch, random_slice_batch

from conftest import monomial_slice


def scalar_slice(lam, sign="plus", n_terms=64):
    return PolydiscSlice.from_components([mobius_series(lam, sign, n_terms)])


def refined_chain_value(lam: float, p: int, r: float) -> float:
    """Closed-form value of the refined functional on the reflected family."""
    return (1.0 - lam**2) * r / (1.0 - lam * r) + lam**p + (1.0 - lam**2) * r / (1.0 - r)


def composed_chain_value(lam: float, k: int, r: float) -> float:
    """Closed-form value of the composed functional on the plus family."""
    rk = r**k
    return (
        (lam + rk) / (1.0 + lam * rk)
        + (1.0 - lam**2) * r / (1.0 - lam * r)
        + (1.0 / (1.0 + lam) + r / (1.0 - r)) * (1.0 - lam**2) ** 2 * r**2 / (1.0 - lam**2 * r**2)
    )


def squared_chain_value(r: float) -> float:
    """Squared functional on the extremal family, from its sharpness algebra."""
    s33 = math.sqrt(33.0)
    return 64.0 * r**2 / (121.0 - 33.0 * r**2) + ((11.0 * r + s33) / (s33 * r + 11.0)) ** 2


class TestSpecValidation:
    def test_exponent_exactly_for_refined(self):
        with pytest.raises(DomainError):
            FunctionalSpec(kind="refined_p")
        with pytest.raises(DomainError):
            FunctionalSpec(kind="improved_squared", p=1)
        with pytest.raises(DomainError):
            FunctionalSpec(kind="refined_p", p=3)

    def test_order_exactly_for_composed(self):
        with pytest.raises(DomainError):
            FunctionalSpec(kind="composed_k")
        with pytest.raises(DomainError):
            FunctionalSpec(kind="classical", k=2)
        # Past the largest float, r**k would overflow converting k.
        with pytest.raises(DomainError):
            FunctionalSpec.composed(10**400)

    def test_integral_float_and_numpy_orders_act_as_ints(self):
        # 2.0 once broke the t -> t^k slicing; np.int64(2) made every field np.float64.
        s = random_equimodular_slice(5)
        for make, n in ((FunctionalSpec.composed, 2), (FunctionalSpec.refined, 2), (FunctionalSpec.refined, 1)):
            expected = dataclasses.astuple(eval_functional(s, make(n), 0.2))
            for alias in (float(n), np.int64(n)):
                spec = make(alias)
                assert spec == make(n) and type(spec.p or spec.k) is int
                fields = dataclasses.astuple(eval_functional(s, spec, 0.2))
                assert fields == expected
                assert all(type(f) is float for f in fields)
        assert find_witness(FunctionalSpec.composed(2.0), 0.3) == find_witness(FunctionalSpec.composed(2), 0.3)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            FunctionalSpec(kind="squared")


class TestClassical:
    def test_identity_slice_at_third(self):
        value = eval_functional(scalar_slice(0.0), FunctionalSpec.classical(), 1.0 / 3.0)
        assert value.lower == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_mobius_closed_form(self):
        for lam in (0.0, 0.3, 0.6, 0.9, 0.999):
            value = eval_functional(scalar_slice(lam), FunctionalSpec.classical(), 1.0 / 3.0)
            expected = lam + (1.0 - lam * lam) / (3.0 - lam)
            assert value.truncated == pytest.approx(expected, abs=1e-10)
            assert expected <= 1.0 + 1e-15

    def test_exceeds_one_past_radius(self):
        value = eval_functional(scalar_slice(1.0 - 1e-3), FunctionalSpec.classical(), 1.0 / 3.0 + 1e-2)
        assert value.lower > 1.0

    def test_requires_single_component(self):
        s = random_equimodular_slice(0, m=2)
        with pytest.raises(PreconditionError):
            eval_functional(s, FunctionalSpec.classical(), 0.2)


class TestSquaredFunctional:
    def test_identity_slice_half(self):
        value = eval_functional(scalar_slice(0.0), FunctionalSpec.improved_squared(), 0.5)
        assert value.truncated == pytest.approx(0.5, abs=1e-14)
        assert value.lower == pytest.approx(0.5, abs=1e-12)

    def test_extremal_family_matches_sharpness_algebra(self):
        lam = SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA
        s = PolydiscSlice.from_components([mobius_series(lam, "plus", 64)] * 2)
        for r in (0.3, 0.5, SQUARED_FUNCTIONAL_RADIUS, 0.7):
            value = eval_functional(s, FunctionalSpec.improved_squared(), r)
            expected = squared_chain_value(r)
            # two-sided enclosure of the exact value, tight to < 1e-8
            assert value.lower <= expected + 1e-12
            assert value.upper >= expected - 1e-12
            assert value.upper - value.lower < 1e-8
            assert value.upper == pytest.approx(expected, abs=1e-10)

    def test_equality_at_extremal_point(self):
        lam = SQUARED_FUNCTIONAL_EXTREMAL_LAMBDA
        value = eval_functional(scalar_slice(lam), FunctionalSpec.improved_squared(), SQUARED_FUNCTIONAL_RADIUS)
        assert value.upper == pytest.approx(1.0, abs=1e-8)
        assert value.lower == pytest.approx(1.0, abs=1e-8)

    def test_scalar_reduction_is_exact(self):
        # m = 1 evaluation equals the direct scalar computation.
        s = scalar_slice(0.4)
        r = 0.5
        value = eval_functional(s, FunctionalSpec.improved_squared(), r)
        comp = s.components[0]
        n = np.arange(1, comp.truncation_order + 1)
        direct = ((0.4 + r) / (1 + 0.4 * r)) ** 2 + float(np.sum(np.abs(comp.coeffs) ** 2 * r ** (2 * n)))
        assert value.truncated == direct


class TestRefinedFunctional:
    def test_frozen_chain_value(self):
        value = eval_functional(scalar_slice(0.9, "minus"), FunctionalSpec.refined(1), 0.2)
        assert value.lower == pytest.approx(0.9938414634146342, abs=1e-12)
        assert value.upper == pytest.approx(0.9938414634146342, abs=1e-10)

    @given(
        lam=st.floats(min_value=0.05, max_value=0.95),
        p=st.sampled_from([1, 2]),
        r=st.floats(min_value=0.05, max_value=0.6),
    )
    @settings(max_examples=60, deadline=None)
    def test_reflected_family_matches_chain(self, lam, p, r):
        value = eval_functional(scalar_slice(lam, "minus"), FunctionalSpec.refined(p), r)
        expected = refined_chain_value(lam, p, r)
        assert value.lower <= expected + 1e-10
        assert value.upper >= expected - 1e-10
        assert value.upper - value.lower <= 2.0 * value.tail + 1e-9


class TestComposedFunctional:
    @given(
        lam=st.floats(min_value=0.05, max_value=0.9),
        k=st.integers(min_value=1, max_value=4),
        r=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_plus_family_matches_chain(self, lam, k, r):
        value = eval_functional(scalar_slice(lam), FunctionalSpec.composed(k), r)
        expected = composed_chain_value(lam, k, r)
        assert value.lower <= expected + 1e-10
        assert value.upper >= expected - 1e-10


class TestEnclosureDiscipline:
    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_lower_at_most_upper_everywhere(self, seed):
        s = random_equimodular_slice(seed, n_terms=32)
        for spec in (
            FunctionalSpec.improved_squared(),
            FunctionalSpec.refined(1),
            FunctionalSpec.refined(2),
            FunctionalSpec.composed(2),
        ):
            value = eval_functional(s, spec, 0.4)
            assert value.tail >= 0.0
            assert value.lower <= value.upper
            assert value.upper == pytest.approx(value.truncated + value.tail)

    @pytest.mark.parametrize("field", ["truncated", "tail", "lower", "upper"])
    def test_a_non_finite_field_is_a_domain_error(self, field):
        valid = FunctionalValue(truncated=0.5, tail=0.0, lower=0.4, upper=0.5)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                dataclasses.replace(valid, **{field: bad})
        with pytest.raises(DomainError, match="tail must be nonnegative"):
            dataclasses.replace(valid, tail=-0.1)
        with pytest.raises(DomainError, match="lower bound exceeds upper bound"):
            dataclasses.replace(valid, lower=0.6)

    def test_upper_nondecreasing_in_radius(self):
        grid = np.linspace(0.0, 0.95, 50)
        slices = [scalar_slice(0.5), random_equimodular_slice(1, m=2), random_equimodular_slice(2, m=3)]
        specs = [
            FunctionalSpec.improved_squared(),
            FunctionalSpec.refined(1),
            FunctionalSpec.refined(2),
            FunctionalSpec.composed(2),
        ]
        for s in slices:
            for spec in specs:
                uppers = [eval_functional(s, spec, r).upper for r in grid]
                assert np.all(np.diff(uppers) >= -1e-14)

    def test_zero_slice_verifies_with_zero_lower_value(self):
        comp = TruncatedSeries(a0=0.0, coeffs=np.zeros(32), schur_certified=True)
        s = PolydiscSlice.from_components([comp, comp])
        for spec in (
            FunctionalSpec.improved_squared(),
            FunctionalSpec.refined(1),
            FunctionalSpec.refined(2),
            FunctionalSpec.composed(1),
        ):
            ok, value = verify_theorem(s, spec, 0.2)
            assert ok
            assert value.lower == 0.0

    def test_constant_term_rounded_above_one(self):
        comp = TruncatedSeries(a0=1.0 + 4e-16, coeffs=np.zeros(16), schur_certified=True)
        s = PolydiscSlice.from_components([comp])
        for spec in (
            FunctionalSpec.classical(),
            FunctionalSpec.improved_squared(),
            FunctionalSpec.refined(2),
            FunctionalSpec.composed(3),
        ):
            value = eval_functional(s, spec, 0.3)
            assert value.tail == 0.0
            assert value.upper == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_unimodular_initial_value(self):
        # |a0| = 1 forces all coefficients to zero; values collapse exactly.
        comp = TruncatedSeries(a0=1.0, coeffs=np.zeros(16), schur_certified=True)
        s = PolydiscSlice.from_components([comp, comp])
        for spec, expected in (
            (FunctionalSpec.improved_squared(), 1.0),
            (FunctionalSpec.refined(1), 1.0),
            (FunctionalSpec.refined(2), 1.0),
            (FunctionalSpec.composed(3), 1.0),
        ):
            value = eval_functional(s, spec, 0.8)
            assert value.upper == pytest.approx(expected, abs=1e-14)
            assert value.tail == 0.0


class TestPreconditions:
    def test_radius_domain(self):
        with pytest.raises(DomainError):
            eval_functional(scalar_slice(0.2), FunctionalSpec.classical(), 1.0)

    def test_equimodular_required_for_theorem_kinds(self):
        s = PolydiscSlice(
            components=(mobius_series(0.2, "plus", 16), mobius_series(0.8, "plus", 16)),
        )
        spec = FunctionalSpec.improved_squared()
        for evaluate in (eval_functional, eval_functional_batch, verify_batch):
            with pytest.raises(PreconditionError, match="not equimodular"):
                evaluate(s, spec, 0.3)
        # the counterexample driver's path: the evaluator's unchecked body
        [value] = _evaluate(s, spec, 0.3)
        assert value.upper > 0.0

    def test_certification_required(self):
        comp = TruncatedSeries(a0=0.0, coeffs=0.5 * np.ones(8))
        s = PolydiscSlice.from_components([comp])
        for evaluate in (eval_functional, eval_functional_batch, verify_batch):
            with pytest.raises(CertificationError):
                evaluate(s, FunctionalSpec.improved_squared(), 0.3)

    def test_verify_rejects_radius_above_sharp(self):
        with pytest.raises(PreconditionError):
            verify_theorem(scalar_slice(0.2), FunctionalSpec.refined(1), 0.25)


#: Seeds of the 1000-seed corpora with a row whose |a0| squares to different floats by libm ``pow`` and by one
#: product: keyword arguments of ``random_slice_batch``, then the seeds.
POW_SQUARE_SEEDS = {"mixed": ({}, [150, 664]), "m3": ({"m": 3}, [728, 764]), "scalar": ({"scalar": True}, [728, 764])}


class TestRoundedSquares:
    """Every square of a modulus is one product, the correctly rounded square that ``x**2`` (libm ``pow``) is not
    always: the tail caps 1 - |a0|^2 and the refined p = 2 constant a_norm^2."""

    @pytest.mark.parametrize("corpus", POW_SQUARE_SEEDS)
    def test_caps_and_the_refined_constant_square_by_one_product(self, corpus):
        kwargs, seeds = POW_SQUARE_SEEDS[corpus]
        batch = random_slice_batch(range(1000), **kwargs)
        rows = [i for i, x in enumerate(batch.a0_moduli.tolist()) if x**2 != x * x]
        owners = (np.searchsorted(batch.starts, rows, side="right") - 1).tolist()
        assert sorted(set(owners)) == seeds
        for row, seed in zip(rows, owners):
            x = float(batch.a0_moduli[row])
            assert batch.tail_cap[seed] == max(1.0 - x * x, 0.0) != 1.0 - x**2, seed
        # With every other input 0.0, a refined p = 2 value's truncated field is its constant, exactly.
        norms, spec = batch.a_norm, FunctionalSpec.refined(2)
        zeros = np.zeros_like(norms)
        columns = _assemble(spec, 0.5, norms, *[zeros] * 6)
        floats = [_assemble(spec, 0.5, x, *[0.0] * 6) for x in norms.tolist()]
        exact = [float(Fraction(x) ** 2) for x in norms.tolist()]
        assert [v.truncated for v in columns] == [v.truncated for v in floats] == exact


class TestVerdict:
    def test_upper_one_ulp_above_one_is_inconclusive_not_a_pass(self):
        # The composed extremal slice at its solved radius encloses 1 with an
        # upper end one ulp above it: no slack turns that into a pass.
        spec = FunctionalSpec.composed(1)
        s = extremal_slice(spec, 1.0 - 2.0**-32)
        r = closed_form_radius(spec)
        ok, value = verify_theorem(s, spec, r)
        assert not ok
        assert value.lower <= 1.0 < value.upper
        batch = SliceBatch(rows=[[c.a0, *c.coeffs] for c in s.components], counts=[s.m])
        [(batch_ok, batch_value)] = verify_batch(batch, spec, r)
        assert not batch_ok
        assert (batch_value.lower, batch_value.upper) == (value.lower, value.upper)


class TestCorpusBoundary:
    """Where the inequalities truly hold, and where they truly fail."""

    def test_refined_p1_holds_on_full_corpus(self, corpus_slices):
        spec = FunctionalSpec.refined(1)
        for s in corpus_slices:
            ok, value = verify_theorem(s, spec, 0.2)
            assert ok, f"refined p=1 upper {value.upper} > 1"

    def test_composed_holds_on_full_corpus(self, corpus_slices):
        for k in (1, 2, 3):
            spec = FunctionalSpec.composed(k)
            r_k = solve_radius(k=k).radius
            for s in corpus_slices:
                ok, value = verify_theorem(s, spec, r_k)
                assert ok, f"composed k={k} upper {value.upper} > 1"

    def test_squared_holds_on_single_component_corpus(self, corpus_slices):
        spec = FunctionalSpec.improved_squared()
        singles = [s for s in corpus_slices if s.m == 1]
        assert len(singles) > 200
        for s in singles:
            ok, value = verify_theorem(s, spec, SQUARED_FUNCTIONAL_RADIUS)
            assert ok, f"squared upper {value.upper} > 1 on m=1 slice"

    def test_refined_p2_holds_on_single_component_corpus(self, corpus_slices):
        spec = FunctionalSpec.refined(2)
        for s in corpus_slices:
            if s.m == 1:
                ok, value = verify_theorem(s, spec, 1.0 / 3.0)
                assert ok, f"refined p=2 upper {value.upper} > 1 on m=1 slice"

    def test_squared_holds_on_rank_one_families(self):
        # Components equal up to unimodular factors reduce to the scalar case.
        spec = FunctionalSpec.improved_squared()
        for lam in np.linspace(0.01, 0.99, 25):
            g = mobius_series(lam, "plus", 64)
            s = PolydiscSlice.from_components([g, g, g])
            ok, _ = verify_theorem(s, spec, SQUARED_FUNCTIONAL_RADIUS)
            assert ok

    def test_monomial_slice_genuinely_violates_squared_bound(self):
        # (t, t^2, t^3) at the nominal radius: exact value 2r^2 + r^4 + r^6.
        s = monomial_slice([1, 2, 3])
        r = SQUARED_FUNCTIONAL_RADIUS
        value = eval_functional(s, FunctionalSpec.improved_squared(), r)
        exact = 2.0 * r**2 + r**4 + r**6
        assert exact == pytest.approx(1.0484174160443027, abs=1e-12)
        assert value.lower > 1.0  # rigorous violation, not bound slack
        assert value.lower == pytest.approx(exact, abs=1e-9)
        ok, _ = verify_theorem(s, FunctionalSpec.improved_squared(), r)
        assert not ok

    def test_two_moebius_components_violate_the_squared_bound_below_its_radius(self):
        # The equimodular slice (M_x(t), M_x(t^2)), M_x(t) = (x + t)/(1 + x t), x = 215/512: M_x has
        # |c_n| = M x^(n-1) with M = 1 - x^2, so Q_n is M x^(n-1) at odd n and M x^(n/2-1) at even n (the second
        # component's).  At r = 77/128 < sqrt(11/27) the squared value is SP^2 + M^2 r^2/(1 - x^4 r^4)
        # + M^2 r^4/(1 - x^2 r^4), SP = (x + r)/(1 + x r) the first component's sup, taken at t = r.
        x, r = Fraction(215, 512), Fraction(77, 128)
        big_m = 1 - x * x
        sp = (x + r) / (1 + x * r)
        exact = sp**2 + big_m**2 * r**2 / (1 - x**4 * r**4) + big_m**2 * r**4 / (1 - x**2 * r**4)
        assert r * r < Fraction(11, 27)
        assert exact > 1 and round(float(exact), 6) == 1.002470
        g = mobius_series(float(x), "plus", 64)
        spread = np.zeros(64, dtype=np.complex128)
        spread[1::2] = g.coeffs[:32]  # M_x(t^2): coefficient n of M_x at order 2n
        s = PolydiscSlice.from_components([g, TruncatedSeries(g.a0, spread, schur_certified=True)])
        value = eval_functional(s, FunctionalSpec.improved_squared(), float(r))
        assert value.lower > 1.0  # a rigorous violation below the paper's radius
        assert value.lower == pytest.approx(float(exact), abs=1e-12)
        assert not verify_theorem(s, FunctionalSpec.improved_squared(), float(r))[0]

    def test_monomial_slice_genuinely_violates_refined_p2_bound(self):
        s = monomial_slice([1, 2, 3])
        value = eval_functional(s, FunctionalSpec.refined(2), 1.0 / 3.0)
        assert value.lower > 1.0
        assert value.lower == pytest.approx(1.0020576131687244, abs=1e-9)

    def test_refined_p2_enclosure_of_monomial_slice_is_exact(self):
        # The modulus term is bounded per component: max_i sum |c_n^(i)| r^n = r,
        # where sum Q_n r^n = r + r^2 + r^3 would overcount it.
        s = monomial_slice([1, 2, 3])
        value = eval_functional(s, FunctionalSpec.refined(2), 1.0 / 3.0)
        assert value.upper == pytest.approx(1.0020576131687244, abs=1e-9)

    def test_two_component_monomials_stay_within_squared_bound(self):
        # (t, t^2) peaks below 1 at the nominal radius: 2r^2 + r^4 < 1.
        s = monomial_slice([1, 2])
        value = eval_functional(s, FunctionalSpec.improved_squared(), SQUARED_FUNCTIONAL_RADIUS)
        assert value.upper <= 1.0 + 1e-10
