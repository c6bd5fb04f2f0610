"""Series construction, Moebius expansions, Schur synthesis, tail bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybohr import (
    BoundKind,
    CertificationError,
    DomainError,
    TruncatedSeries,
    eval_series,
    eval_series_many,
    mobius_series,
    mobius_tail_exact,
    random_schur_series,
    schur_series_from_params,
    tail_bound,
)


def mobius_long_division(lam: float, sign: str, n_terms: int) -> np.ndarray:
    """Independent oracle: expand (lam +- t)/(1 +- lam t) by long division.

    Returns the full coefficient vector [a0, c_1, ..., c_N].
    """
    s = 1.0 if sign == "plus" else -1.0
    num = np.zeros(n_terms + 1)
    num[0], num[1] = lam, s
    den = np.zeros(n_terms + 1)
    den[0], den[1] = 1.0, s * lam
    out = np.zeros(n_terms + 1)
    rem = num.copy()
    for n in range(n_terms + 1):
        out[n] = rem[n]
        rem[n:] -= out[n] * den[: n_terms + 1 - n]
    return out


class TestMobiusSeries:
    def test_identity_map(self):
        s = mobius_series(0.0, "plus", 3)
        assert s.a0 == 0
        assert np.allclose(s.coeffs, [1.0, 0.0, 0.0])
        assert s.schur_certified

    def test_plus_expansion_matches_long_division(self):
        s = mobius_series(0.5, "plus", 3)
        assert np.allclose(s.coeffs, [0.75, -0.375, 0.1875], atol=1e-15)
        oracle = mobius_long_division(0.5, "plus", 3)
        assert np.allclose(np.r_[s.a0, s.coeffs], oracle, atol=1e-14)

    def test_minus_expansion_matches_long_division(self):
        s = mobius_series(0.5, "minus", 2)
        assert np.allclose(s.coeffs, [-0.75, -0.375], atol=1e-15)
        oracle = mobius_long_division(0.5, "minus", 2)
        assert np.allclose(np.r_[s.a0, s.coeffs], oracle, atol=1e-14)

    @given(
        lam=st.floats(min_value=0.0, max_value=0.99),
        sign=st.sampled_from(["plus", "minus"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_against_long_division_oracle(self, lam, sign):
        s = mobius_series(lam, sign, 16)
        oracle = mobius_long_division(lam, sign, 16)
        assert np.allclose(np.r_[s.a0, s.coeffs], oracle, atol=1e-12)

    def test_coefficient_bound_attained_at_first_order(self):
        for lam in (0.1, 0.5, 0.9):
            s = mobius_series(lam, "plus", 8)
            assert abs(s.coeffs[0]) == pytest.approx(1.0 - lam * lam, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mobius_series(1.0, "plus", 4)
        with pytest.raises(DomainError):
            mobius_series(-0.1, "plus", 4)
        with pytest.raises(DomainError):
            mobius_series(0.5, "plus", 0)
        with pytest.raises(DomainError):
            mobius_series(0.5, "times", 4)


class TestTruncatedSeries:
    def test_rejects_large_constant_term(self):
        with pytest.raises(DomainError):
            TruncatedSeries(a0=1.5, coeffs=np.zeros(4))

    def test_certified_construction_rejects_bound_violation(self):
        with pytest.raises(CertificationError):
            TruncatedSeries(a0=0.9, coeffs=np.array([0.5]), schur_certified=True)

    def test_uncertified_accepts_any_coefficients(self):
        s = TruncatedSeries(a0=0.9, coeffs=np.array([5.0]))
        assert not s.schur_certified

    def test_rejects_nan_constant_term(self):
        with pytest.raises(DomainError):
            TruncatedSeries(a0=complex(np.nan, 0.0), coeffs=np.zeros(4), schur_certified=True)

    def test_rejects_nan_coefficient(self):
        for certified in (True, False):
            with pytest.raises(DomainError):
                TruncatedSeries(a0=0.5, coeffs=[np.nan, 0.1], schur_certified=certified)

    def test_truncation_order(self):
        s = TruncatedSeries(a0=0.0, coeffs=np.zeros(7))
        assert s.truncation_order == 7

    def test_coeffs_immutable(self):
        s = mobius_series(0.3, "plus", 4)
        with pytest.raises(ValueError):
            s.coeffs[0] = 9.0


class TestSchurSynthesis:
    def test_all_zero_params_give_zero_function(self):
        s = schur_series_from_params([0.0] * 9, 8)
        assert s.a0 == 0
        assert np.max(np.abs(s.coeffs)) == 0.0

    def test_terminating_unimodular_param_reproduces_mobius(self):
        # (lam, 1) terminates the recursion at a disc automorphism.
        for lam in (0.25, 0.5, 0.8):
            a = schur_series_from_params([lam, 1.0], 16)
            b = mobius_series(lam, "plus", 16)
            assert a.a0 == pytest.approx(lam, abs=1e-15)
            assert np.allclose(a.coeffs, b.coeffs, atol=1e-13)

    def test_single_half_param_gives_constant(self):
        s = schur_series_from_params([0.5], 8)
        assert s.a0 == pytest.approx(0.5)
        assert np.max(np.abs(s.coeffs)) < 1e-15

    def test_constant_term_is_leading_param(self):
        s = schur_series_from_params([0.3 + 0.4j, 0.2, -0.7j], 8)
        assert s.a0 == pytest.approx(0.3 + 0.4j)

    def test_rejects_oversized_params(self):
        with pytest.raises(DomainError):
            schur_series_from_params([0.5, 1.2], 8)

    @given(st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_coefficient_bound_holds_for_any_params(self, params):
        s = schur_series_from_params(params, 16)
        cap = 1.0 - abs(s.a0) ** 2
        assert np.max(np.abs(s.coeffs)) <= cap + 1e-12

    @given(st.lists(st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_synthesized_function_stays_in_disc_on_samples(self, params):
        s = schur_series_from_params(params, 48)
        ts = 0.5 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 17))
        values = eval_series_many(s, ts)
        budget = tail_bound(s, 0.5, "modulus").value
        assert np.max(np.abs(values)) <= 1.0 + budget + 1e-10


class TestRandomSchurSeries:
    def test_reproducible(self):
        a = random_schur_series(7, 16)
        b = random_schur_series(7, 16)
        assert a.a0 == b.a0
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(random_schur_series(0, 16).coeffs, random_schur_series(1, 16).coeffs)

    def test_coefficient_bound_for_100_seeds(self):
        for seed in range(100):
            s = random_schur_series(seed, 32)
            assert s.schur_certified
            cap = 1.0 - abs(s.a0) ** 2
            assert np.max(np.abs(s.coeffs)) <= cap + 1e-12


class TestEvalSeries:
    def test_identity_at_half(self):
        assert eval_series(mobius_series(0.0, "plus", 4), 0.5) == pytest.approx(0.5)

    def test_mobius_closed_form_within_tail(self):
        s = mobius_series(0.5, "plus", 40)
        value = eval_series(s, 0.3)
        budget = tail_bound(s, 0.3, "modulus").value
        assert abs(value - 0.6956521739130436) <= budget + 1e-14

    def test_at_origin_returns_constant_term(self):
        s = random_schur_series(3, 16)
        assert eval_series(s, 0.0) == pytest.approx(s.a0)

    def test_domain_error_on_boundary(self):
        s = mobius_series(0.5, "plus", 4)
        with pytest.raises(DomainError):
            eval_series(s, 1.0)
        with pytest.raises(DomainError):
            eval_series_many(s, np.array([0.2, 1.0 + 0j]))

    def test_rejects_nan_point(self):
        s = mobius_series(0.5, "plus", 4)
        with pytest.raises(DomainError):
            eval_series(s, complex(np.nan, 0.0))
        with pytest.raises(DomainError):
            eval_series_many(s, np.array([0.2, np.nan, 0.1j]))
        with pytest.raises(DomainError):
            eval_series_many(s, np.array([0.2, complex(0.0, np.inf)]))

    def test_vectorized_matches_scalar(self):
        s = random_schur_series(11, 24)
        ts = np.array([0.1, 0.5j, -0.3 + 0.2j])
        assert np.allclose(eval_series_many(s, ts), [eval_series(s, t) for t in ts])


class TestTailBound:
    def test_geometric_closed_form(self):
        s = TruncatedSeries(a0=0.0, coeffs=np.zeros(40), schur_certified=True)
        b = tail_bound(s, 0.5, "linear_sum")
        assert b.kind is BoundKind.COEFFICIENT_GEOMETRIC
        assert b.value == pytest.approx(2.0**-40, rel=1e-12)

    def test_square_sum_closed_form(self):
        s = TruncatedSeries(a0=0.6, coeffs=np.zeros(10), schur_certified=True)
        b = tail_bound(s, 0.5, "square_sum")
        assert b.value == pytest.approx(0.64**2 * 0.5**22 / 0.75, rel=1e-12)

    def test_unimodular_constant_has_zero_tail(self):
        s = TruncatedSeries(a0=1.0, coeffs=np.zeros(8), schur_certified=True)
        for kind in ("linear_sum", "square_sum", "modulus"):
            assert tail_bound(s, 0.9, kind).value == 0.0

    def test_constant_term_rounded_above_one_has_zero_tail(self):
        # |a0| <= 1 + 1e-15 passes construction, but 1 - |a0|^2 rounds below zero.
        s = TruncatedSeries(a0=1.0 + 4e-16, coeffs=np.zeros(8), schur_certified=True)
        for kind in ("linear_sum", "square_sum", "modulus"):
            assert tail_bound(s, 0.3, kind).value == 0.0

    def test_zero_radius_has_zero_tail(self):
        s = random_schur_series(0, 8)
        assert tail_bound(s, 0.0, "linear_sum").value == 0.0

    def test_requires_certification(self):
        s = TruncatedSeries(a0=0.0, coeffs=np.ones(4))
        with pytest.raises(CertificationError):
            tail_bound(s, 0.5, "linear_sum")

    def test_domain_error_at_radius_one(self):
        s = mobius_series(0.5, "plus", 4)
        with pytest.raises(DomainError):
            tail_bound(s, 1.0, "linear_sum")

    def test_tail_dominates_true_mobius_tail(self):
        # Discarded Moebius coefficients summed exactly vs. the generic budget.
        lam, r, n = 0.7, 0.6, 12
        exact = mobius_tail_exact(lam, r, n).value
        s = mobius_series(lam, "plus", n)
        generic = tail_bound(s, r, "linear_sum").value
        assert 0.0 < exact <= generic

    def test_lemma_suite_bounds_on_random_series(self, corpus_series):
        # Coefficient bound, weighted square-sum bound, and combined bound
        # for the first 100 corpus entries on a radius sweep.
        for s in corpus_series[:100]:
            a = abs(s.a0)
            cap = 1.0 - a * a
            mods = np.abs(s.coeffs)
            assert np.max(mods) <= cap + 1e-12
            n = np.arange(1, s.truncation_order + 1)
            for r in np.arange(0.1, 0.95, 0.1):
                for p in (1, 2):
                    lhs = float(np.sum(mods**2 * r ** (p * n)))
                    rhs = r**p * cap**2 / (1.0 - a * a * r**p)
                    assert lhs <= rhs + 1e-10
                combined = float(np.sum(mods * r**n)) + (1.0 / (1.0 + a) + r / (1.0 - r)) * float(
                    np.sum(mods**2 * r ** (2 * n))
                )
                assert combined <= cap * r / (1.0 - r) + 1e-10


class TestMobiusAttainsBounds:
    def test_weighted_square_sum_equality(self):
        # The Moebius family attains the combined linear+weighted-square bound.
        lam, r, n_terms = 0.6, 0.4, 64
        s = mobius_series(lam, "plus", n_terms)
        mods = np.abs(s.coeffs)
        n = np.arange(1, n_terms + 1)
        combined = float(np.sum(mods * r**n)) + (1.0 / (1.0 + lam) + r / (1.0 - r)) * float(
            np.sum(mods**2 * r ** (2 * n))
        )
        assert combined == pytest.approx((1.0 - lam * lam) * r / (1.0 - r), abs=1e-12)

    def test_square_sum_equality(self):
        lam, r, n_terms = 0.5, 0.3, 64
        s = mobius_series(lam, "minus", n_terms)
        mods = np.abs(s.coeffs)
        for p in (1, 2):
            n = np.arange(1, n_terms + 1)
            lhs = float(np.sum(mods**2 * r ** (p * n)))
            rhs = r**p * (1.0 - lam * lam) ** 2 / (1.0 - lam * lam * r**p)
            assert lhs == pytest.approx(rhs, abs=1e-12)
