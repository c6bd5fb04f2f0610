"""The power-table circle evaluation against an 80-digit oracle and a Horner reference.

``eval_series_many`` takes one matrix-vector product with a memoized power
table t^1 ... t^N; the cache tests check that the memo never changes a
value.  The functions below keep the former evaluation path as the
reference: a Horner loop per component, one ``tail_bound`` call per
component, and the functional formulas written out term by term.  Upper
bounds do not depend on circle sampling and must match it bit for bit;
lower bounds use the sampled values and may move by rounding only.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from polybohr import (
    FunctionalSpec,
    PolydiscSlice,
    closed_form_radius,
    eval_functional,
    eval_functional_batch,
    eval_series_many,
    tail_bound,
)
from polybohr.functionals import _assemble
from polybohr.errors import DomainError
from polybohr.series import CIRCLE_CACHE_SIZE, SYNTH_CHUNK, _power_table
from polybohr.slices import (
    coefficient_norms,
    phase_grid,
    random_slice_batch,
    schwarz_compose,
    slice_tail_bound,
    sup_modulus,
)

#: Lower bounds may differ from the Horner reference by this much: a few
#: hundred ulps of the O(1) sampled moduli, well above the measured 6.7e-16.
LOWER_TOL = 1e-14

RADII = (0.2, 1.0 / 3.0, math.sqrt(11.0 / 27.0), 0.95)

KINDS = (
    FunctionalSpec.improved_squared(),
    FunctionalSpec.refined(1),
    FunctionalSpec.refined(2),
    FunctionalSpec.composed(1),
    FunctionalSpec.composed(2),
    FunctionalSpec.composed(3),
)


def kind_id(spec):
    return f"{spec.kind}{spec.p or spec.k or ''}"


def horner_rows(a0, coeffs, ts):
    """Reference evaluator: Horner over the columns of ``coeffs`` (m, N), constant term last.

    Returns the (m, len(ts)) values a0[i] + sum_n coeffs[i, n - 1] t^n.
    """
    acc = np.zeros((coeffs.shape[0], ts.size), dtype=np.complex128)
    for c in coeffs.T[::-1]:
        acc = acc * ts + c[:, np.newaxis]
    return np.asarray(a0)[:, np.newaxis] + acc * ts


def reference_enclosures(slices, spec, r):
    """(lower, upper) of ``eval_functional`` for each slice, by the Horner reference path.

    The circle samples of all components come from one :func:`horner_rows`
    call; everything else is computed slice by slice, in the library's order
    of operations, so that upper bounds can be compared bit for bit.
    """
    comps = [c for s in slices for c in s.components]
    starts = np.cumsum([0] + [s.m for s in slices[:-1]])
    a0 = np.array([c.a0 for c in comps])
    coeffs = np.stack([c.coeffs for c in comps])
    # sup over |t| = r of |g(t^k)| is the sup of |g| over |s| = r^k.
    values = horner_rows(a0, coeffs, phase_grid(r**spec.k if spec.kind == "composed_k" else r))
    if spec.kind == "refined_p":
        values = values - a0[:, np.newaxis]
    sampled = np.maximum.reduceat(np.abs(values).max(axis=1), starts)
    rn = r ** np.arange(1, coeffs.shape[1] + 1)
    out = []
    for s, start, sup in zip(slices, starts, sampled):
        mods = np.abs(coeffs[start : start + s.m])
        x = max(abs(c.a0) for c in s.components)
        s1 = float(np.dot(mods.max(axis=0), rn))
        s2 = float(np.dot(mods.max(axis=0) ** 2, rn**2))
        t_lin, t_sq, t_mod = (
            max(tail_bound(c, r, kind).value for c in s.components) for kind in ("linear_sum", "square_sum", "modulus")
        )
        low = max(float(sup) - t_mod, 0.0)
        w = 1.0 / (1.0 + x) + r / (1.0 - r)
        if spec.kind == "classical":
            out.append((x + s1, (x + s1) + t_lin))
        elif spec.kind == "improved_squared":
            u_up = (x + r) / (1.0 + x * r)
            out.append((low * low + s2, (u_up * u_up + s2) + t_sq))
        elif spec.kind == "refined_p":
            d_up = max(float(np.dot(row, rn)) for row in mods)
            out.append((low + x**spec.p + s1 + w * s2, (d_up + x**spec.p + s1 + w * s2) + (2.0 * t_lin + w * t_sq)))
        else:
            rk = r**spec.k
            c_up = (x + rk) / (1.0 + x * rk)
            out.append((low + s1 + w * s2, (c_up + s1 + w * s2) + (t_lin + w * t_sq)))
    return out


class TestPowerTableAgainstOracle:
    @pytest.mark.parametrize("seed", [72, 669])
    def test_matches_80_digit_evaluation(self, corpus_slices, seed):
        rng = np.random.default_rng(seed)
        for comp in corpus_slices[seed].components:
            coeffs = [mpmath.mpc(c.real, c.imag) for c in np.r_[comp.a0, comp.coeffs][::-1]]
            for r in RADII:
                interior = r * np.sqrt(rng.uniform(0.0, 1.0, 8)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 8))
                ts = np.concatenate([phase_grid(r), interior])
                values = eval_series_many(comp, ts)
                with mpmath.workdps(80):
                    exact = [mpmath.polyval(coeffs, mpmath.mpc(t.real, t.imag)) for t in ts]
                    err = max(float(abs(mpmath.mpc(v.real, v.imag) - e)) for v, e in zip(values, exact))
                assert err <= 1e-14, (seed, r, err)

    def test_matches_horner_on_arrays_of_any_shape(self, corpus_series):
        ts = 0.9 * np.exp(2j * np.pi * np.arange(12) / 12).reshape(3, 4)
        for s in corpus_series[:50]:
            values = eval_series_many(s, ts)
            assert values.shape == ts.shape
            reference = horner_rows([s.a0], s.coeffs[np.newaxis, :], ts.ravel()).reshape(ts.shape)
            assert np.max(np.abs(values - reference)) <= 1e-14


class TestBatchInputs:
    """``eval_series_many`` and ``sup_modulus`` on a batch give each row and slice its own bits."""

    @pytest.fixture(scope="class")
    def batch(self):
        batch = random_slice_batch(range(SYNTH_CHUNK + 1))
        assert set(batch.counts.tolist()) == {1, 2, 3}
        return batch

    @pytest.mark.parametrize("r", RADII)
    def test_rows_match_their_components(self, batch, r):
        values = eval_series_many(batch, phase_grid(r))
        comps = [comp for s in batch.slices() for comp in s.components]
        assert values.shape == (len(comps), phase_grid(r).size)
        for row, comp in zip(values, comps):
            assert np.array_equal(row.view(np.uint64), eval_series_many(comp, phase_grid(r)).view(np.uint64))

    @pytest.mark.parametrize("r", RADII)
    def test_sup_per_slice_matches_each_slice(self, batch, r):
        sups = sup_modulus(batch, r)
        assert sups.shape == (len(batch),)
        for sup, s in zip(sups.tolist(), batch.slices()):
            assert sup == sup_modulus(s, r)

    def test_radius_on_the_circle_is_a_domain_error(self, batch):
        with pytest.raises(DomainError):
            sup_modulus(batch, 1.0)
        with pytest.raises(DomainError):
            eval_series_many(batch, phase_grid(1.0))


@pytest.fixture(scope="module")
def corpus_reference(corpus_slices):
    """The Horner reference of every corpus slice at the kind's radius, computed once per kind."""
    return functools.cache(lambda spec: reference_enclosures(corpus_slices, spec, closed_form_radius(spec)))


class TestEnclosuresAgainstHornerReference:
    @pytest.mark.parametrize("spec", KINDS, ids=kind_id)
    def test_corpus_slices(self, corpus_slices, corpus_reference, spec):
        r = closed_form_radius(spec)
        for seed, (s, (lower, upper)) in enumerate(zip(corpus_slices, corpus_reference(spec))):
            value = eval_functional(s, spec, r)
            assert value.upper == upper, seed
            assert abs(value.lower - lower) <= LOWER_TOL, seed

    @pytest.mark.parametrize("spec", KINDS, ids=kind_id)
    def test_corpus_batch(self, corpus_batch, corpus_reference, spec):
        values = eval_functional_batch(corpus_batch, spec, closed_form_radius(spec))
        assert len(values) == len(corpus_reference(spec))
        for seed, (value, (lower, upper)) in enumerate(zip(values, corpus_reference(spec))):
            assert value.upper == upper, seed
            assert abs(value.lower - lower) <= LOWER_TOL, seed

    def test_corpus_series_classical(self, corpus_series, corpus_series_batch):
        spec = FunctionalSpec.classical()
        slices = [PolydiscSlice.from_components([series]) for series in corpus_series]
        reference = reference_enclosures(slices, spec, 1.0 / 3.0)
        batch_values = eval_functional_batch(corpus_series_batch, spec, 1.0 / 3.0)
        assert len(batch_values) == len(reference)
        for seed, (s, batch_value, bounds) in enumerate(zip(slices, batch_values, reference)):
            value = eval_functional(s, spec, 1.0 / 3.0)
            assert (value.lower, value.upper) == bounds, seed
            assert (batch_value.lower, batch_value.upper) == bounds, seed


class TestComposedCircle:
    def test_even_k_lower_bound_rises_over_the_spread_coefficients(self, corpus_slices):
        # Sampling g(t^k) on |t| = r visits only 64/gcd(k, 64) points of
        # |s| = r^k; sampling g on |s| = r^k visits all 64, so the lower bound
        # can only rise, up to rounding.
        spec = FunctionalSpec.composed(2)
        r = closed_form_radius(spec)
        rises = 0
        for seed, s in enumerate(corpus_slices):
            norms = coefficient_norms(s)
            rn = r ** np.arange(1, s.truncation_order + 1)
            spread = _assemble(
                spec, r, norms.a_norm, float(np.dot(norms.q, rn)), float(np.dot(norms.q**2, rn**2)),
                slice_tail_bound(s, r, "linear_sum").value, slice_tail_bound(s, r, "square_sum").value,
                sup_modulus(schwarz_compose(s, spec.k), r), None,
            )
            lower = eval_functional(s, spec, r).lower
            assert lower >= spread.lower - 1e-15, seed
            rises += lower > spread.lower
        assert rises > 0


def clear_circle_caches():
    _power_table.cache_clear()
    phase_grid.cache_clear()


class TestCircleCache:
    def test_mutated_points_are_not_served_stale(self, corpus_series):
        s = corpus_series[0]
        ts = 0.6 * np.exp(2j * np.pi * np.arange(16) / 16)
        eval_series_many(s, ts)
        ts *= 0.5j  # same object, same shape, new content
        reference = horner_rows([s.a0], s.coeffs[np.newaxis, :], ts)[0]
        assert np.max(np.abs(eval_series_many(s, ts) - reference)) <= 1e-14

    def test_cache_stays_within_its_bound(self, corpus_series):
        s = corpus_series[0]
        for j in range(3 * CIRCLE_CACHE_SIZE):
            r = 0.1 + 0.01 * j
            eval_series_many(s, phase_grid(r))
        assert _power_table.cache_info().currsize <= CIRCLE_CACHE_SIZE
        assert phase_grid.cache_info().currsize <= CIRCLE_CACHE_SIZE

    def test_cached_arrays_are_read_only(self):
        grid = phase_grid(0.5)
        with pytest.raises(ValueError):
            grid[0] = 0.0
        with pytest.raises(ValueError):
            _power_table(grid.tobytes(), grid.shape, 4)[0, 0] = 0.0

    # Composed k = 1 and k = 3 take the squared and k = 2 paths, on other circles.
    @pytest.mark.parametrize("spec", [spec for spec in KINDS if spec.k in (None, 2)], ids=kind_id)
    def test_cold_and_warm_calls_agree_bitwise(self, corpus_slices, spec):
        r = closed_form_radius(spec)
        circle = r**spec.k if spec.kind == "composed_k" else r
        for seed, s in enumerate(corpus_slices):
            clear_circle_caches()
            cold_values = eval_series_many(s._batch, phase_grid(circle))
            assert np.array_equal(cold_values, eval_series_many(s._batch, phase_grid(circle))), seed
            clear_circle_caches()
            cold = eval_functional(s, spec, r)
            assert cold == eval_functional(s, spec, r), seed
