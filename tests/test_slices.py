"""Coefficient norms, circle sampling, composition, slice construction, and
the one-slice batch that a slice holds from the moment it is made."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polybohr.series as series
import polybohr.slices as slices
from polybohr import (
    CertificationError,
    DomainError,
    FunctionalSpec,
    PolydiscSlice,
    PreconditionError,
    TruncatedSeries,
    coefficient_norms,
    eval_functional,
    eval_series_many,
    mobius_series,
    random_equimodular_slice,
    random_slice_batch,
    reproduce_counterexample,
    schwarz_compose,
    schwarz_pick_bound,
    slice_tail_bound,
    sup_modulus,
    tail_bound,
)


def identity_slice(n_terms=16, m=1):
    return PolydiscSlice.from_components([mobius_series(0.0, "plus", n_terms)] * m)


class TestConstruction:
    def test_requires_shared_truncation_order(self):
        with pytest.raises(DomainError):
            PolydiscSlice.from_components([mobius_series(0.1, "plus", 4), mobius_series(0.1, "plus", 5)])

    def test_requires_nonempty(self):
        with pytest.raises(DomainError):
            PolydiscSlice.from_components([])

    def test_equimodular_flag_derived_alike_by_both_constructors(self):
        for moduli, flag in (((0.2, 0.8), False), ((0.8, 0.8), True)):
            comps = tuple(mobius_series(a, "plus", 4) for a in moduli)
            assert PolydiscSlice(components=comps).equimodular is flag
            assert PolydiscSlice.from_components(list(comps)).equimodular is flag

    def test_from_components_detects_equimodularity(self):
        same = PolydiscSlice.from_components(
            [mobius_series(0.4, "plus", 8), mobius_series(0.4, "minus", 8)]
        )
        assert same.equimodular
        mixed = PolydiscSlice.from_components(
            [mobius_series(0.4, "plus", 8), mobius_series(0.5, "plus", 8)]
        )
        assert not mixed.equimodular

    def test_certified_property(self):
        assert identity_slice().certified


class TestCoefficientNorms:
    def test_single_identity_component(self):
        norms = coefficient_norms(identity_slice(4))
        assert norms.a_norm == 0.0
        assert np.allclose(norms.q, [1.0, 0.0, 0.0, 0.0])

    def test_mirrored_mobius_pair(self):
        s = PolydiscSlice.from_components(
            [mobius_series(0.6, "plus", 10), mobius_series(0.6, "minus", 10)]
        )
        norms = coefficient_norms(s)
        n = np.arange(1, 11)
        assert norms.a_norm == pytest.approx(0.6)
        assert np.allclose(norms.q, (1.0 - 0.36) * 0.6 ** (n - 1), atol=1e-15)

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=50, deadline=None)
    def test_norms_bounded_for_equimodular_certified_slices(self, seed):
        s = random_equimodular_slice(seed, n_terms=24)
        norms = coefficient_norms(s)
        assert np.all(norms.q <= 1.0 - norms.a_norm**2 + 1e-12)

    def test_crossover_between_components(self):
        # Unequal moduli: the small-a component dominates early orders, the
        # large-a component dominates the tail.
        s = PolydiscSlice(
            components=(mobius_series(0.6, "plus", 40), mobius_series(0.95, "plus", 40)),
        )
        norms = coefficient_norms(s)
        assert norms.a_norm == pytest.approx(0.95)
        assert norms.q[0] == pytest.approx(1.0 - 0.36)  # component 1 dominates n=1
        # argmax switches once (1-a^2) a^(n-1) curves cross
        expected = np.maximum(
            0.64 * 0.6 ** np.arange(40), (1.0 - 0.95**2) * 0.95 ** np.arange(40)
        )
        assert np.allclose(norms.q, expected, atol=1e-15)
        assert norms.q[30] == pytest.approx((1.0 - 0.95**2) * 0.95**30)


def reductions(batch):
    return [getattr(batch, name) for name in ("rows", "coeff_moduli", "a_norm", "q", "tail_cap")]


@pytest.fixture
def reduced_batches(monkeypatch):
    """The batches that ``SliceBatch._take`` reduces while the test runs, in order."""
    taken, take = [], slices.SliceBatch._take

    def counting(batch, *args):
        take(batch, *args)
        taken.append(batch)

    monkeypatch.setattr(slices.SliceBatch, "_take", counting)
    return taken


class TestOneSliceBatch:
    """``PolydiscSlice._batch``: made with the slice, read by both evaluators."""

    def test_every_constructor_path_reduces_each_slice_once_when_it_is_made(self, reduced_batches, monkeypatch):
        made = PolydiscSlice(components=(mobius_series(0.6, "plus", 12), mobius_series(0.6, "minus", 12)))
        assert reduced_batches == [made._batch]
        drawn_rows = []

        def seeded_rows(*args, **kwargs):
            drawn_rows.append(series._seeded_rows(*args, **kwargs))
            return drawn_rows[-1]

        monkeypatch.setattr(slices, "_seeded_rows", seeded_rows)
        drawn = random_equimodular_slice(4, m=3)
        assert len(reduced_batches) == 2 and np.shares_memory(drawn._batch.rows, drawn_rows[0][0])  # no re-stack
        batch = random_slice_batch(range(6))
        cut = batch.slices()
        assert reduced_batches[2:] == [batch] and batch.rows is drawn_rows[1][0]
        assert drawn._batch.rows.shape == (3, 65) and [sl.m for sl in cut] == batch.counts.tolist()
        for sl in (made, drawn, *cut):
            assert isinstance(vars(sl)["_batch"], slices.SliceBatch)
        for sl in (made, drawn, cut[0]):
            for spec in (FunctionalSpec.improved_squared(), FunctionalSpec.refined(2), FunctionalSpec.composed(2)):
                eval_functional(sl, spec, 0.3)
            coefficient_norms(sl)
            sup_modulus(sl, 0.3)
            slice_tail_bound(sl, 0.3, "square_sum")
        assert len(reduced_batches) == 3

    def test_a_cut_slice_views_its_parent_s_arrays(self):
        batch = random_slice_batch(range(7))
        lo = 0
        for i, sl in enumerate(batch.slices()):
            own, hi = sl._batch, lo + sl.m
            assert len(own) == 1 and own.counts.tolist() == [sl.m] and own.starts.tolist() == [0]
            parts = [np.s_[lo:hi]] * 2 + [np.s_[i : i + 1]] * 3
            for got, parent, part in zip(reductions(own), reductions(batch), parts):
                assert np.shares_memory(got, parent) and not got.flags.writeable
                assert np.array_equal(got.view(np.uint64), parent[part].view(np.uint64))
            assert np.shares_memory(own.a0_moduli, batch.a0_moduli) and sl.equimodular
            lo = hi

    def test_non_equimodular_slices_construct_and_their_evaluation_still_checks(self):
        mixed = PolydiscSlice(components=(mobius_series(0.6, "plus", 12), mobius_series(0.9, "minus", 12)))
        assert not mixed.equimodular and mixed.certified and mixed._batch.a_norm.tolist() == [0.9]
        with pytest.raises(PreconditionError):
            eval_functional(mixed, FunctionalSpec.refined(1), 0.2)
        assert reproduce_counterexample(FunctionalSpec.composed(1), 0.5, 0.9999, 0.5).succeeded
        loose = PolydiscSlice.from_components([TruncatedSeries(a0=0.5, coeffs=np.full(8, 0.5))])
        assert loose.equimodular and not loose.certified
        with pytest.raises(CertificationError):
            eval_functional(loose, FunctionalSpec.classical(), 0.2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_the_seeded_batch_of_its_seed(self, m):
        for seed in range(50):
            own = random_equimodular_slice(seed, m=m)._batch
            seeded = random_slice_batch([seed], m=m)
            for name in ("rows", "coeff_moduli", "a_norm", "q", "tail_cap"):
                got, want = getattr(own, name), getattr(seeded, name)
                assert got.shape == want.shape and np.array_equal(
                    np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64)
                ), (seed, name)
            assert own.counts.tolist() == seeded.counts.tolist() == [m]

    def test_is_built_once_and_read_only(self):
        s = random_equimodular_slice(3, m=3)
        batch = s._batch
        assert s._batch is batch
        for name in ("rows", "counts", "coeffs", "coeff_moduli", "starts", "a_norm", "q", "tail_cap"):
            assert not getattr(batch, name).flags.writeable, name
        norms = coefficient_norms(s)
        assert not norms.q.flags.writeable and not norms.moduli.flags.writeable
        with pytest.raises(ValueError):
            norms.q[0] = 2.0

    def test_norms_of_uncertified_and_non_equimodular_slices(self):
        loose = TruncatedSeries(a0=0.5, coeffs=np.full(8, 0.9))  # |c_n| above 1 - |a0|^2
        s = PolydiscSlice.from_components([loose, mobius_series(0.9, "plus", 8)])
        assert not s.certified and not s.equimodular
        norms = coefficient_norms(s)
        assert norms.a_norm == 0.9
        assert np.array_equal(norms.q, np.maximum(0.9, np.abs(s.components[1].coeffs)))
        assert np.array_equal(norms.moduli[0], np.full(8, 0.9))
        with pytest.raises(CertificationError):
            slice_tail_bound(s, 0.5, "linear_sum")


class TestSupModulus:
    def test_identity_slice(self):
        assert sup_modulus(identity_slice(), 0.5) == pytest.approx(0.5)

    def test_mobius_attains_growth_bound(self):
        # Positive real axis is in the phase grid, where the plus family peaks.
        for lam in (0.3, 0.7):
            s = PolydiscSlice.from_components([mobius_series(lam, "plus", 64)])
            r = 0.5
            sampled = sup_modulus(s, r)
            bound = schwarz_pick_bound(lam, r)
            budget = tail_bound(s.components[0], r, "modulus").value
            assert sampled <= bound + budget + 1e-12
            assert sampled >= bound - budget - 1e-12

    def test_zero_radius_gives_a_norm(self):
        s = PolydiscSlice.from_components([mobius_series(0.45, "plus", 8)])
        assert sup_modulus(s, 0.0) == pytest.approx(0.45)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sup_modulus(identity_slice(), 1.0)

    def test_nondecreasing_in_radius_on_matching_grids(self):
        # Sampled sup inherits monotonicity when the phase grid is dense
        # enough relative to the polynomial degree (64 phases, degree 32).
        for seed in range(5):
            s = random_equimodular_slice(seed, n_terms=32)
            values = [sup_modulus(s, r) for r in np.linspace(0.05, 0.9, 12)]
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-9)


class TestSchwarzCompose:
    def test_order_one_is_identity(self):
        s = identity_slice(8)
        assert schwarz_compose(s, 1) is s

    def test_identity_series_squares(self):
        out = schwarz_compose(identity_slice(8), 2)
        coeffs = out.components[0].coeffs
        assert coeffs[1] == 1.0
        assert np.sum(np.abs(coeffs)) == 1.0

    def test_closed_form_evaluation(self):
        # g(t^2) for the plus family at t = 0.4: (0.5 + 0.16)/(1 + 0.08).
        s = PolydiscSlice.from_components([mobius_series(0.5, "plus", 64)])
        composed = schwarz_compose(s, 2)
        value = complex(eval_series_many(composed.components[0], 0.4))
        assert value == pytest.approx(0.611111111111111, abs=1e-12)

    def test_order_past_truncation_keeps_only_constant(self):
        s = PolydiscSlice.from_components([mobius_series(0.5, "plus", 8)])
        out = schwarz_compose(s, 9)
        assert np.max(np.abs(out.components[0].coeffs)) == 0.0
        assert out.components[0].a0 == pytest.approx(0.5)

    def test_certification_and_equimodularity_preserved(self):
        s = random_equimodular_slice(2, m=2, n_terms=16)
        out = schwarz_compose(s, 3)
        assert out.certified and out.equimodular

    def test_rejects_nonpositive_order(self):
        with pytest.raises(DomainError):
            schwarz_compose(identity_slice(), 0)

    @given(
        k=st.integers(min_value=1, max_value=70),
        seed=st.integers(min_value=0, max_value=10**6),
        r=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_sampling_g_on_radius_r_to_the_k(self, k, seed, r):
        # sup over |t| = r of |g(t^k)| is the sup of |g| over |s| = r^k.  On the
        # phase grid, t -> t^k permutes the points of |s| = r^k for odd k, and
        # visits 64/gcd(k, 64) of them for even k.  The terms c_j s^j with
        # k j > N that schwarz_compose drops weigh at most 2 r^(N+1) < 1e-19 here.
        s = random_equimodular_slice(seed, n_terms=64)
        direct = sup_modulus(s, r**k)
        composed = sup_modulus(schwarz_compose(s, k), r)
        if k % 2:
            assert abs(direct - composed) <= 1e-14
        else:
            assert direct >= composed - 1e-14

    @given(k=st.integers(min_value=1, max_value=6), seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_composed_growth_bound(self, k, seed):
        # max_i |g_i(t^k)| at |t| = r obeys the composed growth bound.
        s = random_equimodular_slice(seed, n_terms=32)
        r = 0.6
        composed = schwarz_compose(s, k)
        sampled = sup_modulus(composed, r)
        a = coefficient_norms(s).a_norm
        budget = slice_tail_bound(composed, r, "modulus").value
        assert sampled <= schwarz_pick_bound(a, r**k) + budget + 1e-10


class TestSliceTailBound:
    def test_worst_component_governs(self):
        s = PolydiscSlice(
            components=(mobius_series(0.2, "plus", 8), mobius_series(0.9, "plus", 8)),
        )
        b = slice_tail_bound(s, 0.5, "linear_sum")
        assert b.value == pytest.approx(tail_bound(s.components[0], 0.5, "linear_sum").value)

    @given(
        moduli=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
        r=st.floats(min_value=0.0, max_value=0.999),
        n_terms=st.integers(min_value=1, max_value=80),
        kind=st.sampled_from(["linear_sum", "square_sum", "modulus"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_max_of_component_budgets(self, moduli, r, n_terms, kind):
        # One tail_bound call on the component with the largest 1 - |a0|^2 is
        # exactly the largest per-component budget, equal moduli or not.
        # Quarter-turn phases keep |a0| = a exactly, so no modulus exceeds 1.
        comps = [
            TruncatedSeries(a0=a * 1j**j, coeffs=np.zeros(n_terms), schur_certified=True)
            for j, a in enumerate(moduli)
        ]
        s = PolydiscSlice.from_components(comps)
        assert slice_tail_bound(s, r, kind).value == max(tail_bound(c, r, kind).value for c in comps)

    def test_requires_every_component_certified(self):
        loose = TruncatedSeries(a0=0.9, coeffs=np.zeros(8))
        s = PolydiscSlice.from_components([loose, mobius_series(0.1, "plus", 8)])
        with pytest.raises(CertificationError):
            slice_tail_bound(s, 0.5, "linear_sum")


class TestRandomEquimodularSlice:
    def test_reproducible_and_certified(self):
        a = random_equimodular_slice(9)
        b = random_equimodular_slice(9)
        assert a.m == b.m
        assert all(
            np.array_equal(x.coeffs, y.coeffs) for x, y in zip(a.components, b.components)
        )
        assert a.certified and a.equimodular

    def test_component_count_control(self):
        assert random_equimodular_slice(0, m=3).m == 3

    def test_mixed_component_counts(self):
        counts = {random_equimodular_slice(seed).m for seed in range(30)}
        assert counts == {1, 2, 3}

    def test_initial_moduli_agree(self):
        s = random_equimodular_slice(4, m=3)
        moduli = [abs(c.a0) for c in s.components]
        assert max(moduli) - min(moduli) <= 1e-14
