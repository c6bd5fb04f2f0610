"""High-precision reference for Schur-parameter synthesis (traced run only).

:func:`max_coefficient_error` re-runs the Schur continued fraction behind
``schur_series_from_params`` in mpmath at :data:`DIGITS` significant digits
and reports the worst absolute coefficient error of the double-precision
result over a sample of corpus components.  The sample is the corpus slice
669, whose first component is the known worst case, plus slices chosen from
the benchmark seed's corpus.
"""

from __future__ import annotations

import numpy as np

DIGITS = 60
ANCHOR_SLICE = 669
SAMPLED_SLICES = 5


def corpus_params(slice_seed: int, n_terms: int) -> list[np.ndarray]:
    """Schur parameters of each component, drawn as random_equimodular_slice draws them."""
    rng = np.random.default_rng(slice_seed)
    m = int(rng.integers(1, 4))
    rho = np.sqrt(rng.uniform(0.0, 1.0))
    out = []
    for _ in range(m):
        radius = np.sqrt(rng.uniform(0.0, 1.0, size=n_terms + 1))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n_terms + 1)
        params = radius * np.exp(1j * angle)
        params[0] = rho * np.exp(1j * angle[0])
        out.append(params)
    return out


def schur_coefficients_mp(params: np.ndarray, n_terms: int) -> list:
    """a0, c_1 .. c_N of the Schur function with these parameters, in mpmath.

    The same numerator/denominator recursion and truncated quotient as the
    library, carried out at DIGITS digits.
    """
    import mpmath

    with mpmath.workdps(DIGITS):
        zero = mpmath.mpc(0)
        width = n_terms + 1
        p = [zero] * width
        q = [mpmath.mpc(1)] + [zero] * n_terms
        for g in params[::-1]:
            g = mpmath.mpc(g.real, g.imag)
            gc = mpmath.conj(g)
            tp = [zero] + p[:-1]
            p, q = [g * a + b for a, b in zip(q, tp)], [a + gc * b for a, b in zip(q, tp)]
        out = []
        for n in range(width):
            acc = p[n]
            for j in range(1, n + 1):
                acc -= q[j] * out[n - j]
            out.append(acc)
        return out


def sample_slices(seed: int, corpus_size: int) -> list[int]:
    rng = np.random.default_rng(seed)
    picks = rng.choice(corpus_size, size=SAMPLED_SLICES, replace=False)
    return [ANCHOR_SLICE] + [seed * corpus_size + int(i) for i in picks]


def max_coefficient_error(synthesize, seed: int, corpus_size: int = 1000, n_terms: int = 64) -> float:
    """Worst |double - reference| over the sampled components' coefficients."""
    import mpmath

    worst = 0.0
    for slice_seed in sample_slices(seed, corpus_size):
        for params in corpus_params(slice_seed, n_terms):
            series = synthesize(params, n_terms)
            got = [series.a0, *series.coeffs]
            ref = schur_coefficients_mp(params, n_terms)
            with mpmath.workdps(DIGITS):
                err = max(abs(mpmath.mpc(g.real, g.imag) - r) for g, r in zip(got, ref))
            worst = max(worst, float(err))
    return worst
