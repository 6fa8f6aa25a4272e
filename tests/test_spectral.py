"""Exact spectral computations: frozen oracles and structural properties."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from ginibrenet.spectral import (DiskRestriction, count_distribution,
                                 eigenvalues, log_count_tail,
                                 log_disk_eigenvalue, pair_correlation)


def pmf_sum_eigenvalue(m, radius_sq, terms=400):
    """Independent oracle: kappa_m = sum_{k > m} e^(-r^2) r^(2k) / k!."""
    ks = np.arange(m + 1, m + 1 + terms)
    logs = -radius_sq + ks * math.log(radius_sq) - [math.lgamma(k + 1) for k in ks]
    return float(np.sum(np.exp(logs)))


class TestEigenvalues:
    def test_frozen_values_radius_one(self):
        # kappa_0 = 1 - e^-1, kappa_1 = 1 - 2 e^-1
        vals = eigenvalues(DiskRestriction(radius=1.0))
        assert vals[0] == pytest.approx(0.6321205588285577, abs=1e-15)
        assert vals[1] == pytest.approx(0.26424111765711533, abs=1e-15)

    def test_matches_pmf_summation_oracle(self):
        # kappa_15 at r = 0.5 is about 1e-23: below the default cut
        for r in (0.5, 1.0, 2.0):
            vals = eigenvalues(DiskRestriction(radius=r), tol=1e-300)
            for m in (0, 1, 3, 7, 15):
                assert vals[m] == pytest.approx(pmf_sum_eigenvalue(m, r * r), rel=1e-12)

    def test_thinned_leading_eigenvalue(self):
        # beta kappa_0(r / sqrt(beta)) = 0.5 (1 - e^-2) at beta=0.5, r=1
        vals = eigenvalues(DiskRestriction(radius=1.0, beta=0.5))
        assert vals[0] == pytest.approx(0.43233235838169365, abs=1e-15)

    def test_trace_identity(self):
        for r in (0.5, 1.0, 2.0, 5.0):
            assert np.sum(eigenvalues(DiskRestriction(radius=r), tol=1e-18)) == \
                pytest.approx(r * r, abs=1e-9)

    def test_palm_trace(self):
        # dropping the constant eigenfunction leaves r^2 - kappa_0 = e^-1 at r=1
        vals = eigenvalues(DiskRestriction(radius=1.0, palm_shift=True), tol=1e-18)
        assert np.sum(vals) == pytest.approx(0.36787944117144233, abs=1e-12)

    @given(r=st.floats(0.3, 6.0), beta=st.floats(0.1, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_sequence_decreasing_in_unit_interval(self, r, beta):
        vals = eigenvalues(DiskRestriction(radius=r, beta=beta))
        assert np.all(vals > 0) and np.all(vals <= beta)
        assert np.all(np.diff(vals) <= 0)
        # strict decrease wherever double precision can resolve the gap
        # (large windows saturate the leading eigenvalues at exactly beta)
        resolvable = vals < beta * (1.0 - 1e-9)
        sub = vals[resolvable]
        assert np.all(np.diff(sub) < 0)

    @given(m=st.integers(0, 600), log_rsq=st.floats(-3.0, 8.0))
    @example(m=19, log_rsq=0.0)
    @example(m=200, log_rsq=0.0)  # deep tail, log P ~ -870
    @example(m=595, log_rsq=math.log(36.0))
    @settings(max_examples=200, deadline=None)
    def test_log_eigenvalue_matches_scipy_poisson(self, m, log_rsq):
        # the same float as scipy.stats.poisson, radius^2 up to ~3000
        rsq = math.exp(log_rsq)
        sf = stats.poisson.sf(m, rsq)
        if sf > 1e-290:
            assert log_disk_eigenvalue(m, rsq) == math.log(sf)
        else:
            ks = m + 1 + np.arange(200)
            assert log_disk_eigenvalue(m, rsq) == float(
                special.logsumexp(stats.poisson.logpmf(ks, rsq)))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            DiskRestriction(radius=-1.0)
        with pytest.raises(ValueError):
            DiskRestriction(radius=math.inf)
        with pytest.raises(ValueError):
            DiskRestriction(radius=0.0)
        with pytest.raises(ValueError):
            DiskRestriction(radius=1.0, beta=1.5)


class TestCountDistribution:
    def test_normalized_and_mean_matches_trace(self):
        restriction = DiskRestriction(radius=2.0)
        pmf = count_distribution(restriction, 60)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        mean = float(np.sum(np.arange(61) * pmf))
        assert mean == pytest.approx(4.0, abs=1e-9)

    def test_variance_is_bernoulli_sum(self):
        restriction = DiskRestriction(radius=2.0)
        pmf = count_distribution(restriction, 60)
        ks = np.arange(61)
        var = float(np.sum(ks ** 2 * pmf) - np.sum(ks * pmf) ** 2)
        kappa = eigenvalues(restriction)
        assert var == pytest.approx(float(np.sum(kappa * (1 - kappa))), abs=1e-9)

    def test_empty_spectrum_is_point_mass_at_zero(self):
        # every eigenvalue below tol: the count is 0 surely
        pmf = count_distribution(DiskRestriction(radius=1e-3, palm_shift=True), 2)
        assert pmf.tolist() == [1.0, 0.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(radius=st.floats(0.05, 12.0), beta=st.floats(0.05, 1.0, exclude_min=True),
           palm=st.booleans(), max_n=st.integers(0, 300))
    def test_matches_scipy_poisson_binom(self, radius, beta, palm, max_n):
        restriction = DiskRestriction(radius=radius, beta=beta, palm_shift=palm)
        vals = eigenvalues(restriction)
        ref = stats.poisson_binom(vals if len(vals) else [0.0]).pmf(np.arange(max_n + 1))
        assert np.allclose(count_distribution(restriction, max_n), ref,
                           rtol=1e-12, atol=1e-15)

    def test_linear_memory_in_the_spectrum(self):
        # 5079 eigenvalues and 40 001 cells: the pmf and a few row
        # temporaries, not an eigenvalues x cells matrix (200 MB)
        restriction = DiskRestriction(radius=12.0, beta=0.05, palm_shift=True)
        assert len(eigenvalues(restriction, tol=1e-300)) > 5000
        tracemalloc.start()
        try:
            pmf = count_distribution(restriction, 40_000, tol=1e-300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert peak < 10e6

    def test_log_tail_matches_linear_dp(self):
        restriction = DiskRestriction(radius=1.5, beta=0.7)
        pmf = count_distribution(restriction, 40)
        for m in (1, 3, 6):
            linear = math.log(float(pmf[m:].sum()))
            assert log_count_tail(restriction, m) == pytest.approx(linear, abs=1e-9)

    def test_log_tail_frozen_deep_values(self):
        # independently verified with 60-digit arithmetic
        restriction = DiskRestriction(radius=1.0)
        assert log_count_tail(restriction, 5) == pytest.approx(
            -13.675213523216717, rel=1e-9)
        assert log_count_tail(restriction, 20) == pytest.approx(
            -376.5888864719756, rel=1e-9)
        assert log_count_tail(restriction, 40) == pytest.approx(
            -1934.2095785222082, rel=1e-9)

    def test_log_tail_thinned_large_windows(self):
        # these windows need far more than m eigenvalues: r^2 / beta is 1000
        # and 90, above m
        assert log_count_tail(DiskRestriction(radius=10.0, beta=0.1), 130) \
            == pytest.approx(-6.603363518907, abs=1e-9)
        assert log_count_tail(DiskRestriction(radius=3.0, beta=0.1), 15) \
            == pytest.approx(-3.388335962050, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(radius=st.floats(0.5, 12.0), beta=st.floats(0.05, 1.0, exclude_min=True),
           palm=st.booleans(), depth=st.floats(0.0, 1.0))
    def test_log_tail_matches_linear_convolution(self, radius, beta, palm, depth):
        restriction = DiskRestriction(radius=radius, beta=beta, palm_shift=palm)
        # m from 1 to ten standard deviations past the mean count
        m = 1 + int(depth * (radius ** 2 + 10.0 * radius + 10.0))
        # reference: the linear-space Poisson-binomial pmf, a kernel
        # independent of the log-space recursion, on a spectrum cut far below
        # the default tolerance, so that it holds every eigenvalue a deep tail
        # is made of
        pmf = count_distribution(restriction, 40_000, tol=1e-300)
        linear = float(pmf[m:].sum())
        if linear > 1e-250:
            assert log_count_tail(restriction, m) == pytest.approx(
                math.log(linear), rel=1e-9, abs=1e-12)

    def test_tail_trivial_cases(self):
        restriction = DiskRestriction(radius=1.0)
        assert log_count_tail(restriction, 0) == 0.0
        with pytest.raises(ValueError):
            log_count_tail(restriction, -1)


class TestKernelFunctions:
    def test_pair_correlation_closed_form(self):
        assert pair_correlation(0j, 0j) == 0.0
        assert pair_correlation(0j, 1 + 0j) == pytest.approx(1 - math.exp(-1), rel=1e-14)
        assert pair_correlation(1j, 1j + 0.5) == pytest.approx(1 - math.exp(-0.25), rel=1e-14)

    def test_pair_matches_two_point_determinant(self):
        x1, x2 = 0.2 + 0.1j, -0.4 + 0.5j
        # det K / (K11 K22) = 1 - g(x1, x2), K(x, y) = e^(x conj(y)) the
        # kernel w.r.t. the Gaussian reference
        z = np.array([x1, x2])
        kernel = np.exp(np.outer(z, z.conj()))
        ratio = np.linalg.det(kernel).real / (kernel[0, 0] * kernel[1, 1]).real
        assert ratio == pytest.approx(pair_correlation(x1, x2), rel=1e-10)
