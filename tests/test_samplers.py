"""Sampler determinism, geometric invariants, and lightweight law checks.

Heavy distributional validation (chi-square count laws, Palm identity,
Kostlan order statistics) lives in the acceptance suite; these tests keep
the fast structural guarantees close to the implementation.
"""
import math

import numpy as np
import pytest
from scipy import stats

from ginibrenet import samplers
from ginibrenet.errors import SamplerStallError
from ginibrenet.patterns import RngStream
from ginibrenet.samplers import (KOSTLAN_ORDERS, kostlan_validation,
                                 sample_beta_ginibre, sample_ginibre_disk,
                                 sample_palm_beta_ginibre, sample_poisson)
from ginibrenet.spectral import DiskRestriction, count_distribution, trace_bound
from ginibrenet.validate import chisquare_vs_pmf


class TestDeterminism:
    def test_ginibre_bit_identical(self):
        a = sample_ginibre_disk(3.0, RngStream(11, 2))
        b = sample_ginibre_disk(3.0, RngStream(11, 2))
        assert np.array_equal(a.points, b.points)

    def test_beta_and_palm_bit_identical(self):
        for fn in (sample_beta_ginibre, sample_palm_beta_ginibre):
            a = fn(0.5, 2.0, RngStream(13, 4))
            b = fn(0.5, 2.0, RngStream(13, 4))
            assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = sample_ginibre_disk(3.0, RngStream(1))
        b = sample_ginibre_disk(3.0, RngStream(2))
        assert len(a) != len(b) or not np.array_equal(a.points, b.points)


class TestGeometry:
    def test_points_inside_window(self):
        for i in range(10):
            pat = sample_ginibre_disk(2.5, RngStream(20, i))
            assert np.all(np.abs(pat.points) <= 2.5 + 1e-12)
            pat = sample_beta_ginibre(0.4, 1.5, RngStream(21, i))
            assert np.all(np.abs(pat.points) <= 1.5 + 1e-12)

    def test_palm_excludes_origin(self):
        for i in range(20):
            pat = sample_palm_beta_ginibre(1.0, 2.0, RngStream(22, i))
            if len(pat):
                assert np.min(np.abs(pat.points)) > 0

    def test_no_duplicate_points(self):
        pat = sample_ginibre_disk(4.0, RngStream(23))
        assert len(np.unique(pat.points)) == len(pat)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            sample_ginibre_disk(-1.0, RngStream(0))
        with pytest.raises(ValueError):
            sample_beta_ginibre(0.0, 1.0, RngStream(0))
        with pytest.raises(ValueError):
            sample_palm_beta_ginibre(1.2, 1.0, RngStream(0))

    def test_stall_diagnostics_name_the_restriction(self, monkeypatch):
        monkeypatch.setattr(samplers, "STALL_CAP", -1)  # stall before any proposal
        with pytest.raises(SamplerStallError) as exc:
            sample_palm_beta_ginibre(0.5, 3.0, RngStream(0))
        diag = exc.value.diagnostics
        assert (diag["radius"], diag["beta"], diag["palm_shift"]) == (3.0, 0.5, True)
        assert diag["placed"] == 0 < diag["target_points"]


class TestCountMoments:
    def test_ginibre_mean_count_is_trace(self):
        counts = [len(sample_ginibre_disk(2.0, RngStream(30, i)))
                  for i in range(3000)]
        mean = np.mean(counts)
        se = np.std(counts) / np.sqrt(len(counts))
        assert abs(mean - 4.0) < 4 * se

    def test_beta_one_matches_plain_count_law(self):
        # beta = 1 must share the plain sampler's exact count law
        counts = np.array([len(sample_beta_ginibre(1.0, 1.5, RngStream(31, i)))
                           for i in range(3000)])
        pmf = count_distribution(DiskRestriction(radius=1.5), 30)
        assert chisquare_vs_pmf(counts, pmf) > 0.01

    def test_palm_mean_count_is_palm_trace(self):
        counts = [len(sample_palm_beta_ginibre(1.0, 1.5, RngStream(32, i)))
                  for i in range(3000)]
        expected = trace_bound(DiskRestriction(radius=1.5, palm_shift=True))
        se = np.std(counts) / np.sqrt(len(counts))
        assert abs(np.mean(counts) - expected) < 4 * se

    def test_poisson_count_law(self):
        gen_counts = np.array([len(sample_poisson(2.0, 1 / np.pi, RngStream(33, i)))
                               for i in range(3000)])
        pmf = stats.poisson(4.0).pmf(np.arange(30))
        assert np.mean(gen_counts) == pytest.approx(4.0, abs=0.15)
        assert chisquare_vs_pmf(gen_counts, pmf) > 0.01


class TestRepulsion:
    def test_small_distance_deficit_vs_poisson(self):
        """Ginibre pair counts below distance 1 fall one-sidedly under the
        Poisson baseline (1000 patterns at radius 8)."""
        radius, cutoff, n_pat = 8.0, 1.0, 1000
        gin = np.zeros(n_pat)
        poi = np.zeros(n_pat)
        for i in range(n_pat):
            for pts, acc in ((sample_ginibre_disk(radius, RngStream(40, i)).points, gin),
                             (sample_poisson(radius, 1 / np.pi, RngStream(41, i)).points, poi)):
                if len(pts) < 2:
                    continue
                d = np.abs(pts[:, None] - pts[None, :])
                acc[i] = np.sum((d > 0) & (d < cutoff)) // 2
        # one-sided: the Ginibre short-range pair rate must sit clearly below
        se = math.sqrt(gin.var() / n_pat + poi.var() / n_pat)
        assert gin.mean() < poi.mean() - 3 * se


class TestPalmCountLaw:
    def test_palm_counts_match_shifted_spectrum(self):
        beta, radius = 0.7, 1.5
        counts = np.array([len(sample_palm_beta_ginibre(beta, radius,
                                                        RngStream(42, i)))
                           for i in range(4000)])
        pmf = count_distribution(
            DiskRestriction(radius=radius, beta=beta, palm_shift=True), 30)
        assert chisquare_vs_pmf(counts, pmf) > 0.01


class TestSubBallCountLaw:
    @pytest.mark.parametrize("sampler, palm, beta, seed", [
        (sample_beta_ginibre, False, 0.1, 71),
        (sample_beta_ginibre, False, 0.5, 72),
        (sample_palm_beta_ginibre, True, 0.1, 73),
        (sample_palm_beta_ginibre, True, 0.5, 74),
    ], ids=["beta0.1", "beta0.5", "palm-beta0.1", "palm-beta0.5"])
    def test_half_radius_counts_match_exact_law(self, sampler, palm, beta, seed):
        # the count in b(0, r/2) reads the radial profile and the sqrt(beta)
        # shrink, which the window count alone cannot see
        radius = 2.0
        counts = np.array([
            np.sum(np.abs(sampler(beta, radius, RngStream(seed, i)).points)
                   <= radius / 2)
            for i in range(3000)])
        pmf = count_distribution(
            DiskRestriction(radius=radius / 2, beta=beta, palm_shift=palm), 30)
        assert chisquare_vs_pmf(counts, pmf) > 0.01


class TestKostlan:
    def test_precondition_on_radius(self):
        with pytest.raises(ValueError, match="too small"):
            kostlan_validation(1.0, 10, RngStream(0))

    def test_report_shape(self):
        # one KS statistic and p-value per tested order, (1, 2)
        assert KOSTLAN_ORDERS == (1, 2)
        rep = kostlan_validation(4.0, 200, RngStream(50))
        assert len(rep.ks_statistics) == len(rep.p_values) == 2
        assert all(0.0 <= p <= 1.0 for p in rep.p_values)
