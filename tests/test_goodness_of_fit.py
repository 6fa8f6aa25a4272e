"""The package's chi-square and KS p-values against scipy.stats, which the
package itself never imports."""
import numpy as np
import pytest
from scipy import stats

from ginibrenet.goodness_of_fit import chisquare_vs_pmf, ks_vs_cdf


@pytest.mark.parametrize("n", [1000, 5000])
def test_ks_pvalue_matches_kstwo_in_the_tail(n):
    # min(1, 2 smirnov) is the exact two-sided law up to the chance that
    # both one-sided statistics pass D, which is negligible for small p
    checked = 0
    for shift in np.linspace(0.5, 3.0, 100) / np.sqrt(n):
        # CDF values (j - 1/2) / n moved up by shift: D = 1/(2n) + shift
        d, p = ks_vs_cdf(np.minimum((np.arange(1, n + 1) - 0.5) / n + shift, 1.0))
        assert d == pytest.approx(0.5 / n + shift, rel=1e-12)
        exact = stats.kstwo.sf(d, n)
        assert p >= exact - 1e-12  # it never understates p
        if exact <= 0.1:
            assert p == pytest.approx(exact, abs=1e-4)
            checked += 1
    assert checked > 30


@pytest.mark.parametrize("seed", range(5))
def test_ks_matches_scipy_one_sample(seed):
    x = np.random.default_rng(seed).exponential(size=800)
    ref = stats.kstest(x, "expon", method="approx")
    d, p = ks_vs_cdf(stats.expon.cdf(x))
    assert d == pytest.approx(ref.statistic, rel=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_one_sample_matches_scipy_chisquare(seed):
    # five equally likely values, 400 draws: 80 expected a cell, no pooling
    counts = np.random.default_rng(seed).integers(0, 5, size=400)
    pmf = np.full(5, 0.2)
    ref = stats.chisquare(np.bincount(counts, minlength=5), np.full(5, 80.0))
    assert chisquare_vs_pmf(counts, pmf) == pytest.approx(ref.pvalue, rel=1e-12)
