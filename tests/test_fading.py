"""Fading laws: survival/density identities, MGFs, sampling moments."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ginibrenet.errors import MgfDivergenceError
from ginibrenet.fading import FadingSpec
from ginibrenet.patterns import RngStream


def gen(seed=1234):
    return RngStream(seed).generator()


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FadingSpec(kind="rayleigh")

    def test_weibull_shape_ranges(self):
        with pytest.raises(ValueError):
            FadingSpec(kind="weibull_super", c=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            FadingSpec(kind="weibull_sub", c=1.0, gamma=1.0)
        FadingSpec(kind="weibull_super", c=1.0, gamma=1.5)
        FadingSpec(kind="weibull_sub", c=1.0, gamma=0.5)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            FadingSpec(kind="exponential", c=0.0)
        with pytest.raises(ValueError):
            FadingSpec(kind="bounded", bound=-1.0)


class TestSurvival:
    def test_exponential_closed_form(self):
        f = FadingSpec(kind="exponential", c=2.0)
        assert f.survival(1.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert f.survival(0.0) == 1.0

    def test_pareto_closed_form(self):
        f = FadingSpec(kind="pareto", c=2.0)
        assert f.survival(9.0) == pytest.approx(0.01, rel=1e-12)

    def test_weibull_closed_form(self):
        f = FadingSpec(kind="weibull_super", c=0.5, gamma=2.0)
        assert f.log_survival(3.0) == pytest.approx(-4.5, rel=1e-14)

    def test_bounded_support(self):
        f = FadingSpec(kind="bounded", bound=2.0)
        assert f.survival(-0.1) == 1.0
        assert f.survival(2.0) == 0.0
        assert 0.0 < f.survival(1.0) < 1.0

    @given(z1=st.floats(0.0, 20.0), z2=st.floats(0.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_survival_nonincreasing(self, z1, z2):
        lo, hi = sorted((z1, z2))
        for kind, kw in (("exponential", {}), ("pareto", {}),
                         ("weibull_super", {"gamma": 2.0}),
                         ("weibull_sub", {"gamma": 0.5}),
                         ("bounded", {"bound": 3.0})):
            f = FadingSpec(kind=kind, **kw)
            assert f.survival(hi) <= f.survival(lo) + 1e-15


class TestSampling:
    @pytest.mark.parametrize("kind,kw", [
        ("exponential", {"c": 1.5}),
        ("pareto", {"c": 3.0}),
        ("weibull_super", {"c": 1.0, "gamma": 2.0}),
        ("weibull_sub", {"c": 1.0, "gamma": 0.5}),
        ("bounded", {"bound": 2.0}),
    ])
    def test_sample_mean_matches(self, kind, kw):
        f = FadingSpec(kind=kind, **kw)
        draws = f.sample(200_000, gen())
        assert np.all(draws >= 0)
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - f.mean()) < 5 * se

    def test_sample_empirical_survival(self):
        f = FadingSpec(kind="weibull_sub", c=1.0, gamma=0.5)
        draws = f.sample(100_000, gen(7))
        for z in (0.5, 2.0, 5.0):
            emp = float(np.mean(draws > z))
            assert emp == pytest.approx(f.survival(z), abs=0.01)


class TestMgf:
    def test_exponential_closed_form_and_divergence(self):
        f = FadingSpec(kind="exponential", c=2.0)
        assert f.mgf(1.0) == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(MgfDivergenceError):
            f.log_mgf(2.0)

    def test_heavy_tails_diverge(self):
        for kind, kw in (("pareto", {"c": 2.0}),
                         ("weibull_sub", {"c": 1.0, "gamma": 0.5})):
            with pytest.raises(MgfDivergenceError):
                FadingSpec(kind=kind, **kw).log_mgf(0.1)

    def test_mgf_against_monte_carlo(self):
        for f, theta in ((FadingSpec(kind="weibull_super", c=1.0, gamma=2.0), 1.5),
                         (FadingSpec(kind="bounded", bound=2.0), 0.7)):
            draws = f.sample(400_000, gen(11))
            mc = float(np.mean(np.exp(theta * draws)))
            assert f.mgf(theta) == pytest.approx(mc, rel=0.02)

    def test_tilted_mean_is_log_mgf_derivative(self):
        h = 1e-5
        for f, theta in ((FadingSpec(kind="exponential", c=2.0), 0.8),
                         (FadingSpec(kind="bounded", bound=1.0), 1.3),
                         (FadingSpec(kind="weibull_super", c=1.0, gamma=2.0), 2.0)):
            numeric = (f.log_mgf(theta + h) - f.log_mgf(theta - h)) / (2 * h)
            assert f.tilted_mean(theta) == pytest.approx(numeric, rel=1e-4)

    @pytest.mark.parametrize("theta_b", [0.5, 50.0, 1e3, 1e5])
    def test_bounded_against_quadrature(self, theta_b):
        # tilts far past theta B ~ 710, where e^(theta B) overflows
        f = FadingSpec(kind="bounded", bound=2.0, beta_a=2.0, beta_b=3.0)
        theta = theta_b / f.bound
        cut = max(0.0, f.bound - 60.0 / theta)  # the tilted mass sits above cut

        def moment(order):
            def integrand(z):
                return z ** order * math.exp(f.log_pdf(z) + theta * (z - f.bound))
            return sum(integrate.quad(integrand, a, b, epsabs=1e-40, epsrel=1e-12,
                                      limit=200)[0]
                       for a, b in ((0.0, cut), (cut, f.bound)) if b > a)

        m0 = moment(0)
        assert f.log_mgf(theta) == pytest.approx(theta_b + math.log(m0), rel=1e-10)
        assert f.tilted_mean(theta) == pytest.approx(moment(1) / m0, rel=1e-10)

    def test_tilted_mean_increasing_in_theta(self):
        f = FadingSpec(kind="weibull_super", c=1.0, gamma=2.0)
        means = [f.tilted_mean(th) for th in (0.0, 1.0, 3.0, 10.0)]
        assert all(b > a for a, b in zip(means, means[1:]))
