"""Closed-form rate functions, speeds, asymptotes and proof constants."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginibrenet.fading import FadingSpec
from ginibrenet.rates import (LdpRegime, growth_function, limit_constant,
                              poisson_comparison, proof_constants, rate, speed,
                              tail_asymptote, weibull_rate_constant)


def regime(kind, **kw):
    atten_R = kw.pop("atten_R", 1.0)
    atten_alpha = kw.pop("atten_alpha", 3.0)
    return LdpRegime(FadingSpec(kind=kind, **kw), atten_R, atten_alpha)


class TestRegimeConstruction:
    def test_kind_derivation(self):
        assert regime("bounded", bound=1.0).kind == "bounded"
        assert regime("weibull_super", c=1.0, gamma=2.0).kind == "weibull_super"
        assert regime("exponential", c=1.0).kind == "exponential"
        assert regime("weibull_sub", c=1.0, gamma=0.5).kind == "subexp_family"
        assert regime("pareto", c=2.0).kind == "subexp_family"

    def test_attenuation_validation(self):
        with pytest.raises(ValueError):
            LdpRegime(FadingSpec(kind="exponential", c=1.0), 1.0, 2.0)

    @pytest.mark.parametrize("R, alpha", [(math.inf, 3.0), (math.nan, 3.0),
                                          (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_attenuation_refused(self, R, alpha):
        with pytest.raises(ValueError, match="finite"):
            LdpRegime(FadingSpec(kind="exponential", c=1.0), R, alpha)


class TestRateValues:
    def test_bounded_hand_value(self):
        # R=1, alpha=2.5, B=2, x=2: R^(2a) x^2 / (2 B^2) = 4/8
        r = regime("bounded", bound=2.0, atten_alpha=2.5)
        assert rate(r, 2.0) == pytest.approx(0.5, rel=1e-12)

    def test_exponential_linear(self):
        r = regime("exponential", c=2.0)
        assert rate(r, 3.0) == pytest.approx(6.0, rel=1e-14)

    def test_weibull_frozen_value(self):
        # c=1, gamma=2, R^alpha=1, x=1: (1/2) 2^(1/3) 3^(2/3)
        r = regime("weibull_super", c=1.0, gamma=2.0)
        assert rate(r, 1.0) == pytest.approx(1.3103706971044484, rel=1e-12)

    def test_subexp_zero_at_origin_with_jump(self):
        r = regime("pareto", c=2.0)
        assert rate(r, 0.0) == 0.0
        assert rate(r, 1e-9) == pytest.approx(1.0)  # gamma = 0 exponent

    def test_weibull_sub_power(self):
        r = regime("weibull_sub", c=1.0, gamma=0.5, atten_R=2.0, atten_alpha=3.0)
        assert rate(r, 4.0) == pytest.approx((2.0 ** 3 * 4.0) ** 0.5, rel=1e-12)

    @given(x1=st.floats(0.01, 50.0), x2=st.floats(0.01, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_rate_nondecreasing(self, x1, x2):
        lo, hi = sorted((x1, x2))
        for r in (regime("bounded", bound=1.0), regime("exponential", c=1.0),
                  regime("weibull_super", c=1.0, gamma=2.0),
                  regime("weibull_sub", c=1.0, gamma=0.5)):
            assert rate(r, hi) >= rate(r, lo) - 1e-12


# every fading kind over its parameter range, under an attenuation pair
FADINGS = st.one_of(
    st.builds(FadingSpec, kind=st.just("bounded"), bound=st.floats(0.1, 10.0),
              beta_a=st.floats(0.5, 5.0), beta_b=st.floats(0.5, 5.0)),
    st.builds(FadingSpec, kind=st.just("weibull_super"), c=st.floats(0.1, 10.0),
              gamma=st.floats(1.001, 5.0)),
    st.builds(FadingSpec, kind=st.just("exponential"), c=st.floats(0.1, 10.0)),
    st.builds(FadingSpec, kind=st.just("weibull_sub"), c=st.floats(0.1, 10.0),
              gamma=st.floats(0.01, 0.99)),
    st.builds(FadingSpec, kind=st.just("pareto"), c=st.floats(0.1, 10.0)),
)
REGIMES = st.builds(LdpRegime, FADINGS, st.floats(0.5, 2.0), st.floats(2.01, 6.0))


class TestOneLdpPerRegime:
    """log P(I >= x) ~ -speed(1/x) rate(1): the speed is the growth function
    at 1/eps and the limit constant is -rate(1), negative in every regime."""

    @given(r=REGIMES, eps=st.floats(1e-9, 1.0, exclude_max=True),
           x1=st.floats(1.0, 1e9, exclude_min=True),
           x2=st.floats(1.0, 1e9, exclude_min=True))
    @settings(max_examples=300, deadline=None)
    def test_speed_and_constant_from_growth_and_rate(self, r, eps, x1, x2):
        assert limit_constant(r) == -rate(r, 1.0)
        assert limit_constant(r) < 0
        assert speed(r, eps) == growth_function(r, 1.0 / eps)
        lo, hi = sorted((x1, x2))
        assert 0 < growth_function(r, lo) <= growth_function(r, hi)


class TestSpeedValues:
    def test_bounded(self):
        r = regime("bounded", bound=1.0)
        assert speed(r, 0.1) == pytest.approx(100.0 * math.log(10.0), rel=1e-14)

    def test_weibull_frozen(self):
        r = regime("weibull_super", c=1.0, gamma=2.0)
        assert speed(r, 0.1) == pytest.approx(28.44932038984319, rel=1e-12)

    def test_exponential(self):
        assert speed(regime("exponential", c=1.0), 0.01) == pytest.approx(100.0)

    def test_pareto_frozen(self):
        # -log survival(100) for survival (1+z)^-2: 2 log(101)
        assert speed(regime("pareto", c=2.0), 0.01) == \
            pytest.approx(9.23024103368252, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            speed(regime("exponential", c=1.0), 0.0)
        with pytest.raises(ValueError):
            speed(regime("exponential", c=1.0), 1.0)

    @given(e1=st.floats(0.001, 0.999), e2=st.floats(0.001, 0.999))
    @settings(max_examples=40, deadline=None)
    def test_speed_decreasing_in_eps(self, e1, e2):
        lo, hi = sorted((e1, e2))
        for r in (regime("bounded", bound=1.0), regime("exponential", c=1.0),
                  regime("weibull_super", c=1.0, gamma=2.0),
                  regime("pareto", c=2.0)):
            assert speed(r, lo) >= speed(r, hi) - 1e-12


class TestAsymptotes:
    def test_constant_is_rate_family_coefficient(self):
        r = regime("exponential", c=2.0, atten_R=1.5, atten_alpha=3.0)
        assert limit_constant(r) == pytest.approx(-2.0 * 1.5 ** 3, rel=1e-12)

    def test_bounded_constant(self):
        r = regime("bounded", bound=2.0, atten_R=1.0, atten_alpha=4.0)
        assert limit_constant(r) == pytest.approx(-0.5 / 4.0, rel=1e-12)

    @pytest.mark.parametrize("r", [
        regime("bounded", bound=2.0, atten_R=1.2),
        regime("weibull_super", c=1.5, gamma=2.5, atten_R=0.8),
        regime("exponential", c=2.0, atten_R=1.5),
        regime("weibull_sub", c=1.0, gamma=0.5, atten_R=1.3),
        regime("pareto", c=2.0, atten_R=1.3),
    ], ids=lambda r: r.fading.kind)
    def test_constant_is_the_asymptote_over_the_growth(self, r):
        # the slope fit and ``rates --compare-poisson`` read the constant
        # where they once took this ratio at one x
        for x in (1.5, 4.0, 30.0):
            assert tail_asymptote(r, x) / growth_function(r, x) == \
                pytest.approx(limit_constant(r), rel=1e-15)

    def test_subexp_tracks_log_survival(self):
        r = regime("pareto", c=2.0)
        assert tail_asymptote(r, 10.0) == pytest.approx(-2.0 * math.log(11.0), rel=1e-12)


class TestPoissonComparison:
    def test_bounded_constant(self):
        r = regime("bounded", bound=2.0, atten_R=1.0, atten_alpha=3.0)
        assert poisson_comparison(r) == pytest.approx(-0.5, rel=1e-12)

    def test_weibull_constant(self):
        # gamma=2, c=1, R^alpha=1: -2 * 1^(-1/2) * 1 * 1 = -2
        r = regime("weibull_super", c=1.0, gamma=2.0)
        assert poisson_comparison(r) == pytest.approx(-2.0, rel=1e-12)

    def test_insensitive_regimes_raise(self):
        for r in (regime("exponential", c=1.0), regime("pareto", c=2.0)):
            with pytest.raises(ValueError, match="insensitive"):
                poisson_comparison(r)

    def test_gamma_to_one_convergence(self):
        g = 1.001
        gin = weibull_rate_constant(1.0, g, 1.0)
        poi = abs(poisson_comparison(regime("weibull_super", c=1.0, gamma=g)))
        assert abs(gin - poi) / poi < 0.02
        # both approach c R^alpha = 1
        assert gin == pytest.approx(1.0, abs=0.01)


class TestProofConstants:
    def test_frozen_values(self):
        r = regime("weibull_super", c=1.0, gamma=2.0)
        pc = proof_constants(r, x=1.0, eps=0.1)
        assert pc.kappa_opt == pytest.approx(1.1447142425533319, rel=1e-12)
        # int(kappa_opt / (eps^(g/(g+1)) log(1/eps)^(1/(g+1)))) = int(4.02)
        assert pc.block_n == 4

    def test_preconditions(self):
        with pytest.raises(ValueError, match="weibull_super"):
            proof_constants(regime("exponential", c=1.0), 1.0, 0.1)
        with pytest.raises(ValueError):
            proof_constants(regime("weibull_super", c=1.0, gamma=2.0), 1.0, 2.0)
