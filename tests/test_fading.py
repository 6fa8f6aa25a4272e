"""Fading laws: survival/density identities, MGFs, sampling moments."""
import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from ginibrenet import fading
from ginibrenet.errors import CapExceededError, MgfDivergenceError
from ginibrenet.fading import FadingSpec
from ginibrenet.patterns import RngStream


def gen(seed=1234):
    return RngStream(seed).generator()


def transforms(f):
    """The log MGF and the tilted mean and variance of f, each a function
    of the tilt."""
    return (f.log_mgf, lambda t: f.tilted_moments(t)[0],
            lambda t: f.tilted_moments(t)[1])


# log E[Z^k e^(theta Z)], k = 0 then 1, of weibull_super marks (survival
# exp(-c z^gamma)) at WEIBULL_THETAS, keyed by (gamma, c).  Computed with
# mpmath 1.3, which is not a dependency, at 45 digits; at 30 digits and with
# other breakpoints the values agree to 5e-31:
#
#     import mpmath as mp
#     mp.mp.dps = 45
#
#     def log_moment(theta, c, g, k):
#         theta, c, g = mp.mpf(theta), mp.mpf(c), mp.mpf(g)
#         start = max((2 * theta / (c * g)) ** (1 / (g - 1)), (2 / c) ** (1 / g))
#         zm = mp.findroot(lambda z: g + k + theta * z - c * g * z ** g, start)
#         sm = mp.log(zm)  # the mode in s = log z, and the exponent there
#         gm = (g + k) * sm + theta * zm - c * zm ** g
#         sig = 1 / mp.sqrt((g - 1) * theta * zm + g * (g + k))
#         f = lambda s: mp.exp((g + k) * s + theta * mp.exp(s) - c * mp.exp(g * s) - gm)
#         pts = [sm + sig * q for q in (-1000, -100, -20, -3, 0, 3, 20, 100, 1000)]
#         return mp.log(c * g) + gm + mp.log(mp.quad(f, [-mp.inf] + pts))
WEIBULL_THETAS = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1000.0)
WEIBULL_LOG_MOMENTS = {
    (1.2, 0.5): ((0.0016770426760519806, 0.016859664834587874, 0.17819972536908432, 5.119321542363766, 2143356.9592312747, 2143347050771.2866, 2.1433470507544758e+18),
                 (0.5192962514036018, 0.5451002412950674, 0.8180027374150161, 7.893143394115499, 2143371.0262850914, 2143347050796.8665, 2.1433470507544758e+18)),
    (1.2, 1.0): ((0.0009409658530200739, 0.00943766989401657, 0.09729339098425759, 1.4628201721861611, 66987.77094437278, 66979595351.16051, 6.6979595336077336e+16),
                 (-0.05957794175163076, -0.045134051943000464, 0.10383131381286656, 2.3160104376059367, 66998.37226951872, 66979595373.27476, 6.697959533607738e+16)),
    (1.2, 2.0): ((0.0005280228758329955, 0.005289034749524584, 0.05379094917531641, 0.6541114477724776, 2099.555076593526, 2093112367.6029055, 2093112354252434.8),
                 (-0.6379027355028271, -0.6298083257472407, -0.547464547444138, 0.45278974594716054, 2106.6908972307983, 2093112386.2514126, 2093112354252465.0)),
    (1.5, 0.5): ((0.0014334923324067707, 0.014377687374366583, 0.14820518031209076, 2.138042080689731, 597.5996175133812, 592601.0535420206, 592592604.5074197),
                 (0.36187752557806724, 0.38077981420006685, 0.5753263837326671, 3.2878133435620716, 602.7809953176846, 592610.8392473813, 592592618.8982944)),
    (1.5, 1.0): ((0.0009029331792432955, 0.009046278667430074, 0.09219495373962386, 1.1413780111511296, 152.46188466450062, 148155.915950255, 148148159.36982808),
                 (-0.10099568543867815, -0.08910189622045624, 0.03200107316022926, 1.5074174646268128, 156.25949522173897, 148164.31536378578, 148148172.37440842)),
    (1.5, 2.0): ((0.0005687684553220957, 0.005694403924163884, 0.05762526936761266, 0.6549550930978968, 40.65705400317537, 37044.11169140082, 37037047.56556979),
                 (-0.5635819979589184, -0.5560948890607453, -0.4803712304095445, 0.37326813058418706, 43.078429849578676, 37051.1248206954, 37037059.18385579)),
    (2.0, 0.5): ((0.0012535287687306627, 0.012554631152274967, 0.12750719365392563, 1.4989647520539797, 53.22152362619872, 5005.524108719193, 500007.8266938122),
                 (0.22738734855151266, 0.24177174463885479, 0.3876606828436932, 2.0736879745366177, 55.53405905004593, 5010.129378900181, 500014.73445009114)),
    (2.0, 1.0): ((0.0008863342368284647, 0.008873009807990355, 0.08970620512533847, 1.0043874786615188, 27.87495003591876, 2505.177535128913, 250007.4801202219),
                 (-0.11965374507918083, -0.10948709919820776, -0.006801754910688397, 1.1299015186018213, 29.504190575649027, 2509.0897581143436, 250013.69473032033)),
    (2.0, 2.0): ((0.0006267107228141032, 0.006271939430752228, 0.06320592019989466, 0.6841108494596089, 15.028376456331104, 1254.830961538633, 125007.13354663162),
                 (-0.46655788666121073, -0.4593713102048167, -0.38699737456869016, 0.39035887101438305, 15.983887889922237, 1258.0502372835224, 125012.65501154948)),
    (3.0, 0.5): ((0.0011251672884323256, 0.011259199026546953, 0.11334628000296859, 1.2102807806100908, 19.415356020205913, 548.2560579522052, 17218.911135637016),
                 (0.11913119588329472, 0.13060218398298748, 0.24600517618695097, 1.4701409515281174, 20.392307142943185, 550.3568283935906, 17222.162309769174)),
    (3.0, 1.0): ((0.0008930321789693472, 0.008935062716473777, 0.08982556083287936, 0.9464765016626223, 14.20222561096353, 388.65194962695887, 12177.090923039363),
                 (-0.11218065663618088, -0.10307738668453045, -0.011608194719394043, 0.9471518755498792, 14.843976838789935, 390.40652630134144, 12179.9955356124)),
    (3.0, 2.0): ((0.0007087914862841054, 0.007090901336625669, 0.0712080825212394, 0.7423646008427549, 10.466599773220798, 275.74408531672117, 8611.934907842742),
                 (-0.34343829052957536, -0.3362138136702457, -0.263694142707482, 0.4892108674971687, 10.777468617127179, 277.15262516773305, 8614.492963839744)),
}

# log E[e^(theta Z)], tilted mean and tilted variance of weibull_super marks
# with c = 1 near gamma = 1, keyed by (gamma, theta), gamma the float
# literal.  mpmath at 130 digits, as in the snippet above with k = 0, but
# integrating exp(g t + theta z_m expm1(t) - c z_m^g expm1(g t)) over
# t = s - s_m in [-1000, 1000] sig, split at 0, +-3, +-20, +-100 sig, taking
# the moments as averages of y = e^t - 1 and (y - mean y)^2; 150 digits agree
# to 3e-88.
WEIBULL_NEAR_ONE = {
    (1.05, 100.0): ("1.7947118232046199903791311698502660596554198151315360724090856898536890425558322e+40",
                     "3.7688948287296987917475535546685327747590592525189139387223794380072641411502381e+39",
                     "7.5377896574593908885930011151069741654273316234235851452930397376273408839465624e+38"),
    (1.1, 1000.0): ("3.5049389948137129038626306505593880281122191378570547398907522967346972888964829e+31",
                     "3.855432894295081081237716156624837693257624887491218378807191754345395486151408e+29",
                     "3.8554328942950776569254208417427334976134451679438252187608089327615765363616138e+27"),
}


# the parameters each fading kind reads, at valid values
PARAMETERS_READ = {
    "bounded": {"bound": 2.0, "beta_a": 2.0, "beta_b": 3.0},
    "weibull_super": {"c": 1.5, "gamma": 2.0},
    "exponential": {"c": 1.5},
    "weibull_sub": {"c": 1.5, "gamma": 0.5},
    "pareto": {"c": 1.5},
}


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

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("kind, param", [
        (kind, param) for kind, reads in PARAMETERS_READ.items() for param in reads])
    def test_non_finite_parameters_refused(self, kind, param, value):
        with pytest.raises(ValueError):
            FadingSpec(kind=kind, **{**PARAMETERS_READ[kind], param: value})

    @pytest.mark.parametrize("kind", fading.FADING_KINDS)
    def test_unread_parameters_ignored(self, kind):
        unread = {name: math.inf for name in ("bound", "beta_a", "beta_b", "c", "gamma")
                  if name not in PARAMETERS_READ[kind]}
        FadingSpec(kind=kind, **PARAMETERS_READ[kind], **unread)


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
        assert np.exp(f.log_mgf(1.0)) == pytest.approx(2.0, rel=1e-12)
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
            assert np.exp(f.log_mgf(theta)) == pytest.approx(mc, rel=0.02)

    def test_tilted_mean_is_log_mgf_derivative(self):
        h = 1e-5
        for f, theta in ((FadingSpec(kind="exponential", c=2.0), 0.8),
                         (FadingSpec(kind="bounded", bound=1.0), 1.3),
                         (FadingSpec(kind="weibull_super", c=1.0, gamma=2.0), 2.0)):
            numeric = (f.log_mgf(theta + h) - f.log_mgf(theta - h)) / (2 * h)
            assert f.tilted_moments(theta)[0] == pytest.approx(numeric, rel=1e-4)

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
        assert f.tilted_moments(theta)[0] == pytest.approx(moment(1) / m0, rel=1e-10)

    @pytest.mark.parametrize("gamma, c", sorted(WEIBULL_LOG_MOMENTS))
    def test_weibull_log_moments_against_mpmath(self, gamma, c):
        f = FadingSpec(kind="weibull_super", c=c, gamma=gamma)
        thetas = np.array(WEIBULL_THETAS)
        log_m0 = f.log_mgf(thetas)
        log_m1 = log_m0 + np.log(f.tilted_moments(thetas)[0])
        for got, want in zip((log_m0, log_m1), map(np.array, WEIBULL_LOG_MOMENTS[gamma, c])):
            assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))

    def test_gauss_legendre_table(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(nodes[8:], fading._GL16_NODES)
        assert np.array_equal(weights[8:], fading._GL16_WEIGHTS)

    def test_weibull_tilts_past_the_old_quadrature(self):
        # at gamma = 1.2 the integrand's peak sits near z = (theta / 1.2)^5
        # with a relative width of about 1e-4: an adaptive quadrature that
        # does not look there misses it (mpmath values, snippet above)
        f = FadingSpec(kind="weibull_super", c=1.0, gamma=1.2)
        assert f.log_mgf(30.0) == pytest.approx(48828136.471445916, rel=1e-13)
        assert f.log_mgf(40.0) == pytest.approx(274348434.83106367, rel=1e-13)

    @pytest.mark.parametrize("f", [FadingSpec(kind="exponential", c=2.0),
                                   FadingSpec(kind="bounded", bound=2.0),
                                   FadingSpec(kind="weibull_super", c=1.0, gamma=1.5)])
    def test_transforms_map_arrays_elementwise(self, f):
        thetas = np.array([[0.0, 0.3], [1.2, 1.9]])
        for transform in transforms(f):
            got = transform(thetas)
            assert got.shape == thetas.shape
            want = [[transform(t) for t in row] for row in thetas]
            assert all(isinstance(v, float) for row in want for v in row)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("gamma", [1.2, 2.0, 3.0])
    def test_weibull_transforms_ignore_their_neighbours(self, gamma):
        # more tilts than one quadrature chunk holds: each value must equal
        # the one its tilt gets alone, to the bit
        f = FadingSpec(kind="weibull_super", c=1.0, gamma=gamma)
        thetas = np.geomspace(1e-3, 1e3, 2 * fading._QUAD_CHUNK + 37)
        np.random.default_rng(5).shuffle(thetas)
        for transform in transforms(f):
            np.testing.assert_array_equal(transform(thetas),
                                          [transform(t) for t in thetas])

    def test_tilted_mean_increasing_in_theta(self):
        f = FadingSpec(kind="weibull_super", c=1.0, gamma=2.0)
        means = [f.tilted_moments(th)[0] for th in (0.0, 1.0, 3.0, 10.0)]
        assert all(b > a for a, b in zip(means, means[1:]))

    @pytest.mark.parametrize("gamma, theta", sorted(WEIBULL_NEAR_ONE))
    def test_weibull_near_gamma_one_against_mpmath(self, gamma, theta):
        # theta z_m is 3.6e41 and 3.9e32 here: the exponent and the log MGF
        # must not subtract terms of that size
        f = FadingSpec(kind="weibull_super", c=1.0, gamma=gamma)
        log_m, mean, var = map(float, WEIBULL_NEAR_ONE[gamma, theta])
        got_mean, got_var = f.tilted_moments(theta)
        for got, want in ((f.log_mgf(theta), log_m), (got_mean, mean), (got_var, var)):
            assert got == pytest.approx(want, rel=1e-13)

    def test_weibull_log_mgf_where_the_mode_is_1e277(self):
        # gamma = 1.01: the mode search's start (2 theta / gamma)^100 lies 2^100
        # past the mode 2.4e277, so it must not be the start here.  The log
        # MGF at theta = 600 from mpmath at 100 digits, as WEIBULL_NEAR_ONE's
        # (130 digits agree to all 80 shown)
        f = FadingSpec(kind="weibull_super", c=1.0, gamma=1.01)
        want = float("1.4348864574134591265868973911455648160465236199741396676307111719851648902317137e+278")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f.log_mgf(600.0)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_weibull_mode_search_at_gamma_1_001(self, c):
        # below theta = c g the old start (2 theta / (c g))^1000 lay hundreds
        # of decades right of the mode, beyond 100 Newton steps; above it the
        # steps stalled in rounding noise of about eps z / (g - 1), over the
        # 1e-13 stop; and the variance passed the float range with an
        # overflow warning (c = 1, theta = 2.03)
        f = FadingSpec(kind="weibull_super", c=c, gamma=1.001)
        thetas = np.arange(0.05, 3.0, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_m = f.log_mgf(thetas)
            mean, var = f.tilted_moments(thetas)
            modes = [f._weibull_mode(thetas, k) for k in (0.0, -1.0)]
        finite = np.isfinite(log_m)
        assert finite[thetas < c * f.gamma].all()
        assert np.all(np.diff(log_m[finite]) > 0) and np.all(np.diff(mean[finite]) > 0)
        assert np.all(var[finite] > 0)
        for k, z in zip((0.0, -1.0), modes):
            on = np.isfinite(z)
            h = f.gamma + k + thetas[on] * z[on] - c * f.gamma * z[on] ** f.gamma
            assert np.all(np.abs(h) <= 1e-15 * (thetas[on] * z[on] + f.gamma))

    @pytest.mark.parametrize("gamma, inside, past", [
        (1.05, (1.0, 1e5), 1e20),  # the mode search's start overflows
        (8.0, (1.0, 1e200), 1e280),  # the mode is a float, (g - 1) theta z_m is not
    ])
    def test_weibull_past_the_float_range_reads_inf(self, gamma, inside, past):
        # every transform of a tilt past the float range is +inf, with no
        # warning, and the tilts beside it keep the bits of their scalar calls
        f = FadingSpec(kind="weibull_super", c=1.0, gamma=gamma)
        thetas = np.array([*inside, past])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (f.log_mgf(thetas), *f.tilted_moments(thetas))
            assert f.log_mgf(past) == math.inf
            assert f.tilted_moments(past) == (math.inf, math.inf)
            alone = [(f.log_mgf(t), *f.tilted_moments(t)) for t in inside]
        for values, column in zip(got, zip(*alone)):
            assert np.all(np.isfinite(column))
            np.testing.assert_array_equal(values, [*column, math.inf])

    @settings(max_examples=150, deadline=None)
    @given(gamma=st.floats(1.01, 8.0), log_theta=st.floats(-6.0, 7.0),
           log_ratio=st.floats(0.01, 1.0))
    def test_weibull_transforms_over_the_accepted_shapes(self, gamma, log_theta,
                                                         log_ratio):
        # theta z_m < 1e300, z_m below the start of the mode search
        # (2 theta / gamma)^(1 / (gamma - 1)): past that, log M is no float.
        # The second tilt is at least 2 % above the first, far beyond the
        # quadrature's rounding
        thetas = np.array([log_theta, min(log_theta + log_ratio, 7.0)])
        log_z = np.maximum(np.log10(2.0 / gamma) + thetas, 0.0) / (gamma - 1.0)
        assume(thetas[1] + log_z[1] < 300.0)
        f = FadingSpec(kind="weibull_super", c=1.0, gamma=gamma)
        log_m = f.log_mgf(10.0 ** thetas)
        mean, var = f.tilted_moments(10.0 ** thetas)
        assert np.all(np.isfinite(log_m) & np.isfinite(mean) & np.isfinite(var))
        assert np.all(var > 0.0)
        assert mean[1] >= mean[0]


# -- tilted draws -----------------------------------------------------------

# (spec, theta) cases for the tilted draws: bounded tilts theta B from 1e-3
# to 1e7, weibull_super shapes 1.2 to 3 up to theta = 3000, where the mode of
# the gamma = 1.2 law is about 1e17 and the law is about 1e-10 wide
TILTED_CASES = (
    [(FadingSpec(kind="bounded", bound=2.0, beta_a=a, beta_b=b), tb / 2.0)
     for a, b in ((2.0, 2.0), (1.0, 5.0), (3.0, 0.5))
     for tb in (1e-3, 1.0, 30.0, 3e3, 1e7)]
    + [(FadingSpec(kind="weibull_super", c=c, gamma=g), th)
       for g, c in ((1.2, 1.0), (2.0, 1.0), (3.0, 0.5))
       for th in (0.01, 1.0, 30.0, 3e3)]
    + [(FadingSpec(kind="exponential", c=2.0), th) for th in (0.5, 1.9)])
TILTED_DRAWS = 20_000


def case_id(case):
    spec, theta = case
    shape = {"bounded": f"a{spec.beta_a:g}b{spec.beta_b:g}",
             "weibull_super": f"g{spec.gamma:g}c{spec.c:g}", "exponential": ""}[spec.kind]
    return f"{spec.kind}{shape}-theta{theta:g}"


@lru_cache(maxsize=None)
def tilted_draws(spec, theta):
    return spec.sample_tilted(np.full(TILTED_DRAWS, theta),
                              RngStream(2026, TILTED_CASES.index((spec, theta))).generator())


def ks_pvalue(u, log_density, lower, upper):
    """One-sample KS p-value of the points ``u`` against the density
    exp(log_density) on (lower, upper), normalized and integrated here: the
    16-point Gauss-Legendre rule between consecutive order statistics, and
    adaptive quadrature on the two end pieces."""
    u = np.sort(u)
    x, w = np.polynomial.legendre.leggauss(16)
    a, b = u[:-1, None], u[1:, None]
    inner = ((b - a) / 2 * w * np.exp(log_density((a + b) / 2 + (b - a) / 2 * x))).sum(axis=1)

    def end(lo, hi):
        return integrate.quad(lambda v: math.exp(log_density(np.array([v]))[0]), lo, hi,
                              epsabs=1e-10, epsrel=1e-8, limit=200)[0]

    cdf = np.cumsum(np.concatenate(([end(lower, u[0])], inner)))
    cdf /= cdf[-1] + end(u[-1], upper)
    n = len(u)
    d = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    return stats.kstwo.sf(d, n)


def tilted_ks_pvalue(spec, theta, z):
    """KS p-value of tilted marks ``z`` against the tilted density, written
    here in coordinates where the law is about unit wide."""
    if spec.kind == "exponential":
        return stats.kstest(z, stats.expon(scale=1.0 / (spec.c - theta)).cdf).pvalue
    if spec.kind == "bounded":
        # v = 1 - z / B has density v^(b-1) (1 - v)^(a-1) e^(-t v), t = theta B;
        # in w = max(t, 1) v the bulk is about unit wide
        a, b, t = spec.beta_a, spec.beta_b, theta * spec.bound
        scale = max(t, 1.0)

        def log_density(w):
            v = w / scale
            with np.errstate(divide="ignore", invalid="ignore"):
                return (b - 1) * np.log(v) + (a - 1) * np.log1p(-v) - t * v
        return ks_pvalue(scale * (1.0 - z / spec.bound), log_density, 0.0, scale)
    # weibull_super: s = log z has density exp(g s + theta e^s - c e^(g s)).
    # Relative to its mode s_m = log z_m, where g + theta z_m = c g z_m^g,
    # the exponent is theta z_m phi(t) - c z_m^g phi(g t), t = s - s_m,
    # phi(u) = e^u - 1 - u; in units of the sample spread of t
    c, g = spec.c, spec.gamma
    log_zm = optimize.brentq(lambda r: g + theta * math.exp(r) - c * g * math.exp(g * r),
                             -50.0, 50.0, xtol=1e-15)
    zm = math.exp(log_zm)
    t = np.log(z) - log_zm
    spread = float(np.std(t))

    def phi(u):
        near = u * u / 2 * (1 + u / 3 * (1 + u / 4 * (1 + u / 5 * (1 + u / 6 * (1 + u / 7)))))
        with np.errstate(over="ignore"):
            return np.where(np.abs(u) < 1e-2, near, np.expm1(u) - u)

    def log_density(u):
        with np.errstate(over="ignore", invalid="ignore"):
            out = theta * zm * phi(spread * u) - c * zm ** g * phi(g * spread * u)
        return np.where(np.isnan(out), -np.inf, out)
    return ks_pvalue(t / spread, log_density, -np.inf, np.inf)


def table_draw(spec, theta, n, gen):
    """n tilted draws that invert a piecewise-linear CDF read at the midpoints
    of a 4096-cell grid on [0, 10 max(tilted mean, 1)]: a biased sampler,
    kept here to show that the tests below reject it."""
    top = 10.0 * max(spec.tilted_moments(theta)[0], 1.0)
    grid = top * (np.arange(4096) + 0.5) / 4096
    logd = spec.log_pdf(grid) + theta * grid
    cdf = np.cumsum(np.exp(logd - logd.max()))
    target = gen.random(n) * cdf[-1]
    cell = np.minimum(np.searchsorted(cdf, target, side="right"), 4095)
    below = np.where(cell > 0, cdf[cell - 1], 0.0)
    frac = (target - below) / np.maximum(cdf[cell] - below, 1e-300)
    return grid[-1] / (4095.5 / 4096) * (cell + frac) / 4096


class TestTiltedDraws:
    @pytest.mark.parametrize("case", TILTED_CASES, ids=case_id)
    def test_moments_match_tilted_mean_and_var(self, case):
        spec, theta = case
        z = tilted_draws(spec, theta)
        mean, var = spec.tilted_moments(theta)
        n = len(z)
        dev = z - z.mean()
        assert abs(z.mean() - mean) <= 4 * math.sqrt(var / n)
        # the sample variance's standard error, from the fourth central moment
        se_var = math.sqrt(max(np.mean(dev ** 4) - var * var, 0.0) / n)
        assert abs(np.mean(dev ** 2) - var) <= 4 * se_var

    @pytest.mark.parametrize("case", TILTED_CASES, ids=case_id)
    def test_ks_against_tilted_density(self, case):
        spec, theta = case
        assert tilted_ks_pvalue(spec, theta, tilted_draws(spec, theta)) > 1e-3

    def test_table_sampler_fails_the_ks_test(self):
        # the 4096-cell table sampler the estimator once used: at gamma = 1.2,
        # theta = 30 its variance is far too high, and the KS test sees it
        spec, theta = FadingSpec(kind="weibull_super", c=1.0, gamma=1.2), 30.0
        z = table_draw(spec, theta, TILTED_DRAWS, RngStream(2027).generator())
        assert tilted_ks_pvalue(spec, theta, z) < 1e-6
        assert tilted_ks_pvalue(spec, theta, tilted_draws(spec, theta)) > 1e-3

    @pytest.mark.parametrize("spec, theta", [
        (FadingSpec(kind="exponential", c=2.0), 1.3),
        (FadingSpec(kind="bounded", bound=2.0, beta_a=2.0, beta_b=3.0), 0.8),
        (FadingSpec(kind="bounded", bound=1.0), 40.0),
        (FadingSpec(kind="weibull_super", c=1.0, gamma=1.2), 2.0),
        (FadingSpec(kind="weibull_super", c=1.0, gamma=2.0), 5.0),
        (FadingSpec(kind="weibull_super", c=0.5, gamma=3.0), 30.0)])
    def test_tilted_var_is_second_difference_of_log_mgf(self, spec, theta):
        h = 1e-3 * theta
        second = (spec.log_mgf(theta + h) - 2 * spec.log_mgf(theta)
                  + spec.log_mgf(theta - h)) / (h * h)
        assert spec.tilted_moments(theta)[1] == pytest.approx(second, rel=1e-5)

    def test_zero_tilt_draws_the_law_itself(self):
        spec = FadingSpec(kind="weibull_super", c=1.0, gamma=2.0)
        theta = np.array([[0.0, 3.0], [0.0, 0.0]])
        z = spec.sample_tilted(np.broadcast_to(theta, (50_000, 2, 2)), gen(8))
        assert z.shape == (50_000, 2, 2)
        untilted = z[:, theta == 0.0].ravel()
        se = math.sqrt(spec.tilted_moments(0.0)[1] / len(untilted))
        assert abs(untilted.mean() - spec.mean()) <= 4 * se
        assert spec.tilted_moments(0.0)[1] == pytest.approx(
            math.gamma(2.0) - math.gamma(1.5) ** 2, rel=1e-14)

    @pytest.mark.parametrize("spec, theta, kind", [
        (FadingSpec(kind="bounded", bound=1.0), 0.01, "bounded"),
        (FadingSpec(kind="weibull_super", c=1.0, gamma=2.0), 1.0, "weibull_super")])
    def test_draw_cap_raises_with_diagnostics(self, spec, theta, kind, monkeypatch):
        # one round accepts about 60 % (bounded) or 80 % of the proposals
        monkeypatch.setattr(fading, "_DRAW_ROUNDS", 1)
        with pytest.raises(CapExceededError, match="cap") as exc:
            spec.sample_tilted(np.full(1000, theta), gen(9))
        diag = exc.value.diagnostics
        assert diag["kind"] == kind and diag["rounds"] == 1
        assert diag["proposals"] == 1000 and 0 < diag["pending"] < 1000
        assert diag["theta_pending_max"] == theta

    def test_weibull_draw_past_the_float_range_raises(self):
        f = FadingSpec(kind="weibull_super", c=1.0, gamma=1.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapExceededError, match="float range") as exc:
                f.sample_tilted(np.array([1.0, 1e20]), gen(3))
        assert exc.value.diagnostics["theta_max"] == 1e20

    def test_bounded_shape_below_one_is_refused(self):
        spec = FadingSpec(kind="bounded", bound=1.0, beta_a=0.5, beta_b=2.0)
        with pytest.raises(ValueError, match="beta_a"):
            spec.sample_tilted(np.array([1.0]), gen())
