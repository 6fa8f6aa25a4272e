"""Tail estimators: exactness, consistency between variants, reproducibility."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from ginibrenet import estimation
from ginibrenet import fading as fading_module
from ginibrenet.errors import CapExceededError
from ginibrenet.estimation import (TILT_DOUBLINGS, TailEstimate, _jump_values,
                                   _pattern_tilt, _single_jump,
                                   dominating_event_probe,
                                   estimate_interference_tail,
                                   speed_regression, subexp_sum_ratio)
from ginibrenet.fading import FadingSpec
from ginibrenet.interference import NetworkModel, _row_sum
from ginibrenet.patterns import RngStream
from ginibrenet.rates import limit_constant
from ginibrenet.samplers import sample_block
from ginibrenet.spectral import DiskRestriction, log_count_tail, trace_bound


def model(kind="exponential", receiver=0j, **fkw):
    return NetworkModel(beta=1.0, radius=2.0, receiver=receiver,
                        atten_R=1.0, atten_alpha=4.0,
                        fading=FadingSpec(kind=kind, **fkw))


def agree(a, b):
    """Two independent estimates within 3 combined standard errors."""
    return abs(a.probability - b.probability) <= 3 * math.hypot(a.stderr, b.stderr)


TILT_FADINGS = [FadingSpec(kind="exponential", c=1.0),
                FadingSpec(kind="bounded", bound=1.0, beta_a=2.0, beta_b=3.0),
                FadingSpec(kind="weibull_super", c=1.0, gamma=2.0)]


def tilt_level(fading, gain_sum, excess):
    """A level above the untilted mean of sum L Z, and below B sum L for
    bounded marks."""
    if fading.kind == "bounded":
        return (fading.mean() + excess / 4 * (fading.bound - fading.mean())) * gain_sum
    return fading.mean() * gain_sum * (1 + excess)


def scalar_tilt(fading, gains, x):
    """The tilt of one pattern by brentq on the gap summed a mark at a time."""
    if fading.kind == "exponential":
        def gap(theta):
            return sum(g / (fading.c - theta * g) for g in gains) - x
        hi = fading.c / max(gains) * (1 - 1e-12)
    else:
        def gap(theta):
            return sum(fading.tilted_moments(theta * g)[0] * g for g in gains) - x
        hi = 1.0 / max(gains)
        while gap(hi) < 0:
            hi *= 2.0
    return optimize.brentq(gap, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)


class TestCountTail:
    def test_exact_matches_monte_carlo(self):
        restriction = DiskRestriction(radius=2.0)
        counts = np.array([len(pts) for pts in sample_block(
            DiskRestriction(radius=2.0, beta=1.0), RngStream(60), 10_000)])
        for m in (2, 4, 6):
            exact = math.exp(log_count_tail(restriction, m))
            emp = float(np.mean(counts >= m))
            se = math.sqrt(emp * (1 - emp) / len(counts))
            assert abs(exact - emp) <= 3 * se + 1e-12

    def test_trivial_cases(self):
        restriction = DiskRestriction(radius=1.0)
        assert log_count_tail(restriction, 0) == 0.0
        with pytest.raises(ValueError):
            log_count_tail(restriction, -1)


class TestEstimatorConsistency:
    def test_reproducible_given_seed(self):
        m = model()
        a = estimate_interference_tail(m, 3.0, 300, "tilted", RngStream(71))
        b = estimate_interference_tail(m, 3.0, 300, "tilted", RngStream(71))
        assert a.probability == b.probability and a.stderr == b.stderr
        pm = model(kind="pareto", c=2.0)
        assert (subexp_sum_ratio(pm, [5.0, 10.0], 300, RngStream(71))
                == subexp_sum_ratio(pm, [5.0, 10.0], 300, RngStream(71)))
        assert (dominating_event_probe(m, 1.0, 1.0, RngStream(71), n_reps=300)
                == dominating_event_probe(m, 1.0, 1.0, RngStream(71), n_reps=300))

    def test_tilted_matches_crude_within_error(self):
        m = model()
        crude = estimate_interference_tail(m, 4.0, 30_000, "crude", RngStream(72))
        tilted = estimate_interference_tail(m, 4.0, 4000, "tilted", RngStream(73))
        tol = 3 * (crude.stderr + tilted.stderr)
        assert abs(crude.probability - tilted.probability) <= tol

    def test_single_jump_matches_crude_within_error(self):
        m = model(kind="pareto", c=2.0)
        crude = estimate_interference_tail(m, 8.0, 30_000, "crude", RngStream(74))
        sj = estimate_interference_tail(m, 8.0, 8000, "single_jump", RngStream(75))
        tol = 3 * (crude.stderr + sj.stderr)
        assert abs(crude.probability - sj.probability) <= tol

    def test_monotone_in_x_with_ci_widening(self):
        m = model()
        ests = [estimate_interference_tail(m, x, 3000, "tilted", RngStream(76, i))
                for i, x in enumerate((2.0, 4.0, 6.0))]
        for a, b in zip(ests, ests[1:]):
            assert b.probability <= a.probability + 3 * (a.stderr + b.stderr)

    def test_estimator_fading_compatibility(self):
        with pytest.raises(ValueError, match="tilted"):
            estimate_interference_tail(model(kind="pareto", c=2.0), 1.0, 10,
                                       "tilted", RngStream(0))
        with pytest.raises(ValueError, match="single_jump"):
            estimate_interference_tail(model(kind="bounded"), 1.0, 10,
                                       "single_jump", RngStream(0))
        with pytest.raises(ValueError, match="unknown estimator"):
            estimate_interference_tail(model(), 1.0, 10, "mlmc", RngStream(0))

    def test_tilted_refuses_bounded_shape_below_one(self):
        # the tilted Beta draw proposes from a Gamma law in 1 - z / B and
        # accepts with probability (1 - v)^(a - 1), which needs a >= 1
        with pytest.raises(ValueError, match="beta_a"):
            estimate_interference_tail(model(kind="bounded", beta_a=0.5), 1.2, 10,
                                       "tilted", RngStream(0))

    def test_zero_hit_flagged(self):
        est = estimate_interference_tail(model(), 500.0, 50, "crude", RngStream(77))
        assert est.probability == 0.0
        assert est.log_probability == -math.inf
        assert est.diagnostics.get("zero_hits") == 1.0

    def test_unknown_estimator_name_in_record(self):
        with pytest.raises(ValueError):
            TailEstimate(probability=0.5, stderr=0.0, ci95=(0.5, 0.5),
                         n_reps=1, estimator="bogus", log_probability=-0.7)


class TestTiltBracket:
    def test_bracket_cap_raises_with_diagnostics(self):
        class Saturating:
            """A tilted mean that climbs towards 1 and never reaches it."""
            kind = "saturating"

            def mean(self):
                return 0.5

            def tilted_moments(self, theta):  # the tilted mean and its slope
                return 1.0 - 0.5 / (1.0 + theta), 0.5 / (1.0 + theta) ** 2

        with pytest.raises(CapExceededError, match="bracket") as exc:
            _pattern_tilt(Saturating(), np.array([[1.0, 0.5]]), 1.5)
        assert exc.value.diagnostics["doublings"] == TILT_DOUBLINGS
        assert exc.value.diagnostics["theta_hi"] >= 2.0 ** TILT_DOUBLINGS

    def test_bounded_level_at_the_supremum_raises(self):
        # the tilted Beta mean stays below B at every finite tilt, so the
        # level B * sum(gains) is never bracketed
        fading = FadingSpec(kind="bounded", bound=1.0)
        with pytest.raises(CapExceededError, match="bracket") as exc:
            _pattern_tilt(fading, np.array([[1.0, 0.5]]), 1.5)
        assert exc.value.diagnostics["doublings"] == TILT_DOUBLINGS

    def test_weibull_tilted_near_gamma_one_at_tilts_past_100(self):
        # at gamma = 1.05 the tilted mean is 3.77e39 at theta = 100, so a
        # plateau gain needs theta >= 100 at x = 1e40; the Newton start from
        # 0 lands near theta = 1e40, where the transforms leave the floats
        fading = FadingSpec(kind="weibull_super", c=1.0, gamma=1.05)
        theta = _pattern_tilt(fading, np.array([[1.0, 0.5, 0.0]]), 1e40)
        assert theta[0] >= 100.0
        gains = np.array([1.0, 0.5])
        assert np.sum(fading.tilted_moments(theta[0] * gains)[0] * gains) == \
            pytest.approx(1e40, rel=1e-12)
        # the tail exp(-(1e40)^1.05) underflows, so every weight is 0
        est = estimate_interference_tail(model(kind="weibull_super", c=1.0, gamma=1.05),
                                         1e40, 200, "tilted", RngStream(98))
        assert est.probability == 0.0 and est.diagnostics["zero_hits"] == 1.0

    def test_bounded_tilted_at_large_tilts(self):
        # some patterns need theta B past ~710, where the Beta MGF overflowed
        m = model(kind="bounded", bound=1.0)
        tilted = estimate_interference_tail(m, 1.2, 400, "tilted", RngStream(5))
        crude = estimate_interference_tail(m, 1.2, 40_000, "crude", RngStream(6))
        assert tilted.probability > 0.0
        assert abs(tilted.probability - crude.probability) <= 3 * (tilted.stderr
                                                                   + crude.stderr)


class TestBatchedKernels:
    @given(fading=st.sampled_from(TILT_FADINGS),
           rows=st.lists(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=30),
                         min_size=1, max_size=3),
           excess=st.floats(0.05, 3.6))
    @settings(max_examples=60, deadline=None)
    def test_tilt_rows_match_scalar_brentq(self, fading, rows, excess):
        gains = np.zeros((len(rows), max(map(len, rows))))
        for out, row in zip(gains, rows):
            out[:len(row)] = row
        x = tilt_level(fading, min(map(sum, rows)), excess)
        theta = _pattern_tilt(fading, gains, x)
        for th, row in zip(theta, rows):
            ratio = fading.mean() * sum(row) / x
            if ratio >= 1.0:
                assert th == 0.0
            elif ratio < 0.95:  # farther from the untilted mean the root is well conditioned
                assert th == pytest.approx(scalar_tilt(fading, row, x), rel=1e-9)

    @given(fading=st.sampled_from(TILT_FADINGS + [FadingSpec(kind="pareto", c=2.0)]),
           gains=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=12),
           pad=st.integers(0, 6), excess=st.floats(0.05, 3.6),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_padding_and_order_leave_a_row_unchanged(self, fading, gains, pad,
                                                     excess, seed):
        rng = np.random.default_rng(seed)
        gains = np.array(gains)
        marks = fading.sample(len(gains), rng)
        # the same pattern again, with zero-gain columns and shuffled
        order = rng.permutation(len(gains) + pad)
        other_gains = np.concatenate((gains, np.zeros(pad)))[order]
        other_marks = np.concatenate((marks, fading.sample(pad, rng)))[order]
        block = np.zeros((2, len(gains) + pad))
        block[0, :len(gains)] = gains
        block[1] = other_gains
        x = tilt_level(fading, gains.sum(), excess)
        levels = np.array([0.5 * x, x, 2.0 * x])

        def kernels(g, z):
            out = [_row_sum(z * g), _jump_values(fading, z * g, g, levels)]
            if fading.kind != "pareto":
                out.append(_pattern_tilt(fading, g, x))
            return out

        alone = kernels(gains[None, :], marks[None, :])
        shuffled = kernels(other_gains[None, :], other_marks[None, :])
        in_block = kernels(block, np.vstack((np.pad(marks, (0, pad)), other_marks)))
        for a, b, both in zip(alone, shuffled, in_block):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(np.concatenate((a, a)), both)

    @given(n=st.integers(fading_module._QUAD_CHUNK // 2 + 1, fading_module._QUAD_CHUNK),
           excess=st.floats(0.05, 3.6), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_weibull_tilt_of_a_row_ignores_its_block(self, n, excess, seed):
        # a block of more than _QUAD_CHUNK positive gains: the row's tilted
        # moments are taken in other quadrature chunks than when it is alone
        fading = TILT_FADINGS[2]
        rng = np.random.default_rng(seed)
        gains = rng.uniform(1e-3, 1.0, n)
        block = np.vstack((rng.uniform(1e-3, 1.0, n), gains[rng.permutation(n)]))
        x = tilt_level(fading, gains.sum(), excess)

        def tilt_and_log_mgf(g):  # the row's tilt and its marks' log-MGFs
            theta = _pattern_tilt(fading, g, x)
            return theta, np.sort(fading.log_mgf(theta[:, None] * g), axis=1)

        for alone, in_block in zip(tilt_and_log_mgf(gains[None, :]),
                                   tilt_and_log_mgf(block)):
            np.testing.assert_array_equal(in_block[1:], alone)


class TestOffCentreAndWeibull:
    """Estimator pairs through the DPP path (receiver off the window centre)
    and the centred weibull_super tilt."""

    def test_off_centre_exponential_tilted_matches_crude(self):
        m = model(receiver=0.5 + 0j)
        crude = estimate_interference_tail(m, 3.0, 6000, "crude", RngStream(91))
        tilted = estimate_interference_tail(m, 3.0, 1500, "tilted", RngStream(92))
        assert agree(crude, tilted)

    def test_off_centre_pareto_single_jump_matches_crude(self):
        m = model(kind="pareto", receiver=0.5 + 0j, c=2.0)
        crude = estimate_interference_tail(m, 8.0, 6000, "crude", RngStream(93))
        sj = estimate_interference_tail(m, 8.0, 1500, "single_jump", RngStream(94))
        assert agree(crude, sj)

    def test_weibull_tilted_matches_crude(self):
        m = model(kind="weibull_super", c=1.0, gamma=2.0)
        crude = estimate_interference_tail(m, 2.5, 40_000, "crude", RngStream(95))
        tilted = estimate_interference_tail(m, 2.5, 3000, "tilted", RngStream(96))
        assert agree(crude, tilted)

    def test_tilted_reports_weight_concentration(self):
        est = estimate_interference_tail(model(), 6.0, 500, "tilted", RngStream(97))
        share, ess = est.diagnostics["max_weight_share"], est.diagnostics["ess"]
        # sum w^2 <= max w sum w, so ESS >= 1 / share
        assert 0.0 < share <= 1.0 and share * ess >= 1.0 - 1e-12
        crude = estimate_interference_tail(model(), 1.0, 50, "crude", RngStream(97))
        assert "max_weight_share" not in crude.diagnostics


class TestSolveCaps:
    def test_false_position_cap_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(estimation, "_ROOT_STEPS", 1)
        with pytest.raises(CapExceededError, match="converge") as exc:
            _pattern_tilt(FadingSpec(kind="exponential"), np.array([[1.0, 0.5]]), 5.0)
        assert exc.value.diagnostics["steps"] == 1
        assert exc.value.diagnostics["rows_left"] == 1

    def test_weibull_mode_cap_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(fading_module, "_MODE_STEPS", 1)
        with pytest.raises(CapExceededError, match="mode") as exc:
            FadingSpec(kind="weibull_super", c=1.0, gamma=2.0).log_mgf(3.0)
        assert exc.value.diagnostics["steps"] == 1


class TestSpeedRegression:
    def test_degenerate_grid_rejected(self):
        m = model()
        with pytest.raises(ValueError):
            speed_regression(m, [2.0, 3.0], 100, "crude", RngStream(0))
        with pytest.raises(ValueError, match="increasing"):
            speed_regression(m, [3.0, 2.0, 4.0], 100, "crude", RngStream(0))

    def test_zero_hit_points_dropped(self):
        m = model()
        report = speed_regression(m, [2.0, 3.0, 4.0, 300.0], 800, "crude",
                                  RngStream(80))
        assert 300.0 in report.dropped_points
        assert len(report.x_grid) == 3

    def test_all_points_dead_is_error(self):
        m = model()
        with pytest.raises(ValueError, match="at least 3"):
            speed_regression(m, [200.0, 300.0, 400.0], 50, "crude", RngStream(81))

    @pytest.mark.parametrize("kind, fkw, R, grid", [
        ("exponential", {"c": 2.0}, 1.5, [0.5, 1.0, 1.5]),
        ("pareto", {"c": 2.0}, 1.0, [2.0, 5.0, 10.0]),
    ], ids=["exponential", "pareto"])
    def test_target_is_the_model_regime_limit(self, kind, fkw, R, grid):
        # the slope's target comes from the model itself, so it cannot be
        # that of another fading or attenuation
        m = NetworkModel(beta=1.0, radius=2.0, receiver=0j, atten_R=R,
                         atten_alpha=3.0, fading=FadingSpec(kind=kind, **fkw))
        report = speed_regression(m, grid, 400, "single_jump", RngStream(82))
        assert report.target_slope == limit_constant(m.regime)


class TestSubexpRatio:
    def test_requires_subexponential_fading(self):
        with pytest.raises(ValueError, match="subexponential"):
            subexp_sum_ratio(model(), [1.0, 2.0], 100, RngStream(0))

    def test_small_x_diagnostic_only(self):
        # near zero the asymptotic formula is inapplicable; the value is a
        # diagnostic and only its finiteness/positivity is guaranteed
        m = model(kind="pareto", c=2.0)
        ratios = subexp_sum_ratio(m, [0.01], 2000, RngStream(82))
        assert ratios[0] > 0.0 and not (ratios[0] != ratios[0])

    def test_sum_tail_matches_crude_within_error(self):
        # with R = 2 every in-window gain is 2^-4, so I >= x / 16 is exactly
        # sum Z >= x, and the single-jump estimate of that event is
        # subexp_sum_ratio's p-hat.  At sum Z >= 8 two marks often pass x / 2:
        # an estimator that splits on one mark beyond x / 2 counts those
        # patterns twice and lands 4.8 combined stderrs above crude here
        m = NetworkModel(beta=1.0, radius=2.0, receiver=0j,
                         atten_R=2.0, atten_alpha=4.0,
                         fading=FadingSpec(kind="pareto", c=2.0))
        e_n = trace_bound(DiskRestriction(radius=2.0, palm_shift=True))
        for x in (8.0, 30.0):
            p_hat = (subexp_sum_ratio(m, [x], 4000, RngStream(86))[0]
                     * e_n * float(m.fading.survival(x)))
            sj = estimate_interference_tail(m, x / 16, 4000, "single_jump",
                                            RngStream(86))
            assert p_hat == pytest.approx(sj.probability, rel=1e-12)
            crude = estimate_interference_tail(m, x / 16, 40_000, "crude",
                                               RngStream(87))
            assert abs(p_hat - crude.probability) <= 3 * math.hypot(sj.stderr,
                                                                    crude.stderr)


class TestSingleJumpEvaluator:
    @given(gains=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
           levels=st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=6,
                           unique=True),
           fading=st.sampled_from([FadingSpec(kind="pareto", c=2.0),
                                   FadingSpec(kind="weibull_sub", c=1.0, gamma=0.5),
                                   FadingSpec(kind="exponential", c=1.0)]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_row_in_range_nonincreasing_and_exact_for_one_mark(self, gains, levels,
                                                              fading, seed):
        x_grid = np.array(sorted(levels))
        gains = np.array(gains)
        row = _single_jump(fading, x_grid, lambda d: d)(
            gains[None, :], np.random.default_rng(seed))[0]
        assert np.all(np.diff(row) <= 0.0)
        assert np.all((row >= 0.0) & (row <= len(gains)))
        if len(gains) == 1:
            assert np.array_equal(row, fading.survival(x_grid / gains[0]))


class TestDominatingEventProbe:
    def test_receiver_near_boundary_rejected(self):
        m = NetworkModel(beta=1.0, radius=2.0,
                         receiver=1.999 + 0j, atten_R=1.0, atten_alpha=4.0,
                         fading=FadingSpec(kind="exponential", c=1.0))
        with pytest.raises(ValueError, match="boundary"):
            dominating_event_probe(m, 1.0, 1.0, RngStream(0), n_reps=10)

    def test_exponential_probe_fields(self):
        probe = dominating_event_probe(model(), 1.0, 1.0, RngStream(83),
                                       n_reps=2000)
        assert probe.block_n == 1
        assert 0.0 < probe.ball_radius <= 0.99
        assert 0.0 <= probe.p_block <= 1.0
        assert 0.0 <= probe.p_single <= 1.0


class TestCrudeUnbiasedness:
    def test_mean_of_crude_estimates_matches_tilted(self):
        m = model()
        x = 4.0
        crude_means = [estimate_interference_tail(m, x, 600, "crude",
                                                  RngStream(84, i)).probability
                       for i in range(100)]
        pooled = float(np.mean(crude_means))
        pooled_se = float(np.std(crude_means) / math.sqrt(len(crude_means)))
        tilted = estimate_interference_tail(m, x, 6000, "tilted", RngStream(85))
        assert abs(pooled - tilted.probability) <= 3 * (pooled_se + tilted.stderr)
