"""Deterministic interference, SINR and threshold algebra."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginibrenet.fading import FadingSpec
from ginibrenet.interference import (DiskWindow, MarkedPattern, NetworkModel,
                                     attenuation, interference, sinr,
                                     success_threshold)
from ginibrenet.patterns import PointPattern


def model(receiver=0j, radius=2.0, R=1.0, alpha=4.0, w=1.0, tau=1.0):
    return NetworkModel(beta=1.0, window=DiskWindow(radius=radius),
                        receiver=receiver, atten_R=R, atten_alpha=alpha,
                        fading=FadingSpec(kind="exponential", c=1.0),
                        noise_w=w, threshold_tau=tau)


def marked(points, marks, radius=2.0):
    pat = PointPattern(points=np.asarray(points, complex),
                       window_radius=radius, process_kind="poisson",
                       beta=1.0, seed=0)
    return MarkedPattern(pat, np.asarray(marks, float))


class TestAttenuation:
    def test_plateau_and_decay(self):
        assert attenuation(0.5 + 0j, 1.0, 4.0) == 1.0
        assert attenuation(2.0 + 0j, 1.0, 4.0) == pytest.approx(2.0 ** -4)
        assert attenuation(0j, 2.0, 3.0) == pytest.approx(2.0 ** -3)

    def test_vectorized(self):
        out = attenuation(np.array([0j, 3 + 0j]), 1.0, 4.0)
        assert out.shape == (2,)
        assert out[0] == 1.0 and out[1] == pytest.approx(3.0 ** -4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            attenuation(0j, 0.0, 4.0)
        with pytest.raises(ValueError):
            attenuation(0j, 1.0, 2.0)


class TestInterference:
    def test_empty_pattern(self):
        assert interference(marked([], []), model()) == 0.0

    def test_single_point_hand_value(self):
        # one interferer at distance 1.5 from a receiver at the origin
        m = model()
        got = interference(marked([1.5 + 0j], [2.0]), m)
        assert got == pytest.approx(2.0 * 1.5 ** -4, rel=1e-14)

    def test_points_outside_window_ignored(self):
        m = model()
        inside_only = interference(marked([0.5 + 0j], [1.0], radius=5.0), m)
        with_outside = interference(marked([0.5 + 0j, 3 + 0j], [1.0, 7.0],
                                           radius=5.0), m)
        assert with_outside == inside_only

    @given(st.lists(st.tuples(st.floats(-1.9, 1.9), st.floats(-1.9, 1.9),
                              st.floats(0.0, 5.0)), min_size=2, max_size=8),
           st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, triples, pyrandom):
        pts = [complex(a, b) for a, b, _ in triples]
        marks = [z for _, _, z in triples]
        m = model()
        base = interference(marked(pts, marks), m)
        order = list(range(len(pts)))
        pyrandom.shuffle(order)
        shuffled = interference(marked([pts[i] for i in order],
                                       [marks[i] for i in order]), m)
        assert shuffled == base  # exactly equal, not approximately

    def test_monotone_in_marks(self):
        m = model()
        lo = interference(marked([0.5 + 0j, 1 + 1j], [1.0, 1.0]), m)
        hi = interference(marked([0.5 + 0j, 1 + 1j], [1.0, 2.0]), m)
        assert hi > lo

    def test_mark_validation(self):
        with pytest.raises(ValueError, match="mismatch"):
            marked([0j], [1.0, 2.0])
        with pytest.raises(ValueError, match="nonnegative"):
            marked([0j], [-1.0])


class TestSinr:
    def test_hand_value(self):
        m = model(receiver=0.5 + 0j, w=2.0)
        # signal gain is 1 on the plateau
        assert sinr(3.0, 1.0, m) == pytest.approx(1.0)

    def test_success_threshold_consistency(self):
        m = model(receiver=0.5 + 0j, w=1.0, tau=2.0)
        z0 = 5.0
        thr = success_threshold(z0, m)
        # SINR exceeds tau exactly when interference is below the threshold
        assert sinr(z0, thr - 1e-9, m) > m.threshold_tau
        assert sinr(z0, thr + 1e-9, m) < m.threshold_tau

    def test_negative_threshold_means_impossible(self):
        m = model(receiver=0.5 + 0j, w=1.0, tau=10.0)
        assert success_threshold(0.1, m) < 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sinr(-1.0, 0.0, model())
        with pytest.raises(ValueError):
            sinr(1.0, -0.5, model())


class TestModelValidation:
    def test_receiver_must_be_interior(self):
        with pytest.raises(ValueError, match="receiver"):
            model(receiver=2.0 + 0j)

    def test_alpha_must_exceed_two(self):
        with pytest.raises(ValueError, match="alpha"):
            model(alpha=2.0)

    def test_signal_gain(self):
        assert model(receiver=0.5 + 0j).signal_gain() == 1.0
        assert model(receiver=1.5 + 0j).signal_gain() == pytest.approx(1.5 ** -4)
