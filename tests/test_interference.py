"""The network model and the attenuation."""
import numpy as np
import pytest

from ginibrenet.fading import FadingSpec
from ginibrenet.interference import NetworkModel, attenuation


def model(receiver=0j, radius=2.0, R=1.0, alpha=4.0):
    return NetworkModel(beta=1.0, radius=radius, receiver=receiver, atten_R=R,
                        atten_alpha=alpha, fading=FadingSpec(kind="exponential", c=1.0))


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


class TestModelValidation:
    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError, match="radius"):
            model(radius=0.0)

    def test_receiver_must_be_interior(self):
        with pytest.raises(ValueError, match="receiver"):
            model(receiver=2.0 + 0j)

    def test_alpha_must_exceed_two(self):
        with pytest.raises(ValueError, match="alpha"):
            model(alpha=2.0)
