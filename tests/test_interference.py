"""The network model and the attenuation."""
import math

import numpy as np
import pytest

from ginibrenet.fading import FadingSpec
from ginibrenet.interference import NetworkModel, attenuation
from ginibrenet.rates import LdpRegime
from ginibrenet.spectral import DiskRestriction


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

    @pytest.mark.parametrize("kw", [
        {"radius": math.inf}, {"radius": math.nan}, {"R": math.inf},
        {"R": math.nan}, {"alpha": math.inf}, {"receiver": complex(math.nan, 0.0)},
    ], ids=["radius-inf", "radius-nan", "R-inf", "R-nan", "alpha-inf", "receiver-nan"])
    def test_non_finite_values_refused(self, kw):
        with pytest.raises(ValueError):
            model(**kw)


class TestDerivedObjects:
    def test_built_once_from_the_fields(self):
        m = model(receiver=0.5 + 0j, R=1.5, alpha=3.0)
        assert m.interferers == DiskRestriction(radius=2.0, beta=1.0, palm_shift=True)
        assert m.regime == LdpRegime(m.fading, 1.5, 3.0)
        assert m.interferers is m.interferers and m.regime is m.regime

    def test_frozen_hashable_and_equal_by_fields(self):
        # estimates are keyed by the model, so reading the derived objects
        # must change neither its hash nor its equality
        a, b = model(receiver=0.5 + 0j), model(receiver=0.5 + 0j)
        h = hash(a)
        _ = a.interferers, a.regime
        assert hash(a) == h == hash(b) and a == b
        assert len({a, b}) == 1
        assert a != model(receiver=0.25 + 0j)
        with pytest.raises(AttributeError):
            a.radius = 3.0
