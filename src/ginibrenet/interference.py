"""The network model and the attenuation that turns distances into interference."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fading import FadingSpec
from .rates import LdpRegime
from .spectral import DiskRestriction


@dataclass(frozen=True)
class NetworkModel:
    """Full scenario: node process, receiver geometry, attenuation and fading.

    The transmitter at the origin contributes only the useful signal; the
    interferers are the reduced Palm points of the node process inside the
    window b(0, radius).  ``interferers`` and ``regime`` are built, and so
    check beta, radius, R and alpha, at construction.
    """

    beta: float
    radius: float
    receiver: complex
    atten_R: float
    atten_alpha: float
    fading: FadingSpec

    def __post_init__(self):
        _ = self.interferers, self.regime
        if not abs(self.receiver) < self.radius:
            raise ValueError("receiver must lie in the interior of the window")

    @cached_property
    def interferers(self) -> DiskRestriction:
        """The window b(0, radius) under the reduced Palm kernel, thinned by
        beta: by Kostlan's theorem, independent radial terms."""
        return DiskRestriction(radius=self.radius, beta=self.beta, palm_shift=True)

    @cached_property
    def regime(self) -> LdpRegime:
        """The tail regime set by the fading law and (R, alpha)."""
        return LdpRegime(self.fading, self.atten_R, self.atten_alpha)


def attenuation(x, R: float, alpha: float):
    """Ideal Hertzian path loss max(R, |x|)^(-alpha)."""
    if not R > 0:
        raise ValueError("R must be positive")
    if not alpha > 2:
        raise ValueError("alpha must exceed 2")
    d = np.abs(np.asarray(x))
    out = np.maximum(R, d) ** (-alpha)
    return float(out) if out.ndim == 0 else out


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, ascending and one term at a time, so a row's sum
    depends neither on the order of its terms nor on zeros among them."""
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    return np.sort(a, axis=-1).cumsum(axis=-1)[..., -1]
