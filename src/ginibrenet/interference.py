"""The network model and the attenuation that turns distances into interference."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fading import FadingSpec


@dataclass(frozen=True)
class NetworkModel:
    """Full scenario: node process, receiver geometry, attenuation and fading.

    The transmitter at the origin contributes only the useful signal; the
    interferers are the reduced Palm points of the node process inside the
    window b(0, radius).
    """

    beta: float
    radius: float
    receiver: complex
    atten_R: float
    atten_alpha: float
    fading: FadingSpec

    def __post_init__(self):
        if not (0 < self.beta <= 1):
            raise ValueError("beta must lie in (0, 1]")
        if not self.atten_R > 0:
            raise ValueError("attenuation distance R must be positive")
        if not self.atten_alpha > 2:
            raise ValueError("attenuation exponent alpha must exceed 2")
        if not self.radius > 0:
            raise ValueError("window radius must be positive")
        if abs(self.receiver) >= self.radius:
            raise ValueError("receiver must lie in the interior of the window")

    @property
    def r_alpha(self) -> float:
        """R^alpha, the scale constant of the attenuation plateau."""
        return self.atten_R ** self.atten_alpha


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
