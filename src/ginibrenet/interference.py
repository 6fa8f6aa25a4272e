"""Deterministic interference, SINR and success-threshold evaluation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fading import FadingSpec
from .patterns import PointPattern


@dataclass(frozen=True)
class DiskWindow:
    """The region Lambda of interfering nodes (closed disk)."""

    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("window radius must be positive")

    def contains(self, points) -> np.ndarray:
        return np.abs(np.asarray(points, dtype=complex) - self.center) <= self.radius


@dataclass(frozen=True)
class NetworkModel:
    """Full scenario: node process, receiver geometry, attenuation, fading,
    noise power and SINR threshold.

    The transmitter at the origin contributes only the useful signal; the
    interferers are the reduced Palm points of the node process inside the
    window.  The tail of I_Lambda depends on neither ``noise_w`` nor
    ``threshold_tau``: only ``sinr`` and ``success_threshold`` read them, and
    the experiment config leaves them at their defaults.
    """

    beta: float
    window: DiskWindow
    receiver: complex
    atten_R: float
    atten_alpha: float
    fading: FadingSpec
    noise_w: float = 1.0
    threshold_tau: float = 1.0

    def __post_init__(self):
        if not (0 < self.beta <= 1):
            raise ValueError("beta must lie in (0, 1]")
        if not self.atten_R > 0:
            raise ValueError("attenuation distance R must be positive")
        if not self.atten_alpha > 2:
            raise ValueError("attenuation exponent alpha must exceed 2")
        if not self.noise_w > 0:
            raise ValueError("noise power w must be positive")
        if not self.threshold_tau > 0:
            raise ValueError("SINR threshold tau must be positive")
        if abs(self.receiver - self.window.center) >= self.window.radius:
            raise ValueError("receiver must lie in the interior of the window")
        if abs(self.window.center) >= self.window.radius:
            raise ValueError("the origin must lie in the interior of the window")

    @property
    def r_alpha(self) -> float:
        """R^alpha, the scale constant of the attenuation plateau."""
        return self.atten_R ** self.atten_alpha

    def signal_gain(self) -> float:
        """L(y), attenuation between the origin transmitter and the receiver."""
        return attenuation(self.receiver, self.atten_R, self.atten_alpha)


@dataclass
class MarkedPattern:
    """A pattern together with one fading mark per point."""

    pattern: PointPattern
    marks: np.ndarray

    def __post_init__(self):
        self.marks = np.asarray(self.marks, dtype=float)
        if len(self.marks) != len(self.pattern.points):
            raise ValueError(
                f"marks/points length mismatch: {len(self.marks)} marks for "
                f"{len(self.pattern.points)} points")
        if np.any(self.marks < 0):
            raise ValueError("fading marks must be nonnegative")


def attenuation(x, R: float, alpha: float):
    """Ideal Hertzian path loss max(R, |x|)^(-alpha)."""
    if not R > 0:
        raise ValueError("R must be positive")
    if not alpha > 2:
        raise ValueError("alpha must exceed 2")
    d = np.abs(np.asarray(x, dtype=complex))
    out = np.maximum(R, d) ** (-alpha)
    return float(out) if out.ndim == 0 else out


def interference(marked: MarkedPattern, model: NetworkModel) -> float:
    """I_Lambda: sum of attenuated marks over the points inside the window,
    summed by ``_row_sum``, so exactly permutation invariant."""
    pts = marked.pattern.points
    if len(pts) == 0:
        return 0.0
    inside = model.window.contains(pts)
    if not np.any(inside):
        return 0.0
    gains = attenuation(model.receiver - pts[inside], model.atten_R, model.atten_alpha)
    return float(_row_sum(marked.marks[inside] * gains))


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, ascending and one term at a time, so a row's sum
    depends neither on the order of its terms nor on zeros among them."""
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-1])
    return np.sort(a, axis=-1).cumsum(axis=-1)[..., -1]


def sinr(z0: float, interference_value: float, model: NetworkModel) -> float:
    """Z0 L(y) / (w + I); the denominator is strictly positive since w > 0."""
    if z0 < 0 or interference_value < 0:
        raise ValueError("signal mark and interference must be nonnegative")
    return z0 * model.signal_gain() / (model.noise_w + interference_value)


def success_threshold(z0: float, model: NetworkModel) -> float:
    """Interference level below which decoding succeeds: z0 L(y)/tau - w.

    Negative values mean success is impossible at this signal mark.
    """
    return z0 * model.signal_gain() / model.threshold_tau - model.noise_w
