"""Fading (signal power) laws: sampling, survival functions and MGFs.

Five families are supported:

* ``bounded``       -- scaled Beta(a, b) on [0, B]; essential supremum exactly B.
* ``weibull_super`` -- survival exp(-c z^gamma) with gamma > 1 (light tail).
* ``exponential``   -- survival exp(-c z).
* ``weibull_sub``   -- survival exp(-c z^gamma) with gamma in (0, 1) (subexponential).
* ``pareto``        -- survival (1 + z)^(-c) (subexponential, logarithmic decay).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import CapExceededError, MgfDivergenceError

FADING_KINDS = ("bounded", "weibull_super", "exponential", "weibull_sub", "pareto")

# Kinds with an MGF finite on (at least) a right neighborhood of zero.
LIGHT_TAIL_KINDS = ("bounded", "weibull_super", "exponential")
# Kinds satisfying the subexponential log-survival scaling with exponent >= 0.
SUBEXPONENTIAL_KINDS = ("weibull_sub", "pareto")


@dataclass(frozen=True)
class FadingSpec:
    """Tagged union selecting the fading law and its parameters.

    ``bounded`` uses ``bound`` (the supremum B) plus a Beta shape pair
    ``(beta_a, beta_b)``; the Weibull/exponential/Pareto kinds use the decay
    constant ``c`` and, for the Weibull kinds, the shape ``gamma``.
    """

    kind: str
    bound: float = 1.0
    beta_a: float = 2.0
    beta_b: float = 2.0
    c: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in FADING_KINDS:
            raise ValueError(f"unknown fading kind {self.kind!r}")
        if self.kind == "bounded":
            if not (self.bound > 0):
                raise ValueError("bounded fading requires supremum B > 0")
            if not (self.beta_a > 0 and self.beta_b > 0):
                raise ValueError("Beta shape parameters must be positive")
        else:
            if not (self.c > 0):
                raise ValueError("fading decay constant c must be positive")
        if self.kind == "weibull_super" and not self.gamma > 1:
            raise ValueError("weibull_super requires gamma > 1")
        if self.kind == "weibull_sub" and not 0 < self.gamma < 1:
            raise ValueError("weibull_sub requires gamma in (0, 1)")

    # -- distribution functions -------------------------------------------

    def log_survival(self, z):
        """log P(Z > z), computed without underflow in the argument."""
        z = np.asarray(z, dtype=float)
        if self.kind == "bounded":
            sf = special.betainc(self.beta_b, self.beta_a, 1.0 - np.clip(z / self.bound, 0.0, 1.0))
            with np.errstate(divide="ignore"):
                out = np.where(z < 0, 0.0, np.log(sf))
            return out if out.ndim else float(out)
        if self.kind in ("weibull_super", "weibull_sub"):
            out = np.where(z <= 0, 0.0, -self.c * np.maximum(z, 0.0) ** self.gamma)
        elif self.kind == "exponential":
            out = -self.c * np.maximum(z, 0.0)
        else:  # pareto
            out = -self.c * np.log1p(np.maximum(z, 0.0))
        return out if out.ndim else float(out)

    def survival(self, z):
        """P(Z > z)."""
        return np.exp(self.log_survival(z))

    def log_pdf(self, z):
        """Log density, used for importance-sampling weights."""
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == "bounded":
                u = z / self.bound
                out = (
                    (self.beta_a - 1) * np.log(u)
                    + (self.beta_b - 1) * np.log1p(-u)
                    - special.betaln(self.beta_a, self.beta_b)
                    - math.log(self.bound)
                )
                out = np.where((z <= 0) | (z >= self.bound), -np.inf, out)
            elif self.kind in ("weibull_super", "weibull_sub"):
                out = (
                    math.log(self.c * self.gamma)
                    + (self.gamma - 1) * np.log(z)
                    - self.c * z ** self.gamma
                )
                out = np.where(z <= 0, -np.inf, out)
            elif self.kind == "exponential":
                out = math.log(self.c) - self.c * z
                out = np.where(z < 0, -np.inf, out)
            else:  # pareto
                out = math.log(self.c) - (self.c + 1) * np.log1p(z)
                out = np.where(z < 0, -np.inf, out)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        if self.kind == "bounded":
            return self.bound * self.beta_a / (self.beta_a + self.beta_b)
        if self.kind == "exponential":
            return 1.0 / self.c
        if self.kind in ("weibull_super", "weibull_sub"):
            return self.c ** (-1.0 / self.gamma) * math.gamma(1.0 + 1.0 / self.gamma)
        # pareto: finite only for c > 1
        return 1.0 / (self.c - 1.0) if self.c > 1 else math.inf

    # -- sampling ----------------------------------------------------------

    def sample(self, n, rng: np.random.Generator) -> np.ndarray:
        """i.i.d. draws, n of them or an array of shape n: inverse-CDF for the
        tail-parameterized kinds, Beta draws for the bounded kind."""
        if np.any(np.asarray(n) < 0):
            raise ValueError("sample size must be nonnegative")
        if self.kind == "bounded":
            return self.bound * rng.beta(self.beta_a, self.beta_b, size=n)
        u = rng.random(n)
        return self._inverse_survival_of_one_minus(u)

    def _inverse_survival_of_one_minus(self, u: np.ndarray) -> np.ndarray:
        # Maps uniforms through F^{-1}(u): survival(z) = 1 - u.
        e = -np.log1p(-u)  # Exp(1)
        if self.kind == "exponential":
            return e / self.c
        if self.kind in ("weibull_super", "weibull_sub"):
            return (e / self.c) ** (1.0 / self.gamma)
        if self.kind == "pareto":
            return np.expm1(e / self.c)
        raise ValueError(f"inverse-CDF sampling unsupported for {self.kind}")

    # -- moment generating function ---------------------------------------
    # The transforms map an array of tilts elementwise; a scalar gives a float.

    @property
    def mgf_abscissa(self) -> float:
        """Supremum of the tilts with a finite MGF: c for exponential marks,
        inf for bounded and weibull_super, 0 for the subexponential kinds."""
        if self.kind == "exponential":
            return self.c
        return math.inf if self.kind in LIGHT_TAIL_KINDS else 0.0

    def _tilts(self, theta) -> np.ndarray:
        """theta as an array, checked against the domain of the MGF."""
        theta = np.asarray(theta, dtype=float)
        if np.any(theta < 0):
            raise ValueError("theta must be nonnegative")
        diverge = (theta > 0) & (theta >= self.mgf_abscissa)
        if np.any(diverge):
            raise MgfDivergenceError(
                f"MGF divergence: {self.kind} fading has E[e^(theta Z)] = inf for "
                f"theta >= {self.mgf_abscissa} (got theta = {float(np.max(theta[diverge]))})")
        return theta

    def log_mgf(self, theta):
        """log E[exp(theta Z)]; raises MgfDivergenceError where infinite."""
        theta = self._tilts(theta)
        pos = theta[theta > 0]
        if self.kind == "bounded":
            # Kummer: M(a, s, t) = e^t M(b, s, -t), finite for every t
            t = pos * self.bound
            val = t + np.log(special.hyp1f1(self.beta_b, self.beta_a + self.beta_b, -t))
        elif self.kind == "exponential":
            val = np.log(self.c / (self.c - pos))
        else:
            val = self._weibull_tilt(pos)[0]
        return _at_positive(theta, val, 0.0)

    def mgf(self, theta):
        return np.exp(self.log_mgf(theta))

    def tilted_mean(self, theta):
        """Mean of the exponentially tilted law, d/dtheta log MGF."""
        theta = self._tilts(theta)
        pos = theta[theta > 0]
        if self.kind == "exponential":
            val = 1.0 / (self.c - pos)
        elif self.kind == "bounded":
            # B a/s M(a+1, s+1, t) / M(a, s, t); Kummer's e^t factors cancel
            s = self.beta_a + self.beta_b
            t = pos * self.bound
            num = self.beta_a / s * special.hyp1f1(self.beta_b, s + 1, -t)
            den = special.hyp1f1(self.beta_b, s, -t)
            val = self.bound * num / den
        else:
            val = self._weibull_tilt(pos)[1]
        return _at_positive(theta, val, self.mean())

    def _weibull_tilt(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log MGF, tilted mean) of ``weibull_super`` at positive tilts.

        In s = log z, E[Z^k e^(theta Z)] is the integral of
        c g exp((g + k) s + theta e^s - c e^(g s)): analytic in s, unimodal,
        and as narrow as 1e-8 wide at large tilts.  Each side of the k = 0
        mode s_m gets six Gauss-Legendre panels of 16 nodes, finest at the mode
        and doubling outwards, over a span of 2^j times the curvature scale
        at the mode, j the first at which the integrand has fallen by
        e^_QUAD_DROP.  Exponents are taken relative to the mode (expm1), so
        tilts where e^(theta z) overflows lose no precision, and both moments
        share the nodes, so the tilted mean is a weighted average of z.
        """
        c, g = self.c, self.gamma
        log_mgf, mean = np.empty(len(theta)), np.empty(len(theta))
        for lo in range(0, len(theta), _QUAD_CHUNK):
            th = theta[lo:lo + _QUAD_CHUNK]
            z = self._weibull_mode(th)
            tz, czg = th * z, c * z ** g

            def rel(t):  # exponent at s_m + t minus that at s_m, k = 0
                return g * t + tz[:, None] * np.expm1(t) - czg[:, None] * np.expm1(g * t)

            scale = 1.0 / np.sqrt((g - 1.0) * tz + g * g)
            spans = []
            for side in (-1.0, 1.0):
                with np.errstate(over="ignore", invalid="ignore"):
                    # rungs far past the first deep one can overflow to nan
                    deep = ~(rel(side * scale[:, None] * _QUAD_LADDER) > -_QUAD_DROP)
                spans.append(scale * _QUAD_LADDER[np.argmax(deep, axis=1)])
            span = np.where(_QUAD_NODES < 0, spans[0][:, None], spans[1][:, None])
            t = span * _QUAD_NODES
            w = span * _QUAD_WEIGHTS * np.exp(rel(t))
            total = w.sum(axis=1)
            log_mgf[lo:lo + _QUAD_CHUNK] = (math.log(c * g) + g * np.log(z) + tz - czg
                                            + np.log(total))
            mean[lo:lo + _QUAD_CHUNK] = z * (w * np.exp(t)).sum(axis=1) / total
        return log_mgf, mean

    def _weibull_mode(self, theta: np.ndarray) -> np.ndarray:
        """Mode z of z^g exp(theta z - c z^g): the root of
        h(z) = g + theta z - c g z^g, which is concave with h(0) > 0, so Newton
        from a point right of the root decreases to it monotonically.  Each
        entry stops on its own, so its mode does not depend on its neighbours."""
        c, g = self.c, self.gamma
        z = np.maximum((2.0 * theta / (c * g)) ** (1.0 / (g - 1.0)), (2.0 / c) ** (1.0 / g))
        act = np.arange(len(theta))
        for _ in range(_MODE_STEPS):
            th, za = theta[act], z[act]
            step = (g + th * za - c * g * za ** g) / (th - c * g * g * za ** (g - 1.0))
            z[act] = za = za - step
            moving = np.abs(step) > 1e-13 * za
            act, step, za = act[moving], step[moving], za[moving]
            if len(act) == 0:
                return z
        worst = int(np.argmax(np.abs(step) / za))
        raise CapExceededError(
            "weibull_super mode search did not converge",
            diagnostics={"c": c, "gamma": g, "theta": float(theta[act[worst]]),
                         "z": float(za[worst]), "last_step": float(step[worst]),
                         "steps": _MODE_STEPS, "entries_left": len(act)})


def _at_positive(theta: np.ndarray, val: np.ndarray, at_zero: float):
    """An array shaped like theta: ``val`` at its positive entries, ``at_zero``
    elsewhere; a float for a scalar theta."""
    out = np.full(theta.shape, at_zero)
    out[theta > 0] = val
    return out if out.ndim else float(out)


# the 16-point Gauss-Legendre rule on [-1, 1]: its positive nodes and their
# weights, as numpy.polynomial.legendre.leggauss(16) returns them (calling it
# at import would start LAPACK, about 1 MB of resident memory)
_GL16_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
               0.6178762444026438, 0.755404408355003, 0.8656312023878318,
               0.9445750230732326, 0.9894009349916499)
_GL16_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                 0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                 0.062253523938647456, 0.027152459411754176)


def _graded_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]: ``panels`` panels a side of 0, widths
    doubling away from 0, with the 16-point Gauss-Legendre rule on each."""
    edges = np.concatenate(([0.0], 2.0 ** np.arange(1 - panels, 1)))
    x = np.concatenate((-np.array(_GL16_NODES[::-1]), _GL16_NODES))
    w = np.concatenate((_GL16_WEIGHTS[::-1], _GL16_WEIGHTS))
    half, mid = np.diff(edges)[:, None] / 2, (edges[1:] + edges[:-1])[:, None] / 2
    nodes, weights = (mid + half * x).ravel(), (half * w).ravel()
    return np.concatenate((-nodes[::-1], nodes)), np.concatenate((weights[::-1], weights))


# weibull_super quadrature (``FadingSpec._weibull_tilt``): the graded rule
# scaled by each side's span, the span ladder, the drop that ends a span, the
# tilts done at once (node arrays of 400 kB) and the cap on Newton steps
# to the mode.  The log moments agree with mpmath to 1e-15 relative over theta
# in [1e-3, 1e3] and gamma in [1.2, 3] (tests/test_fading.py).
_QUAD_NODES, _QUAD_WEIGHTS = _graded_rule(6)
_QUAD_LADDER = 2.0 ** np.arange(48)
_QUAD_DROP = 50.0
_QUAD_CHUNK = 256
_MODE_STEPS = 100
