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
from scipy import integrate, special

from .errors import MgfDivergenceError

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

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. draws: inverse-CDF for the tail-parameterized kinds,
        Beta draws for the bounded kind."""
        if n < 0:
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

    def log_mgf(self, theta: float) -> float:
        """log E[exp(theta Z)]; raises MgfDivergenceError where infinite."""
        if theta < 0:
            raise ValueError("theta must be nonnegative")
        if theta == 0:
            return 0.0
        if self.kind == "bounded":
            # Kummer: M(a, s, t) = e^t M(b, s, -t), finite for every t
            t = theta * self.bound
            return t + math.log(special.hyp1f1(self.beta_b, self.beta_a + self.beta_b, -t))
        if self.kind == "exponential":
            if theta >= self.c:
                raise MgfDivergenceError(
                    f"MGF divergence: exponential fading has E[e^(theta Z)] = inf "
                    f"for theta >= c = {self.c} (got theta = {theta})")
            return math.log(self.c / (self.c - theta))
        if self.kind == "weibull_super":
            return self._weibull_log_mgf_moment(theta, order=0)
        raise MgfDivergenceError(
            f"MGF divergence: {self.kind} fading has no finite MGF for theta > 0")

    def mgf(self, theta: float) -> float:
        return math.exp(self.log_mgf(theta))

    def tilted_mean(self, theta: float) -> float:
        """Mean of the exponentially tilted law, d/dtheta log MGF."""
        if theta == 0:
            return self.mean()
        if self.kind == "exponential":
            self.log_mgf(theta)  # divergence check
            return 1.0 / (self.c - theta)
        if self.kind == "bounded":
            # B a/s M(a+1, s+1, t) / M(a, s, t); Kummer's e^t factors cancel
            s = self.beta_a + self.beta_b
            t = theta * self.bound
            num = self.beta_a / s * special.hyp1f1(self.beta_b, s + 1, -t)
            den = special.hyp1f1(self.beta_b, s, -t)
            return float(self.bound * num / den)
        if self.kind == "weibull_super":
            lm0 = self._weibull_log_mgf_moment(theta, order=0)
            lm1 = self._weibull_log_mgf_moment(theta, order=1)
            return math.exp(lm1 - lm0)
        raise MgfDivergenceError(
            f"MGF divergence: {self.kind} fading has no finite MGF for theta > 0")

    def _weibull_log_mgf_moment(self, theta: float, order: int) -> float:
        """log of E[Z^order exp(theta Z)] for the superexponential Weibull,
        evaluated with the exponent peak factored out so large tilts do not
        overflow."""
        c, g = self.c, self.gamma
        # peak of theta z - c z^g
        zstar = (theta / (c * g)) ** (1.0 / (g - 1.0))
        mstar = theta * zstar - c * zstar ** g

        def integrand(z):
            return c * g * z ** (g - 1.0 + order) * np.exp(theta * z - c * z ** g - mstar)

        upper = zstar + 20.0 * max(zstar, 1.0)
        val, _ = integrate.quad(integrand, 0.0, upper, points=[zstar], limit=200)
        return mstar + math.log(val)
