"""Closed-form rate functions, speeds, tail asymptotes and proof constants.

Four regimes, driven by the fading family:

========================  =======================================================
bounded                   speed (1/e^2) log(1/e),     rate R^(2a) x^2 / (2 B^2)
weibull_super (g > 1)     speed e^(-2g/(g+1)) log^((g-1)/(g+1))(1/e), rate below
exponential               speed 1/e,                  rate c R^a x
subexp_family (g >= 0)    speed -log Fbar(1/e),       rate R^(a g) x^g (0 at 0)
========================  =======================================================

The Weibull rate constant is
(1/2) R^(2ag/(g+1)) (g/(g-1))^((g-1)/(g+1)) (c(g+1))^(2/(g+1)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .fading import FadingSpec

_KIND_FOR_FADING = {
    "bounded": "bounded",
    "weibull_super": "weibull_super",
    "exponential": "exponential",
    "weibull_sub": "subexp_family",
    "pareto": "subexp_family",
}


@dataclass(frozen=True)
class LdpRegime:
    """A tail regime bound to a fading law and the attenuation pair (R, alpha)."""

    fading: FadingSpec
    atten_R: float
    atten_alpha: float

    def __post_init__(self):
        if not (self.atten_R > 0 and self.atten_alpha > 2):
            raise ValueError("attenuation requires R > 0 and alpha > 2")

    @property
    def kind(self) -> str:
        """bounded, weibull_super, exponential or subexp_family, by fading kind."""
        return _KIND_FOR_FADING[self.fading.kind]

    @property
    def r_alpha(self) -> float:
        return self.atten_R ** self.atten_alpha

    @property
    def subexp_exponent(self) -> float:
        """The log-survival scaling exponent: gamma for Weibull kinds, 0 for Pareto."""
        if self.fading.kind == "pareto":
            return 0.0
        return self.fading.gamma


def weibull_rate_constant(c: float, gamma: float, r_alpha: float) -> float:
    """Coefficient of x^(2 gamma/(gamma+1)) in the Weibull-superexponential rate."""
    g = gamma
    return 0.5 * r_alpha ** (2.0 * g / (g + 1.0)) \
        * (g / (g - 1.0)) ** ((g - 1.0) / (g + 1.0)) \
        * (c * (g + 1.0)) ** (2.0 / (g + 1.0))


def rate(regime: LdpRegime, x: float) -> float:
    """The regime's good rate function; zero at zero, increasing and continuous."""
    if x < 0:
        raise ValueError("rate function argument must be nonnegative")
    f = regime.fading
    if regime.kind == "bounded":
        return regime.r_alpha ** 2 * x * x / (2.0 * f.bound ** 2)
    if regime.kind == "weibull_super":
        g = f.gamma
        return weibull_rate_constant(f.c, g, regime.r_alpha) * x ** (2.0 * g / (g + 1.0))
    if regime.kind == "exponential":
        return f.c * regime.r_alpha * x
    # subexp_family: 0 at the origin, R^(alpha gamma) x^gamma beyond
    if x == 0:
        return 0.0
    g = regime.subexp_exponent
    return regime.r_alpha ** g * x ** g


def speed(regime: LdpRegime, eps: float) -> float:
    """Divergence scale v(eps) of the LDP; decreasing in eps on (0, 1)."""
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    log_inv = math.log(1.0 / eps)
    if regime.kind == "bounded":
        return log_inv / eps ** 2
    if regime.kind == "weibull_super":
        g = regime.fading.gamma
        return eps ** (-2.0 * g / (g + 1.0)) * log_inv ** ((g - 1.0) / (g + 1.0))
    if regime.kind == "exponential":
        return 1.0 / eps
    return -float(regime.fading.log_survival(1.0 / eps))


def growth_function(regime: LdpRegime, x: float) -> float:
    """Leading-order growth of log P(I >= x) against which slopes are fitted;
    the bounded and weibull_super ones carry log x, so they need x > 1."""
    if regime.kind in ("bounded", "weibull_super") and not x > 1:
        raise ValueError(f"the {regime.kind} growth function needs x > 1, got {x}")
    if regime.kind == "bounded":
        return x * x * math.log(x)
    if regime.kind == "weibull_super":
        g = regime.fading.gamma
        return x ** (2.0 * g / (g + 1.0)) * math.log(x) ** ((g - 1.0) / (g + 1.0))
    if regime.kind == "exponential":
        return x
    return float(regime.fading.log_survival(x))


def limit_constant(regime: LdpRegime) -> float:
    """The limit of log P(I_Lambda >= x) / growth_function(regime, x)."""
    f = regime.fading
    if regime.kind == "bounded":
        return -0.5 * regime.r_alpha ** 2 / f.bound ** 2
    if regime.kind == "weibull_super":
        return -weibull_rate_constant(f.c, f.gamma, regime.r_alpha)
    if regime.kind == "exponential":
        return -f.c * regime.r_alpha
    return regime.r_alpha ** regime.subexp_exponent


def tail_asymptote(regime: LdpRegime, x: float) -> float:
    """Predicted leading-order value of log P(I_Lambda >= x): the limit
    constant times the growth function."""
    if not x > 0:
        raise ValueError("x must be positive")
    return limit_constant(regime) * growth_function(regime, x)


def poisson_comparison(regime: LdpRegime) -> float:
    """Limit constant of the same fading over a Poisson network.

    Only the bounded and Weibull-superexponential regimes differ between the
    Ginibre and Poisson placements; for the heavier fadings the tail is
    insensitive to the node process.
    """
    f = regime.fading
    if regime.kind == "bounded":
        return -regime.r_alpha / f.bound
    if regime.kind == "weibull_super":
        g = f.gamma
        return -g * (g - 1.0) ** (-(g - 1.0) / g) * f.c ** (1.0 / g) * regime.r_alpha
    raise ValueError(
        "insensitive regime: identical constants for Poisson and Ginibre "
        "placements under exponential or subexponential fading")


@dataclass(frozen=True)
class ProofConstants:
    kappa_opt: float
    block_n: int


def proof_constants(regime: LdpRegime, x: float, eps: float) -> ProofConstants:
    """Constants of the Weibull lower-bound block construction.

    kappa_opt maximizes the block lower bound; block_n is the size of the
    dominating event's mark block at scale eps.
    """
    if regime.kind != "weibull_super":
        raise ValueError("proof constants are defined for the weibull_super regime only")
    if not (0 < eps < min(1.0, x)):
        raise ValueError("need 0 < eps < min(1, x)")
    c, g = regime.fading.c, regime.fading.gamma
    ra = regime.r_alpha
    kappa_opt = (c * (g * g - 1.0) * (ra * x) ** g / g) ** (1.0 / (g + 1.0))
    log_inv = math.log(1.0 / eps)
    block_n = int(kappa_opt / (eps ** (g / (g + 1.0)) * log_inv ** (1.0 / (g + 1.0))))
    return ProofConstants(kappa_opt=kappa_opt, block_n=block_n)
