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

    def tilted_moments(self, theta):
        """(mean, variance) of the exponentially tilted law, the first and
        second derivatives of the log MGF, from one evaluation: one
        quadrature for ``weibull_super``."""
        theta = self._tilts(theta)
        pos = theta[theta > 0]
        if self.kind == "exponential":
            mean = 1.0 / (self.c - pos)
            var = mean * mean
        elif self.kind == "bounded":
            # U = Z / B has density u^(a-1) (1-u)^(b-1) e^(tu); its moments are
            # ratios of Kummer functions, whose e^t factors cancel.  The
            # variance is that of V = 1 - U, whose moments do not cancel as
            # the law piles up at u = 1
            a, b, s = self.beta_a, self.beta_b, self.beta_a + self.beta_b
            t = pos * self.bound
            den = special.hyp1f1(b, s, -t)
            mean = self.bound * (a / s * special.hyp1f1(b, s + 1, -t)) / den
            v1 = b / s * special.hyp1f1(b + 1, s + 1, -t) / den
            v2 = b * (b + 1) / (s * (s + 1)) * special.hyp1f1(b + 2, s + 2, -t) / den
            var = self.bound ** 2 * (v2 - v1 * v1)
        else:
            _, mean, var = self._weibull_tilt(pos)
        return (_at_positive(theta, mean, self.mean()),
                _at_positive(theta, var, self._variance()))

    def _variance(self) -> float:
        """Variance of the untilted law of a light-tailed kind."""
        if self.kind == "exponential":
            return 1.0 / self.c ** 2
        if self.kind == "bounded":
            a, b = self.beta_a, self.beta_b
            return self.bound ** 2 * a * b / ((a + b) ** 2 * (a + b + 1))
        m2 = self.c ** (-2.0 / self.gamma) * math.gamma(1.0 + 2.0 / self.gamma)
        return m2 - self.mean() ** 2

    def _weibull_tilt(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log MGF, tilted mean, tilted variance) of ``weibull_super`` at
        positive tilts.

        In s = log z, E[Z^k e^(theta Z)] is the integral of
        c g exp((g + k) s + theta e^s - c e^(g s)): analytic in s, unimodal,
        and as narrow as 1e-8 wide at large tilts.  Each side of the k = 0
        mode s_m gets six Gauss-Legendre panels of 16 nodes, finest at the mode
        and doubling outwards, over a span of 2^j times the curvature scale
        at the mode, j the first at which the integrand has fallen by
        e^_QUAD_DROP.  Exponents are taken relative to the mode (expm1), so
        tilts where e^(theta z) overflows lose no precision, and all moments
        share the nodes.  With t = s - s_m and y = e^t - 1, the mode equation
        theta z_m = c g z_m^g - g turns the exponent relative to the mode into
        g (log1p(y) - y) - c z_m^g ((1 + y)^g - 1 - g y) (``_weibull_log_rel``)
        and the exponent at the mode into (g - 1) c z_m^g - g, neither of
        which cancels terms of order theta z_m.  The tilted mean is
        z_m (1 + m), m the weighted average of y, and the variance the
        weighted average of z_m^2 (y - m)^2, so a narrow law loses no digits
        to cancellation.  A tilt whose mode or curvature (g - 1) theta z_m
        passes the float range gets +inf for all three, and one whose variance
        alone passes it (about z_m / ((g - 1) theta) near g = 1) gets +inf
        for the variance.
        """
        c, g = self.c, self.gamma
        log_mgf, mean, var = (np.full(len(theta), np.inf) for _ in range(3))
        modes = self._weibull_mode(theta)
        with np.errstate(over="ignore"):
            curvature = (g - 1.0) * theta * modes + g * g
        finite = np.flatnonzero(np.isfinite(curvature))
        for lo in range(0, len(finite), _QUAD_CHUNK):
            sl = finite[lo:lo + _QUAD_CHUNK]
            th, z = theta[sl], modes[sl]
            czg = (c * z ** g)[:, None]
            scale = 1.0 / np.sqrt(curvature[sl])
            reach = []  # each side's span in units of scale
            for side in (-1.0, 1.0):
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    # rungs far past the first deep one can overflow to nan
                    rung = side * scale[:, None] * _QUAD_LADDER
                    deep = ~(_weibull_log_rel(np.expm1(rung), g, czg, g) > -_QUAD_DROP)
                reach.append(_QUAD_LADDER[np.argmax(deep, axis=1)])
            reach = np.where(_QUAD_NODES < 0, reach[0][:, None], reach[1][:, None])
            y = np.expm1(scale[:, None] * reach * _QUAD_NODES)
            # the weights and deviations are taken in units of scale, which
            # can be 1e-150, so that their products do not underflow
            with np.errstate(divide="ignore"):  # nodes at y = -1 weigh 0
                w = reach * _QUAD_WEIGHTS * np.exp(_weibull_log_rel(y, g, czg, g))
            total = w.sum(axis=1)
            shift = (w * y).sum(axis=1) / total  # mean / z_m - 1
            dev = (y - shift[:, None]) / scale[:, None]
            log_mgf[sl] = (math.log(c * g) + g * np.log(z) + (g - 1.0) * czg[:, 0] - g
                           + np.log(scale * total))
            mean[sl] = z * (1.0 + shift)
            with np.errstate(over="ignore"):  # a variance past the float range
                var[sl] = (z * scale) ** 2 * (w * dev * dev).sum(axis=1) / total
        return log_mgf, mean, var

    def _weibull_mode(self, theta: np.ndarray, k: float = 0.0) -> np.ndarray:
        """Mode z of z^(g + k) exp(theta z - c z^g), k > -g: the root of
        h(z) = g + k + theta z - c g z^g, which is concave with h(0) > 0, so
        Newton from a point right of the root decreases to it monotonically.
        k = 0 is the mode in s = log z of ``_weibull_tilt``'s integrand, and
        k = -1 that of the tilted density in z.  Newton starts from the
        smallest of three points right of the root:
        max((2 theta / (c g))^(1/(g-1)), (2 (g + k) / (c g))^(1/g)), which
        near g = 1 lies 2^(1/(g-1)) past it at large tilts; z_0 = a s,
        with a = (theta / (c g))^(1/(g-1)) and s^(g-1) = 1 + (g + k) / (theta a)
        taken in logs, where h(z_0) = (g + k) (1 - s), which lies far past it
        at small tilts; and, for theta < c g, z_1 = max(1, (g + k) / (c g - theta)),
        where z^g >= z gives h(z_1) <= 0, which near g = 1 lies hundreds of
        decades nearer than the other two.  An entry stops once its step falls
        below 1e-13 of z or turns negative: from the right the exact steps are
        positive, so a negative one means rounding put h(z) at or past 0.  Near
        g = 1, where theta z and c g z^g cancel, that noise is about
        eps z / (g - 1), above the 1e-13 stop.  Each entry stops on its own, so
        its mode does not depend on its neighbours.  An entry whose start or
        Newton step passes the float range reads +inf."""
        c, g = self.c, self.gamma
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            log_t = np.log(theta)
            log_a = (log_t - math.log(c * g)) / (g - 1.0)
            log_s = np.log1p((g + k) * np.exp(-log_t - log_a)) / (g - 1.0)
            z_1 = np.where(theta < c * g, np.maximum(1.0, (g + k) / (c * g - theta)), np.inf)
            z = np.fmin(np.fmin(np.exp(log_a + log_s), z_1),
                        np.maximum((2.0 * theta / (c * g)) ** (1.0 / (g - 1.0)),
                                   (2.0 * (g + k) / (c * g)) ** (1.0 / g)))
            act = np.arange(len(theta))
            for _ in range(_MODE_STEPS):
                th, za = theta[act], z[act]
                step = (g + k + th * za - c * g * za ** g) / (th - c * g * g * za ** (g - 1.0))
                z[act] = za = za - step
                # an overflow makes the step nan, which stops the entry
                moving = step > 1e-13 * za
                act, step, za = act[moving], step[moving], za[moving]
                if len(act) == 0:
                    z[~np.isfinite(z)] = np.inf
                    return z
        worst = int(np.argmax(np.abs(step) / za))
        raise CapExceededError(
            "weibull_super mode search did not converge",
            diagnostics={"c": c, "gamma": g, "theta": float(theta[act[worst]]),
                         "z": float(za[worst]), "last_step": float(step[worst]),
                         "steps": _MODE_STEPS, "entries_left": len(act)})

    # -- tilted draws ------------------------------------------------------

    def sample_tilted(self, theta, gen: np.random.Generator):
        """One draw per entry of the tilts ``theta`` (a float for a scalar)
        from the exponentially tilted law, density e^(theta z) f(z) /
        MGF(theta); an entry of 0 draws from the law itself.

        Exponential marks tilted by theta are Exp(c - theta).  The bounded and
        ``weibull_super`` tilted laws are log-concave, and are drawn exactly
        by rejection (``_bounded_tilted``, ``_weibull_tilted``), vectorized
        over the draws still pending, at most _DRAW_ROUNDS rounds.
        """
        theta = self._tilts(theta)
        z = np.asarray(self.sample(theta.shape, gen))
        if self.kind == "exponential":
            z = z * (self.c / (self.c - theta))
        else:
            on = theta > 0
            draw = self._bounded_tilted if self.kind == "bounded" else self._weibull_tilted
            z[on] = draw(theta[on], gen)
        return z if z.ndim else float(z)

    def _bounded_tilted(self, theta: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """Tilted Beta(a, b) marks on [0, B], a >= 1, at positive tilts.

        V = 1 - Z / B has density v^(b-1) (1-v)^(a-1) e^(-tv) on (0, 1),
        t = theta B.  With l = t + a - 1 the proposal is Gamma(b, rate l) cut
        to (0, 1), by inversion (gammaincinv), and is accepted with
        probability ((1 - v) e^v)^(a-1) <= 1.  Below l = 1, where the cut
        Gamma CDF underflows for large b, the proposal is instead Beta(b, 1),
        v = U^(1/b), accepted with probability ((1 - v) e^v)^(a-1) e^(-l v).
        """
        a, b = self.beta_a, self.beta_b
        if a < 1:
            raise ValueError(
                f"tilted bounded marks need the Beta shape beta_a >= 1 (got "
                f"beta_a = {a}): the tilted draw proposes from a Gamma law in "
                f"1 - z / B and accepts with probability (1 - v)^(beta_a - 1)")
        lam = theta * self.bound + (a - 1.0)
        small = lam < 1.0
        cut = special.gammainc(b, lam)  # the proposal's mass in (0, 1)

        def propose(idx, u):
            v = np.where(small[idx], u ** (1.0 / b),
                         special.gammaincinv(b, u * cut[idx]) / lam[idx])
            with np.errstate(divide="ignore", invalid="ignore"):
                log_acc = ((a - 1.0) * (np.log1p(-v) + v)
                           - np.where(small[idx], lam[idx] * v, 0.0))
            return v, log_acc

        v = _rejection_loop(propose, theta, gen, {"kind": "bounded", "beta_a": a,
                                                  "beta_b": b, "bound": self.bound})
        return self.bound * (1.0 - v)

    def _weibull_tilted(self, theta: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """Tilted ``weibull_super`` marks at positive tilts, by transformed
        density rejection (Hoermann, ACM TOMS 21, 1995) with a three-piece
        exponential hat.

        The tilted density z^(g-1) exp(theta z - c z^g) is log-concave for
        g > 1.  In y = z / z_m - 1, z_m its mode, its log relative to the mode
        is h(y) = (g-1) (log1p(y) - y) - A ((1+y)^g - 1 - g y), A = c z_m^g,
        which keeps its digits where z_m reaches 1e17 and the law is 1e-10
        wide.  The hat is min(0, the tangents of h at y_l < 0 < y_r), the
        tangent points one curvature scale s = ((g-1)(1 + g A))^(-1/2) from
        the mode (y_l = -s / (1 + s), inside the support y > -1): an
        exponential piece on (-1, b_l), a flat top on [b_l, b_r], and an
        exponential tail past b_r.
        """
        c, g = self.c, self.gamma
        zm = self._weibull_mode(theta, -1.0)
        if not np.all(np.isfinite(zm)):
            raise CapExceededError(
                "tilted mark draw: the mode passes the float range",
                diagnostics={"kind": "weibull_super", "c": c, "gamma": g,
                             "theta_max": float(theta[~np.isfinite(zm)].max())})
        big_a = c * zm ** g

        def log_rel(y, a):  # h(y), with A = a
            return _weibull_log_rel(y, g - 1.0, a, g)

        def slope(y, a):  # h'(y)
            return -(g - 1.0) * y / (1.0 + y) - a * g * np.expm1((g - 1.0) * np.log1p(y))

        s = 1.0 / np.sqrt((g - 1.0) * (1.0 + g * big_a))
        y_l, y_r = -s / (1.0 + s), s
        k_l, k_r = slope(y_l, big_a), slope(y_r, big_a)
        b_l = y_l - log_rel(y_l, big_a) / k_l
        b_r = y_r - log_rel(y_r, big_a) / k_r
        area_l = -np.expm1(-k_l * (b_l + 1.0)) / k_l
        area_m = b_r - b_l
        total = area_l + area_m - 1.0 / k_r

        def propose(idx, u):
            kl, kr, bl, br, al, am, tot = (q[idx] for q in (k_l, k_r, b_l, b_r, area_l,
                                                            area_m, total))
            pick = u * tot
            left, right = pick < al, pick >= al + am
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                back = -np.log1p(pick / al * np.expm1(-kl * (bl + 1.0))) / kl
                past = -np.log((pick - al - am) / (tot - al - am))
                y = np.where(left, bl - back, np.where(right, br - past / kr, bl + pick - al))
                hat = np.where(left, -kl * back, np.where(right, -past, 0.0))
                return y, log_rel(y, big_a[idx]) - hat

        y = _rejection_loop(propose, theta, gen, {"kind": "weibull_super", "c": c, "gamma": g})
        return zm * (1.0 + y)


def _rejection_loop(propose, theta: np.ndarray, gen: np.random.Generator,
                    context: dict) -> np.ndarray:
    """One accepted proposal per tilt in ``theta``.  Each round draws two
    uniforms per pending entry: ``propose(pending, u)`` maps the first to a
    proposal and its log acceptance probability, and the second accepts it.
    Raises CapExceededError after _DRAW_ROUNDS rounds."""
    out = np.empty(len(theta))
    pending = np.arange(len(theta))
    proposals = 0
    for _ in range(_DRAW_ROUNDS):
        u = gen.random((2, len(pending)))
        value, log_acc = propose(pending, u[0])
        proposals += len(pending)
        with np.errstate(over="ignore"):
            accept = u[1] < np.exp(log_acc)  # a nan proposal is rejected
        out[pending[accept]] = value[accept]
        pending = pending[~accept]
        if len(pending) == 0:
            return out
    raise CapExceededError(
        "tilted mark draw hit its cap",
        diagnostics={**context, "rounds": _DRAW_ROUNDS, "draws": len(theta),
                     "pending": len(pending), "proposals": proposals,
                     "theta_pending_min": float(theta[pending].min()),
                     "theta_pending_max": float(theta[pending].max())})


def _weibull_log_rel(y: np.ndarray, k: float, a, g: float) -> np.ndarray:
    """k (log1p(y) - y) - a ((1 + y)^g - 1 - g y): the log of a
    ``weibull_super`` integrand z^k exp(theta z - c z^g) relative to its mode
    z_m, at z = z_m (1 + y), with a = c z_m^g.  k = g is the integrand in
    log z of ``_weibull_tilt``, k = g - 1 the tilted density of
    ``_weibull_tilted``."""
    return k * (np.log1p(y) - y) - a * _pow1p_excess(y, g)


def _pow1p_excess(y: np.ndarray, g: float) -> np.ndarray:
    """(1 + y)^g - 1 - g y without cancellation: its binomial series where
    |y| < _SERIES_Y, so the error is a few ulps of the result.  At y = -1
    the value g - 1 is exact."""
    y = np.asarray(y, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.expm1(g * np.log1p(y)) - g * y
    near = np.abs(y) < _SERIES_Y
    yn = y[near]
    coef = [g * (g - 1.0) / 2.0]
    for k in range(2, _SERIES_TERMS + 1):
        coef.append(coef[-1] * (g - k) / (k + 1))
    acc = np.zeros_like(yn)
    for ck in reversed(coef):
        acc = ck + yn * acc
    out[near] = yn * yn * acc
    return out


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
# tilted draws (``FadingSpec.sample_tilted``): the cap on rejection rounds,
# and the |y| below which (1 + y)^g - 1 - g y takes its binomial series,
# with the number of its terms (the first one left out is below 1e-17 of it)
_DRAW_ROUNDS = 1000
_SERIES_Y = 1e-3
_SERIES_TERMS = 6
