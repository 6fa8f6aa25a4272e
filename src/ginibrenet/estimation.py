"""Monte Carlo and variance-reduced tail estimators, plus slope diagnostics.

Estimator variants for P(I_Lambda >= x):

* ``crude``       -- plain indicator averaging.
* ``tilted``      -- fading marks drawn from the exponentially tilted law and
                     reweighted by the likelihood ratio; per pattern, the tilt
                     solves the mean-shift equation so the tilted mean of
                     sum(L_i Z_i) matches the target level.  Marks only are
                     tilted, never point positions.
* ``single_jump`` -- the Asmussen-Kroese conditional estimator: given the
                     weighted marks w_i = L_i Z_i with sum S, it returns
                     sum_i Fbar(max(max_{j != i} w_j, x - S + w_i) / L_i),
                     term i being P(I >= x, mark i the largest | the
                     other marks).  Unbiased for every fading law, with
                     no threshold to choose.

One loop, ``_replicate``, runs the replications of every estimator here.  Per
replication it draws the distances from the receiver to the in-window
interferers (the Kostlan radial draw when receiver and window are both at
the origin, the DPP projection sampler otherwise), and an evaluator turns
them into a value or a row:

* ``_crude`` and ``_tilted`` -- one tail indicator or weight at level x;
* ``_single_jump`` -- one value per level of a grid: a one-level grid for
  ``estimate_interference_tail``, a grid with unit gains for
  ``subexp_sum_ratio``;
* ``dominating_event_probe``'s evaluator -- a (hit, ball count) row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, special

from .errors import CapExceededError
from .fading import FadingSpec, LIGHT_TAIL_KINDS, SUBEXPONENTIAL_KINDS
from .interference import NetworkModel, _sorted_sum, attenuation
from .patterns import RngStream
from .rates import LdpRegime, growth_function, proof_constants, tail_asymptote
from .samplers import sample_palm_beta_ginibre
from .spectral import DiskRestriction, eigenvalues, trace_bound

ESTIMATORS = ("crude", "tilted", "single_jump")
TILT_DOUBLINGS = 40  # bracket doublings from 1/max gain: tilts up to ~1e12 / max gain


@dataclass
class TailEstimate:
    probability: float
    stderr: float
    ci95: tuple[float, float]
    n_reps: int
    estimator: str
    log_probability: float
    diagnostics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")


@dataclass
class SlopeReport:
    x_grid: list[float]
    log_p: list[float]
    predicted: list[float]
    fitted_slope: float
    target_slope: float
    relative_error: float
    dropped_points: list[float] = field(default_factory=list)


def _finalize(values: np.ndarray, estimator: str,
              diagnostics: dict[str, float]) -> TailEstimate:
    n = len(values)
    p = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    if p == 0.0:
        diagnostics = {**diagnostics, "zero_hits": 1.0}
    lo = max(0.0, p - 1.96 * se)
    hi = min(1.0, p + 1.96 * se)
    return TailEstimate(
        probability=p, stderr=se, ci95=(lo, hi), n_reps=n, estimator=estimator,
        log_probability=math.log(p) if p > 0 else -math.inf,
        diagnostics=diagnostics)


def _radial_draw(model: NetworkModel):
    """Distance draw for a window and a receiver both at the origin.

    By Kostlan's theorem the squared moduli of the reduced-Palm beta-Ginibre
    points are independent beta * G_m, G_m ~ Gamma(m + 1, 1), m >= 1, each
    kept with probability beta and cut at the window radius r.  Term m is
    thus in the window with probability beta kappa_m, kappa_m =
    P(G_m <= r^2 / beta) the Palm eigenvalue that the DPP sampler truncates
    by as well.  One uniform u_m per term decides both: the term is present
    iff u_m < beta kappa_m, and then G_m is the inverse Gamma CDF at
    u_m / beta, uniform on (0, kappa_m).  The spectrum is fixed once per loop.
    """
    beta = model.beta
    kappa = eigenvalues(DiskRestriction(radius=model.window.radius / math.sqrt(beta),
                                        palm_shift=True))
    present = beta * kappa
    shapes = np.arange(2.0, len(kappa) + 2.0)

    def draw(gen: np.random.Generator) -> np.ndarray:
        u = gen.random(len(kappa))
        on = u < present
        return np.sqrt(beta * special.gammaincinv(shapes[on], u[on] / beta))
    return draw


def _dpp_draw(model: NetworkModel):
    """Distance draw for any other geometry: a reduced-Palm pattern from the
    projection sampler on the origin-centred disk that covers the window."""
    radius = abs(model.window.center) + model.window.radius

    def draw(gen: np.random.Generator) -> np.ndarray:
        # the palm sampler wants a fresh RngStream, so draw a 63-bit child
        # seed from the running stream
        child = RngStream(int(gen.integers(1 << 63)), 0)
        pts = sample_palm_beta_ginibre(model.beta, radius, child).points
        return np.abs(model.receiver - pts[model.window.contains(pts)])
    return draw


def _distance_draw(model: NetworkModel):
    """Per-replication sampler of the distances from the receiver to the
    interferers inside the window: the only thing I_Lambda and the probe's
    ball counts depend on.  Called once per loop; returns draw(gen)."""
    centred = model.window.center == 0 and model.receiver == 0
    return (_radial_draw if centred else _dpp_draw)(model)


def _pattern_tilt(fading: FadingSpec, gains: np.ndarray, x: float) -> float:
    """Tilt theta >= 0 solving sum_i tilted_mean(theta L_i) L_i = x.

    Each mark is tilted at theta times its own attenuation gain, which tilts
    the conditional distribution of I given the pattern directly; the
    estimator stays unbiased because the tilt depends on positions only.
    """
    means = fading.mean() * gains
    if means.sum() >= x:
        return 0.0
    if fading.kind == "exponential":
        c = fading.c
        hi = c / float(gains.max()) * (1.0 - 1e-9)

        def gap(theta):
            return float(np.sum(gains / (c - theta * gains))) - x
    else:
        def gap(theta):
            return sum(fading.tilted_mean(theta * g) * g for g in gains) - x

        hi = 1.0 / float(gains.max())
        doublings = 0
        while (gap_hi := gap(hi)) < 0.0 and doublings < TILT_DOUBLINGS:
            hi *= 2.0
            doublings += 1
        if not gap_hi >= 0.0:  # the cap, or a tilted mean that overflowed
            raise CapExceededError(
                "tilt bracket search failed: no tilt reaches the target level",
                diagnostics={"kind": fading.kind, "x": x, "n_points": len(gains),
                             "gain_sum": float(gains.sum()),
                             "gain_max": float(gains.max()), "theta_hi": hi,
                             "gap_at_theta_hi": gap_hi, "doublings": doublings})
    return float(optimize.brentq(gap, 0.0, hi, xtol=1e-10, rtol=1e-10))


def _crude(model: NetworkModel, x: float):
    """Evaluator of 1{I >= x}."""
    def evaluate(dist, gen):
        gains = attenuation(dist, model.atten_R, model.atten_alpha)
        return 1.0 if _sorted_sum(model.fading.sample(len(gains), gen), gains) >= x else 0.0
    return evaluate


def _tilted(model: NetworkModel, x: float):
    """Evaluator of the likelihood-ratio-weighted 1{I >= x}, marks tilted at
    the per-pattern tilt times their own gains (``_pattern_tilt``)."""
    fading = model.fading
    crude = _crude(model, x)

    def evaluate(dist, gen):
        gains = attenuation(dist, model.atten_R, model.atten_alpha)
        n_in = len(gains)
        if n_in == 0 or (fading.kind == "bounded" and fading.bound * gains.sum() < x):
            return 0.0  # event impossible given this pattern
        th = _pattern_tilt(fading, gains, x)
        if th == 0.0:
            return crude(dist, gen)
        if fading.kind == "exponential":
            # base draw z = E/c; the per-mark tilted law is Exp(c - th L_i),
            # reached by scaling the same variates
            z = fading.sample(n_in, gen) * (fading.c / (fading.c - th * gains))
        else:
            z = np.array([_tilted_draw(fading, th * g, gen) for g in gains])
        i_val = _sorted_sum(z, gains)
        if i_val < x:
            return 0.0
        return math.exp(math.fsum(fading.log_mgf(th * g) for g in gains) - th * i_val)
    return evaluate


def _single_jump(fading: FadingSpec, x_grid, gains_of):
    """Evaluator of the Asmussen-Kroese estimator at every level in
    ``x_grid``, returning one value per level.

    With w = L Z, S_-i = S - w_i and M_-i the largest of the other weighted
    marks (from the top two), the value at x is
    sum_i Fbar(max(M_-i, x - S_-i) / L_i): O(n) per level, one mark draw per
    replication shared by every level, and 0 for an empty pattern.
    """
    x = np.asarray(x_grid, dtype=float)[:, None]

    def evaluate(dist, gen):
        gains = gains_of(dist)
        if len(gains) == 0:
            return np.zeros(len(x))
        w = fading.sample(len(gains), gen) * gains
        top = int(np.argmax(w))
        rest_max = np.full(len(w), w[top])
        rest_max[top] = np.max(np.delete(w, top), initial=0.0)
        rest_sum = w.sum() - w
        return fading.survival(np.maximum(rest_max, x - rest_sum) / gains).sum(axis=1)
    return evaluate


def _replicate(model: NetworkModel, n_reps: int, rng: RngStream, evaluate) -> np.ndarray:
    """The replication loop of every estimator: one generator from ``rng``,
    one distance draw per replication, and ``evaluate(dist, gen)``'s value
    or row for it, stacked into an array."""
    gen = rng.generator()
    draw = _distance_draw(model)
    return np.array([evaluate(draw(gen), gen) for _ in range(n_reps)])


def estimate_interference_tail(model: NetworkModel, x: float, n_reps: int,
                               estimator: str, rng: RngStream) -> TailEstimate:
    """Estimate P(I_Lambda >= x) with the requested estimator variant."""
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}")
    if n_reps <= 0:
        raise ValueError("n_reps must be positive")
    kind = model.fading.kind
    if estimator == "tilted" and kind not in LIGHT_TAIL_KINDS:
        raise ValueError(
            f"tilted estimator needs a finite-MGF fading kind, got {kind!r}")
    if estimator == "single_jump" and kind not in SUBEXPONENTIAL_KINDS + ("exponential",):
        raise ValueError(
            f"single_jump estimator needs subexponential or exponential fading, got {kind!r}")

    if estimator == "crude":
        evaluate = _crude(model, x)
    elif estimator == "tilted":
        evaluate = _tilted(model, x)
    else:
        evaluate = _single_jump(model.fading, [x],
                                lambda d: attenuation(d, model.atten_R, model.atten_alpha))
    # a single-jump row holds the one level
    values = _replicate(model, n_reps, rng, evaluate).reshape(n_reps)
    est = _finalize(values, estimator, {})
    if estimator == "tilted" and est.probability > 0:
        w = values[values > 0]
        est.diagnostics["ess"] = float(np.sum(w) ** 2 / np.sum(w * w))
    return est


def _tilted_draw(fading: FadingSpec, theta: float, gen: np.random.Generator) -> float:
    """One draw from the tilted law of a bounded or ``weibull_super`` mark,
    via a fine inverse-CDF grid of the tilted density."""
    if fading.kind == "bounded":
        hi = fading.bound
    else:  # weibull_super: truncate far beyond the tilted bulk
        hi = 10.0 * max(fading.tilted_mean(theta), 1.0)
    grid = np.linspace(0.0, hi, 4097)
    mid = 0.5 * (grid[:-1] + grid[1:])
    logd = fading.log_pdf(mid) + theta * mid
    logd -= np.max(logd[np.isfinite(logd)])
    w = np.exp(logd)
    cdf = np.concatenate(([0.0], np.cumsum(w)))
    cdf /= cdf[-1]
    u = gen.random()
    idx = int(np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(mid) - 1))
    frac = (u - cdf[idx]) / max(cdf[idx + 1] - cdf[idx], 1e-300)
    return float(grid[idx] + frac * (grid[idx + 1] - grid[idx]))


def _increasing(x_grid) -> list[float]:
    x_grid = [float(v) for v in x_grid]
    if any(b <= a for a, b in zip(x_grid, x_grid[1:])):
        raise ValueError("x_grid must be strictly increasing")
    return x_grid


def grid_estimates(model: NetworkModel, x_grid, n_reps: int, estimator: str,
                   rng: RngStream):
    """Yield one estimate per grid point, point i on substream 1000 (i + 1),
    so a caller keeps the points finished before a failure."""
    for i, x in enumerate(x_grid):
        yield estimate_interference_tail(model, x, n_reps, estimator,
                                         rng.substream(1000 * (i + 1)))


def fit_slope(regime: LdpRegime, x_grid, probabilities) -> SlopeReport:
    """Fit log p-hat(x) against the regime's growth function and compare the
    slope to the predicted limit constant; zero estimates are dropped."""
    x_grid = _increasing(x_grid)
    kept_x, log_p, gvals, dropped = [], [], [], []
    for x, p in zip(x_grid, probabilities):
        if p <= 0.0:
            dropped.append(x)
            continue
        kept_x.append(x)
        log_p.append(math.log(p))
        gvals.append(growth_function(regime, x))
    if len(kept_x) < 3:
        raise ValueError(
            f"slope regression needs at least 3 estimable grid points, "
            f"got {len(kept_x)} (dropped {dropped})")
    slope, _ = np.polyfit(gvals, log_p, 1)
    target = tail_asymptote(regime, kept_x[-1]) / growth_function(regime, kept_x[-1])
    rel = abs(slope - target) / abs(target)
    predicted = [tail_asymptote(regime, x) for x in kept_x]
    return SlopeReport(x_grid=kept_x, log_p=log_p, predicted=predicted,
                       fitted_slope=float(slope), target_slope=float(target),
                       relative_error=float(rel), dropped_points=dropped)


def speed_regression(model: NetworkModel, regime: LdpRegime, x_grid,
                     n_reps: int, estimator: str, rng: RngStream) -> SlopeReport:
    """Estimate every grid point, then fit the slope (``fit_slope``)."""
    x_grid = _increasing(x_grid)
    return fit_slope(regime, x_grid, [
        est.probability
        for est in grid_estimates(model, x_grid, n_reps, estimator, rng)])


def subexp_sum_ratio(model: NetworkModel, x_grid, n_reps: int,
                     rng: RngStream) -> list[float]:
    """p-hat(sum Z >= x) / (E[N] * survival(x)) per grid point.

    p-hat is the single-jump estimate with unit gains, every grid point on
    the same replications.  The single-big-jump principle predicts the ratio
    tends to 1.  E[N] comes from the exact Palm trace for origin-centered
    windows and from the empirical mean otherwise.
    """
    if model.fading.kind not in SUBEXPONENTIAL_KINDS:
        raise ValueError("subexp_sum_ratio requires a subexponential fading kind")
    x_grid = [float(v) for v in x_grid]
    jump = _single_jump(model.fading, x_grid, np.ones_like)
    rows = _replicate(model, n_reps, rng,
                      lambda dist, gen: (len(dist), *jump(dist, gen)))
    if abs(model.window.center) < 1e-12:
        e_n = trace_bound(DiskRestriction(radius=model.window.radius,
                                          beta=model.beta, palm_shift=True))
    else:
        e_n = float(np.mean(rows[:, 0]))
    if e_n <= 0:
        raise ValueError("expected in-window count is zero; empty window")
    return [float(np.mean(rows[:, k + 1])) / (e_n * float(model.fading.survival(x)))
            for k, x in enumerate(x_grid)]


@dataclass
class DominatingEventProbe:
    p_joint: float
    p_joint_stderr: float
    p_block: float
    p_single: float
    block_n: int
    ball_radius: float


def dominating_event_probe(model: NetworkModel, x: float, eps: float,
                           rng: RngStream, n_reps: int = 20_000) -> DominatingEventProbe:
    """Monte Carlo check that the proof's lower-bound events really minorize
    the tail: block bound P(N(b(y,r)) >= n) P(Z > R^a x/(n eps))^n and the
    single-jump bound P(Z > R^a x/eps) P(N(b(y,r)) >= 1).

    The ball radius r is half the distance from the receiver to the window
    boundary, capped below the attenuation plateau R.
    """
    gap = model.window.radius - abs(model.receiver - model.window.center)
    if gap < 0.02 * model.window.radius:
        raise ValueError("receiver too close to the window boundary for the probe ball")
    r = min(0.5 * gap, 0.99 * model.atten_R)
    kind = model.fading.kind
    if kind == "bounded":  # n puts the per-mark threshold at 0.8 B
        block_n = int(model.r_alpha * x / (0.8 * model.fading.bound * eps)) + 1
    elif kind == "weibull_super":
        regime = LdpRegime(model.fading, model.atten_R, model.atten_alpha)
        block_n = max(1, proof_constants(regime, x, eps).block_n)
    else:
        block_n = 1
    log_sf_block = float(model.fading.log_survival(model.r_alpha * x / (block_n * eps)))
    log_sf_single = float(model.fading.log_survival(model.r_alpha * x / eps))

    def evaluate(dist, gen):
        i_val = _sorted_sum(model.fading.sample(len(dist), gen),
                            attenuation(dist, model.atten_R, model.atten_alpha))
        return eps * i_val > x, np.count_nonzero(dist <= r)

    hits, balls = _replicate(model, n_reps, rng, evaluate).T
    return DominatingEventProbe(
        p_joint=float(np.mean(hits)),
        p_joint_stderr=float(np.std(hits, ddof=1) / math.sqrt(n_reps)),
        p_block=float(np.mean(balls >= block_n)) * math.exp(block_n * log_sf_block),
        p_single=float(np.mean(balls >= 1)) * math.exp(log_sf_single),
        block_n=block_n, ball_radius=r)
