"""Monte Carlo and variance-reduced tail estimators, plus slope diagnostics.

Estimator variants for P(I_Lambda >= x):

* ``crude``       -- plain indicator averaging.
* ``tilted``      -- fading marks drawn exactly from the exponentially tilted
                     law (``FadingSpec.sample_tilted``) and reweighted by the
                     likelihood ratio; per pattern, the tilt solves the
                     mean-shift equation so the tilted mean of sum(L_i Z_i)
                     matches the target level, by Newton steps on the tilted
                     variance (``_pattern_tilt``).  Marks only are tilted,
                     never point positions.
* ``single_jump`` -- the Asmussen-Kroese conditional estimator: given the
                     weighted marks w_i = L_i Z_i with sum S, it returns
                     sum_i Fbar(max(max_{j != i} w_j, x - S + w_i) / L_i),
                     term i being P(I >= x, mark i the largest | the
                     other marks).  Unbiased for every fading law, with
                     no threshold to choose.

One loop, ``_replicate``, runs the replications of every estimator here, in
blocks of _BLOCK.  A block is one array of the distances from the receiver to
the interferers in the window b(0, r), a row per replication, padded with inf
where a replication has fewer interferers than the widest row;
attenuation(inf) is exactly 0, so padding is an interferer of zero gain.  A
receiver at the origin takes the Kostlan radial draw, which fills the block
from one array of presence uniforms and one Gamma variate per present term,
inverting the incomplete gamma only past the window edge; an off-centre
receiver takes one DPP projection-sampler pattern per row.  An evaluator then
maps the block, in numpy, to a column or a matrix:

* ``_crude`` and ``_tilted`` -- a tail indicator or weight per row at level x;
* ``_single_jump`` -- a row of values per replication over a level grid: a
  one-level grid for ``estimate_interference_tail``, a grid with unit gains
  for ``subexp_sum_ratio``;
* ``dominating_event_probe``'s evaluator -- a (hit, ball count) row.

Sums over a row go through ``_row_sum``, so a row's values depend neither on
the order of its interferers nor on its padding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError
from .fading import FadingSpec, LIGHT_TAIL_KINDS, SUBEXPONENTIAL_KINDS
from .interference import NetworkModel, _row_sum, attenuation
from .patterns import RngStream
from .rates import (LdpRegime, growth_function, limit_constant, proof_constants,
                    tail_asymptote)
from .samplers import _cut_gamma, sample_block
from .spectral import DiskRestriction, eigenvalues, trace_bound

ESTIMATORS = ("crude", "tilted", "single_jump")
TILT_DOUBLINGS = 40  # steps of the tilt solve, each at most a doubling, before a bracket
_BLOCK = 256  # replications drawn and evaluated together
_ROOT_STEPS = 100  # cap on the steps of the tilt solve
_ROOT_RTOL = 1e-14  # step or bracket width, relative to theta, that ends the solve
_ROOT_GAP_TOL = 1e-14  # relative gap that ends it: a few roundings of the sum


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
    """Distance draw for a receiver at the origin.

    By Kostlan's theorem the squared moduli of the reduced-Palm beta-Ginibre
    points are independent beta G_m, G_m ~ Gamma(m + 1, 1), m >= 1, each kept
    with probability beta and cut at the window radius r.  Term m is thus in
    the window with probability p_m = beta P(G_m <= r^2 / beta): the thinned
    Palm spectrum, which the DPP sampler and the exact count law read too.
    One (n, L) array of uniforms decides presence: term m is present iff
    u_m < p_m.  The present terms then draw their G_m in row-major order
    with ``samplers._cut_gamma``, cut at r^2 / beta; the inversion's uniform
    is u_m / beta, which given presence is uniform on (0, kappa_m),
    kappa_m = p_m / beta.  At r = 2 and beta = 1 about a third of the present
    terms need the inversion.  The block drops the terms none of its rows
    holds.
    """
    beta = model.beta
    restriction = DiskRestriction(radius=model.radius, beta=beta, palm_shift=True)
    present = eigenvalues(restriction)
    rsq = restriction.scaled_radius_sq
    shapes = np.arange(2.0, len(present) + 2.0)

    def draw(gen: np.random.Generator, n: int) -> np.ndarray:
        u = gen.random((n, len(present)))
        on = u < present
        g = _cut_gamma(gen, np.broadcast_to(shapes, on.shape)[on], u[on] / beta, rsq)
        dist = np.full(on.shape, np.inf)
        dist[on] = np.sqrt(beta * g)
        return dist[:, on.any(axis=0)]
    return draw


def _dpp_draw(model: NetworkModel):
    """Distance draw for an off-centre receiver: per row, a reduced-Palm
    pattern from the projection sampler on the window itself."""
    restriction = DiskRestriction(radius=model.radius, beta=model.beta, palm_shift=True)

    def draw(gen: np.random.Generator, n: int) -> np.ndarray:
        # one fresh RngStream per block, on a 63-bit child seed drawn from
        # the running stream
        child = RngStream(int(gen.integers(1 << 63)), 0)
        rows = [np.abs(model.receiver - pts)
                for pts in sample_block(restriction, child, n)]
        dist = np.full((n, max(map(len, rows))), np.inf)
        for out, row in zip(dist, rows):
            out[:len(row)] = row
        return dist
    return draw


def _distance_draw(model: NetworkModel):
    """Block sampler of the distances from the receiver to the interferers
    inside the window: the only thing I_Lambda and the probe's ball counts
    depend on.  Called once per loop; returns draw(gen, n), an (n, width)
    array padded with inf."""
    return (_radial_draw if model.receiver == 0 else _dpp_draw)(model)


def _pattern_tilt(fading: FadingSpec, gains: np.ndarray, x: float) -> np.ndarray:
    """Per row of ``gains`` (each with a positive gain), the tilt theta >= 0
    solving sum_j m(theta L_j) L_j = x, with (m, v) = ``tilted_moments``; 0
    where the untilted mean already reaches x.

    Each mark is tilted at theta times its own attenuation gain, which tilts
    the conditional distribution of I given the pattern directly; the
    estimator stays unbiased because the tilt depends on positions only.
    With S(theta) = sum_j m(theta L_j) L_j, exponential marks solve
    1 - x / S(theta) = 0 inside [0, c / max L], where S is infinite; for one
    mark that gap is linear in theta.  The other kinds solve S(theta) / x = 1.
    Both gaps increase in theta, and their slopes come from
    S'(theta) = sum_j v(theta L_j) L_j^2, taken from the same
    evaluation as S (one quadrature for ``weibull_super``).  ``_newton``
    finds the root.
    """
    if fading.kind == "exponential":
        c = fading.c
        # q_j = L_j / (c - theta L_j) increases with L_j below theta = c / max L,
        # so gains sorted once give q sorted, as _row_sum would sort it
        gains = np.sort(gains, axis=1)

        def gap(theta, g):
            # q_j = L_j m(theta L_j); q_j^2 = L_j^2 v(theta L_j)
            with np.errstate(divide="ignore"):
                q = g / (c - theta[:, None] * g)
            total, total_sq = q.cumsum(axis=1)[:, -1], (q * q).cumsum(axis=1)[:, -1]
            return 1.0 - x / total, x * total_sq / (total * total)
    else:
        def gap(theta, g):
            on = g > 0
            mean, var = np.zeros_like(g), np.zeros_like(g)
            # tilts whose moments pass the float range give inf, which
            # _newton reads as past the root
            with np.errstate(over="ignore", invalid="ignore"):
                mean[on], var[on] = fading.tilted_moments((theta[:, None] * g)[on])
            return _row_sum(mean * g) / x - 1.0, _row_sum(var * g * g) / x

    theta = np.zeros(len(gains))
    f_0, slope_0 = gap(theta, gains)
    rows = np.nonzero(f_0 < 0.0)[0]
    if len(rows) == 0:
        return theta
    g, f_0, slope_0 = gains[rows], f_0[rows], slope_0[rows]
    if fading.kind == "exponential":
        hi = c / g.max(axis=1)
        start = hi - hi / (1.0 - f_0)  # false position: the gap is 1 at hi
    else:
        hi = np.full(len(rows), np.inf)
        start = -f_0 / slope_0  # Newton's step from 0
    theta[rows] = _newton(gap, g, start, hi, log_steps=fading.kind != "exponential",
                          context={"kind": fading.kind, "x": x})
    return theta


def _newton(gap, g, t, hi, log_steps: bool, context: dict) -> np.ndarray:
    """Per row, the root of gap(theta, g), which returns the gap and its
    slope and increases in theta, from the tilts ``t``; the gap is negative
    at 0, and ``hi`` is the upper end of the bracket (inf where none is
    known).

    A ratio gap S / x - 1 (``log_steps``) takes Newton's step on log(S / x)
    in log theta, which is exact where S is a power of theta, as the
    ``weibull_super`` S is at large tilts; the exponential gap 1 - x / S
    takes it in theta.  Each evaluation narrows the row's bracket, and two
    guards keep the steps in it.  Until a row is bracketed, a Newton point
    past 1.5 theta (or a nan one) is replaced by 2 theta: where the gap is
    concave, Newton falls short of the root, and the doubling brackets it.  A
    row still below its root after TILT_DOUBLINGS such steps raises.  A
    non-finite gap, where the transforms leave the float range, lies past the
    root and tops the bracket.  Once bracketed, a Newton point outside the
    bracket (or a nan one) gives way to the midpoint: in log theta for a
    ratio gap, with 1 / max L for the bottom while no tilt below the root is
    known, so a top far past the root comes down in a few steps.  A row
    stops once its gap, relative to the level, is within _ROOT_GAP_TOL of 0,
    where its sign is rounding noise; once its step is below _ROOT_RTOL of
    theta, and then takes the stepped point; or once its bracket is
    _ROOT_RTOL wide relative to its top.  A row that stops where its gap is
    not finite raises.  Rows drop out as they converge.
    """
    root = np.empty(len(t))
    act = np.arange(len(t))
    lo = np.zeros(len(t))
    for k in range(_ROOT_STEPS):
        f_t, slope = gap(t, g[act])
        below = f_t < 0.0
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if log_steps:
                step = t * np.exp(-np.log1p(f_t) * (1.0 + f_t) / (t * slope))
            else:
                step = t - f_t / slope
        inside, unbracketed = (step > lo) & (step < hi), np.isinf(hi)
        if log_steps:
            bottom = np.where(lo > 0.0, lo, np.minimum(1.0 / g[act].max(axis=1), 0.5 * hi))
            mid = np.sqrt(bottom * hi)
        else:
            mid = 0.5 * (lo + hi)
        step = np.where(unbracketed, np.where(inside & (step <= 1.5 * t), step, 2.0 * t),
                        np.where(inside, step, mid))
        settled = np.abs(f_t) <= _ROOT_GAP_TOL
        done = (settled | (np.abs(step - t) <= _ROOT_RTOL * t)
                | (~unbracketed & (hi - lo <= _ROOT_RTOL * hi)))
        failed = (~np.isfinite(f_t) & done) | (unbracketed & ~done & (k == TILT_DOUBLINGS))
        if failed.any():
            i = int(np.argmax(failed))
            row = g[act[i]]
            raise CapExceededError(
                "tilt bracket search failed: no tilt reaches the target level",
                diagnostics={**context, "n_points": int(np.count_nonzero(row)),
                             "gain_sum": float(row.sum()), "gain_max": float(row.max()),
                             "theta_hi": float(t[i]), "gap_at_theta_hi": float(f_t[i]),
                             "doublings": k})
        root[act[done]] = np.where(settled, t, step)[done]
        keep = ~done
        act, t, lo, hi, f_t = (v[keep] for v in (act, step, lo, hi, f_t))
        if len(act) == 0:
            return root
    raise CapExceededError(
        "tilt solve did not converge",
        diagnostics={**context, "steps": _ROOT_STEPS, "rows_left": len(act),
                     "theta_lo": float(lo[0]), "theta_hi": float(hi[0]),
                     "theta": float(t[0]), "gap": float(f_t[0])})


def _crude(model: NetworkModel, x: float):
    """Evaluator of 1{I >= x}."""
    def evaluate(dist, gen):
        gains = attenuation(dist, model.atten_R, model.atten_alpha)
        i_val = _row_sum(model.fading.sample(gains.shape, gen) * gains)
        return (i_val >= x).astype(float)
    return evaluate


def _tilted(model: NetworkModel, x: float):
    """Evaluator of the likelihood-ratio-weighted 1{I >= x}, marks drawn
    from their laws tilted at the per-pattern tilt times their own gains
    (``_pattern_tilt``)."""
    fading = model.fading

    def evaluate(dist, gen):
        gains = attenuation(dist, model.atten_R, model.atten_alpha)
        # rows with no interferer, or bounded marks that cannot reach x, miss
        possible = gains.max(axis=1, initial=0.0) > 0.0
        if fading.kind == "bounded":
            possible &= fading.bound * _row_sum(gains) >= x
        theta = np.zeros(len(gains))
        theta[possible] = _pattern_tilt(fading, gains[possible], x)
        tilt = theta[:, None] * gains
        i_val = _row_sum(fading.sample_tilted(tilt, gen) * gains)
        hit = possible & (i_val >= x)
        return np.exp(np.where(hit, _row_sum(fading.log_mgf(tilt)) - theta * i_val,
                               -np.inf))
    return evaluate


def _single_jump(fading: FadingSpec, x_grid, gains_of):
    """Evaluator of the Asmussen-Kroese estimator at every level in
    ``x_grid``: one row of values per replication, from one mark draw per
    interferer shared by every level (``_jump_values``)."""
    x = np.asarray(x_grid, dtype=float)

    def evaluate(dist, gen):
        gains = gains_of(dist)
        return _jump_values(fading, fading.sample(gains.shape, gen) * gains, gains, x)
    return evaluate


def _jump_values(fading: FadingSpec, w: np.ndarray, gains: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """(rows x levels) Asmussen-Kroese values of weighted marks ``w``.

    With S_-i = S - w_i and M_-i the largest of the other weighted marks (the
    top two of the row, and 0 for a lone mark), the value at x is
    sum_i Fbar(max(M_-i, x - S_-i) / L_i) over the entries of positive gain:
    O(n) per level, and 0 for an empty row.
    """
    top = np.sort(np.pad(w, ((0, 0), (1, 0))), axis=1)[:, -2:]
    rest_max = np.where(w == top[:, 1:], top[:, :1], top[:, 1:])
    rest_sum = _row_sum(w)[:, None] - w
    arg = np.maximum(rest_max, x[:, None, None] - rest_sum)  # (levels, rows, n)
    on = np.broadcast_to(gains > 0.0, arg.shape)
    arg = np.divide(arg, gains, out=np.full(arg.shape, np.inf), where=on)
    return _row_sum(fading.survival(arg)).T


def _replicate(model: NetworkModel, n_reps: int, rng: RngStream, evaluate) -> np.ndarray:
    """The replication loop of every estimator: one generator from ``rng``,
    distance blocks of up to _BLOCK rows, and ``evaluate(dist, gen)``'s column
    or matrix for each block, stacked."""
    gen = rng.generator()
    draw = _distance_draw(model)
    return np.concatenate([evaluate(draw(gen, min(_BLOCK, n_reps - start)), gen)
                           for start in range(0, n_reps, _BLOCK)])


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
        est.diagnostics["max_weight_share"] = float(np.max(w) / np.sum(w))
    return est


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
    target = limit_constant(regime)
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
    tends to 1.  E[N] is the exact Palm trace of the window.
    """
    if model.fading.kind not in SUBEXPONENTIAL_KINDS:
        raise ValueError("subexp_sum_ratio requires a subexponential fading kind")
    x_grid = [float(v) for v in x_grid]
    jump = _single_jump(model.fading, x_grid, lambda d: np.isfinite(d).astype(float))
    rows = _replicate(model, n_reps, rng, jump)
    e_n = trace_bound(DiskRestriction(radius=model.radius, beta=model.beta,
                                      palm_shift=True))
    if e_n <= 0:
        raise ValueError("expected in-window count is zero; empty window")
    return [float(np.mean(rows[:, k])) / (e_n * float(model.fading.survival(x)))
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
                           rng: RngStream, n_reps: int) -> DominatingEventProbe:
    """Monte Carlo check that the proof's lower-bound events really minorize
    the tail: block bound P(N(b(y,r)) >= n) P(Z > R^a x/(n eps))^n and the
    single-jump bound P(Z > R^a x/eps) P(N(b(y,r)) >= 1).

    The ball radius r is half the distance from the receiver to the window
    boundary, capped below the attenuation plateau R.
    """
    gap = model.radius - abs(model.receiver)
    if gap < 0.02 * model.radius:
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
        gains = attenuation(dist, model.atten_R, model.atten_alpha)
        i_val = _row_sum(model.fading.sample(gains.shape, gen) * gains)
        return np.column_stack((eps * i_val > x, np.sum(dist <= r, axis=1)))

    hits, balls = _replicate(model, n_reps, rng, evaluate).T
    return DominatingEventProbe(
        p_joint=float(np.mean(hits)),
        p_joint_stderr=float(np.std(hits, ddof=1) / math.sqrt(n_reps)),
        p_block=float(np.mean(balls >= block_n)) * math.exp(block_n * log_sf_block),
        p_single=float(np.mean(balls >= 1)) * math.exp(log_sf_single),
        block_n=block_n, ball_radius=r)
