"""Acceptance validation suite with fixed seeds and quick/full budgets.

Each check returns a CheckResult; run_suite executes all of them and is the
engine behind ``ginibrenet validate``.  The same functions back the
acceptance tests, so CLI validation and pytest exercise identical code.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import CapExceededError, MgfDivergenceError
from .estimation import (dominating_event_probe, estimate_interference_tail,
                         speed_regression, subexp_sum_ratio)
from .fading import FadingSpec
from .goodness_of_fit import chisquare_vs_pmf, ks_vs_cdf
from .interference import NetworkModel
from .patterns import RngStream
from .rates import (LdpRegime, poisson_comparison, rate, speed,
                    weibull_rate_constant)
from .samplers import sample_block, sample_counts
from .spectral import (DiskRestriction, count_distribution, eigenvalues,
                       log_count_tail, log_disk_eigenvalue,
                       minimized_chernoff_bound, poisson_binomial_pmf,
                       trace_bound)

# Every check draws on RngStream(MASTER_SEED, id); no two checks share a
# seed sequence at either budget.  The ids, by check:
#   count_law 100-103 (a block per case); palm_identity 200, 202, 203, 205
#   (beta i: Palm block 200 + 3 i, Gaussian points 202 + 3 i); kostlan 300
#   (a block, its patterns on the children (300, i)); variance_contrast 400
#   (a block); exponential_slope 1500, 2500, ... (grid point i on
#   500 + 1000 (i + 1)); subexp_ratio 600; chernoff_dominance 700-702;
#   lower_bound_ordering 800-817.
MASTER_SEED = 20240901
# check_kostlan: the order statistics it tests, its off-centre balls
# b(c, rho), and the radius of its Ginibre disk: the smallest centred disk
# that holds every ball, so the check draws no point that none of its
# statistics reads
KOSTLAN_ORDERS = (1, 2)
KOSTLAN_BALLS = ((3.0, 2.5), (4.0, 1.5))
KOSTLAN_RADIUS = max(c + rho for c, rho in KOSTLAN_BALLS)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name: str, passed: bool, detail: str, t0: float) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail,
                       seconds=time.perf_counter() - t0)


# -- individual checks ------------------------------------------------------

def check_spectral_exactness(quick: bool = False) -> CheckResult:
    """Trace identity sum kappa_m = r^2 and strict eigenvalue decrease."""
    t0 = time.perf_counter()
    worst = 0.0
    monotone = True
    for r in (0.5, 1.0, 2.0, 5.0):
        seq = eigenvalues(DiskRestriction(radius=r), tol=1e-18)
        worst = max(worst, abs(float(np.sum(seq)) - r * r))
        monotone &= bool(np.all(np.diff(seq) < 0))
    passed = worst < 1e-9 and monotone
    return _result("spectral_exactness", passed,
                   f"max |trace - r^2| = {worst:.3e}, strictly decreasing: {monotone}",
                   t0)


def check_count_law(quick: bool = False) -> CheckResult:
    """Empirical counts vs the exact Poisson-binomial law, full and thinned.

    The window count of a projection DPP is the size of its active set, so
    this gates the sampler's spectral Bernoulli step; point placement is
    gated by ``check_kostlan`` and the sampler tests."""
    t0 = time.perf_counter()
    n_reps = 2000 if quick else 10_000
    stream = RngStream(MASTER_SEED, 100)
    details, ok = [], True
    cases = [("ginibre", 1.0, 1.0), ("ginibre", 1.0, 2.0),
             ("beta", 0.5, 1.0), ("beta", 0.5, 2.0)]
    for ci, (kind, beta, radius) in enumerate(cases):
        restriction = DiskRestriction(radius=radius, beta=beta)
        counts = sample_counts(restriction, stream.substream(ci), n_reps)
        max_n = int(counts.max()) + 10
        pmf = count_distribution(restriction, max_n)
        p = chisquare_vs_pmf(counts, pmf)
        details.append(f"{kind}(beta={beta}, r={radius}): p={p:.4f}")
        ok &= p > 0.01
    return _result("count_law", ok, "; ".join(details), t0)


def check_palm_identity(quick: bool = False) -> CheckResult:
    """Palm sample plus an independent scaled Gaussian point (kept w.p. beta)
    has the count law of the thinned-scaled process, which is exactly
    ``count_distribution(DiskRestriction(radius, beta))``.

    The Palm window count is an active-set size, so this gates the spectral
    Bernoulli step of the Palm spectrum; point placement is gated by
    ``check_kostlan`` and the sampler tests."""
    t0 = time.perf_counter()
    n_reps = 2000 if quick else 10_000
    radius = 1.5
    stream = RngStream(MASTER_SEED, 200)
    details, ok = [], True
    for bi, beta in enumerate((0.25, 1.0)):
        counts = sample_counts(
            DiskRestriction(radius=radius, beta=beta, palm_shift=True),
            stream.substream(3 * bi), n_reps)
        gauss_gen = stream.substream(3 * bi + 2).generator()
        kept = gauss_gen.random(n_reps) < beta
        g = gauss_gen.normal(scale=math.sqrt(0.5), size=(n_reps, 2))
        counts += kept & (math.sqrt(beta) * np.hypot(*g.T) <= radius)
        pmf = count_distribution(DiskRestriction(radius=radius, beta=beta),
                                 int(counts.max()) + 10)
        p = chisquare_vs_pmf(counts, pmf)
        details.append(f"beta={beta}: p={p:.4f}")
        ok &= p > 0.01
    return _result("palm_identity", ok, "; ".join(details), t0)


def _order_cdf(t: np.ndarray, i: int, n_terms: int) -> np.ndarray:
    """P(N(b(0, sqrt t)) >= i), the CDF at t of the i-th smallest squared
    modulus of the Ginibre process.  By Kostlan's theorem N is a sum of
    independent Bernoulli(gammainc(m + 1, t)); the sum runs over m < n_terms."""
    kappa = special.gammainc(np.arange(1, n_terms + 1)[:, None], t)
    return 1.0 - poisson_binomial_pmf(kappa, i - 1).sum(axis=0)


def check_kostlan(quick: bool = False) -> CheckResult:
    """Exact-law checks of Ginibre patterns on b(0, KOSTLAN_RADIUS), the
    smallest centred disk that holds every ball of ``KOSTLAN_BALLS``.  The
    Ginibre process on a larger disk, restricted to this one, has the same
    law, so the patterns hold exactly the points the statistics read.

    * One-sample KS of the i-th smallest squared modulus, i in
      ``KOSTLAN_ORDERS``, against its exact Kostlan law (``_order_cdf``).
      The terms m run over ``eigenvalues(DiskRestriction(KOSTLAN_RADIUS))``:
      for t up to KOSTLAN_RADIUS^2 each dropped term is below that cut.
    * Chi-square of the count in each ball b(c, rho) of ``KOSTLAN_BALLS``
      against ``count_distribution(DiskRestriction(rho))``.  The Ginibre
      process is stationary, so an off-centre ball inside the disk has the
      count law of a centred one; unlike the moduli, these counts see the
      angles.
    """
    t0 = time.perf_counter()
    n_reps = 1000 if quick else 5000
    restriction = DiskRestriction(radius=KOSTLAN_RADIUS)
    patterns = sample_block(restriction, RngStream(MASTER_SEED, 300), n_reps)
    # a pattern with fewer than k points (vanishing probability at this
    # radius) reads KOSTLAN_RADIUS^2 for its missing moduli
    k = max(KOSTLAN_ORDERS)
    smallest = np.full((k, n_reps), KOSTLAN_RADIUS * KOSTLAN_RADIUS)
    for rep, pts in enumerate(patterns):
        sq = np.sort(np.abs(pts) ** 2)[:k]
        smallest[:len(sq), rep] = sq
    n_terms = len(eigenvalues(restriction))
    order_p = [ks_vs_cdf(_order_cdf(smallest[i - 1], i, n_terms))[1]
               for i in KOSTLAN_ORDERS]
    ball_p = []
    for centre, rho in KOSTLAN_BALLS:
        counts = np.array([np.count_nonzero(np.abs(pts - centre) <= rho)
                           for pts in patterns])
        pmf = count_distribution(DiskRestriction(radius=rho), int(counts.max()) + 10)
        ball_p.append(chisquare_vs_pmf(counts, pmf))
    ok = all(p > 0.01 for p in order_p + ball_p)
    orders = ", ".join(f"order {i}: p={p:.4f}"
                       for i, p in zip(KOSTLAN_ORDERS, order_p))
    balls = ", ".join(f"ball b({c:g}, {rho:g}): p={p:.4f}"
                      for (c, rho), p in zip(KOSTLAN_BALLS, ball_p))
    return _result("kostlan", ok, f"{orders}; {balls}", t0)


def check_variance_contrast(quick: bool = False) -> CheckResult:
    """Count variance matches sum kappa(1-kappa) and sits well below Poisson.

    The window count is the size of the active set, so this gates the
    sampler's spectral Bernoulli step; point placement is gated by
    ``check_kostlan`` and the sampler tests."""
    t0 = time.perf_counter()
    n_reps = 2000 if quick else 10_000
    radius = 5.0
    stream = RngStream(MASTER_SEED, 400)
    counts = sample_counts(DiskRestriction(radius=radius), stream, n_reps)
    kappa = eigenvalues(DiskRestriction(radius=radius))
    exact_var = float(np.sum(kappa * (1.0 - kappa)))
    emp_var = float(np.var(counts, ddof=1))
    rel = abs(emp_var - exact_var) / exact_var
    tol = 0.10 if quick else 0.05
    ok = rel < tol and emp_var < 0.6 * radius ** 2
    return _result("variance_contrast", ok,
                   f"empirical var {emp_var:.3f} vs exact {exact_var:.3f} "
                   f"(rel {rel:.3%}); Poisson var {radius ** 2:.0f}", t0)


def check_count_tail_trend(quick: bool = False) -> CheckResult:
    """-log P(N >= m) / (m^2 log m / 2) positive and rising toward its limit
    1 from m = 10 on; Ginibre tail far below the matched-mean Poisson tail."""
    t0 = time.perf_counter()
    ms = (5, 10, 20, 40)
    restriction = DiskRestriction(radius=1.0)
    ratios = [-log_count_tail(restriction, m) / (0.5 * m * m * math.log(m))
              for m in ms]
    positive = all(0.0 < r < 1.0 for r in ratios)
    # the exact ratio dips between m=5 and m=10 before climbing toward the
    # limit 1; the trend assertion covers the asymptotic portion m >= 10
    rising = bool(np.all(np.diff(ratios[1:]) > 0))
    mean = trace_bound(restriction)
    gin20 = -log_count_tail(restriction, 20)
    poi20 = -log_disk_eigenvalue(19, mean)  # -log P(Po(mean) >= 20)
    factor = gin20 / poi20
    ok = positive and rising and factor >= 5.0
    return _result("count_tail_trend", ok,
                   f"ratios {['%.4f' % r for r in ratios]}, "
                   f"Ginibre/Poisson log-tail factor at m=20: {factor:.2f}", t0)


def _model(fading: FadingSpec) -> NetworkModel:
    """The estimator checks' model: beta = 1, window b(0, 2), receiver at the
    origin, R = 1, alpha = 4."""
    return NetworkModel(beta=1.0, radius=2.0, receiver=0j, atten_R=1.0,
                        atten_alpha=4.0, fading=fading)


def check_exponential_slope(quick: bool = False) -> CheckResult:
    """Tilted-estimator slope regression against the -c R^alpha limit."""
    t0 = time.perf_counter()
    model = _model(FadingSpec(kind="exponential", c=1.0))
    regime = LdpRegime(model.fading, model.atten_R, model.atten_alpha)
    if quick:
        x_grid, n_reps = [7.0, 9.0, 11.0, 13.0], 3000
    else:
        x_grid, n_reps = [7.0, 9.0, 11.0, 13.0, 15.0, 17.0], 12_000
    report = speed_regression(model, regime, x_grid, n_reps, "tilted",
                              RngStream(MASTER_SEED, 500))
    ok = report.relative_error <= 0.20
    return _result("exponential_slope", ok,
                   f"fitted {report.fitted_slope:.4f} vs target "
                   f"{report.target_slope:.4f} (rel err {report.relative_error:.3%})",
                   t0)


def check_subexp_ratio(quick: bool = False) -> CheckResult:
    """Pareto sum-tail over E[N] Fbar(x) at a deep grid point is near 1."""
    t0 = time.perf_counter()
    model = _model(FadingSpec(kind="pareto", c=2.0))
    n_reps = 4000 if quick else 20_000
    x_grid = [30.0, 60.0, 99.0]
    ratios = subexp_sum_ratio(model, x_grid, n_reps, RngStream(MASTER_SEED, 600))
    deepest = ratios[-1]
    ok = 0.8 <= deepest <= 1.3
    return _result("subexp_ratio", ok,
                   f"ratios {['%.3f' % r for r in ratios]} (deepest {deepest:.3f})",
                   t0)


def check_chernoff_dominance(quick: bool = False) -> CheckResult:
    """Minimized spectral Chernoff bound dominates the crude estimate."""
    t0 = time.perf_counter()
    model = _model(FadingSpec(kind="weibull_super", c=1.0, gamma=2.0))
    n_reps = 5000 if quick else 20_000
    stream = RngStream(MASTER_SEED, 700)
    details, ok = [], True
    for xi, x in enumerate((2.5, 3.5, 4.5)):
        est = estimate_interference_tail(model, x, n_reps, "crude",
                                         stream.substream(xi))
        bound, theta = minimized_chernoff_bound(model, x)
        passed = est.probability + 3.0 * est.stderr <= bound
        details.append(f"x={x}: p={est.probability:.2e}+3se vs bound {bound:.2e}"
                       f" (theta*={theta:.2f})")
        ok &= passed
    return _result("chernoff_dominance", ok, "; ".join(details), t0)


def check_rate_table(quick: bool = False) -> CheckResult:
    """Closed-form rate/speed/asymptote spot values and the gamma -> 1+
    convergence of the Ginibre and Poisson Weibull constants."""
    t0 = time.perf_counter()
    checks = []

    bounded = LdpRegime(FadingSpec(kind="bounded", bound=2.0), 1.0, 2.5)
    checks.append(("bounded rate", rate(bounded, 2.0), 1.0 * 4.0 / (2 * 4.0)))
    checks.append(("bounded speed", speed(bounded, 0.1), math.log(10.0) / 0.01))

    expo = LdpRegime(FadingSpec(kind="exponential", c=2.0), 1.0, 3.0)
    checks.append(("exponential rate", rate(expo, 3.0), 6.0))
    checks.append(("exponential speed", speed(expo, 0.01), 100.0))

    weib = LdpRegime(FadingSpec(kind="weibull_super", c=1.0, gamma=2.0), 1.0, 3.0)
    checks.append(("weibull rate", rate(weib, 1.0),
                   0.5 * 2.0 ** (1.0 / 3.0) * 3.0 ** (2.0 / 3.0)))

    par = LdpRegime(FadingSpec(kind="pareto", c=2.0), 1.0, 3.0)
    checks.append(("pareto speed", speed(par, 0.01), 2.0 * math.log(101.0)))
    checks.append(("pareto rate origin", rate(par, 0.0), 0.0))

    worst = max(abs(got - want) / max(abs(want), 1.0) for _, got, want in checks)
    g = 1.001
    gin = weibull_rate_constant(1.0, g, 1.0)
    poi = abs(poisson_comparison(
        LdpRegime(FadingSpec(kind="weibull_super", c=1.0, gamma=g), 1.0, 3.0)))
    conv = abs(gin - poi) / poi
    ok = worst < 1e-12 and conv < 0.02
    return _result("rate_table", ok,
                   f"max closed-form rel err {worst:.2e}; gamma=1.001 "
                   f"constants {gin:.5f} vs {poi:.5f} (gap {conv:.3%})", t0)


def check_lower_bound_ordering(quick: bool = False) -> CheckResult:
    """Dominating-event lower bounds sit below the joint probability."""
    t0 = time.perf_counter()
    n_reps = 4000 if quick else 20_000
    stream = RngStream(MASTER_SEED, 800)
    grids = {
        "exponential": (_model(FadingSpec(kind="exponential", c=1.0)),
                        (1.0, 1.5, 2.0), (0.7, 1.0, 1.4)),
        "bounded": (_model(FadingSpec(kind="bounded", bound=1.0)),
                    (0.6, 0.9, 1.2), (0.8, 1.0, 1.3)),
    }
    details, ok = [], True
    idx = 0
    for label, (model, xs, epss) in grids.items():
        if quick:
            xs, epss = xs[:2], epss[:2]
        worst_margin = math.inf
        for x in xs:
            for eps in epss:
                probe = dominating_event_probe(model, x, eps,
                                               stream.substream(idx), n_reps=n_reps)
                idx += 1
                tol = 3.0 * probe.p_joint_stderr
                margin = min(probe.p_joint + tol - probe.p_block,
                             probe.p_joint + tol - probe.p_single)
                worst_margin = min(worst_margin, margin)
                ok &= margin >= 0.0
        details.append(f"{label}: worst margin {worst_margin:.3e}")
    return _result("lower_bound_ordering", ok, "; ".join(details), t0)


ALL_CHECKS = (
    check_spectral_exactness,
    check_count_law,
    check_palm_identity,
    check_kostlan,
    check_variance_contrast,
    check_count_tail_trend,
    check_exponential_slope,
    check_subexp_ratio,
    check_chernoff_dominance,
    check_rate_table,
    check_lower_bound_ordering,
)


def run_suite(quick: bool = False, report=print) -> bool:
    """Execute every check; report one line each; True iff all passed.

    A check that hits a cap or a divergent MGF fails with the exception and
    its diagnostics as its detail, and the remaining checks still run."""
    all_ok = True
    total = 0.0
    for fn in ALL_CHECKS:
        t0 = time.perf_counter()
        try:
            res = fn(quick=quick)
        except (CapExceededError, MgfDivergenceError) as exc:
            detail = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, CapExceededError):
                detail += f" {exc.diagnostics}"
            res = _result(fn.__name__.removeprefix("check_"), False, detail, t0)
        total += res.seconds
        all_ok &= res.passed
        status = "PASS" if res.passed else "FAIL"
        report(f"[{status}] {res.name:<24s} ({res.seconds:6.1f}s)  {res.detail}")
    report(f"{'all checks passed' if all_ok else 'FAILURES present'} "
           f"in {total:.1f}s ({'quick' if quick else 'full'} budget)")
    return all_ok
