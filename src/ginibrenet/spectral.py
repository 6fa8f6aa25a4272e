"""Exact spectral computations for the Ginibre kernel restricted to disks.

The kernel exp(x conj(y)) with Gaussian reference measure, restricted to a
centered disk of radius r, diagonalizes over the monomials z^m with
eigenvalues P(Po(r^2) >= m + 1), m = 0, 1, ...  Independent thinning with
retention beta (followed by sqrt(beta) scaling) multiplies every eigenvalue
by beta after replacing r by r / sqrt(beta).  The reduced-Palm kernel at the
origin drops the constant eigenfunction (m = 0).

Everything here is a deterministic function of its inputs; the Monte Carlo
samplers validate against these values, never the other way around.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy import special

if TYPE_CHECKING:  # pragma: no cover
    from .interference import NetworkModel

DEFAULT_TOL = 1e-12
# Poisson tails decay superexponentially past the mean; this cap is never the
# binding truncation at the default tolerance.
_HARD_CAP_SLOPE = 10
_HARD_CAP_OFFSET = 64
# log_count_tail: eigenvalues kept past the tolerance cut (or past m), and the
# log-eigenvalue level below which gammainc has lost its precision
_TAIL_MARGIN = 64
_LOG_UNDERFLOW = math.log(1e-290)
# tilts over which minimized_chernoff_bound searches: log-spaced and wide
# enough that the optimum is interior for moderate tail levels
_THETA_GRID = np.geomspace(1e-2, 1e3, 300)


@dataclass(frozen=True)
class DiskRestriction:
    """Ginibre kernel restricted to a disk, possibly Palm-reduced and thinned.

    The disk is centred at the origin.  ``palm_shift`` drops the constant
    eigenfunction (reduced Palm kernel at the origin); ``beta`` applies
    independent thinning spectrally.
    """

    radius: float = 1.0
    palm_shift: bool = False
    beta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if not (0 < self.beta <= 1):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")

    @property
    def scaled_radius_sq(self) -> float:
        """Squared radius of the disk mapped through the 1/sqrt(beta) scaling."""
        return self.radius * self.radius / self.beta  # libm's ** 2 can be 1 ulp off


def log_disk_eigenvalue(m: int, radius_sq: float) -> float:
    """log P(Po(radius_sq) >= m+1), usable far below float underflow."""
    # scipy.stats.poisson's sf and logpmf formulas, without importing
    # scipy.stats, which costs about a second at start-up
    sf = special.pdtrc(m, radius_sq)
    if sf > 1e-290:
        return math.log(sf)
    # deep tail: sum a geometric-decaying block of log-pmfs
    ks = m + 1 + np.arange(200)
    logpmf = special.xlogy(ks, radius_sq) - special.gammaln(ks + 1) - radius_sq
    return float(special.logsumexp(logpmf))


@lru_cache(maxsize=256)
def _eigenvalue_cache(radius_sq: float, beta: float, shift: int,
                      tol: float) -> tuple[float, ...]:
    cap = _HARD_CAP_SLOPE * math.ceil(radius_sq) + _HARD_CAP_OFFSET
    ms = np.arange(shift, cap + shift)
    vals = beta * special.gammainc(ms + 1, radius_sq)
    below = np.nonzero(vals < tol)[0]
    keep = below[0] if len(below) else len(vals)
    return tuple(vals[:keep])


def eigenvalues(restriction: DiskRestriction, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Thinning-scaled eigenvalue sequence, truncated once values drop below tol."""
    if not (0 < tol < 1):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    shift = 1 if restriction.palm_shift else 0
    return np.array(_eigenvalue_cache(restriction.scaled_radius_sq,
                                      restriction.beta, shift, tol))


def trace_bound(restriction: DiskRestriction) -> float:
    """Sum of the eigenvalue sequence; equals radius^2 for the non-Palm kernel."""
    return float(np.sum(eigenvalues(restriction)))


def poisson_binomial_pmf(probs: np.ndarray, max_n: int) -> np.ndarray:
    """P(N = k), k = 0..max_n, for N a sum of independent Bernoulli(probs[j])
    over the first axis of ``probs``; any further axes are a batch of such
    sums, and the result has shape (max_n + 1, *probs.shape[1:]).

    The linear recursion adds the terms one at a time and keeps only the
    cells up to max_n: O(max_n) memory and O(n min(n, max_n)) time for n
    terms.  Tails below float underflow read 0.
    """
    pmf = np.zeros((max_n + 1,) + probs.shape[1:])
    pmf[0] = 1.0
    for j, p in enumerate(probs):
        top = min(j + 1, max_n)  # the count after j + 1 terms is at most j + 1
        pmf[1:top + 1] = pmf[1:top + 1] * (1.0 - p) + pmf[:top] * p
        pmf[0] *= 1.0 - p
    return pmf


def count_distribution(restriction: DiskRestriction, max_n: int,
                       tol: float = DEFAULT_TOL) -> np.ndarray:
    """P(N = k), k = 0..max_n, the exact Poisson-binomial law of the count.

    The count of a determinantal process in a window is a sum of independent
    Bernoulli(kappa_m) variables over the window's eigenvalues.  Deep tails
    underflow to 0 here; ``log_count_tail`` computes them.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    return poisson_binomial_pmf(eigenvalues(restriction, tol), max_n)


def log_count_tail(restriction: DiskRestriction, m: int) -> float:
    """log P(N >= m), exact up to truncation, computed entirely in log space.

    The linear-space convolution underflows around P ~ 1e-300 (already hit at
    m ~ 40 in a unit disk), so the Poisson-binomial recursion runs on
    log-probabilities with log-scale eigenvalues.  It keeps every eigenvalue
    above DEFAULT_TOL (the cut of ``eigenvalues``) and _TAIL_MARGIN more past
    that cut or past m, whichever is later: a deep tail is made of the small
    eigenvalues beyond the cut.  Counts of m or more share one absorbing cell.
    """
    if m < 0:
        raise ValueError("count threshold must be nonnegative")
    if m == 0:
        return 0.0
    shift = 1 if restriction.palm_shift else 0
    rsq = restriction.scaled_radius_sq
    n_eigs = max(len(eigenvalues(restriction)), m) + _TAIL_MARGIN
    ks = np.arange(shift, n_eigs + shift)
    with np.errstate(divide="ignore"):
        logk = np.log(special.gammainc(ks + 1, rsq))
        deep = logk < _LOG_UNDERFLOW
        logk[deep] = [log_disk_eigenvalue(k, rsq) for k in ks[deep]]
        logp = math.log(restriction.beta) + logk
        log1mp = np.log1p(-np.exp(logp))  # -inf where an eigenvalue is 1
    logpmf = np.full(m + 1, -np.inf)
    logpmf[0] = 0.0
    for lp, l1mp in zip(logp, log1mp):
        nxt = logpmf + l1mp
        nxt[m] = logpmf[m]
        nxt[1:] = np.logaddexp(nxt[1:], logpmf[:-1] + lp)
        logpmf = nxt
    return min(0.0, float(logpmf[m]))  # rounding can lift log 1 above 0


def pair_correlation(x1: complex, x2: complex) -> float:
    """Ginibre pair correlation 1 - exp(-|x1 - x2|^2); at most 1 (repulsion)."""
    return float(-np.expm1(-abs(complex(x1) - complex(x2)) ** 2))


def _log_chernoff(model: "NetworkModel", x: float,
                  thetas: np.ndarray) -> np.ndarray:
    """log of the Chernoff bound on P(I_Lambda >= x), per mark tilt.

    Uses the window b(0, r), its thinned eigenvalue sequence, and
    -theta x + sum_m log(1 + (M - 1) kappa_m), with M the fading MGF at
    theta * R^(-alpha).
    """
    vals = eigenvalues(DiskRestriction(radius=model.radius, beta=model.beta))
    log_m = model.fading.log_mgf(thetas * model.atten_R ** (-model.atten_alpha))
    with np.errstate(divide="ignore"):
        log_terms = np.logaddexp(np.log1p(-vals), np.log(vals) + log_m[:, None])
    return -thetas * x + log_terms.sum(axis=1)


def minimized_chernoff_bound(model: "NetworkModel", x: float) -> tuple[float, float]:
    """Minimum of the Chernoff bound over the grid of positive tilts at which
    the mark MGF is finite, evaluated in one call.

    Returns (bound, minimizing theta); theta is 0 when no tilt on the grid
    brings the bound below 1.
    """
    mark_tilts = _THETA_GRID * model.atten_R ** (-model.atten_alpha)
    thetas = _THETA_GRID[mark_tilts < model.fading.mgf_abscissa]
    if len(thetas) == 0:
        return 1.0, 0.0
    log_bounds = _log_chernoff(model, x, thetas)
    best = int(np.argmin(log_bounds))
    bound = float(np.exp(min(log_bounds[best], 0.0)))
    return (bound, float(thetas[best])) if bound < 1.0 else (1.0, 0.0)
