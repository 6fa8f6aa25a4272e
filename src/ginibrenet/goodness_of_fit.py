"""Goodness-of-fit p-values against exact laws: chi-square on counts and
one-sample Kolmogorov-Smirnov on continuous samples.

Every p-value comes from ``scipy.special`` (``chdtrc``, ``smirnov``), the
functions ``scipy.stats`` itself calls, so the package never loads
``scipy.stats``: that import alone takes a process from about 54 to 100 MB.
"""
from __future__ import annotations

import numpy as np
from scipy import special


def _pool_bins(observed: np.ndarray, expected: np.ndarray):
    """Merge adjacent bins until every expected cell mass reaches 5."""
    obs_out, exp_out = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 5.0:
            obs_out.append(o_acc)
            exp_out.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0 and obs_out:
        obs_out[-1] += o_acc
        exp_out[-1] += e_acc
    return np.array(obs_out), np.array(exp_out)


def chisquare_vs_pmf(counts: np.ndarray, pmf: np.ndarray) -> float:
    """p-value of the one-sample chi-square of integer counts against an exact
    pmf over {0, 1, ...}; the pmf tail beyond its length is lumped in."""
    top = max(int(counts.max()), len(pmf) - 1)
    observed = np.bincount(counts, minlength=top + 1).astype(float)
    expected = np.zeros(top + 1)
    expected[:len(pmf)] = pmf
    expected[-1] += max(0.0, 1.0 - pmf.sum())
    expected *= len(counts)
    obs, exp = _pool_bins(observed, expected)
    exp *= obs.sum() / exp.sum()
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    return float(special.chdtrc(len(obs) - 1, statistic))


def ks_vs_cdf(cdf_values: np.ndarray) -> tuple[float, float]:
    """Two-sided one-sample KS statistic D and p-value of a sample, given its
    exact continuous CDF at each sample point.

    p = min(1, 2 smirnov(n, D)) doubles the exact one-sided tail.  It agrees
    with the exact two-sided law (``scipy.stats.kstwo``) to 1e-4 wherever
    that is at most 0.1, and overstates larger p-values."""
    u = np.sort(cdf_values)
    n = len(u)
    d_plus = float(np.max(np.arange(1, n + 1) / n - u))
    d_minus = float(np.max(u - np.arange(n) / n))
    d = max(d_plus, d_minus)
    return d, float(min(1.0, 2.0 * special.smirnov(n, d)))
