"""Random generation of point patterns and the Kostlan radial diagnostic.

The Ginibre sampler follows the spectral recipe for determinantal processes:
draw a Bernoulli(kappa_m) subset of eigenfunctions, then place that many
points sequentially from the induced projection process.  Proposals come from
the eigenfunction mixture (a truncated Gamma radius plus a uniform angle) and
are accepted with the residual-kernel ratio after projecting out the feature
vectors of the points already placed.

Thinning acts on the spectrum: the beta samplers draw the eigenfunctions from
the beta-thinned spectrum (see ``spectral``) and shrink the points by
sqrt(beta), so no point is placed and then discarded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from .errors import SamplerStallError
from .patterns import PointPattern, RngStream
from .spectral import DiskRestriction, eigenvalues

STALL_CAP = 1_000_000  # proposals per point before giving up with diagnostics
KOSTLAN_ORDERS = (1, 2)  # the order statistics kostlan_validation tests


def _sample_projection_points(restriction: DiskRestriction,
                              rng: np.random.Generator) -> np.ndarray:
    """One realization of the determinantal process of ``restriction``: its
    eigenfunctions placed on the 1/sqrt(beta)-inflated disk, shrunk by sqrt(beta)."""
    rsq = restriction.scaled_radius_sq
    kappa = eigenvalues(restriction)
    shift = 1 if restriction.palm_shift else 0
    ms = np.arange(shift, shift + len(kappa))
    active = ms[rng.random(len(kappa)) < kappa]
    k = len(active)
    if k == 0:
        return np.empty(0, dtype=complex)

    # log of the squared L2 norm of z^m over the disk w.r.t. the Gaussian
    # reference: m! * P(Po(r^2) >= m+1)
    trunc_mass = special.gammainc(active + 1, rsq)
    log_norm = special.gammaln(active + 1) + np.log(trunc_mass)

    points = np.empty(k, dtype=complex)
    basis = np.zeros((k, k), dtype=complex)  # orthonormalized feature vectors
    n_placed = 0
    proposals = 0
    chunk = max(64, 4 * k)
    while n_placed < k:
        if proposals > STALL_CAP:
            raise SamplerStallError(
                "sampler stall: rejection loop exceeded the proposal cap",
                diagnostics={
                    "radius": restriction.radius, "beta": restriction.beta,
                    "palm_shift": restriction.palm_shift, "target_points": k,
                    "placed": n_placed, "proposals": proposals,
                })
        # propose a vectorized batch from the eigenfunction mixture; the
        # proposal law does not depend on the placement state, so the whole
        # batch can be precomputed
        idx = rng.integers(k, size=chunk)
        ms = active[idx]
        t = special.gammaincinv(ms + 1, rng.random(chunk) * trunc_mass[idx])
        angle = rng.random(chunk) * 2.0 * math.pi
        u_accept = rng.random(chunk)
        r_pt = np.sqrt(t)
        # feature matrix with the Gaussian weight folded in; the common
        # pointwise factor cancels from every projection ratio
        with np.errstate(divide="ignore", invalid="ignore"):
            log_mag = np.log(r_pt)[:, None] * active[None, :]
        log_mag = np.where(active[None, :] == 0, 0.0, log_mag) \
            - 0.5 * t[:, None] - 0.5 * log_norm[None, :]
        phis = np.exp(log_mag + 1j * angle[:, None] * active[None, :])
        norms_sq = np.einsum("ij,ij->i", phis, phis.conj()).real
        for j in range(chunk):
            proposals += 1
            phi = phis[j]
            norm_sq = float(norms_sq[j])
            if norm_sq <= 0.0:
                continue
            coef = basis[:n_placed] @ phi.conj()
            resid_sq = norm_sq - float(np.vdot(coef, coef).real)
            if u_accept[j] * norm_sq >= resid_sq:
                continue
            points[n_placed] = r_pt[j] * complex(math.cos(angle[j]),
                                                 math.sin(angle[j]))
            w = phi - basis[:n_placed].T @ coef.conj()
            # second Gram-Schmidt pass keeps the basis orthonormal when the
            # residual is small
            w -= basis[:n_placed].T @ (basis[:n_placed] @ w.conj()).conj()
            wn = np.linalg.norm(w)
            if wn <= 0.0:
                continue
            basis[n_placed] = w / wn
            n_placed += 1
            if n_placed == k:
                break
    return points * math.sqrt(restriction.beta)


def sample_ginibre_disk(radius: float, rng: RngStream) -> PointPattern:
    """Exact draw of the Ginibre determinantal process restricted to b(O, radius)."""
    pts = _sample_projection_points(DiskRestriction(radius=radius), rng.generator())
    return PointPattern(points=pts, window_radius=radius, process_kind="ginibre",
                        beta=1.0, seed=rng.master_seed)


def sample_beta_ginibre(beta: float, window_radius: float,
                        rng: RngStream) -> PointPattern:
    """Exact draw of the Ginibre process thinned with retention beta and shrunk
    by sqrt(beta), restricted to b(O, window_radius)."""
    restriction = DiskRestriction(radius=window_radius, beta=beta)
    return PointPattern(points=_sample_projection_points(restriction, rng.generator()),
                        window_radius=window_radius, process_kind="beta_ginibre",
                        beta=beta, seed=rng.master_seed)


def sample_palm_beta_ginibre(beta: float, window_radius: float,
                             rng: RngStream) -> PointPattern:
    """Reduced Palm version at the origin of the beta-Ginibre process.

    The reduced Palm kernel drops the constant eigenfunction (monomials z^m,
    m >= 1).  The origin itself is never among the points.
    """
    restriction = DiskRestriction(radius=window_radius, beta=beta, palm_shift=True)
    return PointPattern(points=_sample_projection_points(restriction, rng.generator()),
                        window_radius=window_radius, process_kind="palm_beta_ginibre",
                        beta=beta, seed=rng.master_seed)


def sample_poisson(window_radius: float, intensity: float, rng: RngStream) -> PointPattern:
    """Homogeneous Poisson process on a disk."""
    if not window_radius > 0:
        raise ValueError("window_radius must be positive")
    if not intensity > 0:
        raise ValueError("intensity must be positive")
    gen = rng.generator()
    n = gen.poisson(intensity * math.pi * window_radius ** 2)
    r = window_radius * np.sqrt(gen.random(n))
    angle = 2.0 * math.pi * gen.random(n)
    return PointPattern(points=r * np.exp(1j * angle),
                        window_radius=window_radius, process_kind="poisson",
                        beta=1.0, seed=rng.master_seed)


@dataclass
class KostlanReport:
    """KS statistics and p-values, one per order in ``KOSTLAN_ORDERS``."""

    radius: float
    n_reps: int
    ks_statistics: tuple[float, ...]
    p_values: tuple[float, ...]


def kostlan_validation(radius: float, n_reps: int, rng: RngStream) -> KostlanReport:
    """Two-sample KS check of the i-th smallest squared moduli, i in
    ``KOSTLAN_ORDERS``, against the Gamma(i, 1) radial decomposition of the
    Ginibre process.

    A direct simulation of the independent-Gamma model provides the reference
    sample; the disk restriction must be wide enough that boundary truncation
    cannot influence the tested order statistics.
    """
    if n_reps <= 0:
        raise ValueError("n_reps must be positive")
    rsq = radius * radius
    k = max(KOSTLAN_ORDERS)
    if rsq < k + 6.0 * math.sqrt(k):
        raise ValueError(
            f"radius {radius} too small for order statistic {k}: "
            f"need radius^2 >= i + 6 sqrt(i)")
    ginibre_stats = np.empty((n_reps, k))
    for rep in range(n_reps):
        pat = sample_ginibre_disk(radius, rng.substream(rep))
        sq = np.sort(np.abs(pat.points) ** 2)
        if len(sq) < k:  # vanishing-probability corner at these radii
            sq = np.concatenate([sq, np.full(k - len(sq), rsq)])
        ginibre_stats[rep] = sq[:k]

    gen = rng.substream(n_reps + 1).generator()
    n_gammas = int(rsq + 6.0 * math.sqrt(rsq)) + 8
    shapes = np.arange(1, n_gammas + 1)
    draws = gen.gamma(shape=shapes, size=(n_reps, n_gammas))
    kostlan_stats = np.sort(draws, axis=1)[:, :k]

    stats_out, pvals = [], []
    for i in KOSTLAN_ORDERS:
        res = stats.ks_2samp(ginibre_stats[:, i - 1], kostlan_stats[:, i - 1])
        stats_out.append(float(res.statistic))
        pvals.append(float(res.pvalue))
    return KostlanReport(radius=radius, n_reps=n_reps,
                        ks_statistics=tuple(stats_out), p_values=tuple(pvals))
