"""Random generation of point patterns.

The Ginibre sampler follows the spectral recipe for determinantal processes:
draw a Bernoulli(kappa_m) subset of eigenfunctions, then place that many
points sequentially from the induced projection process.  Proposals come from
the eigenfunction mixture (an index m, a squared radius from the Gamma(m + 1)
law cut at the disk's edge, drawn by ``_cut_gamma``, and a uniform angle) and
are accepted with the residual-kernel ratio after projecting out the feature
vectors of the points already placed.

Thinning acts on the spectrum: a beta < 1 draw takes its eigenfunctions from
the beta-thinned spectrum (see ``spectral``) and shrinks the points by
sqrt(beta), so no point is placed and then discarded.

Draws come in blocks: ``sample_block(restriction, rng, n)`` draws n patterns
from one stream.  The n active sets are the rows of one array of uniforms
from ``rng.generator()``, and pattern i places its points from its own child
generator (``RngStream.child_generator(i)``), built only if it has points.
Groups of patterns, sorted by point count, advance one acceptance each per
numpy step, each pattern reading its child generator in the order of a lone
draw.  So pattern i depends on ``(rng, i)`` alone, not on n or on how the
patterns are grouped, and the single-pattern sampler ``sample_pattern`` is a
block of one.

A pattern's point count is the size of its active set, fixed before its first
point is placed, so ``sample_counts(restriction, rng, n)`` returns the counts
of ``sample_block(restriction, rng, n)`` from the Bernoulli step alone.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import SamplerStallError
from .patterns import PointPattern, RngStream
from .spectral import DiskRestriction, eigenvalues

STALL_CAP = 1_000_000  # a pattern's proposals in all, past which it stalls with diagnostics
_GROUP = 32  # patterns advanced together, sorted by point count
_WINDOW = 16  # proposals one pattern featurizes at a time
_TINY = 2.2250738585072014e-308  # smallest normal float


def _cut_gamma(gen: np.random.Generator, shape: np.ndarray, v: np.ndarray,
               cut: float) -> np.ndarray:
    """Gamma(shape, 1) variates cut at ``cut``, one per entry of ``shape``.
    Entry j of ``v`` is a uniform on (0, kappa_j), independent of the Gamma
    draws, with kappa_j = gammainc(shape_j, cut) the mass inside the cut.

    Each entry takes one ``gen.standard_gamma`` draw, in order; a draw past
    the cut is replaced by the inversion gammaincinv(shape_j, v_j), capped at
    the cut against rounding.  The mixture is the truncated law exactly: for
    A inside the cut, with F the Gamma law, P(G in A) = F(A) + (1 - kappa)
    F(A) / kappa = F(A) / kappa.  This is the squared modulus of Kostlan's
    m-th radial term (shape m + 1) on a disk of squared radius ``cut``."""
    g = gen.standard_gamma(shape)
    past = np.flatnonzero(g > cut)
    g[past] = np.minimum(special.gammaincinv(shape[past], v[past]), cut)
    return g


class _Group:
    """Up to ``_GROUP`` patterns of one block, advanced one acceptance each
    per step.  ``members`` are their indices in the block, ``gens`` maps an
    index to its pattern's generator, and ``actives`` are the patterns'
    active sets, in the order of ``members``.

    Each pattern draws its proposals in chunks of max(64, 4k) from its own
    generator, in the order of a lone draw: indices, radius uniforms, angle
    uniforms, acceptance uniforms, then the squared radii from
    ``_cut_gamma``, one ``standard_gamma(m + 1)`` draw per proposal, cut at
    c = r^2 / beta with the radius uniform u kappa_m.  The chunk holds m, the
    squared radius, the angle and the acceptance uniform of each proposal.
    It featurizes them ``_WINDOW`` at a time.  Each buffered proposal keeps
    its feature vector with the placed points projected out, and its margin:
    residual norm minus u |phi|^2, positive iff it is accepted.  Every
    acceptance updates both with one product (modified Gram-Schmidt).
    Placing points only lowers a margin, so a proposal once rejected stays
    rejected, and the first positive margin in chunk order is the lone
    draw's acceptance whatever the window; consumed slots hold -inf.
    Finished patterns leave the group, so every step works on all its rows.
    """

    _ROWS = ("members", "ks", "csize", "act", "trunc", "half_log_norm",
             "chunk", "cpos", "nchunks", "vec", "margin", "wstart", "bc",
             "placed", "pts", "last")

    def __init__(self, restriction: DiskRestriction, gens: dict, actives: list,
                 members: np.ndarray, ks: np.ndarray, points: list,
                 proposals: np.ndarray):
        self.restriction, self.gens = restriction, gens
        self.members, self.ks = members, ks
        self.points, self.proposals = points, proposals
        g, k = len(members), int(ks[-1])  # members are sorted by k
        self.csize = np.maximum(64, 4 * self.ks)
        self.act = np.full((g, k), -1.0)  # the active m, -1 in the padding
        for row, act in enumerate(actives):
            self.act[row, :len(act)] = act
        # half the log of the squared L2 norm of z^m over the disk w.r.t. the
        # Gaussian reference, m! * P(Po(r^2) >= m+1); in the padding
        # gammaln(0) = +inf zeroes the features
        self.trunc = special.gammainc(self.act + 1, restriction.scaled_radius_sq)
        self.half_log_norm = 0.5 * (special.gammaln(self.act + 1) + np.log(self.trunc))
        # per proposal: m, squared radius, angle, acceptance uniform
        self.chunk = np.zeros((g, max(64, 4 * k), 4))
        self.cpos = self.csize.copy()  # next unfeaturized proposal of the chunk
        self.nchunks = np.zeros(g, dtype=np.int64)
        self.vec = np.zeros((g, _WINDOW, k), dtype=complex)
        self.margin = np.full((g, _WINDOW), -np.inf)
        self.wstart = np.zeros(g, dtype=int)  # chunk position of window slot 0
        # conjugated orthonormal basis of the placed points' features
        self.bc = np.zeros((g, k, k), dtype=complex)
        self.placed = np.zeros(g, dtype=int)
        self.pts = np.zeros((g, k, 2))  # squared radius, angle of placed points
        self.last = np.zeros(g, dtype=int)  # chunk position of the last one

    def _draw_chunk(self, row: int) -> None:
        k, chunk = int(self.ks[row]), int(self.csize[row])
        scanned = int(self.nchunks[row]) * chunk
        if scanned > STALL_CAP:
            raise SamplerStallError(
                "sampler stall: rejection loop exceeded the proposal cap",
                diagnostics={
                    "radius": self.restriction.radius,
                    "beta": self.restriction.beta,
                    "palm_shift": self.restriction.palm_shift,
                    "pattern": int(self.members[row]), "target_points": k,
                    "placed": int(self.placed[row]), "proposals": scanned,
                })
        gen = self.gens[self.members[row]]
        # integers(1) consumes no state, so a one-point pattern skips it
        idx = gen.integers(k, size=chunk) if k > 1 else np.zeros(chunk, dtype=int)
        out = self.chunk[row, :chunk]
        out[:, 0] = self.act[row, idx]
        v = gen.random(chunk) * self.trunc[row, idx]
        out[:, 2] = gen.random(chunk) * 2.0 * math.pi
        out[:, 3] = gen.random(chunk)
        out[:, 1] = _cut_gamma(gen, out[:, 0] + 1, v, self.restriction.scaled_radius_sq)
        self.cpos[row] = 0
        self.nchunks[row] += 1

    def _refill(self, rows: np.ndarray) -> None:
        """Replace the windows of ``rows``, which hold no acceptance, with
        their next proposals."""
        for row in rows[self.cpos[rows] == self.csize[rows]]:
            self._draw_chunk(row)
        # basic slicing where every row refills, as a lone pattern always does
        sel = slice(None) if len(rows) == len(self.ks) else rows
        count = np.minimum(_WINDOW, self.csize[sel] - self.cpos[sel])
        col = np.arange(_WINDOW)
        self.wstart[sel] = self.cpos[sel]
        # slots past a chunk's end repeat its last proposal and stay unused
        pos = self.cpos[sel, None] + np.minimum(col, count[:, None] - 1)
        t, angle, u = self.chunk[rows[:, None], pos, 1:].transpose(2, 0, 1)
        self.cpos[sel] += count
        r_pt = np.sqrt(t)
        # feature matrix with the Gaussian weight folded in; the common
        # pointwise factor cancels from every projection ratio.  The floor
        # keeps log(0) finite, so m log r stays exactly 0 for m = 0.
        act = self.act[sel, None]
        mag = (np.log(np.maximum(r_pt, _TINY))[..., None] * act
               - 0.5 * t[..., None] - self.half_log_norm[sel, None])
        # integer powers of e^(i angle): numpy raises to small integer
        # exponents by repeated squaring, well within rounding of exp(i m angle)
        vec = np.exp(1j * angle)[..., None] ** act
        vec *= np.exp(mag, out=mag)
        norms_sq = _sq_norms(vec)
        resid = norms_sq
        n_max = int(self.placed[sel].max())
        if n_max:
            bc = self.bc[sel, :n_max]
            coef = vec @ bc.transpose(0, 2, 1)
            resid = norms_sq - _sq_norms(coef)
            proj = np.conjugate(coef, out=coef) @ bc
            vec -= np.conjugate(proj, out=proj)
        # a null feature vector has a null residual, so it is never accepted
        self.vec[sel] = vec
        self.margin[sel] = np.where(col < count[:, None], resid - u * norms_sq, -np.inf)

    def _accept(self, at: np.ndarray) -> None:
        """Place, in every row, the proposal at window slot ``at``."""
        rows = np.arange(len(at))
        vec = self.vec[rows, at]
        norm = np.sqrt(_sq_norms(vec))
        if norm.min() <= 0.0:  # a null residual is skipped, as in a lone draw
            self.margin[rows[norm <= 0.0], at[norm <= 0.0]] = -np.inf
            return
        self.margin[rows, at] = -np.inf
        b = vec / norm[:, None]
        b_conj = b.conj()
        self.bc[rows, self.placed] = b_conj
        self.last = self.wstart + at
        self.pts[rows, self.placed] = self.chunk[rows, self.last, 1:3]
        self.placed += 1
        coef = (self.vec @ b_conj[:, :, None])[..., 0]
        self.vec -= coef[..., None] * b[:, None, :]
        self.margin -= np.abs(coef) ** 2

    def _finish(self, done: np.ndarray) -> None:
        """Write out the patterns of the ``done`` rows and drop those rows."""
        scale = math.sqrt(self.restriction.beta)
        for row in np.flatnonzero(done):
            p, k = self.members[row], int(self.ks[row])
            t, angle = self.pts[row, :k].T
            r_pt = np.sqrt(t) * scale
            self.points[p] = r_pt * np.cos(angle) + 1j * (r_pt * np.sin(angle))
            self.proposals[p] = ((self.nchunks[row] - 1) * self.csize[row]
                                 + self.last[row] + 1)
        keep = np.flatnonzero(~done)
        for name in self._ROWS:
            setattr(self, name, getattr(self, name)[keep])

    def run(self) -> None:
        while len(self.ks):
            hit = self.margin > 0.0
            found = hit.any(axis=1)
            while not found.all():
                self._refill(np.flatnonzero(~found))
                hit = self.margin > 0.0
                found = hit.any(axis=1)
            self._accept(hit.argmax(axis=1))
            done = self.placed == self.ks
            if done.any():
                self._finish(done)


def _sq_norms(z: np.ndarray) -> np.ndarray:
    """Squared moduli summed over the last axis."""
    v = z.view(float)
    return np.einsum("...i,...i->...", v, v)


def _active_sets(restriction: DiskRestriction, rng: RngStream, n: int):
    """The eigenfunctions the n patterns of ``rng`` place: m is in pattern
    i's set with probability kappa_m, independently, decided by row i of an
    (n, len(kappa)) array of uniforms from ``rng.generator()``.  Returns the
    boolean rows and the m of each column; a row's size is its pattern's
    point count."""
    kappa = eigenvalues(restriction)
    shift = 1 if restriction.palm_shift else 0
    on = rng.generator().random((n, len(kappa))) < kappa
    return on, np.arange(shift, shift + len(kappa))


def _sample_projection_points(restriction: DiskRestriction, rng: RngStream,
                              n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """n realizations of the determinantal process of ``restriction``: their
    eigenfunctions placed on the 1/sqrt(beta)-inflated disk, shrunk by
    sqrt(beta).  Also returns each pattern's proposal count.

    Pattern i places its points from ``rng.child_generator(i)``, so it
    depends on ``(rng, i)`` alone."""
    points = [np.empty(0, dtype=complex)] * n
    proposals = np.zeros(n, dtype=np.int64)
    on, ms = _active_sets(restriction, rng, n)
    ks = on.sum(axis=1)
    order = np.argsort(ks, kind="stable")
    order = order[ks[order] > 0]
    for first in range(0, len(order), _GROUP):
        rows = order[first:first + _GROUP]
        gens = {p: rng.child_generator(p) for p in rows.tolist()}
        _Group(restriction, gens, [ms[act] for act in on[rows]], rows, ks[rows],
               points, proposals).run()
    return points, proposals


def sample_block(restriction: DiskRestriction, rng: RngStream,
                 n: int) -> list[np.ndarray]:
    """n exact draws of the determinantal process of ``restriction``, one
    array of complex points each, advanced together.  Pattern i depends on
    ``(rng, i)`` alone, not on n."""
    return _sample_projection_points(restriction, rng, n)[0]


def sample_counts(restriction: DiskRestriction, rng: RngStream,
                  n: int) -> np.ndarray:
    """The point counts of ``sample_block(restriction, rng, n)``, drawn
    without placing a point: a pattern's count is the size of its active
    set, which the block draws before any proposal."""
    return _active_sets(restriction, rng, n)[0].sum(axis=1)


def sample_pattern(restriction: DiskRestriction, rng: RngStream) -> PointPattern:
    """Exact draw of the determinantal process of ``restriction``: the Ginibre
    process on b(O, radius), thinned with retention beta and shrunk by
    sqrt(beta), and with ``palm_shift`` its reduced Palm version at the
    origin (monomials z^m, m >= 1; the origin is never among the points)."""
    if restriction.palm_shift:
        kind = "palm_beta_ginibre"
    else:
        kind = "ginibre" if restriction.beta == 1.0 else "beta_ginibre"
    return PointPattern(points=sample_block(restriction, rng, 1)[0],
                        window_radius=restriction.radius, process_kind=kind,
                        beta=restriction.beta, seed=rng.master_seed)


def sample_poisson(window_radius: float, rng: RngStream) -> PointPattern:
    """Homogeneous Poisson process of intensity 1/pi, the intensity of every
    beta-Ginibre process, on a disk."""
    if not window_radius > 0:
        raise ValueError("window_radius must be positive")
    gen = rng.generator()
    n = gen.poisson(window_radius ** 2)  # mean count: intensity times area
    r = window_radius * np.sqrt(gen.random(n))
    angle = 2.0 * math.pi * gen.random(n)
    return PointPattern(points=r * np.exp(1j * angle),
                        window_radius=window_radius, process_kind="poisson",
                        beta=1.0, seed=rng.master_seed)

