"""Two-path gate: the Kostlan radial draw against the DPP projection sampler.

A receiver at the origin takes the radial draw; an off-centre receiver keeps
the DPP sampler.  On the window b(0, 2) the two draws must give one law for
what the estimators read from them: the interference under exponential
fading, the in-window count and the count in the probe ball.
The in-window counts are compared on shared uniforms, row by row, and the
probe-ball counts of each path with their exact law.  Each radial term's
squared modulus is tested against its truncated Gamma law.
"""
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats

from ginibrenet import estimation, samplers
from ginibrenet.estimation import (_dpp_draw, _radial_draw,
                                   dominating_event_probe,
                                   estimate_interference_tail)
from ginibrenet.fading import FadingSpec
from ginibrenet.interference import NetworkModel, attenuation
from ginibrenet.patterns import RngStream
from ginibrenet.spectral import DiskRestriction, count_distribution, eigenvalues
from ginibrenet.goodness_of_fit import chisquare_vs_pmf, ks_vs_cdf

# the radial draw costs ~1/50 of a DPP draw, so it gets ten times the reps
RADIAL_REPS = 40_000
DPP_REPS = 4000
RADIAL_SEED, DPP_SEED = 9101, 9102
LEVEL = 0.01
TERM_REPS, TERM_SEED = 20_000, 9105
MIN_HELD = 200  # rows holding a term before its law is tested


def model(beta=1.0, receiver=0j):
    return NetworkModel(beta=beta, radius=2.0, receiver=receiver,
                        atten_R=1.0, atten_alpha=4.0,
                        fading=FadingSpec(kind="exponential", c=1.0))


def distances(make_draw, m, seed, n_reps):
    block = make_draw(m)(RngStream(seed).generator(), n_reps)
    return [row[np.isfinite(row)] for row in block]


def exact_law_p(counts, radius, beta):
    """Chi-square p-value of counts in b(0, radius) against their exact law,
    that of the thinned Palm spectrum on that disk."""
    counts = np.asarray(counts)
    pmf = count_distribution(DiskRestriction(radius=radius, beta=beta, palm_shift=True),
                             int(counts.max()) + 10)
    return chisquare_vs_pmf(counts, pmf)


def interference_sample(dists, m, seed):
    gen = RngStream(seed).generator()
    return np.array([float(np.sum(m.fading.sample(len(d), gen)
                                  * attenuation(d, m.atten_R, m.atten_alpha)))
                     for d in dists])


@pytest.fixture(scope="module", params=[1.0, 0.25], ids=["beta1", "beta0.25"])
def paths(request):
    beta = request.param
    m = model(beta)
    return (m, distances(_radial_draw, m, RADIAL_SEED, RADIAL_REPS),
            distances(_dpp_draw, m, DPP_SEED, DPP_REPS))


def test_interference_laws_agree(paths):
    m, radial, dpp = paths
    res = stats.ks_2samp(interference_sample(radial, m, 9103),
                         interference_sample(dpp, m, 9104))
    assert res.pvalue > LEVEL


def test_window_counts_agree(paths):
    # Both paths put term m of the thinned Palm spectrum in the window iff
    # u_m < kappa_m, reading row i of one (n, L) array of uniforms: the radial
    # draw from its generator, the DPP draw from the block stream RngStream(s)
    # it seeds with its generator's first 63-bit integer.  On the same
    # uniforms the two paths must give the same count in every row, so their
    # count laws agree with no sampling error to test against.
    m, _, dpp = paths
    block_seed = int(RngStream(DPP_SEED).generator().integers(1 << 63))
    radial = distances(_radial_draw, m, block_seed, DPP_REPS)
    np.testing.assert_array_equal([len(d) for d in dpp],
                                  [len(d) for d in radial])


def test_probe_ball_counts_agree(paths):
    # the probe ball is centred, so both paths' counts in it have one exact law
    m, radial, dpp = paths
    r = dominating_event_probe(m, 1.0, 1.0, RngStream(0), n_reps=2).ball_radius
    for dists in (radial, dpp):
        assert exact_law_p([np.sum(d <= r) for d in dists], r, m.beta) > LEVEL


def test_radial_counts_follow_exact_law(paths):
    m, radial, _ = paths
    assert exact_law_p([len(d) for d in radial], m.radius, m.beta) > LEVEL


@pytest.mark.parametrize("geometry, dpp_calls", [
    ({}, 0),
    ({"receiver": 0.5 + 0.2j}, 20),
])
def test_only_centred_geometry_skips_the_dpp_sampler(monkeypatch, geometry,
                                                     dpp_calls):
    calls = []
    sampler = estimation.sample_block

    def counted(restriction, rng, n):
        calls.append(n)
        return sampler(restriction, rng, n)

    monkeypatch.setattr(estimation, "sample_block", counted)
    estimate_interference_tail(model(**geometry), 1.0, 20, "crude", RngStream(5))
    assert sum(calls) == dpp_calls


def term_laws(beta):
    """(fallback share 1 - kappa_m, KS p-value) per term m that at least
    MIN_HELD rows of one radial block hold: its t = d^2 / beta against the
    truncated law gammainc(m + 1, t) / gammainc(m + 1, r^2 / beta)."""
    m = model(beta)
    restriction = DiskRestriction(radius=m.radius, beta=beta, palm_shift=True)
    present, cut = eigenvalues(restriction), restriction.scaled_radius_sq
    block = _radial_draw(m)(RngStream(TERM_SEED).generator(), TERM_REPS)
    # the draw reads its presence uniforms first, so the same stream tells
    # which terms the block's columns hold
    u = RngStream(TERM_SEED).generator().random((TERM_REPS, len(present)))
    laws = []
    for col, k in enumerate(np.flatnonzero((u < present).any(axis=0))):
        d = block[:, col][np.isfinite(block[:, col])]
        if len(d) >= MIN_HELD:
            shape = k + 2.0  # term m = k + 1 of the Palm spectrum
            cdf = special.gammainc(shape, d * d / beta) / special.gammainc(shape, cut)
            laws.append((1.0 - present[k] / beta, ks_vs_cdf(cdf)[1]))
    return np.array(laws).T


@pytest.mark.parametrize("beta", [1.0, 0.25])
def test_radial_terms_follow_truncated_gamma(beta):
    share, p = term_laws(beta)
    # the terms range from nearly always drawn by standard_gamma to nearly
    # always by the inversion past the window edge
    assert share.min() < 0.1 and share.max() > 0.9
    assert p.min() * len(p) > LEVEL  # Bonferroni over the terms


def no_cut(a, q):
    # every Gamma draw is kept, and the cap puts those past r^2 / beta on the
    # window edge
    return np.full(np.shape(a), np.inf)


@pytest.mark.parametrize("beta, mutant", [
    # the inversion reads u_m, uniform on (0, beta kappa_m), not u_m / beta
    (0.25, lambda a, q: special.gammaincinv(a, 0.25 * q)),
    (1.0, no_cut),
    (0.25, no_cut),
], ids=["unscaled_uniform", "no_cut_beta1", "no_cut_beta0.25"])
def test_broken_fallback_fails_term_laws(monkeypatch, beta, mutant):
    monkeypatch.setattr(samplers, "special", SimpleNamespace(gammaincinv=mutant))
    _, p = term_laws(beta)
    assert p.min() * len(p) < 1e-6
