"""Sampler determinism, geometric invariants, and lightweight law checks.

Heavy distributional validation (chi-square count laws, Palm identity,
Kostlan order statistics) lives in the acceptance suite; these tests keep
the fast structural guarantees close to the implementation.
"""
import hashlib
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from ginibrenet import samplers, validate
from ginibrenet.errors import SamplerStallError
from ginibrenet.goodness_of_fit import chisquare_vs_pmf, ks_vs_cdf
from ginibrenet.patterns import RngStream
from ginibrenet.samplers import (sample_block, sample_counts, sample_pattern,
                                 sample_poisson)
from ginibrenet.spectral import (DiskRestriction, count_distribution, eigenvalues,
                                 pair_correlation, trace_bound)


class TestDeterminism:
    def test_ginibre_bit_identical(self):
        a = sample_pattern(DiskRestriction(radius=3.0), RngStream(11, 2))
        b = sample_pattern(DiskRestriction(radius=3.0), RngStream(11, 2))
        assert np.array_equal(a.points, b.points)

    def test_beta_and_palm_bit_identical(self):
        for palm in (False, True):
            restriction = DiskRestriction(radius=2.0, beta=0.5, palm_shift=palm)
            a = sample_pattern(restriction, RngStream(13, 4))
            b = sample_pattern(restriction, RngStream(13, 4))
            assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = sample_pattern(DiskRestriction(radius=3.0), RngStream(1))
        b = sample_pattern(DiskRestriction(radius=3.0), RngStream(2))
        assert len(a) != len(b) or not np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("beta, palm, kind", [
        (1.0, False, "ginibre"),
        (0.5, False, "beta_ginibre"),
        (1.0, True, "palm_beta_ginibre"),
        (0.5, True, "palm_beta_ginibre"),
    ])
    def test_provenance_comes_from_the_restriction(self, beta, palm, kind):
        pat = sample_pattern(DiskRestriction(radius=2.5, beta=beta, palm_shift=palm),
                             RngStream(17, 3))
        assert (pat.process_kind, pat.beta, pat.window_radius, pat.seed) == \
            (kind, beta, 2.5, 17)


# sha256 of the block draws: ``pattern_digest`` over the PINNED_CASES in
# order, each a block of 20 patterns on RngStream(2024).  The "ginibre" case
# and the non-Palm beta = 1 case draw the same restriction.
PINNED_DIGEST = "f2374014cd078fc148f622134448318d161683a5419957f6786766b8e7b20107"
PINNED_CASES = [(r, kind, beta) for r in (1.0, 2.5, 6.0)
                for kind, beta in [("ginibre", 1.0)] + [(kind, beta)
                                                        for beta in (1.0, 0.5, 0.1)
                                                        for kind in ("beta", "palm")]]
PINNED_STREAM, PINNED_SIZE = RngStream(2024), 20


def pattern_digest(patterns) -> str:
    h = hashlib.sha256()
    for pts in patterns:
        h.update(len(pts).to_bytes(4, "little") + pts.tobytes())
    return h.hexdigest()


def pinned_restriction(r, kind, beta):
    return DiskRestriction(radius=r, beta=beta, palm_shift=kind == "palm")


def block_draw(restriction, rng, n, group=None, window=None):
    """``_sample_projection_points``, with ``_GROUP`` and ``_WINDOW`` set."""
    with mock.patch.multiple(samplers, _GROUP=group or samplers._GROUP,
                             _WINDOW=window or samplers._WINDOW):
        return samplers._sample_projection_points(restriction, rng, n)


class TestPinnedOutput:
    """Seeded block draws are pinned, and do not depend on how the patterns
    are grouped."""

    def test_single_draws_match_the_pinned_digest(self):
        # with _GROUP = 1 each pattern is drawn alone
        patterns = []
        for case in PINNED_CASES:
            patterns += block_draw(pinned_restriction(*case), PINNED_STREAM,
                                   PINNED_SIZE, group=1)[0]
        assert pattern_digest(patterns) == PINNED_DIGEST

    def test_block_draws_match_the_pinned_digest(self):
        patterns = []
        for case in PINNED_CASES:
            patterns += sample_block(pinned_restriction(*case), PINNED_STREAM,
                                     PINNED_SIZE)
        assert pattern_digest(patterns) == PINNED_DIGEST


def assert_same_draws(a, b):
    (pts_a, prop_a), (pts_b, prop_b) = a, b
    assert len(pts_a) == len(pts_b)
    assert all(np.array_equal(x, y) for x, y in zip(pts_a, pts_b))
    assert np.array_equal(prop_a, prop_b)


restrictions = st.builds(DiskRestriction, radius=st.floats(0.5, 4.0),
                         beta=st.floats(0.05, 1.0), palm_shift=st.booleans())
block_sizes = st.integers(1, 2 * samplers._GROUP + 9)
seeds = st.integers(0, 2 ** 32)


class TestBlockDraws:
    @settings(max_examples=8, deadline=None)
    @given(restriction=restrictions, size=block_sizes, seed=seeds,
           group=st.sampled_from([1, 3]))
    def test_a_block_equals_its_patterns_drawn_alone(self, restriction, size,
                                                     seed, group):
        # mixed point counts within a block exercise the padding, the sort by
        # count, and the group boundaries; with _GROUP = 1 each pattern is
        # placed alone
        rng = RngStream(seed, 7)
        assert_same_draws(block_draw(restriction, rng, size),
                          block_draw(restriction, rng, size, group=group))

    @settings(max_examples=8, deadline=None)
    @given(restriction=restrictions, size=block_sizes, seed=seeds,
           window=st.sampled_from([1, 3]))
    def test_a_block_does_not_depend_on_the_window(self, restriction, size,
                                                   seed, window):
        # a pattern accepts the first proposal, in chunk order, whose margin
        # is positive, and margins only fall as points are placed; so how
        # many proposals it featurizes at a time changes neither its points
        # nor its proposal count
        rng = RngStream(seed, 5)
        assert_same_draws(block_draw(restriction, rng, size),
                          block_draw(restriction, rng, size, window=window))

    @settings(max_examples=8, deadline=None)
    @given(restriction=restrictions, size=block_sizes, seed=seeds,
           data=st.data())
    def test_a_pattern_does_not_depend_on_the_block_size(self, restriction, size,
                                                         seed, data):
        shorter = data.draw(st.integers(1, size))
        rng = RngStream(seed, 3)
        points, proposals = block_draw(restriction, rng, size)
        assert_same_draws((points[:shorter], proposals[:shorter]),
                          block_draw(restriction, rng, shorter))

    @settings(max_examples=8, deadline=None)
    @given(restriction=restrictions, size=block_sizes, seed=seeds)
    def test_counts_are_the_block_draws_point_counts(self, restriction, size,
                                                      seed):
        rng = RngStream(seed)
        counts = sample_counts(restriction, rng, size)
        assert counts.dtype.kind == "i"
        assert counts.tolist() == [len(pts) for pts in sample_block(restriction, rng, size)]

    def test_counts_place_no_point(self, monkeypatch):
        restriction = DiskRestriction(radius=3.0, beta=0.5, palm_shift=True)
        rng = RngStream(5)
        counts = [len(pts) for pts in sample_block(restriction, rng, 40)]
        monkeypatch.setattr(samplers, "STALL_CAP", -1)  # stall before any proposal
        with pytest.raises(SamplerStallError):
            sample_block(restriction, rng, 40)
        assert sample_counts(restriction, rng, 40).tolist() == counts

    @pytest.mark.parametrize("radius, k", [(1.0, 1), (2.0, 4), (5.0, 25)])
    def test_mean_proposals_per_pattern_is_k_harmonic_k(self, radius, k):
        """Mixture proposals are accepted at stage n with probability exactly
        (k - n) / k, so a k-point pattern takes sum_n k / (k - n) = k H_k
        proposals on average."""
        points, proposals = samplers._sample_projection_points(
            DiskRestriction(radius=radius), RngStream(80), 1000)
        sample = proposals[np.array([len(pts) for pts in points]) == k]
        p = np.arange(1, k + 1) / k  # acceptance probability per stage
        mean, var = np.sum(1 / p), np.sum((1 - p) / p ** 2)
        assert len(sample) >= 150
        assert abs(sample.mean() - mean) <= 4 * math.sqrt(var / len(sample)) + 1e-12


class TestGeometry:
    def test_points_inside_window(self):
        for i in range(10):
            pat = sample_pattern(DiskRestriction(radius=2.5), RngStream(20, i))
            assert np.all(np.abs(pat.points) <= 2.5 + 1e-12)
            pat = sample_pattern(DiskRestriction(radius=1.5, beta=0.4),
                                 RngStream(21, i))
            assert np.all(np.abs(pat.points) <= 1.5 + 1e-12)

    def test_palm_excludes_origin(self):
        for i in range(20):
            pat = sample_pattern(DiskRestriction(radius=2.0, palm_shift=True),
                                 RngStream(22, i))
            if len(pat):
                assert np.min(np.abs(pat.points)) > 0

    def test_no_duplicate_points(self):
        pat = sample_pattern(DiskRestriction(radius=4.0), RngStream(23))
        assert len(np.unique(pat.points)) == len(pat)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            sample_pattern(DiskRestriction(radius=-1.0), RngStream(0))
        with pytest.raises(ValueError):
            sample_pattern(DiskRestriction(radius=1.0, beta=0.0), RngStream(0))
        with pytest.raises(ValueError):
            sample_pattern(DiskRestriction(radius=1.0, beta=1.2, palm_shift=True),
                           RngStream(0))
        with pytest.raises(ValueError):
            sample_poisson(-1.0, RngStream(0))

    def test_stall_diagnostics_name_the_restriction(self, monkeypatch):
        monkeypatch.setattr(samplers, "STALL_CAP", -1)  # stall before any proposal
        with pytest.raises(SamplerStallError) as exc:
            sample_pattern(DiskRestriction(radius=3.0, beta=0.5, palm_shift=True),
                           RngStream(0))
        diag = exc.value.diagnostics
        assert (diag["radius"], diag["beta"], diag["palm_shift"]) == (3.0, 0.5, True)
        assert diag["placed"] == 0 < diag["target_points"]

    def test_stall_in_a_block_names_the_pattern(self, monkeypatch):
        restriction = DiskRestriction(radius=3.0, beta=0.5, palm_shift=True)
        counts = [len(pts) for pts in sample_block(restriction, RngStream(0), 10)]
        active_sets = samplers._active_sets

        def first_four_empty(restriction, rng, n):
            on, ms = active_sets(restriction, rng, n)
            on[:4] = False
            return on, ms

        # the first 4 patterns place no point, so the stall is in a later
        # one, and names the pattern by its index in the whole block
        monkeypatch.setattr(samplers, "_active_sets", first_four_empty)
        monkeypatch.setattr(samplers, "STALL_CAP", -1)
        with pytest.raises(SamplerStallError) as exc:
            sample_block(restriction, RngStream(0), 10)
        diag = exc.value.diagnostics
        assert (diag["radius"], diag["beta"], diag["palm_shift"]) == (3.0, 0.5, True)
        assert diag["placed"] == 0 < diag["target_points"]
        assert 4 <= diag["pattern"] < 10
        assert diag["target_points"] == counts[diag["pattern"]]

    def test_stall_cap_counts_each_pattern_alone(self, monkeypatch):
        # a cap of 0 allows each pattern its first chunk of 64 proposals,
        # which r = 1 patterns (k <= 5 here) all but never exhaust; the block
        # as a whole scans far more than that
        monkeypatch.setattr(samplers, "STALL_CAP", 0)
        _, proposals = samplers._sample_projection_points(
            DiskRestriction(radius=1.0), RngStream(1), 300)
        assert proposals.sum() > 64 >= proposals.max()


PROPOSAL_CHUNKS, PROPOSAL_SEED, LEVEL = 250, 9201, 0.01
PROPOSAL_CASES = [(2.0, 1.0), (2.0, 0.25), (6.0, 1.0), (6.0, 0.25)]


def proposal_laws(radius, beta):
    """(fallback share 1 - kappa_m, KS p-value) per index m of one pattern
    whose active set is the whole spectrum of the disk: the squared radii t
    of its proposals, from PROPOSAL_CHUNKS calls of ``_Group._draw_chunk``
    (about 4 PROPOSAL_CHUNKS per m), against the truncated law
    gammainc(m + 1, t) / kappa_m, kappa_m = gammainc(m + 1, r^2 / beta)."""
    restriction = DiskRestriction(radius=radius, beta=beta)
    act = np.arange(len(eigenvalues(restriction)), dtype=float)
    group = samplers._Group(restriction, {0: np.random.default_rng(PROPOSAL_SEED)},
                            [act], np.array([0]), np.array([len(act)]), [None],
                            np.zeros(1, dtype=np.int64))
    draws = []
    for _ in range(PROPOSAL_CHUNKS):
        group._draw_chunk(0)
        draws.append(group.chunk[0, :group.csize[0], :2].copy())
    m, t = np.concatenate(draws).T
    kappa = special.gammainc(act + 1, restriction.scaled_radius_sq)
    p = [ks_vs_cdf(special.gammainc(a + 1, t[m == a]) / k)[1]
         for a, k in zip(act, kappa)]
    return 1.0 - kappa, np.array(p)


class TestProposalRadii:
    @pytest.mark.parametrize("radius, beta", PROPOSAL_CASES)
    def test_proposal_radii_follow_truncated_gamma(self, radius, beta):
        share, p = proposal_laws(radius, beta)
        # the indices range from nearly always drawn by standard_gamma to
        # nearly always by the inversion past the disk's edge
        assert share.min() < 0.1 and share.max() > 0.9
        assert p.min() * len(p) > LEVEL  # Bonferroni over the indices

    @pytest.mark.parametrize("radius, beta", PROPOSAL_CASES)
    @pytest.mark.parametrize("mutant", [
        # every Gamma draw is kept, and the cap puts those past the cut on
        # the edge
        lambda a, q, cut: np.full(np.shape(a), np.inf),
        # the inversion reads the radius uniform u, not u kappa_m
        lambda a, q, cut: special.gammaincinv(a, q / special.gammainc(a, cut)),
    ], ids=["no_cut", "unscaled_uniform"])
    def test_broken_fallback_fails_proposal_laws(self, monkeypatch, radius, beta,
                                                 mutant):
        cut = DiskRestriction(radius=radius, beta=beta).scaled_radius_sq
        monkeypatch.setattr(samplers, "special", SimpleNamespace(
            gammainc=special.gammainc, gammaln=special.gammaln,
            gammaincinv=lambda a, q: mutant(a, q, cut)))
        _, p = proposal_laws(radius, beta)
        assert p.min() * len(p) < 1e-6


def block_counts(restriction, seed, n):
    """Point counts of a block of n draws on RngStream(seed)."""
    return np.array([len(pts) for pts in sample_block(restriction, RngStream(seed), n)])


class TestCountMoments:
    def test_ginibre_mean_count_is_trace(self):
        counts = block_counts(DiskRestriction(radius=2.0), 30, 3000)
        mean = np.mean(counts)
        se = np.std(counts) / np.sqrt(len(counts))
        assert abs(mean - 4.0) < 4 * se

    def test_beta_one_matches_plain_count_law(self):
        # beta = 1 must share the plain sampler's exact count law
        counts = block_counts(DiskRestriction(radius=1.5, beta=1.0), 31, 3000)
        pmf = count_distribution(DiskRestriction(radius=1.5), 30)
        assert chisquare_vs_pmf(counts, pmf) > 0.01

    def test_palm_mean_count_is_palm_trace(self):
        counts = block_counts(
            DiskRestriction(radius=1.5, beta=1.0, palm_shift=True), 32, 3000)
        expected = trace_bound(DiskRestriction(radius=1.5, palm_shift=True))
        se = np.std(counts) / np.sqrt(len(counts))
        assert abs(np.mean(counts) - expected) < 4 * se

    def test_poisson_count_law(self):
        gen_counts = np.array([len(sample_poisson(2.0, RngStream(33, i)))
                               for i in range(3000)])
        pmf = stats.poisson(4.0).pmf(np.arange(30))
        assert np.mean(gen_counts) == pytest.approx(4.0, abs=0.15)
        assert chisquare_vs_pmf(gen_counts, pmf) > 0.01


def close_pairs(pts, cutoff):
    """Unordered pairs of ``pts`` closer than ``cutoff``."""
    d = np.abs(pts[:, None] - pts[None, :])
    return int(np.sum((d > 0) & (d < cutoff))) // 2


def exact_close_pairs(radius, cutoff):
    """Mean number of Ginibre pairs closer than ``cutoff`` in b(0, radius):
    (1 / 2 pi^2) int_0^cutoff g(t) A(t) 2 pi t dt, with g the pair
    correlation and A(t) the area of the disk met by its shift by t.  The
    restricted process has the correlation functions of the infinite one."""
    def overlap(t):
        return (2 * radius ** 2 * math.acos(t / (2 * radius))
                - t / 2 * math.sqrt(4 * radius ** 2 - t * t))
    return integrate.quad(lambda t: pair_correlation(0j, t) * overlap(t) * 2 * math.pi * t,
                          0.0, cutoff)[0] / (2 * math.pi ** 2)


class TestRepulsion:
    def test_small_distance_deficit_vs_poisson(self):
        """Ginibre pair counts below distance 1 (1000 patterns at radius 8)
        match the exact Ginibre mean, and fall one-sidedly under the Poisson
        baseline.  Patterns with the same moduli but uniform angles keep
        every count in an origin-centred disk, and fail the exact mean."""
        radius, cutoff, n_pat = 8.0, 1.0, 1000
        ginibre = sample_block(DiskRestriction(radius=radius), RngStream(40), n_pat)
        gin = np.array([close_pairs(pts, cutoff) for pts in ginibre])
        poi = np.array([close_pairs(sample_poisson(radius, RngStream(41, i)).points,
                                    cutoff) for i in range(n_pat)])
        exact = exact_close_pairs(radius, cutoff)  # 11.04; 30.30 for Poisson
        assert abs(gin.mean() - exact) <= 3 * gin.std() / math.sqrt(n_pat)
        # one-sided: the Ginibre short-range pair rate must sit clearly below
        se = math.sqrt(gin.var() / n_pat + poi.var() / n_pat)
        assert gin.mean() < poi.mean() - 3 * se
        rng = np.random.default_rng(42)
        spun = np.array([close_pairs(np.abs(pts) * np.exp(2j * np.pi * rng.random(len(pts))),
                                     cutoff) for pts in ginibre])
        assert abs(spun.mean() - exact) > 3 * spun.std() / math.sqrt(n_pat)


class TestPalmCountLaw:
    def test_palm_counts_match_shifted_spectrum(self):
        beta, radius = 0.7, 1.5
        counts = block_counts(
            DiskRestriction(radius=radius, beta=beta, palm_shift=True), 42, 4000)
        pmf = count_distribution(
            DiskRestriction(radius=radius, beta=beta, palm_shift=True), 30)
        assert chisquare_vs_pmf(counts, pmf) > 0.01


class TestSubBallCountLaw:
    @pytest.mark.parametrize("palm, beta, seed", [
        (False, 0.1, 71),
        (False, 0.5, 72),
        (True, 0.1, 73),
        (True, 0.5, 74),
    ], ids=["beta0.1", "beta0.5", "palm-beta0.1", "palm-beta0.5"])
    def test_half_radius_counts_match_exact_law(self, palm, beta, seed):
        # the count in b(0, r/2) reads the radial profile and the sqrt(beta)
        # shrink, which the window count alone cannot see
        radius = 2.0
        patterns = sample_block(
            DiskRestriction(radius=radius, beta=beta, palm_shift=palm),
            RngStream(seed), 3000)
        counts = np.array([np.sum(np.abs(pts) <= radius / 2) for pts in patterns])
        pmf = count_distribution(
            DiskRestriction(radius=radius / 2, beta=beta, palm_shift=palm), 30)
        assert chisquare_vs_pmf(counts, pmf) > 0.01

    def test_off_centre_ball_matches_centred_law(self):
        # the beta-Ginibre process is stationary, so the count in a ball
        # inside the disk has the law of a centred ball of the same radius;
        # unlike a centred count it reads the angles of the points.  Seed 75
        # gave p = 0.005; over seeds 75-94 the p-values spread evenly and the
        # pooled 40 000 counts give p = 0.52, with the exact mean and variance
        beta, radius, centre, rho = 0.5, 4.0, 2.0, 1.5
        patterns = sample_block(DiskRestriction(radius=radius, beta=beta),
                                RngStream(76), 2000)
        counts = np.array([np.sum(np.abs(pts - centre) <= rho) for pts in patterns])
        pmf = count_distribution(DiskRestriction(radius=rho, beta=beta), 30)
        assert chisquare_vs_pmf(counts, pmf) > 0.01


class TestKostlan:
    def test_order_cdf_matches_count_law(self):
        # F_i(t) = P(N(b(0, sqrt t)) >= i) for t in (0, r^2], and that count
        # law is the exact Poisson-binomial pmf of the disk of radius sqrt t;
        # 5.5 is check_kostlan's disk
        for radius in (4.0, 5.5, 6.0):
            n_terms = len(eigenvalues(DiskRestriction(radius=radius)))
            ts = np.array([1e-3, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, radius ** 2])
            cdf1, cdf2 = (validate._order_cdf(ts, i, n_terms) for i in (1, 2))
            for t, f1, f2 in zip(ts, cdf1, cdf2):
                pmf = count_distribution(DiskRestriction(radius=math.sqrt(t)), 1)
                assert f1 == pytest.approx(1.0 - pmf[0], abs=1e-11)
                assert f2 == pytest.approx(1.0 - pmf[0] - pmf[1], abs=1e-11)
            # i = 1 in closed form: P(N = 0) = prod_m gammaincc(m + 1, t)
            prod = np.prod(special.gammaincc(np.arange(1, 200)[:, None], ts), axis=0)
            assert np.allclose(cdf1, 1.0 - prod, rtol=0, atol=1e-11)

    def test_disk_holds_every_ball(self):
        # every ball lies in b(0, KOSTLAN_RADIUS), and the outermost one
        # touches its edge, so the check draws no point it does not read
        assert all(abs(c) + rho <= validate.KOSTLAN_RADIUS
                   for c, rho in validate.KOSTLAN_BALLS)
        assert validate.KOSTLAN_RADIUS == 5.5

    def test_angle_mutant_fails_check_kostlan(self, monkeypatch):
        # the right moduli with independent uniform angles pass every
        # rotation-invariant statistic; the off-centre balls catch them
        draw = validate.sample_block
        gen = np.random.default_rng(7)

        def spun(restriction, rng, n):
            return [np.abs(pts) * np.exp(2j * np.pi * gen.random(len(pts)))
                    for pts in draw(restriction, rng, n)]

        monkeypatch.setattr(validate, "sample_block", spun)
        res = validate.check_kostlan(quick=True)
        assert not res.passed
        assert validate.KOSTLAN_BALLS == ((3.0, 2.5), (4.0, 1.5))
        assert "ball b(3, 2.5): p=0.0000" in res.detail
        assert "ball b(4, 1.5): p=0.0000" in res.detail
