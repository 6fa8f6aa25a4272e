"""Acceptance gate: the twelve primary criteria at their stated tolerances.

Each test reports one pass/fail line through the shared validation suite;
budgets and seeds are fixed inside ginibrenet.validate so the CLI
``validate`` command and this module exercise identical code.
"""
import shutil
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest

from ginibrenet import validate


def _run(check, limit_seconds):
    res = check(quick=False)
    print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail} "
          f"({res.seconds:.1f}s)")
    assert res.passed, f"{res.name}: {res.detail}"
    assert res.seconds < limit_seconds, \
        f"{res.name} exceeded the runtime budget: {res.seconds:.1f}s"


def test_01_spectral_exactness():
    # trace identity |sum kappa - r^2| < 1e-9 for r in {0.5, 1, 2, 5}; < 1 s
    _run(validate.check_spectral_exactness, 1.0)


def test_02_count_law_oracle():
    # chi-square at level 0.01, radius 1 and 2, plus beta = 0.5; < 2 min
    _run(validate.check_count_law, 120.0)


def test_03_palm_identity():
    # palm + Gaussian point w.p. beta vs the thinned-scaled count law; < 3 min
    _run(validate.check_palm_identity, 180.0)


def test_palm_identity_fails_on_the_non_palm_spectrum(monkeypatch):
    # counts drawn from the non-Palm spectrum keep its m = 0 eigenvalue, so
    # with the Gaussian point added they hold that term twice: the test
    # against the exact law must see it
    from ginibrenet.spectral import DiskRestriction
    real = validate.sample_counts

    def non_palm(restriction, rng, n):
        return real(DiskRestriction(radius=restriction.radius, beta=restriction.beta),
                    rng, n)

    monkeypatch.setattr(validate, "sample_counts", non_palm)
    res = validate.check_palm_identity(quick=True)
    assert not res.passed, res.detail


def test_count_tail_trend_fails_on_a_falling_ratio(monkeypatch):
    # scaling log P(N >= m) by 1 - m/100 makes the ratios 0.646 / 0.561 /
    # 0.503 / 0.393: positive, below 1 and monotone, with the m = 20 factor
    # still 6.96; only the fall from m = 10 on is wrong
    real = validate.log_count_tail
    monkeypatch.setattr(validate, "log_count_tail",
                        lambda restriction, m: real(restriction, m) * (1 - m / 100))
    res = validate.check_count_tail_trend(quick=True)
    assert not res.passed, res.detail


def test_04_kostlan_check():
    # KS p > 0.01 for the two smallest squared moduli at radius 6; < 2 min
    _run(validate.check_kostlan, 120.0)


def test_05_sub_poissonian_contrast():
    # sub-Poissonian: variance within 5% of sum kappa(1-kappa) and below 60%
    # of Poisson's 25; < 1 min
    _run(validate.check_variance_contrast, 60.0)


def test_06_count_tail_trend():
    # exact tail ratios positive/trending, Ginibre/Poisson factor >= 5; < 10 s
    _run(validate.check_count_tail_trend, 10.0)


def test_07_exponential_slope():
    # tilted slope regression within 20% of -c R^alpha = -1; < 10 min
    _run(validate.check_exponential_slope, 600.0)


def test_08_subexp_single_jump():
    # Pareto(c=2) sum-tail ratio in [0.8, 1.3] at the deepest point; < 5 min
    _run(validate.check_subexp_ratio, 300.0)


def test_09_chernoff_dominance():
    # minimized spectral bound dominates crude + 3 stderr; < 5 min
    _run(validate.check_chernoff_dominance, 300.0)


def test_10_rate_table():
    # closed forms to 1e-12 relative; gamma -> 1+ constants within 2%; < 1 s
    _run(validate.check_rate_table, 1.0)


def test_11_lower_bound_ordering():
    # dominating-event bounds within 3 stderr on 3x3 grids; < 10 min
    _run(validate.check_lower_bound_ordering, 600.0)


def test_12_end_to_end_validate_quick():
    # the CLI quick suite finishes under 5 minutes and passes
    exe = shutil.which("ginibrenet")
    cmd = [exe] if exe else [sys.executable, "-m", "ginibrenet.cli"]
    t0 = time.time()
    proc = subprocess.run(cmd + ["validate", "--quick"], capture_output=True,
                          text=True, timeout=300)
    elapsed = time.time() - t0
    print(proc.stdout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300.0


def test_a_raising_check_fails_and_the_suite_goes_on(monkeypatch):
    # a stall in the one check that places points fails that check alone;
    # the count checks draw no proposal, so they still pass
    from ginibrenet import samplers
    monkeypatch.setattr(samplers, "STALL_CAP", -1)
    lines = []
    assert validate.run_suite(quick=True, report=lines.append) is False
    assert len(lines) == len(validate.ALL_CHECKS) + 1
    by_name = {line.split()[1]: line for line in lines[:-1]}
    assert by_name["kostlan"].startswith("[FAIL]")
    assert "SamplerStallError" in by_name["kostlan"]
    assert "proposals" in by_name["kostlan"]
    for name in ("count_law", "palm_identity", "variance_contrast"):
        assert by_name[name].startswith("[PASS]"), by_name[name]
    assert lines[-1].startswith("FAILURES present")


@pytest.fixture(scope="module")
def seeds_by_check():
    """The (entropy, spawn key) of every generator each quick check builds,
    in order, by check name."""
    real = np.random.PCG64
    seen, current = {}, []

    def recording(seed_seq):
        current.append((seed_seq.entropy, tuple(seed_seq.spawn_key)))
        return real(seed_seq)

    with mock.patch.object(np.random, "PCG64", recording):
        for check in validate.ALL_CHECKS:
            name = check.__name__.removeprefix("check_")
            current = seen[name] = []
            res = check(quick=True)
            # the bench and run_suite name a check by its function, the
            # result by its name field: they must agree
            assert res.name == name and res.passed
    return seen


def test_no_two_checks_share_a_stream(seeds_by_check):
    owners = {}
    for name, seeds in seeds_by_check.items():
        for seed in set(seeds):
            owners.setdefault(seed, []).append(name)
    shared = {seed: names for seed, names in owners.items() if len(names) > 1}
    assert not shared


def test_count_checks_build_one_generator_per_block(seeds_by_check):
    # count_law: a block per case (4); palm_identity: per beta, a Palm block
    # and the Gaussian points (4); variance_contrast: 1
    sizes = {name: len(seeds_by_check[name])
             for name in ("count_law", "palm_identity", "variance_contrast")}
    assert sizes == {"count_law": 4, "palm_identity": 4, "variance_contrast": 1}
    # kostlan: the block's active sets, then one per pattern with points
    assert len(seeds_by_check["kostlan"]) <= 1000 + 1
