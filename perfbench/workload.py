"""One benchmark process: set up, run one workload in a closed loop, check
its outputs and print one JSON record as the last line of stdout.

Run by ``run.py`` with BLAS/OpenMP pinned to one thread through the
environment; not meant to be called by hand.  The ginibrenet package is
imported from ``src/`` of the checkout this file sits in, never from
anywhere else.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("estimate_centered", "validate_quick")

# estimate_centered: (label, fading lines, estimator, beta, x grid, reps per
# part, parts, smoke reps per part).  A config split into parts runs as that
# many CLI calls on independent seeds whose estimates are pooled: the pooled
# exponential estimate has the 1000 reps its slope check needs, in calls of
# about a second like the other configs' (see NOTES.md).
CENTERED_CONFIGS = (
    ("exp", "kind = exponential\nc = 1.0", "tilted", 1.0, "5 7 9 11", 250, 4, 100),
    ("weibull", "kind = weibull_super\nc = 1.0\ngamma = 2.0", "tilted", 1.0,
     "2.5 3 3.5 4", 10, 1, 2),
    ("pareto", "kind = pareto\nc = 2.0", "single_jump", 0.5, "20 40 80", 300, 1, 100),
)
# configs whose estimates enter s_to_rel10 (at these reps the Weibull
# half-widths exceed 100 % of p, so it would only add noise)
REL10_CONFIGS = ("exp", "pareto")
SLOPE_TOLERANCE = 0.20  # acceptance tolerance of the exponential slope

SMOKE_CHECKS = ("spectral_exactness", "count_tail_trend", "exponential_slope",
                "rate_table")


def _import_package():
    if not (SRC / "ginibrenet" / "__init__.py").is_file():
        raise SystemExit(f"error: no ginibrenet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import ginibrenet
    if Path(ginibrenet.__file__).resolve().parent != SRC / "ginibrenet":
        raise SystemExit(f"error: ginibrenet imported from {ginibrenet.__file__}")
    from ginibrenet import cli, estimation, samplers, spectral, validate  # noqa: F401


def _derived_seed(seed: int, *key: int) -> int:
    import numpy as np
    return int(np.random.SeedSequence([seed, *key]).generate_state(1, np.uint64)[0]
               >> np.uint64(2))


def _quiet_cli(argv) -> int:
    from ginibrenet import cli
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class Outcomes:
    """Operations and output checks of one run; every failure counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def _forced_failure(workdir: Path, outcomes: Outcomes) -> None:
    """A CLI estimate the program must refuse (a 2-point grid), counted like
    any other failed operation."""
    cfg = workdir / "forced_failure.ini"
    cfg.write_text("[fading]\nkind = exponential\n[estimation]\n"
                   f"x_grid = 1 2\n[output]\ndirectory = {workdir / 'forced'}\n")
    rc = _quiet_cli(["estimate", "--config", str(cfg)])
    outcomes.record(rc == 0, f"forced failure: CLI exit {rc}")


# -- estimate_centered --------------------------------------------------------

class EstimateCentered:
    """In-process ``ginibrenet estimate`` on three origin-centred configs."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.configs = []
        self.slope_errors: list[float] = []
        for i, (label, fading, est, beta, grid, reps, n_parts, smoke_reps) in \
                enumerate(CENTERED_CONFIGS):
            parts = []
            for part in range(n_parts):
                path = workdir / f"{label}{part}.ini"
                outdir = workdir / f"{label}{part}"
                path.write_text(
                    "[process]\nkind = palm_beta_ginibre\n"
                    f"beta = {beta}\nradius = 2.0\n"
                    "[receiver]\nx = 0.0\ny = 0.0\n"
                    f"[fading]\n{fading}\n"
                    f"[estimation]\nestimator = {est}\n"
                    f"n_reps = {smoke_reps if smoke else reps}\n"
                    f"x_grid = {grid}\nseed = {_derived_seed(seed, i, part)}\n"
                    f"[output]\ndirectory = {outdir}\n")
                parts.append((path, outdir))
            self.configs.append((label, parts, [float(x) for x in grid.split()]))
            if label == "exp":
                # the slope check's growth function, from the program's own
                # reading of the config (read here, before any tracing)
                from ginibrenet.config import load_config
                self.exp_regime = load_config(parts[0][0]).regime
        warm = workdir / "warmup.ini"
        warm.write_text(
            "[fading]\nkind = exponential\n[estimation]\nestimator = tilted\n"
            f"n_reps = 10\nx_grid = 5 7 9\nseed = {_derived_seed(seed, 99)}\n"
            f"[output]\ndirectory = {workdir / 'warmup'}\n")
        self.warm_path = warm

    def warm_up(self) -> None:
        _quiet_cli(["estimate", "--config", str(self.warm_path)])

    def unit(self, span, outcomes: Outcomes, ops: list, rel10: list) -> None:
        s_to_rel10 = 0.0
        for label, parts, grid in self.configs:
            p_parts, se_parts, seconds = [], [], 0.0
            for part, (path, outdir) in enumerate(parts):
                with span(f"bench.op.estimate.{label}"):
                    t0 = time.perf_counter()
                    rc = _quiet_cli(["estimate", "--config", str(path)])
                    ops.append(time.perf_counter() - t0)
                seconds += ops[-1]
                what = f"{label} part {part}"
                if not outcomes.record(rc == 0, f"{what}: CLI exit {rc}"):
                    continue
                with (outdir / "estimates.csv").open(newline="") as fh:
                    rows = list(csv.DictReader(fh))
                ps = [float(r["p"]) for r in rows]
                if not (outcomes.record(len(rows) == len(grid),
                                        f"{what}: {len(rows)} rows for "
                                        f"{len(grid)} grid points")
                        and outcomes.record(all(0.0 <= p <= 1.0 for p in ps),
                                            f"{what}: p outside [0, 1]: {ps}")):
                    continue
                if label in REL10_CONFIGS and not outcomes.record(
                        all(p > 0.0 for p in ps), f"{what}: zero estimate: {ps}"):
                    continue
                p_parts.append(ps)
                se_parts.append([float(r["stderr"]) for r in rows])
            if len(p_parts) < len(parts):
                continue
            # parts are independent: pool them into one estimate per grid point
            p = [statistics.fmean(col) for col in zip(*p_parts)]
            se = [math.sqrt(sum(v * v for v in col)) / len(parts)
                  for col in zip(*se_parts)]
            if label in REL10_CONFIGS:
                s_to_rel10 += seconds * statistics.fmean(
                    (1.96 * e / (0.1 * q)) ** 2 for q, e in zip(p, se))
            if label == "exp":
                rel = _pooled_slope_error(self.exp_regime, grid, p,
                                          parts[0][1] / "slope.csv")
                self.slope_errors.append(rel)
                outcomes.record(rel <= SLOPE_TOLERANCE,
                                f"exp: pooled slope relative error {rel:.3f}")
        rel10.append(s_to_rel10)


def _pooled_slope_error(regime, grid: list[float], p: list[float],
                        slope_csv: Path) -> float:
    """Relative error of the log p slope against the regime's growth function,
    as ``speed_regression`` fits it, with the target read from ``slope.csv``."""
    import numpy as np
    from ginibrenet.rates import growth_function
    slope = np.polyfit([growth_function(regime, x) for x in grid], np.log(p), 1)[0]
    with slope_csv.open(newline="") as fh:
        target = next(float(row[1]) for row in csv.reader(fh)
                      if row and row[0] == "target_slope")
    return abs(slope - target) / abs(target)


# -- validate_quick -----------------------------------------------------------

class ValidateQuick:
    """The checks of ``validate.ALL_CHECKS`` at quick budgets.  Their seeds are
    fixed by ``validate.MASTER_SEED``: the workload seed is ignored."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.smoke = smoke
        self.check_seconds: dict[str, float] = {}

    def _checks(self):
        from ginibrenet import validate
        checks = validate.ALL_CHECKS  # read at call time: traced if installed
        if self.smoke:
            checks = [c for c in checks if c.__name__[len("check_"):] in SMOKE_CHECKS]
        return checks

    def warm_up(self) -> None:
        from ginibrenet import validate
        validate.check_count_tail_trend(quick=True)

    def unit(self, span, outcomes: Outcomes, ops: list, rel10: list) -> None:
        from ginibrenet import estimation
        from ginibrenet.errors import MgfDivergenceError, SamplerStallError
        # capture the exponential_slope check's tilted estimates (a result
        # hook, no timing) for its time to 10 % accuracy
        captured = []
        inner = estimation.estimate_interference_tail

        def capture(*args, **kwargs):
            est = inner(*args, **kwargs)
            captured.append(est)
            return est

        estimation.estimate_interference_tail = capture
        try:
            for check in self._checks():
                name = check.__name__[len("check_"):]
                captured.clear()
                with span(f"bench.op.check.{name}"):
                    t0 = time.perf_counter()
                    try:
                        res = check(quick=True)
                    except (SamplerStallError, MgfDivergenceError) as exc:
                        res = None
                        outcomes.record(False, f"check {name} raised {exc!r}")
                    seconds = time.perf_counter() - t0
                ops.append(seconds)
                if res is None:
                    continue
                self.check_seconds[res.name] = min(
                    res.seconds, self.check_seconds.get(res.name, math.inf))
                outcomes.record(res.passed, f"check {res.name} failed: {res.detail}")
                if name == "exponential_slope" and captured:
                    if all(e.probability > 0 for e in captured):
                        r2 = [(1.96 * e.stderr / (0.1 * e.probability)) ** 2
                              for e in captured]
                        rel10.append(seconds * statistics.fmean(r2))
        finally:
            estimation.estimate_interference_tail = inner


CLASSES = {"estimate_centered": EstimateCentered, "validate_quick": ValidateQuick}


# -- per-layer metrics --------------------------------------------------------

def _install_hooks(tracer, counters: dict) -> None:
    def sampler_hook(bound, result, seconds):
        points = getattr(result, "points", None)
        if points is not None:
            counters["sampler_patterns"] += 1
            counters["sampler_points"] += len(points)

    def replication_hook(bound, result, seconds):
        counters["reps"] += bound.arguments["n_reps"]
        counters["rep_seconds"] += seconds

    def estimate_hook(bound, result, seconds):
        replication_hook(bound, result, seconds)
        a = bound.arguments
        counters["grid_keys"].add((counters["unit"], a["model"], float(a["x"]),
                                   a["estimator"], a["n_reps"], a["rng"]))
        counters["estimates"] += 1
        counters["zero_hits"] += result.probability == 0.0
        ess = result.diagnostics.get("ess")
        if ess is not None and math.isfinite(ess):
            counters["ess_fracs"].append(ess / result.n_reps)

    def slope_hook(bound, result, seconds):
        # the acceptance quantity: the exponential-fading slope
        if bound.arguments["model"].fading.kind == "exponential":
            counters["slope_errs"].append(result.relative_error)

    for name in ("sample_ginibre_disk", "sample_beta_ginibre",
                 "sample_palm_beta_ginibre", "sample_poisson"):
        tracer.hooks[f"samplers.{name}"] = sampler_hook
    tracer.hooks["estimation.estimate_interference_tail"] = estimate_hook
    tracer.hooks["estimation.subexp_sum_ratio"] = replication_hook
    tracer.hooks["estimation.dominating_event_probe"] = replication_hook
    tracer.hooks["estimation.speed_regression"] = slope_hook


def _layer_metrics(tracer, counters: dict, check_seconds: dict, n_units: int,
                   cache_hits: int, cache_misses: int) -> dict[str, float]:
    """Per-layer figures of the traced child.  Counts and times are per unit
    (one pass over the workload's inputs), so they do not depend on how many
    units fitted in the run."""
    from ginibrenet import validate
    totals = tracer.layer_totals()

    def layer(prefix, methods=None):
        calls = self_s = 0.0
        for name, entry in totals.items():
            if name.split(".", 1)[0] != prefix:
                continue
            if methods is not None and name.rsplit(".", 1)[-1] not in methods:
                continue
            calls += entry["calls"]
            self_s += entry["self_s"]
        return calls / n_units, self_s / n_units

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for prefix in ("samplers", "spectral", "fading", "interference", "estimation"):
        m[f"{prefix}.calls"], m[f"{prefix}.self_s"] = layer(prefix)
    for prefix in ("config", "cli", "validate"):
        m[f"{prefix}.self_s"] = layer(prefix)[1]
    m["samplers.ms_per_call"] = ratio(1e3 * m["samplers.self_s"], m["samplers.calls"])
    m["samplers.points_per_call"] = ratio(counters["sampler_points"],
                                          counters["sampler_patterns"])
    m["spectral.eig_cache_hit_ratio"] = ratio(cache_hits, cache_hits + cache_misses)
    m["fading.mgf_calls"], m["fading.mgf_self_s"] = layer(
        "fading", ("log_mgf", "tilted_mean"))
    m["estimation.reps"] = counters["reps"] / n_units
    m["estimation.us_per_rep"] = ratio(1e6 * counters["rep_seconds"], counters["reps"])
    m["estimation.calls_per_grid_point"] = ratio(counters["estimates"],
                                                 len(counters["grid_keys"]))
    m["estimation.ess_frac"] = (statistics.fmean(counters["ess_fracs"])
                                if counters["ess_fracs"] else 0.0)
    m["estimation.zero_hit_frac"] = ratio(counters["zero_hits"], counters["estimates"])
    m["estimation.slope_rel_err"] = (statistics.fmean(counters["slope_errs"])
                                     if counters["slope_errs"] else 0.0)
    for check in validate.ALL_CHECKS:
        name = check.__name__[len("check_"):]
        m[f"validate.{name}_s"] = check_seconds.get(name, 0.0)
    return m


# -- main ---------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--force-fail", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    workload = CLASSES[args.workload](args.seed, args.smoke, workdir)
    workload.warm_up()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from ginibrenet import spectral
    tracer = None
    counters = {"unit": 0, "sampler_patterns": 0, "sampler_points": 0,
                "reps": 0, "rep_seconds": 0.0, "grid_keys": set(),
                "estimates": 0, "zero_hits": 0, "ess_fracs": [],
                "slope_errs": []}
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer(run_id)
        tracer.install()
        _install_hooks(tracer, counters)
        span = tracer.span

    outcomes = Outcomes()
    op_seconds: list[list[float]] = []  # per unit, in operation order
    rel10: list[float] = []
    unit_walls: list[float] = []
    cache0 = spectral._eigenvalue_cache.cache_info()
    t_begin = time.perf_counter()
    with span("bench.run"):
        while True:
            with span("bench.unit"):
                t0 = time.perf_counter()
                op_seconds.append([])
                workload.unit(span, outcomes, op_seconds[-1], rel10)
                unit_walls.append(time.perf_counter() - t0)
            counters["unit"] += 1
            # start another unit only if it should end within the budget
            if time.perf_counter() - t_begin + unit_walls[-1] > args.seconds:
                break
    cache1 = spectral._eigenvalue_cache.cache_info()
    if args.force_fail:
        _forced_failure(workdir, outcomes)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_s, "units": len(unit_walls),
        # every operation at its median time over the run's units: the
        # host's speed drifts, and the median moved less from run to run
        # than the best repeat did (see NOTES.md)
        "wall_s": sum(statistics.median(times) for times in zip(*op_seconds)),
        "unit_walls_s": unit_walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "s_to_rel10": statistics.median(rel10) if rel10 else None,
        "op_seconds": op_seconds,
        "attempted": outcomes.attempted, "failed": outcomes.failed,
        "failures": outcomes.failures[:20],
    }
    if tracer is not None:
        check_seconds = getattr(workload, "check_seconds", {})
        # estimate_centered pools its exponential parts; use that slope
        counters["slope_errs"] = getattr(workload, "slope_errors",
                                         counters["slope_errs"])
        record["layers"] = _layer_metrics(
            tracer, counters, check_seconds, len(unit_walls),
            cache1.hits - cache0.hits, cache1.misses - cache0.misses)
        tracer.write(OUT / f"{run_id}.spans.csv.gz")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
