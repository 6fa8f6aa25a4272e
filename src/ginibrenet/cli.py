"""Command-line front-end: sample patterns, run estimates, print rate tables,
and execute the validation suite.

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Without --seed,
sample takes its seed from the environment variable GINIBRENET_SEED (else 0)
and estimate takes the config's [estimation] seed.  Every command is
deterministic given its seed.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .errors import CapExceededError, SamplerStallError
from .estimation import fit_slope, grid_estimates
from .fading import FADING_KINDS, FadingSpec
from .patterns import RngStream, pattern_csv_text
from .rates import (LdpRegime, limit_constant, poisson_comparison, rate,
                    speed, tail_asymptote)
from .samplers import sample_pattern, sample_poisson
from .spectral import DiskRestriction
from .validate import run_suite

_PROCESS_CHOICES = ("ginibre", "beta-ginibre", "palm", "poisson")
# estimates.csv columns read from TailEstimate.diagnostics
_WEIGHT_COLUMNS = ("ess", "max_weight_share")


def _seed(text: str) -> int:
    """A master seed: a non-negative integer (numpy's SeedSequence entropy)."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GINIBRENET_SEED")
    if env is None:
        return 0
    try:
        return _seed(env)
    except argparse.ArgumentTypeError as exc:
        print(f"error: GINIBRENET_SEED: {exc}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginibrenet",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser(
        "sample", help="draw one point pattern and write it as CSV",
        description="Draw one pattern (Ginibre / thinned Ginibre / reduced "
                    "Palm / Poisson of intensity 1/pi) on a centered disk.")
    p_sample.add_argument("--process", choices=_PROCESS_CHOICES, required=True)
    p_sample.add_argument("--beta", type=float, default=None,
                          help="thinning retention in (0, 1] of beta-ginibre "
                               "and palm (default 1)")
    p_sample.add_argument("--radius", type=float, required=True,
                          help="disk radius (positive)")
    p_sample.add_argument("--out", type=Path, default=None,
                          help="output CSV path (default: stdout)")
    p_sample.add_argument("--seed", type=_seed, default=None,
                          help="master seed (fallback: GINIBRENET_SEED, then 0)")

    p_est = sub.add_parser(
        "estimate", help="run the configured tail estimator over a grid",
        description="Read an experiment config (INI sections: process, "
                    "receiver, attenuation, fading, estimation, output; "
                    "keys and defaults are documented in the config module) "
                    "and write estimates.csv plus slope.csv to the output "
                    "directory.")
    p_est.add_argument("--config", type=Path, required=True)
    p_est.add_argument("--seed", type=_seed, default=None,
                       help="master seed (default: the config's [estimation] "
                            "seed, itself 0 by default)")

    p_rates = sub.add_parser(
        "rates", help="print closed-form rate/speed/asymptote tables",
        description="Evaluate the regime's rate function, speed and tail "
                    "asymptote on grids of x and eps.")
    p_rates.add_argument("--fading", choices=FADING_KINDS, required=True)
    p_rates.add_argument("--c", type=float, default=1.0, help="decay constant")
    p_rates.add_argument("--gamma", type=float, default=0.0, help="Weibull shape")
    p_rates.add_argument("--bound", type=float, default=1.0,
                         help="bounded-fading supremum B")
    p_rates.add_argument("--atten-R", type=float, default=1.0)
    p_rates.add_argument("--atten-alpha", type=float, default=4.0)
    p_rates.add_argument("--x", type=float, nargs="+", default=[2.0, 4.0, 8.0],
                         help="levels (the bounded and weibull_super "
                              "asymptotes need x > 1)")
    p_rates.add_argument("--eps", type=float, nargs="+", default=[0.1, 0.01])
    p_rates.add_argument("--compare-poisson", action="store_true",
                         help="also print the Poisson-network limit constant")
    p_rates.add_argument("--out", type=Path, default=None)

    p_val = sub.add_parser(
        "validate", help="run the acceptance validation suite",
        description="Run every acceptance check with fixed seeds; nonzero "
                    "exit on any failure.")
    p_val.add_argument("--quick", action="store_true",
                       help="reduced Monte Carlo budgets")
    return parser


def cmd_sample(args) -> int:
    if args.beta is not None and args.process in ("ginibre", "poisson"):
        print(f"error: --beta does not apply to --process {args.process}",
              file=sys.stderr)
        return 2
    stream = RngStream(_resolve_seed(args))
    try:
        if args.process == "poisson":
            pat = sample_poisson(args.radius, stream)
        else:
            pat = sample_pattern(DiskRestriction(
                radius=args.radius, beta=1.0 if args.beta is None else args.beta,
                palm_shift=args.process == "palm"), stream)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SamplerStallError as exc:
        print(f"error: {exc} {exc.diagnostics}", file=sys.stderr)
        return 1
    text = pattern_csv_text(pat)
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
        print(f"wrote {len(pat)} points to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    try:
        cfg = load_config(args.config, seed_override=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(cfg.plan.x_grid) < 3:
        print("error: [estimation] x_grid: slope regression needs at least 3 "
              "grid points", file=sys.stderr)
        return 2
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    est_path = cfg.output_dir / "estimates.csv"
    slope_path = cfg.output_dir / "slope.csv"
    rows = []
    code = 0
    try:
        estimates = grid_estimates(cfg.model, cfg.plan.x_grid, cfg.plan.n_reps,
                                   cfg.plan.estimator, RngStream(cfg.plan.seed))
        for x, est in zip(cfg.plan.x_grid, estimates):
            # the weight diagnostics of a tilted estimate; blank for the others
            rows.append({"x": x, "estimator": est.estimator,
                         "p": est.probability, "stderr": est.stderr,
                         "ci_lo": est.ci95[0], "ci_hi": est.ci95[1],
                         "n_reps": est.n_reps, "seed": cfg.plan.seed,
                         **{k: est.diagnostics.get(k, "") for k in _WEIGHT_COLUMNS}})
        # the slope is fitted to exactly the estimates written above
        report = fit_slope(cfg.regime, cfg.plan.x_grid, [r["p"] for r in rows])
    except (ValueError, CapExceededError) as exc:
        detail = f" {exc.diagnostics}" if isinstance(exc, CapExceededError) else ""
        print(f"error: {exc}{detail}", file=sys.stderr)
        report = None
        code = 1
    # partial outputs are preserved on failure
    with est_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["x", "estimator", "p", "stderr",
                                                "ci_lo", "ci_hi", "n_reps",
                                                "seed", *_WEIGHT_COLUMNS])
        writer.writeheader()
        writer.writerows(rows)
    if report is not None:
        with slope_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "log_p", "predicted"])
            for x, lp, pred in zip(report.x_grid, report.log_p, report.predicted):
                writer.writerow([x, lp, pred])
            writer.writerow([])
            writer.writerow(["fitted_slope", report.fitted_slope])
            writer.writerow(["target_slope", report.target_slope])
            writer.writerow(["relative_error", report.relative_error])
        print(f"fitted slope {report.fitted_slope:.4f} vs target "
              f"{report.target_slope:.4f} "
              f"(relative error {report.relative_error:.3%})")
    print(f"wrote {est_path}" + ("" if report is None else f" and {slope_path}"))
    return code


def cmd_rates(args) -> int:
    try:
        # FadingSpec ignores the parameters its kind does not use
        fading = FadingSpec(kind=args.fading, bound=args.bound, c=args.c,
                            gamma=args.gamma)
        regime = LdpRegime(fading, args.atten_R, args.atten_alpha)
        lines = [f"regime: {regime.kind}  (R={args.atten_R}, alpha={args.atten_alpha})",
                 f"{'x':>12s} {'rate':>16s} {'asymptote':>16s}"]
        for x in args.x:
            lines.append(f"{x:12.6g} {rate(regime, x):16.8g} "
                         f"{tail_asymptote(regime, x):16.8g}")
        lines.append(f"{'eps':>12s} {'speed':>16s}")
        for eps in args.eps:
            lines.append(f"{eps:12.6g} {speed(regime, eps):16.8g}")
        if args.compare_poisson:
            lines.append(f"Ginibre limit constant:  {limit_constant(regime):16.8g}")
            lines.append(f"Poisson limit constant:  {poisson_comparison(regime):16.8g}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args) -> int:
    ok = run_suite(quick=args.quick)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"sample": cmd_sample, "estimate": cmd_estimate,
               "rates": cmd_rates, "validate": cmd_validate}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
