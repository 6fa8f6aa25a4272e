"""Run the benchmark over several seeds and write a BENCH_<n>.json summary.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BENCH_1.json

For every workload: one ``--trace 0`` run per seed, then one ``--trace 1``
run on the first seed.  Each end-to-end metric gets its median, quartiles,
spread ((q3 - q1) / median, as ``statistics.quantiles(n=4)`` gives them) and
max; per-layer metrics are copied from the traced run.  The machine facts of
the first run are recorded alongside.  Run from the root of a checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    record = OUT / f"{workload}-seed{seed}-trace{trace}.result.json"
    return json.loads(record.read_text())


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0], None, values[0])
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "max": max(values), "values": values}


def ops_median(runs: list[dict]) -> list[float]:
    """Median over runs of each operation's median time within its run (the
    CLI calls of a unit, or the checks), in operation order."""
    per_run = [[statistics.median(times) for times in zip(*r["run"]["op_seconds"])]
               for r in runs]
    return [statistics.median(col) for col in zip(*per_run)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1-10", help="a seed range 'a-b'")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lo, hi = (int(v) for v in args.seeds.split("-", 1))
    seeds = list(range(lo, hi + 1))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            t0 = time.monotonic()
            runs.append(run(workload, seed, seconds, 0))
            res = runs[-1]["result"]
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s, "
                  f"correct {res['correct']}, "
                  + ", ".join(f"{k} {v['value']:.4g}"
                              for k, v in res["metrics"].items()), flush=True)
        traced = run(workload, seeds[0], seconds, 1)
        out.setdefault("machine", runs[0]["machine"])
        out["workloads"][workload] = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **summary(
                    [r["result"]["metrics"][m["name"]]["value"] for r in runs])}
                for m in spec["end_to_end"]},
            "per_layer": {k: v["value"]
                          for k, v in traced["result"]["metrics"].items()},
            "ops_median_s": ops_median(runs),
        }
        for name, entry in out["workloads"][workload]["end_to_end"].items():
            print(f"  {name:14s} median {entry['median']:.4g} "
                  f"spread {entry['spread']:.3f}", flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
