"""ginibrenet benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its ``src/``.
Every measured process is a child started here with BLAS/OpenMP pinned to one
thread (one caller, one process, one thread: a closed loop).

* ``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median of
  SETUP_REPEATS set-ups (two set-up-only children plus the measured one).
* ``--trace 1`` runs the workload once untraced and once traced, for
  ``seconds / 2`` each, and prints the per-layer metrics plus the tracing
  overhead.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A record with the machine facts goes to ``.perfbench_out/`` in the checkout.
``--smoke`` shrinks every workload; ``--force-fail`` adds one operation the
program must refuse, to show that failures are counted.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from workload import WORKLOADS  # noqa: E402

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # every child of one invocation together


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with (ROOT / "BENCHMARK.json").open() as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def run_child(args, deadline: float, *extra: str, seconds=None,
              trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds if seconds is None else seconds),
           "--trace", str(trace), *extra]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, **THREAD_ENV, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    # run() kills and reaps the child if the deadline passes
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probe = ("import json, numpy, scipy\n"
             "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "print(json.dumps({'numpy': numpy.__version__, "
             "'scipy': scipy.__version__, "
             "'blas': f\"{blas.get('name')} {blas.get('version')}\"}))")
    versions = json.loads(subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, timeout=60).stdout)
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "thread_env": THREAD_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--force-fail", action="store_true",
                        help="add one operation that must fail")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "ginibrenet").is_dir():
        raise SystemExit(f"error: no ginibrenet sources under {ROOT / 'src'}")

    deadline = time.monotonic() + DEADLINE_S
    fail_flag = ("--force-fail",) if args.force_fail else ()
    if args.trace == 0:
        setups = [run_child(args, deadline, "--setup-only")["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
        rec = run_child(args, deadline, *fail_flag)
        setups.append(rec["setup_s"])
        values = {
            "wall_s": rec["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        units = metric_units("end_to_end")
        records = {"setup_s_all": setups, "run": rec}
    else:
        half = args.seconds / 2.0
        plain = run_child(args, deadline, seconds=half)
        rec = run_child(args, deadline, *fail_flag, seconds=half, trace=1)
        values = dict(rec["layers"])
        values["trace.overhead_frac"] = rec["wall_s"] / plain["wall_s"] - 1.0
        values["failed_frac"] = rec["failed"] / rec["attempted"]
        # measured with tracing off, in the untraced child
        values["s_to_rel10"] = plain["s_to_rel10"]
        units = metric_units("per_layer")
        records = {"untraced": plain, "traced": rec}
    if set(units) != set(values):
        raise SystemExit("metrics out of step with BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(values))}")

    result = {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
              "failed": rec["failed"],
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    OUT.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with (OUT / f"{run_id}.result.json").open("w") as fh:
        json.dump({"args": vars(args), "machine": machine_facts(),
                   "result": result, **records}, fh, indent=1)
    for name, unit in units.items():
        print(f"{name:40s} {values[name]!r:>24} {unit}")
    if rec["failed"]:
        print("failures: " + "; ".join(rec["failures"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
