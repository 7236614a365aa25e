"""Benchmark of squidcavity: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep|protocol|cli|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; squidcavity is imported from its ``src``.
Every measured process is fresh and runs one client in a closed loop.
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured
(set-up time is the median over 8 fresh processes); with
``--trace 1`` the per-layer metrics come from a traced run.  Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 8
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


# One client on one core: BLAS helper threads would compete with it for the
# second of the two cores and, on a shared machine, stall it while they wait
# to be scheduled.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env():
    """The caller's environment without SQUIDCAVITY_* settings, so the
    package runs its default kernel path, and with single-threaded BLAS."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SQUIDCAVITY_") and k != "PYTHONPATH"}
    return {**env, **SINGLE_THREAD}


def worker(args, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(spec, workload, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    # The first import in a fresh checkout also writes bytecode caches; keep
    # that out of the set-up samples.
    worker(["setup", "--workload", workload], deadline)

    def setups():
        n = 0 if trace else SETUP_RUNS // 2
        return [worker(["setup", "--workload", workload], deadline)["setup_s"] for _ in range(n)]

    # Half the set-up samples before the measured run and half after it, so
    # they do not all fall in one spell of interference from other tenants.
    before = setups()
    res = worker(
        ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        deadline,
    )
    setup_times = before + setups()
    values = dict(res["metrics"])
    if setup_times:
        values["setup_s"] = statistics.median(setup_times)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:>16.6g} {unit}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"  {'error_rate':40s} {failed / attempted:>16.6g} share ({failed} of {attempted} items)")
    print(f"  latency samples: {res['latency_samples']} (the fastest repeats of each item position over {res['rounds']} rounds)")
    for problem in res["problems"]:
        print("  problem: " + problem, file=sys.stderr)
    return {
        "correct": res["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "squidcavity" / "__init__.py").is_file():
        print(f"error: no squidcavity source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            result = run_workload(spec, workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
