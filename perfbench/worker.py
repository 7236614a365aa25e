"""One fresh process of the benchmark: set-up timing or one measured run.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1

``setup`` imports squidcavity, finishes one warm-up item and prints the
time taken since this process started running Python code.  ``run``
warms up, runs the closed loop (one client) for the given seconds, then
checks every result outside the timed region and prints one JSON line.
With ``--trace 1`` the first half of the time runs untraced and the
second half traced, and the per-layer metrics come from the traced half.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Latency samples per run, so that at least 10 lie beyond p90.
MIN_SAMPLES = 100


def import_program():
    """Import squidcavity from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import squidcavity

    if Path(squidcavity.__file__).resolve().parent != (SRC / "squidcavity").resolve():
        raise SystemExit(f"squidcavity imported from {squidcavity.__file__}, not {SRC}")
    return squidcavity


@dataclass
class Record:
    job: object
    output: object
    error: str


@dataclass
class Loop:
    records: list
    wall_s: float
    items: int
    round_latencies: list
    first_round_rss_mb: float

    def fastest(self):
        """Per item position within a round, its fastest latencies over the
        rounds: as many as keep at least MIN_SAMPLES latencies in all.

        Every round repeats the same shape of work.  On a shared machine the
        speed of this process swings by 20-100 % for seconds to minutes at a
        time, and interference only ever adds time, so a position's fastest
        repeats estimate its cost most steadily.  Failed items are left out."""
        columns = [sorted(v for v in col if v is not None) for col in zip(*self.round_latencies)]
        keep = -(-MIN_SAMPLES // max(len(columns), 1))
        return [col[:keep] for col in columns if col]


def timed_loop(wl, sq, rounds, seconds, tracer=None):
    """Run whole rounds until ``seconds`` have passed; one job at a time."""
    records = []
    items = 0
    round_latencies = []
    rss_mb = None
    clock = time.perf_counter
    t_begin = clock()
    while clock() - t_begin < seconds:
        lats = []
        for job in next(rounds):
            stamps = []

            def mark():
                stamps.append(clock())
                if tracer is not None:
                    tracer.item += 1

            if tracer is not None:
                tracer.item = items
            t0 = clock()
            try:
                output, error = wl.run(sq, job, mark), None
            except Exception as exc:  # a failing item is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            marks = [t0] + stamps
            records.append(Record(job, output, error))
            lats += [b - a for a, b in zip(marks, marks[1:])] if error is None else [None] * job.n_items
            items += job.n_items
        round_latencies.append(lats)
        if rss_mb is None:
            rss_mb = peak_rss_mb()
    return Loop(records, clock() - t_begin, items, round_latencies, rss_mb)


def peak_rss_mb():
    """Resident high-water mark of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def verify(wl, sq, records):
    """Check every record; returns (failed item count, quality list, problems)."""
    failed, qual, problems = 0, [], []
    for rec in records:
        if rec.error is not None:
            failed += rec.job.n_items
            found = []
            problems.append(f"{rec.job}: {rec.error}")
        else:
            verdict = wl.check(sq, rec.job, rec.output)
            failed += verdict.item_ok.count(False)
            found = verdict.quality
            problems += verdict.problems
        # A result that raised or could not be checked scores as infeasible.
        qual += found + [(False, 0.0)] * (rec.job.n_results - len(found))
    return failed, qual, problems


def environment(sq, seed):
    return {
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": bool(sq.NUMBA_ENABLED),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """Commit of the checkout from its .git directory, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sq = import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    if args.workload == "cli" or args.trace:
        import squidcavity.cli  # noqa: F401
    wl.run(sq, wl.warmup_job(), lambda: None)
    if args.mode == "setup":
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    rounds = wl.rounds(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        untraced = timed_loop(wl, sq, rounds, args.seconds / 2)
        tracer = Tracer()
        tracer.install(sq)
        try:
            main_loop = timed_loop(wl, sq, rounds, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        records = untraced.records + main_loop.records
    else:
        main_loop = timed_loop(wl, sq, rounds, args.seconds)
        records = main_loop.records

    failed, qual, problems = verify(wl, sq, records)
    attempted = sum(rec.job.n_items for rec in records)
    kept = main_loop.fastest()
    if not kept:
        raise SystemExit(f"no item completed: {problems[:3]}")
    samples = [v for col in kept for v in col]
    env = environment(sq, args.seed)
    if tracer is None:
        metrics = {
            "items_per_s": len(kept) / sum(statistics.fmean(col) for col in kept),
            "latency_p50_ms": 1e3 * percentile(samples, 50),
            "latency_p90_ms": 1e3 * percentile(samples, 90),
            # Read after the first round: later rounds only add the outputs
            # this benchmark keeps for checking, which grow with run length.
            "peak_rss_mb": main_loop.first_round_rss_mb,
            "correct_share": 1.0 - failed / attempted,
            "feasible_share": sum(ok for ok, _ in qual) / max(len(qual), 1),
            "p3_score": sum(p3 for _, p3 in qual) / max(len(qual), 1),
        }
    else:
        # Both halves run rounds of the same shape; compare their per-position
        # fastest latencies, as for the end-to-end metrics.
        paired = list(zip(main_loop.fastest(), untraced.fastest()))
        overhead = sum(statistics.fmean(a) for a, _ in paired) / sum(statistics.fmean(b) for _, b in paired)
        metrics = tracer.summary(main_loop.items, main_loop.wall_s, overhead)
        out_bytes = 0
        if args.workload == "cli":
            out_bytes = sum(len(rec.output.text.encode()) for rec in main_loop.records if rec.output)
        metrics["cli.bytes_out"] = out_bytes / main_loop.items
        name = f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(OUT_DIR / name, {"workload": args.workload, "env": env, "items": main_loop.items})
    print(json.dumps({
        "env": env,
        "latency_samples": len(samples),
        "rounds": len(main_loop.round_latencies),
        "problems": problems[:20],
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
