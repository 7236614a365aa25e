"""Tests of the benchmark itself: tracing changes no result, inputs depend
only on the seed, and the oracle rejects corrupted results.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from oracle import check_result  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Cli, Protocol, Sweep, SweepJob  # noqa: E402

sq = worker.import_program()
import squidcavity.cli  # noqa: E402,F401

REF = sq.CouplingParams.symmetric(0.6, 1.37)


def first_jobs(wl, seed, n):
    return list(itertools.islice(itertools.chain.from_iterable(wl.rounds(seed)), n))


def bindings():
    return {
        (name, attr): id(obj)
        for name, mod in sys.modules.items()
        if name == "squidcavity" or name.startswith("squidcavity.")
        for attr, obj in vars(mod).items()
        if callable(obj)
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_jobs_depend_only_on_the_seed(name):
    jobs = first_jobs(WORKLOADS[name](), 7, 30)
    assert jobs == first_jobs(WORKLOADS[name](), 7, 30)
    assert jobs != first_jobs(WORKLOADS[name](), 8, 30)


def test_protocol_points_never_repeat_across_rounds():
    jobs = first_jobs(Protocol(), 1, 3 * Protocol.POPULATION)
    assert len({(j.g, j.gp) for j in jobs}) == len(jobs)


@pytest.mark.parametrize("wl, jobs", [
    (Protocol(), first_jobs(Protocol(), 5, 3)),
    (Cli(), first_jobs(Cli(), 5, 10)),
    (Sweep(), [SweepJob((0.3, 2.2), (0.4, 2.9), steps=3)]),
])
def test_tracer_is_transparent(wl, jobs):
    before = bindings()
    plain = [wl.fingerprint(wl.run(sq, job, lambda: None)) for job in jobs]
    tracer = Tracer()
    tracer.install(sq)
    try:
        traced = [wl.fingerprint(wl.run(sq, job, lambda: None)) for job in jobs]
    finally:
        tracer.uninstall()
    assert traced == plain  # for the CLI this compares the output bytes
    assert bindings() == before
    assert {tracer.names[i].split(".")[0] for i in tracer.name_id} >= {"optimize", "kernels", "model"}
    selft = tracer.self_times()
    roots = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0)
    assert sum(selft) == pytest.approx(roots, rel=1e-9)
    assert min(selft) >= 0.0


def test_summary_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    tracer.install(sq)
    try:
        Cli().run(sq, first_jobs(Cli(), 1, 7)[-1], lambda: None)
    finally:
        tracer.uninstall()
    names = set(tracer.summary(1, 1.0, 1.0)) | {"cli.bytes_out"}
    assert names == {m["name"] for m in spec["per_layer"]}


def test_oracle_accepts_a_true_result_and_rejects_corrupted_ones():
    res = sq.find_t0(REF, 1e-6)
    assert res.feasible
    assert check_result(sq, res, REF, 1e-6)[0] == []
    for corrupt in (
        dataclasses.replace(res, t0=res.t0 + 1e-3),
        dataclasses.replace(res, p3=res.p3 + 1e-6),
        dataclasses.replace(res, t0=0.0),
        dataclasses.replace(res, threshold=1e-5),
    ):
        assert check_result(sq, corrupt, REF, 1e-6)[0]


def test_oracle_rejects_an_unearned_feasible_claim():
    p = sq.CouplingParams.symmetric(2.95, 1.10)  # residual floor ~4e-2
    res = sq.find_t0(p, 1e-6)
    assert not res.feasible and check_result(sq, res, p, 1e-6)[0] == []
    assert check_result(sq, dataclasses.replace(res, feasible=True), p, 1e-6)[0]


def test_protocol_check_scores_only_confirmed_results():
    wl = Protocol()
    job = first_jobs(wl, 3, 1)[0]
    job = dataclasses.replace(job, g=0.6, gp=1.37)
    out = wl.run(sq, job, lambda: None)
    good = wl.check(sq, job, out)
    assert good.item_ok == [True] and good.quality[0][0]
    bad_t0 = dataclasses.replace(out, result=dataclasses.replace(out.result, t0=out.result.t0 + 1e-3))
    bad_fid = dataclasses.replace(out, fidelity=out.fidelity - 1e-6)
    for bad in (bad_t0, bad_fid):
        verdict = wl.check(sq, job, bad)
        assert verdict.item_ok == [False] and verdict.quality == [(False, 0.0)]


def test_sweep_check_flags_a_corrupted_cell():
    wl = Sweep()
    job = SweepJob((0.5, 0.6), (1.3, 1.4), steps=2)
    grids = wl.run(sq, job, lambda: None)
    assert wl.check(sq, job, grids).item_ok == [True] * 4
    cells = [list(row) for row in grids[1].cells]
    cells[1][0] = dataclasses.replace(cells[1][0], p3=cells[1][0].p3 - 1e-6)
    bad = [grids[0], dataclasses.replace(grids[1], cells=tuple(map(tuple, cells)))]
    assert wl.check(sq, job, bad).item_ok == [True, True, False, True]


def test_cli_check_flags_changed_output():
    wl = Cli()
    job = first_jobs(wl, 2, 1)[0]
    out = wl.run(sq, job, lambda: None)
    assert wl.check(sq, job, out).item_ok == [True]
    d = json.loads(out.text)
    d["numeric"][2] += 1e-12
    wrong = dataclasses.replace(out, text=json.dumps(d, indent=2) + "\n")
    assert wl.check(sq, job, wrong).item_ok == [False]


def test_a_raising_job_counts_as_failed_and_infeasible():
    job = next(j for j in first_jobs(Cli(), 1, 10) if j.kind == "optimize-json")
    rec = worker.Record(job, None, "RuntimeError: boom")
    failed, qual, problems = worker.verify(Cli(), sq, [rec])
    assert failed == 1 and qual == [(False, 0.0)] and problems
