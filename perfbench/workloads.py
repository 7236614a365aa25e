"""The three benchmark workloads: seeded inputs, one program call per job,
and the checks that run after the timed region.

A workload turns a seed into an endless iterator of *rounds*.  A round is a
list of jobs, and the timed loop stops only between rounds, so a run always
covers whole rounds.  A job is one call into the program: a whole ``sweep``
(one item per grid cell), one protocol query, or one CLI command (one item
each).  ``run`` calls ``mark()`` as each item completes, so an item's
latency is the gap between marks.  The program only ever sees the generated
inputs, never the seed.
"""

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field

import numpy as np

from oracle import AGREE_TOL, T_MAX, check_result, quality

G_LO, G_HI = 0.05, 3.0
N_STEPS = 4001

# Additive R2 low-discrepancy sequence (Roberts' generalised golden ratio).
_PLASTIC = 1.324717957244746
_R2 = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC**2])


def r2_points(n, shift):
    """First n points of the shifted R2 sequence, mapped onto [G_LO, G_HI]^2."""
    u = (np.asarray(shift, dtype=float) + np.arange(n)[:, None] * _R2) % 1.0
    return G_LO + (G_HI - G_LO) * u


@dataclass
class Check:
    """Verdict on one job: a flag per item, the (confirmed_feasible, p3)
    quality of each (point, threshold) result, and what went wrong.  A job
    whose output cannot be checked gives fewer than ``job.n_results``
    quality entries; the missing ones count as not feasible."""

    item_ok: list
    quality: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _failed(job, problems):
    return Check(item_ok=[False] * job.n_items, problems=problems)


# ---------------------------------------------------------------- sweep


SWEEP_EXPONENTS = (6, 1)


@dataclass(frozen=True)
class SweepJob:
    g_range: tuple
    gp_range: tuple
    steps: int = 10

    @property
    def n_items(self):
        return self.steps * self.steps

    @property
    def n_results(self):
        return self.n_items * len(SWEEP_EXPONENTS)


class Sweep:
    """One ``squidcavity.sweep`` over a jittered ~[0.05, 3]^2 grid with
    threshold exponents (6, 1).  The loose 10^-1 threshold yields hundreds of
    climb candidates per cell, so this stresses optimizer refinement and the
    per-call overhead of the scan kernel on small arrays."""

    name = "sweep"
    JITTER = 0.05

    def rounds(self, seed):
        rng = random.Random(seed)
        while True:
            g_range = (G_LO + rng.uniform(0, self.JITTER), G_HI - rng.uniform(0, self.JITTER))
            gp_range = (G_LO + rng.uniform(0, self.JITTER), G_HI - rng.uniform(0, self.JITTER))
            yield [SweepJob(g_range, gp_range)]

    def warmup_job(self):
        return SweepJob((0.6, 0.6), (1.37, 1.37), steps=1)

    def run(self, sq, job, mark):
        return sq.sweep(
            job.g_range, job.gp_range, job.steps, SWEEP_EXPONENTS,
            progress=lambda done: mark(),
        )

    def fingerprint(self, grids):
        return tuple(
            (r.feasible, r.t0, r.p1p2, r.p3, r.p4)
            for grid in grids for row in grid.cells for r in row
        )

    def check(self, sq, job, grids):
        g_values = np.linspace(job.g_range[0], job.g_range[1], job.steps)
        gp_values = np.linspace(job.gp_range[0], job.gp_range[1], job.steps)
        if [grid.threshold_exponent for grid in grids] != list(SWEEP_EXPONENTS) or not all(
            np.array_equal(grid.g_values, g_values) and np.array_equal(grid.gprime_values, gp_values)
            for grid in grids
        ):
            return _failed(job, ["sweep grids do not match the requested axes and exponents"])
        out = Check(item_ok=[])
        for i, g in enumerate(g_values):
            for j, gp in enumerate(gp_values):
                p = sq.CouplingParams.symmetric(float(g), float(gp))
                cell_problems = []
                by_exp = {}
                for grid in grids:
                    res = grid.cells[i][j]
                    problems, _, probs = check_result(sq, res, p, 10.0 ** (-grid.threshold_exponent))
                    cell_problems += problems
                    q = quality(res, problems, probs)
                    out.quality.append(q)
                    by_exp[grid.threshold_exponent] = (q[0], res.p3)
                (tight_ok, tight_p3), (loose_ok, loose_p3) = by_exp[6], by_exp[1]
                if tight_ok and not (loose_ok and loose_p3 >= tight_p3 - AGREE_TOL):
                    cell_problems.append("feasible at 1e-6 but not at 1e-1 with P3 no lower")
                out.item_ok.append(not cell_problems)
                out.problems += [f"cell ({g!r}, {gp!r}): {m}" for m in cell_problems]
        return out


# ---------------------------------------------------------------- protocol


@dataclass(frozen=True)
class ProtocolJob:
    g: float
    gp: float
    n_items = 1
    n_results = 1


@dataclass(frozen=True)
class ProtocolOutput:
    result: object
    psi: np.ndarray
    probability: float
    fidelity: float


class Protocol:
    """The paper's protocol per (g, g'): find_t0 at 1e-6, evolve to t0,
    post-select the auxiliary on "g", fidelity with |C>|0>.

    Feasibility at 1e-6 is a thin, irregular set of (g, g'), so a point set
    drawn afresh per seed moves the feasible share by about +-20 % between
    seeds.  The points are therefore a fixed R2 population covered whole in
    every round, the seed sets the order, and round k adds k * NUDGE to both
    couplings so that no (g, g') repeats and no cache keyed on the
    parameters can hit.  The dense scan dominates; the climb rarely runs.
    """

    name = "protocol"
    THRESHOLD = 1e-6
    POPULATION = 256
    NUDGE = 1e-9

    def rounds(self, seed):
        points = r2_points(self.POPULATION, (0.5, 0.5))
        order = list(range(self.POPULATION))
        random.Random(seed).shuffle(order)
        for k in itertools.count():
            yield [
                ProtocolJob(float(points[i, 0]) + k * self.NUDGE, float(points[i, 1]) + k * self.NUDGE)
                for i in order
            ]

    def warmup_job(self):
        return ProtocolJob(0.6, 1.37)

    def run(self, sq, job, mark):
        p = sq.CouplingParams.symmetric(job.g, job.gp)
        res = sq.find_t0(p, self.THRESHOLD)
        psi = sq.evolve(p, res.t0)
        outcome = sq.postselect(psi, "g")
        fid = sq.fidelity(outcome.collapsed, sq.measurement.target_c_with_vacuum())
        mark()
        return ProtocolOutput(res, psi, outcome.probability, fid)

    def fingerprint(self, out):
        r = out.result
        return (r.feasible, r.t0, r.p1p2, r.p3, r.p4, out.probability, out.fidelity, tuple(out.psi))

    def check(self, sq, job, out):
        p = sq.CouplingParams.symmetric(job.g, job.gp)
        problems, psi, probs = check_result(sq, out.result, p, self.THRESHOLD)
        if psi is not None:
            _, _, p3, p4 = probs
            dev = float(np.max(np.abs(out.psi - psi)))
            if not dev <= AGREE_TOL:
                problems.append(f"evolve(p, t0) deviates from the oracle state by {dev:.3e}")
            if not abs(out.probability - (1.0 - p4)) <= AGREE_TOL:
                problems.append(f"P(aux=g) {out.probability!r} vs 1 - P4 = {1.0 - p4!r}")
            if not abs(out.fidelity - p3 / (1.0 - p4)) <= AGREE_TOL:
                problems.append(f"fidelity {out.fidelity!r} vs P3/(1-P4) = {p3 / (1.0 - p4)!r}")
        label = f"query ({job.g!r}, {job.gp!r})"
        return Check(
            item_ok=[not problems],
            quality=[quality(out.result, problems, probs)],
            problems=[f"{label}: {m}" for m in problems],
        )


# ---------------------------------------------------------------- cli

# The paper's reference pairs, which `fig4` without --g uses.
PAPER_PAIRS = ((0.25, 1.89), (2.95, 1.10), (0.60, 1.37))
CLI_THRESHOLD_EXP = 6
# One round: ten commands, (kind, which of the round's two points).  Sorted
# by latency, the cheap eig/evolve/optimize items fill the first 40 %, the
# two `trace` items the next 20 % and `fig4` the rest, so p50 falls in the
# middle of the `trace` items and p90 among the `fig4 --format json` items,
# whose costs do not depend on the point, instead of on a step between two
# commands.
CLI_MIX = (
    ("eig-json", 0), ("eig-csv", 0), ("evolve-json", 0), ("optimize-json", 0),
    ("trace-csv", 0), ("trace-csv", 1),
    ("fig4-csv", 0), ("fig4-json", 0), ("fig4-json", 0), ("fig4-json", 0),
)


@dataclass(frozen=True)
class CliJob:
    kind: str
    g: float
    gp: float
    t: float

    n_items = 1

    @property
    def n_results(self):
        """Optimizer results the command reports: one per point solved."""
        return {"optimize": 1, "fig4": len(PAPER_PAIRS)}.get(self.kind.split("-")[0], 0)

    @property
    def argv(self):
        command, fmt = self.kind.split("-")
        point = ["--g", repr(self.g), "--gprime", repr(self.gp)]
        extra = {
            "eig": point,
            "evolve": point + ["--t", repr(self.t)],
            "optimize": point + ["--threshold-exp", str(CLI_THRESHOLD_EXP)],
            "trace": point,
            "fig4": [],
        }[command]
        return (command, *extra, "--format", fmt)


@dataclass(frozen=True)
class CliOutput:
    rc: int
    text: str


def _csv_rows(text, header):
    """Data rows of a CSV output, each split into its fields."""
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError("unexpected CSV header or missing final newline")
    return [line.split(",") for line in lines[1:-1]]


def _floats(cells):
    return np.array([[float(c) for c in row] for row in cells])


class Cli:
    """In-process ``squidcavity.cli.main(argv)`` with stdout captured in
    memory: a fixed mix of eig, evolve, optimize, trace --format csv and
    fig4 (paper pairs) in both formats; two fresh seeded (g, g') per round.
    Output formatting dominates."""

    name = "cli"

    def __init__(self):
        self._first = {}
        self._verdicts = {}
        self._fig4 = None

    def rounds(self, seed):
        rng = random.Random(seed)
        shift = (rng.random(), rng.random())
        for n in itertools.count():
            points = [(float(g), float(gp)) for g, gp in r2_points(2 * n + 2, shift)[2 * n:]]
            t = rng.uniform(0.0, T_MAX)
            yield [CliJob(kind, *points[k], t) for kind, k in CLI_MIX]

    def warmup_job(self):
        # A repeat of this command is in every round, so every run compares
        # at least one output byte for byte with an earlier one.
        return CliJob("fig4-json", 0.6, 1.37, 0.0)

    def run(self, sq, job, mark):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = sq.cli.main(list(job.argv))
        mark()
        text = out.getvalue()
        # Keep one copy of a repeated output so memory stays flat; a
        # differing repeat is kept and flagged by check().
        first = self._first.setdefault(job.argv, text)
        return CliOutput(rc, first if first == text else text)

    def fingerprint(self, out):
        return (out.rc, out.text)

    def check(self, sq, job, out):
        if out.rc != 0:
            return _failed(job, [f"{' '.join(job.argv)}: exit code {out.rc}"])
        problems = []
        if self._first[job.argv] is not out.text:
            problems.append("output differs from an earlier run of the same command")
        key = (job.argv, out.text)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = getattr(self, "_check_" + job.kind.split("-")[0])(sq, job, out.text)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self._verdicts[key] = ([f"unparseable output: {exc}"], [])
        found, qual = self._verdicts[key]
        problems += found
        return Check(
            item_ok=[not problems],
            quality=qual,
            problems=[f"{' '.join(job.argv)}: {m}" for m in problems],
        )

    @staticmethod
    def _params(sq, job):
        return sq.CouplingParams.symmetric(job.g, job.gp)

    def _check_eig(self, sq, job, text):
        p = self._params(sq, job)
        want = np.column_stack([sq.analytic_eigenvalues(p), sq.model.spectrum(p)])
        if job.kind.endswith("json"):
            d = json.loads(text)
            got = np.column_stack([d["analytic"], d["numeric"]])
        else:
            rows = _csv_rows(text, "n,analytic,numeric")
            if [r[0] for r in rows] != [str(i) for i in range(6)]:
                raise ValueError("eig CSV must number its rows 0..5")
            got = _floats(r[1:] for r in rows)
        ok = got.shape == want.shape and np.array_equal(got, want)
        return ([] if ok else ["eigenvalues differ from the API"]), []

    def _check_evolve(self, sq, job, text):
        p = self._params(sq, job)
        psi = sq.evolve(p, job.t)
        probs = sq.probabilities(sq.amplitudes(psi))
        d = json.loads(text)
        ok = (
            d["t"] == job.t
            and d["amplitudes"] == [[float(a.real), float(a.imag)] for a in psi]
            and d["probabilities"] == [float(v) for v in probs]
        )
        return ([] if ok else ["amplitudes or probabilities differ from the API"]), []

    def _check_trace(self, sq, job, text):
        tr = sq.trace(self._params(sq, job))
        got = _floats(_csv_rows(text, "t,P1,P2,P3,P4,sum"))
        want = np.column_stack([tr.times, tr.probs, [row.sum() for row in tr.probs]])
        ok = got.shape == (N_STEPS, 6) and np.array_equal(got, want)
        return ([] if ok else ["trace rows differ from the API"]), []

    def _check_optimize(self, sq, job, text):
        p = self._params(sq, job)
        threshold = 10.0 ** (-CLI_THRESHOLD_EXP)
        res = sq.find_t0(p, threshold)
        d = json.loads(text)
        problems = []
        if [d["feasible"], d["t0"], d["p1p2"], d["p3"], d["p4"]] != [
            res.feasible, res.t0, res.p1p2, res.p3, res.p4
        ]:
            problems.append("optimize fields differ from find_t0")
        found, _, probs = check_result(sq, res, p, threshold)
        problems += found
        return problems, [quality(res, problems, probs)]

    def _expected_fig4(self, sq):
        if self._fig4 is None:
            params = [sq.CouplingParams.symmetric(g, gp) for g, gp in PAPER_PAIRS]
            bundles = sq.emit_fig4_traces(params, threshold=10.0 ** (-CLI_THRESHOLD_EXP))
            verdicts = []
            for p, b in zip(params, bundles):
                found, _, probs = check_result(sq, b.result, p, 10.0 ** (-CLI_THRESHOLD_EXP))
                verdicts.append((found, quality(b.result, found, probs)))
            self._fig4 = (bundles, verdicts)
        return self._fig4

    def _check_fig4(self, sq, job, text):
        bundles, verdicts = self._expected_fig4(sq)
        problems = [m for found, _ in verdicts for m in found]
        qual = [q for _, q in verdicts]
        if job.kind.endswith("json"):
            got = json.loads(text)["bundles"]
            ok = len(got) == len(bundles) and all(
                [d["g"], d["gprime"], d["feasible"], d["t0"], d["p3_at_t0"], d["p1p2_at_t0"]]
                == [b.trace.params.g1, b.trace.params.g_prime, b.result.feasible,
                    b.result.t0, b.result.p3, b.result.p1p2]
                and np.array_equal(d["times"], b.trace.times)
                and np.array_equal(d["rows"], b.trace.probs)
                for d, b in zip(got, bundles)
            )
        else:
            rows = _csv_rows(
                text,
                "g,gprime,t,P1,P2,P3,P4,feasible,t0,p3_at_t0,p1p2_at_t0,"
                "pi_over_gprime,pi_over_2gprime,dev_pi_over_gprime,dev_pi_over_2gprime",
            )
            n = len(bundles) * N_STEPS
            got = _floats([r[:7] + r[8:] for r in rows]) if len(rows) == n else None
            ok = got is not None
            for k, b in enumerate(bundles if ok else ()):
                block = got[k * N_STEPS:(k + 1) * N_STEPS]
                flags = {r[7] for r in rows[k * N_STEPS:(k + 1) * N_STEPS]}
                annot = [b.result.t0, b.result.p3, b.result.p1p2, b.pi_over_gprime,
                         b.pi_over_2gprime, b.dev_pi_over_gprime, b.dev_pi_over_2gprime]
                ok = ok and (
                    flags == {"true" if b.result.feasible else "false"}
                    and np.array_equal(block[:, 0], np.full(N_STEPS, b.trace.params.g1))
                    and np.array_equal(block[:, 1], np.full(N_STEPS, b.trace.params.g_prime))
                    and np.array_equal(block[:, 2], b.trace.times)
                    and np.array_equal(block[:, 3:7], b.trace.probs)
                    and np.array_equal(block[:, 7:], np.tile(annot, (N_STEPS, 1)))
                )
        if not ok:
            problems.append("fig4 output differs from emit_fig4_traces")
            qual = [(False, 0.0)] * len(qual)
        return problems, qual


WORKLOADS = {w.name: w for w in (Sweep, Protocol, Cli)}
