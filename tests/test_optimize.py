import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

import squidcavity.optimize as opt
from squidcavity import _kernels, dynamics
from squidcavity.dynamics import amplitudes, evolve, probabilities, sector_modes
from squidcavity.linalg import propagator_oracle
from squidcavity.model import CouplingParams, build_h_full, dark_state_full
from squidcavity.optimize import emit_fig4_traces, find_t0, sweep

PAPER_PAIRS = ((0.25, 1.89), (2.95, 1.10), (0.60, 1.37))


def _setup(p, t_max=200.0):
    """The modes and scan length of one point."""
    m, e, n = opt._setup([p], t_max)[:3]
    return m[0], e[0], n[0]


def _scan(p, t_max=200.0):
    """The scan table of one point, a one-point part."""
    m, e, n = opt._setup([p], t_max)[:3]
    return next(opt._scan(m, e, n, t_max))


def test_stationary_infeasible_for_tight_threshold():
    g = 1.0
    p = CouplingParams.symmetric(g, 0.0)
    res = find_t0(p, 1e-6, t_max=20.0)
    assert not res.feasible
    # residual is the constant P1 = 1/(2g^2+1)
    assert res.p1p2 == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_stationary_feasible_for_loose_threshold():
    g = 1.0
    p = CouplingParams.symmetric(g, 0.0)
    res = find_t0(p, 0.5, t_max=20.0)
    assert res.feasible
    assert res.p3 == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_feasible_point():
    p = CouplingParams.symmetric(0.6, 1.37)
    res = find_t0(p, 1e-6, t_max=200.0)
    assert res.feasible
    assert res.p1p2 <= 1e-6
    assert res.t0 == pytest.approx(16.1007, abs=1e-3)
    assert res.p3 == pytest.approx(0.89714, abs=1e-4)
    assert res.p3 + res.p4 + res.p1p2 == pytest.approx(1.0, abs=1e-8)
    assert res.pi_over_gprime == pytest.approx(np.pi / 1.37, abs=1e-12)
    # pi/g' belongs to the result's couplings, also after replacing them
    moved = dataclasses.replace(res, params=CouplingParams.symmetric(0.6, 0.5))
    assert moved.pi_over_gprime == np.pi / 0.5
    assert moved.pi_over_2gprime == np.pi / 0.5 / 2.0
    assert dataclasses.replace(res, params=CouplingParams.symmetric(0.6, 0.0)).pi_over_gprime == np.inf


def test_feasible_normalization_identity():
    for g, gp, thr in [(0.6, 1.37, 1e-6), (1.0, 1.0, 1e-2), (2.0, 0.5, 1e-1)]:
        res = find_t0(CouplingParams.symmetric(g, gp), thr, t_max=100.0)
        if res.feasible:
            assert res.p3 + res.p4 >= 1 - thr - 1e-8


def test_determinism():
    p = CouplingParams.symmetric(1.3, 0.8)
    a = find_t0(p, 1e-3, t_max=60.0)
    b = find_t0(p, 1e-3, t_max=60.0)
    assert dataclasses.astuple(a) == dataclasses.astuple(b)


def test_residual_consistency_with_dynamics():
    p = CouplingParams.symmetric(0.6, 1.37)
    res = find_t0(p, 1e-6, t_max=200.0)
    p1, p2, p3, p4 = probabilities(amplitudes(evolve(p, res.t0)))
    assert abs((p1 + p2) - res.p1p2) < 1e-10
    assert abs(p3 - res.p3) < 1e-10
    assert abs(p4 - res.p4) < 1e-10


def test_scan_resolution_soundness(monkeypatch):
    triples = [(0.25, 1.89), (2.95, 1.10), (0.60, 1.37)]
    coarse = [find_t0(CouplingParams.symmetric(g, gp), 1e-6) for g, gp in triples]
    # a quarter of the slack halves the step h = sqrt(8 SCAN_SLACK / L)
    monkeypatch.setattr(opt, "SCAN_SLACK", opt.SCAN_SLACK / 4.0)
    fine = [find_t0(CouplingParams.symmetric(g, gp), 1e-6) for g, gp in triples]
    for a, b in zip(coarse, fine):
        assert a.feasible == b.feasible
        if a.feasible:
            assert abs(a.p3 - b.p3) <= 1e-6


def test_validation():
    p = CouplingParams.symmetric(1.0, 1.0)
    with pytest.raises(ValueError):
        find_t0(p, 0.0)
    with pytest.raises(ValueError):
        find_t0(p, 1e-3, t_max=0.0)
    with pytest.raises(ValueError):
        sweep((0.0, 1.0), (0.1, 1.0), 3, [3])
    for exps in ([0], [np.inf], [np.nan], [6, np.inf]):
        with pytest.raises(ValueError, match="positive integers"):
            sweep((0.1, 1.0), (0.1, 1.0), 3, exps)
    with pytest.raises(ValueError, match="distinct"):
        sweep((0.5, 1.0), (0.5, 1.5), (2, 3), [1, 1])
    with pytest.raises(ValueError, match="threshold must lie in"):
        sweep((0.5, 1.0), (0.5, 1.0), (2, 1), [6, 400])  # 10^-400 underflows to 0
    for steps in (0, (2, 0), 2.0, (2, 2.0), (2, 3, 4), (2,), "2"):
        with pytest.raises(ValueError, match="steps"):
            sweep((0.5, 1.0), (0.5, 1.0), steps, [1])
    for g_range, gprime_range in (((0.5, 1.0), (0.5, 1.0, 2.0)), ((0.5,), (0.5, 1.0)), (0.5, (0.5, 1.0))):
        with pytest.raises(ValueError, match="pairs"):
            sweep(g_range, gprime_range, 2, [1])
    # the ranges are checked as ranges, not as the couplings of one point
    for g_range, gprime_range in (((0.5, np.inf), (0.5, 1.0)), ((0.5, 1.0), (0.5, 1e76)), ((1e76, np.inf), (0.5, 1.0))):
        with pytest.raises(ValueError, match="ranges must be finite and at most 1e\\+75"):
            sweep(g_range, gprime_range, 2, [1])

    def grids(steps):
        return [(g.g_values.tolist(), g.gprime_values.tolist(), g.cells)
                for g in sweep((0.5, 1.0), (0.5, 1.5), steps, [1], t_max=10.0)]

    # numpy integers count as ints
    assert grids(np.int64(2)) == grids(2)
    assert grids((np.int64(2), np.int32(3))) == grids((2, 3)) == grids(np.array([2, 3]))


@pytest.mark.parametrize("coarse,part", [(False, None), (True, None), (False, 4)],
                         ids=("scan", "coarse-scan", "parts-of-4"))
def test_sweep_single_cell_matches_find_t0(monkeypatch, coarse, part):
    exps = [6, 3, 1]
    if part:
        # parts of 4 over rows of 9 points: parts split rows and span them
        monkeypatch.setattr(opt, "_PART_POINTS", part)
    if coarse:
        split = []
        bisect = opt._bisect

        def counted(c, own, a, b):
            split.append(own.size)
            return bisect(c, own, a, b)

        # 64 times the slack makes the step 8 times coarser, so that many
        # nodes must be bisected before they are resolved, at every threshold
        monkeypatch.setattr(opt, "SCAN_SLACK", 64 * opt.SCAN_SLACK)
        monkeypatch.setattr(opt, "_bisect", counted)
    # rows of 9 cells; (0.6, 1.37) is among them
    grids = sweep((0.3, 0.9), (0.87, 1.87), (3, 9), exps, t_max=200.0)
    if coarse:
        assert sum(split) > 0
    assert [grid.threshold_exponent for grid in grids] == exps
    fields = ("feasible", "t0", "p1p2", "p3", "p4", "p1p2_bound")
    for grid in grids:
        for i, g in enumerate(grid.g_values):
            for k, gp in enumerate(grid.gprime_values):
                cell = grid.cells[i][k]
                ref = find_t0(CouplingParams.symmetric(g, gp), 10.0 ** -grid.threshold_exponent)
                assert [getattr(cell, f) for f in fields] == [getattr(ref, f) for f in fields]


def test_sweep_threshold_nesting():
    grids = sweep((0.3, 1.5), (0.3, 1.5), 4, [6, 1], t_max=60.0)
    by_j = {g.threshold_exponent: g for g in grids}
    for i in range(4):
        for k in range(4):
            tight = by_j[6].cells[i][k]
            loose = by_j[1].cells[i][k]
            if tight.feasible:
                assert loose.feasible
                assert loose.p3 >= tight.p3 - 1e-9


def test_sweep_progress_and_order():
    seen = []
    grids = sweep((0.5, 1.0), (0.5, 1.0), (3, 2), [2, 4], t_max=30.0, progress=seen.append)
    assert seen == [1, 2, 3, 4, 5, 6]  # once per cell, row-major
    assert [g.threshold_exponent for g in grids] == [2, 4]


def test_sweep_reports_each_part_after_refining_it(monkeypatch):
    # progress fires once per point, and only after the whole part that
    # holds the point is refined: the gaps between callbacks then time parts
    events = []
    part = opt._part

    def recorded(*args):
        events.append("part")
        return part(*args)

    monkeypatch.setattr(opt, "_part", recorded)
    # parts of 4 points over the flattened grid, the first spanning two rows
    monkeypatch.setattr(opt, "_PART_POINTS", 4)
    sweep((0.5, 1.0), (0.5, 1.0), (3, 2), [2, 4], t_max=30.0, progress=events.append)
    assert events == ["part", 1, 2, 3, 4, "part", 5, 6]


def test_fig4_bundle():
    params = [CouplingParams.symmetric(0.6, 1.37)]
    bundles = emit_fig4_traces(params, t_max=200.0, n_steps=2001, threshold=1e-6)
    b = bundles[0]
    assert b.result.feasible
    # initial target-state component
    assert b.trace.probs[0, 2] == pytest.approx(0.41860465116279066, abs=1e-12)
    # the annotated time lands on a local maximum of P3 within grid resolution
    k = int(np.argmin(np.abs(b.trace.times - b.result.t0)))
    lo, hi = max(k - 2, 0), min(k + 3, len(b.trace.times))
    assert b.result.p3 >= np.max(b.trace.probs[lo:hi, 2]) - 1e-3
    assert b.dev_pi_over_gprime == pytest.approx(abs(b.result.t0 - np.pi / 1.37), abs=1e-12)
    assert b.dev_pi_over_2gprime == pytest.approx(abs(b.result.t0 - np.pi / 2.74), abs=1e-12)


def test_fig4_propagates_infeasibility_as_annotation():
    params = [CouplingParams.symmetric(0.5, 0.0)]
    bundles = emit_fig4_traces(params, t_max=20.0, n_steps=101, threshold=1e-6)
    assert not bundles[0].result.feasible


_BRUTE_POINTS = (
    *PAPER_PAIRS,
    (1.5, 0.7),
    # optima inside feasible dips that fall between scan samples at 1e-6
    (0.5001221372522346, 1.5638393536739232),
    (1.1131089249542268, 1.8785901702363161),
    *(tuple(pt) for pt in np.random.default_rng(20261018).uniform(0.05, 3.0, (11, 2)).round(6)),
    (1.0, 0.0),  # g' = 0: r is constant and r' vanishes identically
    (1e-3, 1.2),  # g -> 0
    (0.0, 1.0),  # E1 = E3
)


def _fine_grid(p, amplitude_rows):
    """r and P3 on a grid of step 0.0025 / max(1, g, g') over (0, 200]."""
    g, gp = p.g1, p.g_prime
    step = 0.0025 / max(1.0, g, gp)
    times = np.linspace(0.0, 200.0, int(np.ceil(200.0 / step)) + 1)[1:]
    p1, p2, p3, _ = amplitude_rows(*sector_modes(p), times)[0] ** 2
    return p1 + p2, p3


def _check_results(p, r, p3):
    """find_t0 at three thresholds against r and P3 on a fine grid and the
    propagator."""
    h, d0 = build_h_full(p), dark_state_full(p)
    for threshold in (1e-6, 1e-3, 1e-1):
        res = find_t0(p, threshold)
        # the certificate bounds r from below, also between these samples
        assert res.p1p2_bound <= res.p1p2
        assert res.p1p2_bound <= np.min(r)
        if res.feasible:
            q1, q2, q3, _ = probabilities(amplitudes(propagator_oracle(h, res.t0) @ d0))
            assert q1 + q2 <= threshold + 1e-12
            assert abs(q3 - res.p3) <= 1e-9
        yield threshold, res


@pytest.mark.parametrize("g,gp", _BRUTE_POINTS, ids=lambda v: f"{v:g}")
def test_find_t0_beats_brute_force_on_a_finer_grid(monkeypatch, g, gp, amplitude_rows):
    p = CouplingParams.symmetric(g, gp)
    dips = []
    solve = opt._solve

    def recorded(kind, lo, hi, q, start):
        out = solve(kind, lo, hi, q, start)
        if kind == opt._DIP:
            dips.append((lo, hi, out[1]))
        return out

    monkeypatch.setattr(opt, "_solve", recorded)
    r, p3 = _fine_grid(p, amplitude_rows)
    for threshold, res in _check_results(p, r, p3):
        feasible = r <= threshold
        if feasible.any():
            assert res.feasible
            assert res.p3 >= np.max(p3[feasible]) - 1e-9
    # each Newton minimum is the minimum of r on its node, within eps
    m, e = sector_modes(p)
    eps = opt._R_ERROR * (1.0 + e[0] * 200.0)
    for lo, hi, low in dips:
        times = np.linspace(lo[0], hi, 65)
        p1, p2 = amplitude_rows(m, e, times.ravel())[0][:2] ** 2
        assert np.all((p1 + p2).reshape(times.shape) >= low - eps)


@pytest.mark.parametrize("g,gp", _BRUTE_POINTS, ids=lambda v: f"{v:g}")
def test_results_stay_valid_without_bisection(monkeypatch, g, gp, amplitude_rows):
    # with no budget, every node that the scan step leaves unresolved only
    # enters the bound, at the production step and at an 8 times coarser one
    monkeypatch.setattr(opt, "SPLIT_BUDGET", 0)
    p = CouplingParams.symmetric(g, gp)
    fine = _fine_grid(p, amplitude_rows)
    for slack in (opt.SCAN_SLACK, 64 * opt.SCAN_SLACK):
        monkeypatch.setattr(opt, "SCAN_SLACK", slack)
        assert len(list(_check_results(p, *fine))) == 3


# (0.0794, 1.1269) has, at 1e-6, a node where P3 is not yet of one shape
_COARSE_POINTS = (*PAPER_PAIRS, (1.5, 0.7), (0.07936595438151128, 1.1268861653868985),
                  *(tuple(pt) for pt in np.random.default_rng(20261021).uniform(0.05, 3.0, (5, 2)).round(6)))


def test_a_coarse_scan_finds_the_same_optimum(monkeypatch):
    # the nodes of an 8 times coarser step hold the same optimum: the same
    # feasibility, and P3 within the tie band or the same residual
    keys = [(g, gp, threshold) for g, gp in _COARSE_POINTS for threshold in (1e-6, 1e-3, 1e-1)]
    ref = [find_t0(CouplingParams.symmetric(g, gp), threshold) for g, gp, threshold in keys]
    monkeypatch.setattr(opt, "SCAN_SLACK", 64 * opt.SCAN_SLACK)
    for (g, gp, threshold), a in zip(keys, ref):
        b = find_t0(CouplingParams.symmetric(g, gp), threshold)
        assert a.feasible == b.feasible
        if a.feasible:
            assert abs(b.p3 - a.p3) <= opt.P3_TIE_TOL
        else:
            assert abs(b.p1p2 - a.p1p2) <= 1e-12


def _count_kernel_calls(monkeypatch):
    """Count calls of public _kernels functions made from outside it."""
    calls = [0]
    depth = [0]
    public = [
        name for name, fn in inspect.getmembers(_kernels, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == _kernels.__name__
    ]
    assert public
    for name in public:
        def counted(*args, _fn=getattr(_kernels, name)):
            calls[0] += depth[0] == 0
            depth[0] += 1
            try:
                return _fn(*args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(_kernels, name, counted)
    return calls


@pytest.mark.parametrize("threshold", [1e-6, 1e-1])
@pytest.mark.parametrize("g,gp", PAPER_PAIRS + ((1.5, 0.7),))
def test_kernel_evaluations_per_find_t0(monkeypatch, g, gp, threshold):
    calls = _count_kernel_calls(monkeypatch)
    find_t0(CouplingParams.symmetric(g, gp), threshold)
    assert 1 <= calls[0] <= 40


@pytest.mark.parametrize("g,gp", [(0.6, 1.37), (2.95, 1.10), (0.7, 0.0)])
def test_scan_table_is_the_grid_evaluation(g, gp):
    p = CouplingParams.symmetric(g, gp)
    m, e, n = _setup(p)
    pts = _scan(p)
    times = np.linspace(0.0, 200.0, n + 1)
    times[0] = opt._T_FLOOR
    probs = _kernels.grid_probs(m, e, 200.0, n + 1)
    assert np.array_equal(pts[0], times)
    assert np.array_equal(pts[1], probs[0] + probs[1])
    assert np.array_equal(pts[2:], probs[2:])


@pytest.mark.parametrize("threshold", [1e-6, 1e-1])
@pytest.mark.parametrize("g,gp", [(0.6, 1.37), (2.95, 1.10), (1e-6, 2.0), (1e-8, 1.0),
                                  # g' ~ Omega, where r dips below 2e-3 often and a
                                  # cell at 1e-6 keeps over a hundred nodes
                                  (3e-7, 1.0), (1.44e-5, 1.087), (1.95e-4, 1.0658), (2.8e-4, 0.9961)])
def test_find_t0_peak_memory_is_bounded_by_the_point_table(g, gp, threshold):
    p = CouplingParams.symmetric(g, gp)
    table = 32 * (_setup(p)[2] + 1)  # 4 float64 rows of n + 1 samples
    tracemalloc.start()
    try:
        find_t0(p, threshold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * table


def test_sweep_peak_memory_is_bounded_by_one_point_table():
    # g' = 2 has the longest scan of the row
    table = 32 * (_setup(CouplingParams.symmetric(0.6, 2.0))[2] + 1)
    tracemalloc.start()
    try:
        sweep((0.6, 0.6), (0.5, 2.0), (1, 16), [6, 1], t_max=200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the peak is about 400 kB: the 242 kB table of the row's longest scan
    # and what the 16 cuts keep; the limit is two tables of a 40,001-sample
    # scan, which the 16 tables of the row held at once would still exceed
    assert 16 * table > 2 * 32 * 40_001
    assert peak <= 2 * 32 * 40_001


def test_sweep_near_resonance_peak_memory_is_bounded_by_its_tables():
    # g' ~ Omega with tiny g, where a3's weights cancel: the beat form of a3
    # keeps the P3 floor tight, so each cell keeps few nodes
    table = 32 * (_setup(CouplingParams.symmetric(5e-7, 1.001))[2] + 1)
    tracemalloc.start()
    try:
        sweep((1e-7, 5e-7), (0.999, 1.001), 8, [6, 1], t_max=200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two tables of the grid's longest scan per point
    assert peak <= 2 * 64 * table


def test_sweep_memory_does_not_grow_with_row_length():
    working = []
    for n in (opt._PART_POINTS, 4 * opt._PART_POINTS):
        tracemalloc.start()
        try:
            grids = sweep((1.0, 1.0), (0.5, 1.0), (1, n), [6, 1], t_max=20.0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the peak less what the results still hold
        working.append(peak - held)
        del grids
    # one part at a time; every cell's nodes held at once would not fit
    assert working[1] <= 1.5 * working[0]


# at least 10 cells, with g' = 0 and E1 = E3 among them
_BATCH_POINTS = (
    *PAPER_PAIRS,
    (1.5, 0.7),
    (1.0, 0.0),
    (0.0, 1.0),
    *(tuple(pt) for pt in np.random.default_rng(20261019).uniform(0.05, 3.0, (9, 2)).round(6)),
)


def _node_cells(cells, own, lo, hi, **fields):
    """A copy of ``cells`` in which node k, [lo[k], hi[k]], is the only node
    of cell k, a copy of cell ``own[k]``, with ``fields`` replaced."""
    per_cell = {f.name: getattr(cells, f.name)[..., own] for f in dataclasses.fields(cells)
                if f.name not in ("params", "node_own", "node_a", "node_b")}
    per_cell.update(fields)
    ends = opt._ends(cells.q[:, own][:, None], np.stack((lo, hi)))
    return dataclasses.replace(cells, **per_cell, node_own=np.arange(own.size), node_a=ends[:, 0], node_b=ends[:, 1])


def _by_node(own, cand, k):
    """The candidates of cell k, the node of ``_node_cells``."""
    return cand[:, own == k]


def _turns(x):
    """Which scan intervals touch a sample where x turns."""
    turn = np.zeros(x.size, dtype=bool)
    turn[1:-1] = np.diff(np.sign(np.diff(x))) != 0
    return turn[:-1] | turn[1:]


def _point_setup(p, t_max):
    """One point's set-up, computed alone with Python scalars where the
    stacked set-up uses arrays: modes, n, derivative weights and bounds."""
    b = np.array([[np.sqrt(2.0) * p.g, p.g_prime], [p.omega1, 0.0]])
    u, e, vt = np.linalg.svd(b)
    c = u.T @ (dynamics._F_VECTORS[[0, 2]] @ dark_state_full(p)).real
    m = np.array([u * c, vt.T * c])
    curvature = opt._step_curvature(p)
    n = max(1, math.ceil(t_max * math.sqrt(curvature / (8.0 * opt.SCAN_SLACK))))
    e1, e3 = e.tolist()

    def sums(w):
        """sum_j |w_j| E_j^i for i = 0..3, with E^3 as E^2 E."""
        terms = [(abs(x), abs(x) * f, abs(x) * (f * f), abs(x) * (f * f) * f) for x, f in zip(w, (e1, e3))]
        return [x + y for x, y in zip(*terms)]

    a1, a3, a2 = (sums(w) for w in (m[0, 0].tolist(), m[0, 1].tolist(), m[1, 0].tolist()))
    # a3's beat form, order by order
    w1, w3 = m[0, 1].tolist()
    gap = min(abs(w1), abs(w3)) * (e1 - e3)
    beat = (
        abs(w1 + w3) + gap * t_max,
        abs(w1 + w3) * e1 + gap * (1.0 + e1 * t_max),
        abs(w1 + w3) * e1 ** 2 + gap * (2.0 * e1 + e1 ** 2 * t_max),
        abs(w1 + w3) * e1 ** 3 + gap * (3.0 * e1 ** 2 + e1 ** 3 * t_max),
    )
    a3 = [min(x, y) for x, y in zip(a3, beat)]
    cube = 8.0 * e1 ** 3
    bounds = (
        min(curvature, 2.0 * (a1[1] * a1[1] + a1[0] * a1[2] + a2[1] * a2[1] + a2[0] * a2[2])),
        min(cube, 2.0 * (3.0 * (a1[1] * a1[2] + a2[1] * a2[2]) + a1[0] * a1[3] + a2[0] * a2[3])),
        min(curvature, 2.0 * (a3[1] * a3[1] + a3[0] * a3[2])),
        min(cube, 2.0 * (3.0 * a3[1] * a3[2] + a3[0] * a3[3])),
        a3[0],
    )
    return m, e, n, _kernels.derivative_weights(m, e), np.array(bounds)


@pytest.mark.parametrize("t_max", [20.0, 200.0])
def test_stacked_setup_equals_the_point_setup(t_max):
    # bit for bit, at g = 0, g' = 0, E1 = E3 and tiny g too; the cube 8 E1^3
    # is C pow, which numpy's e ** 3 is not at the last two points, where
    # the cube is M or M3
    points = (*_BATCH_POINTS, (0.0, 0.0), (1e-3, 1.2), (1e-6, 2.0), (1e-8, 1.0),
              (0.081699, 0.927456), (0.125093, 1.803387))
    params = [CouplingParams.symmetric(g, gp) for g, gp in points]
    m, e, n, d, bounds = opt._setup(params, t_max)
    for i, p in enumerate(params):
        ref = _point_setup(p, t_max)
        assert int(n[i]) == ref[2]
        for got, want in zip((m[i], e[i], d[i], bounds[:, i]), ref[:2] + ref[3:]):
            assert got.tobytes() == want.tobytes()
        assert [x.tobytes() for x in sector_modes(p)] == [ref[0].tobytes(), ref[1].tobytes()]


# at t_max 0.06 their scans run from 2 samples (g, g' ~ 0) to 16,433
# (g = g' = 1e4), 4 a perfect square (g = g' = 1.2)
_RAGGED_POINTS = ((1e-3, 1e-3), (1e-3, 0.5), (1.2, 1.2), (0.6, 1.37), (3.0, 2.0), (50.0, 50.0),
                  (1e4, 1e4), (0.3, 1e4), (2e3, 7.0))


def test_part_scans_equal_the_point_scans():
    params = [CouplingParams.symmetric(g, gp) for g, gp in _RAGGED_POINTS]
    m, e, n = opt._setup(params, 0.06)[:3]
    assert min(n) == 1 and max(n) >= 10_000 and 3 in n
    tables = list(opt._scan(m, e, n, 0.06))
    assert len(tables) == len(params)
    for p, pts in zip(params, tables):
        assert pts.tobytes() == _scan(p, 0.06).tobytes()


def test_part_node_ends_equal_the_point_node_ends():
    thresholds = [1e-6, 1e-3, 1e-1]
    k = len(thresholds)
    params = [CouplingParams.symmetric(g, gp) for g, gp in _RAGGED_POINTS]
    part = opt._cells(params, 0.06, thresholds)
    assert np.unique(part.node_own // k).size >= 5
    for i, p in enumerate(params):
        alone = opt._cells([p], 0.06, thresholds)
        at = part.node_own // k == i
        assert np.array_equal(part.node_own[at] - i * k, alone.node_own)
        assert part.node_a[:, at].tobytes() == alone.node_a.tobytes()
        assert part.node_b[:, at].tobytes() == alone.node_b.tobytes()


def test_bracket_evaluation_is_independent_of_batch_size(monkeypatch):
    thresholds = [1e-6, 1e-1]
    params = [CouplingParams.symmetric(g, gp) for g, gp in _BATCH_POINTS]
    cells = opt._cells(params, 200.0, thresholds)
    # the node ends, evaluated over the part with the modes of each node
    # gathered, have the bits of an evaluation per point with its modes
    # broadcast
    for i in range(len(params)):
        at = cells.node_own // len(thresholds) == i
        a, b = cells.node_a[:, at], cells.node_b[:, at]
        ends = opt._ends(cells.q[:, len(thresholds) * i, None, None], np.stack((a[0], b[0])))
        assert ends[:, 0].tobytes() == a.tobytes() and ends[:, 1].tobytes() == b.tobytes()

    # the scan intervals where r or P3 turns or r crosses a threshold, as
    # (cell, lo, hi); cell 2 i + j is threshold j of point i
    pool = []
    for i, p in enumerate(params):
        times, r, p3 = _scan(p)[:3]
        for j, threshold in enumerate(thresholds):
            at = np.flatnonzero(_turns(r) | _turns(p3) | ((r[:-1] <= threshold) != (r[1:] <= threshold)))
            pool.append((2 * i + j, times[at], times[at + 1]))
    rng = np.random.default_rng(5)
    # 1,000 nodes, each from a group drawn uniformly
    picks = [pool[k] for k in rng.integers(len(pool), size=1000)]
    at = [rng.integers(lo.size) for _, lo, _ in picks]
    own = np.array([o for o, _, _ in picks])
    lo, hi = (np.array([g[j][k] for g, k in zip(picks, at)]) for j in (1, 2))
    assert np.unique(own // 2).size >= 10
    kinds = []
    solve = opt._solve
    monkeypatch.setattr(opt, "_solve", lambda kind, *args: kinds.append(kind) or solve(kind, *args))
    batch = _node_cells(cells, own, lo, hi)
    found = opt._refine(batch)
    # every equation is solved among them
    assert sorted(set(kinds)) == [opt._DIP, opt._EDGE, opt._P3MAX]
    ends = opt._ends(cells.q[:, own], lo)
    for k in range(0, 1000, 25):
        alone = _node_cells(cells, own[k:k + 1], lo[k:k + 1], hi[k:k + 1])
        assert np.array_equal(_by_node(*opt._refine(alone), 0), _by_node(*found, k))
        assert alone.bound.tobytes() == batch.bound[k:k + 1].tobytes()
        assert np.array_equal(opt._ends(cells.q[:, own[k:k + 1]], lo[k:k + 1])[:, 0], ends[:, k])


_PRUNED_POINTS = (*PAPER_PAIRS, *np.random.default_rng(20261020).uniform(0.05, 3.0, (20, 2)).round(6))


# P3 stays below about 2e-9 here, so at 1e-1 the tie band P3_TIE_TOL holds
# candidates far apart in t and decides t0
_TIED_POINT = ((1e-4, 0.21),)


@pytest.mark.parametrize("threshold", [1e-6, 1e-1])
def test_pruned_dips_refine_above_threshold_and_best_sample(threshold):
    dropped = {"r": 0, "P3": 0, "tie": 0}
    # at g = 1e-6 P3 stays below 1e-11, within the tie band everywhere
    for g, gp in (*_PRUNED_POINTS, *_TIED_POINT, (1e-6, 2.0)):
        p = CouplingParams.symmetric(g, gp)
        cells = opt._cells([p], 200.0, [threshold])
        res = find_t0(p, threshold)
        times, r, p3 = _scan(p)[:3]
        h = 200.0 / (times.size - 1)
        kept = np.isin(times[:-1], cells.node_a[0])
        assert kept.sum() == cells.node_a.shape[1]
        # each interval left out is left out by one rule: its minorant of r
        # clears the level, its P3 samples lie below the floor, or it follows
        # a sample tied with the winner
        by_r = np.minimum(r[:-1], r[1:]) - cells.bounds[0, 0] * h * h / 8.0 > cells.level[0]
        by_p3 = ~kept & ~by_r & (np.maximum(p3[:-1], p3[1:]) < cells.floor[0])
        by_tie = ~kept & ~by_r & ~by_p3
        assert not np.any(kept & by_r)
        for rule, out in zip(dropped, (by_r, by_p3, by_tie)):
            dropped[rule] += out.sum()
        # every interval left out, refined anyway as a node, with no half
        # dropped: above the threshold and the best sample, below the tie
        # band of the largest feasible P3, or after the winner and either
        # below that largest P3 or, where no P3 reaches P3_TIE_TOL, tied
        own, cand = opt._refine(cells)
        top = np.max(cand[2], where=cand[1] <= threshold, initial=-np.inf)
        at = np.flatnonzero(~kept)
        anyway = _node_cells(cells, np.zeros(at.size, dtype=int), times[at], times[at + 1],
                             level=np.full(at.size, np.inf), floor=np.full(at.size, -np.inf))
        own, cand = opt._refine(anyway)
        assert np.all(cand[1, by_r[at][own]] > max(threshold, r.min()))
        assert np.all(cand[2, by_p3[at][own]] < top - opt.P3_TIE_TOL)
        tie = cand[:, by_tie[at][own]]
        assert np.all(tie[0] >= res.t0)
        assert np.all(tie[2] < top) or np.max(tie[2], initial=top) <= opt.P3_TIE_TOL
        if not res.feasible:
            assert not (by_p3 | by_tie).any()
    assert dropped["r"] > 0
    if threshold == 1e-1:
        assert min(dropped.values()) > 0


def test_p3_pruning_changes_no_result(monkeypatch):
    fields = ("feasible", "t0", "p1p2", "p3", "p4", "p1p2_bound")
    solve = opt._solve
    brackets = [0]

    def counted(kind, lo, hi, q, start):
        brackets[0] += hi.size
        return solve(kind, lo, hi, q, start)

    def run():
        rows = [[getattr(c, f) for f in fields]
                for grid in sweep((0.3, 0.9), (0.87, 1.87), (3, 9), [6, 3, 1], t_max=200.0)
                for row in grid.cells for c in row]
        rows += [[getattr(find_t0(CouplingParams.symmetric(g, gp), threshold), f) for f in fields]
                 for g, gp in PAPER_PAIRS + _TIED_POINT for threshold in (1e-6, 1e-1)]
        brackets[0] = 0
        sweep((0.05, 3.0), (0.05, 3.0), 10, [6, 1], t_max=200.0)
        return rows, brackets[0]

    monkeypatch.setattr(opt, "_solve", counted)
    pruned, few = run()
    # a floor of -inf keeps every bracket
    monkeypatch.setattr(opt, "_p3_floor", lambda *args: -np.inf)
    every, many = run()
    assert len(pruned) == 3 * 9 * 3 + 8
    # bit for bit: == on floats would also pass 0.0 == -0.0
    assert [np.array(row, dtype=float).tobytes() for row in pruned] == \
        [np.array(row, dtype=float).tobytes() for row in every]
    assert 0 < 5 * few <= many


# g' near Omega = 1 with tiny g: E1 ~ E3 and a3's weights cancel, so P3
# stays below 1e-10 up to t = 20, where the beat form of a3 bounds it
_FLAT_POINTS = ((1e-8, 1.0), (1e-7, 1.05))


def test_cells_whose_p3_all_tie_are_not_bisected(monkeypatch):
    keys = [(g, gp, threshold) for g, gp in _FLAT_POINTS for threshold in (1e-6, 1e-1)]
    cells = opt._cells([CouplingParams.symmetric(g, gp) for g, gp in _FLAT_POINTS], 20.0, [1e-6, 1e-1])
    # the bound A3 on |a3| puts every P3 within the tie band
    assert np.all(cells.bounds[4] ** 2 + 2.0 * cells.eps <= opt.P3_TIE_TOL)
    split = []
    bisect = opt._bisect
    monkeypatch.setattr(opt, "_bisect", lambda c, own, a, b: split.append(own.size) or bisect(c, own, a, b))
    res = [find_t0(CouplingParams.symmetric(g, gp), threshold, t_max=20.0) for g, gp, threshold in keys]
    assert not split
    # without the tie test the P3 sign tests, on values at rounding level,
    # fail on nodes, which are then bisected; with 1000 times the budget the
    # results tie, and the tie test's edge solves find the earliest feasible
    # time, where bisection stops within its slack of it
    derivative_bounds = opt._derivative_bounds

    def untied(*args):
        bounds = derivative_bounds(*args)
        bounds[4] = np.inf
        return bounds

    monkeypatch.setattr(opt, "_derivative_bounds", untied)
    monkeypatch.setattr(opt, "SPLIT_BUDGET", 1000 * opt.SPLIT_BUDGET)
    for (g, gp, threshold), a in zip(keys, res):
        b = find_t0(CouplingParams.symmetric(g, gp), threshold, t_max=20.0)
        assert a.feasible and b.feasible
        assert abs(a.p3 - b.p3) <= opt.P3_TIE_TOL
        assert -4 * opt._X_TOL * max(1.0, b.t0) <= b.t0 - a.t0 <= 1e-6

    assert split


# g' near Omega, where P3 rises above the tie band while a3's weights
# nearly cancel
_BEAT_POINTS = ((2.21924e-06, 1.01095), (2.677168e-06, 0.984526), (3.587587e-06, 0.999433),
                (6.947946e-06, 1.000701), (3.8566009e-05, 0.996903))


def test_results_near_resonance_do_not_depend_on_the_split_budget(monkeypatch):
    # the P3 sign tests resolve every node with the beat form of a3's
    # derivatives, so no result is decided by where bisection stops
    fields = ("feasible", "t0", "p1p2", "p3", "p4", "p1p2_bound")

    def run():
        return [np.array([getattr(find_t0(CouplingParams.symmetric(g, gp), threshold, t_max=20.0), f)
                          for f in fields], dtype=float).tobytes()
                for g, gp in _BEAT_POINTS for threshold in (1e-6, 1e-1)]

    ref = run()
    monkeypatch.setattr(opt, "SPLIT_BUDGET", 1000 * opt.SPLIT_BUDGET)
    assert run() == ref


def test_infeasible_results_carry_a_bound_above_their_threshold():
    infeasible = 0
    for g, gp in _PRUNED_POINTS:
        for threshold in (1e-6, 1e-3, 1e-1):
            res = find_t0(CouplingParams.symmetric(g, gp), threshold)
            assert 0.0 <= res.p1p2_bound <= res.p1p2
            if not res.feasible:
                infeasible += 1
                assert res.p1p2_bound > threshold
                # every interval that could hold a smaller residual was refined
                assert res.p1p2_bound >= res.p1p2 - 1e-10
    assert infeasible > 0


def test_known_red_pair_is_proven_infeasible():
    res = find_t0(CouplingParams.symmetric(2.95, 1.1), 1e-6, t_max=200.0)
    assert not res.feasible
    assert 4e-2 <= res.p1p2_bound <= res.p1p2
    # the torus has a zero here, but t (E1, E3) first comes close enough to
    # it after t = 296
    res = find_t0(CouplingParams.symmetric(0.25, 1.89), 1e-6, t_max=200.0)
    assert not res.feasible
    assert 1e-6 < res.p1p2_bound <= res.p1p2


@pytest.mark.parametrize("g,gp", [(0.0, 1.3), (1.0, 0.0), (0.5, 0.0), (0.0, 1.0), (0.0, 0.0)],
                         ids=("g=0", "g'=0", "g'=0-one-value", "E1=E3", "g=g'=0"))
def test_edge_cases_give_finite_scans_and_valid_bounds(g, gp, amplitude_rows):
    p = CouplingParams.symmetric(g, gp)
    m, e, n = _setup(p)
    assert 1 <= n <= 200.0 * np.sqrt(opt._step_curvature(p) / (8.0 * opt.SCAN_SLACK)) + 1
    assert np.isfinite(_scan(p)).all()
    times = np.linspace(0.0, 200.0, 400_001)[1:]
    p1, p2 = amplitude_rows(m, e, times)[0][:2] ** 2
    for threshold in (1e-6, 1e-1):
        res = find_t0(p, threshold)
        assert np.isfinite([res.t0, res.p1p2, res.p3, res.p4, res.p1p2_bound]).all()
        assert 0.0 <= res.p1p2_bound <= min(res.p1p2, np.min(p1 + p2))


def test_flat_curvature_bound_still_scans_two_samples(monkeypatch):
    # r is constant at g' = 0, so a zero curvature bound holds there
    monkeypatch.setattr(opt, "_step_curvature", lambda p: 0.0)
    p = CouplingParams.symmetric(1.0, 0.0)
    assert _setup(p)[2] == 1
    assert _scan(p).shape == (4, 2)
    res = find_t0(p, 1e-6)
    assert not res.feasible
    assert res.p1p2 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert 1.0 / 3.0 - 1e-10 <= res.p1p2_bound <= res.p1p2


@pytest.mark.parametrize("g_range,gp_range,steps", [
    ((0.05, 3.0), (0.05, 3.0), 30),
    ((0.0001, 0.3), (1.5, 1.7), (7, 41)),
    ((0.5, 0.5), (0.0001, 40.0), (1, 64)),
    *(((lo[0], lo[0] + w[0]), (lo[1], lo[1] + w[1]), (5, 9))
      for lo, w in zip(np.random.default_rng(7).uniform(0.0, 5.0, (4, 2)),
                       np.random.default_rng(8).uniform(0.0, 5.0, (4, 2)))),
])
def test_grid_corner_has_the_longest_scan(g_range, gp_range, steps):
    steps = (steps, steps) if np.ndim(steps) == 0 else steps
    g_values = np.linspace(g_range[0], g_range[1], steps[0])
    gp_values = np.linspace(gp_range[0], gp_range[1], steps[1])
    corner = _setup(CouplingParams.symmetric(g_range[1], gp_range[1]))[2]
    counts = [_setup(CouplingParams.symmetric(float(g), float(gp)))[2]
              for g in g_values for gp in gp_values]
    assert max(counts) == corner


def test_bisection_finds_a_dip_the_scan_misses(monkeypatch):
    # with an 8 times coarser step the node holding the feasible dip near
    # t = 16.1 is bisected before it is resolved; the result is the
    # production one within the Newton tolerance
    p = CouplingParams.symmetric(0.6, 1.37)
    ref = find_t0(p, 1e-6)
    split = []
    bisect = opt._bisect

    def recorded(c, own, a, b):
        split.append((a[0], b[0]))
        return bisect(c, own, a, b)

    monkeypatch.setattr(opt, "SCAN_SLACK", 64 * opt.SCAN_SLACK)
    monkeypatch.setattr(opt, "_bisect", recorded)
    res = find_t0(p, 1e-6)
    assert any(np.any((lo < 16.1) & (16.1 < hi)) for lo, hi in split)
    assert res.feasible
    assert abs(res.t0 - ref.t0) <= 4 * opt._X_TOL * ref.t0
    assert max(abs(res.p1p2 - ref.p1p2), abs(res.p3 - ref.p3), abs(res.p4 - ref.p4)) <= 1e-12


def test_a_feasible_midpoint_brackets_the_edges_on_both_sides(monkeypatch, amplitude_rows):
    p = CouplingParams.symmetric(0.6, 1.37)
    cells = opt._cells([p], 200.0, [1e-6])
    lo, hi = np.array([16.0]), np.array([16.2])
    t = opt._solve(opt._DIP, opt._ends(cells.q[:, [0]], lo)[:4], hi, cells.q[:, [0]], 0.5 * (lo + hi))[0, 0]
    # one node centred on the feasible minimum, both ends infeasible
    ends = np.array([t - 0.01, t + 0.01])
    p1, p2 = amplitude_rows(*sector_modes(p), ends)[0][:2] ** 2
    assert np.all(p1 + p2 > 1e-6)
    solved = []
    solve = opt._solve

    def recorded(kind, lo, hi, q, start):
        out = solve(kind, lo, hi, q, start)
        solved.append((kind, lo, hi, out))
        return out

    monkeypatch.setattr(opt, "_solve", recorded)
    node = _node_cells(cells, np.zeros(1, dtype=int), ends[:1], ends[1:])
    own, cand = opt._refine(node)
    (kind, lo, hi, dip), (_, inside, outside, edges) = solved[:2]
    # the node is resolved as it is: its dip, then an edge on each side
    assert kind == opt._DIP and lo[0].tolist() == [ends[0]] and hi.tolist() == [ends[1]]
    assert dip[1, 0] <= 1e-6 and abs(dip[0, 0] - t) <= 1e-9
    assert inside[0].tolist() == [dip[0, 0]] * 2 and outside.tolist() == ends.tolist()
    assert np.all(edges[1] <= 1e-6) and ends[0] < edges[0, 0] < t < edges[0, 1] < ends[1]
    assert np.all(np.isin(edges[0], cand[0]))


def test_an_infeasible_bump_between_feasible_ends_is_split(monkeypatch, amplitude_rows):
    # r is concave around its local maximum near t = 10; a threshold just
    # below that maximum leaves a node with feasible ends around an
    # infeasible bump, which no end sign reveals
    p = CouplingParams.symmetric(0.6, 1.37)
    times = np.linspace(9.0, 11.0, 20_001)
    p1, p2 = amplitude_rows(*sector_modes(p), times)[0][:2] ** 2
    k = np.argmax(p1 + p2)
    assert 0 < k < times.size - 1
    t, threshold = times[k], (p1 + p2)[k] - 1e-4
    ends = np.array([t - 0.05, t + 0.05])
    p1, p2 = amplitude_rows(*sector_modes(p), ends)[0][:2] ** 2
    assert np.all(p1 + p2 <= threshold)
    edges = []
    solve = opt._solve

    def recorded(kind, lo, hi, q, start):
        out = solve(kind, lo, hi, q, start)
        if kind == opt._EDGE:
            edges.append(out)
        return out

    monkeypatch.setattr(opt, "_solve", recorded)
    # with no P3 floor, which would drop the halves here
    cells = opt._cells([p], 200.0, [threshold])
    opt._refine(_node_cells(cells, np.zeros(1, dtype=int), ends[:1], ends[1:], floor=np.full(1, -np.inf)))
    edges = np.concatenate(edges, axis=1)
    assert np.all(edges[1] <= threshold)
    assert np.sum(edges[0] < t) == np.sum(edges[0] > t) == 1


def test_flat_series_keep_one_bracket_per_plateau(monkeypatch):
    thresholds = [1e-6, 1e-1]
    # g' = 0: r is constant up to rounding (at g = 1 it wobbles by about
    # 3e-16 around 1/3); both thresholds together keep at most 1 % of the
    # samples as nodes
    for g in (0.5, 1.0):
        p = CouplingParams.symmetric(g, 0.0)
        n = _setup(p)[2] + 1
        assert opt._cells([p], 200.0, thresholds).node_own.size <= 0.01 * n
    # g = 0: P3 is flat at 0, so it is convex everywhere and no maximum of P3
    # is solved
    kinds = []
    solve = opt._solve
    monkeypatch.setattr(opt, "_solve", lambda kind, *args: kinds.append(kind) or solve(kind, *args))
    for threshold in thresholds:
        assert find_t0(CouplingParams.symmetric(0.0, 1.0), threshold).feasible
    assert opt._EDGE in kinds and opt._P3MAX not in kinds


def test_oversized_scans_are_rejected_before_allocation(forbid_large_grids):
    big = CouplingParams.symmetric(1000.0, 1.0)  # 4.5e6 samples at t_max = 200
    with pytest.raises(ValueError, match="samples"):
        find_t0(big, 1e-6)
    with pytest.raises(ValueError, match="samples"):
        sweep((0.5, 1000.0), (0.5, 1.0), 2, [6])
    with pytest.raises(ValueError, match="samples"):
        find_t0(CouplingParams.symmetric(0.6, 1.37), 1e-6, t_max=1e9)


def test_oversized_sweeps_are_rejected_before_allocation(forbid_large_grids):
    with pytest.raises(ValueError, match="cell results"):
        sweep((0.1, 1.0), (0.1, 1.0), (10**12, 2), [6])
    with pytest.raises(ValueError, match="cell results"):
        sweep((0.1, 1.0), (0.1, 1.0), (200, 200), [6, 1])


def test_unresolvable_phases_are_rejected():
    p = CouplingParams.symmetric(0.6, 1.37)
    with pytest.raises(ValueError, match="2\\^32"):
        find_t0(p, 1e-6, t_max=1e300)
    with pytest.raises(ValueError, match="2\\^32"):
        sweep((0.5, 1.0), (0.5, 1.0), 2, [6], t_max=1e300)
