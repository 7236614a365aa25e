import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest

import squidcavity.optimize as opt
from squidcavity import _kernels
from squidcavity.dynamics import amplitudes, evolve, probabilities, sector_modes
from squidcavity.linalg import propagator_oracle
from squidcavity.model import CouplingParams, build_h_full, dark_state_full
from squidcavity.optimize import emit_fig4_traces, find_t0, sweep

PAPER_PAIRS = ((0.25, 1.89), (2.95, 1.10), (0.60, 1.37))


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


@pytest.mark.parametrize("hide", [False, True], ids=("scan", "every-second-dip-hidden"))
def test_sweep_single_cell_matches_find_t0(monkeypatch, hide):
    exps = [6, 3, 1]
    if hide:
        found = []
        # hide every second 3-point minimum of r from the scan, so that
        # bisection must find those dips again, at every threshold
        peaks, split = opt._peaks, opt._split

        def counted_split(cells):
            before = sum(c.dip_lo.size for c in cells)
            split(cells)
            found.append(sum(c.dip_lo.size for c in cells) - before)

        monkeypatch.setattr(opt, "_peaks", lambda x, minima=False: peaks(x, minima)[::2] if minima else peaks(x))
        monkeypatch.setattr(opt, "_split", counted_split)
    # rows of 9 cells; (0.6, 1.37) is among them
    grids = sweep((0.3, 0.9), (0.87, 1.87), (3, 9), exps, t_max=200.0)
    if hide:
        assert sum(found) > 0
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


def test_sweep_reports_each_row_part_after_refining_it(monkeypatch):
    # progress fires once per point, and only after the whole row part that
    # holds the point is refined: the gaps between callbacks then time rows
    events = []
    row = opt._row

    def recorded(*args):
        events.append("row")
        return row(*args)

    monkeypatch.setattr(opt, "_row", recorded)
    sweep((0.5, 1.0), (0.5, 1.0), (3, 2), [2, 4], t_max=30.0, progress=events.append)
    assert events == ["row", 1, 2, "row", 3, 4, "row", 5, 6]


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


@pytest.mark.parametrize("g,gp", _BRUTE_POINTS, ids=lambda v: f"{v:g}")
def test_find_t0_beats_brute_force_on_a_finer_grid(g, gp, amplitude_rows):
    p = CouplingParams.symmetric(g, gp)
    m, e = sector_modes(p)
    step = 0.0025 / max(1.0, g, gp)
    times = np.linspace(0.0, 200.0, int(np.ceil(200.0 / step)) + 1)[1:]
    p1, p2, p3, _ = amplitude_rows(m, e, times)[0] ** 2
    h, d0 = build_h_full(p), dark_state_full(p)
    for threshold in (1e-6, 1e-3, 1e-1):
        res = find_t0(p, threshold)
        # the certificate bounds r from below, also between these samples
        assert res.p1p2_bound <= res.p1p2
        assert res.p1p2_bound <= np.min(p1 + p2)
        feasible = p1 + p2 <= threshold
        if feasible.any():
            assert res.feasible
            assert res.p3 >= np.max(p3[feasible]) - 1e-9
        if res.feasible:
            q1, q2, q3, _ = probabilities(amplitudes(propagator_oracle(h, res.t0) @ d0))
            assert q1 + q2 <= threshold + 1e-12
            assert abs(q3 - res.p3) <= 1e-9


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
    m, e, n = opt._scan_setup(p, 200.0)
    pts = opt._scan(p, 200.0)[2]
    times = np.linspace(0.0, 200.0, n + 1)
    times[0] = opt._T_FLOOR
    probs = _kernels.grid_probs(m, e, 200.0, n + 1)
    assert np.array_equal(pts[0], times)
    assert np.array_equal(pts[1], probs[0] + probs[1])
    assert np.array_equal(pts[2:], probs[2:])


@pytest.mark.parametrize("threshold", [1e-6, 1e-1])
@pytest.mark.parametrize("g,gp", [(0.6, 1.37), (2.95, 1.10)])
def test_find_t0_peak_memory_is_bounded_by_the_point_table(g, gp, threshold):
    p = CouplingParams.symmetric(g, gp)
    table = 32 * (opt._scan_setup(p, 200.0)[2] + 1)  # 4 float64 rows of n + 1 samples
    tracemalloc.start()
    try:
        find_t0(p, threshold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * table


def test_sweep_peak_memory_is_bounded_by_one_point_table():
    # g' = 2 has the longest scan of the row
    table = 32 * (opt._scan_setup(CouplingParams.symmetric(0.6, 2.0), 200.0)[2] + 1)
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


def test_sweep_memory_does_not_grow_with_row_length():
    peaks = []
    for n in (opt._ROW_CELLS, 4 * opt._ROW_CELLS):
        tracemalloc.start()
        try:
            sweep((1.0, 1.0), (0.5, 1.0), (1, n), [6, 1], t_max=20.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # only the results grow; every cell's brackets held at once would not fit
    assert peaks[1] <= 1.5 * peaks[0]


# at least 10 cells, with g' = 0 and E1 = E3 among them
_BATCH_POINTS = (
    *PAPER_PAIRS,
    (1.5, 0.7),
    (1.0, 0.0),
    (0.0, 1.0),
    *(tuple(pt) for pt in np.random.default_rng(20261019).uniform(0.05, 3.0, (9, 2)).round(6)),
)


def _edge_pairs(r, threshold):
    """The feasible and the infeasible sample of each pair of neighbours
    on either side of ``threshold``."""
    feas = r <= threshold
    cut = np.flatnonzero(feas[:-1] != feas[1:])
    return cut + ~feas[cut], cut + feas[cut]


def _scan_brackets(times, x, idx):
    """The brackets around samples ``idx`` of x and the Newton starts in
    them, as a cell holds them."""
    around = opt._around(idx, times.size - 1)
    return opt._bracket(idx, times[around], x[around])


def _refine(kind, cells, lo, hi, start=None):
    """The points equation ``kind`` refines in brackets [lo, hi] of the
    first cell of ``cells``."""
    if not lo.size:
        return np.empty((4, 0))
    return opt._solve(kind, lo, hi, opt._columns(kind, cells)[:, np.zeros(lo.size, dtype=int)], start)


def test_bracket_evaluation_is_independent_of_batch_size():
    thresholds = [1e-6, 1e-1]
    params = [CouplingParams.symmetric(g, gp) for g, gp in _BATCH_POINTS]
    cells = opt._cells(params, 200.0, thresholds)
    modes = [sector_modes(p) for p in params]
    # every bracket of the scan before pruning, as (cell, lo, hi) per
    # equation: its 3-point dips of r and maxima of P3, and its pairs of
    # feasible and infeasible neighbours at each threshold (cell 2 i + j is
    # threshold j of point i)
    pools = {opt._DIP: [], opt._EDGE: [], opt._P3MAX: []}
    for i, p in enumerate(params):
        times, r, p3 = opt._scan(p, 200.0)[2][:3]
        pools[opt._DIP].append((2 * i, *_scan_brackets(times, r, opt._peaks(r, minima=True))[:2]))
        pools[opt._P3MAX].append((2 * i, *_scan_brackets(times, p3, opt._peaks(p3))[:2]))
        for j, threshold in enumerate(thresholds):
            inside, outside = _edge_pairs(r, threshold)
            pools[opt._EDGE].append((2 * i + j, times[inside], times[outside]))
    rng = np.random.default_rng(5)
    for kind, pool in pools.items():
        # 1,000 brackets, each from a group drawn uniformly
        pool = [group for group in pool if group[1].size]
        picks = [pool[k] for k in rng.integers(len(pool), size=1000)]
        at = [rng.integers(lo.size) for _, lo, _ in picks]
        cell = np.array([o for o, _, _ in picks])
        owner = cell // 2
        lo, hi = (np.array([g[j][k] for g, k in zip(picks, at)]) for j in (1, 2))
        assert np.unique(owner).size >= 10
        q = opt._columns(kind, cells)[:, cell]
        batch = opt._solve(kind, lo, hi, q)
        weights = np.stack([_kernels.derivative_weights(*modes[i]) for i in owner], axis=-1)
        freqs = np.stack([modes[i][1] for i in owner], axis=-1)
        rows = _kernels.derivative_rows(weights, freqs, lo)
        for j in range(0, 1000, 25):
            alone = opt._solve(kind, lo[j:j + 1], hi[j:j + 1], q[:, j:j + 1])
            assert np.array_equal(alone[:, 0], batch[:, j])
            e = modes[owner[j]][1]
            assert np.array_equal(_kernels.derivative_rows(weights[..., j], e, lo[j]), rows[..., j])


_PRUNED_POINTS = (*PAPER_PAIRS, *np.random.default_rng(20261020).uniform(0.05, 3.0, (20, 2)).round(6))


def _left_out(lo, hi, kept_lo, kept_hi):
    """Which brackets [lo, hi] a cell does not hold."""
    kept = set(zip(kept_lo.tolist(), kept_hi.tolist()))
    return np.array([pair not in kept for pair in zip(lo.tolist(), hi.tolist())], dtype=bool)


@pytest.mark.parametrize("threshold", [1e-6, 1e-1])
def test_pruned_dips_refine_above_threshold_and_best_sample(threshold):
    pruned = {"curvature": 0, "P3 dips": 0, "P3 peaks": 0, "edges": 0}
    for g, gp in _PRUNED_POINTS:
        p = CouplingParams.symmetric(g, gp)
        cell = opt._cells([p], 200.0, [threshold])
        res = find_t0(p, threshold)
        # a candidate left out by the P3 floor lies below the winner's tie band
        below = res.p3 - opt.P3_TIE_TOL
        times, r, p3 = opt._scan(p, 200.0)[2][:3]
        idx = opt._peaks(r, minima=True)
        lo, hi, _ = _scan_brackets(times, r, idx)
        # every 3-point dip, refined by the same solve without pruning
        dips = _refine(opt._DIP, cell, lo, hi)
        out = _left_out(lo, hi, cell.dip_lo, cell.dip_hi)
        assert out.sum() == lo.size - cell.dip_lo.size
        # each dip left out is left out by exactly one rule: the curvature
        # rule, which never drops the first dip of smallest r, or the P3 floor
        by_curvature = r[idx] - cell.slack[0] > cell.level[0]
        by_curvature[np.argmin(r[idx])] = False
        assert not np.any(by_curvature & ~out)
        by_p3 = out & ~by_curvature
        assert np.all(dips[1, by_curvature] > max(threshold, r.min()))
        assert np.all(dips[2, by_p3] < below)
        pruned["curvature"] += by_curvature.sum()
        pruned["P3 dips"] += by_p3.sum()
        if not res.feasible:
            assert not by_p3.any()
            continue
        # every feasible 3-point maximum of P3 and edge pair, and the points
        # the row would refine in them
        peak = opt._peaks(p3)
        peak = peak[r[peak] <= threshold]
        lo, hi, x0 = _scan_brackets(times, p3, peak)
        maxima = _refine(opt._P3MAX, cell, lo, hi, x0)
        out = _left_out(lo, hi, cell.peak_lo, cell.peak_hi)
        assert out.sum() == lo.size - cell.peak_lo.size
        assert np.all(p3[peak[out]] < below) and np.all(maxima[2, out] < below)
        pruned["P3 peaks"] += out.sum()
        inside, outside = _edge_pairs(r, threshold)
        x0 = opt._secant(times[inside], r[inside], times[outside], r[outside], threshold)
        edges = _refine(opt._EDGE, cell, times[inside], times[outside], x0)
        maxima = _refine(opt._P3MAX, cell, np.minimum(times[inside], edges[0]), np.maximum(times[inside], edges[0]))
        out = _left_out(times[inside], times[outside], cell.edges[0], cell.edge_out)
        assert out.sum() == inside.size - cell.edge_out.size
        assert np.all(p3[inside[out]] < below) and np.all(edges[2, out] < below) and np.all(maxima[2, out] < below)
        pruned["edges"] += out.sum()
    assert pruned["curvature"] > 0
    if threshold == 1e-1:
        assert min(pruned.values()) > 0


# P3 stays below about 2e-9 here, so at 1e-1 the tie band P3_TIE_TOL holds
# candidates far apart in t and decides t0
_TIED_POINT = ((1e-4, 0.21),)


def test_p3_pruning_changes_no_result(monkeypatch):
    fields = ("feasible", "t0", "p1p2", "p3", "p4", "p1p2_bound")
    solve = opt._solve
    brackets = [0]

    def counted(kind, lo, hi, q, start=None):
        brackets[0] += lo.size
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


@pytest.mark.parametrize("g,gp", [(0.0, 1.3), (1.0, 0.0), (0.5, 0.0), (0.0, 1.0), (0.0, 0.0)],
                         ids=("g=0", "g'=0", "g'=0-one-value", "E1=E3", "g=g'=0"))
def test_edge_cases_give_finite_scans_and_valid_bounds(g, gp, amplitude_rows):
    p = CouplingParams.symmetric(g, gp)
    m, e, n = opt._scan_setup(p, 200.0)
    assert 1 <= n <= 200.0 * np.sqrt(opt._step_curvature(p) / (8.0 * opt.SCAN_SLACK)) + 1
    assert np.isfinite(opt._scan(p, 200.0)[2]).all()
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
    assert opt._scan_setup(p, 200.0)[2] == 1
    assert opt._scan(p, 200.0)[2].shape == (4, 2)
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
    corner = opt._scan_setup(CouplingParams.symmetric(g_range[1], gp_range[1]), 200.0)[2]
    counts = [opt._scan_setup(CouplingParams.symmetric(float(g), float(gp)), 200.0)[2]
              for g in g_values for gp in gp_values]
    assert max(counts) == corner


def test_bisection_finds_a_dip_the_scan_misses(monkeypatch):
    # hide the feasible dip near t = 16.1 from the scan: bisecting the open
    # intervals around it must find it again, with the same result
    p = CouplingParams.symmetric(0.6, 1.37)
    ref = find_t0(p, 1e-6)
    times = opt._scan(p, 200.0)[2][0]
    real = opt._peaks

    def hidden(x, minima=False):
        idx = real(x, minima)
        return idx[np.abs(times[idx] - 16.1) > 0.1] if minima else idx

    monkeypatch.setattr(opt, "_peaks", hidden)
    cell = opt._cells([p], 200.0, [1e-6])
    scanned = cell.dip_lo.size
    opt._split([cell])
    assert cell.dip_lo.size > scanned
    assert np.all(np.abs(cell.dip_lo[scanned:] - 16.1) < 0.2)
    assert dataclasses.astuple(find_t0(p, 1e-6)) == dataclasses.astuple(ref)


def test_a_feasible_midpoint_brackets_the_edges_on_both_sides(amplitude_rows):
    p = CouplingParams.symmetric(0.6, 1.37)
    cell = opt._cells([p], 200.0, [1e-6])
    near = np.abs(cell.dip_lo - 16.1) < 0.1
    dip = _refine(opt._DIP, cell, cell.dip_lo[near], cell.dip_hi[near])
    t = dip[0, np.argmin(dip[1])]
    # one open interval centred on the feasible minimum, both ends infeasible
    ends = np.array([t - 0.01, t + 0.01])
    p1, p2 = amplitude_rows(*sector_modes(p), ends)[0][:2] ** 2
    assert np.all(p1 + p2 > 1e-6)
    cell.open, cell.open_own = np.concatenate((ends, p1 + p2))[:, None], np.zeros(1, dtype=int)
    before, dips = cell.edge_out.size, cell.dip_lo.size
    opt._split([cell])
    assert cell.dip_lo[dips:].tolist() == [ends[0]] and cell.dip_hi[dips:].tolist() == [ends[1]]
    inside, outside = cell.edges, cell.edge_out
    assert outside[before:].tolist() == ends.tolist()
    assert np.all(inside[1, before:] <= 1e-6)
    starts = cell.edge_x0[before:]
    assert ends[0] < starts[0] < inside[0, before] < starts[1] < ends[1]
    edges = _refine(opt._EDGE, cell, inside[0, before:], outside[before:], starts)
    assert np.all(edges[1] <= 1e-6) and edges[0, 0] < t < edges[0, 1]


def test_flat_series_keep_one_bracket_per_plateau():
    thresholds = [1e-6, 1e-1]
    # g' = 0: r is constant up to rounding; at g = 0.5 it has one value
    cells = opt._cells([CouplingParams.symmetric(0.5, 0.0)], 200.0, thresholds)
    assert np.bincount(cells.dip_own, minlength=2).tolist() == [1, 1]
    # g = 0: P3 is flat at 0 from t = 0 on, where r = 1 is infeasible
    cells = opt._cells([CouplingParams.symmetric(0.0, 1.0)], 200.0, thresholds)
    assert cells.peak_lo.size == 0
    # at g = 1 r wobbles by about 3e-16 around 1/3; both thresholds together
    # keep at most 1 % of the samples as dips
    p = CouplingParams.symmetric(1.0, 0.0)
    n = opt._scan_setup(p, 200.0)[2] + 1
    assert opt._cells([p], 200.0, thresholds).dip_lo.size <= 0.01 * n


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
