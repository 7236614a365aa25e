"""Measurement-time optimization and (g, g') feasibility sweeps.

The entanglement condition P1(t0) = P2(t0) = 0 is operationalized as
P1 + P2 <= threshold.  Within the feasible set the target-state
probability P3 is maximized: a dense deterministic scan brackets every
candidate and one safeguarded Newton solve per equation on the
closed-form derivatives refines them, for all cells of a sweep row at
once; infeasible cells are first-class results carrying the best residual
found.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import DEFAULT_N_STEPS, DEFAULT_T_MAX, MAX_SAMPLES, sector_modes, trace
from .dynamics import _check_phase, _check_t_max
from .model import CouplingParams

SCAN_STEP_BASE = 0.01
P3_TIE_TOL = 1e-9
_T_FLOOR = 1e-12
_X_TOL = 1e-12
_MAX_ITER = 100
# equations a solve can carry: r' = 0, r = level, P3' = 0
_DIP, _EDGE, _P3MAX = 0, 1, 2
# rows of _kernels.derivative_weights each equation reads: a1..a4, then
# a1', a2' and a1'', a2'' for a dip, a1', a2' for an edge, a3' and a3''
# for a maximum of P3
_ROWS = ([0, 1, 2, 4], [0, 1, 2], [0, 1, 3, 5])
# Most sweep results (cells x threshold exponents) held in memory
MAX_CELLS = 2**16
# Most cells of a row refined together: a cell's brackets take about 130 kB
# at t_max = 200, so a 1 x 32768 grid cannot hold gigabytes
_ROW_CELLS = 64


@dataclass(frozen=True)
class OptimizeResult:
    """Best measurement time for one parameter point and threshold.

    For infeasible points ``t0`` is the time of the smallest residual
    found and ``feasible`` is False.
    """

    params: object
    threshold: float
    t_max: float
    feasible: bool
    t0: float
    p1p2: float
    p3: float
    p4: float

    @property
    def pi_over_gprime(self):
        return np.pi / self.params.g_prime if self.params.g_prime > 0 else np.inf

    @property
    def pi_over_2gprime(self):
        return self.pi_over_gprime / 2.0


@dataclass(frozen=True)
class SweepGrid:
    """Per-threshold grid of OptimizeResults, indexed [i_g][i_gprime]."""

    g_values: np.ndarray
    gprime_values: np.ndarray
    threshold_exponent: int
    cells: tuple


@dataclass(frozen=True)
class Fig4Trace:
    """Evolution trace plus the annotated optimal measurement time and its
    offsets from the result's pi/g' and pi/(2 g')."""

    trace: object
    result: OptimizeResult

    @property
    def pi_over_gprime(self):
        return self.result.pi_over_gprime

    @property
    def pi_over_2gprime(self):
        return self.result.pi_over_2gprime

    @property
    def dev_pi_over_gprime(self):
        return abs(self.result.t0 - self.pi_over_gprime)

    @property
    def dev_pi_over_2gprime(self):
        return abs(self.result.t0 - self.pi_over_2gprime)


def _scan_setup(p, t_max):
    """Modes and scan length for one point.  Rejects a phase E1*t_max that
    double precision cannot resolve and a scan longer than MAX_SAMPLES."""
    m, e = sector_modes(p)
    _check_phase(e, t_max)
    step = SCAN_STEP_BASE / max(1.0, p.g1, p.g_prime)
    n = int(np.ceil(t_max / step))
    if n > MAX_SAMPLES:
        raise ValueError(f"the scan needs {n} samples, more than {MAX_SAMPLES}: lower t_max")
    return m, e, n


def _scan(p, t_max):
    """Dense deterministic scan over [_T_FLOOR, t_max].

    Returns ``(m, e, pts)``: the modes and a point table with rows
    t, r = P1 + P2, P3, P4.
    """
    m, e, n = _scan_setup(p, t_max)
    times = np.linspace(0.0, t_max, n + 1)
    # rows P1..P4 become t, r, P3, P4 in place; the times then live in row 0 only
    pts = _kernels.grid_probs(m, e, t_max, n + 1)
    pts[1] += pts[0]
    pts[0] = times
    pts[0, 0] = min(_T_FLOOR, pts[0, 1])
    return m, e, pts


def _peaks(x, minima=False):
    """Indices of the 3-point maxima of x, or with ``minima`` its 3-point
    minima: samples that tie or beat their right neighbour and strictly
    beat their left one (a missing neighbour never wins), so a tied plateau
    counts once, at its first sample."""
    ties, beats = (np.less_equal, np.less) if minima else (np.greater_equal, np.greater)
    ok = np.empty(x.size, dtype=bool)
    ties(x[:-1], x[1:], out=ok[:-1])
    ok[-1] = True
    ok[1:] &= beats(x[1:], x[:-1])
    return np.flatnonzero(ok)


def _around(times, idx):
    """Bracket [t_{i-1}, t_{i+1}] around samples idx, clipped to the grid.

    Every probability is even in t, so t = 0 is an exact critical point: the
    first sample gets the empty bracket [t_0, t_0] and stays as sampled.
    """
    hi = np.where(idx > 0, np.minimum(idx + 1, times.size - 1), 0)
    return times[np.maximum(idx - 1, 0)], times[hi]


def _curvature_bound(d):
    """L2 >= |r''| everywhere, for r = a1^2 + a2^2, from the weights ``d``
    of ``_kernels.derivative_weights``.

    r'' = 2 (a1'^2 + a1 a1'' + a2'^2 + a2 a2''), and a row's sum of |weights|,
    sum_j |w_kj| E_j^i for its derivative i, bounds its magnitude.
    """
    c, s = np.abs(d).sum(axis=2).tolist()
    return 2.0 * (s[2] * s[2] + c[0] * c[4] + c[2] * c[2] + s[0] * s[4])


@dataclass(frozen=True)
class _Cell:
    """What refinement and selection read of one point's scan.

    ``modes[kind]`` holds the weights and frequencies every bracket of
    equation ``kind`` carries (see ``_equation``); ``best`` is the sample of
    smallest r; the dips are the 3-point minima of r that the curvature
    bound keeps, with their brackets and sampled r; ``peaks`` are the
    3-point maxima of P3 feasible at the largest threshold, with their
    brackets; ``edges`` holds per threshold the feasible samples next to an
    infeasible one and the times of those infeasible neighbours.
    """

    p: object
    modes: tuple
    best: np.ndarray
    dip_lo: np.ndarray
    dip_hi: np.ndarray
    dip_r: np.ndarray
    peaks: np.ndarray
    peak_lo: np.ndarray
    peak_hi: np.ndarray
    edges: tuple


def _cell(p, t_max, thresholds):
    """Scan one point and cut its point table down to a ``_Cell``."""
    m, e, pts = _scan(p, t_max)
    times, r, p3 = pts[0], pts[1], pts[2]
    d = _kernels.derivative_weights(m, e)
    h = t_max / (times.size - 1)
    dip = _peaks(r, minima=True)
    dip_r = r[dip]
    # the first sample of smallest r is the first dip of smallest r
    best = pts[:, dip[np.argmin(dip_r)]].copy()
    top = max(thresholds)
    # |t* - t_i| <= h at a dip's minimum t*, so r(t*) >= r(t_i) - L2 h^2 / 2:
    # a dip sampled above this cap refines above both the largest threshold
    # and the best sample, and can be neither feasible nor the best residual
    keep = dip_r <= max(top, best[1]) + 0.5 * _curvature_bound(d) * h * h
    dip, dip_r = dip[keep], dip_r[keep]
    peak = _peaks(p3)
    peak = peak[r[peak] <= top]
    edges = []
    for threshold in thresholds:
        feas = r <= threshold
        cut = np.flatnonzero(feas[:-1] != feas[1:])
        inside = np.where(feas[cut], cut, cut + 1)
        edges.append((pts[:, inside], times[np.where(feas[cut], cut + 1, cut)]))
    return _Cell(
        p, tuple(np.concatenate((d[:, rows].ravel(), e)) for rows in _ROWS), best,
        *_around(times, dip), dip_r, pts[:, peak], *_around(times, peak), tuple(edges),
    )


def _equation(kind, q, t):
    """f and f' of equation ``kind`` at t, and the point table there.

    Column j of ``q`` holds the weights of the ``_ROWS[kind]`` rows of
    ``_kernels.derivative_weights``, the frequencies and the level of time
    t[..., j].  The signs make a wanted root an upward crossing: r' for a
    minimum of r, r - level for an edge whose feasible end is ``lo``, -P3'
    for a maximum.
    """
    nw = 4 * len(_ROWS[kind])
    c, s = _kernels.derivative_rows(q[:nw].reshape((2, -1, 2) + q.shape[1:]), q[nw:nw + 2], t)
    # c[0], s[0], c[1], s[1] are a1..a4; rows 2 and 3 hold the derivatives
    # the equation reads (see _ROWS)
    pts = np.empty((4,) + c.shape[1:])
    pts[0] = t
    r = np.add(c[0] * c[0], s[0] * s[0], out=pts[1])
    np.multiply(c[1], c[1], out=pts[2])
    np.multiply(s[1], s[1], out=pts[3])
    if kind == _P3MAX:
        f, df = -2.0 * c[1] * s[2], -2.0 * (s[2] * s[2] + c[1] * c[3])
    else:
        dr = 2.0 * (c[0] * s[2] + s[0] * c[2])
        if kind == _DIP:
            f, df = dr, 2.0 * (s[2] * s[2] + c[0] * c[3] + c[2] * c[2] + s[0] * s[3])
        else:
            f, df = r - q[nw + 2], dr
    return f, df, pts


def _solve(kind, lo, hi, q):
    """One root of equation ``kind`` per bracket [lo, hi] by bracketed
    Newton (rtsafe), one kernel call per iteration over all open brackets;
    column j of ``q`` is bracket j's modes and level (see ``_equation``).

    A Newton step leaving the bracket, or not halving the previous step,
    bisects instead (one landing on an end is kept).  A step below the
    tolerance 1e-12 max(1, t) is pushed that far past the root and ends the
    solve.  The result is the last point evaluated with f <= 0, so an edge
    is feasible under the same closed form; a bracket without the sign
    change f(lo) <= 0 < f(hi) returns its midpoint.  Every bracket's result
    depends on that bracket alone.  Returns the point table; ``lo`` must
    not be empty.
    """
    mid = 0.5 * (lo + hi)
    f, df, pts = _equation(kind, q[:, None], np.stack((lo, hi, mid)))
    idx = np.flatnonzero((f[0] <= 0.0) & (f[1] > 0.0))
    out = pts[:, 2].copy()
    out[:, idx] = pts[:, 0, idx]
    a, b, x, step = lo[idx], hi[idx], mid[idx], np.abs(hi - lo)[idx]
    f, df, pts, q = f[2, idx], df[2, idx], pts[:, 2, idx], q[:, idx]
    final = np.zeros(idx.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            neg = f <= 0.0
            a, b = np.where(neg, x, a), np.where(neg, b, x)
            out[:, idx[neg]] = pts[:, neg]
            tol = _X_TOL * np.maximum(1.0, np.abs(x))
            go = ~final & (np.abs(b - a) > tol)
            if not go.any():
                break
            if not go.all():
                idx, a, b, x, step, f, df, tol = (v[go] for v in (idx, a, b, x, step, f, df, tol))
                q = q[:, go]
            d = f / df
            c = 0.5 * (a + b)
            final = np.abs(d) <= tol
            # a converged step goes on by tol toward the other end, past the root
            xn = x - d + np.where(final, np.copysign(tol, c - x), 0.0)
            inside = (xn >= np.minimum(a, b)) & (xn <= np.maximum(a, b))
            bis = ~inside | (~final & (np.abs(2.0 * d) > step))
            xn = np.where(bis, c, xn)
            final &= ~bis
            step = np.abs(xn - x)
            x = xn
            f, df, pts = _equation(kind, q, x)
    return out


def _solve_groups(kind, groups):
    """One ``_solve`` over groups ``(cell, lo, hi, level)``, whose brackets
    carry their cell's modes; returns one point table per group."""
    sizes = [lo.size for _, lo, _, _ in groups]
    if not any(sizes):
        return [np.empty((4, 0))] * len(groups)
    table = np.empty((groups[0][0].modes[kind].size + 1, len(groups)))
    for j, (c, _, _, level) in enumerate(groups):
        table[:-1, j] = c.modes[kind]
        table[-1, j] = level
    q = np.repeat(table, sizes, axis=1)
    lo = np.concatenate([lo for _, lo, _, _ in groups])
    hi = np.concatenate([hi for _, _, hi, _ in groups])
    out = _solve(kind, lo, hi, q)
    ends = np.cumsum(sizes).tolist()
    return [out[:, a:b] for a, b in zip([0] + ends, ends)]


def _result(p, threshold, t_max, feasible, row):
    t0, p1p2, p3, p4 = map(float, row)
    return OptimizeResult(p, threshold, t_max, feasible, t0, p1p2, p3, p4)


def _row(params, thresholds, t_max):
    """Results [cell][threshold] for one row of points.

    The points are scanned in turn, each cut down to a ``_Cell`` before the
    next is scanned, so one point table lives at a time.  Then each equation
    is solved once for the whole row:

    - r' = 0 for the dips of r;
    - r = threshold for the edges between feasible and infeasible
      neighbours, and on both sides of each feasible dip that falls between
      infeasible samples;
    - P3' = 0 next to feasible 3-point maxima of P3, and between each edge
      and the feasible end of its bracket.
    """
    cells = [_cell(p, t_max, thresholds) for p in params]
    dips = _solve_groups(_DIP, [(c, c.dip_lo, c.dip_hi, 0.0) for c in cells])
    # one plan per result, cell-major
    plans = [(c, d, k, threshold) for c, d in zip(cells, dips) for k, threshold in enumerate(thresholds)]
    edge_groups = []
    for c, d, k, threshold in plans:
        narrow = (d[1] <= threshold) & (c.dip_r > threshold)
        inside, outside = c.edges[k]
        edge_groups.append((
            c,
            np.concatenate((inside[0], d[0, narrow], d[0, narrow])),
            np.concatenate((outside, c.dip_lo[narrow], c.dip_hi[narrow])),
            threshold,
        ))
    edges = _solve_groups(_EDGE, edge_groups)
    max_groups = []
    for (c, edge_lo, _, threshold), edge in zip(edge_groups, edges):
        peak = c.peaks[1] <= threshold
        max_groups.append((
            c,
            np.concatenate((c.peak_lo[peak], np.minimum(edge_lo, edge[0]))),
            np.concatenate((c.peak_hi[peak], np.maximum(edge_lo, edge[0]))),
            threshold,
        ))
    maxima = _solve_groups(_P3MAX, max_groups)
    results = [
        _select(*plan, t_max, edge, peak_max) for plan, edge, peak_max in zip(plans, edges, maxima)
    ]
    n = len(thresholds)
    return [results[i:i + n] for i in range(0, len(results), n)]


def _select(c, dips, k, threshold, t_max, edges, maxima):
    """Result ``k`` of one cell, at ``threshold``, from its refined points."""
    dip_feas = dips[1] <= threshold
    if c.best[1] > threshold and not dip_feas.any():
        # infeasible: report the smallest residual seen
        best = c.best
        if dips.size and dips[1].min() < best[1]:
            best = dips[:, np.argmin(dips[1])]
        return _result(c.p, threshold, t_max, False, best)
    # the feasible samples bracketing maxima and edges stay candidates too
    cand = np.hstack((c.peaks[:, c.peaks[1] <= threshold], c.edges[k][0], dips[:, dip_feas], edges, maxima))
    cand = cand[:, cand[1] <= threshold]
    near = cand[2] >= cand[2].max() - P3_TIE_TOL
    return _result(c.p, threshold, t_max, True, cand[:, near][:, np.argmin(cand[0, near])])


def _check_threshold(threshold):
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")


def find_t0(p, threshold, t_max=DEFAULT_T_MAX):
    """Best measurement time under the entanglement-condition threshold."""
    _check_threshold(threshold)
    _check_t_max(t_max)
    return _row([p], [threshold], t_max)[0][0]


def sweep(
    g_range,
    gprime_range,
    steps,
    threshold_exponents,
    t_max=DEFAULT_T_MAX,
    progress=None,
):
    """One SweepGrid per threshold exponent over a (g, g') grid.

    ``steps`` is an int (same count per axis) or a pair of ints, and each
    range a pair (low, high).  Each cell is one scan shared by all
    thresholds, and each of its results equals find_t0 at that threshold.
    The cells of a row, up to _ROW_CELLS at a time, are refined together;
    ``progress(done)`` is called once per cell after its row part.  Grids
    over MAX_CELLS cell results are rejected.
    """
    try:
        steps = tuple(map(operator.index, (steps, steps) if np.ndim(steps) == 0 else steps))
    except TypeError:
        raise ValueError(f"steps must be an int or a pair of ints, got {steps!r}") from None
    if len(steps) != 2 or min(steps) < 1:
        raise ValueError(f"steps must be an int or a pair of ints, each >= 1, got {steps!r}")
    if np.shape(g_range) != (2,) or np.shape(gprime_range) != (2,):
        raise ValueError("ranges must be pairs (low, high)")
    if not (0 < g_range[0] <= g_range[1]) or not (0 < gprime_range[0] <= gprime_range[1]):
        raise ValueError("ranges must be positive and ordered")
    _check_t_max(t_max)
    # the corner has the largest E1 and scan of the grid
    _scan_setup(CouplingParams.symmetric(g_range[1], gprime_range[1]), t_max)
    exps = list(threshold_exponents)
    if not exps or any(int(j) != j or j < 1 for j in exps):
        raise ValueError("threshold exponents must be positive integers")
    if len(set(exps)) != len(exps):
        raise ValueError("threshold exponents must be distinct")
    thresholds = [10.0 ** (-j) for j in exps]
    for threshold in thresholds:
        _check_threshold(threshold)
    n = steps[0] * steps[1] * len(exps)
    if n > MAX_CELLS:
        raise ValueError(f"the sweep needs {n} cell results, more than {MAX_CELLS}: coarsen the grid")

    g_values = np.linspace(g_range[0], g_range[1], steps[0])
    gprime_values = np.linspace(gprime_range[0], gprime_range[1], steps[1])
    # one list of results per cell (one result per exponent), row-major
    results = []
    for g in g_values:
        for at in range(0, gprime_values.size, _ROW_CELLS):
            row = [CouplingParams.symmetric(float(g), float(gp)) for gp in gprime_values[at:at + _ROW_CELLS]]
            results += _row(row, thresholds, t_max)
            if progress is not None:
                for done in range(len(results) - len(row) + 1, len(results) + 1):
                    progress(done)
    rows = [results[i:i + steps[1]] for i in range(0, len(results), steps[1])]
    return [
        SweepGrid(
            g_values=g_values,
            gprime_values=gprime_values,
            threshold_exponent=int(j),
            cells=tuple(tuple(cell[k] for cell in row) for row in rows),
        )
        for k, j in enumerate(exps)
    ]


def emit_fig4_traces(
    params_list,
    t_max=DEFAULT_T_MAX,
    n_steps=DEFAULT_N_STEPS,
    threshold=1e-6,
):
    """Traces plus annotated optimal times for a list of parameter points."""
    return [
        Fig4Trace(trace(p, t_max=t_max, n_steps=n_steps), find_t0(p, threshold, t_max=t_max))
        for p in params_list
    ]
