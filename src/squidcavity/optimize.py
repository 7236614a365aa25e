"""Measurement-time optimization and (g, g') feasibility sweeps.

The entanglement condition P1(t0) = P2(t0) = 0 is operationalized as
P1 + P2 <= threshold.  Within the feasible set the target-state
probability P3 is maximized.  The scan's step follows a curvature bound
L >= |r''| for r = P1 + P2, so between two samples r stays above the
quadratic minorant min(r_i, r_{i+1}) - L h^2 / 8 (Piyavskii-Shubert).  A
point is scanned once and cut into one cell per threshold, each deciding
its own level: an interval whose minorant clears it is excluded by that
bound, and every other interval is refined, by the dip of r next to it or
by bisection.  The same bound on |P3''| gives a majorant of P3 between
samples, so a cell with a feasible sample drops every bracket whose
samples lie too far below its best feasible P3 for anything refined
there to win or tie.  Only the passes that need a point's table run per
point; the cells of a sweep row are then arrays in which every bracket
carries the index of its cell, and one safeguarded Newton solve per
equation on the closed-form derivatives refines them all at once, before
each cell's result is selected by reductions over the row.
Every result carries a lower bound on min r over (0, t_max]; infeasible
cells are first-class results carrying the best residual found and a
bound above their threshold.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import DEFAULT_N_STEPS, DEFAULT_T_MAX, MAX_SAMPLES, sector_modes, trace
from .dynamics import _check_phase, _check_t_max
from .model import MAX_COUPLING, CouplingParams

# Slack of the scan's quadratic minorant, in units of r = P1 + P2: the step
# h = sqrt(8 SCAN_SLACK / L) keeps r >= min(r_i, r_{i+1}) - SCAN_SLACK
# between neighbouring samples
SCAN_SLACK = 2e-3
P3_TIE_TOL = 1e-9
_T_FLOOR = 1e-12
_X_TOL = 1e-12
_MAX_ITER = 100
# Bound on the error of a computed r, per unit of 1 + E1 t_max: 16 units of
# 2^-52 in the phase (grid and direct evaluation differ by about a tenth of
# one, 2.2e-14 at E1 t = 800)
_R_ERROR = 16.0 * 2.0**-52
# equations a solve can carry: r' = 0, r = level, P3' = 0
_DIP, _EDGE, _P3MAX = 0, 1, 2
# rows of _kernels.derivative_weights each equation reads: a1..a4, then
# a1', a2' and a1'', a2'' for a dip, a1', a2' for an edge, a3' and a3''
# for a maximum of P3
_ROWS = ([0, 1, 2, 4], [0, 1, 2], [0, 1, 3, 5])
# Most sweep results (points x threshold exponents) held in memory
MAX_CELLS = 2**16
# Most points of a row refined together: a point's cut brackets take about
# 5-8 kB at t_max = 200 (tracemalloc, 1 x n sweeps over g = 0.6, g' in
# [0.5, 2], n = 8..64), so a 1 x 32768 grid cannot hold hundreds of MB
_ROW_CELLS = 64


@dataclass(frozen=True)
class OptimizeResult:
    """Best measurement time for one parameter point and threshold.

    For infeasible points ``t0`` is the time of the smallest residual
    found and ``feasible`` is False.  ``p1p2_bound`` is a lower bound on
    P1 + P2 over (0, t_max] (see ``_select``); an infeasible result's bound
    lies above its threshold unless its residual is within rounding of it.
    """

    params: object
    threshold: float
    t_max: float
    feasible: bool
    t0: float
    p1p2: float
    p3: float
    p4: float
    p1p2_bound: float

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


def _step_curvature(p):
    """L = 4 eta >= |r''| and |P3''| at every t, eta = Omega^2 + 2 g^2 + g'^2.

    The sector state is a unit vector with frequencies up to E1, so
    |(a1', a2')| <= E1 and |(a1'', a2'')| <= E1^2; r'' = 2 (a1'^2 + a2'^2 +
    a1 a1'' + a2 a2'') and P3'' = 2 (a3'^2 + a3 a3'') are then at most
    4 E1^2 <= 4 eta.  Every operation is monotone, so L never decreases as g
    or g' grows.
    """
    return 4.0 * (p.omega1 * p.omega1 + 2.0 * p.g1 * p.g1 + p.g_prime * p.g_prime)


def _scan_setup(p, t_max):
    """Modes and scan length for one point: n intervals of h = t_max / n <=
    sqrt(8 SCAN_SLACK / L), at least one.  Rejects a phase E1*t_max that
    double precision cannot resolve and a scan longer than MAX_SAMPLES."""
    m, e = sector_modes(p)
    _check_phase(e, t_max)
    n = max(1, math.ceil(t_max * math.sqrt(_step_curvature(p) / (8.0 * SCAN_SLACK))))
    if n > MAX_SAMPLES:
        raise ValueError(f"the scan needs {n} samples, more than {MAX_SAMPLES}: lower t_max")
    return m, e, n


def _scan(p, t_max):
    """Deterministic scan over [_T_FLOOR, t_max].

    Returns ``(m, e, pts)``: the modes and a point table with rows
    t, r = P1 + P2, P3, P4.
    """
    m, e, n = _scan_setup(p, t_max)
    # rows P1..P4 become t, r, P3, P4 in place; the times are those of
    # np.linspace(0, t_max, n + 1), computed as it computes them
    pts = _kernels.grid_probs(m, e, t_max, n + 1)
    pts[1] += pts[0]
    np.multiply(np.arange(n + 1.0), t_max / n, out=pts[0])
    pts[0, n] = t_max
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
    return ok.nonzero()[0]


def _around(idx, n):
    """Indices of samples idx - 1, idx and idx + 1, clipped to [0, n]."""
    return np.minimum(np.maximum(idx + np.arange(-1, 2)[:, None], 0), n)


def _bracket(idx, t, x):
    """Brackets [t_{i-1}, t_{i+1}] around samples idx, clipped to the grid,
    and the Newton starts in them (see ``_vertex``), from the times ``t``
    and values ``x`` at ``_around(idx, n)``.

    Every probability is even in t, so t = 0 is an exact critical point: the
    first sample gets the empty bracket [t_0, t_0] and stays as sampled.
    """
    if not idx.size:
        return t[0], t[0], t[0]
    first = idx == 0
    hi, right = np.where(first, t[1], t[2]), np.where(first, x[1], x[2])
    return t[0], hi, _vertex(t[0], t[1], hi, x[0], x[1], right)


def _vertex(lo, t, hi, left, mid, right):
    """Vertex of the parabola through (lo, left), (t, mid), (hi, right), t the
    midpoint of [lo, hi], clipped to [lo, hi]; t where the three are level.
    A Newton solve started there takes about one step fewer than from t."""
    den = (left - mid) + (right - mid)
    flat = den == 0.0
    x = t + 0.25 * (hi - lo) * (left - right) / (den + flat)
    return np.where(flat, t, np.minimum(np.maximum(x, lo), hi))


def _secant(t_in, r_in, t_out, r_out, level):
    """Where the chord from (t_in, r_in) to (t_out, r_out) meets ``level``,
    for r_in <= level < r_out: a Newton start for the edge between them."""
    return t_in + (level - r_in) * (t_out - t_in) / (r_out - r_in)


def _curvature_bound(a):
    """L2 >= |r''| everywhere, for r = a1^2 + a2^2, from the sums ``a`` of
    |weights| of each row of ``_kernels.derivative_weights``.

    r'' = 2 (a1'^2 + a1 a1'' + a2'^2 + a2 a2''), and a row's sum of |weights|,
    sum_j |w_kj| E_j^i for its derivative i, bounds its magnitude.
    """
    c, s = a
    return 2.0 * (s[2] * s[2] + c[0] * c[4] + c[2] * c[2] + s[0] * s[4])


def _p3_floor(p3, a, curvature, h, eps):
    """The P3 a bracket's samples must reach for it to hold a candidate that
    can still win, where ``p3`` is the largest P3 of a feasible sample (one
    per threshold).

    P3'' = 2 (a3'^2 + a3 a3'') is at most L3 = 2 (A1_3^2 + A0_3 A2_3), from
    the sums ``a`` as in ``_curvature_bound``, so between two samples P3 stays
    below the larger one plus slack3 = min(``curvature``, L3) h^2 / 8.  A
    feasible sample of P3 ``p3`` is itself a candidate, so the winner has at
    least ``p3``.  A point refined in a bracket whose samples all lie below
    the floor has P3 below ``p3 - P3_TIE_TOL``: outside the winner's tie
    band, it can neither win nor tie.  The margin 3 eps covers the error of
    the sampled P3 and of the refined one (a computed P3, the square of one
    of the same unit-norm series, is within eps as a computed r is) and the
    rounding of this difference.
    """
    c, s = a
    slack3 = min(curvature, 2.0 * (s[3] * s[3] + c[1] * c[5])) * h * h / 8.0
    return p3 - P3_TIE_TOL - slack3 - 3.0 * eps


@dataclass
class _Cells:
    """What refinement and selection read of the scans of a row's points,
    as arrays over the cells: cell o = i K + j is threshold j of point i,
    for K thresholds, and each bracket belongs to the cell in its ``*_own``
    entry.

    Per cell: ``weights`` and ``freqs`` are the ``derivative_weights`` and
    frequencies of its point, ``best`` is the point's sample of smallest r,
    ``slack`` the minorant's L h^2 / 8, ``eps`` the error of a computed r,
    and ``level`` the one level the threshold decides: the threshold plus
    ``eps``, or ``best`` less ``eps`` where that is larger.  ``bound``
    bounds from below the minorants of the intervals left unrefined.

    The dips are the 3-point minima of r whose minorant reaches ``level``,
    the first of smallest r always among them, then those ``_split`` finds,
    with their brackets, Newton starts (see ``_vertex``) and sampled r.
    ``peaks`` are the feasible 3-point maxima of P3, with their brackets and
    Newton starts; ``edges`` are the feasible samples next to an infeasible
    one, ``edge_out`` the times of those neighbours and ``edge_x0`` their
    Newton starts (see ``_secant``).  An interval is open when both its
    samples are infeasible and its minorant is at most ``level``: it may
    then hold a feasible time or a residual below ``best``.  ``_split``
    bisects the open intervals no dip's bracket holds (columns of ``open``:
    the times of their ends, then r there) and adds the dips and edges it
    finds.  Where a sample is feasible, all of these but the dip of the best
    sample reach the P3 floor (see ``_cut``).
    """

    params: list
    threshold: np.ndarray
    weights: np.ndarray
    freqs: np.ndarray
    best: np.ndarray
    slack: np.ndarray
    eps: np.ndarray
    level: np.ndarray
    bound: np.ndarray
    dip_own: np.ndarray
    dip_lo: np.ndarray
    dip_hi: np.ndarray
    dip_x0: np.ndarray
    dip_r: np.ndarray
    peak_own: np.ndarray
    peaks: np.ndarray
    peak_lo: np.ndarray
    peak_hi: np.ndarray
    peak_x0: np.ndarray
    edge_own: np.ndarray
    edges: np.ndarray
    edge_out: np.ndarray
    edge_x0: np.ndarray
    open_own: np.ndarray
    open: np.ndarray


def _cut(p, t_max, thr):
    """Scan one point and gather what its cells at thresholds ``thr`` read
    of its point table, which is then dropped: the passes over the table
    run here, each for all thresholds at once, and ``_cells`` does the rest.

    A threshold with a feasible sample gets a P3 floor (see ``_p3_floor``)
    from its largest feasible P3, and every bracket, edge pair and open
    interval whose samples all lie below it is dropped, after the intervals
    next to a kept dip have been closed.  Such a bracket holds no candidate
    inside the winner's tie band, and its minorant of r, like every
    minorant, is at least best - slack, the cell's ``bound``, so the result
    and its bound are those of the full cell.  The 3-point maxima of P3 are
    only looked for among the samples that reach the lowest floor.

    Returns the point, its ``derivative_weights``, frequencies, slack, eps
    and ``best``, per threshold the level and the floor, then four groups,
    each led by the threshold index of every entry: the kept dips with t, r
    and P3 ``_around`` them; the kept maxima of P3 with the point table
    around them; the edge pairs with the point table at the feasible end
    and t, r at the other; and the open intervals with t, r and P3 at both
    ends (the level and floor of these are applied by ``_cells``).
    """
    m, e, pts = _scan(p, t_max)
    times, r, p3 = pts[0], pts[1], pts[2]
    n = times.size - 1
    d = _kernels.derivative_weights(m, e)
    h = t_max / n
    a = np.abs(d).sum(axis=2).tolist()
    curvature = _step_curvature(p)
    # both bounds hold, and the point's own is the tighter where r is flat
    slack = min(curvature, _curvature_bound(a)) * h * h / 8.0
    eps = _R_ERROR * (1.0 + float(e[0]) * t_max)
    dip = _peaks(r, minima=True)
    dip_r = r[dip]
    # the first sample of smallest r is the first dip of smallest r
    first = dip_r.argmin()
    best = pts[:, dip[first]].copy()
    # from here on, row j of a 2-d array belongs to threshold j.  An
    # interval at or below level may hold a feasible time or a residual
    # below best; a dip's bracket holds the intervals next to it, whose
    # minorant is dip_r - slack, and the best sample's dip is always read
    level = np.maximum(thr + eps, best[1] - eps)
    keep = dip_r - slack <= level[:, None]
    keep[:, first] = True
    # an interval is open when both its samples are infeasible and its
    # minorant, the smaller sample less the slack, is at most level: a
    # sample of it then lies in (threshold, level + slack]
    band = r <= (level + slack)[:, None]
    floor = np.full(thr.size, -np.inf)
    edge = inside = outside = peak_own = peak = dip[:0]
    peak_pts = np.empty((4, 3, 0))
    feasible = (best[1] <= thr).nonzero()[0]
    if feasible.size:
        feas = r <= thr[feasible, None]
        band[feasible] ^= feas
        floor[feasible] = _p3_floor(np.array([p3[f].max() for f in feas]), a, curvature, h, eps)
        # the feasible and the infeasible sample of each pair of neighbours
        # on either side of a threshold, where they reach its floor
        row, cut = divmod((feas[:, :-1] != feas[:, 1:]).ravel().nonzero()[0], n)
        lo = feas[row, cut]
        inside, outside, edge = cut + ~lo, cut + lo, feasible[row]
        reach = np.maximum(p3[inside], p3[outside]) >= floor[edge]
        inside, outside, edge = inside[reach], outside[reach], edge[reach]
        # the 3-point maxima of P3 among the samples feasible at the loosest
        # threshold that reach the lowest floor, then those feasible at each
        # threshold that reach its floor
        peak = ((p3 >= floor[feasible].min()) & feas[thr[feasible].argmax()]).nonzero()[0]
        peak_pts = pts[:, _around(peak, n)]
        x = peak_pts[2]
        is_max = (x[1] >= x[2]) & ((x[1] > x[0]) | (peak == 0))
        peak, peak_pts = peak[is_max], peak_pts[:, :, is_max]
        peak_own, at = ((peak_pts[1, 1] <= thr[:, None]) & (peak_pts[2, 1] >= floor[:, None])).nonzero()
        peak, peak_pts = peak[at], peak_pts[:, :, at]
    # column n pads the intervals: it stands for those before the first and
    # after the last sample, which a dip there closes
    opened = np.zeros((thr.size, n + 1), dtype=bool)
    np.bitwise_or(band[:, :-1], band[:, 1:], out=opened[:, :n])
    # but those a kept dip's bracket holds are refined with the dip (the
    # first sample's bracket is empty)
    row, at = keep.nonzero()
    at = dip[at]
    opened[row, at - 1] = False
    opened[row, np.where(at > 0, at, n)] = False
    opened = divmod(opened.ravel().nonzero()[0], n + 1)
    dip_pts = pts[:3, _around(dip, n)]
    if feasible.size:
        # a bracket whose samples all lie below the floor is dropped, but
        # never the dip of the best sample
        keep &= dip_pts[2].max(axis=0) >= floor[:, None]
        keep[:, first] = True
    row, at = keep.nonzero()
    return (
        p, d, e, slack, eps, best, level, floor,
        (row, dip[at], dip_pts[:, :, at]), (peak_own, peak, peak_pts),
        (edge, pts[:, inside], pts[:2, outside]), (opened[0], pts[:3, opened[1] + np.arange(2)[:, None]]),
    )


def _cat(pieces):
    """The pieces of a row's points joined along their last axis."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=-1)


def _cells(params, t_max, thresholds):
    """Scan the points in turn and cut each table down (see ``_cut``)
    before the next is scanned, then join what the points' cells read into
    one ``_Cells`` for the row, with the brackets and Newton starts."""
    thr = np.array(thresholds, dtype=float)
    (params, d, e, slack, eps, best, level, floor, *groups) = zip(*(_cut(p, t_max, thr) for p in params))
    k = thr.size
    threshold, level, floor = _cat([thr] * len(params)), _cat(level), _cat(floor)
    slack, eps = np.array((slack, eps)).repeat(k, axis=1)
    best = np.array(best).T.repeat(k, axis=1)
    start = np.arange(0, k * len(params), k)

    def joined(group):
        """The pieces of a group, one per point, joined; the threshold
        indices that lead it become cells."""
        own, *pieces = zip(*group)
        cells = _cat(own) if len(own) == 1 else np.repeat(start, [x.size for x in own]) + _cat(own)
        return (cells, *map(_cat, pieces))

    ((dip_own, dip, dip_pts), (peak_own, peak, peak_pts), (edge_own, inside, outside),
     (open_own, open_pts)) = map(joined, groups)
    # the open intervals whose minorant reaches the level and whose samples
    # reach the floor (a cell with no feasible sample has no floor)
    low = open_pts[1].min(axis=0)
    go = (low > threshold[open_own]) & (low <= level[open_own] + slack[open_own])
    go &= open_pts[2].max(axis=0) >= floor[open_own]
    edge_x0 = _secant(*inside[:2], *outside, threshold[edge_own]) if edge_own.size else outside[0]
    return _Cells(
        list(params), threshold, np.array(d).transpose(1, 2, 3, 0).repeat(k, axis=-1),
        np.array(e).T.repeat(k, axis=-1), best, slack, eps, level,
        # every minorant is at least best - slack, best the smallest sample,
        # also that of an interval left unrefined or dropped; where no sample
        # is feasible, one left unrefined has a minorant above the level
        np.where(best[1] <= threshold, best[1] - slack, level),
        dip_own, *_bracket(dip, dip_pts[0], dip_pts[1]), dip_pts[1, 1],
        peak_own, peak_pts[:, 1], *_bracket(peak, peak_pts[0], peak_pts[2]),
        edge_own, inside, outside[0], edge_x0,
        open_own[go], open_pts[:2, :, go].reshape(4, -1),
    )


def _columns(kind, c):
    """Column o: the weights of the ``_ROWS[kind]`` rows and the frequencies
    of cell o's point, then its threshold (see ``_equation``)."""
    w = c.weights[:, _ROWS[kind]]
    return np.concatenate((w.reshape(-1, w.shape[-1]), c.freqs, c.threshold[None]))


def _split(parts):
    """Bisect the open intervals of the cells of each ``_Cells`` in
    ``parts`` (a row has one) until each closes or shows a dip, and add
    those dips, their edges and the bounds to the cells.

    Each level samples r at the midpoints of all open intervals in one
    kernel call.  A midpoint below both ends makes its interval a dip
    bracket; a feasible midpoint also brackets the edges on both sides.
    Otherwise each half, with a quarter of the slack, stays open while its
    minorant still reaches its cell's level; where it closes, its minorant
    is above the level, which ``bound`` already allows for.  An interval
    whose slack is below ``eps`` cannot be resolved further and enters the
    bound as it is.  Every interval is its cell's alone and evaluates to the
    same bits in any batch, so a sweep cell reads what ``find_t0`` reads.
    """
    for c in parts:
        own = c.open_own
        if not own.size:
            continue
        # one column per interval: its ends, r there and its slack
        node = np.concatenate((c.open, c.slack[own][None]))
        bound = c.bound.copy()
        q = _columns(_EDGE, c)
        found = []
        while own.size:
            stop = node[4] < c.eps[own]
            if stop.any():
                np.minimum.at(bound, own[stop], np.minimum(node[2, stop], node[3, stop]) - node[4, stop])
                node, own = node[:, ~stop], own[~stop]
                if not own.size:
                    break
            mid = 0.5 * (node[0] + node[1])
            pts = _equation(_EDGE, q[:, own], mid)[2]
            dip = pts[1] < np.minimum(node[2], node[3])
            if dip.any():
                x0 = _vertex(node[0, dip], mid[dip], node[1, dip], node[2, dip], pts[1, dip], node[3, dip])
                found.append((own[dip], np.concatenate((node[:4, dip], x0[None], pts[:, dip]))))
                node, own, pts = node[:, ~dip], own[~dip], pts[:, ~dip]
            # the halves [lo, mid] and [mid, hi]
            m = own.size
            node = np.concatenate((node, node), axis=1)
            node[1, :m] = node[0, m:] = pts[0]
            node[3, :m] = node[2, m:] = pts[1]
            node[4] *= 0.25
            own = np.concatenate((own, own))
            go = np.minimum(node[2], node[3]) <= c.level[own] + node[4]
            node, own = node[:, go], own[go]
        c.bound = bound
        if not found:
            continue
        own = np.concatenate([f[0] for f in found])
        (lo, hi, r_lo, r_hi, x0), mids = np.split(np.concatenate([f[1] for f in found], axis=1), [5])
        c.dip_own, c.dip_lo, c.dip_hi = (np.concatenate(v) for v in ((c.dip_own, own), (c.dip_lo, lo), (c.dip_hi, hi)))
        c.dip_x0, c.dip_r = np.concatenate((c.dip_x0, x0)), np.concatenate((c.dip_r, mids[1]))
        threshold = c.threshold[own]
        f = mids[1] <= threshold
        t, r, threshold = mids[0, f], mids[1, f], threshold[f]
        c.edge_own = np.concatenate((c.edge_own, own[f], own[f]))
        c.edges = np.concatenate((c.edges, mids[:, f], mids[:, f]), axis=1)
        c.edge_out = np.concatenate((c.edge_out, lo[f], hi[f]))
        c.edge_x0 = np.concatenate((c.edge_x0, _secant(t, r, lo[f], r_lo[f], threshold),
                                    _secant(t, r, hi[f], r_hi[f], threshold)))


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


def _solve(kind, lo, hi, q, start=None):
    """One root of equation ``kind`` per bracket [lo, hi] by bracketed
    Newton (rtsafe), one kernel call per iteration over all open brackets;
    column j of ``q`` is bracket j's modes and level (see ``_equation``).

    A Newton step leaving the bracket, or not halving the previous step,
    bisects instead (one landing on an end is kept).  A step below the
    tolerance 1e-12 max(1, t) is pushed that far past the root and ends the
    solve.  Newton starts at ``start``, by default the midpoint.  The result
    is the last point evaluated with f <= 0, so an edge is feasible under
    the same closed form; a bracket without the sign change
    f(lo) <= 0 < f(hi) returns its start.  Every bracket's result depends
    on that bracket alone.  Returns the point table.
    """
    mid = 0.5 * (lo + hi) if start is None else start
    f, df, pts = _equation(kind, q[:, None], np.array((lo, hi, mid)))
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


def _result(p, threshold, t_max, feasible, row, bound):
    t0, p1p2, p3, p4 = map(float, row)
    return OptimizeResult(p, threshold, t_max, feasible, t0, p1p2, p3, p4, bound)


def _row(params, thresholds, t_max):
    """The results of one row of points, point by point and, within a
    point, threshold by threshold.

    ``_cells`` scans the points in turn and cuts each table down before the
    next is scanned, so one point table lives at a time; the row's cells
    are then arrays in which every bracket carries its cell.  ``_split``
    bisects the open intervals of all cells together, and each equation is
    solved once for the whole row, every bracket with the modes of its
    point and its cell's threshold:

    - r' = 0 for the dips of r;
    - r = threshold for the edges between feasible and infeasible
      neighbours, and on both sides of each feasible dip that falls between
      infeasible samples;
    - P3' = 0 next to feasible 3-point maxima of P3, and between each edge
      and the feasible end of its bracket.
    """
    c = _cells(params, t_max, thresholds)
    _split([c])

    def solve(kind, lo, hi, own, start):
        # every bracket carries the modes of its point and its cell's threshold
        return _solve(kind, lo, hi, _columns(kind, c)[:, own], start) if lo.size else np.empty((4, 0))

    dips = solve(_DIP, c.dip_lo, c.dip_hi, c.dip_own, c.dip_x0)
    edge_own, edge_in, edge_out, starts = c.edge_own, c.edges[0], c.edge_out, c.edge_x0
    # a feasible dip between infeasible samples has an edge on either side
    narrow = (dips[1] <= c.threshold[c.dip_own]) & (c.dip_r > c.threshold[c.dip_own])
    if narrow.any():
        t, own, lo, hi = dips[0, narrow], c.dip_own[narrow], c.dip_lo[narrow], c.dip_hi[narrow]
        edge_own = np.concatenate((edge_own, own, own))
        edge_in, edge_out = np.concatenate((edge_in, t, t)), np.concatenate((edge_out, lo, hi))
        starts = np.concatenate((starts, 0.5 * (t + lo), 0.5 * (t + hi)))
    edges = solve(_EDGE, edge_in, edge_out, edge_own, starts)
    max_own, lo, hi, starts = c.peak_own, c.peak_lo, c.peak_hi, c.peak_x0
    if edge_own.size:
        # and between each edge and the feasible end of its bracket
        a, b = np.minimum(edge_in, edges[0]), np.maximum(edge_in, edges[0])
        max_own = np.concatenate((max_own, edge_own))
        lo, hi, starts = np.concatenate((lo, a)), np.concatenate((hi, b)), np.concatenate((starts, 0.5 * (a + b)))
    maxima = solve(_P3MAX, lo, hi, max_own, starts)
    return _select(c, dips, (edge_own, edges), (max_own, maxima), thresholds, t_max)


def _firsts(own, key):
    """For each owner in ``own``, in increasing order, the index of its
    first point of smallest ``key``."""
    order = np.lexsort((key, own))
    own = own[order]
    return order[own != np.concatenate(([-1], own[:-1]))]


def _select(c, dips, edges, maxima, thresholds, t_max):
    """The result of each cell from its refined points; ``edges`` and
    ``maxima`` are pairs (owners, point table).

    A cell's bound on r is the smallest of the minorants left unrefined and
    of its dips, each at its refined point or its sample, less the error of
    a computed r: a dip stands for its bracket.  A cell is infeasible when
    neither a sample nor a refined dip is feasible, and reports the smallest
    residual seen.  Otherwise it reports the earliest feasible point within
    P3_TIE_TOL of its largest feasible P3, the first in the order peaks,
    edge samples, dips, edges, maxima where times tie.  Every cell has a
    dip, that of its best sample.
    """
    thr = c.threshold
    # each cell's dip of smallest refined r and its smallest sampled dip
    at = _firsts(c.dip_own, dips[1])
    refined, sampled = dips[1, at], c.best[1].copy()
    np.minimum.at(sampled, c.dip_own, c.dip_r)
    bound = np.maximum(0.0, np.minimum(np.minimum(c.bound, refined), sampled) - c.eps)
    feasible = (sampled <= thr) | (refined <= thr)
    # infeasible: the smallest residual seen
    rows = np.where(refined < c.best[1], dips[:, at], c.best)
    if feasible.any():
        # the feasible samples bracketing maxima and edges stay candidates too
        dip_feas = dips[1] <= thr[c.dip_own]
        own = np.concatenate((c.peak_own, c.edge_own, c.dip_own[dip_feas], edges[0], maxima[0]))
        cand = np.concatenate((c.peaks, c.edges, dips[:, dip_feas], edges[1], maxima[1]), axis=1)
        ok = cand[1] <= thr[own]
        own, cand = own[ok], cand[:, ok]
        top = np.full(thr.size, -np.inf)
        np.maximum.at(top, own, cand[2])
        near = cand[2] >= (top - P3_TIE_TOL)[own]
        own, cand = own[near], cand[:, near]
        at = _firsts(own, cand[0])
        rows[:, own[at]] = cand[:, at]
    k = len(thresholds)
    return [
        _result(c.params[o // k], thresholds[o % k], t_max, f, row, b)
        for o, (f, row, b) in enumerate(zip(feasible.tolist(), rows.T.tolist(), bound.tolist()))
    ]


def _check_threshold(threshold):
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")


def find_t0(p, threshold, t_max=DEFAULT_T_MAX):
    """Best measurement time under the entanglement-condition threshold."""
    _check_threshold(threshold)
    _check_t_max(t_max)
    return _row([p], [threshold], t_max)[0]


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
    range a pair (low, high).  Each point is scanned once, and its scan is
    cut into one cell per threshold, the same cell find_t0 makes, so each
    result equals find_t0 at its threshold.  The points of a row, up to
    _ROW_CELLS at a time, are refined together as one set of arrays whose
    brackets carry their cell (see ``_row``); ``progress(done)`` is called
    once per point after its row part.  Grids over MAX_CELLS cell results
    are rejected.
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
    if not max(g_range[1], gprime_range[1]) <= MAX_COUPLING:
        raise ValueError(f"ranges must be finite and at most {MAX_COUPLING:g}")
    _check_t_max(t_max)
    # the step's curvature bound never decreases as g or g' grows, so the
    # corner has the longest scan of the grid
    _scan_setup(CouplingParams.symmetric(g_range[1], gprime_range[1]), t_max)
    exps = list(threshold_exponents)
    try:
        # nan fails j >= 1, and int() of an infinite exponent overflows
        whole = all(j >= 1 and int(j) == j for j in exps)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not exps or not whole:
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
    # one list of results per exponent, row-major
    results = [[] for _ in exps]
    for g in g_values:
        for at in range(0, gprime_values.size, _ROW_CELLS):
            row = [CouplingParams.symmetric(float(g), float(gp)) for gp in gprime_values[at:at + _ROW_CELLS]]
            part = _row(row, thresholds, t_max)
            for k, cells in enumerate(results):
                cells += part[k::len(exps)]
            if progress is not None:
                for done in range(len(results[0]) - len(row) + 1, len(results[0]) + 1):
                    progress(done)
    return [
        SweepGrid(
            g_values=g_values,
            gprime_values=gprime_values,
            threshold_exponent=int(j),
            cells=tuple(tuple(cells[i:i + steps[1]]) for i in range(0, len(cells), steps[1])),
        )
        for j, cells in zip(exps, results)
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
