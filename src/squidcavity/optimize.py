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
there to win or tie.  One safeguarded Newton solve per equation on the
closed-form derivatives then refines all cells of a sweep row at once.
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
# Most points of a row refined together: a point's brackets take about
# 130 kB at t_max = 200, so a 1 x 32768 grid cannot hold gigabytes
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


def _bracket(times, x, idx):
    """Brackets [t_{i-1}, t_{i+1}] around samples idx of x, clipped to the
    grid, and the Newton starts in them (see ``_vertex``).

    Every probability is even in t, so t = 0 is an exact critical point: the
    first sample gets the empty bracket [t_0, t_0] and stays as sampled.
    """
    if not idx.size:
        return np.empty(0), np.empty(0), np.empty(0)
    left = np.maximum(idx - 1, 0)
    right = np.where(idx > 0, np.minimum(idx + 1, times.size - 1), 0)
    lo, hi = times[left], times[right]
    return lo, hi, _vertex(lo, times[idx], hi, x[left], x[idx], x[right])


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
    can still win, where ``p3`` is the largest P3 of a feasible sample.

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
class _Cell:
    """What refinement and selection read of one point's scan at one
    threshold.

    ``modes[kind]`` holds the weights and frequencies every bracket of
    equation ``kind`` carries (see ``_equation``); ``best`` is the sample of
    smallest r.  ``level`` is the one level the threshold decides: the
    threshold plus ``eps``, or ``best`` less ``eps`` where that is larger.
    The dips are the 3-point minima of r whose minorant reaches ``level``,
    the first of smallest r always among them, then those ``_split`` finds,
    with their brackets, Newton starts (see ``_vertex``) and sampled r.
    ``peaks`` are the feasible 3-point maxima of P3, with their brackets and
    Newton starts; ``edges`` are the feasible samples next to an infeasible
    one, ``edge_out`` the times of those neighbours and ``edge_x0`` their
    Newton starts (see ``_secant``).

    The certificate: ``slack`` is the minorant's L h^2 / 8 and ``eps`` the
    error of a computed r.  An interval is open when both its samples are
    infeasible and its minorant is at most ``level``: it may then hold a
    feasible time or a residual below ``best``.  The open intervals no dip's
    bracket holds (columns of ``open``: the times of their ends, then r
    there) are bisected by ``_split``.  ``bound`` bounds from below the
    minorants of the intervals left unrefined.  ``_split`` adds the dips and
    edges it finds.  Where a sample is feasible, the dips (but the first of
    smallest r), peaks, edges and open intervals are only those whose
    samples reach the P3 floor (see ``_cells``).
    """

    p: object
    threshold: float
    modes: tuple
    best: np.ndarray
    dip_lo: np.ndarray
    dip_hi: np.ndarray
    dip_x0: np.ndarray
    dip_r: np.ndarray
    peaks: np.ndarray
    peak_lo: np.ndarray
    peak_hi: np.ndarray
    peak_x0: np.ndarray
    edges: np.ndarray
    edge_out: np.ndarray
    edge_x0: np.ndarray
    slack: float
    eps: float
    level: float
    open: np.ndarray
    bound: float


def _cells(p, t_max, thresholds):
    """Scan one point and cut its point table down to one ``_Cell`` per
    threshold; the scan and what no threshold changes are shared.

    A threshold with a feasible sample gets a P3 floor (see ``_p3_floor``),
    and every bracket, edge pair and open interval whose samples all lie
    below it is dropped, after the intervals next to a kept dip have been
    closed.  Such a bracket holds no candidate inside the winner's tie band,
    and its minorant of r, like every minorant, is at least best - slack,
    the cell's ``bound``, so the result and its bound are those of the full
    cell.
    """
    m, e, pts = _scan(p, t_max)
    times, r, p3 = pts[0], pts[1], pts[2]
    n = times.size - 1
    d = _kernels.derivative_weights(m, e)
    modes = tuple(np.concatenate((d[:, rows].ravel(), e)) for rows in _ROWS)
    h = t_max / n
    a = np.abs(d).sum(axis=2).tolist()
    curvature = _step_curvature(p)
    # both bounds hold, and the point's own is the tighter where r is flat
    slack = min(curvature, _curvature_bound(a)) * h * h / 8.0
    eps = _R_ERROR * (1.0 + float(e[0]) * t_max)
    dip = _peaks(r, minima=True)
    dip_r = r[dip]
    # the first sample of smallest r is the first dip of smallest r
    first = np.argmin(dip_r)
    best = pts[:, dip[first]].copy()
    peak = _peaks(p3) if best[1] <= max(thresholds) else dip[:0]
    cells = []
    for threshold in thresholds:
        # an interval at or below level may hold a feasible time or a residual
        # below best; a dip's bracket holds the intervals next to it, whose
        # minorant is dip_r - slack, and the best sample's dip is always read
        level = max(threshold + eps, best[1] - eps)
        keep = dip_r - slack <= level
        keep[first] = True
        kept = dip[keep]
        # an interval is open when both its samples are infeasible and its
        # minorant, the smaller sample less the slack, is at most level: a
        # sample of it then lies in (threshold, level + slack]
        top = level + slack
        band = r <= top
        feasible = best[1] <= threshold
        if feasible:
            feas = r <= threshold
            cut = np.flatnonzero(feas[:-1] != feas[1:])
            inside = np.where(feas[cut], cut, cut + 1)
            outside = np.where(feas[cut], cut + 1, cut)
            band &= ~feas
        # but those a kept dip's bracket holds are refined with the dip (the
        # first sample's bracket is empty)
        opened = band[:-1] | band[1:]
        inner = kept[kept > 0]
        opened[inner - 1] = False
        opened[inner[inner < n]] = False
        cand = np.flatnonzero(opened)
        low = np.minimum(r[cand], r[cand + 1])
        cand = cand[(low > threshold) & (low <= top)]
        feasible_peak = peak[r[peak] <= threshold]
        if feasible:
            # the feasible sample of largest P3 is a feasible peak or an edge;
            # a bracket whose samples all lie below the floor is dropped
            best_p3 = max(p3[feasible_peak].max(initial=0.0), p3[inside].max(initial=0.0))
            floor = _p3_floor(best_p3, a, curvature, h, eps)
            feasible_peak = feasible_peak[p3[feasible_peak] >= floor]
            pair = np.maximum(p3[inside], p3[outside]) >= floor
            inside, outside = inside[pair], outside[pair]
            x0 = _secant(times[inside], r[inside], times[outside], r[outside], threshold)
            reach = np.maximum(np.maximum(p3[np.maximum(kept - 1, 0)], p3[kept]), p3[np.minimum(kept + 1, n)])
            kept = kept[(reach >= floor) | (kept == dip[first])]
            cand = cand[np.maximum(p3[cand], p3[cand + 1]) >= floor]
            # every minorant is at least best - slack, best the smallest sample,
            # also that of an interval left unrefined or dropped
            bound = best[1] - slack
        else:
            # no sample is feasible, so there are no edges and no P3 floor, and
            # an interval left unrefined has a minorant above the level
            inside, outside, x0 = dip[:0], dip[:0], np.empty(0)
            bound = level
        cells.append(_Cell(
            p, threshold, modes, best, *_bracket(times, r, kept), r[kept],
            pts[:, feasible_peak], *_bracket(times, p3, feasible_peak),
            pts[:, inside], times[outside], x0,
            slack, eps, level, pts[:2, [cand, cand + 1]].reshape(4, -1), bound,
        ))
    return cells


def _split(cells):
    """Bisect the open intervals of a row's cells until each closes or shows
    a dip, and add those dips, their edges and the bounds to the cells.

    Each level samples r at the midpoints of all open intervals of the row
    in one kernel call.  A midpoint below both ends makes its interval a dip
    bracket; a feasible midpoint also brackets the edges on both sides.
    Otherwise each half, with a quarter of the slack, stays open while its
    minorant still reaches its cell's level; where it closes, its minorant
    is above the level, which ``bound`` already allows for.  An interval
    whose slack is below ``eps`` cannot be resolved further and enters the
    bound as it is.  Every interval is its cell's alone and evaluates to the
    same bits in any batch, so a sweep cell reads what ``find_t0`` reads.
    """
    sizes = [c.open.shape[1] for c in cells]
    if not any(sizes):
        return
    own = np.repeat(np.arange(len(cells)), sizes)
    # one column per interval: its ends, r there and its slack
    node = np.concatenate([c.open for c in cells], axis=1)
    node = np.concatenate((node, np.array([c.slack for c in cells])[own][None]))
    eps, level, bound = (np.array([getattr(c, f) for c in cells]) for f in ("eps", "level", "bound"))
    # the edge equation's modes and level, per cell
    q = np.array([(*c.modes[_EDGE], c.threshold) for c in cells]).T
    found = []
    while own.size:
        stop = node[4] < eps[own]
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
        go = np.minimum(node[2], node[3]) <= level[own] + node[4]
        node, own = node[:, go], own[go]

    for c, b in zip(cells, bound.tolist()):
        c.bound = b
    if not found:
        return
    f_own = np.concatenate([f[0] for f in found])
    f_val = np.concatenate([f[1] for f in found], axis=1)
    for j in np.unique(f_own).tolist():
        c = cells[j]
        (lo, hi, r_lo, r_hi, x0), mids = np.split(f_val[:, f_own == j], [5])
        c.dip_lo, c.dip_hi = np.concatenate((c.dip_lo, lo)), np.concatenate((c.dip_hi, hi))
        c.dip_x0, c.dip_r = np.concatenate((c.dip_x0, x0)), np.concatenate((c.dip_r, mids[1]))
        f = mids[1] <= c.threshold
        t, r = mids[0, f], mids[1, f]
        c.edges = np.concatenate((c.edges, mids[:, f], mids[:, f]), axis=1)
        c.edge_out = np.concatenate((c.edge_out, lo[f], hi[f]))
        c.edge_x0 = np.concatenate((c.edge_x0, _secant(t, r, lo[f], r_lo[f], c.threshold),
                                    _secant(t, r, hi[f], r_hi[f], c.threshold)))


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
    on that bracket alone.  Returns the point table; ``lo`` must not be
    empty.
    """
    mid = 0.5 * (lo + hi) if start is None else start
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


def _solve_groups(kind, groups, starts=None):
    """One ``_solve`` over groups ``(cell, lo, hi, level)``, whose brackets
    carry their cell's modes, started at ``starts`` (one array per group)
    or the midpoints; returns one point table per group."""
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
    out = _solve(kind, lo, hi, q, None if starts is None else np.concatenate(starts))
    ends = np.cumsum(sizes).tolist()
    return [out[:, a:b] for a, b in zip([0] + ends, ends)]


def _result(p, threshold, t_max, feasible, row, bound):
    t0, p1p2, p3, p4 = map(float, row)
    return OptimizeResult(p, threshold, t_max, feasible, t0, p1p2, p3, p4, bound)


def _row(params, thresholds, t_max):
    """Results [point][threshold] for one row of points.

    The points are scanned in turn, each cut down to one ``_Cell`` per
    threshold before the next is scanned, so one point table lives at a
    time.  ``_split`` bisects the open intervals of all cells together.
    Then each equation is solved once for the whole row:

    - r' = 0 for the dips of r;
    - r = threshold for the edges between feasible and infeasible
      neighbours, and on both sides of each feasible dip that falls between
      infeasible samples;
    - P3' = 0 next to feasible 3-point maxima of P3, and between each edge
      and the feasible end of its bracket.
    """
    cells = [c for p in params for c in _cells(p, t_max, thresholds)]
    _split(cells)
    dips = _solve_groups(_DIP, [(c, c.dip_lo, c.dip_hi, 0.0) for c in cells], [c.dip_x0 for c in cells])
    edge_groups, edge_starts = [], []
    for c, d in zip(cells, dips):
        narrow = (d[1] <= c.threshold) & (c.dip_r > c.threshold)
        lo, hi = np.concatenate((d[0, narrow], d[0, narrow])), np.concatenate((c.dip_lo[narrow], c.dip_hi[narrow]))
        edge_groups.append((c, np.concatenate((c.edges[0], lo)), np.concatenate((c.edge_out, hi)), c.threshold))
        edge_starts.append(np.concatenate((c.edge_x0, 0.5 * (lo + hi))))
    edges = _solve_groups(_EDGE, edge_groups, edge_starts)
    max_groups, max_starts = [], []
    for (c, edge_lo, _, _), edge in zip(edge_groups, edges):
        lo, hi = np.minimum(edge_lo, edge[0]), np.maximum(edge_lo, edge[0])
        max_groups.append((c, np.concatenate((c.peak_lo, lo)), np.concatenate((c.peak_hi, hi)), c.threshold))
        max_starts.append(np.concatenate((c.peak_x0, 0.5 * (lo + hi))))
    maxima = _solve_groups(_P3MAX, max_groups, max_starts)
    results = [_select(*refined, t_max) for refined in zip(cells, dips, edges, maxima)]
    n = len(thresholds)
    return [results[i:i + n] for i in range(0, len(results), n)]


def _select(c, dips, edges, maxima, t_max):
    """The result of one cell from its refined points.

    Its bound on r is the smallest of the minorants left unrefined and of
    the dips, each at its refined point or its sample, less the error of a
    computed r: a dip stands for its bracket.
    """
    low = min(c.bound, dips[1].min(initial=np.inf), c.dip_r.min(initial=np.inf))
    bound = max(0.0, float(low) - c.eps)
    dip_feas = dips[1] <= c.threshold
    if min(c.best[1], c.dip_r.min(initial=np.inf)) > c.threshold and not dip_feas.any():
        # infeasible: report the smallest residual seen
        best = c.best
        if dips.size and dips[1].min() < best[1]:
            best = dips[:, np.argmin(dips[1])]
        return _result(c.p, c.threshold, t_max, False, best, bound)
    # the feasible samples bracketing maxima and edges stay candidates too
    cand = np.hstack((c.peaks, c.edges, dips[:, dip_feas], edges, maxima))
    cand = cand[:, cand[1] <= c.threshold]
    near = cand[2] >= cand[2].max() - P3_TIE_TOL
    return _result(c.p, c.threshold, t_max, True, cand[:, near][:, np.argmin(cand[0, near])], bound)


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
    range a pair (low, high).  Each point is scanned once, and its scan is
    cut into one ``_Cell`` per threshold, the same cell find_t0 makes, so
    each result equals find_t0 at its threshold.  The points of a row, up
    to _ROW_CELLS at a time, are refined together; ``progress(done)`` is
    called once per point after its row part.  Grids over MAX_CELLS cell
    results are rejected.
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
