"""Measurement-time optimization and (g, g') feasibility sweeps.

The entanglement condition P1(t0) = P2(t0) = 0 is operationalized as
P1 + P2 <= threshold, and within the feasible set the target-state
probability P3 is maximized.  A point is scanned once, with a step that
keeps r = P1 + P2 above the Piyavskii-Shubert minorant min(r_a, r_b) -
L w^2 / 8 on every interval of width w (L >= |r''|) and P3 below the like
majorant, and cut into one cell per threshold, whose intervals that can
still matter become nodes.  The derivatives at a node's ends prove r and
P3 monotone or of one curvature sign there, and with it one root of each
equation the node holds (r' = 0, r = threshold, P3' = 0) for a safeguarded
Newton solve, or the node is bisected within a budget per cell.  A sweep
runs over its grid in parts of points set up together, and a part's cells
are arrays whose nodes carry their cell.  Every result carries
a proven lower bound on min r over (0, t_max].
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import DEFAULT_N_STEPS, DEFAULT_T_MAX, MAX_SAMPLES, part_modes, trace
from .dynamics import _check_phase, _check_t_max
from .model import MAX_COUPLING, CouplingParams

# Slack of the scan's quadratic minorant, in units of r = P1 + P2: the step
# h = sqrt(8 SCAN_SLACK / L) keeps r >= min(r_i, r_{i+1}) - SCAN_SLACK
# between neighbouring samples
SCAN_SLACK = 2e-3
P3_TIE_TOL = 1e-9
# Most midpoints a cell's bisection evaluates, per interval of its scan
SPLIT_BUDGET = 1
_T_FLOOR = 1e-12
_X_TOL = 1e-12
_MAX_ITER = 100
# Bound on the error of a computed r, per unit of 1 + E1 t_max: 16 units of 2^-52
# in the phase (grid and direct evaluation differ by 2.2e-14 at E1 t = 800)
_R_ERROR = 16.0 * 2.0**-52
# equations a solve can carry: r' = 0, r = threshold, P3' = 0
_DIP, _EDGE, _P3MAX = 0, 1, 2
# Most sweep results (points x threshold exponents) held in memory
MAX_CELLS = 2**16
# Most points of a sweep part, which the flattened grid is cut into: a
# part's points are set up and refined together, and the cap bounds the
# nodes held
_PART_POINTS = 64


@dataclass(frozen=True)
class OptimizeResult:
    """Best measurement time for one parameter point and threshold.

    For infeasible points ``t0`` is the time of the smallest residual
    found and ``feasible`` is False.  ``p1p2_bound`` is a proven lower bound
    on P1 + P2 over (0, t_max], less the rounding error of a computed r (see
    ``_refine``); an infeasible result's bound lies above its threshold
    unless its residual is within rounding of it.
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
    """L = 4 eta >= 4 E1^2 >= |r''|, |P3''| (see ``_derivative_bounds``),
    eta = Omega^2 + 2 g^2 + g'^2.  Every operation is monotone, so L never
    decreases as g or g' grows."""
    return 4.0 * (p.omega1 * p.omega1 + 2.0 * p.g1 * p.g1 + p.g_prime * p.g_prime)


def _setup(params, t_max):
    """The set-up of the points ``params``: modes ``m`` and ``e`` (see
    ``part_modes``) and ``derivative_weights`` ``d``, stacked on the first
    axis, scan lengths ``n`` (n intervals of h = t_max / n <=
    sqrt(8 SCAN_SLACK / L), at least one) and the (5, P)
    ``_derivative_bounds``.  Rejects a phase E1*t_max that double precision
    cannot resolve and a scan longer than MAX_SAMPLES."""
    m, e = part_modes(params)
    _check_phase(e.max(axis=0), t_max)
    curvature = [_step_curvature(p) for p in params]
    n = [max(1, math.ceil(t_max * math.sqrt(c / (8.0 * SCAN_SLACK)))) for c in curvature]
    if max(n) > MAX_SAMPLES:
        raise ValueError(f"the scan needs {max(n)} samples, more than {MAX_SAMPLES}: lower t_max")
    return m, e, n, _kernels.derivative_weights(m, e), _derivative_bounds(m, e, curvature, t_max)


def _scan(m, e, n, t_max):
    """Deterministic scans of a part's points, with modes ``m``, ``e``
    stacked on the first axis: point i's table, rows t, r = P1 + P2, P3, P4
    over n[i] intervals of [_T_FLOOR, t_max], yielded in turn (see
    ``_kernels.part_grid_probs``), with no reference kept to it."""
    # rows P1..P4 become t, r, P3, P4 in place; the times are those of
    # np.linspace(0, t_max, n + 1), computed as it computes them, each from
    # the part's one row of steps
    steps = np.arange(max(n) + 1.0)
    grids = _kernels.part_grid_probs(m, e, t_max, [count + 1 for count in n])
    for i, count in enumerate(n):
        pts = next(grids)
        pts[1] += pts[0]
        np.multiply(steps[:count + 1], t_max / count, out=pts[0])
        pts[0, count] = t_max
        pts[0, 0] = min(_T_FLOOR, pts[0, 1])
        if i == len(n) - 1:
            # the last cut runs with neither the steps nor the part's scan
            # factors, so find_t0's one point holds only its table
            del steps
            grids.close()
        yield pts
        # the table is dropped before the next one is allocated
        del pts


def _derivative_bounds(m, e, curvature, t_max):
    """Bounds (L, M, L3, M3, A3) on |r''|, |r'''|, |P3''|, |P3'''| and |a3|
    at every t in (0, t_max], the rows of a (5, P) array, from the modes
    ``m``, ``e`` of P points stacked on the first axis and their curvatures.
    The weight sums are stacked; the few products of each point's sums are
    cheaper as Python floats.

    r'' = 2 (a1'^2 + a1 a1'' + a2'^2 + a2 a2''), r''' = 2 (3 (a1' a1'' +
    a2' a2'') + a1 a1''' + a2 a2'''), and P3 = a3^2 likewise, where the sum
    S_i = sum_j |w_j| E_j^i of a row's weights bounds its derivative i.
    a3's derivative i has a second bound, its beat form: with a3 = w1 cos
    E1 t + w3 cos E3 t and w_j the weight smaller in size, a3 = (w1 + w3)
    cos E_k t + w_j (cos E_j t - cos E_k t), and E^i cos(E t) changes by at
    most i E1^(i-1) + E1^i t_max per unit of E, so |a3^(i)| <= |w1 + w3|
    E1^i + |w_j| (E1 - E3) (i E1^(i-1) + E1^i t_max), the tight one where
    the weights cancel and E1 ~ E3.  The sector state is a unit vector with
    frequencies up to E1, so the second-order bounds are also at most 4 E1^2
    <= ``curvature`` and the third-order ones at most 8 E1^3.
    """

    def bounds(s, w, e, curvature):
        (a1, a3), (a2, _) = s
        (w1, w3), (e1, e3) = w, e
        gap = min(abs(w1), abs(w3)) * (e1 - e3)
        a3 = [min(x, abs(w1 + w3) * e1 ** i + gap * ((i * e1 ** (i - 1) if i else 0.0) + e1 ** i * t_max))
              for i, x in enumerate(a3)]
        # Python's float ** is C pow; numpy's cube differs from it in the last bit
        cube = 8.0 * e1 ** 3
        return (
            min(curvature, 2.0 * (a1[1] * a1[1] + a1[0] * a1[2] + a2[1] * a2[1] + a2[0] * a2[2])),
            min(cube, 2.0 * (3.0 * (a1[1] * a1[2] + a2[1] * a2[2]) + a1[0] * a1[3] + a2[0] * a2[3])),
            min(curvature, 2.0 * (a3[1] * a3[1] + a3[0] * a3[2])),
            min(cube, 2.0 * (3.0 * a3[1] * a3[2] + a3[0] * a3[3])),
            a3[0],
        )

    # S_0..S_3 of the rows [[a1, a3], [a2, a4]], with the bits of the sums of
    # |derivative_weights|: |m E| = |m| E exactly
    w, f, f2 = np.abs(m), e[:, None, None], (e * e)[:, None, None]
    sums = np.stack((w, w * f, w * f2, w * f2 * f), axis=-1).sum(axis=-2)
    return np.array([bounds(*x) for x in zip(sums.tolist(), m[:, 0, 1].tolist(), e.tolist(), curvature)]).T


def _p3_floor(p3, curvature3, h, eps):
    """The P3 an interval's samples must reach for it to hold a candidate
    that can still win, where ``p3`` is the largest P3 of a feasible sample
    (one per threshold) and ``curvature3`` bounds |P3''|.  Between two
    samples P3 stays below the larger one plus slack3 = ``curvature3`` h^2 /
    8.  A feasible sample is a candidate, so the top candidate has at least
    ``p3``, and a point between samples below the floor has P3 below
    ``p3 - P3_TIE_TOL``, outside the tie band.  The margin 3 eps covers the
    error of the sampled and the refined P3 (each within eps, as a computed
    r is) and of this difference.
    """
    return p3 - P3_TIE_TOL - curvature3 * h * h / 8.0 - 3.0 * eps


@dataclass
class _Cells:
    """What refinement and selection read of a part's scans, as arrays over
    the cells: cell o = i K + j is threshold j of point i, for K thresholds,
    and node k, with end tables ``node_a[:, k]`` and ``node_b[:, k]`` (rows
    of ``_ends``, evaluated once, after the part's scan tables are dropped),
    belongs to cell ``node_own[k]``.
    Per cell (the last axis): ``q`` holds its point's ``derivative_weights``
    and frequencies and its threshold (see ``_solve``), ``bounds`` its
    point's ``_derivative_bounds``, whose A3 says whether all its P3 tie
    (see ``_classify``), ``best`` the point's sample of smallest r,
    ``eps`` the error of a computed r, ``level`` the threshold plus eps, or
    ``best`` less eps where that is larger, and ``floor`` the P3 floor (-inf
    without a feasible sample).  ``bound`` bounds r from below outside the
    nodes, and ``budget`` counts the midpoints bisection may evaluate.
    """

    params: list
    threshold: np.ndarray
    q: np.ndarray
    bounds: np.ndarray
    best: np.ndarray
    eps: np.ndarray
    level: np.ndarray
    floor: np.ndarray
    bound: np.ndarray
    budget: np.ndarray
    node_own: np.ndarray
    node_a: np.ndarray
    node_b: np.ndarray


def _cut(pts, thr, h, slack, lip3, eps):
    """Cut one point's scan table ``pts`` (step ``h``, slack of r ``slack``,
    bound ``lip3`` on |P3''|, error of a computed r ``eps``) down to the
    nodes of its cells at thresholds ``thr``, each pass for all of them.

    An interval is a node when its minorant of r, the smaller sample less
    the slack, is at most the level and, where a sample is feasible, its
    larger P3 sample reaches the P3 floor of the largest feasible P3.  Any
    other interval holds no feasible time or residual below the level, or
    nothing that can win or tie; its minorant is at least best - slack, so
    the cell's bound holds it.  The nodes come as threshold index and the
    (2, N) times of their ends.
    """
    times, r, p3 = pts[0], pts[1], pts[2]
    # the first sample of smallest r
    best = pts[:, r.argmin()].copy()
    # row j of a 2-d array belongs to threshold j
    level = np.maximum(thr + eps, best[1] - eps)
    keep = np.minimum(r[:-1], r[1:]) <= (level + slack)[:, None]
    floor = np.full(thr.size, -np.inf)
    feasible = (best[1] <= thr).nonzero()[0]
    if feasible.size:
        high = np.maximum(p3[:-1], p3[1:])
        top = np.array([p3[r <= thr[j]].max() for j in feasible])
        floor[feasible] = _p3_floor(top, lip3, h, eps)
        keep[feasible] &= high >= floor[feasible, None]
        slack3 = lip3 * h * h / 8.0
        # where P3 moves less than P3_TIE_TOL between samples, cap bounds every
        # candidate's P3, and a feasible sample within P3_TIE_TOL of it (less
        # rounding) is tied with the winner; after it an interval matters only
        # if it can raise the largest P3, and not at all if all P3 are tied
        for j in feasible if slack3 + 4.0 * eps <= P3_TIE_TOL else ():
            cap = np.max(high, where=keep[j], initial=-np.inf) + slack3 + 2.0 * eps
            tied = np.flatnonzero((p3 >= cap - P3_TIE_TOL + 2.0 * eps) & (r <= thr[j] - eps))
            if tied.size:
                after = max(tied[0], 1)
                keep[j, after:] &= high[after:] >= (floor[j] + P3_TIE_TOL if cap > P3_TIE_TOL else np.inf)
    own, at = np.divmod(np.flatnonzero(keep), times.size - 1)
    return best, level, floor, (own, np.stack((times[at], times[at + 1])))


def _cells(params, t_max, thresholds):
    """Set the points up together (see ``_setup``), scan and cut them in turn
    (see ``_scan`` and ``_cut``), one table at a time, then evaluate the
    node ends of the whole part in one ``_ends`` call with each node's modes
    gathered, with no table alive, and join what the cells read into one
    ``_Cells``."""
    thr = np.array(thresholds, dtype=float)
    k = thr.size
    m, e, n, d, bounds = _setup(params, t_max)
    # per point, as Python floats: the step, the slack of r and the error of a computed r
    h = [t_max / count for count in n]
    slack = [lip * x * x / 8.0 for lip, x in zip(bounds[0].tolist(), h)]
    eps = [_R_ERROR * (1.0 + x * t_max) for x in e[:, 0].tolist()]
    # map keeps no table once _cut returns, so one table lives at a time
    best, level, floor, nodes = zip(*map(
        _cut, _scan(m, e, n, t_max), itertools.repeat(thr), h, slack, bounds[2].tolist(), eps))
    own, times = zip(*nodes)

    def cells(x):
        """Per-point columns of x (an array or a list), one for each cell."""
        return np.repeat(x, k, axis=-1)

    threshold, best, level = np.tile(thr, len(params)), cells(np.transpose(best)), np.concatenate(level)
    # per cell, the rows of q that _ends reads, then the threshold
    q = np.concatenate((cells(np.concatenate((d.reshape(len(params), 24), e), axis=1).T), threshold[None]))
    own = np.concatenate([j + i * k for i, j in enumerate(own)])
    ends = _ends(q.take(own, axis=1)[:, None], np.concatenate(times, axis=1))
    return _Cells(
        list(params), threshold, q, cells(bounds), best, cells(eps), level, np.concatenate(floor),
        # every minorant is at least best - slack; where no sample is
        # feasible, that of an interval left out is above the level
        np.where(best[1] <= threshold, best[1] - cells(slack), level), SPLIT_BUDGET * cells(n),
        own, ends[:, 0], ends[:, 1],
    )


def _ends(q, t):
    """Rows t, r, P3, P4, r', r'', P3', P3'' at times ``t``, each with the
    modes of its column of ``q`` (see ``_solve``), from one elementwise
    ``derivative_rows`` evaluation: the same bits in any batch.  Callers
    gather the columns with ``take`` or ``compress``, which keep them
    contiguous; a fancy index on axis 1 leaves them strided, and every
    ufunc here runs slower on them."""
    cs = _kernels.derivative_rows(q[:24].reshape((2, 6, 2) + q.shape[1:]), q[24:26], t)
    # the amplitudes [[a1, a3], [a2, a4]] and their first two derivatives,
    # then a^2 and its derivatives 2 a a' and 2 (a'^2 + a a'')
    x, x1, x2 = cs[:, 0:2], cs[::-1, 2:4], cs[:, 4:6]
    sq, d1, d2 = x * x, x * x1, x1 * x1 + x * x2
    v = np.empty((8,) + cs.shape[2:])
    v[0] = t
    np.add(sq[0, 0], sq[1, 0], out=v[1])
    v[2:4] = sq[:, 1]
    v[4] = 2.0 * (d1[0, 0] + d1[1, 0])
    v[5] = 2.0 * (d2[0, 0] + d2[1, 0])
    v[6] = 2.0 * d1[0, 1]
    v[7] = 2.0 * d2[0, 1]
    return v


def _classify(c, own, a, b):
    """Which nodes (owners ``own``, end tables ``a``, ``b``) are resolved,
    their slack, a lower bound on r over each, and which hold one dip of r
    and one maximum of P3.  A node is resolved when r is proven monotone,
    convex, concave with an infeasible end, or feasible throughout by its
    majorant, and, where its minorant reaches the threshold (plus eps), P3
    is proven monotone or of one curvature sign, or all the cell's P3 tie:
    with |f''| <= L, |f'''| <= M and w = b - a, 2 f'(t) >= f'(a) + f'(b) -
    L w and 2 f''(t) >= f''(a) + f''(b) - M w on [a, b], and a computed P3
    lies in [0, A3^2 + eps], so all P3 tie where A3^2 + 2 eps <= P3_TIE_TOL
    (one more eps covers the rounding of A3^2).  The bound is the smaller
    end where r's shape is proven (a resolved dip is refined), the minorant
    elsewhere."""
    thr = c.threshold[own]
    lip, cub, lip3, cub3, amp3 = c.bounds[:, own]
    w = b[0] - a[0]

    def shape(row, lip, cub):
        """Whether f, with f' and f'' in rows ``row`` and ``row + 1`` of the
        end tables, is proven monotone, convex or concave on each node."""
        bend = a[row + 1] + b[row + 1]
        return np.abs(a[row] + b[row]) > lip * w, bend >= cub * w, bend <= -cub * w

    slack = lip * w * w / 8.0
    low = np.minimum(a[1], b[1])
    mono, convex, concave = shape(4, lip, cub)
    shaped = mono | convex | concave
    resolved = mono | convex | concave & ((a[1] > thr) | (b[1] > thr))
    resolved |= np.maximum(a[1], b[1]) + slack <= thr
    mono3, convex3, concave3 = shape(6, lip3, cub3)
    reach = low - slack <= thr + c.eps[own]
    resolved &= mono3 | convex3 | concave3 | ~reach | (amp3 * amp3 + 2.0 * c.eps[own] <= P3_TIE_TOL)
    dip = convex & (a[4] <= 0.0) & (b[4] > 0.0)
    low = np.where(shaped & (resolved | ~dip), low, low - slack)
    peak = resolved & reach & concave3 & (a[6] >= 0.0) & (b[6] < 0.0)
    return resolved, slack, low, resolved & dip, peak


def _bisect(c, own, a, b):
    """Split nodes at their midpoints (one kernel call) and keep the halves
    whose minorant of r reaches their cell's level and P3 samples its floor."""
    mid = _ends(c.q.take(own, axis=1), 0.5 * (a[0] + b[0]))
    own = np.concatenate((own, own))
    a, b = np.concatenate((a, mid), axis=1), np.concatenate((mid, b), axis=1)
    w = b[0] - a[0]
    go = np.minimum(a[1], b[1]) - c.bounds[0, own] * w * w / 8.0 <= c.level[own]
    go &= np.maximum(a[2], b[2]) >= c.floor[own]
    return own[go], a[:, go], b[:, go]


def _refine(c):
    """Resolve the nodes of cells ``c`` and solve each equation where the
    end signs prove one root; lower ``c.bound`` by what the nodes leave and
    return the owners and point tables of the candidates: the node ends,
    then the refined dips, edges and P3 maxima.

    ``_cells`` evaluated the node ends, and each level of bisecting those
    ``_classify`` leaves unresolved is one kernel call.  A node whose cell
    has used its budget, or whose slack is below eps, stops: its minorant
    enters the bound.  A solve starts at the regula-falsi point of the end
    values:

    - r' = 0 where r' goes from - to + in a convex node;
    - r = threshold where feasibility changes across a node with no dip,
      and between a feasible dip and each infeasible end;
    - P3' = 0 where P3' goes from + to - in a concave-P3 node with a
      feasible end or dip.

    So the largest P3 of a node's feasible part lies at a candidate, and its
    smallest r at an end or the dip.  A node's result has the same bits
    alone or in any batch, so a sweep cell equals ``find_t0``.
    """
    own, a, b = c.node_own, c.node_a, c.node_b
    used = np.zeros(c.budget.size)
    nodes = []
    while True:
        resolved, slack, low, dip, peak = _classify(c, own, a, b)
        node = (own, a, b, resolved, low, dip, peak)
        split = ~resolved & (used[own] < c.budget[own]) & (slack >= c.eps[own])
        if not split.any():
            break
        nodes.append([x[..., ~split] for x in node])
        own = own[split]
        used += np.bincount(own, minlength=used.size)
        own, a, b = _bisect(c, own, a[:, split], b[:, split])
    nodes.append(node)
    own, a, b, resolved, low, dip, peak = (
        x[0] if len(x) == 1 else np.concatenate(x, axis=-1) for x in zip(*nodes))
    np.minimum.at(c.bound, own, low)
    thr = c.threshold[own]

    def solve(kind, at, lo, hi, f_lo, f_hi):
        if not at.size:
            return np.empty((4, 0))
        return _solve(kind, lo, hi, c.q.take(at, axis=1), lo[0] + f_lo * (hi - lo[0]) / (f_lo - f_hi))

    dips = solve(_DIP, own[dip], a[:4, dip], b[0, dip], a[4, dip], b[4, dip])
    # the point tables at the ends of the resolved nodes, each split at its
    # dip, and at the feasible and infeasible end of those that hold an edge
    flat = resolved & ~dip
    edge_own = np.concatenate((own[flat], own[dip], own[dip]))
    lo = np.concatenate((a[:4, flat], a[:4, dip], dips), axis=1)
    hi = np.concatenate((b[:4, flat], dips, b[:4, dip]), axis=1)
    level = c.threshold[edge_own]
    feasible = lo[1] <= level
    cross = feasible != (hi[1] <= level)
    inside, outside = np.where(feasible, lo, hi)[:, cross], np.where(feasible, hi, lo)[:, cross]
    edge_own, level = edge_own[cross], level[cross]
    edges = solve(_EDGE, edge_own, inside, outside[0], inside[1] - level, outside[1] - level)
    # a maximum of P3 counts where its node holds a feasible point
    hold = (a[1] <= thr) | (b[1] <= thr)
    hold[dip] |= dips[1] <= thr[dip]
    peak &= hold
    maxima = solve(_P3MAX, own[peak], a[:4, peak], b[0, peak], -a[6, peak], -b[6, peak])
    return (
        np.concatenate((own, own, own[dip], edge_own, own[peak])),
        np.concatenate((a[:4], b[:4], dips, edges, maxima), axis=1),
    )


def _solve(kind, lo, hi, q, start):
    """The point table at one root of equation ``kind`` per bracket [t, hi]
    with f(t) <= 0 < f(hi), where ``lo`` holds the point tables (t, r, P3,
    P4) of the f <= 0 ends, by bracketed Newton (rtsafe), one kernel call
    per iteration over all open brackets; column j of ``q`` is bracket j's
    ``derivative_weights``, frequencies and threshold.  f is r' for a dip,
    r - threshold for an edge, whose ``lo`` is its feasible end, -P3' for
    a maximum of P3.

    A Newton step leaving the bracket, or not halving the previous step,
    bisects instead (one landing on an end is kept).  A step below the
    tolerance 1e-12 max(1, t) is pushed that far past the root and ends the
    solve.  Newton starts at ``start``.  The result is ``lo`` or the last
    point evaluated with f <= 0, so an edge is feasible under the same
    closed form, and depends on its bracket alone.
    """

    def equation(q, t):
        v = _ends(q, t)
        f, df = (v[4], v[5]) if kind == _DIP else (v[1] - q[26], v[4]) if kind == _EDGE else (-v[6], -v[7])
        return f, df, v[:4]

    x, out = start, lo.copy()
    f, df, pts = equation(q, x)
    idx, a, b, step = np.arange(x.size), lo[0], hi, np.abs(hi - lo[0])
    final = np.zeros(x.size, dtype=bool)
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
                q = q.compress(go, axis=1)
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
            f, df, pts = equation(q, x)
    return out


def _part(params, thresholds, t_max):
    """The results of one sweep part of points, point by point and, within
    a point, threshold by threshold: the part's points are set up together,
    one point table lives at a time, and the nodes of all the part's cells
    are refined together."""
    c = _cells(params, t_max, thresholds)
    return _select(c, *_refine(c), thresholds, t_max)


def _firsts(own, key):
    """For each owner in ``own``, in increasing order, the index of its
    first point of smallest ``key``."""
    order = np.lexsort((key, own))
    own = own[order]
    return order[own != np.concatenate(([-1], own[:-1]))]


def _select(c, own, cand, thresholds, t_max):
    """The result of each cell from its candidates (see ``_refine``).

    An infeasible cell, with neither a feasible best sample nor a feasible
    candidate, reports the smallest residual seen.  A feasible one reports
    the earliest feasible candidate within P3_TIE_TOL of its largest
    feasible P3, the first in the order of ``cand`` where times tie.  The
    bound is the smallest of ``c.bound`` and the r seen, less eps.
    """
    thr = c.threshold
    rows = c.best.copy()
    at = _firsts(own, cand[1])
    at = at[cand[1, at] < rows[1, own[at]]]
    rows[:, own[at]] = cand[:, at]
    bound = np.maximum(0.0, np.minimum(c.bound, rows[1]) - c.eps)
    feasible = rows[1] <= thr
    if feasible.any():
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
        OptimizeResult(c.params[o // k], thresholds[o % k], t_max, f, *row, b)
        for o, (f, row, b) in enumerate(zip(feasible.tolist(), rows.T.tolist(), bound.tolist()))
    ]


def _check_threshold(threshold):
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")


def find_t0(p, threshold, t_max=DEFAULT_T_MAX):
    """Best measurement time under the entanglement-condition threshold."""
    _check_threshold(threshold)
    _check_t_max(t_max)
    return _part([p], [threshold], t_max)[0]


def sweep(g_range, gprime_range, steps, threshold_exponents, t_max=DEFAULT_T_MAX, progress=None):
    """One SweepGrid per threshold exponent over a (g, g') grid.

    ``steps`` is an int (same count per axis) or a pair of ints, and each
    range a pair (low, high).  Each result equals find_t0 at its threshold.
    The grid is flattened row-major and run in parts of _PART_POINTS points,
    which may split and span rows (see ``_part``), and ``progress(done)`` is
    called once per point after its part.  Grids over MAX_CELLS cell results
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
    _setup([CouplingParams.symmetric(g_range[1], gprime_range[1])], t_max)
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
    total = steps[0] * steps[1]
    if total * len(exps) > MAX_CELLS:
        raise ValueError(f"the sweep needs {total * len(exps)} cell results, more than {MAX_CELLS}: coarsen the grid")

    g_values = np.linspace(g_range[0], g_range[1], steps[0])
    gprime_values = np.linspace(gprime_range[0], gprime_range[1], steps[1])
    # one list of results per exponent, row-major
    results = [[] for _ in exps]
    for at in range(0, total, _PART_POINTS):
        i, k = np.divmod(np.arange(at, min(at + _PART_POINTS, total)), steps[1])
        part = _part([CouplingParams.symmetric(g, gp) for g, gp in zip(g_values[i].tolist(), gprime_values[k].tolist())],
                     thresholds, t_max)
        for j, cells in enumerate(results):
            cells += part[j::len(exps)]
        if progress is not None:
            for done in range(at + 1, at + i.size + 1):
                progress(done)
    starts = range(0, total, steps[1])
    return [SweepGrid(g_values, gprime_values, int(j), tuple(tuple(cells[i:i + steps[1]]) for i in starts))
            for j, cells in zip(exps, results)]


def emit_fig4_traces(params_list, t_max=DEFAULT_T_MAX, n_steps=DEFAULT_N_STEPS, threshold=1e-6):
    """Traces plus annotated optimal times for a list of parameter points."""
    return [
        Fig4Trace(trace(p, t_max=t_max, n_steps=n_steps), find_t0(p, threshold, t_max=t_max))
        for p in params_list
    ]
