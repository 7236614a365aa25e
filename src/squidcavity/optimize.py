"""Measurement-time optimization and (g, g') feasibility sweeps.

The entanglement condition P1(t0) = P2(t0) = 0 is operationalized as
P1 + P2 <= threshold.  Within the feasible set the target-state
probability P3 is maximized: a dense deterministic scan brackets every
candidate and one safeguarded Newton solve on the closed-form
derivatives refines them; infeasible cells are first-class results
carrying the best residual found.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import DEFAULT_N_STEPS, DEFAULT_T_MAX, MAX_CELLS, MAX_SAMPLES, sector_modes, trace
from .dynamics import _check_phase, _check_t_max

SCAN_STEP_BASE = 0.01
P3_TIE_TOL = 1e-9
_T_FLOOR = 1e-12
_X_TOL = 1e-12
_MAX_ITER = 100
# equations a solve can carry: r' = 0, r = level, P3' = 0
_DIP, _EDGE, _P3MAX = 0, 1, 2


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
    pi_over_gprime: float


@dataclass(frozen=True)
class SweepGrid:
    """Per-threshold grid of OptimizeResults, indexed [i_g][i_gprime]."""

    g_values: np.ndarray
    gprime_values: np.ndarray
    threshold_exponent: int
    cells: tuple


@dataclass(frozen=True)
class Fig4Trace:
    """Evolution trace plus the annotated optimal measurement time."""

    trace: object
    result: OptimizeResult
    pi_over_gprime: float
    pi_over_2gprime: float
    dev_pi_over_gprime: float
    dev_pi_over_2gprime: float


def _scan_setup(p, t_max):
    """Modes and scan length for one point.  Rejects a phase E1*t_max that
    double precision cannot resolve and a scan longer than MAX_SAMPLES."""
    w, e = sector_modes(p)
    _check_phase(e, t_max)
    step = SCAN_STEP_BASE / max(1.0, p.g1, p.g_prime)
    n = int(np.ceil(t_max / step))
    if n > MAX_SAMPLES:
        raise ValueError(f"the scan needs {n} samples, more than {MAX_SAMPLES}: lower t_max")
    return w, e, n


def _scan(p, t_max):
    """Dense deterministic scan over [_T_FLOOR, t_max].

    Returns ``(w, e, pts, dip_i, dips)``: the modes, a point table with rows
    t, r = P1 + P2, P3, P4, the sample indices of the 3-point minima of r and
    the point table of their Newton-refined minima.
    """
    w, e, n = _scan_setup(p, t_max)
    times = np.linspace(0.0, t_max, n + 1)
    times[0] = min(_T_FLOOR, times[1])
    p1, p2, p3, p4 = _kernels.scan_probs(w, e, times)
    pts = np.vstack((times, p1 + p2, p3, p4))
    dip_i = _peaks(-pts[1])
    return w, e, pts, dip_i, _solve(w, e, _DIP, *_around(times, dip_i), 0.0)


def _peaks(x):
    """Indices where x is >= both neighbours (a missing neighbour never wins)."""
    padded = np.concatenate(([-np.inf], x, [-np.inf]))
    return np.flatnonzero((x >= padded[:-2]) & (x >= padded[2:]))


def _around(times, idx):
    """Bracket [t_{i-1}, t_{i+1}] around samples idx, clipped to the grid.

    Every probability is even in t, so t = 0 is an exact critical point: the
    first sample gets the empty bracket [t_0, t_0] and stays as sampled.
    """
    hi = np.where(idx > 0, np.minimum(idx + 1, times.size - 1), 0)
    return times[np.maximum(idx - 1, 0)], times[hi]


def _equation(w, e, kind, level, t):
    """f and f' of equation ``kind`` at t, and the point table there.

    The signs make a wanted root an upward crossing: r' for a minimum of r,
    r - level for an edge whose feasible end is ``lo``, -P3' for a maximum.
    """
    a, da, dda = _kernels.mode_derivatives(w, e, t)
    p = a * a
    r = p[0] + p[1]
    if kind == _P3MAX:
        f, df = -2.0 * a[2] * da[2], -2.0 * (da[2] * da[2] + a[2] * dda[2])
    else:
        dr = 2.0 * (a[0] * da[0] + a[1] * da[1])
        if kind == _DIP:
            f, df = dr, 2.0 * (da[0] * da[0] + a[0] * dda[0] + da[1] * da[1] + a[1] * dda[1])
        else:
            f, df = r - level, dr
    return f, df, np.vstack((t, r, p[2], p[3]))


def _solve(w, e, kind, lo, hi, level):
    """One root of equation ``kind`` per bracket [lo, hi] by bracketed
    Newton (rtsafe), one kernel call per iteration over all open brackets.

    A Newton step leaving the bracket, or not halving the previous step,
    bisects instead (one landing on an end is kept).  A step below the
    tolerance 1e-12 max(1, t) is pushed that far past the root and ends the
    solve.  The result is the last point evaluated with f <= 0, so an edge
    is feasible under the same closed form; a bracket without the sign
    change f(lo) <= 0 < f(hi) returns its midpoint.  Returns the point table.
    """
    m = lo.size
    if m == 0:
        return np.empty((4, 0))
    mid = 0.5 * (lo + hi)
    f, df, pts = _equation(w, e, kind, level, np.concatenate((lo, hi, mid)))
    idx = np.flatnonzero((f[:m] <= 0.0) & (f[m:2 * m] > 0.0))
    out = pts[:, 2 * m:].copy()
    out[:, idx] = pts[:, idx]
    a, b, x, step = lo[idx], hi[idx], mid[idx], np.abs(hi - lo)[idx]
    f, df, pts = f[2 * m + idx], df[2 * m + idx], pts[:, 2 * m + idx]
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
            f, df, pts = _equation(w, e, kind, level, x)
    return out


def _result(p, threshold, t_max, feasible, row):
    gp = p.g_prime
    return OptimizeResult(
        params=p, threshold=threshold, t_max=t_max, feasible=feasible,
        t0=float(row[0]), p1p2=float(row[1]), p3=float(row[2]), p4=float(row[3]),
        pi_over_gprime=np.pi / gp if gp > 0 else np.inf,
    )


def _find_from_scan(p, scan, threshold, t_max):
    w, e, pts, dip_i, dips = scan
    times, r, p3 = pts[0], pts[1], pts[2]

    feas = r <= threshold
    dip_feas = dips[1] <= threshold
    if not feas.any() and not dip_feas.any():
        # infeasible: report the smallest residual seen
        best = pts[:, np.argmin(r)]
        if dips.size and dips[1].min() < best[1]:
            best = dips[:, np.argmin(dips[1])]
        return _result(p, threshold, t_max, False, best)

    # edges r = threshold between feasible/infeasible neighbours, and on both
    # sides of each feasible dip that falls between infeasible samples
    cut = np.flatnonzero(feas[:-1] != feas[1:])
    inside = np.where(feas[cut], cut, cut + 1)
    outside = np.where(feas[cut], cut + 1, cut)
    narrow = dip_feas & ~feas[dip_i]
    dip_lo, dip_hi = _around(times, dip_i[narrow])
    edge_lo = np.concatenate((times[inside], dips[0, narrow], dips[0, narrow]))
    edge_hi = np.concatenate((times[outside], dip_lo, dip_hi))
    edges = _solve(w, e, _EDGE, edge_lo, edge_hi, threshold)

    # P3 maxima next to feasible 3-point maxima of P3, and between each
    # edge and the feasible end of its bracket
    peak = _peaks(p3)
    peak = peak[feas[peak]]
    peak_lo, peak_hi = _around(times, peak)
    maxima = _solve(
        w, e, _P3MAX,
        np.concatenate((peak_lo, np.minimum(edge_lo, edges[0]))),
        np.concatenate((peak_hi, np.maximum(edge_lo, edges[0]))),
        threshold,
    )

    # the feasible samples bracketing maxima and edges stay candidates too
    cand = np.hstack((pts[:, peak], pts[:, inside], dips[:, dip_feas], edges, maxima))
    cand = cand[:, cand[1] <= threshold]
    near = cand[2] >= cand[2].max() - P3_TIE_TOL
    return _result(p, threshold, t_max, True, cand[:, near][:, np.argmin(cand[0, near])])


def find_t0(p, threshold, t_max=DEFAULT_T_MAX):
    """Best measurement time under the entanglement-condition threshold."""
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    _check_t_max(t_max)
    return _find_from_scan(p, _scan(p, t_max), threshold, t_max)


def sweep(
    g_range,
    gprime_range,
    steps,
    threshold_exponents,
    t_max=DEFAULT_T_MAX,
    progress=None,
):
    """One SweepGrid per threshold exponent over a (g, g') grid.

    ``steps`` is an int (same count per axis) or a pair.  Each cell is one
    scan shared by all thresholds, and each of its results equals find_t0
    at that threshold.  Grids over MAX_CELLS cell results are rejected.
    """
    from .model import CouplingParams

    if isinstance(steps, int):
        steps = (steps, steps)
    if steps[0] < 1 or steps[1] < 1:
        raise ValueError("steps must be >= 1 per axis")
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
    n = steps[0] * steps[1] * len(exps)
    if n > MAX_CELLS:
        raise ValueError(f"the sweep needs {n} cell results, more than {MAX_CELLS}: coarsen the grid")

    g_values = np.linspace(g_range[0], g_range[1], steps[0])
    gprime_values = np.linspace(gprime_range[0], gprime_range[1], steps[1])
    # one list of results per cell (one result per exponent), row-major
    results = []
    for g in g_values:
        for gp in gprime_values:
            p = CouplingParams.symmetric(float(g), float(gp))
            scan = _scan(p, t_max)
            results.append([_find_from_scan(p, scan, 10.0 ** (-j), t_max) for j in exps])
            if progress is not None:
                progress(len(results))
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
    out = []
    for p in params_list:
        tr = trace(p, t_max=t_max, n_steps=n_steps)
        res = find_t0(p, threshold, t_max=t_max)
        gp = p.g_prime
        pi_g = np.pi / gp if gp > 0 else np.inf
        out.append(
            Fig4Trace(
                trace=tr,
                result=res,
                pi_over_gprime=pi_g,
                pi_over_2gprime=pi_g / 2.0,
                dev_pi_over_gprime=abs(res.t0 - pi_g),
                dev_pi_over_2gprime=abs(res.t0 - pi_g / 2.0),
            )
        )
    return out
