"""Measurement-time optimization and (g, g') feasibility sweeps.

The entanglement condition P1(t0) = P2(t0) = 0 is operationalized as
P1 + P2 <= threshold.  Within the feasible set the target-state
probability P3 is maximized by a dense deterministic scan followed by
local refinement; infeasible cells are first-class results carrying the
best residual found.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .dynamics import DEFAULT_N_STEPS, DEFAULT_T_MAX, _check_t_max, sector_modes, trace

SCAN_STEP_BASE = 0.01
REFINE_DT = 1e-6
P3_TIE_TOL = 1e-9
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_T_FLOOR = 1e-12


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


def _probs(w, e, ts):
    return _kernels.scan_probs(w, e, np.ascontiguousarray(ts, dtype=np.float64))


def _scan(p, t_max):
    """Dense deterministic scan; returns everything refinement needs."""
    w, e = sector_modes(p)
    step = SCAN_STEP_BASE / max(1.0, p.g1, p.g_prime)
    n = int(np.ceil(t_max / step))
    times = np.linspace(t_max / n, t_max, n)
    p1, p2, p3, p4 = _probs(w, e, times)
    return {
        "w": w,
        "e": e,
        "step": t_max / n,
        "times": times,
        "r": p1 + p2,
        "p3": p3,
    }


def _refine_dips(data, t_max):
    """Golden-section refinement of every local minimum of P1 + P2."""
    times = data["times"]
    r = data["r"]
    n = times.shape[0]
    interior = np.where((r[1:-1] <= r[:-2]) & (r[1:-1] <= r[2:]))[0] + 1
    idx = list(interior)
    if n >= 2 and r[0] <= r[1]:
        idx.insert(0, 0)
    if n >= 2 and r[-1] <= r[-2]:
        idx.append(n - 1)
    if not idx:
        return np.empty(0), np.empty(0)
    idx = np.array(idx)
    lo = np.where(idx > 0, times[np.maximum(idx - 1, 0)], _T_FLOOR)
    hi = np.where(idx < n - 1, times[np.minimum(idx + 1, n - 1)], t_max)
    w, e = data["w"], data["e"]
    for _ in range(70):
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        q1, q2, _, _ = _probs(w, e, x1)
        r1 = q1 + q2
        q1, q2, _, _ = _probs(w, e, x2)
        r2 = q1 + q2
        left = r1 < r2
        hi = np.where(left, x2, hi)
        lo = np.where(left, lo, x1)
        if np.max(hi - lo) < 1e-12:
            break
    t_ref = 0.5 * (lo + hi)
    q1, q2, _, _ = _probs(w, e, t_ref)
    return t_ref, q1 + q2


def _hill_climb(data, cand, threshold, t_max):
    """Maximize P3 subject to P1+P2 <= threshold, step-halving to 1e-6."""
    w, e = data["w"], data["e"]
    cur = cand.copy()
    h = np.full(cur.shape, data["step"])
    q1, q2, p3c, _ = _probs(w, e, cur)
    best = p3c
    for _ in range(400):
        if np.all(h <= REFINE_DT):
            break
        left = np.clip(cur - h, _T_FLOOR, t_max)
        right = np.clip(cur + h, _T_FLOOR, t_max)
        l1, l2, p3l, _ = _probs(w, e, left)
        r1, r2, p3r, _ = _probs(w, e, right)
        p3l = np.where(l1 + l2 <= threshold, p3l, -1.0)
        p3r = np.where(r1 + r2 <= threshold, p3r, -1.0)
        go_left = (p3l > best) & (p3l >= p3r)
        go_right = (p3r > best) & ~go_left
        cur = np.where(go_left, left, np.where(go_right, right, cur))
        best = np.where(go_left, p3l, np.where(go_right, p3r, best))
        h = np.where(go_left | go_right, h, h / 2.0)
    return cur, best


def _point(w, e, t):
    p1, p2, p3, p4 = _probs(w, e, np.array([t]))
    return float(p1[0] + p2[0]), float(p3[0]), float(p4[0])


MAX_CANDIDATES = 512


def _find_from_scan(p, data, threshold, t_max):
    w, e = data["w"], data["e"]
    times, r, p3 = data["times"], data["r"], data["p3"]
    if "dips" not in data:
        data["dips"] = _refine_dips(data, t_max)
    dip_t, dip_r = data["dips"]

    feas = r <= threshold
    cand = []
    if np.any(feas):
        prev = np.roll(p3, 1)
        nxt = np.roll(p3, -1)
        prev[0] = -1.0
        nxt[-1] = -1.0
        local_max = feas & (p3 >= prev) & (p3 >= nxt)
        prev_f = np.roll(feas, 1)
        next_f = np.roll(feas, -1)
        prev_f[0] = False
        next_f[-1] = False
        boundary = feas & (~prev_f | ~next_f)
        cand.append(times[local_max | boundary])
    if dip_t.size:
        cand.append(dip_t[dip_r <= threshold])
    cand = np.concatenate(cand) if cand else np.empty(0)
    if cand.size > MAX_CANDIDATES:
        # keep the best-scoring candidates; stable order keeps determinism
        _, _, p3c, _ = _probs(w, e, cand)
        keep = np.argsort(-p3c, kind="stable")[:MAX_CANDIDATES]
        cand = cand[np.sort(keep)]

    gp = p.g_prime
    pi_over = np.pi / gp if gp > 0 else np.inf

    if cand.size == 0:
        # infeasible: report the smallest residual seen
        best_t = float(times[np.argmin(r)])
        best_r = float(np.min(r))
        if dip_t.size and float(np.min(dip_r)) < best_r:
            k = int(np.argmin(dip_r))
            best_t, best_r = float(dip_t[k]), float(dip_r[k])
        r0, p3v, p4v = _point(w, e, best_t)
        return OptimizeResult(
            params=p, threshold=threshold, t_max=t_max, feasible=False,
            t0=best_t, p1p2=r0, p3=p3v, p4=p4v, pi_over_gprime=pi_over,
        )

    t_fin, p3_fin = _hill_climb(data, cand, threshold, t_max)
    top = np.max(p3_fin)
    near = p3_fin >= top - P3_TIE_TOL
    t0 = float(np.min(t_fin[near]))
    r0, p3v, p4v = _point(w, e, t0)
    return OptimizeResult(
        params=p, threshold=threshold, t_max=t_max, feasible=True,
        t0=t0, p1p2=r0, p3=p3v, p4=p4v, pi_over_gprime=pi_over,
    )


def find_t0(p, threshold, t_max=DEFAULT_T_MAX):
    """Best measurement time under the entanglement-condition threshold."""
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must lie in (0, 1)")
    _check_t_max(t_max)
    data = _scan(p, t_max)
    return _find_from_scan(p, data, threshold, t_max)


def sweep(
    g_range,
    gprime_range,
    steps,
    threshold_exponents,
    t_max=DEFAULT_T_MAX,
    progress=None,
):
    """One SweepGrid per threshold exponent over a (g, g') grid.

    ``steps`` is an int (same count per axis) or a pair.  The per-cell scan
    is shared across thresholds; results are forced monotone across
    exponents (a point feasible at 10^-j stays available at looser ones).
    """
    from .model import CouplingParams

    if isinstance(steps, int):
        steps = (steps, steps)
    if steps[0] < 1 or steps[1] < 1:
        raise ValueError("steps must be >= 1 per axis")
    if not (0 < g_range[0] <= g_range[1]) or not (0 < gprime_range[0] <= gprime_range[1]):
        raise ValueError("ranges must be positive and ordered")
    _check_t_max(t_max)
    exps = list(threshold_exponents)
    if not exps or any(int(j) != j or j < 1 for j in exps):
        raise ValueError("threshold exponents must be positive integers")

    g_values = np.linspace(g_range[0], g_range[1], steps[0])
    gprime_values = np.linspace(gprime_range[0], gprime_range[1], steps[1])
    per_exp = {j: [] for j in exps}
    n_done = 0
    for g in g_values:
        rows = {j: [] for j in exps}
        for gp in gprime_values:
            p = CouplingParams.symmetric(float(g), float(gp))
            data = _scan(p, t_max)
            tightest_first = sorted(set(exps), reverse=True)
            best = None
            cell = {}
            for j in tightest_first:
                res = _find_from_scan(p, data, 10.0 ** (-j), t_max)
                if best is not None and best.feasible and (
                    not res.feasible or res.p3 < best.p3
                ):
                    # a point certified at a tighter threshold is still valid here
                    res = OptimizeResult(
                        params=p, threshold=10.0 ** (-j), t_max=t_max,
                        feasible=True, t0=best.t0, p1p2=best.p1p2,
                        p3=best.p3, p4=best.p4,
                        pi_over_gprime=best.pi_over_gprime,
                    )
                if best is None or (res.feasible and res.p3 >= (best.p3 if best.feasible else -1.0)):
                    best = res
                cell[j] = res
            for j in exps:
                rows[j].append(cell[j])
            n_done += 1
            if progress is not None:
                progress(n_done)
        for j in exps:
            per_exp[j].append(tuple(rows[j]))
    return [
        SweepGrid(
            g_values=g_values,
            gprime_values=gprime_values,
            threshold_exponent=int(j),
            cells=tuple(per_exp[j]),
        )
        for j in exps
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
