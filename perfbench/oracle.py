"""Independent correctness checks for optimizer results.

Every ``OptimizeResult`` is re-derived from the scaled Taylor-series
propagator (``propagator_oracle``), which shares no code with the
eigendecomposition path the optimizer uses.  A result passes when its
reported probabilities agree with the oracle state at ``t0`` and a
"feasible" claim holds there.
"""

AGREE_TOL = 1e-9
FEASIBLE_SLACK = 1e-12
T_MAX = 200.0


def oracle_state(sq, p, t):
    """Phi-basis state at time t and its (P1, P2, P3, P4), by Taylor series."""
    psi = sq.propagator_oracle(sq.build_h_full(p), t) @ sq.model.dark_state_full(p)
    return psi, sq.probabilities(sq.amplitudes(psi))


def check_result(sq, res, p, threshold, t_max=T_MAX):
    """Check one OptimizeResult for point ``p`` against the oracle.

    Returns ``(problems, psi, probs)``: the problems found (empty when it
    passes), and the oracle state at ``t0`` with its (P1, P2, P3, P4), both
    None when ``t0`` is unusable.
    """
    problems = []
    if res.params != p:
        problems.append(f"params {res.params} != requested {p}")
    if res.threshold != threshold or res.t_max != t_max:
        problems.append(f"threshold/t_max {res.threshold}/{res.t_max} != {threshold}/{t_max}")
    if not (0.0 < res.t0 <= t_max):
        problems.append(f"t0 {res.t0!r} outside (0, {t_max}]")
        return problems, None, None
    psi, (p1, p2, p3, p4) = oracle_state(sq, p, res.t0)
    for name, got, want in (("p1p2", res.p1p2, p1 + p2), ("p3", res.p3, p3), ("p4", res.p4, p4)):
        if not abs(got - want) <= AGREE_TOL:
            problems.append(f"{name} {got!r} vs oracle {want!r}")
    if res.feasible and not (p1 + p2 <= threshold + FEASIBLE_SLACK):
        problems.append(f"claimed feasible but oracle P1+P2 = {p1 + p2!r} > {threshold}")
    return problems, psi, (p1, p2, p3, p4)


def quality(res, problems, probs):
    """(confirmed_feasible, p3_score) of one (point, threshold) result: only an
    oracle-confirmed feasible result scores, with the oracle's P3."""
    if res.feasible and not problems:
        return True, float(probs[2])
    return False, 0.0
