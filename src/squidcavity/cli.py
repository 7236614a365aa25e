"""Command-line surface: eigenanalysis, evolution, optimization, sweeps.

All quantities are dimensionless (energies in units of the drive Omega,
times in 1/Omega).  Output is CSV or JSON; identical configuration yields
byte-identical output.  Exit codes: 0 success, 1 usage/validation error,
2 infeasible when --require-feasible was given.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import DEFAULT_N_STEPS, DEFAULT_T_MAX, amplitudes, evolve, probabilities, trace
from .model import CouplingParams, PHI_BASIS, analytic_eigenvalues, spectrum
from .optimize import emit_fig4_traces, find_t0, sweep

SCHEMA_VERSION = 1
UNIT_BANNER = "units: energies in Omega, times in 1/Omega"

PAPER_TRIPLES = ((0.25, 1.89), (2.95, 1.10), (0.60, 1.37))

DEFAULT_GRID = "0.05:3.0:60,0.05:3.0:60"


class CliError(Exception):
    """Usage or validation failure (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _fmt(x):
    return f"{float(x):.17g}"


def _num(x):
    x = float(x)
    return x if np.isfinite(x) else None


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file; flags override its values")
    sp.add_argument("--g", type=float, help="symmetric cavity coupling (Omega units)")
    sp.add_argument("--gprime", type=float, help="auxiliary-SQUID coupling (Omega units)")
    sp.add_argument("--g1", type=float)
    sp.add_argument("--g2", type=float)
    sp.add_argument("--omega1", type=float)
    sp.add_argument("--omega2", type=float)
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default=None)


def build_parser():
    parser = _Parser(
        prog="squidcavity",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eig", help="analytic and numeric spectrum for (g, g')")
    _add_common(sp)

    sp = sub.add_parser("evolve", help="state amplitudes and P1..P4 at one time")
    _add_common(sp)
    sp.add_argument("--t", type=float, help="evolution time (1/Omega)")

    sp = sub.add_parser(
        "trace", help="time trace; CSV columns t,P1,P2,P3,P4,sum"
    )
    _add_common(sp)
    sp.add_argument("--t-max", type=float, default=None)
    sp.add_argument("--n-steps", type=int, default=None)

    sp = sub.add_parser("optimize", help="best measurement time for one (g, g')")
    _add_common(sp)
    sp.add_argument("--t-max", type=float, default=None)
    sp.add_argument("--threshold-exp", type=int, action="append",
                    help="j in P1+P2 <= 10^-j (default 6)")
    sp.add_argument("--require-feasible", action="store_true")

    sp = sub.add_parser(
        "sweep",
        help="feasibility map; CSV columns g,gprime,j,feasible,t0,p3,p1p2",
    )
    _add_common(sp)
    sp.add_argument("--t-max", type=float, default=None)
    sp.add_argument("--threshold-exp", type=int, action="append")
    sp.add_argument("--grid", default=None,
                    help='"gmin:gmax:n,gpmin:gpmax:n" (default %s)' % DEFAULT_GRID)

    sp = sub.add_parser(
        "fig4", help="trace bundle with annotated t0 for the paper-style triples"
    )
    _add_common(sp)
    sp.add_argument("--t-max", type=float, default=None)
    sp.add_argument("--n-steps", type=int, default=None)
    sp.add_argument("--threshold-exp", type=int, action="append")

    return parser


_CONFIG_KEYS = {
    "g", "gprime", "g1", "g2", "omega1", "omega2", "t", "t_max", "n_steps",
    "threshold_exp", "grid", "out", "format", "require_feasible",
}


def _merge_config(ns):
    if not ns.config:
        return ns
    path = Path(ns.config)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise CliError(f"{path}: config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise CliError(f"{path}: unknown config keys: {sorted(unknown)}")
    for key, val in cfg.items():
        if getattr(ns, key, None) in (None, False):
            setattr(ns, key, val)
    return ns


def _resolve_params(ns):
    general = [ns.g1, ns.g2, ns.omega1, ns.omega2]
    if any(v is not None for v in general):
        if any(v is None for v in general):
            raise CliError("--g1/--g2/--omega1/--omega2 must be given together")
        gp = ns.gprime if ns.gprime is not None else 0.0
        try:
            return CouplingParams(
                g1=ns.g1, g2=ns.g2, omega1=ns.omega1, omega2=ns.omega2, g_prime=gp
            )
        except ValueError as exc:
            raise CliError(str(exc))
    if ns.g is None:
        raise CliError("--g is required (or the --g1/--g2/--omega1/--omega2 group)")
    gp = ns.gprime if ns.gprime is not None else 0.0
    try:
        return CouplingParams.symmetric(ns.g, gp)
    except ValueError as exc:
        raise CliError(str(exc))


def _parse_grid(spec):
    try:
        parts = spec.split(",")
        if len(parts) != 2:
            raise ValueError
        axes = []
        for part in parts:
            lo, hi, n = part.split(":")
            axes.append((float(lo), float(hi), int(n)))
        return axes
    except ValueError:
        raise CliError(f'bad --grid {spec!r}; expected "gmin:gmax:n,gpmin:gpmax:n"')


def _write(text, ns):
    if ns.out:
        with open(ns.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, csv_lines, ns):
    fmt = ns.format or ("csv" if ns.out and str(ns.out).endswith(".csv") else "json")
    if fmt == "json":
        _write(json.dumps(payload, indent=2) + "\n", ns)
    else:
        _write("\n".join(csv_lines) + "\n", ns)


def _banner():
    print(UNIT_BANNER, file=sys.stderr)


def _cmd_eig(ns):
    p = _resolve_params(ns)
    try:
        analytic = analytic_eigenvalues(p)
    except ValueError as exc:
        raise CliError(str(exc))
    _banner()
    numeric = spectrum(p)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "eig",
        "g": _num(p.g1),
        "gprime": _num(p.g_prime),
        "analytic": [float(v) for v in analytic],
        "numeric": [float(v) for v in numeric],
    }
    lines = ["n,analytic,numeric"]
    for i in range(6):
        lines.append(f"{i},{_fmt(analytic[i])},{_fmt(numeric[i])}")
    _emit(payload, lines, ns)
    return 0


def _cmd_evolve(ns):
    p = _resolve_params(ns)
    if ns.t is None:
        raise CliError("--t is required for evolve")
    try:
        psi = evolve(p, ns.t)
    except ValueError as exc:
        raise CliError(str(exc))
    probs = probabilities(amplitudes(psi))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "evolve",
        "g": _num(p.g1),
        "gprime": _num(p.g_prime),
        "t": float(ns.t),
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi],
        "probabilities": [float(v) for v in probs],
    }
    lines = ["label,re,im"]
    for label, a in zip(PHI_BASIS, psi):
        lines.append(f"{label},{_fmt(a.real)},{_fmt(a.imag)}")
    _emit(payload, lines, ns)
    return 0


def _cmd_trace(ns):
    p = _resolve_params(ns)
    t_max = ns.t_max if ns.t_max is not None else DEFAULT_T_MAX
    n_steps = ns.n_steps if ns.n_steps is not None else DEFAULT_N_STEPS
    try:
        tr = trace(p, t_max=t_max, n_steps=n_steps)
    except ValueError as exc:
        raise CliError(str(exc))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "trace",
        "g": _num(p.g1),
        "gprime": _num(p.g_prime),
        "times": [float(t) for t in tr.times],
        "rows": [[float(v) for v in row] for row in tr.probs],
    }
    lines = ["t,P1,P2,P3,P4,sum"]
    for t, row in zip(tr.times, tr.probs):
        lines.append(
            ",".join([_fmt(t)] + [_fmt(v) for v in row] + [_fmt(row.sum())])
        )
    _emit(payload, lines, ns)
    return 0


def _result_fields(res, j):
    return {
        "j": j,
        "threshold": float(res.threshold),
        "feasible": bool(res.feasible),
        "t0": float(res.t0),
        "p1p2": float(res.p1p2),
        "p3": float(res.p3),
        "p4": float(res.p4),
        "pi_over_gprime": _num(res.pi_over_gprime),
        "pi_over_2gprime": _num(res.pi_over_gprime / 2.0),
    }


def _cmd_optimize(ns):
    p = _resolve_params(ns)
    t_max = ns.t_max if ns.t_max is not None else DEFAULT_T_MAX
    exps = ns.threshold_exp or [6]
    j = int(exps[0])
    try:
        res = find_t0(p, 10.0 ** (-j), t_max=t_max)
    except ValueError as exc:
        raise CliError(str(exc))
    _banner()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "optimize",
        "g": _num(p.g1),
        "gprime": _num(p.g_prime),
        **_result_fields(res, j),
    }
    header = "g,gprime,j,feasible,t0,p1p2,p3,p4,pi_over_gprime"
    row = ",".join(
        [
            _fmt(p.g1), _fmt(p.g_prime), str(j),
            "true" if res.feasible else "false",
            _fmt(res.t0), _fmt(res.p1p2), _fmt(res.p3), _fmt(res.p4),
            _fmt(res.pi_over_gprime) if np.isfinite(res.pi_over_gprime) else "inf",
        ]
    )
    _emit(payload, [header, row], ns)
    if ns.require_feasible and not res.feasible:
        print(
            f"infeasible: best residual {res.p1p2:.3e} at t={res.t0:.6f}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_sweep(ns):
    t_max = ns.t_max if ns.t_max is not None else DEFAULT_T_MAX
    exps = [int(j) for j in (ns.threshold_exp or [6])]
    (g_lo, g_hi, g_n), (gp_lo, gp_hi, gp_n) = _parse_grid(ns.grid or DEFAULT_GRID)
    total = g_n * gp_n

    def progress(done):
        if done % 1000 == 0 or done == total:
            print(f"cells {done}/{total}", file=sys.stderr)

    try:
        grids = sweep(
            (g_lo, g_hi), (gp_lo, gp_hi), (g_n, gp_n), exps,
            t_max=t_max, progress=progress,
        )
    except ValueError as exc:
        raise CliError(str(exc))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "sweep",
        "t_max": float(t_max),
        "grids": [
            {
                "j": grid.threshold_exponent,
                "g_values": [float(v) for v in grid.g_values],
                "gprime_values": [float(v) for v in grid.gprime_values],
                "cells": [
                    [
                        {
                            "feasible": bool(c.feasible),
                            "t0": float(c.t0),
                            "p3": float(c.p3),
                            "p1p2": float(c.p1p2),
                        }
                        for c in row
                    ]
                    for row in grid.cells
                ],
            }
            for grid in grids
        ],
    }
    lines = ["g,gprime,j,feasible,t0,p3,p1p2"]
    for grid in grids:
        for gi, g in enumerate(grid.g_values):
            for pi, gp in enumerate(grid.gprime_values):
                c = grid.cells[gi][pi]
                lines.append(
                    ",".join(
                        [
                            _fmt(g), _fmt(gp), str(grid.threshold_exponent),
                            "true" if c.feasible else "false",
                            _fmt(c.t0), _fmt(c.p3), _fmt(c.p1p2),
                        ]
                    )
                )
    _emit(payload, lines, ns)
    return 0


def _cmd_fig4(ns):
    t_max = ns.t_max if ns.t_max is not None else DEFAULT_T_MAX
    n_steps = ns.n_steps if ns.n_steps is not None else DEFAULT_N_STEPS
    exps = ns.threshold_exp or [6]
    threshold = 10.0 ** (-int(exps[0]))
    if ns.g is not None:
        triples = [(ns.g, ns.gprime if ns.gprime is not None else 0.0)]
    else:
        triples = list(PAPER_TRIPLES)
    try:
        params = [CouplingParams.symmetric(g, gp) for g, gp in triples]
        bundles = emit_fig4_traces(params, t_max=t_max, n_steps=n_steps, threshold=threshold)
    except ValueError as exc:
        raise CliError(str(exc))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "fig4",
        "threshold": threshold,
        "bundles": [],
    }
    lines = [
        "g,gprime,t,P1,P2,P3,P4,feasible,t0,p3_at_t0,p1p2_at_t0,"
        "pi_over_gprime,pi_over_2gprime,dev_pi_over_gprime,dev_pi_over_2gprime"
    ]
    for bundle in bundles:
        p = bundle.trace.params
        res = bundle.result
        payload["bundles"].append(
            {
                "g": _num(p.g1),
                "gprime": _num(p.g_prime),
                "feasible": bool(res.feasible),
                "t0": float(res.t0),
                "p3_at_t0": float(res.p3),
                "p1p2_at_t0": float(res.p1p2),
                "pi_over_gprime": _num(bundle.pi_over_gprime),
                "pi_over_2gprime": _num(bundle.pi_over_2gprime),
                "dev_pi_over_gprime": _num(bundle.dev_pi_over_gprime),
                "dev_pi_over_2gprime": _num(bundle.dev_pi_over_2gprime),
                "times": [float(t) for t in bundle.trace.times],
                "rows": [[float(v) for v in row] for row in bundle.trace.probs],
            }
        )
        annot = ",".join(
            [
                "true" if res.feasible else "false",
                _fmt(res.t0), _fmt(res.p3), _fmt(res.p1p2),
                _fmt(bundle.pi_over_gprime), _fmt(bundle.pi_over_2gprime),
                _fmt(bundle.dev_pi_over_gprime), _fmt(bundle.dev_pi_over_2gprime),
            ]
        )
        for t, row in zip(bundle.trace.times, bundle.trace.probs):
            lines.append(
                ",".join(
                    [_fmt(p.g1), _fmt(p.g_prime), _fmt(t)]
                    + [_fmt(v) for v in row]
                )
                + ","
                + annot
            )
    _emit(payload, lines, ns)
    return 0


_COMMANDS = {
    "eig": _cmd_eig,
    "evolve": _cmd_evolve,
    "trace": _cmd_trace,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "fig4": _cmd_fig4,
}


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        ns = _merge_config(ns)
        return _COMMANDS[ns.command](ns)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
