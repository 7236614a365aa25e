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


_CELL = {bool: lambda v: "true" if v else "false", int: str, str: str}


def _line(row):
    """One CSV line; cells are formatted by type, anything else by _fmt."""
    return ",".join([_CELL.get(type(v), _fmt)(v) for v in row])


# Every flag by destination (the flag is "--" + dest with "-" for "_"); a
# config file key is a destination and must be what its flag would parse.
_FLAGS = {
    "config": {"help": "JSON config file; flags override its values"},
    "g": {"type": float, "help": "symmetric cavity coupling (Omega units)"},
    "gprime": {"type": float, "help": "auxiliary-SQUID coupling (Omega units, default 0)"},
    "out": {"help": "output path (default: stdout)"},
    "format": {"choices": ("csv", "json")},
    "t": {"type": float, "help": "evolution time (1/Omega)"},
    "t_max": {"type": float},
    "n_steps": {"type": int},
    "threshold_exp": {"type": int, "action": "append", "help": "j in P1+P2 <= 10^-j (default 6)"},
    "require_feasible": {"action": "store_true"},
    "grid": {"help": '"gmin:gmax:n,gpmin:gpmax:n" (default %s)' % DEFAULT_GRID},
}
_COMMON = ("config", "out", "format")
_POINT = ("g", "gprime")
# resolved after the config merge, so that a config value can still fill them
_DEFAULTS = {
    "t_max": DEFAULT_T_MAX, "n_steps": DEFAULT_N_STEPS, "threshold_exp": (6,), "grid": DEFAULT_GRID,
}
# exact JSON types a config value may have, by the type its flag parses
_JSON_TYPES = {float: (int, float), int: (int,), str: (str,), bool: (bool,)}


def build_parser():
    parser = _Parser(
        prog="squidcavity",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, extra, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for dest in _COMMON + extra:
            sp.add_argument("--" + dest.replace("_", "-"), **_FLAGS[dest])
    return parser


def _config_value(path, key, val):
    """A config value as its flag would parse it; any other value is an error."""
    spec = _FLAGS[key]
    kind = bool if spec.get("action") == "store_true" else spec.get("type", str)
    many = spec.get("action") == "append"
    items = val if many else [val]
    if many != isinstance(val, list) or not all(
        type(v) in _JSON_TYPES[kind] and v in spec.get("choices", (v,)) for v in items
    ):
        raise CliError(f"{path}: bad config value for {key}: {val!r}")
    items = [kind(v) for v in items]
    return items if many else items[0]


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
    # the namespace holds exactly the destinations of this command's flags
    unknown = set(cfg) - set(vars(ns)) - {"command", "config"}
    if unknown:
        raise CliError(f"{path}: unknown config keys: {sorted(unknown)}")
    for key, val in cfg.items():
        val = _config_value(path, key, val)
        if getattr(ns, key) in (None, False):
            setattr(ns, key, val)
    return ns


def _point(ns):
    if ns.g is None:
        raise CliError("--g is required")
    return CouplingParams.symmetric(ns.g, ns.gprime if ns.gprime is not None else 0.0)


def _exponents(ns, single):
    """The --threshold-exp values, checked alike for every command."""
    exps = ns.threshold_exp
    if not exps or min(exps) < 1:
        raise CliError("threshold exponents must be positive integers")
    if single and len(exps) > 1:
        raise CliError(f"{ns.command} takes one --threshold-exp")
    return exps


def _parse_grid(spec):
    try:
        axes = [(float(lo), float(hi), int(n))
                for lo, hi, n in (part.split(":") for part in spec.split(","))]
        if len(axes) == 2:
            return axes
    except ValueError:
        pass
    raise CliError(f'bad --grid {spec!r}; expected "gmin:gmax:n,gpmin:gpmax:n"')


_FIG4_NOTES = ("pi_over_gprime", "pi_over_2gprime", "dev_pi_over_gprime", "dev_pi_over_2gprime")


def _head(command, p):
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "g": _num(p.g1), "gprime": _num(p.g_prime)}


# Each command returns (JSON payload, CSV header, CSV rows); a row's cells
# are formatted by type, so a constant run of columns can be one str cell.
def _eig(ns):
    p = _point(ns)
    analytic = analytic_eigenvalues(p).tolist()
    print(UNIT_BANNER, file=sys.stderr)
    numeric = spectrum(p).tolist()
    payload = {**_head("eig", p), "analytic": analytic, "numeric": numeric}
    return payload, "n,analytic,numeric", zip(range(6), analytic, numeric)


def _evolve(ns):
    p = _point(ns)
    if ns.t is None:
        raise CliError("--t is required for evolve")
    psi = evolve(p, ns.t)
    probs = probabilities(amplitudes(psi))
    pairs = [[a.real, a.imag] for a in psi.tolist()]
    payload = {**_head("evolve", p), "t": float(ns.t), "amplitudes": pairs,
               "probabilities": [float(v) for v in probs]}
    return payload, "label,re,im", ((str(label), *pair) for label, pair in zip(PHI_BASIS, pairs))


def _trace(ns):
    p = _point(ns)
    tr = trace(p, t_max=ns.t_max, n_steps=ns.n_steps)
    times, rows = tr.times.tolist(), tr.probs.tolist()
    payload = {**_head("trace", p), "times": times, "rows": rows}
    sums = tr.probs.sum(axis=1).tolist()
    return payload, "t,P1,P2,P3,P4,sum", ((t, *row, s) for t, row, s in zip(times, rows, sums))


def _optimize(ns):
    p = _point(ns)
    (j,) = _exponents(ns, single=True)
    res = find_t0(p, 10.0 ** (-j), t_max=ns.t_max)
    print(UNIT_BANNER, file=sys.stderr)
    payload = {
        **_head("optimize", p), "j": j, "threshold": float(res.threshold),
        "feasible": bool(res.feasible), "t0": float(res.t0), "p1p2": float(res.p1p2),
        "p3": float(res.p3), "p4": float(res.p4), "pi_over_gprime": _num(res.pi_over_gprime),
        "pi_over_2gprime": _num(res.pi_over_gprime / 2.0),
    }
    row = (p.g1, p.g_prime, j, bool(res.feasible), res.t0, res.p1p2, res.p3, res.p4,
           res.pi_over_gprime)
    return payload, "g,gprime,j,feasible,t0,p1p2,p3,p4,pi_over_gprime", [row]


def _sweep(ns):
    exps = _exponents(ns, single=False)
    (g_lo, g_hi, g_n), (gp_lo, gp_hi, gp_n) = _parse_grid(ns.grid)
    total = g_n * gp_n

    def progress(done):
        if done % 1000 == 0 or done == total:
            print(f"cells {done}/{total}", file=sys.stderr)

    grids = sweep((g_lo, g_hi), (gp_lo, gp_hi), (g_n, gp_n), exps, t_max=ns.t_max,
                  progress=progress)
    out, rows = [], []
    for grid in grids:
        j, g_values, gp_values = grid.threshold_exponent, grid.g_values.tolist(), grid.gprime_values.tolist()
        cells = [[{"feasible": bool(c.feasible), "t0": float(c.t0), "p3": float(c.p3),
                   "p1p2": float(c.p1p2)} for c in row] for row in grid.cells]
        out.append({"j": j, "g_values": g_values, "gprime_values": gp_values, "cells": cells})
        rows += [(g, gp, j, *cell.values())
                 for g, row in zip(g_values, cells) for gp, cell in zip(gp_values, row)]
    payload = {"schema_version": SCHEMA_VERSION, "command": "sweep",
               "t_max": float(ns.t_max), "grids": out}
    return payload, "g,gprime,j,feasible,t0,p3,p1p2", rows


def _fig4(ns):
    (j,) = _exponents(ns, single=True)
    threshold = 10.0 ** (-j)
    if ns.g is None and ns.gprime is None:
        params = [CouplingParams.symmetric(g, gp) for g, gp in PAPER_TRIPLES]
    else:
        params = [_point(ns)]
    bundles = emit_fig4_traces(params, t_max=ns.t_max, n_steps=ns.n_steps, threshold=threshold)
    out, rows = [], []
    for b in bundles:
        p, res = b.trace.params, b.result
        times, probs = b.trace.times.tolist(), b.trace.probs.tolist()
        notes = [getattr(b, name) for name in _FIG4_NOTES]
        out.append({
            "g": _num(p.g1), "gprime": _num(p.g_prime), "feasible": bool(res.feasible),
            "t0": float(res.t0), "p3_at_t0": float(res.p3), "p1p2_at_t0": float(res.p1p2),
            **{name: _num(v) for name, v in zip(_FIG4_NOTES, notes)}, "times": times, "rows": probs,
        })
        point = _line((p.g1, p.g_prime))
        annot = _line((bool(res.feasible), res.t0, res.p3, res.p1p2, *notes))
        rows += [(point, t, *row, annot) for t, row in zip(times, probs)]
    payload = {"schema_version": SCHEMA_VERSION, "command": "fig4", "threshold": threshold,
               "bundles": out}
    header = "g,gprime,t,P1,P2,P3,P4,feasible,t0,p3_at_t0,p1p2_at_t0," + ",".join(_FIG4_NOTES)
    return payload, header, rows


# name: (help, flags besides _COMMON, handler); each command has the flags it reads
_COMMANDS = {
    "eig": ("analytic and numeric spectrum for (g, g')", _POINT, _eig),
    "evolve": ("state amplitudes and P1..P4 at one time", (*_POINT, "t"), _evolve),
    "trace": ("time trace; CSV columns t,P1,P2,P3,P4,sum", (*_POINT, "t_max", "n_steps"), _trace),
    "optimize": ("best measurement time for one (g, g')",
                 (*_POINT, "t_max", "threshold_exp", "require_feasible"), _optimize),
    "sweep": ("feasibility map; CSV columns g,gprime,j,feasible,t0,p3,p1p2",
              ("t_max", "threshold_exp", "grid"), _sweep),
    "fig4": ("annotated trace bundle for (g, g'), or for the paper pairs without either",
             (*_POINT, "t_max", "n_steps", "threshold_exp"), _fig4),
}

def _render(payload, header, rows, ns):
    fmt = ns.format or ("csv" if ns.out and str(ns.out).endswith(".csv") else "json")
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "\n".join([header, *map(_line, rows)]) + "\n"
    if ns.out:
        with open(ns.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    try:
        ns = _merge_config(build_parser().parse_args(argv))
        for key, val in _DEFAULTS.items():
            if getattr(ns, key, None) is None:
                setattr(ns, key, val)
        payload, header, rows = _COMMANDS[ns.command][2](ns)
        _render(payload, header, rows, ns)
    except (CliError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(ns, "require_feasible", False) and payload.get("feasible") is False:
        print(f"infeasible: best residual {payload['p1p2']:.3e} at t={payload['t0']:.6f}",
              file=sys.stderr)
        return 2
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
