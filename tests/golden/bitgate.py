"""Bit-identity gate: one fixed set of optimizer results, compared byte for
byte between the working tree and a committed tree.

    python tests/golden/bitgate.py REF

exports REF with ``git archive`` into a temporary directory, computes the
set once per tree, each in its own Python process that imports that tree's
``src/squidcavity``, and compares the raw bytes of ``feasible``, ``t0``,
``p1p2``, ``p3``, ``p4`` and ``p1p2_bound`` of every result.  It prints the
number of results and of differing ones, the first differences, and per
part of the set its counts and a summary of how far its results moved (see
``summary``), and exits 1 if any result differs.

The set has four parts.  "wide": ``find_t0`` at 1e-6, 1e-3 and 1e-1 on the
256 points of the benchmark's ``protocol`` population, on 200
``default_rng(0)`` points of [0.05, 3]^2 and on the paper's three pairs;
the 30x30 sweep at exponents (6, 1) and the 12x12 sweep at (6, 3, 1) over
[0.05, 3]^2; the 1x16 sweep at (6, 1) over g = 0.6, g' in [0.5, 2]; and
the 3x70 sweep at (6, 1) and t_max 50 over [0.05, 3]^2, whose rows are
longer than a sweep part, so that parts split rows and span them.
"resonance": ``find_t0`` at 1e-6 and 1e-1 with t_max 20 on 100
``default_rng(1)`` points with g = 10^U(-8, -3) and g' = U(0.9, 1.1),
near g' = Omega, where E1 ~ E3 and P3 is tiny.  "resonance-200": ``find_t0``
at 1e-6 and 1e-1 with t_max 200 on four points near g' = Omega whose
cells at 1e-6 keep over a hundred nodes each.  "ragged": the 9x9 sweeps at
(6, 1) over [1e-3, 50]^2 at t_max 0.06 and at t_max 20, whose scans take 2
to 84 and 318 to 27,389 samples, and over [1e-3, 1e4]^2 at t_max 0.06,
whose parts mix scans of 2 and of over 10^4 samples, so that a part's
stacked scan factors are padded far beyond some of its points.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
FIELDS = ("feasible", "t0", "p1p2", "p3", "p4", "p1p2_bound")
PAPER_PAIRS = ((0.25, 1.89), (2.95, 1.10), (0.60, 1.37))
RESONANCE_200 = ((3e-7, 1.0), (1.44e-5, 1.087), (1.95e-4, 1.0658), (2.8e-4, 0.9961))
SWEEPS = (
    ((0.05, 3.0), (0.05, 3.0), 30, (6, 1)),
    ((0.05, 3.0), (0.05, 3.0), 12, (6, 3, 1)),
    ((0.6, 0.6), (0.5, 2.0), (1, 16), (6, 1)),
    ((0.05, 3.0), (0.05, 3.0), (3, 70), (6, 1), 50.0),
)
RAGGED_SWEEPS = (
    ((1e-3, 50.0), (1e-3, 50.0), 9, (6, 1), 0.06),
    ((1e-3, 50.0), (1e-3, 50.0), 9, (6, 1), 20.0),
    ((1e-3, 1e4), (1e-3, 1e4), 9, (6, 1), 0.06),
)


def points():
    """The find_t0 points: the protocol population, 200 uniform points and
    the paper pairs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import r2_points

    rng = np.random.default_rng(0).uniform(0.05, 3.0, (200, 2))
    return [tuple(map(float, pt)) for pt in (*r2_points(256, (0.5, 0.5)), *rng, *PAPER_PAIRS)]


def resonance_points():
    """The points near g' = Omega: g = 10^U(-8, -3), g' = U(0.9, 1.1)."""
    rng = np.random.default_rng(1)
    g = 10.0 ** rng.uniform(-8.0, -3.0, 100)
    return list(zip(g.tolist(), rng.uniform(0.9, 1.1, 100).tolist()))


def results():
    """Labels, the part of the set each result belongs to and an (n, 6)
    float array of the result set, from the ``squidcavity`` that is
    imported."""
    from squidcavity.model import CouplingParams
    from squidcavity.optimize import find_t0, sweep

    labels, rows = [], []
    for g, gp in points():
        for threshold in (1e-6, 1e-3, 1e-1):
            labels.append(f"find_t0({g!r}, {gp!r}, {threshold:g})")
            rows.append(find_t0(CouplingParams.symmetric(g, gp), threshold))

    def sweeps(runs):
        for args in runs:
            for grid in sweep(*args):
                for i, g in enumerate(grid.g_values.tolist()):
                    for k, gp in enumerate(grid.gprime_values.tolist()):
                        labels.append(f"sweep{args} cell ({g!r}, {gp!r}) at 1e-{grid.threshold_exponent}")
                        rows.append(grid.cells[i][k])

    sweeps(SWEEPS)
    parts = ["wide"] * len(rows)
    for part, pts, t_max in (("resonance", resonance_points(), 20.0), ("resonance-200", RESONANCE_200, 200.0)):
        for g, gp in pts:
            for threshold in (1e-6, 1e-1):
                labels.append(f"find_t0({g!r}, {gp!r}, {threshold:g}, t_max={t_max:g})")
                rows.append(find_t0(CouplingParams.symmetric(g, gp), threshold, t_max=t_max))
        parts += [part] * (len(rows) - len(parts))
    sweeps(RAGGED_SWEEPS)
    parts += ["ragged"] * (len(rows) - len(parts))
    return labels, parts, np.array([[getattr(res, f) for f in FIELDS] for res in rows], dtype=float)


def compare(labels, ref, new, limit=10):
    """Lines naming each (result, field) whose bytes differ between ``ref``
    and ``new``, at most ``limit`` of them, and the number of differing
    results."""
    diff = ref.view(np.uint64) != new.view(np.uint64)
    lines = [
        f"{labels[i]} {FIELDS[j]}: {float(ref[i, j])!r} -> {float(new[i, j])!r}"
        for i, j in zip(*np.nonzero(diff))
    ][:limit]
    return lines, int(diff.any(axis=1).sum())


def summary(ref, new, tie):
    """Lines saying how far the results moved: the feasibility flips, then,
    over the results that keep their feasibility, the largest
    |dt0| / max(1, t0) and |d| of p1p2, p3, p4 and p1p2_bound, and how many
    p3 rose or fell by more than ``tie``."""
    flips = ref[:, 0] != new[:, 0]
    ref, new = ref[~flips], new[~flips]
    delta = np.abs(new - ref)
    delta[:, 1] /= np.maximum(1.0, np.abs(ref[:, 1]))
    largest = delta.max(axis=0, initial=0.0)
    rise = new[:, 3] - ref[:, 3]
    return [
        f"feasibility flips: {int(flips.sum())}",
        f"max |dt0|/max(1, t0): {largest[1]:.3g}",
        *(f"max |d{FIELDS[j]}|: {largest[j]:.3g}" for j in range(2, len(FIELDS))),
        f"p3 rose by more than {tie:g}: {int((rise > tie).sum())}, fell: {int((rise < -tie).sum())}",
    ]


def run(tree, out):
    """Compute the set with ``tree``'s squidcavity in a new process and save
    its labels and rows to ``out`` (an .npz file)."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import numpy as np, bitgate;"
        "labels, parts, rows = bitgate.results(); np.savez(sys.argv[3], labels=labels, parts=parts, rows=rows)"
    )
    subprocess.run([sys.executable, "-c", code, str(Path(tree) / "src"), str(Path(__file__).parent), str(out)],
                   check=True)


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "ref").mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0]], check=True, capture_output=True)
        subprocess.run(["tar", "-x", "-C", str(tmp / "ref")], input=archive.stdout, check=True)
        run(tmp / "ref", tmp / "ref.npz")
        run(ROOT, tmp / "new.npz")
        ref, new = np.load(tmp / "ref.npz"), np.load(tmp / "new.npz")
        labels, parts, ref, new = new["labels"].tolist(), new["parts"], ref["rows"], new["rows"]
    lines, differing = compare(labels, ref, new)
    sys.path.insert(0, str(ROOT / "src"))
    from squidcavity.optimize import P3_TIE_TOL

    print(f"{len(labels)} results, {differing} differing", *lines, sep="\n")
    for part in dict.fromkeys(parts.tolist()):
        at = parts == part
        print(f"{part}: {int(at.sum())} results, {compare(labels, ref[at], new[at])[1]} differing",
              *summary(ref[at], new[at], P3_TIE_TOL), sep="\n  ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
