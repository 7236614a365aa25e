"""Golden outputs of the ``squidcavity`` command.

``CASES`` pins one invocation per file ``<name>.txt``.  Each file holds the
argv, the exit code, stderr and stdout, exactly as ``render`` writes them;
``tests/test_golden.py`` reruns every case and compares byte for byte.
Sizes stay small (at most 41 trace steps, a 3x2 sweep) so the files do too.

This script is the one way to regenerate them:

    python tests/golden/regen.py

It rewrites every file and removes files of cases no longer listed.  Every
resulting diff must be explained in CHANGES.md.
"""

import contextlib
import io
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

POINT = ("--g", "0.6", "--gprime", "1.37")
UNCOUPLED = ("--g", "0.5", "--gprime", "0")
GENERAL = ("--g1", "0.5", "--g2", "0.5", "--omega1", "1", "--omega2", "1", "--gprime", "1")
SWEEP = ("sweep", "--grid", "0.5:1.5:3,0.6:1.4:2", "--threshold-exp", "6",
         "--threshold-exp", "1", "--t-max", "60")

CASES = {
    "eig-json": ("eig", *POINT),
    "eig-csv": ("eig", *POINT, "--format", "csv"),
    "eig-uncoupled-csv": ("eig", *UNCOUPLED, "--format", "csv"),
    "eig-general-json": ("eig", *GENERAL),
    "evolve-json": ("evolve", *POINT, "--t", "3.5"),
    "evolve-csv": ("evolve", *POINT, "--t", "3.5", "--format", "csv"),
    "evolve-general-csv": ("evolve", *GENERAL, "--t", "1", "--format", "csv"),
    "trace-json": ("trace", *POINT, "--t-max", "10", "--n-steps", "11"),
    "trace-csv": ("trace", *POINT, "--t-max", "40", "--n-steps", "41", "--format", "csv"),
    "optimize-json": ("optimize", *POINT),
    "optimize-csv": ("optimize", *POINT, "--threshold-exp", "6", "--format", "csv"),
    "optimize-loose-csv": ("optimize", "--g", "1.5", "--gprime", "0.7",
                           "--threshold-exp", "1", "--t-max", "60", "--format", "csv"),
    "optimize-uncoupled-json": ("optimize", *UNCOUPLED, "--t-max", "20"),
    "optimize-uncoupled-csv": ("optimize", *UNCOUPLED, "--t-max", "20", "--format", "csv"),
    "optimize-require-feasible": ("optimize", *UNCOUPLED, "--t-max", "20",
                                  "--require-feasible", "--format", "csv"),
    "sweep-json": SWEEP,
    "sweep-csv": (*SWEEP, "--format", "csv"),
    "fig4-json": ("fig4", *POINT, "--t-max", "40", "--n-steps", "21"),
    "fig4-csv": ("fig4", *POINT, "--t-max", "40", "--n-steps", "41", "--format", "csv"),
    "fig4-uncoupled-csv": ("fig4", *UNCOUPLED, "--t-max", "20", "--n-steps", "11",
                           "--format", "csv"),
    "fig4-paper-json": ("fig4", "--n-steps", "11"),
    "error-missing-g": ("eig",),
    "error-asymmetric-eig": ("eig", "--g1", "0.5", "--g2", "0.7", "--omega1", "1",
                             "--omega2", "1.2", "--gprime", "0.9"),
    "error-negative-t": ("evolve", *POINT, "--t", "-1"),
    "error-bad-grid": ("sweep", "--grid", "nope"),
    "error-infinite-t-max": ("trace", *POINT, "--t-max", "inf"),
}


def render(argv):
    """Run ``squidcavity argv`` in process; its argv, exit code, stderr and
    stdout as one text."""
    from squidcavity.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return (
        f"$ squidcavity {shlex.join(argv)}\n# exit {code}\n"
        f"# stderr\n{err.getvalue()}# stdout\n{out.getvalue()}"
    )


def regenerate():
    for stale in set(HERE.glob("*.txt")) - {HERE / f"{name}.txt" for name in CASES}:
        stale.unlink()
    for name, argv in CASES.items():
        (HERE / f"{name}.txt").write_bytes(render(argv).encode())


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    regenerate()
