"""Golden outputs of the ``squidcavity`` command.

``CASES`` pins one invocation per file ``<name>.txt``.  Each file holds the
argv, the exit code, stderr and stdout, exactly as ``render`` writes them;
``tests/test_golden.py`` reruns every case and compares byte for byte.
Sizes stay small (at most 41 trace steps, a 3x2 sweep) so the files do too.

This script is the one way to regenerate them:

    python tests/golden/regen.py

It rewrites every file whose output changed, removes files of cases no
longer listed, and prints for each rewritten file how many lines changed and
the largest difference between numbers at the same place in the old and new
text.  Every resulting diff must be explained in CHANGES.md.

    python tests/golden/regen.py --check

prints the same report for the files that would change, writes nothing, and
exits 1 if any file would change.
"""

import contextlib
import io
import itertools
import re
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

POINT = ("--g", "0.6", "--gprime", "1.37")
UNCOUPLED = ("--g", "0.5", "--gprime", "0")
SWEEP = ("sweep", "--grid", "0.5:1.5:3,0.6:1.4:2", "--threshold-exp", "6",
         "--threshold-exp", "1", "--t-max", "60")

CASES = {
    "eig-json": ("eig", *POINT),
    "eig-csv": ("eig", *POINT, "--format", "csv"),
    "eig-uncoupled-csv": ("eig", *UNCOUPLED, "--format", "csv"),
    "evolve-json": ("evolve", *POINT, "--t", "3.5"),
    "evolve-csv": ("evolve", *POINT, "--t", "3.5", "--format", "csv"),
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
    "fig4-paper-csv": ("fig4", "--n-steps", "11", "--format", "csv"),
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


def _compare(old, new):
    """Lines of ``new`` that differ from ``old`` at the same line number, and
    the largest absolute difference between the numbers in them; None when a
    changed line differs in more than its numbers."""
    changed = [(a, b) for a, b in itertools.zip_longest(old.splitlines(), new.splitlines())
               if a != b]
    largest = 0.0
    for a, b in changed:
        if a is None or b is None or _NUMBER.split(a) != _NUMBER.split(b):
            return len(changed), None
        for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
            largest = max(largest, abs(float(x) - float(y)))
    return len(changed), largest


def regenerate(check=False):
    """Rewrite the golden files, or with ``check`` only report what would
    change; returns whether any file changed (or would)."""
    would = "would be " if check else ""
    changed = False
    for stale in set(HERE.glob("*.txt")) - {HERE / f"{name}.txt" for name in CASES}:
        changed = True
        if not check:
            stale.unlink()
        print(f"{stale.name}: {would}removed")
    for name, argv in CASES.items():
        path = HERE / f"{name}.txt"
        new = render(argv)
        old = path.read_bytes().decode() if path.exists() else None
        if new == old:
            continue
        changed = True
        if not check:
            path.write_bytes(new.encode())
        if old is None:
            print(f"{path.name}: {would}new")
            continue
        lines, largest = _compare(old, new)
        diff = "text, not only numbers" if largest is None else f"numbers by at most {largest:.3g}"
        print(f"{path.name}: {lines} changed lines, {diff}")
    return changed


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: python tests/golden/regen.py [--check]")
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    check = sys.argv[1:] == ["--check"]
    sys.exit(1 if regenerate(check) and check else 0)
