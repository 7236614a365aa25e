"""Byte-for-byte comparison of the CLI against the golden files in
tests/golden/ (regenerate with ``python tests/golden/regen.py``)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).parent / "golden"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"golden_{name}", GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load("regen")
bitgate = _load("bitgate")


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(regen.CASES)


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_golden_output(name):
    expected = (GOLDEN / f"{name}.txt").read_bytes().decode()
    assert regen.render(regen.CASES[name]) == expected


def test_bitgate_reports_a_one_ulp_change_in_one_field():
    labels = ["a", "b"]
    ref = np.array([[1.0, 16.1, 1e-7, 0.89, 0.11, 0.0], [0.0, 3.0, 0.2, 0.5, 0.3, 0.19]])
    assert bitgate.compare(labels, ref, ref.copy()) == ([], 0)
    new = ref.copy()
    new[1, 3] = np.nextafter(new[1, 3], 1.0)
    lines, differing = bitgate.compare(labels, ref, new)
    assert differing == 1
    assert lines == [f"b p3: 0.5 -> {float(new[1, 3])!r}"]
    # bytes, not values: -0.0 == 0.0 as floats
    new = ref.copy()
    new[0, 5] = -0.0
    assert bitgate.compare(labels, ref, new)[1] == 1
