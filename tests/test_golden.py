"""Byte-for-byte comparison of the CLI against the golden files in
tests/golden/ (regenerate with ``python tests/golden/regen.py``)."""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(regen.CASES)


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_golden_output(name):
    expected = (GOLDEN / f"{name}.txt").read_bytes().decode()
    assert regen.render(regen.CASES[name]) == expected
