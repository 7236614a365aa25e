import warnings

import numpy as np
import pytest

from squidcavity.dynamics import evolve, probabilities, amplitudes
from squidcavity.linalg import DimensionError
from squidcavity.measurement import (
    OutcomeUnreachableError,
    embed_aux_ground,
    fidelity,
    postselect,
    target_c_with_vacuum,
)
from squidcavity.model import CouplingParams, dark_state, dark_state_full, target_states
from squidcavity.optimize import find_t0


def test_postselect_initial_state():
    p = CouplingParams.symmetric(0.7, 1.0)
    out = postselect(dark_state_full(p), "g")
    assert abs(out.probability - 1.0) < 1e-12
    assert np.allclose(out.collapsed, dark_state(p), atol=1e-12)
    assert len(out.basis) == 5


def test_postselect_aux_excited():
    phi4 = np.zeros(6, dtype=complex)
    phi4[3] = 1.0
    out = postselect(phi4, "e")
    assert abs(out.probability - 1.0) < 1e-12
    assert out.collapsed.shape == (1,)
    assert abs(abs(out.collapsed[0]) - 1.0) < 1e-12
    assert str(out.basis[0]) == "|00,0ph>"


def test_postselect_unreachable():
    phi4 = np.zeros(6, dtype=complex)
    phi4[3] = 1.0
    with pytest.raises(OutcomeUnreachableError):
        postselect(phi4, "g")


def test_born_completeness():
    p = CouplingParams.symmetric(1.0, 1.0)
    for t in (0.3, 1.7, 9.2):
        psi = evolve(p, t)
        pg = postselect(psi, "g").probability
        pe = postselect(psi, "e").probability
        assert abs(pg + pe - 1.0) < 1e-10


def test_postselect_idempotent():
    p = CouplingParams.symmetric(1.0, 1.0)
    psi = evolve(p, 2.5)
    first = postselect(psi, "g")
    again = postselect(embed_aux_ground(first.collapsed), "g")
    assert abs(again.probability - 1.0) < 1e-12
    assert np.max(np.abs(again.collapsed - first.collapsed)) < 1e-12


def test_ground_probability_matches_dynamics():
    p = CouplingParams.symmetric(0.6, 1.37)
    for t in (0.9, 4.2, 16.1):
        psi = evolve(p, t)
        p1, p2, p3, _ = probabilities(amplitudes(psi))
        assert abs(postselect(psi, "g").probability - (p1 + p2 + p3)) < 1e-10


def test_fidelity_basics():
    c, d, _ = target_states()
    assert fidelity(c, c) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(c, d) == 0.0
    # symmetric in arguments, phase-insensitive
    psi = np.exp(1j * 0.3) * c
    assert fidelity(psi, c) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(c, psi) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionError):
        fidelity(np.ones(3), np.ones(4))


def test_postselection_pipeline_yields_target():
    # certified measurement time for a feasible parameter point
    p = CouplingParams.symmetric(0.6, 1.37)
    res = find_t0(p, 1e-6, t_max=200.0)
    assert res.feasible
    out = postselect(evolve(p, res.t0), "g")
    assert fidelity(out.collapsed, target_c_with_vacuum()) >= 1 - 1e-5


def test_bad_inputs():
    with pytest.raises(DimensionError):
        postselect(np.ones(5), "g")
    with pytest.raises(DimensionError):
        embed_aux_ground(np.ones(6))
    with pytest.raises(DimensionError):
        amplitudes(np.ones(5))
    with pytest.raises(ValueError):
        postselect(np.ones(6) / np.sqrt(6), "x")


_NON_FINITE = (np.full(6, np.nan, complex), np.array([np.inf, 0, 0, 0, 0, 0], complex),
               np.array([0, 0, 0, 0, 1, complex(0.0, np.nan)]))


@pytest.mark.parametrize("psi", _NON_FINITE, ids=("nan", "inf", "imaginary-nan"))
def test_postselect_rejects_non_finite_states(psi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for outcome in ("g", "e"):
            with pytest.raises(ValueError, match="non-finite"):
                postselect(psi, outcome)


@pytest.mark.parametrize("psi", [np.delete(v, 3) for v in _NON_FINITE], ids=("nan", "inf", "imaginary-nan"))
def test_fidelity_rejects_non_finite_states(psi):
    target = target_c_with_vacuum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            fidelity(psi, target)
        with pytest.raises(ValueError, match="non-finite"):
            fidelity(target, psi)
