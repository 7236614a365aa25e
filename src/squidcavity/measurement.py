"""Projective post-selection on the auxiliary SQUID."""

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError
from .model import AUX_E_INDICES, AUX_G_INDICES, PSI_BASIS, BasisLabel
from .model import embed_aux_ground  # noqa: F401  (re-exported)

UNREACHABLE_CUTOFF = 1e-14


class OutcomeUnreachableError(ValueError):
    """Requested outcome has (numerically) zero Born probability."""


@dataclass(frozen=True)
class MeasurementOutcome:
    """One branch of the auxiliary measurement: Born probability and the
    renormalized collapsed state with its basis labels."""

    aux_result: str
    probability: float
    collapsed: np.ndarray
    basis: tuple


def _check_finite(state):
    if not np.isfinite(state).all():
        raise ValueError("the state has non-finite amplitudes")


def postselect(psi, outcome):
    """Project a phi-basis state onto an auxiliary-SQUID outcome.

    Outcome "g" collapses onto the 5-dim psi basis (two SQUIDs + cavity);
    outcome "e" collapses onto the single label |00, 0ph>.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (6,):
        raise DimensionError(f"expected a 6-dim phi-basis state, got {psi.shape}")
    _check_finite(psi)
    if outcome not in ("g", "e"):
        raise ValueError(f"outcome must be 'g' or 'e', got {outcome!r}")
    if outcome == "g":
        indices = AUX_G_INDICES
        basis = PSI_BASIS
    else:
        indices = AUX_E_INDICES
        basis = (BasisLabel("0", "0", 0),)
    branch = psi[list(indices)]
    prob = float(np.sum(np.abs(branch) ** 2))
    if prob < UNREACHABLE_CUTOFF:
        raise OutcomeUnreachableError(
            f"outcome {outcome!r} unreachable (probability {prob:.3e})"
        )
    return MeasurementOutcome(
        aux_result=outcome,
        probability=prob,
        collapsed=branch / np.sqrt(prob),
        basis=basis,
    )


def fidelity(psi, target):
    """|<target|psi>|^2 for state vectors over the same basis."""
    psi = np.asarray(psi)
    target = np.asarray(target)
    if psi.shape != target.shape:
        raise DimensionError(
            f"state shapes differ: {psi.shape} vs {target.shape}"
        )
    _check_finite(psi)
    _check_finite(target)
    return float(np.abs(np.vdot(target, psi)) ** 2)


def target_c_with_vacuum():
    """|C> tensor |0>_c in the psi basis (support on |10,0ph> and |01,0ph>)."""
    vec = np.zeros(5, dtype=np.complex128)
    vec[3] = vec[4] = 1.0 / np.sqrt(2.0)
    return vec
