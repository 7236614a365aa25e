"""Time evolution of the dark state under the full Hamiltonian.

Probabilities are labelled after the symmetric-sector components the
state decomposes into: P1 (photon in the cavity), P2 (|D> component),
P3 (|C> component, the target), P4 (auxiliary excited).

The dark state never leaves the 4-dim symmetric sector.  That sector is
bipartite: (F1, F3) couple only to (F2, F4) through the 2x2 block
B = [[sqrt2 g, g'], [Omega, 0]].  With the SVD B = U diag(E1, E3) V^T and
the dark state's sector vector x = (F1, F3)(0),

    [F1, F3](t) = U cos(E t) U^T x,    [F2, F4](t) = -i V sin(E t) U^T x,

so E1 >= E3 (E1 E3 = g' Omega, E1^2 + E3^2 = eta) are the only frequencies.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .linalg import DimensionError
from .model import (
    CouplingParams,
    ExchangeSymmetryError,
    SQRT2,
    dark_state_full,
    symmetry_transform,
)

DEFAULT_T_MAX = 200.0
DEFAULT_N_STEPS = 4001

# phi-coordinates of the symmetric-sector vectors carrying F1, F2, F3, F4
# (chi1+, chi2+, chi4+, chi3+), and of the antisymmetric chi vectors
_F_VECTORS = symmetry_transform().transform[[2, 3, 5, 4]]
_CHI_MINUS = symmetry_transform().transform[:2]
# F_k = phase_k * a_k for the real amplitude rows of _kernels.mode_amplitudes
_F_PHASES = np.array([1.0, -1j, 1.0, -1j])


@dataclass(frozen=True)
class Amplitudes:
    """Projections of a phi-basis state onto chi1+, chi2+, chi4+, chi3+."""

    f1: complex
    f2: complex
    f3: complex
    f4: complex


@dataclass(frozen=True)
class EvolutionTrace:
    """Uniform-grid time series of (P1, P2, P3, P4).

    ``leakage`` is the antisymmetric-sector population, identically zero
    because the closed form never leaves the symmetric sector.
    """

    params: CouplingParams
    times: np.ndarray
    probs: np.ndarray
    leakage: np.ndarray

    @property
    def rows(self):
        return self.probs

    @property
    def p3(self):
        return self.probs[:, 2]


def _require_symmetric(p):
    if not p.is_symmetric:
        raise ExchangeSymmetryError(
            "the protocol assumes identical SQUIDs (g1 = g2, omega1 = omega2)"
        )


def sector_modes(p):
    """Mode weights and frequencies of the dark state's symmetric-sector dynamics.

    Returns ``(w, e)``: ``e = (E1, E3)``, the singular values of the
    coupling block B, and real weights ``w`` with rows F1, F2, F3, F4 and
    columns cos(E1 t), cos(E3 t), sin(E1 t), sin(E3 t).  The amplitudes are
    F1 = a1, F2 = -i a2, F3 = a3, F4 = -i a4 with ``a = w @ basis(t)``.
    """
    _require_symmetric(p)
    b = np.array([[SQRT2 * p.g1, p.g_prime], [p.omega1, 0.0]])
    u, e, vt = np.linalg.svd(b)
    x = (_F_VECTORS[[0, 2]] @ dark_state_full(p)).real
    c = u.T @ x
    w = np.zeros((4, 4))
    w[0::2, :2] = u * c
    w[1::2, 2:] = vt.T * c
    return w, e


def _check_t_max(t_max):
    if not (0.0 < t_max < np.inf):
        raise ValueError("t_max must be finite and > 0")


def evolve(p, t):
    """Dark state (aux in ground) evolved for time t, phi basis."""
    if not (0.0 <= t < np.inf):
        raise ValueError("t must be finite and >= 0")
    w, e = sector_modes(p)
    return _F_VECTORS.T @ (_F_PHASES * _kernels.mode_amplitudes(w, e, t))


def amplitudes(psi):
    """Symmetric-sector amplitudes of a 6-dim phi-basis state."""
    psi = np.asarray(psi)
    if psi.shape != (6,):
        raise DimensionError(f"expected a 6-dim phi-basis state, got {psi.shape}")
    return Amplitudes(*(_F_VECTORS @ psi))


def probabilities(a):
    """(P1, P2, P3, P4) from symmetric-sector amplitudes."""
    return (
        abs(a.f1) ** 2,
        abs(a.f2) ** 2,
        abs(a.f3) ** 2,
        abs(a.f4) ** 2,
    )


def antisymmetric_leakage(psi):
    """Total population on the antisymmetric chi vectors."""
    proj = _CHI_MINUS @ np.asarray(psi)
    return float(np.sum(np.abs(proj) ** 2))


def trace(p, t_max=DEFAULT_T_MAX, n_steps=DEFAULT_N_STEPS):
    """Evolution trace on a uniform grid over [0, t_max] with n_steps points."""
    _check_t_max(t_max)
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    w, e = sector_modes(p)
    times = np.linspace(0.0, t_max, n_steps)
    probs = np.stack(_kernels.scan_probs(w, e, times), axis=1)
    return EvolutionTrace(
        params=p, times=times, probs=probs, leakage=np.zeros(n_steps)
    )
