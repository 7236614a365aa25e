"""Time evolution of the dark state under the full Hamiltonian.

Probabilities are labelled after the symmetric-sector components the
state decomposes into: P1 (photon in the cavity), P2 (|D> component),
P3 (|C> component, the target), P4 (auxiliary excited).

The dark state never leaves the 4-dim symmetric sector.  That sector is
bipartite: (F1, F3) couple only to (F2, F4) through the 2x2 block
B = [[sqrt2 g, g'], [Omega, 0]].  With the SVD B = U diag(E1, E3) V^T and
the dark state's sector vector x = (F1, F3)(0),

    [F1, F3](t) = U cos(E t) U^T x,    [F2, F4](t) = -i V sin(E t) U^T x,

so E1 >= E3 (E1 E3 = g' Omega, E1^2 + E3^2 = eta) are the only frequencies;
``sector_modes`` gives them with (2, 2, 2) cosine and sine weights.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .linalg import DimensionError
from .model import (
    CouplingParams,
    SQRT2,
    dark_state_full,
    symmetry_transform,
)

DEFAULT_T_MAX = 200.0
DEFAULT_N_STEPS = 4001
# Largest phase E1*t accepted: one ulp of 2^32 is about 1e-6 rad
MAX_PHASE = 2.0**32
# Largest time grid (trace steps, optimizer scan samples) allocated
MAX_SAMPLES = 2**22

# phi-coordinates of the symmetric-sector vectors carrying F1, F2, F3, F4
# (chi1+, chi2+, chi4+, chi3+), and of the antisymmetric chi vectors
_F_VECTORS = symmetry_transform().transform[[2, 3, 5, 4]]
_CHI_MINUS = symmetry_transform().transform[:2]


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
    def p3(self):
        return self.probs[:, 2]


def sector_modes(p):
    """Mode weights and frequencies of the dark state's symmetric-sector dynamics.

    Returns ``(m, e)``: ``e = (E1, E3)``, the singular values of the
    coupling block B, and real weights ``m`` of shape (2, 2, 2), columns E1,
    E3: [a1, a3] = m[0] @ cos(e t) and [a2, a4] = m[1] @ sin(e t), with
    F1 = a1, F2 = -i a2, F3 = a3, F4 = -i a4.
    """
    b = np.array([[SQRT2 * p.g, p.g_prime], [p.omega1, 0.0]])
    u, e, vt = np.linalg.svd(b)
    x = (_F_VECTORS[[0, 2]] @ dark_state_full(p)).real
    c = u.T @ x
    m = np.empty((2, 2, 2))
    np.multiply(u, c, out=m[0])
    np.multiply(vt.T, c, out=m[1])
    return m, e


def _check_t_max(t_max):
    if not (0.0 < t_max < np.inf):
        raise ValueError("t_max must be finite and > 0")


def _check_phase(e, t):
    if e[0] * t > MAX_PHASE:
        raise ValueError(f"E1*t = {e[0] * t:.3g} exceeds 2^32: double precision cannot resolve it")


def evolve(p, t):
    """Dark state (aux in ground) evolved for time t, phi basis."""
    if not (0.0 <= t < np.inf):
        raise ValueError("t must be finite and >= 0")
    m, e = sector_modes(p)
    _check_phase(e, t)
    c, s = _kernels.derivative_rows(m, e, t)
    return _F_VECTORS[0::2].T @ c - 1j * (_F_VECTORS[1::2].T @ s)


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
    try:
        n_steps = operator.index(n_steps)
    except TypeError:
        raise ValueError(f"n_steps must be an int, got {n_steps!r}") from None
    if not (2 <= n_steps <= MAX_SAMPLES):
        raise ValueError(f"n_steps must lie in [2, {MAX_SAMPLES}]")
    m, e = sector_modes(p)
    _check_phase(e, t_max)
    times = np.linspace(0.0, t_max, n_steps)
    probs = _kernels.grid_probs(m, e, t_max, n_steps).T
    return EvolutionTrace(
        params=p, times=times, probs=probs, leakage=np.zeros(n_steps)
    )
