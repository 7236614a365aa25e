"""Dense complex Hermitian linear algebra for dimensions up to 8.

Two independent propagator routes are provided: the eigendecomposition
path (:func:`propagator`, LAPACK via ``numpy.linalg.eigh``) and a scaled
Taylor series with repeated squaring (:func:`propagator_oracle`).  They are
kept separate so each can verify the other, and both verify the closed-form
dynamics.
"""

from dataclasses import dataclass

import numpy as np

MAX_DIM = 8
HERMITICITY_TOL = 1e-14


class DimensionError(ValueError):
    """Matrix/vector dimensions are unsupported or inconsistent."""


class NonHermitianError(ValueError):
    """Input matrix violates the Hermiticity tolerance."""


class ConvergenceError(RuntimeError):
    """The eigensolver failed to converge (should not happen for dim <= 8)."""


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition: ascending real eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return self.eigenvalues.shape[0]


def check_hermitian(h):
    """Validate shape, size and Hermiticity; return a complex128 copy."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {h.shape}")
    n = h.shape[0]
    if n < 1 or n > MAX_DIM:
        raise DimensionError(f"dimension {n} outside supported range 1..{MAX_DIM}")
    h = h.astype(np.complex128)
    if not np.all(np.isfinite(h.view(np.float64))):
        raise NonHermitianError("matrix contains non-finite entries")
    dev = np.abs(h - h.conj().T)
    j, k = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[j, k] > HERMITICITY_TOL:
        raise NonHermitianError(
            f"entry ({j},{k}) deviates from Hermiticity by {dev[j, k]:.3e}"
        )
    return h


def hermitian_eig(h):
    """Diagonalize a Hermitian matrix: ascending eigenvalues, orthonormal columns."""
    h = check_hermitian(h)
    try:
        evals, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed (dim {h.shape[0]}): {exc}")
    # eigh returns the eigenvalues in ascending order
    return EigenSystem(eigenvalues=evals, eigenvectors=v)


def propagator(eig, t):
    """exp(-i H t) from the eigendecomposition of H."""
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    v = eig.eigenvectors
    phases = np.exp(-1j * eig.eigenvalues * t)
    return (v * phases) @ v.conj().T


def propagator_oracle(h, t):
    """exp(-i H t) by scaled Taylor series with repeated squaring.

    Independent of the eigendecomposition path; used as a cross-check.
    """
    h = check_hermitian(h)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    n = h.shape[0]
    m = -1j * t * h
    norm = np.linalg.norm(m, np.inf)
    s = 0
    if norm > 0.5:
        s = int(np.ceil(np.log2(norm / 0.5)))
    x = m / (2.0**s)
    u = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, 60):
        term = term @ x / k
        u = u + term
        if np.max(np.abs(term)) < 1e-16:
            break
    for _ in range(s):
        u = u @ u
    return u


def apply(u, psi):
    """Apply a unitary to a state vector."""
    u = np.asarray(u)
    psi = np.asarray(psi, dtype=np.complex128)
    if u.ndim != 2 or psi.ndim != 1 or u.shape[1] != psi.shape[0]:
        raise DimensionError(
            f"incompatible shapes: matrix {u.shape}, vector {psi.shape}"
        )
    return u @ psi
