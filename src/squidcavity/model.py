"""Hilbert-space bases and Hamiltonians for two lambda-type SQUIDs, one
cavity mode and an auxiliary two-level SQUID.

All couplings are dimensionless (energies in units of the classical drive
strength, times in its inverse).  The single-excitation subspace without
the auxiliary qubit is 5-dimensional (psi basis); with it, 6-dimensional
(phi basis).  Exchange symmetry of the two SQUIDs splits the 6x6 problem
into a 2x2 antisymmetric block and a 4x4 symmetric block.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, hermitian_eig

SQRT2 = np.sqrt(2.0)
# Largest coupling accepted: at Omega = 1, eta = 1 + 2 g^2 + g'^2 and eta^2 stay finite
MAX_COUPLING = 1e75


class ExchangeSymmetryError(ValueError):
    """Operation requires identical SQUIDs (g1 = g2, omega1 = omega2)."""


class DarkStateUndefinedError(ValueError):
    """All dark-state coefficients vanish for these couplings."""


@dataclass(frozen=True)
class CouplingParams:
    """Dimensionless couplings: cavity (g1, g2), drives (omega1, omega2),
    auxiliary-cavity (g_prime)."""

    g1: float
    g2: float
    omega1: float
    omega2: float
    g_prime: float

    def __post_init__(self):
        for name in ("g1", "g2", "omega1", "omega2", "g_prime"):
            val = getattr(self, name)
            if not 0.0 <= val <= MAX_COUPLING:
                raise ValueError(f"{name} must lie in [0, {MAX_COUPLING:g}], got {val}")

    @classmethod
    def symmetric(cls, g, g_prime):
        return cls(g1=g, g2=g, omega1=1.0, omega2=1.0, g_prime=g_prime)

    @property
    def is_symmetric(self):
        return self.g1 == self.g2 and self.omega1 == self.omega2

    @property
    def g(self):
        if not self.is_symmetric:
            raise ExchangeSymmetryError(
                "the protocol assumes identical SQUIDs (g1 = g2, omega1 = omega2)"
            )
        return self.g1


@dataclass(frozen=True)
class BasisLabel:
    """Product-state label; ``auxiliary`` is None for the 5-state subspace."""

    squid1: str
    squid2: str
    photons: int
    auxiliary: str | None = None

    def __post_init__(self):
        if self.squid1 not in ("0", "1", "a") or self.squid2 not in ("0", "1", "a"):
            raise ValueError("SQUID levels must be one of '0', '1', 'a'")
        if self.auxiliary not in (None, "g", "e"):
            raise ValueError("auxiliary level must be 'g', 'e' or None")
        if self.photons < 0:
            raise ValueError("photon number must be >= 0")

    @property
    def excitation(self):
        n = sum(1 for lv in (self.squid1, self.squid2) if lv in ("1", "a"))
        n += self.photons
        if self.auxiliary == "e":
            n += 1
        return n

    def __str__(self):
        aux = "" if self.auxiliary is None else f",{self.auxiliary}"
        return f"|{self.squid1}{self.squid2},{self.photons}ph{aux}>"


# psi basis: N0 = 1 subspace of the two SQUIDs + cavity (no auxiliary)
PSI_BASIS = (
    BasisLabel("0", "0", 1),
    BasisLabel("a", "0", 0),
    BasisLabel("0", "a", 0),
    BasisLabel("1", "0", 0),
    BasisLabel("0", "1", 0),
)

# phi basis: N = 1 subspace including the auxiliary SQUID
PHI_BASIS = (
    BasisLabel("0", "0", 1, "g"),
    BasisLabel("a", "0", 0, "g"),
    BasisLabel("0", "a", 0, "g"),
    BasisLabel("0", "0", 0, "e"),
    BasisLabel("1", "0", 0, "g"),
    BasisLabel("0", "1", 0, "g"),
)

# phi = psi (x) |g> + |00,0ph,e>: PSI_BASIS[j] sits at phi index AUX_G_INDICES[j]
AUX_G_INDICES = (0, 1, 2, 4, 5)
AUX_E_INDICES = (3,)

# two-SQUID basis used for the target states
TWO_SQUID_BASIS = (
    BasisLabel("1", "0", 0),
    BasisLabel("0", "1", 0),
    BasisLabel("a", "0", 0),
    BasisLabel("0", "a", 0),
)


def enumerate_basis(subspace):
    """Ordered basis of the requested single-excitation subspace.

    ``subspace`` is "N0_one_no_aux" (5 states) or "N_one_with_aux" (6 states).
    """
    if subspace == "N0_one_no_aux":
        return list(PSI_BASIS)
    if subspace == "N_one_with_aux":
        return list(PHI_BASIS)
    raise ValueError(f"unknown subspace {subspace!r}")


def build_h0(p):
    """5x5 Hamiltonian of the two driven SQUIDs + cavity in the psi basis."""
    h = np.zeros((5, 5), dtype=np.complex128)
    h[1, 0] = h[0, 1] = p.g1
    h[2, 0] = h[0, 2] = p.g2
    h[1, 3] = h[3, 1] = p.omega1
    h[2, 4] = h[4, 2] = p.omega2
    return h


def build_h_full(p):
    """6x6 Hamiltonian including the auxiliary SQUID, phi basis: H0 on the
    |g> states plus the g' exchange of the photon with |00,0ph,e>."""
    h = np.zeros((6, 6), dtype=np.complex128)
    h[np.ix_(AUX_G_INDICES, AUX_G_INDICES)] = build_h0(p)
    h[AUX_G_INDICES[0], AUX_E_INDICES[0]] = h[AUX_E_INDICES[0], AUX_G_INDICES[0]] = p.g_prime
    return h


@dataclass(frozen=True)
class SymmetryBasis:
    """Orthogonal map from phi coordinates to exchange-parity coordinates."""

    transform: np.ndarray
    parity: tuple


def symmetry_transform():
    """Rows are the parity-adapted chi vectors expressed in the phi basis.

    Order: chi1-, chi2-, chi1+, chi2+, chi3+, chi4+.
    """
    s = 1.0 / SQRT2
    t = np.array(
        [
            [0, s, -s, 0, 0, 0],
            [0, 0, 0, 0, s, -s],
            [1, 0, 0, 0, 0, 0],
            [0, s, s, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, s, s],
        ]
    )
    return SymmetryBasis(transform=t, parity=("-", "-", "+", "+", "+", "+"))


@dataclass(frozen=True)
class BlockHamiltonian:
    """Exchange-parity blocks: 2x2 antisymmetric, 4x4 symmetric."""

    h2: np.ndarray
    h4: np.ndarray


def block_decompose(p):
    """Split the 6x6 Hamiltonian into its exchange-parity blocks.

    Requires identical SQUIDs; the blocks are built directly in the chi
    basis so their entries are exact.
    """
    g = p.g
    om = p.omega1
    gp = p.g_prime
    h2 = np.array([[0, om], [om, 0]], dtype=np.complex128)
    h4 = np.array(
        [
            [0, SQRT2 * g, gp, 0],
            [SQRT2 * g, 0, 0, om],
            [gp, 0, 0, 0],
            [0, om, 0, 0],
        ],
        dtype=np.complex128,
    )
    return BlockHamiltonian(h2=h2, h4=h4)


def analytic_eigenvalues(p):
    """Closed-form spectrum of the 6x6 Hamiltonian for identical SQUIDs.

    Returns the six values ascending: {-E1, -Omega, -E3, E3, Omega, E1} with
    E1^2 = (eta + sqrt(eta^2 - 4 g'^2 Omega^2)) / 2, eta = Omega^2 + 2 g^2 +
    g'^2, and E3 = g' Omega / E1.  The couplings are first scaled exactly by
    the power of two s >= max(g, g', Omega), so no square can overflow.
    """
    top = max(p.g, p.g_prime, p.omega1)
    if top == 0.0:
        return np.zeros(6)
    k = math.frexp(top)[1]
    g, gp, om = (math.ldexp(v, -k) for v in (p.g1, p.g_prime, p.omega1))
    eta = om * om + 2.0 * g * g + gp * gp
    # eta^2 - 4 g'^2 Omega^2 = ((g' - Omega)^2 + 2 g^2)((g' + Omega)^2 + 2 g^2):
    # no cancellation at E1 = E3
    root = np.sqrt(((gp - om) ** 2 + 2.0 * g * g) * ((gp + om) ** 2 + 2.0 * g * g))
    e1 = np.sqrt((eta + root) / 2.0)
    e3 = gp * om / e1  # E1 E3 = g' Omega (eta - root would cancel)
    return np.ldexp(np.sort(np.array([-e1, -om, -e3, e3, om, e1])), k)


def _scaled_products(*pairs):
    """The products a*b of ``pairs``, all times one power of two that puts the
    largest in [1/4, 1).  Each factor is split into mantissa and exponent
    first, so a product vanishes only below 2^-1074 of the largest, and the
    scaling is exact: normalizing the result is scale-free."""
    parts = [(ma * mb, ea + eb)
             for (ma, ea), (mb, eb) in ((math.frexp(a), math.frexp(b)) for a, b in pairs)]
    top = max((e for m, e in parts if m), default=0)
    return [math.ldexp(m, e - top) for m, e in parts]


def dark_state(p):
    """Normalized zero-eigenvalue state of H0, psi basis (5 amplitudes)."""
    c_photon, c_s1, c_s2 = _scaled_products(
        (-p.omega1, p.omega2), (p.omega2, p.g1), (p.omega1, p.g2)
    )
    norm = np.sqrt(c_photon * c_photon + c_s1 * c_s1 + c_s2 * c_s2)
    if norm == 0.0:
        raise DarkStateUndefinedError(
            "dark state undefined: omega2*g1, omega1*g2 and omega1*omega2 all vanish"
        )
    vec = np.zeros(5, dtype=np.complex128)
    vec[0] = c_photon / norm
    vec[3] = c_s1 / norm
    vec[4] = c_s2 / norm
    return vec


def embed_aux_ground(psi5):
    """Tensor a psi-basis state with the auxiliary ground state (phi basis)."""
    psi5 = np.asarray(psi5, dtype=np.complex128)
    if psi5.shape != (5,):
        raise DimensionError(f"expected a 5-dim psi-basis state, got {psi5.shape}")
    out = np.zeros(6, dtype=np.complex128)
    out[list(AUX_G_INDICES)] = psi5
    return out


def dark_state_full(p):
    """Dark state tensored with the auxiliary ground state, phi basis."""
    return embed_aux_ground(dark_state(p))


def target_states():
    """The stable (|C>) and unstable (|D>) Bell states over TWO_SQUID_BASIS."""
    s = 1.0 / SQRT2
    c = np.array([s, s, 0, 0], dtype=np.complex128)
    d = np.array([0, 0, s, s], dtype=np.complex128)
    return c, d, TWO_SQUID_BASIS


def entangled_state_general(p):
    """Post-measurement two-SQUID state for general couplings, over
    TWO_SQUID_BASIS (support on the first two labels)."""
    c1, c2 = _scaled_products((p.omega2, p.g1), (p.omega1, p.g2))
    norm = np.sqrt(c1 * c1 + c2 * c2)
    if norm == 0.0:
        raise ValueError("entangled state undefined: both coefficients vanish")
    vec = np.zeros(4, dtype=np.complex128)
    vec[0] = c1 / norm
    vec[1] = c2 / norm
    return vec


def spectrum(p):
    """Numeric spectrum of the full 6x6 Hamiltonian, ascending."""
    return hermitian_eig(build_h_full(p)).eigenvalues
