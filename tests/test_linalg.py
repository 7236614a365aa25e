import numpy as np
import pytest

from squidcavity.linalg import (
    ConvergenceError,
    DimensionError,
    NonHermitianError,
    apply,
    hermitian_eig,
    propagator,
    propagator_oracle,
)

H2 = np.array([[0.0, 1.0], [1.0, 0.0]])

H4_UNIT = np.array(
    [
        [0, np.sqrt(2), 1, 0],
        [np.sqrt(2), 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
)


def test_h2_spectrum():
    eig = hermitian_eig(H2)
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_identity_spectrum():
    eig = hermitian_eig(np.eye(3))
    assert np.allclose(eig.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)
    # eigenvectors: any orthonormal set is fine
    v = eig.eigenvectors
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_h4_spectrum_against_charpoly_roots():
    # independent oracle: roots of lam^4 - eta lam^2 + g'^2 with eta = 4
    oracle = np.sort(np.roots([1.0, 0.0, -4.0, 0.0, 1.0]).real)
    eig = hermitian_eig(H4_UNIT)
    assert np.allclose(eig.eigenvalues, oracle, atol=1e-10)
    assert np.allclose(
        eig.eigenvalues,
        [-1.9318516525781366, -0.5176380902050415, 0.5176380902050415, 1.9318516525781366],
        atol=1e-10,
    )


def test_non_hermitian_rejected():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(NonHermitianError, match=r"\(0,1\)|\(1,0\)"):
        hermitian_eig(bad)
    for entry in (np.nan, np.inf, complex(0.0, np.nan)):
        with pytest.raises(NonHermitianError, match="non-finite"):
            hermitian_eig(np.array([[0.0, entry], [entry, 0.0]]))


def test_dimension_limits():
    with pytest.raises(DimensionError):
        hermitian_eig(np.eye(9))
    with pytest.raises(DimensionError):
        hermitian_eig(np.zeros((2, 3)))


def test_eigensolver_failure_raises_convergence_error(monkeypatch):
    def failing(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(ConvergenceError, match=r"dim 3\): Eigenvalues did not converge"):
        hermitian_eig(np.eye(3))


def test_eigensystem_invariants(rng, random_hermitian):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        h = random_hermitian(rng, n)
        eig = hermitian_eig(h)
        scale = np.linalg.norm(h)
        assert np.all(np.diff(eig.eigenvalues) >= -1e-13)
        v = eig.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12
        resid = h @ v - v * eig.eigenvalues
        assert np.linalg.norm(resid) <= 1e-11 * max(scale, 1.0)
        # spectral reconstruction
        recon = (v * eig.eigenvalues) @ v.conj().T
        assert np.linalg.norm(recon - h) <= 1e-11 * max(scale, 1.0)


def test_spectrum_invariant_under_unitary_conjugation(rng, random_hermitian):
    h = random_hermitian(rng, 6)
    u = hermitian_eig(random_hermitian(rng, 6)).eigenvectors
    e1 = hermitian_eig(h).eigenvalues
    e2 = hermitian_eig(u.conj().T @ h @ u).eigenvalues
    assert np.allclose(e1, e2, atol=1e-10)


def test_propagator_at_zero_is_identity(rng, random_hermitian):
    h = random_hermitian(rng, 5)
    u = propagator(hermitian_eig(h), 0.0)
    assert np.max(np.abs(u - np.eye(5))) < 1e-12


def test_propagator_rabi_half_period():
    # closed 2x2 form: U = cos(t) I - i sin(t) X
    u = propagator(hermitian_eig(H2), np.pi / 2)
    out = u @ np.array([1.0, 0.0])
    assert abs(out[0]) < 1e-12
    assert abs(out[1] - (-1j)) < 1e-12


def test_propagator_group_property(rng, random_hermitian):
    h = random_hermitian(rng, 6)
    eig = hermitian_eig(h)
    u1 = propagator(eig, 0.7)
    u2 = propagator(eig, 1.9)
    u12 = propagator(eig, 2.6)
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-9


def test_norm_preservation(rng, random_hermitian):
    h = random_hermitian(rng, 7)
    eig = hermitian_eig(h)
    psi = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    psi /= np.linalg.norm(psi)
    for t in (0.0, 1.3, 50.0, 200.0):
        out = apply(propagator(eig, t), psi)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_propagators_reject_non_finite_time(t):
    with pytest.raises(ValueError, match="finite"):
        propagator(hermitian_eig(H2), t)
    with pytest.raises(ValueError, match="finite"):
        propagator_oracle(H2, t)


def test_oracle_trivial_cases():
    assert np.max(np.abs(propagator_oracle(np.zeros((3, 3)), 5.0) - np.eye(3))) < 1e-14
    u = propagator_oracle(np.array([[2.0]]), 0.7)
    assert abs(u[0, 0] - np.exp(-1j * 2.0 * 0.7)) < 1e-14


def test_oracle_matches_eig_path(rng, random_hermitian):
    h = random_hermitian(rng, 6)
    u_eig = propagator(hermitian_eig(h), 2.0)
    u_series = propagator_oracle(h, 2.0)
    assert np.max(np.abs(u_eig - u_series)) < 1e-8


def test_oracle_h4_case():
    u_eig = propagator(hermitian_eig(H4_UNIT), 1.0)
    u_series = propagator_oracle(H4_UNIT, 1.0)
    assert np.max(np.abs(u_eig - u_series)) < 1e-8


def test_apply_identity_and_permutation():
    psi = np.array([1.0, 0.0, 0.0])
    assert np.allclose(apply(np.eye(3), psi), psi)
    perm = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
    assert np.allclose(apply(perm, np.array([0.0, 1.0, 0.0])), [1.0, 0.0, 0.0])


def test_apply_full_rabi_period():
    u = propagator(hermitian_eig(H2), np.pi)
    out = apply(u, np.array([1.0, 0.0]))
    assert abs(out[0] + 1.0) < 1e-12
    assert abs(out[1]) < 1e-12


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionError):
        apply(np.eye(3), np.array([1.0, 0.0]))
