import numpy as np
import pytest

from squidcavity.linalg import hermitian_eig
from squidcavity.model import (
    CouplingParams,
    DarkStateUndefinedError,
    ExchangeSymmetryError,
    analytic_eigenvalues,
    block_decompose,
    build_h0,
    build_h_full,
    dark_state,
    dark_state_full,
    enumerate_basis,
    entangled_state_general,
    symmetry_transform,
    target_states,
)


def test_psi_basis_order():
    basis = enumerate_basis("N0_one_no_aux")
    assert len(basis) == 5
    assert str(basis[0]) == "|00,1ph>"
    assert str(basis[1]) == "|a0,0ph>"
    assert str(basis[2]) == "|0a,0ph>"
    assert str(basis[3]) == "|10,0ph>"
    assert str(basis[4]) == "|01,0ph>"


def test_phi_basis_order():
    basis = enumerate_basis("N_one_with_aux")
    assert len(basis) == 6
    assert str(basis[3]) == "|00,0ph,e>"


def test_single_excitation_in_both_subspaces():
    for name in ("N0_one_no_aux", "N_one_with_aux"):
        for label in enumerate_basis(name):
            assert label.excitation == 1


def test_unknown_subspace():
    with pytest.raises(ValueError):
        enumerate_basis("N_two")


def test_h0_unit_couplings():
    p = CouplingParams(1.0, 1.0, 1.0, 1.0, 0.0)
    h = build_h0(p)
    expected = np.zeros((5, 5))
    expected[1, 0] = expected[0, 1] = 1.0
    expected[2, 0] = expected[0, 2] = 1.0
    expected[1, 3] = expected[3, 1] = 1.0
    expected[2, 4] = expected[4, 2] = 1.0
    assert np.array_equal(h.real, expected)
    assert np.all(h.imag == 0)


def test_h0_all_zero():
    p = CouplingParams(0.0, 0.0, 0.0, 0.0, 0.0)
    assert np.all(build_h0(p) == 0)


def test_dark_state_nullity_random(rng):
    for _ in range(200):
        g1, g2, om1, om2 = rng.uniform(0.01, 3.0, 4)
        p = CouplingParams(g1, g2, om1, om2, 0.0)
        d = dark_state(p)
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12
        assert d[1] == 0 and d[2] == 0
        assert np.linalg.norm(build_h0(p) @ d) <= 1e-12


def test_dark_state_symmetric_form():
    g = 0.7
    p = CouplingParams.symmetric(g, 0.0)
    d = dark_state(p)
    n = 1.0 / np.sqrt(2 * g * g + 1)
    assert np.allclose(d, [-n, 0, 0, g * n, g * n], atol=1e-15)


def test_dark_state_pure_photon_limit():
    p = CouplingParams(0.0, 0.0, 1.0, 1.0, 0.0)
    d = dark_state(p)
    assert np.allclose(d, [-1, 0, 0, 0, 0], atol=1e-15)


def test_dark_state_normalization_arithmetic():
    # coefficients (omega2 g1, omega1 g2, -omega1 omega2) = (3, 4, -12), norm 13
    p = CouplingParams(g1=1.0, g2=1.0, omega1=4.0, omega2=3.0, g_prime=0.0)
    d = dark_state(p)
    assert np.allclose(d, [-12 / 13, 0, 0, 3 / 13, 4 / 13], atol=1e-15)


def test_dark_state_undefined():
    with pytest.raises(DarkStateUndefinedError):
        dark_state(CouplingParams(1.0, 1.0, 0.0, 0.0, 0.0))


def test_h_full_matches_displayed_matrix():
    g, gp = 0.8, 1.3
    p = CouplingParams.symmetric(g, gp)
    h = build_h_full(p)
    expected = np.array(
        [
            [0, g, g, gp, 0, 0],
            [g, 0, 0, 0, 1, 0],
            [g, 0, 0, 0, 0, 1],
            [gp, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
        ]
    )
    assert np.array_equal(h.real, expected)


def test_h_full_gprime_off_keeps_dark_state_stationary():
    p = CouplingParams.symmetric(0.9, 0.0)
    h = build_h_full(p)
    assert np.all(h[3, :] == 0) and np.all(h[:, 3] == 0)
    assert np.linalg.norm(h @ dark_state_full(p)) <= 1e-12


def test_h_full_embeds_h0():
    p = CouplingParams(0.4, 1.1, 0.9, 0.7, 1.5)
    h6 = build_h_full(p)
    sel = [0, 1, 2, 4, 5]
    assert np.array_equal(h6[np.ix_(sel, sel)], build_h0(p))


def test_symmetry_transform_orthogonal():
    t = symmetry_transform().transform
    assert np.max(np.abs(t @ t.T - np.eye(6))) < 1e-14
    # phi2 decomposes into (chi1- + chi2+)/sqrt(2)
    phi2 = np.zeros(6)
    phi2[1] = 1.0
    coords = t @ phi2
    s = 1 / np.sqrt(2)
    assert np.allclose(coords, [s, 0, 0, s, 0, 0], atol=1e-15)


def test_conjugation_block_diagonalizes():
    t = symmetry_transform().transform
    for g, gp in [(0.3, 0.5), (1.0, 1.0), (2.9, 0.1)]:
        h = build_h_full(CouplingParams.symmetric(g, gp)).real
        hc = t @ h @ t.T
        assert np.max(np.abs(hc[:2, 2:])) <= 1e-14
        assert np.max(np.abs(hc[2:, :2])) <= 1e-14


def test_block_matrices():
    p = CouplingParams.symmetric(1.0, 1.0)
    blocks = block_decompose(p)
    assert np.array_equal(blocks.h2.real, [[0, 1], [1, 0]])
    assert np.allclose(blocks.h4.real[0], [0, np.sqrt(2), 1, 0], atol=0)


def test_block_matches_conjugation():
    t = symmetry_transform().transform
    p = CouplingParams.symmetric(0.7, 2.2)
    h = build_h_full(p).real
    hc = t @ h @ t.T
    blocks = block_decompose(p)
    assert np.max(np.abs(hc[:2, :2] - blocks.h2.real)) < 1e-14
    assert np.max(np.abs(hc[2:, 2:] - blocks.h4.real)) < 1e-14


def test_block_spectrum_union(rng):
    for _ in range(10):
        g, gp = rng.uniform(0.05, 3.0, 2)
        p = CouplingParams.symmetric(g, gp)
        blocks = block_decompose(p)
        combined = np.sort(
            np.concatenate(
                [
                    hermitian_eig(blocks.h2).eigenvalues,
                    hermitian_eig(blocks.h4).eigenvalues,
                ]
            )
        )
        full = hermitian_eig(build_h_full(p)).eigenvalues
        assert np.allclose(combined, full, atol=1e-11)


def test_block_requires_symmetry():
    with pytest.raises(ExchangeSymmetryError, match="g1 = g2"):
        block_decompose(CouplingParams(1.0, 2.0, 1.0, 1.0, 0.5))


def test_analytic_eigenvalues_unit_point():
    vals = analytic_eigenvalues(CouplingParams.symmetric(1.0, 1.0))
    e1 = np.sqrt(2 + np.sqrt(3))
    e3 = np.sqrt(2 - np.sqrt(3))
    assert np.allclose(vals, np.sort([-e1, -1, -e3, e3, 1, e1]), atol=1e-14)


def test_analytic_eigenvalues_decoupled():
    vals = analytic_eigenvalues(CouplingParams.symmetric(0.0, 0.0))
    assert np.allclose(vals, [-1, -1, 0, 0, 1, 1], atol=1e-14)


def test_analytic_vs_numeric_random(rng):
    for _ in range(50):
        g, gp = rng.uniform(0.01, 3.0, 2)
        p = CouplingParams.symmetric(g, gp)
        vals = analytic_eigenvalues(p)
        numeric = hermitian_eig(build_h_full(p)).eigenvalues
        assert np.max(np.abs(vals - numeric)) < 1e-10


def test_analytic_vs_numeric_log_grid(rng):
    # E3 = g'/E1 has no cancellation: large g or g' keeps it exact
    for g, gp in 10.0 ** rng.uniform(-3.0, 4.0, (2000, 2)):
        p = CouplingParams.symmetric(g, gp)
        numeric = hermitian_eig(build_h_full(p)).eigenvalues
        err = np.abs(analytic_eigenvalues(p) - numeric) / np.maximum(1.0, np.abs(numeric))
        assert np.max(err) < 1e-12, (g, gp)


def test_target_states():
    c, d, labels = target_states()
    assert abs(np.linalg.norm(c) - 1) < 1e-15
    assert abs(np.linalg.norm(d) - 1) < 1e-15
    assert abs(np.vdot(c, d)) == 0
    assert len(labels) == 4


def test_entangled_state_reduces_to_bell():
    c, _, _ = target_states()
    p = CouplingParams(1.0, 1.0, 1.0, 1.0, 0.0)
    assert np.allclose(entangled_state_general(p), c, atol=1e-15)


def test_entangled_state_product_limit():
    p = CouplingParams(g1=1.0, g2=0.0, omega1=1.0, omega2=1.0, g_prime=0.0)
    assert np.allclose(entangled_state_general(p), [1, 0, 0, 0], atol=1e-15)


def test_entangled_state_normalization():
    # coefficients (3, 4) -> amplitudes (0.6, 0.8)
    p = CouplingParams(g1=1.0, g2=2.0, omega1=2.0, omega2=3.0, g_prime=0.0)
    assert np.allclose(entangled_state_general(p), [0.6, 0.8, 0, 0], atol=1e-15)


def test_entangled_state_undefined():
    with pytest.raises(ValueError):
        entangled_state_general(CouplingParams(0.0, 0.0, 1.0, 1.0, 0.0))


def test_params_validation():
    with pytest.raises(ValueError):
        CouplingParams(-1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        CouplingParams(np.inf, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        CouplingParams.symmetric(1.0, 1e200)
    assert np.all(np.isfinite(analytic_eigenvalues(CouplingParams.symmetric(1e75, 1e75))))
    assert CouplingParams.symmetric(1.0, 0.5).is_symmetric
    assert not CouplingParams(1.0, 2.0, 1.0, 1.0, 0.0).is_symmetric
