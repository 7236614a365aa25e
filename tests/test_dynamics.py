import numpy as np
import pytest

from squidcavity.dynamics import (
    amplitudes,
    antisymmetric_leakage,
    evolve,
    probabilities,
    sector_modes,
    trace,
)
from squidcavity.linalg import propagator_oracle
from squidcavity.model import (
    CouplingParams,
    ExchangeSymmetryError,
    analytic_eigenvalues,
    build_h_full,
    dark_state_full,
)
from squidcavity import _kernels


def chi_plus_coords(psi):
    s = 1 / np.sqrt(2)
    return np.array(
        [psi[0], s * (psi[1] + psi[2]), psi[3], s * (psi[4] + psi[5])]
    )


def test_initial_state_chi_decomposition():
    g = 0.8
    p = CouplingParams.symmetric(g, 1.2)
    psi = evolve(p, 0.0)
    n = 1.0 / np.sqrt(2 * g * g + 1)
    coords = chi_plus_coords(psi)
    assert np.allclose(coords, [-n, 0, 0, np.sqrt(2) * g * n], atol=1e-12)


def test_gprime_off_is_stationary():
    p = CouplingParams.symmetric(0.5, 0.0)
    d0 = dark_state_full(p)
    for t in (0.1, 3.0, 50.0):
        assert np.max(np.abs(evolve(p, t) - d0)) < 1e-10


def test_evolve_matches_series_oracle():
    p = CouplingParams.symmetric(1.0, 1.0)
    t = 0.7
    via_eig = evolve(p, t)
    via_series = propagator_oracle(build_h_full(p), t) @ dark_state_full(p)
    assert np.max(np.abs(via_eig - via_series)) < 1e-8


def test_evolve_rejects_nonsymmetric():
    with pytest.raises(ExchangeSymmetryError):
        evolve(CouplingParams(1.0, 2.0, 1.0, 1.0, 0.5), 1.0)


def test_amplitudes_of_initial_state():
    g = 0.8
    p = CouplingParams.symmetric(g, 1.2)
    a = amplitudes(evolve(p, 0.0))
    n = 1.0 / np.sqrt(2 * g * g + 1)
    assert abs(a.f1 - (-n)) < 1e-12
    assert abs(a.f2) < 1e-12
    assert abs(a.f3 - np.sqrt(2) * g * n) < 1e-12
    assert abs(a.f4) < 1e-12


def test_amplitudes_of_aux_excited():
    phi4 = np.zeros(6, dtype=complex)
    phi4[3] = 1.0
    a = amplitudes(phi4)
    assert (a.f1, a.f2, a.f3) == (0, 0, 0)
    assert a.f4 == 1.0


def test_amplitudes_match_oracle_projection():
    p = CouplingParams.symmetric(1.0, 1.0)
    t = 1.0
    psi = propagator_oracle(build_h_full(p), t) @ dark_state_full(p)
    a = amplitudes(evolve(p, t))
    coords = chi_plus_coords(psi)
    assert abs(a.f1 - coords[0]) < 1e-8
    assert abs(a.f2 - coords[1]) < 1e-8
    assert abs(a.f4 - coords[2]) < 1e-8
    assert abs(a.f3 - coords[3]) < 1e-8


def test_initial_target_component():
    # P3(0) = 2 g^2 / (2 g^2 + 1)
    for g in (0.25, 0.6, 2.95):
        p = CouplingParams.symmetric(g, 1.0)
        probs = probabilities(amplitudes(evolve(p, 0.0)))
        assert abs(probs[2] - 2 * g * g / (2 * g * g + 1)) < 1e-12
    p = CouplingParams.symmetric(0.25, 1.0)
    probs = probabilities(amplitudes(evolve(p, 0.0)))
    assert abs(probs[2] - 0.1111111111111111) < 1e-12


def test_probabilities_trivial():
    from squidcavity.dynamics import Amplitudes

    assert probabilities(Amplitudes(1.0, 0.0, 0.0, 0.0)) == (1.0, 0.0, 0.0, 0.0)


def test_probability_conservation_along_evolution():
    p = CouplingParams.symmetric(1.0, 1.0)
    for t in (0.5, 2.0, 7.7):
        probs = probabilities(amplitudes(evolve(p, t)))
        assert abs(sum(probs) - 1.0) < 1e-8


def test_trace_stationary_when_gprime_off():
    tr = trace(CouplingParams.symmetric(0.25, 0.0), t_max=10.0, n_steps=51)
    assert np.max(np.abs(tr.probs - tr.probs[0])) < 1e-10


def test_trace_rows_sum_to_one_and_stay_symmetric():
    tr = trace(CouplingParams.symmetric(0.6, 1.37), t_max=200.0, n_steps=1001)
    assert np.max(np.abs(tr.probs.sum(axis=1) - 1.0)) < 1e-8
    assert np.max(tr.leakage) <= 1e-10


def test_trace_peak_value_for_small_g():
    # frozen from a dense reference run of this configuration
    tr = trace(CouplingParams.symmetric(0.25, 1.89), t_max=50.0, n_steps=1001)
    assert abs(tr.p3.max() - 0.3150384003032695) < 1e-9


def test_trace_grid_shape():
    tr = trace(CouplingParams.symmetric(1.0, 1.0), t_max=5.0, n_steps=11)
    assert tr.times[0] == 0.0 and tr.times[-1] == 5.0
    assert tr.probs.shape == (11, 4)
    with pytest.raises(ValueError):
        trace(CouplingParams.symmetric(1.0, 1.0), t_max=-1.0)
    with pytest.raises(ValueError):
        trace(CouplingParams.symmetric(1.0, 1.0), n_steps=1)


def test_probabilities_even_in_time():
    from squidcavity.linalg import hermitian_eig, propagator

    p = CouplingParams.symmetric(0.9, 1.4)
    eig = hermitian_eig(build_h_full(p))
    d0 = dark_state_full(p)
    for t in (0.8, 5.0):
        fwd = probabilities(amplitudes(propagator(eig, t) @ d0))
        bwd = probabilities(amplitudes(propagator(eig, -t) @ d0))
        assert np.allclose(fwd, bwd, atol=1e-10)


def test_two_path_agreement_random(rng):
    for _ in range(20):
        g, gp = rng.uniform(0.05, 3.0, 2)
        t = float(rng.uniform(0.0, 20.0))
        p = CouplingParams.symmetric(g, gp)
        via_eig = evolve(p, t)
        via_series = propagator_oracle(build_h_full(p), t) @ dark_state_full(p)
        assert np.max(np.abs(via_eig - via_series)) < 1e-8


def test_sector_modes_reproduce_trace():
    p = CouplingParams.symmetric(0.6, 1.37)
    w, lam = sector_modes(p)
    tr = trace(p, t_max=20.0, n_steps=101)
    p1, p2, p3, p4 = _kernels.scan_probs(w, lam, tr.times)
    assert np.max(np.abs(p1 - tr.probs[:, 0])) < 1e-12
    assert np.max(np.abs(p3 - tr.probs[:, 2])) < 1e-12
    assert np.max(np.abs(p4 - tr.probs[:, 3])) < 1e-12


_RNG_POINTS = np.random.default_rng(20261018).uniform(0.05, 3.0, (4, 2))


@pytest.mark.parametrize("p", [
    *(CouplingParams.symmetric(float(g), float(gp)) for g, gp in _RNG_POINTS),
    CouplingParams.symmetric(0.0, 1.3),
    CouplingParams.symmetric(0.7, 0.0),
    CouplingParams.symmetric(0.0, 1.0),  # E1 = E3: degenerate SVD
    CouplingParams(0.8, 0.8, 2.3, 2.3, 1.1),
], ids=lambda p: f"g={p.g1:.3g},gp={p.g_prime:.3g},om={p.omega1:.3g}")
def test_closed_form_matches_oracle(p):
    w, e = sector_modes(p)
    spectrum = analytic_eigenvalues(p)
    assert np.allclose(e, [spectrum[5], spectrum[3]], rtol=0, atol=1e-12)
    h = build_h_full(p)
    d0 = dark_state_full(p)
    times = np.array([0.0, 0.37, 3.1, 16.1, 77.7, 200.0])
    scan = np.stack(_kernels.scan_probs(w, e, times), axis=1)
    for t, probs in zip(times, scan):
        ref = propagator_oracle(h, t) @ d0
        # the full 6-vector, so nothing may leak into the antisymmetric sector
        assert np.max(np.abs(evolve(p, t) - ref)) < 1e-10
        assert np.max(np.abs(probs - probabilities(amplitudes(ref)))) < 1e-10


def test_leakage_helper():
    phi_minus = np.zeros(6, dtype=complex)
    phi_minus[1] = 1 / np.sqrt(2)
    phi_minus[2] = -1 / np.sqrt(2)
    assert abs(antisymmetric_leakage(phi_minus) - 1.0) < 1e-14
