import numpy as np
import pytest

from squidcavity.dynamics import (
    MAX_PHASE,
    MAX_SAMPLES,
    amplitudes,
    antisymmetric_leakage,
    evolve,
    part_modes,
    probabilities,
    sector_modes,
    trace,
)
from squidcavity.linalg import propagator_oracle
from squidcavity.model import (
    CouplingParams,
    ExchangeSymmetryError,
    analytic_eigenvalues,
    block_decompose,
    build_h_full,
    dark_state_full,
)
from squidcavity.optimize import find_t0
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


_IDENTICAL_SQUIDS_ONLY = {
    "evolve": lambda p: evolve(p, 1.0),
    "trace": trace,
    "find_t0": lambda p: find_t0(p, 1e-6),
    "sector_modes": sector_modes,
    "block_decompose": block_decompose,
    "analytic_eigenvalues": analytic_eigenvalues,
}


@pytest.mark.parametrize("entry", sorted(_IDENTICAL_SQUIDS_ONLY))
@pytest.mark.parametrize("p", [
    CouplingParams(1.0, 2.0, 1.0, 1.0, 0.5),
    CouplingParams(1.0, 1.0, 1.0, 2.0, 0.5),
], ids=["g1!=g2", "omega1!=omega2"])
def test_evolve_rejects_nonsymmetric(entry, p):
    with pytest.raises(ExchangeSymmetryError) as err:
        _IDENTICAL_SQUIDS_ONLY[entry](p)
    assert str(err.value) == "the protocol assumes identical SQUIDs (g1 = g2, omega1 = omega2)"


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


def test_sector_modes_reproduce_trace(amplitude_rows):
    p = CouplingParams.symmetric(0.6, 1.37)
    m, lam = sector_modes(p)
    assert m.shape == (2, 2, 2)
    tr = trace(p, t_max=20.0, n_steps=101)
    p1, p2, p3, p4 = amplitude_rows(m, lam, tr.times)[0] ** 2
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
def test_closed_form_matches_oracle(p, amplitude_rows):
    m, e = sector_modes(p)
    spectrum = analytic_eigenvalues(p)
    assert np.allclose(e, [spectrum[5], spectrum[3]], rtol=0, atol=1e-12)
    h = build_h_full(p)
    d0 = dark_state_full(p)
    times = np.array([0.0, 0.37, 3.1, 16.1, 77.7, 200.0])
    scan = (amplitude_rows(m, e, times)[0] ** 2).T
    for t, probs in zip(times, scan):
        ref = propagator_oracle(h, t) @ d0
        # the full 6-vector, so nothing may leak into the antisymmetric sector
        assert np.max(np.abs(evolve(p, t) - ref)) < 1e-10
        assert np.max(np.abs(probs - probabilities(amplitudes(ref)))) < 1e-10


@pytest.mark.parametrize("g,gp", [(0.6, 1.37), (2.95, 1.10), (0.7, 0.0), (0.0, 1.0)],
                         ids=["paper", "large-g", "gprime-off", "E1=E3"])
def test_mode_derivatives_match_central_differences(g, gp, amplitude_rows):
    m, e = sector_modes(CouplingParams.symmetric(g, gp))
    times = np.array([0.0, 0.37, 3.1, 16.1, 77.7])
    a, da, dda = amplitude_rows(m, e, times)
    amp = lambda t: amplitude_rows(m, e, t)[0]
    assert np.allclose(a, amp(times), rtol=0, atol=1e-14)
    h = 1e-5
    assert np.allclose(da, (amp(times + h) - amp(times - h)) / (2 * h), rtol=0, atol=1e-8)
    h = 1e-4
    second = (amp(times + h) - 2 * amp(times) + amp(times - h)) / (h * h)
    assert np.allclose(dda, second, rtol=0, atol=2e-6)
    scalar = amplitude_rows(m, e, 3.1)
    assert all(np.allclose(s, v[:, 2], rtol=0, atol=1e-14) for s, v in zip(scalar, (a, da, dda)))


@pytest.mark.parametrize("n", [2, 3, 16, 17, 27401])
@pytest.mark.parametrize("p", [
    CouplingParams.symmetric(0.6, 1.37),
    CouplingParams.symmetric(0.0, 1.3),
    CouplingParams.symmetric(0.7, 0.0),
    CouplingParams.symmetric(0.0, 1.0),  # E1 = E3
    CouplingParams(0.8, 0.8, 2.3, 2.3, 1.1),
], ids=lambda p: f"g={p.g1:.3g},gp={p.g_prime:.3g},om={p.omega1:.3g}")
def test_grid_probs_match_mode_amplitudes(p, n):
    m, e = sector_modes(p)
    ph = np.multiply.outer(e, np.arange(n) * (200.0 / (n - 1)))
    # the closed form by direct trigonometry
    (a1, a3), (a2, a4) = m[0] @ np.cos(ph), m[1] @ np.sin(ph)
    probs = _kernels.grid_probs(m, e, 200.0, n)
    assert probs.shape == (4, n)
    assert np.max(np.abs(probs - np.array([a1, a2, a3, a4]) ** 2)) <= 1e-12


def test_part_grids_equal_the_point_grids():
    # one part of grids from 2 to over 10^4 samples, the stacked factors
    # padded to its largest Q and B; 16 and 10^4 are perfect squares
    n = [2, 3, 16, 10_000, 10_001, 17, 2, 12_345, 101]
    params = [CouplingParams.symmetric(g, gp) for g, gp in
              ((0.6, 1.37), (0.0, 1.3), (0.7, 0.0), (2.95, 1.1), (1e-6, 2.0), (0.25, 1.89), (3.0, 3.0),
               (1e-3, 1e-3), (1.5, 0.7))]
    m, e = part_modes(params)
    tables = list(_kernels.part_grid_probs(m, e, 200.0, n))
    assert len(tables) == len(n)
    for i, count in enumerate(n):
        alone = _kernels.grid_probs(m[i], e[i], 200.0, count)
        assert tables[i].shape == (4, count)
        assert tables[i].tobytes() == alone.tobytes()


def test_unresolvable_times_and_oversized_grids_are_rejected(forbid_large_grids):
    p = CouplingParams.symmetric(0.6, 1.37)
    _, e = sector_modes(p)
    evolve(p, 0.99 * MAX_PHASE / e[0])
    with pytest.raises(ValueError, match="2\\^32"):
        evolve(p, 1.01 * MAX_PHASE / e[0])
    with pytest.raises(ValueError, match="2\\^32"):
        evolve(p, 1e300)
    with pytest.raises(ValueError, match="2\\^32"):
        trace(p, t_max=1e300, n_steps=3)
    with pytest.raises(ValueError, match="n_steps"):
        trace(p, t_max=1.0, n_steps=MAX_SAMPLES + 1)


def test_trace_takes_n_steps_as_an_int():
    p = CouplingParams.symmetric(0.6, 1.37)
    for n_steps in (2.5, 11.0, "11", None):
        with pytest.raises(ValueError, match="n_steps must be an int"):
            trace(p, t_max=5.0, n_steps=n_steps)
    # numpy integers count as ints
    tr, ref = trace(p, t_max=5.0, n_steps=np.int64(11)), trace(p, t_max=5.0, n_steps=11)
    assert np.array_equal(tr.times, ref.times) and np.array_equal(tr.probs, ref.probs)


def test_leakage_helper():
    phi_minus = np.zeros(6, dtype=complex)
    phi_minus[1] = 1 / np.sqrt(2)
    phi_minus[2] = -1 / np.sqrt(2)
    assert abs(antisymmetric_leakage(phi_minus) - 1.0) < 1e-14
