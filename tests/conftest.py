import numpy as np
import pytest


def _random_hermitian(rng, n, scale=3.0):
    m = rng.uniform(-scale, scale, (n, n)) + 1j * rng.uniform(-scale, scale, (n, n))
    h = 0.5 * (m + m.conj().T)
    np.fill_diagonal(h, np.diag(h).real)
    return h


@pytest.fixture
def random_hermitian():
    return _random_hermitian


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def forbid_large_grids(monkeypatch):
    """Make np.linspace refuse grids longer than MAX_SAMPLES + 1 points, so
    a size check that runs too late fails the test instead of allocating."""
    from squidcavity.dynamics import MAX_SAMPLES

    real = np.linspace

    def guarded(start, stop, num=50, **kwargs):
        assert num <= MAX_SAMPLES + 1, f"a {num}-point grid was allocated before validation"
        return real(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", guarded)
