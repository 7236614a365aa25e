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


def _amplitude_rows(m, e, times):
    """Rows a1..a4 of the closed form with modes ``(m, e)`` of
    ``dynamics.sector_modes``, and their first two time derivatives, at
    scalar or 1-d ``times``: three arrays of shape ``(4,) + shape(times)``."""
    from squidcavity import _kernels

    pad = (1,) * np.ndim(times)
    d = _kernels.derivative_weights(m, e).reshape((2, 6, 2) + pad)
    c, s = _kernels.derivative_rows(d, e.reshape((2,) + pad), times)
    return (
        np.stack((c[0], s[0], c[1], s[1])),
        np.stack((s[2], c[2], s[3], c[3])),
        np.stack((c[4], s[4], c[5], s[5])),
    )


@pytest.fixture
def amplitude_rows():
    return _amplitude_rows


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
