"""Closed-form evaluation of the symmetric-sector amplitudes on time grids.

The dark state's dynamics has two frequencies E1, E3 (see
``dynamics.sector_modes``).  With real mode weights ``w`` (rows F1..F4,
columns cos E1 t, cos E3 t, sin E1 t, sin E3 t) the amplitudes are

    F1 = a1,  F2 = -i a2,  F3 = a3,  F4 = -i a4,   a = w @ [cos(e t); sin(e t)],

so every probability is the square of a real two-term series.
"""

import numpy as np


def mode_amplitudes(w, e, times):
    """Real amplitude rows a1..a4 (see the module docstring) at ``times``.

    ``times`` may be a scalar or a 1-d array; the result has shape
    ``(4,) + shape(times)``.
    """
    ph = np.multiply.outer(e, times)
    return w @ np.concatenate((np.cos(ph), np.sin(ph)))


def mode_derivatives(w, e, times):
    """Amplitude rows ``a`` and their time derivatives ``a'``, ``a''``.

    One cos/sin evaluation serves all three: a' = w @ [-e sin; e cos] and
    a'' = -w @ [e^2 cos; e^2 sin].  Shapes are as in ``mode_amplitudes``.
    """
    ph = np.multiply.outer(e, times)
    ee = np.concatenate((e, e))
    w1 = np.concatenate((w[:, 2:], -w[:, :2]), axis=1) * ee
    rows = np.concatenate((w, w1, -w * ee * ee)) @ np.concatenate((np.cos(ph), np.sin(ph)))
    return rows[:4], rows[4:8], rows[8:]


def scan_probs(w, e, times):
    """P1, P2, P3, P4 along ``times`` for mode weights ``w`` and frequencies ``e``."""
    a = mode_amplitudes(w, e, times)
    a *= a
    return a[0], a[1], a[2], a[3]
