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


def scan_probs(w, e, times):
    """P1, P2, P3, P4 along ``times`` for mode weights ``w`` and frequencies ``e``."""
    a = mode_amplitudes(w, e, times)
    a *= a
    return a[0], a[1], a[2], a[3]
