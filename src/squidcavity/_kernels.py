"""Closed-form evaluation of the symmetric-sector amplitudes on time grids.

The dark state's dynamics has two frequencies E1, E3 (see
``dynamics.sector_modes``).  With real mode weights ``w`` (rows F1..F4,
columns cos E1 t, cos E3 t, sin E1 t, sin E3 t) the amplitudes are

    F1 = a1,  F2 = -i a2,  F3 = a3,  F4 = -i a4,   a = w @ [cos(e t); sin(e t)],

so every probability is the square of a real two-term series.
"""

import math

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


def grid_probs(w, e, t_end, m):
    """P1..P4 as the rows of one (4, m) array at t_j = j h, h = t_end / (m - 1).

    With j = q B + s and B = ceil(sqrt(m)), cos/sin are taken only at the
    phases e q B h and e s h.  Angle addition, cos(a + b) = cos a cos b -
    sin a sin b, turns them into one (4Q x 4) @ (4 x B) product written into
    the result buffer, so a grid of m >= 2 points costs O(sqrt m)
    trigonometric calls.
    """
    h = t_end / (m - 1)
    b = math.isqrt(m - 1) + 1  # ceil(sqrt(m))
    q = -(-m // b)
    ph = np.multiply.outer(e, np.arange(q) * (b * h)).T
    cq, sq = np.cos(ph), np.sin(ph)
    wc, ws = w[:, None, :2], w[:, None, 2:]
    # a_k = sum_i (wc cq + ws sq)_i cos(e_i s h) + (ws cq - wc sq)_i sin(e_i s h)
    left = np.concatenate((wc * cq + ws * sq, ws * cq - wc * sq), axis=2)
    ph = np.multiply.outer(e, np.arange(b) * h)
    out = np.empty((4, q * b))
    right = np.concatenate((np.cos(ph), np.sin(ph)))
    np.matmul(left.reshape(4 * q, 4), right, out=out.reshape(4 * q, b))
    out *= out
    return out[:, :m]
