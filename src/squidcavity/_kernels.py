"""Closed-form evaluation of the symmetric-sector amplitudes on time grids.

The dark state's dynamics has two frequencies e = (E1, E3) (see
``dynamics.sector_modes``).  a1, a3 are cosine series and a2, a4 sine
series, so the real mode weights ``m`` have shape (2, 2, 2):

    [a1, a3] = m[0] @ cos(e t),   [a2, a4] = m[1] @ sin(e t),

and F1 = a1, F2 = -i a2, F3 = a3, F4 = -i a4.  Every probability is the
square of a real two-term series.
"""

import math

import numpy as np


def derivative_weights(m, e):
    """Two-term weights of the amplitudes and their first two derivatives.

    ``m`` holds the mode weights (see the module docstring), so every
    derivative is a two-term series too; the modes of several points may
    stack on leading axes of ``m`` and ``e``.  The result has shape
    (..., 2, 6, 2): slice 0 multiplies [cos E1 t, cos E3 t], slice 1
    [sin E1 t, sin E3 t], and their rows are

        0, 1:  a1, a3       and  a2, a4
        2, 3:  a2', a4'     and  a1', a3'
        4, 5:  a1'', a3''   and  a2'', a4''
    """
    d = np.empty(m.shape[:-3] + (2, 6, 2))
    e = e[..., None, :]
    d[..., :2, :] = m
    d[..., 0, 2:4, :], d[..., 1, 2:4, :] = m[..., 1, :, :] * e, m[..., 0, :, :] * -e
    d[..., 4:, :] = m * (-e * e)[..., None, :, :]
    return d


def derivative_rows(m, e, t):
    """Rows of two-term series with weights ``m`` at times ``t``.

    ``m`` has shape (2, R, 2, ...): the mode weights (R = 2) or any R rows
    of ``derivative_weights``, and ``e`` shape (2, ...); the trailing axes
    of ``m``, ``e`` and ``t`` broadcast, so each time may carry its own
    modes.  Returns the (2, R, ...) cosine and sine rows.  The evaluation is
    elementwise with a fixed order of operations, so every element has the
    same bits however many are evaluated together (a BLAS product does not
    promise that).
    """
    ph = e * t
    basis = np.empty((2, 1) + ph.shape)
    np.cos(ph, out=basis[0, 0])
    np.sin(ph, out=basis[1, 0])
    terms = m * basis
    return terms[:, :, 0] + terms[:, :, 1]


def grid_probs(m, e, t_end, n):
    """P1..P4 as the rows of one (4, n) array at t_j = j h, h = t_end / (n - 1).

    With j = q B + s and B = ceil(sqrt(n)), cos/sin are taken only at the
    phases e q B h and e s h.  Angle addition, cos(a + b) = cos a cos b -
    sin a sin b, turns them into one (4Q x 4) @ (4 x B) product written into
    the result buffer, so a grid of n >= 2 points costs O(sqrt n)
    trigonometric calls.
    """
    h = t_end / (n - 1)
    b = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    q = -(-n // b)
    ph = np.multiply.outer(e, np.arange(q) * (b * h)).T
    cq, sq = np.cos(ph), np.sin(ph)
    wc, ws = m[0, :, None], m[1, :, None]
    # a1 = sum_i wc_i (cq_i cos(e_i s h) - sq_i sin(e_i s h)), a2 = sum_i ws_i (sq_i cos + cq_i sin)
    left = np.empty((2, 2, q, 4))  # rows a1, a2, a3, a4
    np.multiply(wc, cq, out=left[:, 0, :, :2])
    np.multiply(wc, -sq, out=left[:, 0, :, 2:])
    np.multiply(ws, sq, out=left[:, 1, :, :2])
    np.multiply(ws, cq, out=left[:, 1, :, 2:])
    ph = np.multiply.outer(e, np.arange(b) * h)
    out = np.empty((4, q * b))
    right = np.concatenate((np.cos(ph), np.sin(ph)))
    np.matmul(left.reshape(4 * q, 4), right, out=out.reshape(4 * q, b))
    out *= out
    return out[:, :n]
