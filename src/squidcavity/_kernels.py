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


def derivative_weights(w, e):
    """Two-term weights of the amplitudes and their first two derivatives.

    a1, a3 are cosine series and a2, a4 sine series (``sector_modes`` gives
    weights of that parity; the other entries of ``w`` are not read), so
    every derivative is a two-term series too.  The result has shape
    (2, 6, 2): slice 0 multiplies [cos E1 t, cos E3 t], slice 1
    [sin E1 t, sin E3 t], and their rows are

        0, 1:  a1, a3       and  a2, a4
        2, 3:  a2', a4'     and  a1', a3'
        4, 5:  a1'', a3''   and  a2'', a4''
    """
    wc, ws = w[0::2, :2], w[1::2, 2:]
    neg_e2 = -e * e
    m = np.empty((2, 6, 2))
    m[0, :2], m[1, :2] = wc, ws
    np.multiply(ws, e, out=m[0, 2:4])
    np.multiply(wc, -e, out=m[1, 2:4])
    np.multiply(wc, neg_e2, out=m[0, 4:])
    np.multiply(ws, neg_e2, out=m[1, 4:])
    return m


def derivative_rows(m, e, t):
    """Rows of two-term series with weights ``m`` at times ``t``.

    ``m`` has shape (2, R, 2, ...) as in ``derivative_weights`` (any choice
    of R rows) and ``e`` shape (2, ...); the trailing axes of ``m``, ``e``
    and ``t`` broadcast, so each time may carry its own modes.  Returns the
    (2, R, ...) cosine and sine rows.  The evaluation is elementwise with a
    fixed order of operations, so every element has the same bits however
    many are evaluated together (a BLAS product does not promise that).
    """
    ph = e * t
    basis = np.empty((2, 1) + ph.shape)
    np.cos(ph, out=basis[0, 0])
    np.sin(ph, out=basis[1, 0])
    terms = m * basis
    return terms[:, :, 0] + terms[:, :, 1]


def mode_derivatives(w, e, times):
    """Amplitude rows ``a`` and their time derivatives ``a'``, ``a''``.

    Shapes are as in ``mode_amplitudes``.
    """
    pad = (1,) * np.ndim(times)
    c, s = derivative_rows(derivative_weights(w, e).reshape((2, 6, 2) + pad), e.reshape((2,) + pad), times)
    return (
        np.stack((c[0], s[0], c[1], s[1])),
        np.stack((s[2], c[2], s[3], c[3])),
        np.stack((c[4], s[4], c[5], s[5])),
    )


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
