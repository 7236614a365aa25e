"""Closed-form evaluation of the symmetric-sector amplitudes on time grids.

The dark state's dynamics has two frequencies e = (E1, E3) (see
``dynamics.sector_modes``).  a1, a3 are cosine series and a2, a4 sine
series, so the real mode weights ``m`` have shape (2, 2, 2):

    [a1, a3] = m[0] @ cos(e t),   [a2, a4] = m[1] @ sin(e t),

and F1 = a1, F2 = -i a2, F3 = a3, F4 = -i a4.  Every probability is the
square of a real two-term series.  The modes of several points stack on a
leading axis: ``part_grid_probs`` sets up the grids of all of them in one
pass and leaves each point only its matrix product, and ``grid_probs`` is
its one-point case.
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
    rows = m[:, :, 0] * basis[:, :, 0]
    rows += m[:, :, 1] * basis[:, :, 1]
    return rows


def part_grid_probs(m, e, t_end, n):
    """P1..P4 of P points, modes ``m``, ``e`` stacked on the first axis, each
    on its grid of n[i] >= 2 times t_j = j h, h = t_end / (n[i] - 1): one
    (4, n[i]) array per point, yielded in turn, with no reference kept to it.

    With j = q B + s and B = ceil(sqrt(n)), cos/sin are taken only at the
    phases e q B h and e s h.  Angle addition, cos(a + b) = cos a cos b -
    sin a sin b, turns them into one (4Q x 4) @ (4 x B) product written into
    the point's buffer, so a grid of n points costs O(sqrt n) trigonometric
    calls.  The phases, their cos/sin and the left factors of all the points
    are computed together, padded to the largest Q and B; a point's own work
    is its product and its square.
    """
    h = [t_end / (count - 1) for count in n]
    b = [math.isqrt(count - 1) + 1 for count in n]  # ceil(sqrt(n)), at least q
    q = [-(-count // x) for count, x in zip(n, b)]
    nq, nb = max(q), max(b)
    # trig[i, k, 0] and trig[i, k, 1] hold cos and sin of point i's phases
    # e q B h (k = 0) and e s h (k = 1), the sine taken in place of the phase
    trig = np.empty((len(n), 2, 2, 2, nb))
    steps = np.arange(nb) * np.array([[x * y for x, y in zip(b, h)], h]).T[:, :, None]
    np.multiply(e[:, None, :, None], steps[:, :, None], out=trig[:, :, 1])
    np.cos(trig[:, :, 1], out=trig[:, :, 0])
    np.sin(trig[:, :, 1], out=trig[:, :, 1])
    # a1 = sum_j wc_j (cq_j cos(e_j s h) - sq_j sin(e_j s h)), a2 = sum_j ws_j (sq_j cos + cq_j sin),
    # so the left factor's rows a1, a2, a3, a4 (r, then cosine or sine series) are
    # [wc cq, -wc sq] and [ws sq, ws cq], built with the step q last and transposed per point
    left = np.empty((len(n), 2, 2, 2, 2, nq))
    np.multiply(m[:, 0, :, None, :, None], trig[:, None, 0, :, :, :nq], out=left[:, :, 0])
    np.negative(left[:, :, 0, 1], out=left[:, :, 0, 1])
    np.multiply(m[:, 1, :, None, :, None], trig[:, None, 0, ::-1, :, :nq], out=left[:, :, 1])
    for i, (count, x, y) in enumerate(zip(n, q, b)):
        out = np.empty((4, x * y))
        np.matmul(left[i, ..., :x].transpose(0, 1, 4, 2, 3).reshape(4 * x, 4),
                  np.ascontiguousarray(trig[i, 1, ..., :y].reshape(4, y)), out=out.reshape(4 * x, y))
        out *= out
        yield out[:, :count]
        # the buffer is dropped before the next one is allocated
        del out


def grid_probs(m, e, t_end, n):
    """P1..P4 as the rows of one (4, n) array at t_j = j h, h = t_end / (n - 1):
    a one-point ``part_grid_probs``."""
    return next(part_grid_probs(m[None], e[None], t_end, [n]))
