"""Points and canonical affine lines of F_q^3, with every line count in closed form.

A line is stored as (base, dir) in a canonical form that makes equal point
sets compare equal: dir is scaled so its first nonzero coordinate (the
pivot) is 1, and base is slid along the line so its pivot coordinate is 0.
In canonical form a line passes through the origin exactly when base is
(0,0,0).

The q^2 (q^2 + q + 1) canonical lines have closed-form rows: with pivot p,
direction tail dir[p+1:] read as a base-q number, and v0, v1 the two
non-pivot base coordinates in increasing position order, the row is

    offset[p] + tail*q^2 + v0*q + v1,   offset = (0, q^4, q^4 + q^3).

line_at maps rows back to (base, dir). Both offsets and tail*q^2 are
multiples of q^2, so a row is a line through the origin exactly when it
is 0 mod q^2. No table of lines is kept: the line through a point x with
direction d has base x - x_p*d, so line_counts gets |X intersect l| for
every row by bincounting the rows of the q^2 + q + 1 lines through each
point of X, in O(|X| q^2) time.

The dual of an off-origin line base + F_q*dir is the line
{z : base.z = 1, dir.z = 0}; its direction is base x dir and its base
comes from Cramer's rule on a 2x2 system (see dual_index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Point3 = tuple[int, int, int]

# Largest number of row indices that line_counts holds at once. At 2^20
# (8 MB of int64) the pivot-0 blocks stay below the peak that the rest of
# a cold construct reaches; at 2^22 they were that peak from q = 37 on.
_BLOCK = 1 << 20


@dataclass(frozen=True)
class AffineLine:
    base: Point3
    dir: Point3


def n_lines(q: int) -> int:
    return q * q * (q * q + q + 1)


def _columns(q: int, rows) -> tuple[np.ndarray, ...]:
    """(b0, b1, b2, d0, d1, d2): the canonical base and dir of each row, by column."""
    r = np.asarray(rows, dtype=np.int64)
    p = (r >= q**4).astype(np.int64) + (r >= q**4 + q**3)
    offset = np.array([0, q**4, q**4 + q**3], dtype=np.int64)
    tail, free = np.divmod(r - offset[p], q * q)
    v0, v1 = np.divmod(free, q)
    p0, p1, p2 = p == 0, p == 1, p == 2
    return (np.where(p0, 0, v0), np.where(p0, v0, np.where(p1, 0, v1)), np.where(p2, 0, v1),
            p0.astype(np.int64), np.where(p0, tail // q, p1),
            np.where(p0, tail % q, np.where(p1, tail, 1)))


def line_at(q: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (base, dir) of each row in the layout above."""
    cols = _columns(q, rows)
    return np.stack(cols[:3], axis=-1), np.stack(cols[3:], axis=-1)


def line_table(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(base, dir) of every canonical line, in row order.

    O(q^4) memory; only the symbolic oracle (evasive.restriction_tensor)
    enumerates all lines, no command does.
    """
    return line_at(q, np.arange(n_lines(q), dtype=np.int64))


def line_points(q: int, base, direction) -> np.ndarray:
    """(..., q) point indices of base + s*dir for s = 0..q-1."""
    b = np.asarray(base, dtype=np.int64)[..., None, :]
    d = np.asarray(direction, dtype=np.int64)[..., None, :]
    pts = (b + np.arange(q, dtype=np.int64)[:, None] * d) % q
    return (pts[..., 0] * q + pts[..., 1]) * q + pts[..., 2]


def line_counts(q: int, points) -> np.ndarray:
    """|X intersect l| for every row, for X given by its point indices.

    A point lies on exactly one line of each canonical direction d, the one
    with base x - x_p*d. With coordinates taken mod q its row is

        pivot 0, d = (1, d1, d2):  (d1*q + d2)*q^2 + (x1 - x0*d1)*q + (x2 - x0*d2)
        pivot 1, d = (0, 1, d2):   q^4 + d2*q^2 + x0*q + (x2 - x1*d2)
        pivot 2, d = (0, 0, 1):    q^4 + q^3 + x0*q + x1

    so the counts are bincounts of |X| (q^2 + q + 1) rows. Pivot 0 runs in
    blocks of d1, each block over its own q^3 rows, so at most _BLOCK
    indices are held at once. Counts are stored in the smallest unsigned
    type that holds q.
    """
    x = np.asarray(points, dtype=np.int64)
    x0, x1, x2 = x // (q * q), x // q % q, x % q
    field = np.arange(q, dtype=np.int64)[:, None]
    q2, q3, q4 = q * q, q**3, q**4
    counts = np.empty(n_lines(q), dtype=np.min_scalar_type(q))
    # the part of a pivot-0 row that does not depend on d1, one row per d2
    low = field * q2 + (x2 - field * x0) % q
    step = max(1, _BLOCK // max(1, low.size))
    for lo in range(0, q, step):
        d1 = field[lo : lo + step]
        rows = ((d1 - lo) * q3 + (x1 - d1 * x0) % q * q)[:, None, :] + low
        counts[lo * q3 : (lo + len(d1)) * q3] = np.bincount(
            rows.ravel(), minlength=len(d1) * q3)
    counts[q4 : q4 + q3] = np.bincount(
        (field * q2 + x0 * q + (x2 - field * x1) % q).ravel(), minlength=q3)
    counts[q4 + q3 :] = np.bincount(x0 * q + x1, minlength=q2)
    return counts


def dual_index(q: int, rows) -> np.ndarray:
    """Row of the dual of each off-origin row (rows that are not 0 mod q^2).

    The dual of base + F_q*dir is {z : b.z = 1, d.z = 0}. Its direction is
    w = b x d, scaled so its pivot coordinate k is 1. Its canonical base has
    z_k = 0; for the other two coordinates i < j, Cramer's rule gives
    z_i = d_j / det and z_j = -d_i / det with det = b_i d_j - b_j d_i, which
    is w_k for k = 0, 2 and -w_k for k = 1. z_i and z_j are the v0, v1 of
    the dual's row.
    """
    b0, b1, b2, d0, d1, d2 = _columns(q, rows)
    w0 = (b1 * d2 - b2 * d1) % q
    w1 = (b2 * d0 - b0 * d2) % q
    w2 = (b0 * d1 - b1 * d0) % q
    k0 = w0 != 0
    k2 = ~k0 & (w1 == 0)
    k1 = ~k0 & ~k2
    inverses = np.array([0] + [pow(a, q - 2, q) for a in range(1, q)], dtype=np.int64)
    s = inverses[np.where(k0, w0, np.where(k1, w1, w2))]  # 1 / w_k
    tail = np.where(k0, w1 * s % q * q + w2 * s % q, np.where(k1, w2 * s % q, 0))
    inv_det = np.where(k1, q - s, s)
    v0 = np.where(k2, d1, d2) * inv_det % q
    v1 = -np.where(k0, d1, d0) * inv_det % q
    offset = np.where(k0, 0, np.where(k1, q**4, q**4 + q**3))
    return offset + (tail * q + v0) * q + v1
