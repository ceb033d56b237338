"""Points and canonical affine lines of F_q^3, with every line count in closed form.

The point (x0, x1, x2) has index x0*q^2 + x1*q + x2; point_coords is the
one decoder of indices into coordinates. A line is a (base, dir) pair of
points, or two arrays of them, in a canonical form that makes equal point
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
point of X, in O(|X| q^2) time. evasive.PointSet projects its counts
once, when it is built.

The lines inside a plane H_x = {y : x.y = 1} have closed-form rows as
well: (base, dir) lies in H_x exactly when x.dir = 0 and x.base = 1,
which picks q^2 + q rows for each x != 0. So plane_counts gets
|{x in X : l inside H_x}| for every row by the same bincounts, streamed
block by block. For a line l off the origin that is |X intersect l*|,
l* = {z : base.z = 1, dir.z = 0} being its dual; a line through the
origin lies in no H_x.
"""

from __future__ import annotations

import numpy as np

from .gf import inverses

# Most int64 entries a streamed loop holds per block (see blocks), unless one
# item alone holds more. At 2^20 (8 MB) the pivot-0 blocks of line_counts stay
# below the peak that the rest of a cold construct reaches; at 2^22 they were
# that peak from q = 37 on.
BLOCK = 1 << 20


def n_lines(q: int) -> int:
    return q * q * (q * q + q + 1)


def blocks(n: int, per_item: int):
    """Consecutive slices of range(n), max(1, BLOCK // per_item) items each."""
    step = max(1, BLOCK // max(1, per_item))
    return (slice(lo, min(n, lo + step)) for lo in range(0, n, step))


def line_at(q: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (base, dir) of each row in the layout above."""
    r = np.asarray(rows, dtype=np.int64)
    p = (r >= q**4).astype(np.int64) + (r >= q**4 + q**3)
    offset = np.array([0, q**4, q**4 + q**3], dtype=np.int64)
    tail, free = np.divmod(r - offset[p], q * q)
    v0, v1 = np.divmod(free, q)
    p0, p1, p2 = p == 0, p == 1, p == 2
    base = (np.where(p0, 0, v0), np.where(p0, v0, np.where(p1, 0, v1)), np.where(p2, 0, v1))
    direction = (p0.astype(np.int64), np.where(p0, tail // q, p1),
                 np.where(p0, tail % q, np.where(p1, tail, 1)))
    return np.stack(base, axis=-1), np.stack(direction, axis=-1)


def line_table(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(base, dir) of every canonical line, in row order.

    O(q^4) memory; only the symbolic oracle (evasive.restriction_tensor)
    enumerates all lines, no command does.
    """
    return line_at(q, np.arange(n_lines(q), dtype=np.int64))


def point_coords(q: int, points) -> np.ndarray:
    """(n, 3) coordinates of each point index."""
    x = np.asarray(points, dtype=np.int64)
    return np.stack([x // (q * q), x // q % q, x % q], axis=1)


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
    blocks of d1; one d1 value holds q |X| row indices and the bincount of
    its own q^3 rows, so a block holds at most max(BLOCK, q |X| + q^3)
    entries however small X is (q^3 alone exceeds BLOCK from q = 103 on).
    Counts are stored in the smallest unsigned type that holds q.
    """
    x0, x1, x2 = point_coords(q, points).T
    field = np.arange(q, dtype=np.int64)[:, None]
    q2, q3, q4 = q * q, q**3, q**4
    counts = np.empty(n_lines(q), dtype=np.min_scalar_type(q))
    # the part of a pivot-0 row that does not depend on d1, one row per d2
    low = field * q2 + (x2 - field * x0) % q
    for part in blocks(q, low.size + q3):
        d1 = field[part]
        rows = ((d1 - part.start) * q3 + (x1 - d1 * x0) % q * q)[:, None, :] + low
        counts[part.start * q3 : part.stop * q3] = np.bincount(
            rows.ravel(), minlength=len(d1) * q3)
    counts[q4 : q4 + q3] = np.bincount(
        (field * q2 + x0 * q + (x2 - field * x1) % q).ravel(), minlength=q3)
    counts[q4 + q3 :] = np.bincount(x0 * q + x1, minlength=q2)
    return counts


def plane_counts(q: int, points):
    """|{x in X : l inside H_x}| for every row l, streamed as (slice of rows, counts).

    The blocks come in row order and cover every row once, so a caller
    that compares each with the same rows of another count holds no array
    of every row. For x = (x0, x1, x2) != 0 the q^2 + q rows inside H_x
    are, with v0, v1 the base coordinates of a row:

        x2 != 0:       pivot 0, each d1, v0:  d2 = -(x0 + x1*d1)/x2, v1 = (1 - x1*v0)/x2
                       pivot 1, each v0:      d2 = -x1/x2,           v1 = (1 - x0*v0)/x2
        x2 = 0 != x1:  pivot 0, each d2, v1:  d1 = -x0/x1,           v0 = 1/x1
                       pivot 2, each v0:      v1 = (1 - x0*v0)/x1
        x1 = x2 = 0:   pivot 1, each d2, v1:  v0 = 1/x0
                       pivot 2, each v1:      v0 = 1/x0

    Counts come in the smallest unsigned type that holds q. Pivot 0 runs
    in blocks of d1 values with one bincount per d1: the points with
    x2 != 0 give q rows per d1, and each point with x2 = 0 != x1 adds 1 to
    the q^2 rows of its (d1, v0) in place. So a block holds q^3 one-byte
    counts per d1, which with a caller's comparisons come to about half an
    int64 entry per row (see blocks), and the int64 rows and bincount of
    one d1, q |X| + q^3 entries. Pivot 1 and pivot 2 are one block each.
    """
    x0, x1, x2 = point_coords(q, points).T
    inv, field = inverses(q), np.arange(q, dtype=np.int64)[:, None]
    q2, q3, q4 = q * q, q**3, q**4
    small = np.min_scalar_type(q)
    up = x2 != 0
    flat = ~up & ((x0 != 0) | (x1 != 0))  # in the plane x2 = 0, less the origin
    axis = flat & (x1 == 0)
    a0, a1, i2 = x0[up], x1[up], inv[x2[up]]
    # v0*q + v1 of the pivot-0 rows of each point with x2 != 0, one row per v0
    low = field * q + (1 - a1 * field) * i2 % q
    # how many points with x2 = 0 != x1 have each (d1, v0)
    side = flat & ~axis
    i1 = inv[x1[side]]
    fold = np.bincount(-x0[side] * i1 % q * q + i1, minlength=q2).astype(small).reshape(q, q)
    for part in blocks(q, a0.size + q3 // 2):
        high = -(a0 + a1 * field[part]) * i2 % q * q2  # d2*q^2 of each d1 and point
        counts = np.empty((len(high), q3), dtype=small)
        for j, h in enumerate(high):
            counts[j] = np.bincount((h + low).ravel(), minlength=q3)
        d, v = np.nonzero(fold[part])
        counts.reshape(-1, q, q, q)[d, :, v, :] += fold[part][d, v][:, None, None]
        yield slice(part.start * q3, part.stop * q3), counts.ravel()
    counts = np.bincount(
        ((1 - a0 * field) * i2 % q + field * q + -a1 * i2 % q * q2).ravel(), minlength=q3)
    counts.reshape(q, q, q)[:] += np.bincount(inv[x0[axis]], minlength=q)[:, None]
    yield slice(q4, q4 + q3), counts.astype(small)
    x0, x1 = x0[flat], x1[flat]
    yield slice(q4 + q3, n_lines(q)), np.bincount(np.where(
        x1 != 0, field * q + (1 - x0 * field) % q * inv[x1] % q, inv[x0] * q + field
    ).ravel(), minlength=q2).astype(small)
