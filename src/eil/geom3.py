"""Points and canonical affine lines of F_q^3, with every line count in closed form.

The point (x0, x1, x2) has index x0*q^2 + x1*q + x2; point_coords is the
one decoder of indices into coordinates. A line is a (base, dir) pair of
points, or two arrays of them, in a canonical form that makes equal point
sets compare equal: dir is scaled so its first nonzero coordinate (the
pivot) is 1, and base is slid along the line so its pivot coordinate is 0.
In canonical form a line passes through the origin exactly when base is
(0,0,0).

The q^2 (q^2 + q + 1) canonical lines have closed-form rows. With v0, v1
the two non-pivot base coordinates in increasing position order, the row is

    row = k*q^2 + v0*q + v1,

k being the index of the direction: d1*q + d2 for (1, d1, d2), q^2 + d2
for (0, 1, d2) and q^2 + q for (0, 0, 1). line_at maps rows back to
(base, dir) by divmod(row, q^2) and divmod(k, q). A row is a line through
the origin exactly when it is 0 mod q^2. No table of lines is kept: the
line through a point x with direction d has base x - x_p*d, so
line_counts gets |X intersect l| for every row by bincounting the rows of
the q^2 + q + 1 lines through each point of X, in O(|X| q^2) time.

The lines inside a plane H_x = {y : x.y = 1} have closed-form rows as
well: (base, dir) lies in H_x exactly when x.dir = 0 and x.base = 1,
which picks q^2 + q rows for each x != 0. So plane_counts gets
|{x in X : l inside H_x}| for every row by the same bincounts. For a
line l off the origin that is |X intersect l*|, l* = {z : base.z = 1,
dir.z = 0} being its dual; a line through the origin lies in no H_x.
Both stream (slice of rows, counts) in the same slices, in row order,
from one step loop (_steps), so no array of every row is made (q^4
bytes: 250 MiB at q = 127).
"""

from __future__ import annotations

import numpy as np

from .gf import inverses


# The bins of one bincount step: 128 KiB of int64 output, which stays in
# cache and comes from the heap each step. At q = 11 and 13 one bincount
# per d1 (1.3k and 2.2k bins) is mostly per-call overhead. On a 2-core VM
# (Python 3.11, numpy 2.4), 200 sweep trials at q = 11 and 13 took 0.195 s
# with one d1 and q directions per step, and 0.178, 0.164, 0.159, 0.176,
# 0.172 and 0.171 s with 2^12, 2^13, 2^14, 2^15, 2^16 and 2^18 bins, the
# last about an L2 cache (median of 5 rounds).
STEP_BINS = 2**14


def step_groups(q: int, size: int) -> int:
    """How many groups of size bins one bincount step takes: as many as
    max(STEP_BINS, q^3) bins hold, and at least one."""
    return max(1, max(STEP_BINS, q**3) // size)


def line_at(q: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (base, dir) of each row in the layout above."""
    k, free = np.divmod(np.asarray(rows, dtype=np.int64), q * q)
    (v0, v1), (ka, kb) = np.divmod(free, q), np.divmod(k, q)
    p0, p1, p2 = ka < q, ka == q, ka > q  # ka is d1, q or q + 1
    base = (np.where(p0, 0, v0), np.where(p0, v0, np.where(p1, 0, v1)), np.where(p2, 0, v1))
    direction = (p0.astype(np.int64), np.where(p0, ka, p1), np.where(p2, 1, kb))
    return np.stack(base, axis=-1), np.stack(direction, axis=-1)


def line_table(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(base, dir) of every canonical line, in row order.

    O(q^4) memory; only the symbolic oracle (evasive.restriction_tensor)
    enumerates all lines, no command does.
    """
    return line_at(q, np.arange(q * q * (q * q + q + 1), dtype=np.int64))


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


def _steps(q: int, first: int, size: int, high: np.ndarray, low: np.ndarray):
    """(slice, counts) of the rows first + high[i, None] + low, group by group.

    Group i is the size rows from first + i*size on. high is (h, c) int64,
    the part of a row that depends on the group ((h, 1) if no part depends
    on the point), and low (m, c) int64 the rest, a column per point. A
    step takes step_groups(q, size) groups; where that is more than one,
    high first gets each group's offset in its step, in place. All steps
    make their rows in one int64 buffer (a fresh one per step made the
    heap shrink and grow again each time, which doubled the time at
    q = 37), bincount them and narrow the counts to the smallest unsigned
    type that holds q, so a step of g groups holds g (m c + size) int64
    entries. The callers keep no reference to high or low, so both and the
    buffer are freed when the steps run out, before the next slice's rows.
    """
    h, small = len(high), np.min_scalar_type(q)
    g = min(h, step_groups(q, size))
    if g > 1:
        high += np.arange(h, dtype=np.int64)[:, None] % g * size
    rows = np.empty((g, *low.shape), dtype=np.int64)
    for lo in range(0, h, g):
        n = min(g, h - lo)
        yield slice(first + lo * size, first + (lo + n) * size), np.bincount(
            np.add(high[lo : lo + n, None], low, out=rows[:n]).ravel(),
            minlength=n * size).astype(small)


def line_counts(q: int, points):
    """|X intersect l| for every row, for X given by its point indices.

    A point lies on exactly one line of each canonical direction d, the one
    with base x - x_p*d. With coordinates taken mod q its row is

        pivot 0, d = (1, d1, d2):  (d1*q + d2)*q^2 + (x1 - x0*d1)*q + (x2 - x0*d2)
        pivot 1, d = (0, 1, d2):   (q^2 + d2)*q^2 + x0*q + (x2 - x1*d2)
        pivot 2, d = (0, 0, 1):    (q^2 + q)*q^2 + x0*q + x1

    so the counts are bincounts of |X| (q^2 + q + 1) rows, in the steps of
    _steps: a group per d1 for pivot 0, and one group each for pivots 1
    and 2. Counts come in the smallest unsigned type that holds q.
    """
    x0, x1, x2 = point_coords(q, points).T
    field = np.arange(q, dtype=np.int64)[:, None]
    q2, q3, q4 = q * q, q**3, q**4
    # the part of a row that depends on d1, one row per d1, and the rest, one per d2
    yield from _steps(q, 0, q3, (x1 - field * x0) % q * q, field * q2 + (x2 - field * x0) % q)
    yield from _steps(q, q4, q3, x0[None] * q, field * q2 + (x2 - field * x1) % q)
    yield from _steps(q, q4 + q3, q2, x0[None] * q, x1[None])


def plane_counts(q: int, points):
    """|{x in X : l inside H_x}| for every row l.

    For x = (x0, x1, x2) != 0 the q^2 + q rows inside H_x are, with v0, v1
    the base coordinates of a row:

        x2 != 0:       pivot 0, each d1, v0:  d2 = -(x0 + x1*d1)/x2, v1 = (1 - x1*v0)/x2
                       pivot 1, each v0:      d2 = -x1/x2,           v1 = (1 - x0*v0)/x2
        x2 = 0 != x1:  pivot 0, each d2, v1:  d1 = -x0/x1,           v0 = 1/x1
                       pivot 2, each v0:      v1 = (1 - x0*v0)/x1
        x1 = x2 = 0:   pivot 1, each d2, v1:  v0 = 1/x0
                       pivot 2, each v1:      v0 = 1/x0

    Counts come in the smallest unsigned type that holds q, in the slices
    of line_counts, from _steps over the rows of the points with x2 != 0
    and, for pivot 2, of those with x2 = 0. The points with x2 = 0 != x1
    then add 1 to the q^2 pivot-0 rows of their (d1, v0), and those with
    x1 = x2 = 0 to the q^2 pivot-1 rows of their v0, in place.
    """
    x0, x1, x2 = point_coords(q, points).T
    inv, field = inverses(q), np.arange(q, dtype=np.int64)[:, None]
    q2, q3, q4, small = q * q, q**3, q**4, np.min_scalar_type(q)
    up = x2 != 0
    flat = ~up & ((x0 != 0) | (x1 != 0))  # in the plane x2 = 0, less the origin
    axis = flat & (x1 == 0)
    a0, a1, i2 = x0[up], x1[up], inv[x2[up]]
    # how many points with x2 = 0 != x1 have each (d1, v0)
    side = flat & ~axis
    i1 = inv[x1[side]]
    fold = np.bincount(-x0[side] * i1 % q * q + i1, minlength=q2).astype(small).reshape(q, q)
    # d2*q^2 of each point with x2 != 0, one row per d1, and v0*q + v1, one per v0
    for part, counts in _steps(q, 0, q3, -(a0 + a1 * field) * i2 % q * q2,
                               field * q + (1 - a1 * field) * i2 % q):
        counts.reshape(-1, q, q, q)[:] += fold[part.start // q3 : part.stop // q3, None, :, None]
        yield part, counts
    # how many points with x1 = x2 = 0 have each v0
    fold = np.bincount(inv[x0[axis]], minlength=q).astype(small)
    for part, counts in _steps(q, q4, q3, -a1[None] * i2 % q * q2,
                               field * q + (1 - a0 * field) * i2 % q):
        counts.reshape(q, q, q)[:] += fold[:, None]
        yield part, counts
    x0, x1 = x0[flat], x1[flat]
    yield from _steps(q, q4 + q3, q2, np.zeros((1, 1), dtype=np.int64), np.where(
        x1 != 0, field * q + (1 - x0 * field) % q * inv[x1] % q, inv[x0] * q + field))
