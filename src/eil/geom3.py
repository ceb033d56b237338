"""Points, canonical affine lines, and the array table of all lines of F_q^3.

A line is stored as (base, dir) in a canonical form that makes equal point
sets compare equal: dir is scaled so its first nonzero coordinate (the
pivot) is 1, and base is slid along the line so its pivot coordinate is 0.
In canonical form a line passes through the origin exactly when base is
(0,0,0).

LineTable holds all q^2 (q^2 + q + 1) canonical lines as numpy rows. The
row of a line is closed-form: with pivot p, direction tail dir[p+1:] read
as a base-q number, and v0, v1 the two non-pivot base coordinates in
increasing position order, it is

    offset[p] + tail*q^2 + v0*q + v1,   offset = (0, q^4, q^4 + q^3).

The dual of an off-origin line base + F_q*dir is the line
{z : base.z = 1, dir.z = 0}; its direction is base x dir and its base
comes from Cramer's rule on a 2x2 system (see _dual_rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import FieldCtx

Point3 = tuple[int, int, int]


@dataclass(frozen=True)
class AffineLine:
    base: Point3
    dir: Point3


def line_index(q: int, base: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Table row of each canonical line (base, direction), vectorised over rows.

    With pivot p the first nonzero coordinate of direction, the row is
    offset[p] + tail*q^2 + v0*q + v1: tail is the number whose base-q digits
    are direction[p+1:], and v0, v1 are the two non-pivot base coordinates
    in increasing position order.
    """
    b = np.asarray(base, dtype=np.int64)
    d = np.asarray(direction, dtype=np.int64)
    p = np.argmax(d != 0, axis=-1)
    tail = np.where(p == 0, d[..., 1] * q + d[..., 2], np.where(p == 1, d[..., 2], 0))
    v0 = np.where(p == 0, b[..., 1], b[..., 0])
    v1 = np.where(p == 2, b[..., 1], b[..., 2])
    offset = np.array([0, q**4, q**4 + q**3], dtype=np.int64)
    return offset[p] + (tail * q + v0) * q + v1


def _dual_rows(q: int, b: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (base, dir) of the dual of each off-origin canonical line.

    The dual {z : b.z = 1, d.z = 0} has direction w = b x d, scaled so its
    pivot coordinate k is 1. Its canonical base has z_k = 0; for the other
    two coordinates i < j, Cramer's rule gives z_i = d_j / det and
    z_j = -d_i / det with det = b_i d_j - b_j d_i = +-w_k, nonzero.
    """
    inv = np.array([0] + [pow(a, q - 2, q) for a in range(1, q)], dtype=np.int64)
    rows = np.arange(len(b))
    w = np.cross(b, d) % q
    k = np.argmax(w != 0, axis=1)
    w = w * inv[w[rows, k]][:, None] % q
    i = np.where(k == 0, 1, 0)
    j = np.where(k == 2, 1, 2)
    bi, bj, di, dj = b[rows, i], b[rows, j], d[rows, i], d[rows, j]
    inv_det = inv[(bi * dj - bj * di) % q]
    z = np.zeros_like(b)
    z[rows, i] = dj * inv_det % q
    z[rows, j] = -di * inv_det % q
    return z, w


def _pivot_block(q: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(base, dir) of the canonical lines with pivot p, in table order."""
    tail, free = np.divmod(np.arange(q ** (4 - p), dtype=np.int64), q * q)
    d = np.zeros((tail.size, 3), dtype=np.int64)
    d[:, p] = 1
    for c in range(p + 1, 3):
        d[:, c] = tail // q ** (2 - c) % q
    b = np.zeros_like(d)
    i, j = (c for c in range(3) if c != p)
    b[:, i], b[:, j] = np.divmod(free, q)
    return b, d


class LineTable:
    """Every affine line of F_q^3 exactly once, as arrays of canonical rows.

    Rows are grouped by the pivot p of dir (p = 0, 1, 2; blocks of q^4, q^3
    and q^2 rows). Within a block they run over the direction tail
    dir[p+1:], then the two free base coordinates, all in increasing order,
    so line_index() gives the row of any canonical line in closed form.
    Holds, per row, base and dir, the q point indices base + s*dir for
    s = 0..q-1, an origin flag (base = 0), and dual_idx, the row of the dual
    line (see _dual_rows), or -1 for a line through the origin.
    Shared by the bulk paths in evasive/incidence; built once per q.
    """

    def __init__(self, ctx: FieldCtx):
        q = ctx.q
        blocks = [_pivot_block(q, p) for p in range(3)]
        self.base = np.concatenate([b for b, _ in blocks])
        self.dir = np.concatenate([d for _, d in blocks])
        n = len(self.base)
        # walk[s, b*q + d] = the coordinate b + s*d mod q
        field = np.arange(q, dtype=np.int64)
        walk = ((field[:, None, None] * field + field[:, None]) % q).reshape(q, q * q)
        points = walk.take(self.base[:, 0] * q + self.dir[:, 0], axis=1)
        for c in (1, 2):  # in place: the (q, n) array is the table's largest
            points *= q
            points += walk.take(self.base[:, c] * q + self.dir[:, c], axis=1)
        # (n, q) view of the (q, n) array: a gather through the .T of this
        # view reads and reduces contiguous rows of length n
        self.point_idx = points.T
        self.origin_mask = (self.base == 0).all(axis=1)
        off = np.flatnonzero(~self.origin_mask)
        self.dual_idx = np.full(n, -1, dtype=np.int64)
        self.dual_idx[off] = line_index(q, *_dual_rows(q, self.base[off], self.dir[off]))

    def __len__(self) -> int:
        return len(self.base)


@lru_cache(maxsize=None)
def line_table(q: int) -> LineTable:
    return LineTable(FieldCtx(q))
