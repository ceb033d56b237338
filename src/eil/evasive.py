"""Randomized algebraic construction of line-evasive point sets.

Samples a uniform trivariate polynomial of total degree <= t, takes its
zero set X0, then removes every point lying on a line that carries more
than t points of X0 (for t < q, exactly the lines on which the polynomial
vanishes identically). The pruned set X meets every line in at most t
points, and for each line the chance of hitting exactly t points stays
bounded away from zero as q grows.

A PointSet is its sorted point indices and its line counts |X intersect l|;
the pruned set takes X0's counts minus those of the removed points.
zero_set and restriction_tensor share one table of a^e mod q (power_table).

The field is its prime q and a polynomial's randomness its seed, both plain
ints. The commands and build_incidence check them on entry, so nothing here
checks them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geom3 import line_at, line_counts, line_points, line_table

# Fixed reference line (base, dir) used by the Monte Carlo commands:
# canonical and not through the origin, valid for every q.
REFERENCE_LINE = ((1, 0, 0), (0, 1, 0))


@lru_cache(maxsize=None)
def monomials(t: int) -> tuple[tuple[int, int, int], ...]:
    """Exponent triples (i,j,k) with i+j+k <= t in graded-lex order.

    Ascending total degree, ties broken by ascending lexicographic order on
    the triple. This fixes the coefficient-vector layout everywhere
    (sampling order, serialization, restriction matrices).
    """
    mons = [
        (i, j, k)
        for i in range(t + 1)
        for j in range(t + 1)
        for k in range(t + 1)
        if i + j + k <= t
    ]
    mons.sort(key=lambda m: (sum(m), m))
    assert len(mons) == math.comb(t + 3, 3)
    return tuple(mons)


def power_table(q: int, t: int) -> np.ndarray:
    """(q, t+1) table P[a, e] = a^e mod q, with 0^0 = 1."""
    field = np.arange(q, dtype=np.int64)
    powers = np.ones((q, t + 1), dtype=np.int64)
    for e in range(1, t + 1):
        powers[:, e] = powers[:, e - 1] * field % q
    return powers


@dataclass(frozen=True)
class TriPoly:
    """Trivariate polynomial of total degree <= t over F_q.

    coeffs is aligned with monomials(t); exactly C(t+3,3) entries.
    """

    q: int
    t: int
    coeffs: tuple[int, ...]


class PointSet:
    """Subset of F_q^3 as its sorted point indices, with its line counts.

    points is an increasing int64 array of point indices. line_counts[row]
    = |X intersect l| for every line, rows in the geom3 layout: projected
    by geom3.line_counts when the set is built, unless counts are passed
    in, and read-only either way (a pruned set that lost no point is X0).
    """

    def __init__(self, q: int, points: np.ndarray, counts: np.ndarray | None = None):
        self.q = q
        self.points = points
        self.line_counts = line_counts(q, points) if counts is None else counts
        self.line_counts.flags.writeable = False

    @property
    def count(self) -> int:
        return self.points.size

    def to_text(self) -> str:
        header = f"q={self.q} n={self.count}\n"
        return header + "".join(f"{p}\n" for p in self.points.tolist())


def sample_poly(q: int, t: int, seed: int) -> TriPoly:
    """Uniform random TriPoly: coefficients drawn iid in monomial order.

    The 64-bit words of Philox(seed) are reduced by rejection sampling:
    words at or above the largest multiple of q are discarded, so residues
    carry no modulo bias.
    """
    n = math.comb(t + 3, 3)
    limit = (1 << 64) - (1 << 64) % q
    bits = np.random.Philox(seed)
    kept = []
    while len(kept) < n:
        kept += [w % q for w in bits.random_raw(n - len(kept)).tolist() if w < limit]
    return TriPoly(q, t, tuple(kept))


def top_coefficient(f: TriPoly, direction) -> int:
    """The s^t coefficient of f(base + s*direction), the same for every base.

    Only monomials of degree t reach s^t, so this is the degree-t
    homogeneous part of f evaluated at the direction.
    """
    q = f.q
    d0, d1, d2 = direction
    total = 0
    for (i, j, k), a in zip(monomials(f.t), f.coeffs):
        if a and i + j + k == f.t:
            total += a * pow(d0, i, q) * pow(d1, j, q) * pow(d2, k, q)
    return total % q


@lru_cache(maxsize=None)
def restriction_tensor(q: int, t: int) -> np.ndarray:
    """(n_lines, t+1, n_monomials) linear maps: coeffs -> per-line restriction.

    Row l gives the matrix taking a TriPoly coefficient vector to the
    coefficients of its symbolic restriction to the line of row l (rows as
    laid out in the geom3 module docstring). No command builds it: it backs
    the symbolic oracle in the tests, and the benchmark's traced run times
    it under this name.
    """
    base, dirv = line_table(q)
    n = len(base)
    mons = monomials(t)
    # expans[c][e] has shape (e+1, n): binomial expansion of (b_c + s d_c)^e
    powers = power_table(q, t)
    expans = []
    for c in range(3):
        powb, powd = powers[base[:, c]].T, powers[dirv[:, c]].T
        per_e = []
        for e in range(t + 1):
            rows = [math.comb(e, m) % q * powb[e - m] % q * powd[m] % q for m in range(e + 1)]
            per_e.append(np.stack(rows))
        expans.append(per_e)
    tensor = np.zeros((n, t + 1, len(mons)), dtype=np.int64)
    for m, (i, j, k) in enumerate(mons):
        for m1 in range(i + 1):
            for m2 in range(j + 1):
                part = expans[0][i][m1] * expans[1][j][m2] % q
                for m3 in range(k + 1):
                    d = m1 + m2 + m3
                    tensor[:, d, m] = (tensor[:, d, m] + part * expans[2][k][m3]) % q
    return tensor


def zero_set(q: int, f: TriPoly) -> PointSet:
    """The points where f evaluates to zero.

    The coefficients go into a (t+1)^3 cube c[i, j, k] indexed by exponents,
    and with P = power_table(q, t) the cube is contracted one axis at a time:
    (x, j*k) -> (x, k, y) -> (x, y, z). The raveled values are indexed by
    x*q^2 + y*q + z, the point index. O(q^3 t) work, then O(q^4) to
    project the set's line counts.
    """
    t = f.t
    cube = np.zeros((t + 1,) * 3, dtype=np.int64)
    cube[tuple(zip(*monomials(t)))] = f.coeffs
    powers = power_table(q, t)
    # each matmul sums t+1 <= q+1 products of residues below q <= 2^20, so
    # every sum stays below 2^61 before it is reduced
    v = powers @ cube.reshape(t + 1, -1) % q
    v = v.reshape(q, t + 1, t + 1).transpose(0, 2, 1) @ powers.T % q
    v = v.transpose(0, 2, 1) @ powers.T % q
    return PointSet(q, np.flatnonzero(v.ravel() == 0))


def prune_bad_lines(q: int, f: TriPoly, x0: PointSet) -> tuple[PointSet, np.ndarray]:
    """Remove every point of x0 that lies on a line carrying more than t of them.

    This count rule is the evasive invariant itself: the returned set meets
    every line in at most t points. For t < q it clears exactly the lines
    on which f vanishes identically: a nonzero restriction of degree <= t
    has at most t roots, and a zero one vanishes at all q > t points of the
    line. For t = q no line carries more than q points, so nothing is pruned
    and X = X0, although f may still restrict to the zero polynomial on a
    line. Returns the pruned set (x0 itself if no line is cleared) and the
    rows (the geom3 layout) of the cleared lines; the largest count rules
    out any, with no mask of every row. Their points, from geom3.line_at,
    are marked in a q^3 bool read at x0's points; the pruned set carries
    X0's counts less those of the removed points.
    """
    counts = x0.line_counts
    if counts.max() <= f.t:
        return x0, np.empty(0, dtype=np.int64)
    vanishing = np.flatnonzero(counts > f.t)
    cleared = np.zeros(q**3, dtype=np.bool_)
    cleared[line_points(q, *line_at(q, vanishing))] = True
    gone = cleared[x0.points]
    left = line_counts(q, x0.points[gone])  # of a subset of x0, so no count wraps below 0
    return PointSet(q, x0.points[~gone], np.subtract(counts, left, out=left)), vanishing


@dataclass(frozen=True)
class ExactProbabilities:
    """Closed-form per-line probabilities for the unpruned zero set."""

    p_vanish: float
    p_exact_t: float
    e_binom: float


def exact_probabilities(q: int, t: int) -> ExactProbabilities:
    """p_vanish = q^-(t+1); e_binom = C(q,t) q^-t; p_exact_t = (1-1/q) e_binom.

    All three are exact rationals rounded once to double precision.
    """
    return ExactProbabilities(
        p_vanish=1 / q ** (t + 1),
        p_exact_t=(q - 1) * math.comb(q, t) / q ** (t + 1),
        e_binom=math.comb(q, t) / q**t,
    )
