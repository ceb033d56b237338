"""Randomized algebraic construction of line-evasive point sets.

Samples a uniform trivariate polynomial of total degree <= t, takes its
zero set X0, then removes every point lying on a line that carries more
than t points of X0 (for t < q, exactly the lines on which the polynomial
vanishes identically). The pruned set X meets every line in at most t
points, and for each line the chance of hitting exactly t points stays
bounded away from zero as q grows.

The field is its prime q and a polynomial's randomness its seed, both plain
ints. The commands and build_incidence check them on entry, so nothing here
checks them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geom3 import AffineLine, line_at, line_counts, line_points, line_table

# Fixed reference line used by the Monte Carlo commands: canonical and not
# through the origin, valid for every q.
REFERENCE_LINE = AffineLine((1, 0, 0), (0, 1, 0))

# Generator words that sample_poly draws at once. Philox yields the same
# words whatever the batch sizes, so this fixes no coefficient.
_BATCH = 256


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


@dataclass(frozen=True)
class TriPoly:
    """Trivariate polynomial of total degree <= t over F_q.

    coeffs is aligned with monomials(t); exactly C(t+3,3) entries.
    """

    q: int
    t: int
    coeffs: tuple[int, ...]


class PointSet:
    """Subset of F_q^3 as a membership bitmask over point indices.

    member is a bool array of length q^3.
    line_counts, when given, must be the set's per-row line counts; they
    are otherwise computed on first use by line_intersection_counts.
    """

    def __init__(self, q: int, member: np.ndarray, line_counts: np.ndarray | None = None):
        self.q = q
        self.member = member
        self._line_counts = line_counts

    @property
    def count(self) -> int:
        return int(self.member.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.q == other.q and bool((self.member == other.member).all())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.member)

    def to_text(self) -> str:
        lines = [f"q={self.q} n={self.count}"]
        lines.extend(str(i) for i in self.indices())
        return "\n".join(lines) + "\n"


def sample_poly(q: int, t: int, seed: int) -> TriPoly:
    """Uniform random TriPoly: coefficients drawn iid in monomial order.

    The 64-bit words of Philox(seed) are reduced by rejection sampling:
    words at or above the largest multiple of q are discarded, so residues
    carry no modulo bias.
    """
    n = math.comb(t + 3, 3)
    rem = (1 << 64) % q
    bits = np.random.Philox(seed)
    kept = []
    while sum(map(len, kept)) < n:
        words = bits.random_raw(_BATCH)
        kept.append(words[words < np.uint64((1 << 64) - rem)] if rem else words)
    return TriPoly(q, t, tuple((np.concatenate(kept)[:n] % np.uint64(q)).tolist()))


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


def _pow_mod(col: np.ndarray, e: int, q: int) -> np.ndarray:
    out = np.ones_like(col)
    b = col % q
    while e:
        if e & 1:
            out = out * b % q
        b = b * b % q
        e >>= 1
    return out


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
    expans = []
    for c in range(3):
        powb = np.stack([_pow_mod(base[:, c], e, q) for e in range(t + 1)])
        powd = np.stack([_pow_mod(dirv[:, c], e, q) for e in range(t + 1)])
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
    and with P[a, e] = a^e mod q the cube is contracted one axis at a time:
    (x, j*k) -> (x, k, y) -> (x, y, z). The raveled values are indexed by
    x*q^2 + y*q + z, the point index. O(q^3 t) work and no kept state.
    """
    t = f.t
    cube = np.zeros((t + 1,) * 3, dtype=np.int64)
    cube[tuple(zip(*monomials(t)))] = f.coeffs
    field = np.arange(q, dtype=np.int64)
    powers = np.ones((q, t + 1), dtype=np.int64)
    for e in range(1, t + 1):
        powers[:, e] = powers[:, e - 1] * field % q
    # each matmul sums t+1 <= q+1 products of residues below q <= 2^20, so
    # every sum stays below 2^61 before it is reduced
    v = powers @ cube.reshape(t + 1, -1) % q
    v = v.reshape(q, t + 1, t + 1).transpose(0, 2, 1) @ powers.T % q
    v = v.transpose(0, 2, 1) @ powers.T % q
    return PointSet(q, v.ravel() == 0)


def prune_bad_lines(q: int, f: TriPoly, x0: PointSet) -> tuple[PointSet, np.ndarray]:
    """Remove every point of x0 that lies on a line carrying more than t of them.

    This count rule is the evasive invariant itself: the returned set meets
    every line in at most t points. For t < q it clears exactly the lines
    on which f vanishes identically: a nonzero restriction of degree <= t
    has at most t roots, and a zero one vanishes at all q > t points of the
    line. For t = q no line carries more than q points, so nothing is pruned
    and X = X0, although f may still restrict to the zero polynomial on a
    line. Returns the pruned set and the rows (the geom3 layout) of the
    cleared lines. The points of those few rows come from geom3.line_at;
    the pruned set carries X0's line counts minus those of the removed
    points, so its counts are never projected from scratch.
    """
    counts = line_intersection_counts(x0)
    vanishing = np.flatnonzero(counts > f.t)
    member = x0.member.copy()
    if vanishing.size == 0:
        return PointSet(q, member, counts), vanishing
    member[line_points(q, *line_at(q, vanishing))] = False
    removed = np.flatnonzero(x0.member & ~member)
    return PointSet(q, member, counts - line_counts(q, removed)), vanishing


def line_intersection_counts(x: PointSet) -> np.ndarray:
    """|X intersect l| for every line, indexed by row (the geom3 layout).

    Projected once per set by geom3.line_counts and kept on the set
    (read-only, since a pruned set that lost no point shares X0's array).
    """
    if x._line_counts is None:
        x._line_counts = line_counts(x.q, x.indices())
    x._line_counts.flags.writeable = False
    return x._line_counts


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
