"""Randomized algebraic construction of line-evasive point sets.

Samples a uniform trivariate polynomial f of total degree <= t, takes its
zero set X0, then removes every point on a line where f vanishes
identically, whose direction is a zero of f's top form. The pruned set X
meets every line in at most t points, and for each line the chance of
hitting exactly t points stays bounded away from zero as q grows.

A PointSet is its q and its sorted point indices; the prune reads no line
counts. zero_set, top_form and restriction_tensor share one table of
a^e mod q (power_table).

The field is its prime q and a polynomial's randomness its seed, both plain
ints. The commands and build_incidence check them on entry, so nothing here
checks them again. sample_poly reads the words of numpy's Philox(seed) bit
generator, made here in pure Python (_philox_key, _philox_words): importing
numpy.random for them would add about 5.6 MB to every sampling process.
The tests check the words against numpy's, bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geom3 import line_table, point_coords, step_groups

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


@lru_cache(maxsize=None)
def power_table(q: int, t: int) -> np.ndarray:
    """(q, t+1) table P[a, e] = a^e mod q, with 0^0 = 1; read-only, built once per (q, t)."""
    field = np.arange(q, dtype=np.int64)
    powers = np.ones((q, t + 1), dtype=np.int64)
    for e in range(1, t + 1):
        powers[:, e] = powers[:, e - 1] * field % q
    powers.flags.writeable = False
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
    """Subset of F_q^3 as its sorted point indices (points, increasing int64)."""

    def __init__(self, q: int, points: np.ndarray):
        self.q = q
        self.points = points

    @property
    def count(self) -> int:
        return self.points.size

    def to_text(self) -> str:
        header = f"q={self.q} n={self.count}\n"
        return header + "".join(f"{p}\n" for p in self.points.tolist())


_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1


def _philox_key(seed: int) -> tuple[int, int]:
    """The Philox key of seed, as numpy's SeedSequence(seed).generate_state(2, np.uint64).

    The seed's 32-bit words, lowest first, are hashed into a pool of four
    words, mixed, and hashed out again as four 32-bit words: two 64-bit
    words, low half first.
    """
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    mult = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _M32
        value = value * mult & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    mult, out = 0x8B51F9DD, []
    for value in pool:
        value ^= mult
        mult = mult * 0x58F38DED & _M32
        value = value * mult & _M32
        out.append(value ^ value >> 16)
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _philox_words(seed: int):
    """The 64-bit words of numpy's Philox(seed), in order: Philox4x64-10 of
    the counters 1, 2, ... under _philox_key(seed), four words per counter.
    (numpy carries the counter into a second word after 2^64 blocks; no
    sample comes near that.)"""
    k0, k1 = _philox_key(seed)
    keys = [(k0 + r * 0x9E3779B97F4A7C15 & _M64, k1 + r * 0xBB67AE8584CAA73B & _M64)
            for r in range(10)]  # the key of each round
    for ctr in itertools.count(1):
        c0, c1, c2, c3 = ctr, 0, 0, 0
        for a0, a1 in keys:
            p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = p1 >> 64 ^ c1 ^ a0, p1 & _M64, p0 >> 64 ^ c3 ^ a1, p0 & _M64
        yield from (c0, c1, c2, c3)


def sample_poly(q: int, t: int, seed: int) -> TriPoly:
    """Uniform random TriPoly: coefficients drawn iid in monomial order.

    The 64-bit words that np.random.Philox(seed) gives (_philox_words) are
    reduced by rejection sampling: words at or above the largest multiple of
    q are discarded, so residues carry no modulo bias. The words do not
    depend on how many are read at a time.
    """
    limit = (1 << 64) - (1 << 64) % q
    kept = (w % q for w in _philox_words(seed) if w < limit)
    return TriPoly(q, t, tuple(itertools.islice(kept, math.comb(t + 3, 3))))


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


@lru_cache(maxsize=None)
def _cube_index(t: int) -> np.ndarray:
    """Flat index (i*(t+1) + j)*(t+1) + k in a (t+1)^3 cube of each monomial of monomials(t)."""
    i, j, k = np.array(monomials(t), dtype=np.int64).T
    index = (i * (t + 1) + j) * (t + 1) + k
    index.flags.writeable = False
    return index


def _values(f: TriPoly, rows: int, top: bool = False) -> np.ndarray:
    """(rows, q, q) values of f at (x, y, z), x < rows, or of f_t if top: its
    exponent cube c[i, j, k] contracted with power_table one axis at a time,
    (x, j*k) -> (x, k, y) -> (x, y, z)."""
    q, t = f.q, f.t
    # monomials(t) lists the C(t+2, 3) of degree below t first
    first = math.comb(t + 2, 3) if top else 0
    cube = np.zeros((t + 1) ** 3, dtype=np.int64)
    cube[_cube_index(t)[first:]] = f.coeffs[first:]
    powers = power_table(q, t)
    # each matmul sums t+1 <= q+1 products of residues below q <= 2^20, so
    # every sum stays below 2^61 before it is reduced
    v = powers[:rows] @ cube.reshape(t + 1, -1) % q
    v = v.reshape(rows, t + 1, t + 1).transpose(0, 2, 1) @ powers.T % q
    return v.transpose(0, 2, 1) @ powers.T % q


def zero_set(q: int, f: TriPoly) -> PointSet:
    """The points where f is zero; the raveled values are indexed by point index."""
    return PointSet(q, np.flatnonzero(_values(f, q).ravel() == 0))


def top_form(f: TriPoly) -> np.ndarray:
    """f_t, the degree-t part of f, at each direction in row order (row // q^2):
    (1, d1, d2) at d1*q + d2, (0, 1, d2) at q^2 + d2, then (0, 0, 1). f_t(dir)
    is the s^t coefficient of f(base + s*dir) for every base."""
    q = f.q
    v = _values(f, 2, top=True).reshape(2, -1)
    return np.concatenate([v[1], v[0, q : 2 * q], v[0, 1:2]])


def prune_bad_lines(q: int, f: TriPoly, x0: PointSet) -> tuple[PointSet, np.ndarray]:
    """Remove every point of x0 on a line where f vanishes identically.

    For t < q those are the lines in the zero directions of top_form(f) whose
    q points lie in x0 (a restriction of degree <= t with q roots is 0): the
    lines with more than t points of x0. For t = q nothing is pruned, even
    where f restricts to 0. A step bincounts geom3.step_groups(q, q^2)
    directions of one pivot, q^2 bins each, from int64 keys in one buffer
    for all steps; a point is cleared when its key in some direction of
    the step counts q. Returns the pruned set (x0 itself if no line is
    cleared) and the cleared rows, increasing.
    """
    vanishing = [np.empty(0, dtype=np.int64)]
    if f.t == q:
        return x0, vanishing[0]
    q2 = q * q
    zeros = np.flatnonzero(top_form(f) == 0)
    dirs = np.stack(np.divmod(zeros, q))  # (d_a, d_b): (d1, d2) for (1, d1, d2), then
    dirs[0, zeros >= q2] = 0  # (0, d2) for (0, 1, d2) and (0, 0) for (0, 0, 1)
    x = point_coords(q, x0.points).T
    ends = np.searchsorted(zeros, [0, q2, q2 + q, q2 + q + 1])
    step = step_groups(q, q2)
    buf = np.empty((2, min(step, zeros.size), x0.count), dtype=np.int64)
    gone = False  # becomes a bool per point of x0 at the first cleared line
    # the line of direction d through x has base x - x_p d: v0 = x_a - x_p d_a, v1 = x_b - x_p d_b
    for p, ab in enumerate(([1, 2], [0, 2], [0, 1])):
        for lo in range(ends[p], ends[p + 1], step):
            hi = min(lo + step, ends[p + 1])
            v = np.multiply(dirs[:, lo:hi, None], x[p], out=buf[:, : hi - lo])
            keys, low = np.remainder(np.subtract(x[ab, None], v, out=v), q, out=v)
            keys += np.arange(hi - lo)[:, None] * q
            keys *= q
            keys += low  # step index * q^2 + v0*q + v1
            hit = np.bincount(keys.ravel(), minlength=(hi - lo) * q2) == q
            full = np.flatnonzero(hit)
            if full.size:
                vanishing.append(zeros[lo + full // q2] * q2 + full % q2)
                gone = gone | hit[keys].any(axis=0)
    vanishing = np.concatenate(vanishing)
    if not vanishing.size:
        return x0, vanishing
    return PointSet(q, x0.points[~gone]), vanishing


@dataclass(frozen=True)
class ExactProbabilities:
    """Closed-form per-line probabilities for the unpruned zero set."""

    p_vanish: float
    p_exact_t: float
    e_binom: float


def exact_probabilities(q: int, t: int) -> ExactProbabilities:
    """p_vanish = q^-(t+1); e_binom = C(q,t) q^-t; p_exact_t = (1-1/q) e_binom
    for t < q, and q^-q at t = q, where the zero restriction has q zeros too.

    All three are exact rationals rounded once to double precision.
    """
    return ExactProbabilities(
        p_vanish=1 / q ** (t + 1),
        p_exact_t=((q - 1) * math.comb(q, t) + (t == q)) / q ** (t + 1),
        e_binom=math.comb(q, t) / q**t,
    )
