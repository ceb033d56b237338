from itertools import product

import numpy as np
import pytest

from eil.errors import ParameterError
from eil.geom3 import dual_index, line_at, line_points, line_table
from oracles import (
    AffineLine,
    canonical_line,
    line_index,
    line_table_oracle,
    line_through,
    passes_origin,
    point_index,
    points_on,
)


def table_lines(q):
    """Every row of line_table(q) as an AffineLine, in row order."""
    base, direction = line_table(q)
    return [
        AffineLine(tuple(map(int, b)), tuple(map(int, d))) for b, d in zip(base, direction)
    ]


def lines_by_pair_dedup(q):
    """Oracle: every line as line_through(p, r) over all point pairs."""
    pts = list(product(range(q), repeat=3))
    return {line_through(q, p, r) for p in pts for r in pts if p != r}


# brute-force counts from the pair-dedup oracle, frozen:
#   q=2 -> 28, q=3 -> 117, q=5 -> 775  (= q^2 (q^2+q+1))
FROZEN_LINE_COUNTS = {2: 28, 3: 117, 5: 775}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_all_lines_matches_pair_dedup_oracle(q):
    enumerated = table_lines(q)
    assert len(enumerated) == len(set(enumerated)), "duplicate canonical lines"
    assert set(enumerated) == lines_by_pair_dedup(q)
    assert len(enumerated) == FROZEN_LINE_COUNTS[q]


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_line_through_contains_both_points(q):
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 2 % q), (q - 1, q - 1, 1)]
    for p in pts:
        for r in pts:
            if p == r:
                continue
            line = line_through(q, p, r)
            on = points_on(q, line)
            assert p in on and r in on
            assert len(on) == q == len(set(on))


def test_line_through_examples():
    assert line_through(5, (0, 0, 0), (0, 2, 0)) == AffineLine((0, 0, 0), (0, 1, 0))
    assert line_through(5, (1, 1, 0), (1, 1, 3)) == AffineLine((1, 1, 0), (0, 0, 1))
    with pytest.raises(ParameterError):
        line_through(5, (1, 1, 1), (1, 1, 1))


def test_points_on_examples():
    assert points_on(3, AffineLine((0, 0, 0), (1, 0, 0))) == [
        (0, 0, 0), (1, 0, 0), (2, 0, 0)
    ]
    assert points_on(2, AffineLine((0, 1, 0), (1, 0, 0))) == [(0, 1, 0), (1, 1, 0)]


def test_canonical_form_is_scale_and_shift_invariant():
    q = 7
    line = canonical_line(q, (3, 1, 4), (0, 2, 5))
    for scale in range(1, 7):
        for shift in range(7):
            base = tuple((line.base[i] + shift * line.dir[i]) % 7 for i in range(3))
            direction = tuple(c * scale % 7 for c in line.dir)
            assert canonical_line(q, base, direction) == line


def test_passes_origin():
    assert passes_origin(AffineLine((0, 0, 0), (1, 0, 0)))
    assert not passes_origin(AffineLine((0, 1, 0), (1, 0, 0)))
    through = [ln for ln in table_lines(3) if passes_origin(ln)]
    assert len(through) == 13  # q^2 + q + 1, confirmed by the scan below
    for ln in table_lines(3):
        assert passes_origin(ln) == ((0, 0, 0) in points_on(3, ln))


def test_dual_line_hand_example():
    q = 5
    row = int(line_index(q, (1, 0, 0), (0, 1, 0)))
    assert row == q**4 + q  # pivot 1, tail 0, free base coordinates (1, 0)
    dual = int(dual_index(q, [row])[0])
    assert dual == line_table_oracle(q).dual_idx[row]
    # solved by hand: z1 = 1, z2 = 0 leaves the z3 axis through (1,0,0)
    base, direction = line_at(q, dual)
    assert tuple(base) == (1, 0, 0)
    assert tuple(direction) == (0, 0, 1)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_dual_line_exhaustive_properties(q):
    table = line_table_oracle(q)
    valid = 0
    for i, line in enumerate(table_lines(q)):
        if passes_origin(line):
            assert table.dual_idx[i] == -1
            continue
        valid += 1
        j = table.dual_idx[i]
        assert not table.origin_mask[j]
        dual = AffineLine(tuple(map(int, table.base[j])), tuple(map(int, table.dir[j])))
        # defining system: base.z = 1 and dir.z = 0 for every dual point
        for z in points_on(q, dual):
            assert sum(a * b for a, b in zip(line.base, z)) % q == 1
            assert sum(a * b for a, b in zip(line.dir, z)) % q == 0
        # completeness of the duality: all of dual x line is incident
        for x in points_on(q, dual):
            for y in points_on(q, line):
                assert sum(a * b for a, b in zip(x, y)) % q == 1
        assert table.dual_idx[j] == i
    assert valid == q * q * (q * q + q + 1) - (q * q + q + 1)
    if q == 3:
        assert valid == 104


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_line_table_matches_closed_form_oracles(q):
    table = line_table_oracle(q)
    n = q * q * (q * q + q + 1)
    b, d = table.base, table.dir
    assert len(table) == n and b.shape == d.shape == (n, 3)
    # line_table enumerates the rows by line_at, in the oracle's block order
    lb, ld = line_table(q)
    assert (lb == b).all() and (ld == d).all()
    rows = np.arange(n)
    # canonical: dir has pivot 1 with zeros before it, base is 0 at the pivot
    pivot = np.argmax(d != 0, axis=1)
    assert (d[rows, pivot] == 1).all() and (b[rows, pivot] == 0).all()
    assert ((b >= 0) & (b < q) & (d >= 0) & (d < q)).all()
    # distinct rows, each at the row its closed-form index names
    assert len(np.unique(np.hstack([b, d]), axis=0)) == n
    assert (line_index(q, b, d) == rows).all()
    # point indices of base + s*dir, computed coordinate by coordinate
    s = np.arange(q)
    pts = (b[:, None, :] + s[None, :, None] * d[:, None, :]) % q
    assert (table.point_idx == (pts[..., 0] * q + pts[..., 1]) * q + pts[..., 2]).all()
    assert (line_points(q, b, d) == table.point_idx).all()
    # origin rows hold -1; every other dual satisfies b.z = 1, d.z = 0 on
    # all of its points, avoids the origin, and dualises back
    origin = (b == 0).all(axis=1)
    assert (table.origin_mask == origin).all()
    assert (origin == (rows % (q * q) == 0)).all()
    assert (table.dual_idx[origin] == -1).all()
    assert int(origin.sum()) == q * q + q + 1
    off = rows[~origin]
    dual = table.dual_idx[off]
    assert not table.origin_mask[dual].any()
    assert (table.dual_idx[dual] == off).all()
    z = np.stack(
        [table.point_idx[dual] // (q * q), table.point_idx[dual] // q % q,
         table.point_idx[dual] % q],
        axis=-1,
    )
    assert ((z * b[off, None, :]).sum(axis=-1) % q == 1).all()
    assert ((z * d[off, None, :]).sum(axis=-1) % q == 0).all()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_parallel_class_partition(q):
    # the q^2 table rows with direction (1,0,0) are disjoint and cover F_q^3
    table = line_table_oracle(q)
    rows = np.flatnonzero((table.dir == (1, 0, 0)).all(axis=1))
    assert len(rows) == q * q
    assert sorted(table.point_idx[rows].ravel()) == list(range(q**3))


def test_point_index_roundtrip():
    q = 5
    for idx in range(125):
        assert point_index(q, (idx // 25, idx // 5 % 5, idx % 5)) == idx
    assert point_index(q, (1, 2, 3)) == 25 + 10 + 3


def test_line_table_consistency():
    table = line_table_oracle(3)
    assert len(table) == 117
    assert int(table.origin_mask.sum()) == 13
    q = 3
    for i, line in enumerate(table_lines(3)):
        assert int(line_index(3, line.base, line.dir)) == i
        expected = [point_index(q, p) for p in points_on(q, line)]
        assert list(table.point_idx[i]) == expected
        assert (table.dual_idx[i] == -1) == passes_origin(line)
