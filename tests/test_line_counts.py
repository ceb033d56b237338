"""Closed-form line rows and projected line and plane counts against the whole-table oracle.

Every count and prune of the program reads |X on l| from geom3.line_counts,
which bincounts the rows of the lines through each point of X, and decodes
rows with geom3.line_at; the K_{t,t} count also reads |X on dual(l)| from
geom3.plane_counts, which bincounts the rows of the lines inside the plane
of each point of X. The oracle in tests/oracles.py enumerates the table of
lines block by block and gathers the membership of each row's q points
(q <= 13); dual rows come from Cramer's rule (oracles.dual_index).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eil import geom3
from eil.evasive import (
    PointSet,
    TriPoly,
    monomials,
    prune_bad_lines,
    sample_poly,
    zero_set,
)
from eil.geom3 import line_at, line_counts, line_points, n_lines, plane_counts
from eil.incidence import build_incidence, count_ktt_via_lines
from oracles import (
    dual_index,
    gather_line_counts,
    ktt_count_by_table,
    line_index,
    line_table_oracle,
)

QS = [2, 3, 5, 7, 11, 13]


@st.composite
def point_sets(draw):
    """Arbitrary subsets of F_q^3: sparse, co-sparse, empty or full."""
    q = draw(st.sampled_from(QS))
    kind = draw(st.sampled_from(["sparse", "cosparse", "empty", "full"]))
    member = np.zeros(q**3, dtype=np.bool_)
    if kind in ("sparse", "cosparse"):
        member[draw(st.lists(st.integers(0, q**3 - 1), max_size=300))] = True
    if kind in ("cosparse", "full"):
        member = ~member
    return PointSet(q, np.flatnonzero(member))


@settings(max_examples=80, deadline=None)
@given(point_sets())
def test_projected_counts_match_the_gather(x):
    counts = x.line_counts
    assert counts.shape == (n_lines(x.q),)
    assert np.array_equal(counts, gather_line_counts(x))
    # the plane counts are the line counts of the dual off the origin and
    # 0 through it; their blocks cover the rows in order
    q, rows = x.q, np.arange(n_lines(x.q))
    parts = list(plane_counts(q, x.points))
    assert [p.start for p, _ in parts] == [0] + [p.stop for p, _ in parts[:-1]]
    planes = np.concatenate([block for _, block in parts])
    off = rows % (q * q) != 0
    assert planes.shape == rows.shape and not planes[~off].any()
    assert np.array_equal(planes[off], counts[dual_index(q, rows[off])])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 7, 11, 13]), st.integers(3, 5), st.integers(0, 2**32))
def test_zero_set_and_pruned_counts_match_the_gather(q, t, seed):
    # the pruned set never projects from scratch: it carries X0's counts,
    # less those of the removed points
    f = sample_poly(q, t, seed)
    x0 = zero_set(q, f)
    pruned, vanishing = prune_bad_lines(q, f, x0)
    assert np.array_equal(x0.line_counts, gather_line_counts(x0))
    assert np.array_equal(pruned.line_counts, gather_line_counts(pruned))
    assert np.array_equal(vanishing, np.flatnonzero(gather_line_counts(x0) > t))


@pytest.mark.parametrize("q", [5, 7, 11])
def test_planted_prune_removes_points_and_keeps_counts_exact(q):
    # f = x1 (x2^2 - n x3^2 - x1) with n a non-square: the zero set is the
    # plane x1 = 0 and an elliptic paraboloid, which holds no line and
    # meets the plane only at the origin. Every line of the plane is
    # cleared; the q^2 - 1 other points of the paraboloid stay.
    n = next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1)
    coeffs = {(1, 2, 0): 1, (1, 0, 2): q - n, (2, 0, 0): q - 1}
    f = TriPoly(q, 3, tuple(coeffs.get(m, 0) for m in monomials(3)))
    x0 = zero_set(q, f)
    pruned, vanishing = prune_bad_lines(q, f, x0)
    assert len(vanishing) == q * (q + 1)
    assert x0.count == 2 * q * q - 1 and pruned.count == q * q - 1
    assert np.array_equal(pruned.line_counts, gather_line_counts(pruned))
    assert gather_line_counts(pruned).max() <= 3


def test_built_sets_carry_read_only_counts_from_construction():
    # X0, a pruned set that lost points (seed 0 clears a line) and one that
    # lost none (seed 1), which shares X0's array: a write into any of them
    # would change the others' counts
    q, t = 7, 3
    for seed, lost in ((0, True), (1, False)):
        f = sample_poly(q, t, seed)
        x0 = zero_set(q, f)
        pruned, vanishing = prune_bad_lines(q, f, x0)
        assert (pruned.count < x0.count) == (vanishing.size > 0) == lost
        assert (pruned.line_counts is x0.line_counts) == (not lost)
        for x in (x0, pruned):
            assert np.array_equal(x.line_counts, gather_line_counts(x))
            with pytest.raises(ValueError):
                x.line_counts[0] = 0


@pytest.mark.parametrize("block", [1, 7, 100])
@pytest.mark.parametrize("q", [7, 11])
def test_blocked_projection_matches_the_gather(q, block, monkeypatch):
    # pivot-0 blocks of `block` d1 values: one, several (7 of 11), or all of them
    x0 = zero_set(q, sample_poly(q, 3, block))
    monkeypatch.setattr(geom3, "BLOCK", block * (q * x0.count + q**3))
    assert np.array_equal(line_counts(q, x0.points), gather_line_counts(x0))


def test_line_counts_of_one_line_stay_within_a_block(monkeypatch):
    # the few points that pruning removes: every bincount holds at most BLOCK
    # entries of input and output together, not a minlength of q * q^3
    q, row = 37, 12345
    points = line_points(q, *line_at(q, row))
    held = []
    bincount = np.bincount

    def spy(x, weights=None, minlength=0):
        held.append(np.size(x) + minlength)
        return bincount(x, weights, minlength)

    monkeypatch.setattr(np, "bincount", spy)
    counts = line_counts(q, points)
    monkeypatch.undo()
    assert len(held) > 2 and max(held) <= geom3.BLOCK
    assert np.flatnonzero(counts == q).tolist() == [row]
    assert int(counts.sum()) == q * (q * q + q + 1)


@pytest.mark.parametrize("q", QS)
def test_line_at_and_line_index_invert_each_other_on_every_row(q):
    table = line_table_oracle(q)
    rows = np.arange(n_lines(q))
    base, direction = line_at(q, rows)
    assert (base == table.base).all() and (direction == table.dir).all()
    assert (line_index(q, base, direction) == rows).all()
    b, d = line_at(q, rows[-1])
    assert b.shape == d.shape == (3,) and int(line_index(q, b, d)) == rows[-1]


@pytest.mark.parametrize("q", QS)
def test_origin_rows_are_the_multiples_of_q_squared(q):
    rows = np.arange(n_lines(q))
    origin = line_table_oracle(q).origin_mask
    assert np.array_equal(np.flatnonzero(origin), rows[rows % (q * q) == 0])
    assert int(origin.sum()) == q * q + q + 1


@pytest.mark.parametrize("q,t", [(5, 3), (7, 3), (11, 3), (11, 4), (13, 3)])
def test_ktt_count_matches_the_table_count(q, t):
    for seed in range(6):
        c = build_incidence(q, t, 900 + seed)
        assert count_ktt_via_lines(c) == ktt_count_by_table(c.x_set, c.y_set, t)


def test_ktt_count_in_plane_blocks_of_one_d1(monkeypatch):
    c = build_incidence(11, 3, 7)
    whole = count_ktt_via_lines(c)
    # a pivot-0 block of plane counts holds one d1 when BLOCK is below its size
    monkeypatch.setattr(geom3, "BLOCK", 1)
    assert count_ktt_via_lines(c) == whole == ktt_count_by_table(c.x_set, c.y_set, 3) > 0


@pytest.mark.parametrize("q", [7, 11])
def test_ktt_count_in_slices_of_line_counts(q, monkeypatch):
    # Y's line counts sliced by pivot-0 plane blocks of one d1, against one block of all q
    built = [build_incidence(q, 3, 40 + seed) for seed in range(5)]
    whole = [count_ktt_via_lines(c) for c in built]
    monkeypatch.setattr(geom3, "BLOCK", 1)
    assert [count_ktt_via_lines(c) for c in built] == whole
    assert whole == [ktt_count_by_table(c.x_set, c.y_set, 3) for c in built]
    assert sum(whole) > 0


def test_ktt_count_holds_no_array_of_every_row():
    # seed 3 prunes; the count streams X's plane counts block by block
    q, t = 61, 3
    c = build_incidence(q, t, 3)
    tracemalloc.start()
    try:
        count = count_ktt_via_lines(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count > 0
    # a uint8 count of every row alone takes n_lines(q) bytes
    assert peak < n_lines(q), peak
