"""Closed-form line rows and projected line and plane counts against the whole-table oracle.

Every line count of the program is streamed by geom3.line_counts, which
bincounts the rows of the lines through each point of X, and rows are
decoded with geom3.line_at; the K_{t,t} count also reads |X on dual(l)| from
geom3.plane_counts, which bincounts the rows of the lines inside the plane
of each point of X, in the same slices of rows. The tests join a stream
into one array (oracles.line_count_array). The oracle in tests/oracles.py
enumerates the table of lines block by block and gathers the membership of
each row's q points (q <= 13); dual rows come from Cramer's rule
(oracles.dual_index).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eil.evasive import (
    PointSet,
    TriPoly,
    monomials,
    prune_bad_lines,
    sample_poly,
    zero_set,
)
from eil.geom3 import (
    STEP_BINS,
    d1_step,
    line_at,
    line_counts,
    line_points,
    n_lines,
    plane_counts,
)
from eil.incidence import build_incidence, count_ktt_via_lines
from oracles import (
    dual_index,
    gather_line_counts,
    ktt_count_by_table,
    line_count_array,
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
    # the line slices cover the rows in order, and they are the plane slices
    q, rows = x.q, np.arange(n_lines(x.q))
    lines = list(line_counts(q, x.points))
    assert [p.start for p, _ in lines] == [0] + [p.stop for p, _ in lines[:-1]]
    assert lines[-1][0].stop == n_lines(q)
    assert all(c.size == p.stop - p.start for p, c in lines)
    counts = line_count_array(q, x.points)
    assert counts.shape == (n_lines(q),)
    assert np.array_equal(counts, gather_line_counts(x))
    # the plane counts are the line counts of the dual off the origin and
    # 0 through it
    parts = list(plane_counts(q, x.points))
    assert [p for p, _ in parts] == [p for p, _ in lines]
    planes = np.concatenate([block for _, block in parts])
    off = rows % (q * q) != 0
    assert planes.shape == rows.shape and not planes[~off].any()
    assert np.array_equal(planes[off], counts[dual_index(q, rows[off])])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 7, 11, 13]), st.integers(3, 5), st.integers(0, 2**32))
def test_zero_set_and_pruned_counts_match_the_gather(q, t, seed):
    f = sample_poly(q, t, seed)
    x0 = zero_set(q, f)
    pruned, vanishing = prune_bad_lines(q, f, x0)
    assert np.array_equal(line_count_array(q, x0.points), gather_line_counts(x0))
    assert np.array_equal(line_count_array(q, pruned.points), gather_line_counts(pruned))
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
    assert np.array_equal(line_count_array(q, pruned.points), gather_line_counts(pruned))
    assert gather_line_counts(pruned).max() <= 3


def test_built_sets_are_their_q_and_points():
    # X0, a pruned set that lost points (seed 0 clears a line) and one that
    # lost none (seed 1), which is X0 itself: a set holds no counts, and
    # its streamed counts are the gathered ones
    q, t = 7, 3
    for seed, lost in ((0, True), (1, False)):
        f = sample_poly(q, t, seed)
        x0 = zero_set(q, f)
        pruned, vanishing = prune_bad_lines(q, f, x0)
        assert (pruned.count < x0.count) == (vanishing.size > 0) == lost
        assert (pruned is x0) == (not lost)
        for x in (x0, pruned):
            assert set(vars(x)) == {"q", "points"}
            assert np.array_equal(line_count_array(q, x.points), gather_line_counts(x))


@pytest.mark.parametrize("seed", [1, 7, 100])
@pytest.mark.parametrize("q", [7, 11, 13, 17, 19])
def test_blocked_projection_matches_the_gather(q, seed):
    # pivot-0 slices of d1_step(q) consecutive d1 values (one group at
    # q = 7 and 11; 7 + 6 at q = 13, 5 * 3 + 2 at q = 17 and 9 * 2 + 1 at
    # q = 19, where the last group is short), then pivot 1 and pivot 2, in
    # both streams. The points with x2 = 0 != x1 add their counts through
    # fold[d1], which every group reads. The gather oracle stops at q = 13;
    # above it the plane counts are checked against the line counts.
    x0 = zero_set(q, sample_poly(q, 3, seed))
    x1, x2 = x0.points // q % q, x0.points % q
    assert np.any((x2 == 0) & (x1 != 0))
    parts = list(plane_counts(q, x0.points))
    q3, q4, g = q**3, q**4, d1_step(q)
    assert g == {7: 7, 11: 11, 13: 7, 17: 3, 19: 2}[q]
    groups = [slice(lo * q3, min(lo + g, q) * q3) for lo in range(0, q, g)]
    assert [p for p, _ in parts] == groups + [slice(q4, q4 + q3), slice(q4 + q3, n_lines(q))]
    assert [p for p, _ in line_counts(q, x0.points)] == [p for p, _ in parts]
    planes, rows = np.concatenate([c for _, c in parts]), np.arange(n_lines(q))
    off = rows % (q * q) != 0
    assert not planes[~off].any()
    counts = gather_line_counts(x0) if q <= 13 else line_count_array(q, x0.points)
    assert np.array_equal(planes[off], counts[dual_index(q, rows[off])])


@pytest.mark.parametrize("q,seed", [(37, None), (23, 1)], ids=["line-37", "zero-set-23-3-1"])
def test_line_counts_bincount_one_d1_at_a_time(q, seed, monkeypatch):
    # one line and a whole zero set: every bincount of the line counts and
    # of the plane counts holds at most the rows of one d1 and its q^3
    # counts, not a minlength of q * q^3 nor several d1 values at once, and
    # no plane slice holds more than the q^3 counts of one d1
    row = 12345
    if seed is None:
        points = line_points(q, *line_at(q, row))
    else:
        points = zero_set(q, sample_poly(q, 3, seed)).points
    held = []
    bincount = np.bincount

    def spy(x, weights=None, minlength=0):
        held.append(np.size(x) + minlength)
        return bincount(x, weights, minlength)

    monkeypatch.setattr(np, "bincount", spy)
    lines = [(rows, c) for rows, c in line_counts(q, points)]
    lines_held, held[:] = held[:], []
    parts = [(rows, c.sum(dtype=np.int64), c.size) for rows, c in plane_counts(q, points)]
    monkeypatch.undo()
    bound = q * len(points) + q**3
    assert len(lines_held) == q + 2 and max(lines_held) <= bound
    assert [rows for rows, _ in lines] == [rows for rows, _, _ in parts]
    assert max(c.size for _, c in lines) <= q**3
    counts = np.concatenate([c for _, c in lines])
    assert len(held) == q + 4 and max(held) <= bound
    assert len(parts) == q + 2 and max(size for _, _, size in parts) <= q**3
    assert int(counts.sum()) == len(points) * (q * q + q + 1)
    # each point but the origin has its plane, which holds q^2 + q lines
    assert sum(int(total) for _, total, _ in parts) == np.count_nonzero(points) * (q * q + q)
    if seed is None:
        assert np.flatnonzero(counts == q).tolist() == [row]


@pytest.mark.parametrize("q", [5, 13, 23, 37])
def test_every_step_bincounts_at_most_step_bins(q, monkeypatch):
    # the streams group d1 values and the prune groups directions until a
    # step's counts fill STEP_BINS, never past q^3 counts where one d1 or q
    # directions already hold more. x1 x2 - x3 has a zero top form, so the
    # prune tries all q^2 + q + 1 directions and fills every step
    f = TriPoly(q, 3, tuple({(1, 1, 0): 1, (0, 0, 1): q - 1}.get(m, 0) for m in monomials(3)))
    bins = []
    bincount = np.bincount

    def spy(x, weights=None, minlength=0):
        out = bincount(x, weights, minlength)
        bins.append(out.size)
        return out

    for x0 in (zero_set(q, f), zero_set(q, sample_poly(q, 3, 1))):
        monkeypatch.setattr(np, "bincount", spy)
        for _ in line_counts(q, x0.points):
            pass
        for _ in plane_counts(q, x0.points):
            pass
        prune_bad_lines(q, f, x0)
        monkeypatch.undo()
    bound = max(q**3, STEP_BINS)
    assert max(bins) <= bound, (max(bins), bound)
    # up to q = 20 a stream step groups several d1 values, and up to q = 25
    # a prune step more than q directions: at q = 23 only the prune's
    # 30-direction steps go past q^3
    if q < 26:
        assert max(bins) > q**3


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


@pytest.mark.parametrize("q,t,seeds", [
    (5, 3, range(900, 906)), (7, 3, range(900, 906)), (11, 3, range(900, 906)),
    (11, 4, range(900, 906)), (13, 3, range(900, 906)),
    (7, 3, range(40, 45)), (11, 3, range(40, 45)), (11, 3, [7])],
    ids=["5-3", "7-3", "11-3", "11-4", "13-3", "7-3-40to44", "11-3-40to44", "11-3-7"])
def test_ktt_count_matches_the_table_count(q, t, seeds):
    counts = []
    for seed in seeds:
        c = build_incidence(q, t, seed)
        counts.append(count_ktt_via_lines(c))
        assert counts[-1] == ktt_count_by_table(c.x_set, c.y_set, t)
    assert sum(counts) > 0


def test_ktt_count_holds_no_array_of_every_row():
    # seed 3 prunes; the count's one pass zips Y's line counts with X's
    # plane counts, one slice at a time
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
