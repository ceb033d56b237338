"""Closed-form line rows and projected line counts against the whole-table oracle.

Every count, prune and K_{t,t} count of the program reads |X on l| from
geom3.line_counts, which bincounts the rows of the lines through each
point of X, and decodes rows with geom3.line_at. The oracle in
tests/oracles.py enumerates the table of lines block by block and gathers
the membership of each row's q points (q <= 13).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eil import geom3, incidence
from eil.evasive import (
    PointSet,
    TriPoly,
    line_intersection_counts,
    monomials,
    prune_bad_lines,
    sample_poly,
    zero_set,
)
from eil.geom3 import line_at, line_counts, n_lines
from eil.incidence import build_incidence, count_ktt_via_lines
from oracles import gather_line_counts, ktt_count_by_table, line_index, line_table_oracle

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
    return PointSet(q, member)


@settings(max_examples=80, deadline=None)
@given(point_sets())
def test_projected_counts_match_the_gather(x):
    counts = line_intersection_counts(x)
    assert counts.shape == (n_lines(x.q),)
    assert np.array_equal(counts, gather_line_counts(x))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 7, 11, 13]), st.integers(3, 5), st.integers(0, 2**32))
def test_zero_set_and_pruned_counts_match_the_gather(q, t, seed):
    # the pruned set never projects from scratch: it carries X0's counts,
    # less those of the removed points
    f = sample_poly(q, t, seed)
    x0 = zero_set(q, f)
    pruned, vanishing = prune_bad_lines(q, f, x0)
    assert np.array_equal(line_intersection_counts(x0), gather_line_counts(x0))
    assert np.array_equal(line_intersection_counts(pruned), gather_line_counts(pruned))
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
    assert np.array_equal(line_intersection_counts(pruned), gather_line_counts(pruned))
    assert gather_line_counts(pruned).max() <= 3


@pytest.mark.parametrize("block", [1, 7, 100])
@pytest.mark.parametrize("q", [7, 11])
def test_blocked_projection_matches_the_gather(q, block, monkeypatch):
    # one pivot-0 block per d1 value, or several, or part of one
    monkeypatch.setattr(geom3, "_BLOCK", block)
    x0 = zero_set(q, sample_poly(q, 3, block))
    assert np.array_equal(line_counts(q, x0.indices()), gather_line_counts(x0))


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


def test_ktt_count_in_chunks_of_duals(monkeypatch):
    c = build_incidence(11, 3, 7)
    whole = count_ktt_via_lines(c)
    monkeypatch.setattr(incidence, "_DUAL_CHUNK", 100)
    assert count_ktt_via_lines(c) == whole == ktt_count_by_table(c.x_set, c.y_set, 3) > 0
