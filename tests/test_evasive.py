import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eil.evasive import (
    REFERENCE_LINE,
    PointSet,
    TriPoly,
    exact_probabilities,
    monomials,
    prune_bad_lines,
    sample_poly,
    top_form,
    zero_set,
)
from eil.geom3 import STEP_BINS, line_at, line_points
from oracles import (
    AffineLine,
    UniPoly,
    evaluate,
    evaluate_uni,
    line_count_array,
    line_index,
    line_table_oracle,
    n_lines,
    point_index,
    points_on,
    prune_by_counts,
    restrict_all_lines,
    restrict_to_line,
    same,
)


def zero_set_oracle(q, f):
    """Pointwise evaluation over every point of F_q^3."""
    out = set()
    for x1 in range(q):
        for x2 in range(q):
            for x3 in range(q):
                if evaluate(f, (x1, x2, x3)) == 0:
                    out.add(point_index(q, (x1, x2, x3)))
    return out


def vanishes_pointwise(q, f, line):
    """Oracle for full vanishing: zero at all q points (valid for t < q)."""
    return all(evaluate(f, p) == 0 for p in points_on(q, line))


def row_line(q, i):
    """Row i (see line_index) as an AffineLine."""
    base, direction = line_at(q, i)
    return AffineLine(tuple(map(int, base)), tuple(map(int, direction)))


def poly_from_map(q, t, coeff_map):
    coeffs = [0] * len(monomials(t))
    for exp, value in coeff_map.items():
        coeffs[monomials(t).index(exp)] = value
    return TriPoly(q, t, tuple(coeffs))


def test_monomial_counts_and_order():
    # stars and bars: C(t+3, 3)
    assert len(monomials(3)) == 20
    assert len(monomials(4)) == 35
    mons = monomials(3)
    assert mons[0] == (0, 0, 0)
    degrees = [sum(m) for m in mons]
    assert degrees == sorted(degrees)
    assert len(set(mons)) == len(mons)


def test_sample_poly_determinism_and_bounds():
    q = 7
    f1 = sample_poly(q, 3, 99)
    f2 = sample_poly(q, 3, 99)
    assert f1 == f2
    assert len(f1.coeffs) == 20
    assert all(0 <= c < 7 for c in f1.coeffs)
    assert len(sample_poly(q, 4, 1).coeffs) == 35


def test_stream_is_uniform_enough():
    # t = 47 draws C(50, 3) = 19600 coefficients at q=5: each residue
    # within 5 sigma of 3920
    draws = sample_poly(5, 47, 12345).coeffs
    assert len(draws) == 19600
    counts = np.bincount(draws, minlength=5)
    sigma = math.sqrt(19600 * 0.2 * 0.8)
    assert all(abs(c - 3920) <= 5 * sigma for c in counts)


def test_evaluate_examples():
    q = 7
    f = poly_from_map(q, 3, {(1, 1, 0): 1, (0, 0, 1): 1})  # x1 x2 + x3
    assert evaluate(f, (2, 3, 1)) == 0  # 6 + 1 = 7
    zero = poly_from_map(q, 3, {})
    assert evaluate(zero, (4, 5, 6)) == 0
    const = poly_from_map(q, 3, {(0, 0, 0): 5})
    assert evaluate(const, (1, 2, 3)) == 5


def test_restriction_example_and_shape():
    q = 7
    f = poly_from_map(q, 3, {(1, 1, 0): 1, (0, 0, 1): 1})
    g = restrict_to_line(q, f, AffineLine((0, 1, 0), (1, 0, 0)))
    assert g.coeffs == (0, 1, 0, 0)  # g(s) = s
    const = poly_from_map(q, 3, {(0, 0, 0): 4})
    anyline = AffineLine((1, 0, 0), (0, 1, 0))
    assert restrict_to_line(q, const, anyline).coeffs == (4, 0, 0, 0)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_restriction_matches_pointwise_evaluation(q):
    rng = random.Random(q)
    for trial in range(10):
        f = sample_poly(q, 3, 1000 * q + trial)
        for i in rng.sample(range(n_lines(q)), min(25, n_lines(q))):
            line = row_line(q, i)
            g = restrict_to_line(q, f, line)
            assert len(g.coeffs) == 4
            for s, p in enumerate(points_on(q, line)):
                assert evaluate_uni(g, s) == evaluate(f, p)


def test_restrict_all_lines_matches_scalar_path():
    q = 5
    f = sample_poly(q, 4, 31)
    bulk = restrict_all_lines(q, f)
    assert bulk.shape == (775, 5)
    for i in random.Random(0).sample(range(775), 60):
        assert tuple(bulk[i]) == restrict_to_line(q, f, row_line(5, i)).coeffs


@pytest.mark.parametrize("q,t", [(3, 3), (5, 3), (5, 5), (7, 4), (7, 7)])
def test_zero_set_matches_pointwise_oracle(q, t):
    for trial in range(5):
        f = sample_poly(q, t, 50 + trial)
        assert set(zero_set(q, f).points.tolist()) == zero_set_oracle(q, f)


def test_zero_set_special_polynomials():
    q = 5
    plane = poly_from_map(q, 3, {(1, 0, 0): 1})  # x1
    assert zero_set(q, plane).count == 25
    assert zero_set(q, poly_from_map(q, 3, {(0, 0, 0): 1})).count == 0
    assert zero_set(q, poly_from_map(q, 3, {})).count == 125


def test_prune_removes_plane_entirely():
    q = 5
    plane = poly_from_map(q, 3, {(1, 0, 0): 1})
    x0 = zero_set(q, plane)
    pruned, vanishing = prune_bad_lines(q, plane, x0)
    assert pruned.count == 0
    # exactly the lines inside the plane x1 = 0 vanish: q(q + 1) of them
    assert len(vanishing) == 30
    assert all(
        all(p[0] == 0 for p in points_on(q, row_line(5, i))) for i in vanishing
    )
    f = poly_from_map(q, 3, {(0, 0, 0): 1})
    x0 = zero_set(q, f)
    pruned, vanishing = prune_bad_lines(q, f, x0)
    assert vanishing.size == 0 and same(pruned, x0)


def test_prune_that_clears_nothing_masks_no_rows():
    # x1 x2 x3 + 1 vanishes on no line: there x1 x2 x3 is a product of three
    # factors of degree <= 1 in s, which is the constant -1 only if every
    # factor is constant, that is, only if dir = 0
    q = 31
    f = poly_from_map(q, 3, {(1, 1, 1): 1, (0, 0, 0): 1})
    x0 = zero_set(q, f)
    assert x0.count == (q - 1) ** 2
    tracemalloc.start()
    try:
        pruned, vanishing = prune_bad_lines(q, f, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pruned is x0 and vanishing.size == 0
    # a bool of every row alone takes q^2 (q^2 + q + 1) bytes
    assert peak < q**4, peak


def planted_plane(q, c):
    """x_c (x2^2 - n x3^2 - x1), n a non-square, at t = 3 (coordinates x1, x2, x3).

    The elliptic paraboloid holds no line, so the rows with more than 3
    points of the zero set are the q (q + 1) lines of the plane x_c = 0.
    """
    n = next(a for a in range(2, q) if pow(a, (q - 1) // 2, q) == q - 1)
    unit = tuple(int(i == c) for i in range(3))
    quadric = {(0, 2, 0): 1, (0, 0, 2): q - n, (1, 0, 0): q - 1}
    return poly_from_map(q, 3, {tuple(a + b for a, b in zip(e, unit)): v
                                for e, v in quadric.items()})


def test_prune_that_clears_lines_masks_no_rows():
    # the key prune clears the points from the keys of the step that found
    # the lines, with no q^3 mask and no points of the cleared lines: those
    # took the peak to 19.0 MB here
    q = 61
    f = planted_plane(q, 0)
    x0 = zero_set(q, f)
    tracemalloc.start()
    try:
        pruned, vanishing = prune_bad_lines(q, f, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vanishing.size == q * (q + 1) and pruned.count == q * q - 1
    # a bool of every row alone takes q^2 (q^2 + q + 1) bytes
    assert peak < q**4, peak


def pivots(q, rows):
    return set((np.asarray(rows) >= q**4).astype(int) + (np.asarray(rows) >= q**4 + q**3))


@pytest.mark.parametrize("q", [5, 7, 11])
def test_key_prune_of_planted_planes_in_every_pivot(q):
    # the plane x1 = 0 holds the directions of pivots 1 and 2, x2 = 0 those
    # of pivots 0 and 2, and x3 = 0 those of pivots 0 and 1
    for c, expected in enumerate(({1, 2}, {0, 2}, {0, 1})):
        pruned, rows = prunes_as_the_count_rule(planted_plane(q, c))
        assert rows.size == q * (q + 1) and pivots(q, rows) == expected


@pytest.mark.parametrize("q", [5, 7, 13])
def test_key_prune_with_a_zero_top_form_across_steps(q):
    # x1 x3 at t = 3 has f_t = 0, so every direction is a candidate; its
    # zero set is the planes x1 = 0 and x3 = 0, whose 2 q (q + 1) - 1 lines
    # (one shared) take all three pivots. At q = 13 a step holds 96 of the
    # 169 pivot-0 directions, and the lines (1, d1, 0) of x3 = 0 fall in both
    f = poly_from_map(q, 3, {(1, 0, 1): 1})
    assert not top_form(f).any()
    pruned, rows = prunes_as_the_count_rule(f)
    assert rows.size == 2 * q * (q + 1) - 1 and pruned.count == 0
    assert pivots(q, rows) == {0, 1, 2}
    step = max(q, STEP_BINS // q**2)
    steps = set((rows[rows < q**4] // q**2 // step).tolist())
    assert steps == ({0, 1} if q == 13 else {0})


@pytest.mark.parametrize("q,t", [(5, 3), (7, 3), (7, 4)])
def test_prune_count_rule_matches_symbolic_rule(q, t):
    # for t < q the rows with more than t points of X0 are exactly the rows
    # on which the degree-<=t restriction is the zero polynomial
    for trial in range(20):
        f = sample_poly(q, t, 40_000 + 100 * q + 10 * t + trial)
        _, vanishing = prune_bad_lines(q, f, zero_set(q, f))
        symbolic = np.flatnonzero(~restrict_all_lines(q, f).any(axis=1))
        assert np.array_equal(vanishing, symbolic)


def prunes_as_the_count_rule(f):
    """The prune of f's zero set, checked against oracles.prune_by_counts."""
    q = f.q
    x0 = zero_set(q, f)
    pruned, rows = prune_bad_lines(q, f, x0)
    points, expected = prune_by_counts(x0, f.t)
    assert np.array_equal(rows, expected)
    assert np.array_equal(pruned.points, points)
    assert (pruned is x0) == (rows.size == 0)
    return pruned, rows


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7, 11, 13]).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(3, q), st.integers(0, 2**32))))
def test_prune_matches_the_count_rule(qts):
    q, t, seed = qts
    prunes_as_the_count_rule(sample_poly(q, t, seed))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_prune_matches_the_count_rule_at_q61(seed):
    prunes_as_the_count_rule(sample_poly(61, 3, seed))


@pytest.mark.parametrize("q", [5, 7, 11])
def test_prune_with_a_zero_top_form_tries_every_direction(q):
    # x1 x2 - x3 at t = 3 has f_t = 0, so all q^2 + q + 1 directions are
    # candidates; its zero set is the union of its 2q lines (c, s, cs) and
    # (s, c, cs), so nothing is left
    f = poly_from_map(q, 3, {(1, 1, 0): 1, (0, 0, 1): q - 1})
    assert not top_form(f).any()
    pruned, rows = prunes_as_the_count_rule(f)
    assert rows.size == 2 * q and pruned.count == 0


@pytest.mark.parametrize("q,t", [(5, 3), (7, 4), (11, 3)])
def test_prune_with_a_top_form_divisible_by_x1(q, t):
    # f = x1 g: f_t = x1 g_{t-1} is zero at the q + 1 directions (0, 1, d)
    # and (0, 0, 1), its last q + 1 entries, and every line of the plane
    # x1 = 0 is cleared: the q (q + 1) rows of those directions whose base
    # has x1 = 0
    base, _ = line_at(q, np.arange(q**4, n_lines(q)))
    plane = q**4 + np.flatnonzero(base[:, 0] == 0)
    assert plane.size == q * (q + 1)
    for trial in range(5):
        g = sample_poly(q, t - 1, 90_000 + trial)
        f = poly_from_map(q, t, {(i + 1, j, k): a
                                 for (i, j, k), a in zip(monomials(t - 1), g.coeffs)})
        assert not top_form(f)[q * q :].any()
        assert np.isin(plane, prunes_as_the_count_rule(f)[1]).all()


def test_prune_t_equals_q_keeps_the_zero_set():
    # decision for t = q: no line carries more than q points, so nothing is
    # pruned, even where f restricts to the zero polynomial on a line
    q = t = 5
    for trial in range(20):
        f = sample_poly(q, t, 50_000 + trial)
        x0 = zero_set(q, f)
        pruned, vanishing = prune_bad_lines(q, f, x0)
        assert vanishing.size == 0 and pruned is x0
    # the plane x1 = 0 holds q(q + 1) lines on which x1 is symbolically zero
    plane = poly_from_map(q, t, {(1, 0, 0): 1})
    x0 = zero_set(q, plane)
    pruned, vanishing = prune_bad_lines(q, plane, x0)
    assert vanishing.size == 0 and pruned is x0 and x0.count == 25
    assert int((~restrict_all_lines(q, plane).any(axis=1)).sum()) == 30


@pytest.mark.parametrize("q,t", [(3, 3), (5, 4), (7, 3), (7, 7)])
def test_top_coefficient_is_the_leading_restriction_coefficient(q, t):
    # entry i of top_form is the s^t coefficient on every line of rows
    # i q^2 .. i q^2 + q^2 - 1; one line of each direction, at random, is tried
    rng = random.Random(q * t)
    for trial in range(10):
        f = sample_poly(q, t, 70_000 + trial)
        top = top_form(f)
        assert top.shape == (q * q + q + 1,)
        for i, value in enumerate(top.tolist()):
            line = row_line(q, i * q * q + rng.randrange(q * q))
            assert value == restrict_to_line(q, f, line).coeffs[t]


@pytest.mark.parametrize("q,t", [(3, 3), (5, 3), (5, 5), (7, 3), (7, 7)])
def test_montecarlo_ref_vanished_matches_symbolic_restriction(q, t, monkeypatch):
    # The trial decides ref_vanished from the zero count on the reference
    # line and the s^t coefficient; the oracle restricts f symbolically.
    # Seeded polynomials rarely vanish on one line, so each is also tried
    # with its restriction cancelled (the zero polynomial on the line) and,
    # for t = q, with c (y^q - y) added back: zero at all q points, yet not
    # the zero polynomial. y^q - y itself is planted too.
    from eil import cli

    assert REFERENCE_LINE == ((1, 0, 0), (0, 1, 0))
    ref = AffineLine(*REFERENCE_LINE)
    mons = monomials(t)

    def shifted(f, shift):
        # add shift[j] to the coefficient of y^j
        coeffs = list(f.coeffs)
        for j, c in enumerate(shift):
            m = mons.index((0, j, 0))
            coeffs[m] = (coeffs[m] + c) % q
        return TriPoly(q, t, tuple(coeffs))

    seeded = [sample_poly(q, t, 60_000 + i) for i in range(300)]
    # f(1, s, 0) collects the monomials x^i y^j into s^j, so subtracting
    # its coefficients from those of y^j cancels the restriction
    cancelled = [
        shifted(f, [-c for c in restrict_to_line(q, f, ref).coeffs])
        for f in seeded
    ]
    polys = seeded + cancelled
    if t == q:
        planted = [0, q - 1] + [0] * (q - 2) + [1]  # y^q - y
        polys.append(shifted(poly_from_map(q, t, {}), planted))
        polys += [shifted(f, [c * (1 + i % (q - 1)) for c in planted])
                  for i, f in enumerate(cancelled)]
    monkeypatch.setattr(cli, "sample_poly", lambda q, t, seed: polys[seed])
    trials = [cli._montecarlo_trial((q, t, 0, i)) for i in range(len(polys))]
    for f, trial in zip(polys, trials):
        assert trial["ref_vanished"] == restrict_to_line(q, f, ref).is_zero()
    assert sum(r["ref_vanished"] for r in trials) >= 300
    full_not_zero = sum(r["ref_count_x0"] == q and not r["ref_vanished"] for r in trials)
    assert full_not_zero >= (301 if t == q else 0)


def test_vanishing_detection_matches_pointwise_oracle_when_t_below_q():
    q = 5
    lines = [row_line(5, i) for i in range(n_lines(5))]
    for trial in range(40):
        f = sample_poly(q, 3, 200 + trial)
        bulk = restrict_all_lines(q, f)
        symbolic = set(np.flatnonzero(~bulk.any(axis=1)))
        pointwise = {i for i, line in enumerate(lines) if vanishes_pointwise(q, f, line)}
        assert symbolic == pointwise


@pytest.mark.parametrize("q", [5, 7, 11])
def test_zero_set_line_intersections_bounded_unless_vanishing(q):
    table = line_table_oracle(q)
    rng = random.Random(q)
    for trial in range(67):
        f = sample_poly(q, 3, 10_000 * q + trial)
        x0 = zero_set(q, f)
        for i in rng.sample(range(len(table)), 30):
            on_line = int(np.isin(table.point_idx[i], x0.points).sum())
            if on_line > 3:
                assert restrict_to_line(q, f, row_line(q, i)).is_zero()


@pytest.mark.parametrize("q,t", [(7, 3), (5, 4)])
def test_pruned_set_meets_every_line_at_most_t(q, t):
    for trial in range(100):
        f = sample_poly(q, t, 777 + trial)
        pruned, _ = prune_bad_lines(q, f, zero_set(q, f))
        counts = line_count_array(q, pruned.points)
        assert counts.max() <= t
        assert pruned.count <= t * q * q


def test_line_histogram_empty_and_single_point():
    # lines bucketed by how many points of X they carry, split by the origin
    origin = line_table_oracle(5).origin_mask

    def histogram(points):
        counts = line_count_array(5, np.array(points, dtype=np.int64))
        return np.bincount(counts, minlength=6), np.bincount(counts[origin], minlength=6)

    total, through_origin = histogram([])
    assert total[0] == total.sum() == 775
    total, through_origin = histogram([point_index(5, (1, 2, 3))])
    assert total[1] == 31  # q^2 + q + 1 lines through any point
    assert total[0] == 775 - 31
    assert through_origin.sum() == 31


def test_exact_probabilities_closed_form_values():
    assert exact_probabilities(5, 3).p_vanish == 1 / 625
    p = exact_probabilities(7, 3)
    assert p.p_exact_t == pytest.approx(30 / 343, abs=0, rel=0)
    assert p.e_binom == pytest.approx(35 / 343, abs=0, rel=0)


def test_unipoly_zero_and_eval():
    g = UniPoly(7, (0, 0, 0, 0))
    assert g.is_zero()
    g = UniPoly(7, (1, 2, 0, 3))
    assert not g.is_zero()
    assert evaluate_uni(g, 2) == (1 + 4 + 24) % 7


def test_pointset_serialization_roundtrip():
    q = 5
    f = sample_poly(q, 3, 8)
    x0 = zero_set(q, f)
    # the file is written, never read back: decode it here by its layout,
    # a header and then the point indices in increasing order
    head, *rows = x0.to_text().splitlines()
    assert head == f"q=5 n={x0.count}"
    points = [int(r) for r in rows]
    assert points == sorted(set(points))
    assert same(PointSet(5, np.array(points, dtype=np.int64)), x0)


def test_reference_line_is_canonical_and_off_origin():
    for q in (2, 7, 13):
        row = int(line_index(q, *REFERENCE_LINE))
        assert row_line(q, row) == AffineLine(*REFERENCE_LINE)
        # cli._montecarlo_trial reads f_t at the direction of index row // q^2
        # and looks the line's q points up in X0 and X
        assert row == q**4 + q
        assert line_points(q, *REFERENCE_LINE).tolist() == [q * q + s * q for s in range(q)]
    assert REFERENCE_LINE[0] != (0, 0, 0)


def test_bad_line_fraction_within_markov_bound():
    # q=11, t=3, 2000 trials: the reference line loses a point in at most
    # 2 (q^3 + q^2 + 1) q^-(t+1) of the trials (first-moment bound, doubled)
    from eil.cli import run_montecarlo

    q, t, trials = 11, 3, 2000
    report = run_montecarlo(q, t, 505, trials)
    bound = 2 * (q**3 + q**2 + 1) / q ** (t + 1)
    assert report.aggregates["bad_rate"] <= bound
    bad_check = [c for c in report.checks if c["name"] == "bad_rate_bound"][0]
    assert bad_check["passed"] and bad_check["bound"] == bound
