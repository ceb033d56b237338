import math
import random

import numpy as np
import pytest

from eil.evasive import (
    REFERENCE_LINE,
    PointSet,
    TriPoly,
    exact_probabilities,
    line_intersection_counts,
    monomials,
    prune_bad_lines,
    sample_poly,
    top_coefficient,
    zero_set,
)
from eil.geom3 import AffineLine, line_at, n_lines
from oracles import (
    UniPoly,
    evaluate,
    evaluate_uni,
    line_index,
    line_table_oracle,
    point_index,
    points_on,
    restrict_all_lines,
    restrict_to_line,
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
        assert set(zero_set(q, f).indices()) == zero_set_oracle(q, f)


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
    assert vanishing.size == 0 and pruned == x0


@pytest.mark.parametrize("q,t", [(5, 3), (7, 3), (7, 4)])
def test_prune_count_rule_matches_symbolic_rule(q, t):
    # for t < q the rows with more than t points of X0 are exactly the rows
    # on which the degree-<=t restriction is the zero polynomial
    for trial in range(20):
        f = sample_poly(q, t, 40_000 + 100 * q + 10 * t + trial)
        _, vanishing = prune_bad_lines(q, f, zero_set(q, f))
        symbolic = np.flatnonzero(~restrict_all_lines(q, f).any(axis=1))
        assert np.array_equal(vanishing, symbolic)


def test_prune_t_equals_q_keeps_the_zero_set():
    # decision for t = q: no line carries more than q points, so nothing is
    # pruned, even where f restricts to the zero polynomial on a line
    q = t = 5
    for trial in range(20):
        f = sample_poly(q, t, 50_000 + trial)
        x0 = zero_set(q, f)
        pruned, vanishing = prune_bad_lines(q, f, x0)
        assert vanishing.size == 0 and pruned == x0
    # the plane x1 = 0 holds q(q + 1) lines on which x1 is symbolically zero
    plane = poly_from_map(q, t, {(1, 0, 0): 1})
    x0 = zero_set(q, plane)
    pruned, vanishing = prune_bad_lines(q, plane, x0)
    assert vanishing.size == 0 and pruned == x0 and x0.count == 25
    assert int((~restrict_all_lines(q, plane).any(axis=1)).sum()) == 30


@pytest.mark.parametrize("q,t", [(3, 3), (5, 4), (7, 3), (7, 7)])
def test_top_coefficient_is_the_leading_restriction_coefficient(q, t):
    rng = random.Random(q * t)
    for trial in range(10):
        f = sample_poly(q, t, 70_000 + trial)
        for i in rng.sample(range(n_lines(q)), 25):
            line = row_line(q, i)
            assert top_coefficient(f, line.dir) == restrict_to_line(q, f, line).coeffs[t]


@pytest.mark.parametrize("q,t", [(3, 3), (5, 3), (5, 5), (7, 3), (7, 7)])
def test_montecarlo_ref_vanished_matches_symbolic_restriction(q, t, monkeypatch):
    # The trial decides ref_vanished from the zero count on the reference
    # line and the s^t coefficient; the oracle restricts f symbolically.
    # Seeded polynomials rarely vanish on one line, so each is also tried
    # with its restriction cancelled (the zero polynomial on the line) and,
    # for t = q, with c (y^q - y) added back: zero at all q points, yet not
    # the zero polynomial. y^q - y itself is planted too.
    from eil import cli

    assert REFERENCE_LINE == AffineLine((1, 0, 0), (0, 1, 0))
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
        shifted(f, [-c for c in restrict_to_line(q, f, REFERENCE_LINE).coeffs])
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
        assert trial["ref_vanished"] == restrict_to_line(q, f, REFERENCE_LINE).is_zero()
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
            on_line = int(x0.member[table.point_idx[i]].sum())
            if on_line > 3:
                assert restrict_to_line(q, f, row_line(q, i)).is_zero()


@pytest.mark.parametrize("q,t", [(7, 3), (5, 4)])
def test_pruned_set_meets_every_line_at_most_t(q, t):
    for trial in range(100):
        f = sample_poly(q, t, 777 + trial)
        pruned, _ = prune_bad_lines(q, f, zero_set(q, f))
        counts = line_intersection_counts(pruned)
        assert counts.max() <= t
        assert pruned.count <= t * q * q


def test_line_histogram_empty_and_single_point():
    # lines bucketed by how many points of X they carry, split by the origin
    origin = line_table_oracle(5).origin_mask

    def histogram(member):
        counts = line_intersection_counts(PointSet(5, member))
        return np.bincount(counts, minlength=6), np.bincount(counts[origin], minlength=6)

    empty = np.zeros(125, dtype=np.bool_)
    total, through_origin = histogram(empty)
    assert total[0] == total.sum() == 775
    single = empty.copy()
    single[point_index(5, (1, 2, 3))] = True
    total, through_origin = histogram(single)
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
    member = np.zeros(125, dtype=np.bool_)
    member[[int(r) for r in rows]] = True
    assert [int(r) for r in rows] == sorted({int(r) for r in rows})
    assert PointSet(5, member) == x0


def test_reference_line_is_canonical_and_off_origin():
    for q in (2, 7, 13):
        row = int(line_index(q, REFERENCE_LINE.base, REFERENCE_LINE.dir))
        assert row_line(q, row) == REFERENCE_LINE
    assert REFERENCE_LINE.base != (0, 0, 0)


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
