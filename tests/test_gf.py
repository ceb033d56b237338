import numpy as np
import pytest

from eil.errors import ParameterError
from eil.evasive import _pow_mod
from eil.gf import FieldCtx, is_prime
from oracles import check_residue, inverse

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def test_examples():
    f7 = FieldCtx(7)
    assert inverse(f7, 3) == 5
    assert inverse(f7, 6) == 6
    assert check_residue(f7, 0) == 0 and check_residue(f7, 6) == 6


def test_construction_rejects_non_primes():
    for bad in (0, 1, 4, 6, 9, 12, 2**20 + 7):
        with pytest.raises(ParameterError):
            FieldCtx(bad)
    with pytest.raises(ParameterError):
        FieldCtx((1 << 20) + 1)  # above the q bound even if prime-looking


def test_is_prime_small():
    primes = {p for p in range(100) if is_prime(p)}
    assert primes == {
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
        67, 71, 73, 79, 83, 89, 97,
    }


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_field_axioms_exhaustive(q):
    # the line oracles canonicalize directions with this inverse; the bulk
    # paths do the ring operations with % q, so the inverse axiom is the one
    # to check
    ctx = FieldCtx(q)
    for a in range(q):
        assert check_residue(ctx, a) == a
        if a != 0:
            assert a * inverse(ctx, a) % q == 1


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_pow_matches_repeated_multiplication(q):
    # the bulk paths raise whole coordinate columns to powers with _pow_mod
    col = np.arange(q, dtype=np.int64)
    acc = np.ones(q, dtype=np.int64)
    for e in range(21):
        assert (_pow_mod(col, e, q) == acc).all()
        acc = acc * col % q


def test_inv_identities():
    for q in (5, 7, 11, 13):
        ctx = FieldCtx(q)
        assert inverse(ctx, 1) == 1
        assert inverse(ctx, q - 1) == q - 1
    with pytest.raises(ParameterError):
        inverse(FieldCtx(7), 0)


def test_canonical_residues_enforced():
    ctx = FieldCtx(7)
    for bad in (7, -1, True, 2.0):
        with pytest.raises(ParameterError):
            check_residue(ctx, bad)
    with pytest.raises(ParameterError):
        inverse(ctx, 7)


def test_subgroup_frozen_values():
    # enumerated by hand: solutions of x^t = 1
    assert FieldCtx(7).subgroup_of_order(3) == {1, 2, 4}
    assert FieldCtx(5).subgroup_of_order(2) == {1, 4}
    assert FieldCtx(13).subgroup_of_order(4) == {1, 5, 8, 12}


def test_subgroup_rejects_bad_orders():
    with pytest.raises(ParameterError):
        FieldCtx(7).subgroup_of_order(4)  # 4 does not divide 6
    with pytest.raises(ParameterError):
        FieldCtx(7).subgroup_of_order(1)


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_subgroup_structure(q):
    ctx = FieldCtx(q)
    for t in range(2, q):
        if (q - 1) % t != 0:
            continue
        h = ctx.subgroup_of_order(t)
        assert len(h) == t
        for a in h:
            assert inverse(ctx, a) in h
            for b in h:
                assert a * b % q in h
        # a nontrivial multiplicative subgroup sums to zero
        assert sum(h) % q == 0
