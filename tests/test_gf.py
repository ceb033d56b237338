import numpy as np
import pytest

from eil.errors import ParameterError
from eil.evasive import power_table
from eil.gf import check_field, inverses, is_prime, subgroup_of_order
from oracles import check_residue, inverse

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def test_examples():
    assert inverse(7, 3) == 5
    assert inverse(7, 6) == 6
    assert check_residue(7, 0) == 0 and check_residue(7, 6) == 6


def test_construction_rejects_non_primes():
    for bad in (0, 1, 4, 6, 9, 12, 2**20 + 7):
        with pytest.raises(ParameterError):
            check_field(bad)
    with pytest.raises(ParameterError):
        check_field((1 << 20) + 1)  # above the q bound even if prime-looking


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
    for a in range(q):
        assert check_residue(q, a) == a
        if a != 0:
            assert a * inverse(q, a) % q == 1


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_pow_matches_repeated_multiplication(q):
    # zero_set and restriction_tensor read every a^e mod q from this table
    table = power_table(q, 20)
    assert table.shape == (q, 21) and table[0, 0] == 1  # 0^0 = 1
    col = np.arange(q, dtype=np.int64)
    acc = np.ones(q, dtype=np.int64)
    for e in range(21):
        assert (table[:, e] == acc).all()
        acc = acc * col % q


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_inverse_table_matches_fermat(q):
    # plane_counts and build_furedi read every a^-1 mod q from this table
    table = inverses(q)
    assert table.shape == (q,) and table.dtype == np.int64
    assert table[0] == 0
    assert [int(v) for v in table[1:]] == [inverse(q, a) for a in range(1, q)]


def test_inv_identities():
    for q in (5, 7, 11, 13):
        assert inverse(q, 1) == 1
        assert inverse(q, q - 1) == q - 1
    with pytest.raises(ParameterError):
        inverse(7, 0)


def test_canonical_residues_enforced():
    q = 7
    for bad in (7, -1, True, 2.0):
        with pytest.raises(ParameterError):
            check_residue(q, bad)
    with pytest.raises(ParameterError):
        inverse(q, 7)


def test_subgroup_frozen_values():
    # enumerated by hand: solutions of x^t = 1
    assert subgroup_of_order(7, 3) == {1, 2, 4}
    assert subgroup_of_order(5, 2) == {1, 4}
    assert subgroup_of_order(13, 4) == {1, 5, 8, 12}


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_subgroup_structure(q):
    for t in range(2, q):
        if (q - 1) % t != 0:
            continue
        h = subgroup_of_order(q, t)
        assert len(h) == t
        for a in h:
            assert inverse(q, a) in h
            for b in h:
                assert a * b % q in h
        # a nontrivial multiplicative subgroup sums to zero
        assert sum(h) % q == 0
