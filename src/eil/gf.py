"""The prime field F_q on canonical residues.

The field is its modulus q, a plain int; elements are plain ints in [0, q),
and the bulk paths do their arithmetic with `% q` on numpy arrays.
check_field rejects a q that is not a prime no larger than Q_LIMIT; the
entry points call it once and everything after them trusts q.
"""

from __future__ import annotations

from .errors import ParameterError

# Desk-scale experiments aim at q up to 37-61; the cap keeps q^2 products far
# from any integer-width trouble in the numpy-backed bulk paths.
Q_LIMIT = 1 << 20


def is_prime(n: int) -> bool:
    """Trial-division primality check."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_field(q: int) -> None:
    """Reject a q that is not an int, exceeds 2^20 or is not prime."""
    if not isinstance(q, int):
        raise ParameterError(f"q must be an integer, got {q!r}")
    if q > Q_LIMIT:
        raise ParameterError(f"q must be <= 2^20, got {q}")
    if not is_prime(q):
        raise ParameterError(f"q must be prime, got {q}")


def subgroup_of_order(q: int, t: int) -> set[int]:
    """The multiplicative subgroup H = {x : x^t = 1} of order exactly t.

    Requires t >= 2 and t | q-1 (the multiplicative group is cyclic of
    order q-1, so those t give |H| = t exactly).
    """
    h = {x for x in range(1, q) if pow(x, t, q) == 1}
    assert len(h) == t
    return h
