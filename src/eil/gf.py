"""The prime field F_q on canonical residues.

The field is its modulus q, a plain int; elements are plain ints in [0, q),
and the bulk paths do their arithmetic with `% q` on numpy arrays, reading
a^-1 from the one table of inverses (inverses).
check_field rejects a q that is not a prime no larger than Q_LIMIT; the
entry points call it once and everything after them trusts q.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

# Desk-scale experiments run q up to 211. The cap is no safeguard: int64
# line rows overflow past q = 55108 (q^4 > 2^63), and memory runs out far
# below that (zero_set asks for 7.65 GiB at q = 1009); see ROADMAP item 6.
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


def inverses(q: int) -> np.ndarray:
    """(q,) int64 table of a^-1 mod q, with 0 at index 0 (0 has no inverse)."""
    return np.array([0] + [pow(a, q - 2, q) for a in range(1, q)], dtype=np.int64)
