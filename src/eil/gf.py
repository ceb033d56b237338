"""The prime field F_q on canonical residues.

Elements are plain ints in [0, q); the bulk paths do their arithmetic with
`% q` on numpy arrays. A FieldCtx carries the modulus, checked once to be
a prime no larger than Q_LIMIT.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class FieldCtx:
    """The prime field F_q."""

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int):
            raise ParameterError(f"q must be an integer, got {self.q!r}")
        if self.q > Q_LIMIT:
            raise ParameterError(f"q must be <= 2^20, got {self.q}")
        if not is_prime(self.q):
            raise ParameterError(f"q must be prime, got {self.q}")

    def subgroup_of_order(self, t: int) -> set[int]:
        """The multiplicative subgroup H = {x : x^t = 1} of order exactly t.

        Requires t >= 2 and t | q-1 (the multiplicative group is cyclic of
        order q-1, so those t give |H| = t exactly).
        """
        if t < 2:
            raise ParameterError(f"subgroup order must be >= 2, got {t}")
        if (self.q - 1) % t != 0:
            raise ParameterError(f"t = {t} does not divide q - 1 = {self.q - 1}")
        h = {x for x in range(1, self.q) if pow(x, t, self.q) == 1}
        assert len(h) == t
        return h
