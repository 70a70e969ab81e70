"""Exact arithmetic in the prime field Z/pZ.

Residues are plain ints in [0, p); a ``Prime`` is a modulus checked prime
at construction. Binomials and inverses come from the standard library
(``math.comb``, three-argument ``pow``), so nothing is built or cached per
prime and a large modulus costs no more than a small one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import CompositeModulus, ModulusTooSmall, ZeroInverse

__all__ = [
    "Prime",
    "as_prime",
    "is_prime",
    "inverse_mod",
    "binomial_mod",
]


def is_prime(n: int) -> bool:
    """Deterministic trial division; all target moduli are desk-scale."""
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True, order=True)
class Prime:
    """A modulus checked prime at construction."""

    value: int

    def __post_init__(self):
        if not is_prime(self.value):
            raise CompositeModulus(f"modulus {self.value} is not prime")

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Prime({self.value})"


def as_prime(p: Prime | int) -> Prime:
    """Coerce an int to a checked Prime; pass Primes through."""
    return p if isinstance(p, Prime) else Prime(p)


def inverse_mod(a: int, p: int) -> int:
    """Multiplicative inverse of ``a`` mod ``p`` by ``pow(a, -1, p)``.

    Raises ``ZeroInverse`` for ``a`` divisible by ``p`` and ``ValueError``
    when ``a`` and ``p`` share another factor (as at a composite ``p``).
    """
    a %= p
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    return pow(a, -1, p)


def binomial_mod(n: int, r: int, p: Prime | int) -> int:
    """C(n, r) mod p by ``math.comb``; requires n < p, returns 0 for r > n."""
    prime = as_prime(p)
    if n < 0 or r < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if n >= prime.value:
        raise ModulusTooSmall(f"C({n}, {r}) mod {prime.value} needs n < p")
    return comb(n, r) % prime.value
