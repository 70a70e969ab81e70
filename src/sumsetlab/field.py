"""Exact arithmetic in the prime field Z/pZ.

Residues are plain ints in [0, p); a ``Prime`` is a modulus checked prime
at construction. Factorial tables are cached per prime so binomial
coefficients cost O(1) after first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, s, t) with s*a + t*b == g
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def inverse_mod(a: int, p: int) -> int:
    """Multiplicative inverse of ``a`` mod ``p`` by extended Euclid."""
    a %= p
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    _, s, _ = _xgcd(a, p)
    return s % p


@functools.lru_cache(maxsize=None)
def _factorial_table(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # n! and 1/n! mod p for 0 <= n <= p-1; every closed form we evaluate stays below p
    fact = [1] * p
    for n in range(1, p):
        fact[n] = fact[n - 1] * n % p
    inv = [1] * p
    inv[p - 1] = inverse_mod(fact[p - 1], p)
    for n in range(p - 1, 0, -1):
        inv[n - 1] = inv[n] * n % p
    return tuple(fact), tuple(inv)


def binomial_mod(n: int, r: int, p: Prime | int) -> int:
    """C(n, r) mod p via factorial tables; requires n < p, returns 0 for r > n."""
    prime = as_prime(p)
    if n < 0 or r < 0:
        raise ValueError("binomial arguments must be nonnegative")
    if n >= prime.value:
        raise ModulusTooSmall(f"C({n}, {r}) mod {prime.value} needs n < p")
    if r > n:
        return 0
    fact, inv = _factorial_table(prime.value)
    return fact[n] * inv[r] * inv[n - r] % prime.value
