from math import comb

import pytest

from sumsetlab import (
    CompositeModulus,
    ModulusTooSmall,
    Prime,
    ZeroInverse,
    binomial_mod,
    inverse_mod,
    is_prime,
)

from oracles import pascal_rows


def test_prime_rejects_composites():
    for n in (0, 1, 4, 9, 91, 100):
        with pytest.raises(CompositeModulus):
            Prime(n)
    assert Prime(2).value == 2
    assert Prime(9973).value == 9973


def test_is_prime_against_sieve():
    sieve = [True] * 200
    sieve[0] = sieve[1] = False
    for i in range(2, 200):
        if sieve[i]:
            for j in range(2 * i, 200, i):
                sieve[j] = False
    for n in range(200):
        assert is_prime(n) == sieve[n]


def test_inverse_examples():
    assert inverse_mod(3, 11) == 4  # 3*4 = 12 = 1
    assert inverse_mod(1, 11) == 1
    assert inverse_mod(10, 11) == 10  # (-1)^2 = 1
    assert inverse_mod(-8, 11) == 4  # arguments are reduced first
    assert inverse_mod(25, 11) == 4
    pv = 2**31 - 1
    for a in (2, 12345, pv - 1):
        assert a * inverse_mod(a, pv) % pv == 1
        assert inverse_mod(inverse_mod(a, pv), pv) == a


def test_inverse_of_zero_rejected():
    for a in (0, 7, -14):
        with pytest.raises(ZeroInverse):
            inverse_mod(a, 7)


def test_inverse_agrees_with_fermat_exponentiation():
    for pv in (3, 5, 7, 11, 13, 101):
        for a in range(1, pv):
            x = inverse_mod(a, pv)
            assert x == pow(a, pv - 2, pv)
            assert 0 <= x < pv and a * x % pv == 1


def test_inverse_rejects_a_shared_factor():
    # a composite modulus with gcd(a, n) > 1 has no inverse to return
    for a, n in ((2, 4), (6, 9)):
        with pytest.raises(ValueError):
            inverse_mod(a, n)


def test_binomial_examples():
    p = Prime(11)
    assert binomial_mod(8, 4, p) == 70 % 11  # = 4
    assert binomial_mod(8, 4, 11) == 4
    assert type(binomial_mod(8, 4, p)) is int
    for n in range(7):
        assert binomial_mod(n, 0, Prime(7)) == 1
    assert binomial_mod(3, 5, Prime(7)) == 0
    assert binomial_mod(34, 17, 2**31 - 1) == comb(34, 17) % (2**31 - 1)


def test_binomial_against_pascal_oracle():
    rows = pascal_rows(100)
    for pv in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
               59, 61, 67, 71, 73, 79, 83, 89, 97, 101):
        p = Prime(pv)
        for n in range(pv):
            for r in range(n + 1):
                assert binomial_mod(n, r, p) == rows[n][r] % pv


def test_binomial_rejects_large_n():
    with pytest.raises(ModulusTooSmall):
        binomial_mod(11, 2, Prime(11))
    with pytest.raises(ModulusTooSmall):
        binomial_mod(15, 3, Prime(13))
