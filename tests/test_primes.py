import itertools

import pytest

from pitkit.primes import is_prime, iter_primes, primes_in


def test_is_prime_small():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(3)
    assert not is_prime(4)
    assert is_prime(997)
    assert is_prime(1000003)
    # Carmichael number, classic Fermat-test trap
    assert not is_prime(561)


def test_is_prime_large():
    assert is_prime((1 << 61) - 1)
    assert not is_prime((1 << 61) + 1)
    assert is_prime(2305843009213693967)


def test_primes_in_interval():
    # the interval [1, 26] holds 9 primes, comfortably above the ceil(5)
    # density floor for r = 5
    assert primes_in(26) == [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert primes_in(1) == []
    assert primes_in(2) == [2]


def test_density_floor():
    # [1, r^2 + 1] contains at least r primes, checked directly
    for r in range(1, 16):
        assert len(primes_in(r * r + 1)) >= r


def test_iter_primes_matches_sieve():
    first = list(itertools.islice(iter_primes(), 25))
    assert first == primes_in(97)


def test_is_prime_agrees_with_sieve():
    sieve = set(primes_in(500))
    for n in range(501):
        assert is_prime(n) == (n in sieve)


def test_is_prime_cache_is_bounded_and_keeps_no_refusal():
    # iter_primes tests every odd k, so an unbounded cache would grow without end
    assert is_prime.cache_info().maxsize is not None
    # enumeration does not go through the cache, so it cannot evict a modulus
    is_prime.cache_clear()
    assert is_prime((1 << 61) - 1)
    list(itertools.islice(iter_primes(), 1000))
    assert is_prime.cache_info().currsize == 1
    for _ in range(2):
        assert is_prime((1 << 61) - 1)
        assert not is_prime((1 << 61) + 1)
    # 2^89 - 1 is past the deterministic bound: refused on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            is_prime((1 << 89) - 1)
