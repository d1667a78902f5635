"""Prime enumeration and deterministic primality testing."""

import functools

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin with the witness set above is deterministic below this bound
# (Sorenson & Webster).  Larger moduli are out of desk scale here.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


# every FieldSpec("prime", p) tests its modulus, and one CLI call builds the
# same field up to three times.  iter_primes tests every odd k through
# _miller_rabin, so this bounded cache holds only the moduli asked for.  A
# refused modulus raises, and lru_cache keeps no exception, so it is refused
# every time.
@functools.lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic primality test for n below ~3.3e24."""
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    if n >= _MR_DETERMINISTIC_BOUND:
        raise ValueError("n too large for the deterministic witness set")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in(n: int) -> list:
    """All primes in [1, n], ascending (sieve of Eratosthenes)."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    i = 2
    while i * i <= n:
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
        i += 1
    return [i for i in range(2, n + 1) if flags[i]]


def iter_primes():
    """Yield 2, 3, 5, ... without end."""
    yield 2
    k = 3
    while True:
        if _miller_rabin(k):
            yield k
        k += 2
