"""Integer-arithmetic substrate: primes, Mobius values, distinct-prime counts.

Everything here is deterministic and exact.  Tables are plain numpy arrays,
immutable by convention after construction, and safe for concurrent reads.

Memory budget at the supported maximum X = 10**8: mu, d(n) and the prime
sieve at 1 byte per integer, plus 8 bytes per prime, about 0.35 GB (286 MiB
``VmHWM`` measured for one pass at 10**8, 25 MiB traced at 10**7).  The
last limit's prime table stays cached and read-only for the process: 8 bytes
per prime, about 46 MB at 10**8.  A campaign's lane pass adds one byte per
integer of flip words: the sieve and an 8-seed lane pass at 10**8 peak at
368 MiB ``VmHWM``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

from .errors import ConfigurationError

MAX_LIMIT = 10**8


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int64. Simple Eratosthenes.

    The last limit's table stays cached for the process (8 bytes per prime,
    about 46 MB at 10**8); every caller at that limit shares it, so it is
    read-only.
    """
    if limit > MAX_LIMIT:
        raise ConfigurationError(
            f"prime limit {limit} above supported maximum {MAX_LIMIT}")
    return _prime_table(limit)


@functools.lru_cache(maxsize=1)
def _prime_table(limit: int) -> np.ndarray:
    if limit < 2:
        primes = np.empty(0, dtype=np.int64)
    else:
        is_prime = np.ones(limit + 1, dtype=bool)
        is_prime[:2] = False
        for p in range(2, int(limit**0.5) + 1):
            if is_prime[p]:
                is_prime[p * p:: p] = False
        primes = np.flatnonzero(is_prime).astype(np.int64)
    primes.flags.writeable = False
    return primes


def _multiples(primes: np.ndarray, limit: int) -> Iterator:
    """Pairs (index set, positions): the index sets together select every
    multiple n <= limit of each of the ascending ``primes`` exactly once, and
    ``primes[positions]`` are the primes whose multiples one set selects.

    One slice per prime p <= isqrt(limit), at its position.  A larger prime
    q divides only m*q with m <= limit // q <= isqrt(limit), so all of them
    go at once, as one index array m * q per cofactor m (for m = 1 the
    slice of the primes itself, no copy).
    """
    split = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    for at, p in enumerate(primes[:split].tolist()):
        yield slice(p, limit + 1, p), at
    large = primes[split:]
    if len(large):
        cofactors = np.arange(1, limit // int(large[0]) + 1)
        cuts = np.searchsorted(large, limit // cofactors, side="right")
        for m, cut in zip(cofactors.tolist(), cuts.tolist()):
            yield (large[:cut] if m == 1 else m * large[:cut],
                   slice(split, split + cut))


def _sieve_mu_omega(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """One pass producing both mu(n) and the distinct-prime count d(n).

    d(n) counts one at every multiple of every prime; mu(n) is (-1)**d(n),
    zeroed at the multiples of p*p.
    """
    if not 1 <= limit <= MAX_LIMIT:
        raise ConfigurationError(
            f"sieve limit {limit} outside supported range [1, {MAX_LIMIT}]")
    primes = primes_up_to(limit)
    omega = np.zeros(limit + 1, dtype=np.int8)
    for sel, _ in _multiples(primes, limit):
        omega[sel] += 1
    mu = omega & np.int8(1)
    mu *= np.int8(-2)
    mu += np.int8(1)
    for p in primes[primes <= math.isqrt(limit)].tolist():
        mu[p * p:: p * p] = 0
    mu[0] = 0
    return mu, omega


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(n) for 0 <= n <= limit as int8 (mu[0] = 0 by convention)."""
    return _sieve_mu_omega(limit)[0]


def distinct_prime_counts(limit: int) -> np.ndarray:
    """d(n) = number of distinct primes dividing n, for 0 <= n <= limit."""
    return _sieve_mu_omega(limit)[1]
