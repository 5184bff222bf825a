"""Integer-arithmetic substrate: primes, Mobius values, distinct-prime counts.

Everything here is deterministic and exact.  Tables are plain numpy arrays,
immutable by convention after construction, and safe for concurrent reads.

Memory budget at the supported maximum X = 10**8: mu and d(n) at 1 byte per
integer, the odd-only prime sieve at 1 byte per odd integer, and 8 bytes per
prime, about 0.30 GB (286 MiB ``VmHWM`` measured for one pass at 10**8,
25 MiB traced at 10**7).  The last limit's prime table stays cached and
read-only for the process: 8 bytes per prime, about 46 MB at 10**8.  A
campaign's lane pass adds one byte per integer of flip words, walked over
the primes <= sqrt(X) only: the sieve and an 8-seed lane pass at 10**8
peak at 288 MiB ``VmHWM`` (384 MiB weighted, with d(n) kept), so the
sieve sets the plain peak.  The walk itself works in cache-sized pieces
(see ``_walk``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigurationError

MAX_LIMIT = 10**8


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int64: Eratosthenes over the odd
    numbers.

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
        # slot i stands for the odd number 2i + 1; slot 0 (for 1) holds 2
        odd_prime = np.ones((limit + 1) // 2, dtype=bool)
        for p in range(3, math.isqrt(limit) + 1, 2):
            if odd_prime[p // 2]:
                odd_prime[p * p // 2:: p] = False
        primes = np.flatnonzero(odd_prime).astype(np.int64, copy=False)
        primes *= 2
        primes += 1
        primes[0] = 2
    primes.flags.writeable = False
    return primes


_WHEEL_MAX = 13  # the wheel's period is at most 2*3*5*7*11*13 = 30030
_WALK_BLOCK = 2**20  # 1 MiB of int8 or uint8 words, within a 2 MiB L2


def _walk(primes: np.ndarray, values: np.ndarray, limit: int,
          op: np.ufunc) -> np.ndarray:
    """t[n] for 0 <= n <= limit, the ``op``-reduction of values[i] over the
    ascending ``primes[i]`` that divide n, starting from 0 (t[0] = 0).

    ``op`` is an associative, commutative ufunc with identity 0 in the
    dtype of ``values`` (np.add, np.bitwise_xor).  The primes <= _WHEEL_MAX
    are written once into a pattern of period their product, which is tiled
    over t; each other prime p <= isqrt(limit) is one strided slice per
    block of _WALK_BLOCK integers, so a block stays in cache while every
    such prime passes over it.  A larger prime q divides only m*q with
    m <= limit // q <= isqrt(limit), so all of them go at once, as one index
    array m * q per cofactor m (for m = 1 the slice of the primes itself,
    no copy).
    """
    t = np.zeros(limit + 1, dtype=values.dtype)
    wheel = int(np.searchsorted(primes, _WHEEL_MAX, side="right"))
    split = max(wheel, int(np.searchsorted(primes, math.isqrt(limit),
                                           side="right")))
    if wheel:
        small = primes[:wheel].tolist()
        pattern = t[: min(math.prod(small), limit + 1)]
        for p, v in zip(small, values[:wheel].tolist()):
            op(pattern[::p], v, out=pattern[::p])
        # tile by doubling: t[n] = pattern[n % period]
        filled = len(pattern)
        while filled <= limit:
            step = min(filled, limit + 1 - filled)
            t[filled: filled + step] = t[:step]
            filled += step
    mid = primes[wheel:split]
    steps, mid_values = mid.tolist(), values[wheel:split].tolist()
    for lo in range(0, limit + 1, _WALK_BLOCK):
        block = t[lo: lo + _WALK_BLOCK]
        for p, at, v in zip(steps, (-lo % mid).tolist(), mid_values):
            op(block[at::p], v, out=block[at::p])
    large = primes[split:]
    if len(large):
        cofactors = np.arange(1, limit // int(large[0]) + 1)
        cuts = np.searchsorted(large, limit // cofactors, side="right")
        for m, cut in zip(cofactors.tolist(), cuts.tolist()):
            at = large[:cut] if m == 1 else m * large[:cut]
            t[at] = op(t[at], values[split: split + cut])
    t[0] = 0
    return t


def _sieve_mu_omega(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """One pass producing both mu(n) and the distinct-prime count d(n).

    d(n) counts one at every multiple of every prime; mu(n) is (-1)**d(n),
    zeroed at the multiples of p*p.
    """
    if not 1 <= limit <= MAX_LIMIT:
        raise ConfigurationError(
            f"sieve limit {limit} outside supported range [1, {MAX_LIMIT}]")
    primes = primes_up_to(limit)
    omega = _walk(primes, np.broadcast_to(np.int8(1), primes.shape), limit,
                  np.add)
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
