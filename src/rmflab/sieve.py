"""Integer-arithmetic substrate: primes, and one table of squarefree kinds.

Everything here is deterministic and exact.  Tables are plain numpy arrays,
read-only once built, and safe for concurrent reads.

Memory budget at the supported maximum X = 10**8: the kinds table at 1 byte
per integer, the odd-only prime sieve at 1 byte per odd integer, and 8 bytes
per prime, about 0.22 GB (213 MiB ``VmHWM`` measured for one pass at 10**8,
48 MiB at 10**7, 19 MiB traced at 10**7; 2-core x86-64, numpy 2.4).  The
last limit's prime table and kinds table stay cached and read-only for the
process: 8 bytes per prime, about 46 MB at 10**8, and 1 byte per integer.
A campaign's lane pass adds one byte per integer of flip words, walked over
the primes <= sqrt(X) only: the sieve and an 8-seed lane pass at 10**8
peak at 292 MiB ``VmHWM``, plain or weighted, so the lane pass sets the
peak.  The walk itself works in cache-sized pieces (see ``_walk``).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigurationError

MAX_LIMIT = 10**8
# d(n) <= MAX_KIND for n <= MAX_LIMIT: 2*3*5*...*23 = 223,092,870 > 10**8
MAX_KIND = 8


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


@functools.lru_cache(maxsize=1)
def squarefree_kinds(limit: int) -> np.ndarray:
    """k(n) for 0 <= n <= limit as int8: the distinct-prime count d(n) on
    squarefree n, and -1 elsewhere (at n = 0 too).  On squarefree n,
    mu(n) = (-1)**k(n).

    d(n) counts one at every multiple of every prime; the multiples of each
    p*p are then set to -1.  The last limit's table stays cached for the
    process, so every run at that limit sieves once and shares it: it is
    read-only.
    """
    if not 1 <= limit <= MAX_LIMIT:
        raise ConfigurationError(
            f"sieve limit {limit} outside supported range [1, {MAX_LIMIT}]")
    primes = primes_up_to(limit)
    kinds = _walk(primes, np.broadcast_to(np.int8(1), primes.shape), limit,
                  np.add)
    for p in primes[primes <= math.isqrt(limit)].tolist():
        kinds[p * p:: p * p] = -1
    kinds[0] = -1
    kinds.flags.writeable = False
    return kinds
