"""Integer-arithmetic substrate: primes, Mobius values, distinct-prime counts.

Everything here is deterministic and exact.  Tables are plain numpy arrays,
immutable by convention after construction, and safe for concurrent reads.

Memory budget at the supported maximum X = 10**8: the Mobius/omega sieve
holds mu and d(n) (1 byte each) and a transient 8-byte product accumulator,
plus one 2**20-entry block of the leftover-factor test (~10 MB): 10 bytes
per integer, about 1.0 GB peak at 10**8 (105 MiB traced at 10**7).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

MAX_LIMIT = 10**8
_LEFTOVER_BLOCK = 1 << 20


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int64. Simple Eratosthenes."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if is_prime[p]:
            is_prime[p * p:: p] = False
    return np.flatnonzero(is_prime).astype(np.int64)


def _sieve_mu_omega(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """One pass producing both mu(n) and the distinct-prime count d(n).

    Uses the classical product-accumulator trick: after sieving all primes
    p <= sqrt(limit), any n whose accumulated product falls short of n has
    exactly one extra prime factor > sqrt(n), necessarily to the first power.
    """
    if not 1 <= limit <= MAX_LIMIT:
        raise ConfigurationError(
            f"sieve limit {limit} outside supported range [1, {MAX_LIMIT}]")
    mu = np.ones(limit + 1, dtype=np.int8)
    omega = np.zeros(limit + 1, dtype=np.int8)
    prod = np.ones(limit + 1, dtype=np.int64)
    for p in primes_up_to(int(limit**0.5)):
        p = int(p)
        mu[p:: p] *= -1
        omega[p:: p] += 1
        prod[p:: p] *= p
        sq = p * p
        if sq <= limit:
            mu[sq:: sq] = 0
            # lift the full power of p so the leftover-factor test stays exact
            pk = sq
            while pk <= limit:
                prod[pk:: pk] *= p
                pk *= p
    # block by block, so no full-length index array sits next to prod
    for lo in range(0, limit + 1, _LEFTOVER_BLOCK):
        hi = min(lo + _LEFTOVER_BLOCK, limit + 1)
        leftover = prod[lo:hi] != np.arange(lo, hi, dtype=np.int64)
        mu_block, omega_block = mu[lo:hi], omega[lo:hi]
        mu_block[leftover] = -mu_block[leftover]
        omega_block[leftover] += 1
    mu[0] = 0
    omega[0] = 0
    mu[1] = 1
    omega[1] = 0
    return mu, omega


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(n) for 0 <= n <= limit as int8 (mu[0] = 0 by convention)."""
    return _sieve_mu_omega(limit)[0]


def distinct_prime_counts(limit: int) -> np.ndarray:
    """d(n) = number of distinct primes dividing n, for 0 <= n <= limit."""
    return _sieve_mu_omega(limit)[1]
