"""Integer-arithmetic substrate: primes, smallest prime factors, Mobius values.

Everything here is deterministic and exact.  Tables are plain numpy arrays,
immutable by convention after construction, and safe for concurrent reads.

Memory budget at the supported maximum X = 10**8: the spf table is 4 bytes
per integer (uint32, ~400 MB).  The Mobius/omega sieve holds mu and d(n)
(1 byte each) and a transient 8-byte product accumulator, plus one
2**20-entry block of the leftover-factor test (~10 MB): 10 bytes per
integer, about 1.0 GB peak at 10**8 (105 MiB traced at 10**7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RangeError

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


@dataclass(frozen=True)
class SpfTable:
    """Smallest-prime-factor table for 2..limit (index 0 and 1 unused)."""

    limit: int
    spf: np.ndarray  # uint32, length limit+1; spf[n] = smallest prime factor

    def is_prime(self, n: int) -> bool:
        if not 2 <= n <= self.limit:
            raise RangeError(f"n={n} outside [2, {self.limit}]")
        return int(self.spf[n]) == n

    def primes(self) -> np.ndarray:
        idx = np.arange(self.limit + 1, dtype=np.uint32)
        hits = np.flatnonzero(self.spf == idx)
        return hits[hits >= 2].astype(np.int64)


@dataclass(frozen=True)
class FactorSummary:
    """Distinct-prime decomposition facts for one integer."""

    n: int
    distinct_primes: tuple[int, ...]
    is_squarefree: bool
    d: int  # number of distinct prime divisors
    mobius: int  # in {-1, 0, +1}


def build_spf(limit: int) -> SpfTable:
    """Sieve the smallest prime factor of every integer in 2..limit."""
    if not 2 <= limit <= MAX_LIMIT:
        raise ConfigurationError(
            f"spf limit {limit} outside supported range [2, {MAX_LIMIT}]")
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == 0:
            sl = spf[p:: p]
            sl[sl == 0] = p
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return SpfTable(limit=limit, spf=spf)


def factor_summary(n: int, table: SpfTable) -> FactorSummary:
    """Factor n by repeated division by its smallest prime factor."""
    if n == 1:
        return FactorSummary(1, (), True, 0, 1)
    if not 2 <= n <= table.limit:
        raise RangeError(f"n={n} outside [2, {table.limit}]")
    primes = []
    squarefree = True
    m = n
    while m > 1:
        p = int(table.spf[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e > 1:
            squarefree = False
        primes.append(p)
    d = len(primes)
    mobius = 0 if not squarefree else (-1 if d % 2 else 1)
    return FactorSummary(n, tuple(primes), squarefree, d, mobius)


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
