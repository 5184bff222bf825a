"""Test-only oracles: a smallest-prime-factor table and trial factorization
check the sieve by an independent route; ``build_sign_series`` realizes one
seed's f_beta by its own walk over the plus-signed primes, the reference for
the package's lane words; ``TransformedOmega`` feeds the product-by-product
identity oracle; ``fsum_weighted_sums`` is the term by term reference for
the weighted checkpoint sums, and ``per_seed_counts`` the per-seed reference
for the coupled lane kernel's exact counts.  None of it is part of the
package.
"""

import math
from dataclasses import dataclass

import numpy as np

from rmflab import (DyadicFraction, OmegaAssignment, distinct_prime_counts,
                    mobius_sieve, prime_signs)
from rmflab.errors import ConfigurationError, CoverageError, RangeError
from rmflab.iet import IetSpec, apply_T_power_numerators
from rmflab.sieve import MAX_LIMIT, _multiples


# p*p - 1, p*p and p*p + 1 move isqrt(limit), and with it whether a prime
# is sieved as a stride or among the cofactor batches of the larger primes
ISQRT_EDGE_LIMITS = [p * p + e for p in (2, 3, 5, 7, 11, 97, 313)
                     for e in (-1, 0, 1)] + [10**5]


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


@dataclass(frozen=True)
class SignSeries:
    """f_beta(n) for n <= limit."""

    beta: DyadicFraction
    limit: int
    values: np.ndarray  # int8, index 0..limit, values[0] = 0, values[1] = 1


def build_sign_series(beta: DyadicFraction, assignment: OmegaAssignment,
                      limit: int, mobius: np.ndarray) -> SignSeries:
    """Extend the prime signs multiplicatively over the squarefree integers.

    On squarefree n, f(n) = mu(n) * (-1)^#{p | n : sign(p) = +1}; elsewhere 0.
    Starting from the Mobius table and flipping the multiples of each
    plus-signed prime realizes exactly that, since non-squarefree entries
    stay zero under sign flips.
    """
    if assignment.prime_limit < limit:
        raise CoverageError(
            f"assignment covers primes <= {assignment.prime_limit} < {limit}")
    if len(mobius) < limit + 1:
        raise CoverageError(f"mobius table shorter than limit {limit}")
    primes = assignment.primes
    primes = primes[primes <= limit]
    signs = prime_signs(beta, assignment, primes)
    values = mobius[: limit + 1].astype(np.int8, copy=True)
    for sel, _ in _multiples(primes[signs == 1], limit):
        values[sel] *= np.int8(-1)
    return SignSeries(beta=beta, limit=limit, values=values)


@dataclass(frozen=True)
class TransformedOmega:
    """The view (T^k omega)_p of an omega assignment, with its
    ``prime_limit``, ``primes`` and ``numerators``, so samplers and Euler
    products accept either."""

    base: object  # OmegaAssignment or another TransformedOmega
    spec: IetSpec
    power: int

    @property
    def primes(self) -> np.ndarray:
        return self.base.primes

    @property
    def prime_limit(self) -> int:
        return self.base.prime_limit

    def numerators(self, primes: np.ndarray | None = None) -> np.ndarray:
        return apply_T_power_numerators(
            self.spec, self.base.numerators(primes), self.power)


def fsum_weighted_sums(values: np.ndarray, omega_counts: np.ndarray,
                       w: float, grid: np.ndarray) -> np.ndarray:
    """Sums of values[n] * w**d(n) at the checkpoints, one exact fsum over
    each segment's float terms, chained with fsum; ``grid`` ascends."""
    lut = w ** np.arange(int(omega_counts.max()) + 1, dtype=np.float64)
    weighted = values * lut[omega_counts]
    sums = np.empty(len(grid), dtype=np.float64)
    total = 0.0
    prev = 0
    for i, x in enumerate(grid):
        total = math.fsum([total, math.fsum(weighted[prev + 1: x + 1])])
        sums[i] = total
        prev = int(x)
    return sums


def per_seed_counts(beta, limit: int, weighted: bool, seed: int,
                    grid: np.ndarray) -> np.ndarray:
    """C[i, k], one seed's exact sum of f_beta(n) over grid[i-1] < n <=
    grid[i] with d(n) = k (every k 0 unless weighted), the per-seed way: its
    own sign series, then one bincount of f(n) + 1 + 3 d(n) per segment."""
    series = build_sign_series(
        beta, OmegaAssignment(master_seed=seed, prime_limit=limit), limit,
        mobius_sieve(limit))
    code = series.values + np.int8(1)
    kinds = 1
    if weighted:
        omega = distinct_prime_counts(limit)
        code += 3 * omega
        kinds = int(omega.max()) + 1
    counts = np.zeros((len(grid), kinds), dtype=np.int64)
    prev = 0
    for i, x in enumerate(grid.tolist()):
        tally = np.bincount(code[prev + 1: x + 1], minlength=3 * kinds)
        counts[i] = tally[2::3] - tally[0::3]
        prev = x
    return counts
