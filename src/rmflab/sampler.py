"""Seeded realization of one sample point of the coupled sign family.

One uniform dyadic value ``omega_p`` is attached to each prime ``p`` by a
counter-based hash of (master seed, rank of p), so any single coordinate is
addressable in O(1) without storing the whole assignment.  All thresholds
``beta`` share the same coordinates: the sign at p is -1 exactly when
``omega_p < beta``, which couples the entire family monotonically.

The sign convention is right-open: -1 on [0, beta), +1 on [beta, 1).  On the
2**64-point dyadic grid this makes P(-1) = beta exact, and it differs from
the closed-interval convention only at grid endpoints (a measure-zero set).

This module hashes and signs; it makes no lane words.  The checkpoint
sums (``growth._checkpoint_counts``) read each seed's plus flags one hash
block at a time, and make their uint8 lane words from those of the primes
<= sqrt(X).  The ``abel`` sweep reads one seed's series (``_sign_series``):
one parity walk over its minus-signed primes, zeroed off the squarefree
integers.

Both take their signs from ``_plus_blocks``.  SplitMix64's last step,
z ^= z >> 31, leaves bits 63..33 as they are, so a beta with at most 31
bits after the point (1/2, 3/4, 7/8, ...) is compared before it: eight
numpy passes per rank (the add, two shift-xor pairs, two multiplies and
the compare) instead of ten.  Any other beta takes the full hash.  The
Euler products and the identity read full numerators of each block of
the prime stream, hashed from its first rank (``numerator_blocks``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .dyadic import HALF, DyadicFraction
from .errors import ConfigurationError, DomainError, PreconditionError
from .sieve import _COUNT_LIMIT, _walk, primes_up_to

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Ranks hashed per block: 256 KiB of uint64 per scratch array, within L2;
# below 2**16, so np.add.reduceat counts a block's flags exactly in uint16
_HASH_BLOCK = 2**15


def _mixed_blocks(seed: int, count: int, start: int = 0):
    """SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) of ranks
    start .. start + count - 1 for ``seed`` up to its last xorshift,
    _HASH_BLOCK ranks at a time: yields (lo, z, tmp) with z the ranks
    start + lo, start + lo + 1, ... before z ^= z >> 31, and tmp a scratch
    array of the same length, both reused by the next block.

    Each rank has its own counter position, so streams never overlap within
    one seed: the input is seed + golden * (rank + 1), mod 2**64, computed
    in place with the one scratch array for the shifts.
    """
    offsets = np.arange(min(_HASH_BLOCK, count), dtype=np.uint64)
    offsets *= _GOLDEN  # golden * j for the j-th rank of a block
    scratch = np.empty_like(offsets)
    shifted = np.empty_like(offsets)
    for lo in range(0, count, _HASH_BLOCK):
        z = scratch[: min(_HASH_BLOCK, count - lo)]
        tmp = shifted[: len(z)]
        first = (seed + int(_GOLDEN) * (start + lo + 1)) % 2**64
        np.add(offsets[: len(z)], np.uint64(first), out=z)
        np.right_shift(z, np.uint64(30), out=tmp)
        z ^= tmp
        z *= _MIX1
        np.right_shift(z, np.uint64(27), out=tmp)
        z ^= tmp
        z *= _MIX2
        yield lo, z, tmp


# The bits z ^= z >> 31 can change, 32..0: against a threshold with none of
# them set, z compares the same before that step as after it
_LAST_XORSHIFT_BITS = 2**33 - 1


def _plus_blocks(beta: DyadicFraction, seed: int, count: int):
    """The plus flags omega >= beta of ranks 0 .. count - 1 for ``seed``,
    beta < 1, _HASH_BLOCK ranks at a time: yields (lo, plus) with plus a
    bool array that the next block reuses.

    A beta with at most 31 bits after the point (1/2, 3/4, 7/8, ...) is
    compared before the hash's last xorshift, which cannot change the
    outcome (see _LAST_XORSHIFT_BITS); any other beta takes the full hash.
    """
    threshold = np.uint64(beta.numerator)
    finish = beta.numerator & _LAST_XORSHIFT_BITS != 0
    flags = np.empty(min(_HASH_BLOCK, count), dtype=bool)
    for lo, z, tmp in _mixed_blocks(seed, count):
        if finish:
            np.right_shift(z, np.uint64(31), out=tmp)
            z ^= tmp
        plus = flags[: len(z)]
        np.greater_equal(z, threshold, out=plus)
        yield lo, plus


def is_integer(value) -> bool:
    """True for a Python or numpy integer, not a bool or a float."""
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def is_seed(seed) -> bool:
    """True for an integer in [0, 2**64)."""
    return is_integer(seed) and 0 <= operator.index(seed) < 2**64


@dataclass(frozen=True)
class OmegaAssignment:
    """Deterministic map prime -> uniform dyadic coordinate, fixed by a
    seed, with no table: the prime of rank r gets the numerator of rank r.
    """

    master_seed: int
    prime_limit: int

    def __post_init__(self):
        # the hash reads the seed as a uint64: a float start loses precision
        # (1.5, 2.0 and 1000.5 would hash like 2) and wrapping would alias
        # seeds
        if not is_seed(self.master_seed):
            raise DomainError(f"master_seed={self.master_seed!r} is not an "
                              "integer in [0, 2**64)")
        object.__setattr__(self, "master_seed",
                           operator.index(self.master_seed))
        if self.prime_limit > _COUNT_LIMIT:
            raise ConfigurationError(
                f"prime limit {self.prime_limit} above supported maximum "
                f"{_COUNT_LIMIT}")

    def numerators(self, count: int) -> np.ndarray:
        """uint64 numerators of omega_p for the first ``count`` primes."""
        return np.concatenate([np.empty(0, dtype=np.uint64)] + [
            z.copy() for _, z in self.numerator_blocks(count)])

    def numerator_blocks(self, count: int, start: int = 0):
        """The numerators of the primes of ranks start .. start + count - 1,
        _HASH_BLOCK at a time: yields (lo, z) with z the uint64 numerators
        of ranks start + lo, start + lo + 1, ... (``_mixed_blocks`` and its
        last xorshift), held in one scratch array that the next block
        reuses, so no array of ``count`` numerators is made."""
        for lo, z, tmp in _mixed_blocks(self.master_seed, count, start):
            np.right_shift(z, np.uint64(31), out=tmp)
            z ^= tmp
            yield lo, z


def signs_from_numerators(beta: DyadicFraction,
                          nums: np.ndarray) -> np.ndarray:
    """-1 where omega_p < beta else +1, on already hashed numerators; int8."""
    if beta.is_one:
        return np.full(len(nums), -1, dtype=np.int8)
    signs = (nums >= np.uint64(beta.numerator)).view(np.int8)  # 0 or 1
    signs <<= 1
    signs -= 1
    return signs


def _sign_series(beta: DyadicFraction, seed: int, limit: int) -> np.ndarray:
    """f_beta(n) for 0 <= n <= limit as int8, for ``seed``: (-1)**(the
    number of its minus-signed primes) on squarefree n, and 0 elsewhere.

    One parity walk (``sieve._walk``) over the primes that ``_plus_blocks``
    flags minus (every prime at beta = 1, with nothing hashed), mapped in
    place to +-1; then 0 on the multiples of each p*p, p <= isqrt(limit),
    and at n = 0.
    """
    if not HALF <= beta:
        raise PreconditionError(f"beta={float(beta)} below 1/2")
    primes = primes_up_to(limit)
    if not beta.is_one:
        minus = np.empty(len(primes), dtype=bool)
        for lo, plus in _plus_blocks(beta, seed, len(primes)):
            np.logical_not(plus, out=minus[lo: lo + len(plus)])
        primes = primes[minus]
    series = _walk(primes, limit)
    series *= np.int8(-2)  # parity 0 or 1 -> 1 or -1
    series += np.int8(1)
    for p in primes_up_to(math.isqrt(limit)).tolist():
        series[p * p:: p * p] = 0
    series[0] = 0
    return series
