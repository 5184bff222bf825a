"""Integer-arithmetic substrate: primes, prime counts, and the parity walk
over prime multiples.

Everything here is deterministic and exact.  Tables are plain numpy arrays,
and none is cached.

Memory budget.  The primes come from a segmented odd-only sieve of 1 MiB
blocks (``_odd_blocks``).  The Euler products read them as a stream
(``_prime_blocks``), one block and its first rank at a time, so they keep
no table and reach P = _COUNT_LIMIT = 10**11: an ``h-scan`` point peaks at
38 MiB ``VmHWM`` at 10**8 and 39 MiB at 10**9.  A table of primes
(``primes_up_to``, 8 bytes per prime, not cached) is made only up to
sqrt(X), and up to X <= MAX_LIMIT = 10**8 for the ``abel`` sweep alone
(95 MiB ``VmHWM`` cold at 10**8).  The checkpoint sums need pi(y) only at
the quotients y = x // m, which Legendre's recurrence gives in about
X**(3/4) steps with no sieve above sqrt(X) (``_prime_counts``: 1.4 MiB
traced at 10**7, 8.6 MiB at 10**9, 27 MiB at 10**10 and 86 MiB at
10**11); the rest of their memory is the checkpoint tree's
(``growth._tree``).  The parity walk (``_walk``), 1 byte per integer,
serves ``abel`` alone: a one-point run peaks at 195 MiB ``VmHWM`` at 10**8
and beta = 3/4 (2-core x86-64, numpy 2.4), and one seed's series traces
17 MiB at 10**7.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, RangeError

MAX_LIMIT = 10**8  # the prime table, abel and identity
_COUNT_LIMIT = 10**11  # the prime stream and counts, sums and products
# d(n) <= MAX_KIND for n <= _COUNT_LIMIT: the first 11 primes multiply to
# 2*3*5*...*31 = 200,560,490,130 > 10**11
MAX_KIND = 10


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a read-only int64 table joined
    from the blocks of ``_prime_blocks``: 8 bytes per prime, and 4 more
    while its int32 blocks are joined."""
    if limit > MAX_LIMIT:
        raise ConfigurationError(
            f"prime limit {limit} above supported maximum {MAX_LIMIT}")
    primes = np.concatenate(
        [np.empty(0, dtype=np.int32)] +  # limit < 2**31
        [block.astype(np.int32) for _, block in _prime_blocks(limit)],
        dtype=np.int64)
    primes.flags.writeable = False
    return primes


def _prime_blocks(limit: int):
    """The primes <= limit, one block of ``_odd_blocks`` at a time: yields
    (rank, primes), the block's primes as float64 (exact below 2**53), which
    the caller may overwrite (say with log p), and rank the index of the
    first among all primes.  Above _COUNT_LIMIT, ``ConfigurationError``
    before any sieving."""
    if limit > _COUNT_LIMIT:
        raise ConfigurationError(
            f"prime limit {limit} above supported maximum {_COUNT_LIMIT}")
    rank = 0
    for lo, block in _odd_blocks(limit):
        primes = np.flatnonzero(block).astype(np.float64)
        primes *= 2
        primes += 2 * lo + 1
        if lo == 0 and len(primes):
            primes[0] = 2  # slot 0, for 1
        yield rank, primes
        rank += len(primes)


_SIEVE_BLOCK = 2**20  # odd slots per block: 1 MiB of bool, within a 2 MiB L2


def _odd_blocks(limit: int):
    """The segmented odd-only sieve of Eratosthenes (Bays and Hudson, BIT 17,
    1977) up to limit: yields (lo, block) with block[j] True when the odd
    number 2 (lo + j) + 1 <= limit is prime, _SIEVE_BLOCK slots at a time,
    held in one array that the next block reuses.  Slot 0, for 1, is True
    and stands for 2; nothing is yielded for limit < 2.

    The odd primes p <= isqrt(limit), sieved the same way, cross out each
    block from the slot of p*p on, and each p's next multiple is carried
    from block to block.
    """
    slots = (limit + 1) // 2 if limit >= 2 else 0
    base = primes_up_to(math.isqrt(limit))[1:] if limit >= 9 else \
        np.empty(0, dtype=np.int64)
    steps = base.tolist()
    squares = base * base // 2  # the slot of p*p
    nxt = squares.copy()  # the slot of each p's next odd multiple
    buffer = np.empty(min(_SIEVE_BLOCK, slots), dtype=bool)
    for lo in range(0, slots, _SIEVE_BLOCK):
        hi = min(lo + _SIEVE_BLOCK, slots)
        block = buffer[: hi - lo]
        block[...] = True
        # the p with p*p below hi; a start past the block slices nothing
        cut = int(np.searchsorted(squares, hi))
        for p, at in zip(steps[:cut], (nxt[:cut] - lo).tolist()):
            block[at::p] = False
        # on to each p's first multiple at or past hi
        gap = np.maximum(hi - nxt[:cut], 0)
        nxt[:cut] += -(-gap // base[:cut]) * base[:cut]
        yield lo, block


_PAIR_BLOCK = 2**14  # (v, p) pairs per gather above cbrt(limit): 128 KiB


def _prime_counts(limit: int, grid: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, counts, slots): the quotient set V = {x // m : x in grid or
    x = limit, m >= 1} ascending, pi(v) as int64 at each v, and the index
    in V of each x // m, with no table above isqrt(limit).

    Legendre's recurrence, the combinatorial core of Lagarias, Miller and
    Odlyzko (Math. Comp. 44, 1985): S(v) = v - 1 counts 2..v, and each
    prime p in order strikes the integers up to v with least prime factor p,
    S(v) -= S(v // p) - S(p - 1) at every v >= p*p, S(p - 1) being p's rank.
    Once p*p > v, S(v) = pi(v).  V is closed under v -> v // p.  Each
    v <= isqrt(limit) is its own index; a larger v = x // m, with
    m <= x // (isqrt(limit) + 1), has slot m of x's segment, which points at
    its place among the distinct larger values, so v // p = x // (m p) is
    found with no search.  The primes p <= cbrt(limit) update V one prime
    at a time, from the top down so each reads S before its own update.  A
    larger p reads only final values (v // p < limit / p < p*p), so all its
    corrections are one gather and sum, _PAIR_BLOCK pairs at a time.
    The slots come back as they are: with lengths = x // (isqrt(limit) + 1)
    over the grid and limit, x = xs[i] and offsets the exclusive cumulative
    sum of the lengths, slots[offsets[i] + m - 1] is the index of x // m
    for every m <= lengths[i], and a smaller x // m is its own index.
    ``grid`` must ascend (repeats allowed) within [0, limit], else
    ``RangeError``.
    """
    if limit > _COUNT_LIMIT:
        raise ConfigurationError(
            f"prime limit {limit} above supported maximum {_COUNT_LIMIT}")
    grid = np.asarray(grid, dtype=np.int64)
    if np.any(np.diff(grid, prepend=0) < 0) or np.any(grid > limit):
        raise RangeError(f"grid must ascend within [0, {limit}]")
    root = math.isqrt(limit)
    primes = primes_up_to(root)
    xs = np.append(grid, limit)
    # the larger quotients: slot offsets[i] + m - 1 holds xs[i] // m
    lengths = xs // (root + 1)
    offsets = np.cumsum(lengths) - lengths
    segment = np.repeat(np.arange(len(xs)), lengths)
    m = np.arange(len(segment)) - offsets[segment] + 1
    large = xs[segment] // m
    order = np.argsort(large)
    large = large[order]
    first = np.ones(len(large), dtype=bool)
    np.not_equal(large[1:], large[:-1], out=first[1:])
    n = root + 1  # the index of the least larger value
    slots = np.empty(len(large), dtype=np.intp)
    slots[order] = np.cumsum(first) - 1 + n
    order = order[first]
    large = large[first]
    del first
    # each distinct larger value's x // m, by one of its (x, m): the slot of
    # (x, m p) is bases + m p
    ms = m[order]
    bases = offsets[segment[order]] - 1
    del segment, m, order
    values = np.concatenate([np.arange(n), large])
    counts = values - 1
    counts[0] = 0
    small = int(np.searchsorted(primes ** 3, limit, side="right"))
    squares = primes * primes
    # from values[a] = p*p on, v // p <= root up to values[b] = (root + 1) p
    lows = np.searchsorted(values, squares[:small]).tolist()
    tops = np.searchsorted(values, n * primes[:small]).tolist()
    for k, (p, a, b) in enumerate(zip(primes[:small].tolist(), lows, tops)):
        slot = ms[b - n:] * p
        slot += bases[b - n:]
        counts[b:] -= counts[slots[slot]] - k
        counts[a:b] -= counts[values[a:b] // p] - k
    # the primes above cbrt(limit): each v pairs with those up to isqrt(v)
    reads = np.searchsorted(squares, large, side="right") - small
    lo = int(np.searchsorted(reads, 1))
    reads, large, ms, bases = reads[lo:], large[lo:], ms[lo:], bases[lo:]
    ends = np.cumsum(reads)
    at = 0
    while at < len(reads):
        # whole runs of pairs: at most _PAIR_BLOCK, unless one run is longer
        done = int(ends[at - 1]) if at else 0
        stop = max(int(np.searchsorted(ends, done + _PAIR_BLOCK,
                                       side="right")), at + 1)
        run = reads[at:stop]
        starts = np.cumsum(run) - run
        pair = np.repeat(np.arange(at, stop), run)
        rank = np.arange(len(pair)) - np.repeat(starts, run) + small
        p = primes[rank]
        quotient = large[pair] // p
        slot = ms[pair] * p  # past its segment where quotient <= root
        slot += bases[pair]
        terms = counts[np.where(quotient > root,
                                slots.take(slot, mode="clip"), quotient)]
        terms -= rank
        counts[n + lo + at: n + lo + stop] -= np.add.reduceat(terms, starts)
        at = stop
    return values, counts, slots


_WHEEL_MAX = 13  # the wheel's period is at most 2*3*5*7*11*13 = 30030
_WALK_BLOCK = 2**20  # 1 MiB of int8 parities, within a 2 MiB L2
_ONE = np.int8(1)  # a Python int would be converted again at every xor


def _walker(primes: np.ndarray):
    """The parity walk over the multiples of ``primes``, one block at a
    time: a function fill(block, lo) that sets the int8 block[j] to the
    parity of the number of the ascending ``primes`` that divide lo + j (at
    lo + j = 0 every prime divides).

    The primes <= _WHEEL_MAX are written once into a pattern of period their
    product, which each block copies from its offset and tiles by doubling;
    each other prime flips one strided slice per block.  A block of at most
    1 MiB stays in cache while every prime passes over it.
    """
    wheel = int(np.searchsorted(primes, _WHEEL_MAX, side="right"))
    small = primes[:wheel].tolist()
    pattern = np.zeros(math.prod(small), dtype=np.int8)
    for p in small:
        pattern[::p] ^= _ONE
    period = len(pattern)
    mid = primes[wheel:]
    steps = mid.tolist()

    def fill(block: np.ndarray, lo: int) -> None:
        # block[j] = pattern[(lo + j) % period]: one period, then doubling
        head, at = block[:period], lo % period
        cut = min(period - at, len(head))
        head[:cut] = pattern[at: at + cut]
        head[cut:] = pattern[: len(head) - cut]
        filled = len(head)
        while filled < len(block):
            step = min(filled, len(block) - filled)
            block[filled: filled + step] = block[:step]
            filled += step
        for p, start in zip(steps, (-lo % mid).tolist()):
            block[start::p] ^= _ONE
    return fill


def _walk(primes: np.ndarray, limit: int) -> np.ndarray:
    """t[n] for 0 <= n <= limit as int8, the parity of the number of the
    ascending ``primes`` that divide n (t[0] = 0).

    The primes <= isqrt(limit) go through ``_walker``, _WALK_BLOCK integers
    at a time.  A larger prime q divides only m*q with
    m <= limit // q <= isqrt(limit), so all of them go at once, as one index
    array m * q per cofactor m (for m = 1 the slice of the primes itself,
    no copy).
    """
    t = np.empty(limit + 1, dtype=np.int8)
    split = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    fill = _walker(primes[:split])
    for lo in range(0, limit + 1, _WALK_BLOCK):
        fill(t[lo: lo + _WALK_BLOCK], lo)
    large = primes[split:]
    if len(large):
        cofactors = np.arange(1, limit // int(large[0]) + 1)
        cuts = np.searchsorted(large, limit // cofactors, side="right")
        for m, cut in zip(cofactors.tolist(), cuts.tolist()):
            at = large[:cut] if m == 1 else m * large[:cut]
            t[at] ^= _ONE
    t[0] = 0
    return t
