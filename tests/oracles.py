"""Test-only oracles: a smallest-prime-factor table and trial factorization
check the sieve by an independent route; ``_multiples`` is the unblocked
walk over the prime multiples, the reference for ``sieve._walk``, and
``mobius_sieve`` and ``distinct_prime_counts`` build mu(n) and d(n) by that
walk; ``prime_pi`` counts pi(y) in the blocks of the segmented sieve, the
reference for the quotient recurrence ``sieve._prime_counts``;
``splitmix64`` is the whole-array hash, the reference for the blocked
``OmegaAssignment.numerators``, and ``prime_signs`` signs the whole
prime table from it; ``build_sign_series`` realizes one seed's f_beta by
flipping the Mobius table on the multiples of the plus-signed primes, the
reference for ``sampler._sign_series``; ``euler_F_table``, ``zeta_table``, ``weighted_euler_G``,
``H_table`` and ``exp_form_table`` evaluate the Euler products over the
whole prime table with one fsum per part, the references for the
products that stream the primes; ``TransformedOmega`` feeds
``identity_residual_oracle``, the residual product by product, and
``plus_views_whole`` is the whole-array reference for the identity's
blocked view build; ``exact_partials_fsum`` is the fsum over
every value, the reference for the extracted exact partials;
``abel_residual_unblocked`` is the full-length reference
for the blocked Abel check, and ``exp_form_tail_concatenated`` the
all-orders-at-once reference for the exp-form tail; ``fsum_weighted_sums``
is the term by term reference for the weighted checkpoint sums, and
``per_seed_counts`` the per-seed and ``segment_counts`` the
integer-by-integer reference for the recursion's exact counts, which it
reads for up to 8 seeds at once from the int8 d(n) on squarefree n of
``kinds_table`` and the uint8 flip words of ``lane_flips``, whose masks
come from whole-array numerators, not from the lane pass.  None of it is
part of the package.
"""

import cmath
import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from rmflab import (DyadicFraction, OmegaAssignment, beta_for_level,
                    primes_up_to, weight_factor)
from rmflab.dirichlet import _TAIL_CUTOFF, EulerEvaluation, _point
from rmflab.dyadic import HALF
from rmflab.errors import (ConfigurationError, CoverageError,
                           PreconditionError, RangeError)
from rmflab.growth import LANES
from rmflab.iet import IetSpec, apply_T_power_numerators
from rmflab.sampler import signs_from_numerators
from rmflab.sieve import _COUNT_LIMIT, MAX_KIND, MAX_LIMIT, _odd_blocks


# p*p - 1, p*p and p*p + 1 move isqrt(limit), and with it whether a prime
# is sieved as a stride or among the cofactor batches of the larger primes
ISQRT_EDGE_LIMITS = [p * p + e for p in (2, 3, 5, 7, 11, 97, 313)
                     for e in (-1, 0, 1)] + [10**5]


PI_BLOCK = 2**18  # slots per np.add.reduceat: a 1 MiB int32 cast, in L2


def prime_pi(limit: int, ys: np.ndarray) -> np.ndarray:
    """pi(y) as int64 for each y of ``ys``, ascending within [0, limit],
    counted in the blocks of ``_odd_blocks(limit)``: no prime table is made.

    For y >= 2, pi(y) is the number of True slots below (y + 1) // 2 (slot 0
    stands for 2).  Each PI_BLOCK slots of a block sum the runs between the
    distinct slot counts that end in them with one np.add.reduceat, whose
    int32 cast of those slots then stays in cache.
    """
    if limit > _COUNT_LIMIT:
        raise ConfigurationError(
            f"prime limit {limit} above supported maximum {_COUNT_LIMIT}")
    ys = np.asarray(ys, dtype=np.int64)
    ends = np.where(ys < 2, 0, (ys + 1) // 2)
    first = np.diff(ends, prepend=-1) != 0  # np.unique would import numpy.ma
    distinct = ends[first]
    counts = np.zeros(len(distinct), dtype=np.int64)
    total = 0  # the primes below the part
    at = int(np.searchsorted(distinct, 0, side="right"))  # pi(y < 2) = 0
    parts = ((lo + start, block[start: start + PI_BLOCK])
             for lo, block in _odd_blocks(limit)
             for start in range(0, len(block), PI_BLOCK))
    for lo, part in parts:
        stop = int(np.searchsorted(distinct, lo + len(part), side="right"))
        if at < stop:
            cuts = distinct[at:stop] - lo
            runs = np.add.reduceat(part[: cuts[-1]],
                                   np.concatenate([[0], cuts[:-1]]),
                                   dtype=np.int32)
            counts[at:stop] = total + np.cumsum(runs, dtype=np.int64)
            total = int(counts[stop - 1])
            part = part[cuts[-1]:]
        total += int(np.count_nonzero(part))
        at = stop
    return counts[np.cumsum(first) - 1]


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 array."""
    z = x + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def seeded_numerators(seed: int, count: int) -> np.ndarray:
    """The numerators of the first ``count`` primes' omega for ``seed``, in
    one whole-array hash: splitmix64 of seed + golden * rank."""
    ranks = np.arange(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return splitmix64(np.uint64(seed) + _GOLDEN * ranks)


def straddled_threshold(seed: int, count: int, low: int) -> DyadicFraction:
    """A threshold beta >= low / 2**64 equal to one of the first ``count``
    omega numerators of ``seed``, whose value before the hash's last
    xorshift z ^= z >> 31 lies below it: a compare that skipped that step
    would sign its prime -1, not +1."""
    for z in seeded_numerators(seed, count).tolist():
        before = z ^ (z >> 31) ^ (z >> 62)  # the xorshift undone
        if z >= low and before < z:
            return DyadicFraction(z)
    raise AssertionError(f"no straddled threshold in {count} ranks")


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


def multiples_walk(primes: np.ndarray, values: np.ndarray, limit: int,
                   op) -> np.ndarray:
    """The reference for ``sieve._walk``: t[n] = op over values[i] of the
    primes[i] dividing n, one ``_multiples`` index set at a time."""
    t = np.zeros(limit + 1, dtype=values.dtype)
    for sel, at in _multiples(primes, limit):
        t[sel] = op(t[sel], values[at])
    return t


# The tables below are cached for the tests of one process, so read-only.

@functools.lru_cache(maxsize=8)
def distinct_prime_counts(limit: int) -> np.ndarray:
    """d(n) for 0 <= n <= limit as int8 (d(0) = 0): one count per prime at
    each of its multiples, by the unblocked walk."""
    primes = primes_up_to(limit)
    counts = multiples_walk(primes, np.ones(len(primes), dtype=np.int8),
                            limit, np.add)
    counts.flags.writeable = False
    return counts


@functools.lru_cache(maxsize=8)
def mobius_sieve(limit: int) -> np.ndarray:
    """mu(n) for 0 <= n <= limit as int8 (mu[0] = 0): (-1)**d(n), zeroed at
    the multiples of each p*p."""
    mu = 1 - 2 * (distinct_prime_counts(limit) & 1)
    primes = primes_up_to(limit)
    for p in primes[primes <= math.isqrt(limit)].tolist():
        mu[p * p:: p * p] = 0
    mu[0] = 0
    mu.flags.writeable = False
    return mu


@functools.lru_cache(maxsize=None)
def kinds_table(limit: int) -> np.ndarray:
    """d(n) on squarefree n <= limit and -1 elsewhere (at n = 0 too), as
    int8: the ``kinds`` input of ``segment_counts``."""
    kinds = np.where(mobius_sieve(limit) != 0, distinct_prime_counts(limit),
                     np.int8(-1))
    kinds.flags.writeable = False
    return kinds


def lane_flips(beta: DyadicFraction, seeds, limit: int) -> np.ndarray:
    """uint8 words for n <= limit whose bit k is the parity of the number of
    seed ``seeds[k]``'s plus-signed primes that divide n, for at most LANES
    seeds: the ``flips`` input of ``segment_counts``, by the unblocked walk
    over uint8 masks built from each seed's whole-array numerators, apart
    from the package's lane code."""
    primes = primes_up_to(limit)
    masks = np.zeros(len(primes), dtype=np.uint8)
    for k, seed in enumerate(seeds):
        nums = OmegaAssignment(master_seed=seed,
                               prime_limit=limit).numerators(len(primes))
        masks |= (signs_from_numerators(beta, nums) == 1).view(np.uint8) \
            << np.uint8(k)
    keep = masks != 0
    return multiples_walk(primes[keep], masks[keep], limit, np.bitwise_xor)


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
    primes = primes_up_to(limit)
    signs = prime_signs(beta, assignment, len(primes))
    values = mobius[: limit + 1].astype(np.int8, copy=True)
    for sel, _ in _multiples(primes[signs == 1], limit):
        values[sel] *= np.int8(-1)
    return SignSeries(beta=beta, limit=limit, values=values)


def prime_signs(beta: DyadicFraction, assignment,
                count: int | None = None) -> np.ndarray:
    """f_beta(p) as int8 at the first ``count`` primes (default: every prime
    <= the assignment's prime_limit), from its whole-array numerators; at
    beta = 1 every sign is -1 and nothing is hashed."""
    if not HALF <= beta:
        raise PreconditionError(f"beta={float(beta)} below 1/2")
    if count is None:
        count = len(primes_up_to(assignment.prime_limit))
    if beta.is_one:
        return np.full(count, -1, dtype=np.int8)
    return signs_from_numerators(beta, assignment.numerators(count))


@dataclass(frozen=True)
class TransformedOmega:
    """The view (T^k omega)_p of an omega assignment, with its
    ``prime_limit``, ``numerators`` and ``numerator_blocks``, so samplers
    and Euler products accept either."""

    base: object  # OmegaAssignment or another TransformedOmega
    spec: IetSpec
    power: int

    @property
    def prime_limit(self) -> int:
        return self.base.prime_limit

    def numerators(self, count: int) -> np.ndarray:
        return apply_T_power_numerators(
            self.spec, self.base.numerators(count), self.power)

    def numerator_blocks(self, count: int, start: int = 0):
        for lo, nums in self.base.numerator_blocks(count, start):
            yield lo, apply_T_power_numerators(self.spec, nums, self.power)


def plus_views_whole(level: int, assignment, P: int) -> list[np.ndarray]:
    """The plus-signed prime indices of each view T**k omega, k = 1..2**n,
    each from one ``apply_T_power_numerators`` call on all the numerators
    of the primes <= P."""
    spec = IetSpec(level)
    beta = beta_for_level(level)
    nums = assignment.numerators(len(primes_up_to(P)))
    return [np.flatnonzero(signs_from_numerators(
        beta, apply_T_power_numerators(spec, nums, k)) == 1)
        for k in range(1, spec.intervals + 1)]


# The Euler products from the whole table of the primes <= P: every term
# vector at once, summed by one fsum per part.  The references for the
# products that stream the primes (``dirichlet``).

def fsum_terms(terms: np.ndarray) -> complex:
    return complex(math.fsum(terms.real.tolist()),
                   math.fsum(terms.imag.tolist()))


def _table_terms(beta, assignment, P: int, s: complex):
    """(p**-s, f_beta(p) as float64) over the whole table of primes <= P."""
    if assignment.prime_limit < P:
        raise CoverageError(
            f"assignment covers primes <= {assignment.prime_limit} < P={P}")
    primes = primes_up_to(P)
    powers = np.exp(-s * np.log(primes.astype(np.float64)))
    return powers, prime_signs(beta, assignment,
                               len(primes)).astype(np.float64)


def euler_F_table(beta, assignment, P: int, s: complex) -> complex:
    """log F_beta(s) over p <= P."""
    s = _point(s, 0)
    powers, signs = _table_terms(beta, assignment, P, s)
    return fsum_terms(np.log(1.0 + signs * powers))


def zeta_table(P: int, s: complex) -> complex:
    """log zeta_P(s)."""
    powers = np.exp(-complex(s) * np.log(primes_up_to(P).astype(np.float64)))
    return -fsum_terms(np.log(1.0 + np.full(len(powers), -1.0) * powers))


def weighted_euler_G(beta, assignment, P: int,
                     s: complex) -> EulerEvaluation:
    """Truncated product of (1 + g(p) * p**-s) with g(p) = f(p)/(2*beta-1):
    the G of ``dirichlet.H_eval``, which no experiment evaluates alone."""
    s = _point(s, 0.5)
    w = weight_factor(beta)
    powers, signs = _table_terms(beta, assignment, P, s)
    log_value = fsum_terms(np.log(1.0 + w * signs * powers))
    return EulerEvaluation(log_value=log_value, value=cmath.exp(log_value))


def H_table(beta, assignment, P: int, s: complex) -> complex:
    """log H = log G + log zeta_P, G's and zeta's logs added once."""
    return weighted_euler_G(beta, assignment, P, s).log_value + \
        zeta_table(P, s)


def exp_form_table(beta, assignment, P: int,
                   s: complex) -> tuple[complex, complex]:
    """The prime sum and the m >= 2 tail of ``dirichlet.exp_form_F``."""
    s = _point(s, 0.5)
    powers, signs = _table_terms(beta, assignment, P, s)
    return (fsum_terms(signs * powers),
            exp_form_tail_concatenated(beta, assignment, P, s))


def identity_residual_oracle(level: int, assignment, P: int,
                             s: complex) -> float:
    """The residual product by product: 2**n + 2 products over the table."""
    s = complex(s)
    spec = IetSpec(level)
    beta = beta_for_level(level)
    left = -(spec.intervals - 1) * zeta_table(P, s)
    parts = [-euler_F_table(HALF, assignment, P, s)]
    for k in range(1, spec.intervals + 1):
        view = TransformedOmega(assignment, spec, k)
        parts.append(euler_F_table(beta, view, P, s))
    right_total = complex(math.fsum(z.real for z in parts),
                          math.fsum(z.imag for z in parts))
    return abs(left - right_total)


def exact_partials_fsum(values: np.ndarray) -> list[float]:
    """Non-overlapping floats whose exact sum is that of ``values``: fsum
    over every value, then over the values less the partials so far, until
    nothing is left.  Loops forever on a NaN."""
    partials: list[float] = []
    while True:
        r = math.fsum(itertools.chain(memoryview(values),
                                      (-x for x in partials)))
        if r == 0.0:
            return partials
        partials.append(r)


def abel_residual_unblocked(values: np.ndarray, X: int, s: complex) -> float:
    """The Abel summation residual of ``growth.abel_consistency`` from
    full-length arrays: about 88 bytes per integer, the reference for its
    blocked evaluation."""
    s = complex(s)
    n = np.arange(1, X + 1, dtype=np.float64)
    npow = np.exp(-s * np.log(n))
    f = values[1: X + 1].astype(np.float64)
    lhs = f * npow
    lhs_sum = complex(math.fsum(lhs.real), math.fsum(lhs.imag))
    S = np.cumsum(values[1: X + 1],
                  dtype=np.int64).astype(np.float64)  # S(1)..S(X)
    boundary = S[-1] * npow[-1]
    steps = S[:-1] * (npow[:-1] - np.exp(-s * np.log(n[1:])))
    rhs = boundary + complex(math.fsum(steps.real), math.fsum(steps.imag))
    return abs(lhs_sum - rhs)


def exp_form_tail_concatenated(beta, assignment, P: int,
                               s: complex) -> complex:
    """The m >= 2 Taylor tail of ``dirichlet.exp_form_F`` from every order's
    terms at once: one concatenated complex array (about 3 KB per prime at
    sigma = 0.55) and one fsum per part, the reference for its
    order-by-order sum."""
    s = complex(s)
    primes = primes_up_to(P)
    signs = prime_signs(beta, assignment, len(primes)).astype(np.float64)
    z = signs * np.exp(-s * np.log(primes.astype(np.float64)))
    tail_terms = []
    zm = z * z
    m = 2
    while np.max(np.abs(zm)) / m >= _TAIL_CUTOFF:
        sign = -1.0 if m % 2 == 0 else 1.0
        tail_terms.append(sign / m * zm)
        zm = zm * z
        m += 1
    if not tail_terms:
        return 0j
    flat = np.concatenate(tail_terms)
    return complex(math.fsum(flat.real), math.fsum(flat.imag))


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


def per_seed_counts(beta, limit: int, seed: int,
                    grid: np.ndarray) -> np.ndarray:
    """C[i, d], one seed's exact sum of f_beta(n) over grid[i-1] < n <=
    grid[i] with d(n) = d, for d <= MAX_KIND, the per-seed way: its own sign
    series, then one bincount of f(n) + 1 + 3 d(n) per segment."""
    series = build_sign_series(
        beta, OmegaAssignment(master_seed=seed, prime_limit=limit), limit,
        mobius_sieve(limit))
    code = series.values + np.int8(1)
    code += 3 * distinct_prime_counts(limit)
    kinds = MAX_KIND + 1
    counts = np.zeros((len(grid), kinds), dtype=np.int64)
    prev = 0
    for i, x in enumerate(grid.tolist()):
        tally = np.bincount(code[prev + 1: x + 1], minlength=3 * kinds)
        counts[i] = tally[2::3] - tally[0::3]
        prev = x
    return counts


# Integers per bincount of ``segment_counts``
SEGMENT_BLOCK = 2**16

# word pattern x lane -> +-1: lane k of pattern w reads (-1)**(bit k of w)
LANE_SIGNS = 1 - 2 * (np.arange(1 << LANES)[:, None] >> np.arange(LANES) & 1)


def segment_counts(kinds: np.ndarray, grid: np.ndarray, flips: np.ndarray,
                   lanes: int) -> np.ndarray:
    """C[lane, i, d], the exact sum of the lane's f(n) over
    grid[i-1] < n <= grid[i] with d(n) = d, for d <= MAX_KIND (grid[-1]
    read as 0), from the tables of ``kinds_table`` and ``lane_flips``: the
    reference, integer by integer, for the recursion's counts
    (``growth._checkpoint_counts``).

    Lane k's f(n) is (-1)**(d(n) + bit k of flips[n]) on squarefree n, and
    0 elsewhere.  Each block of at most SEGMENT_BLOCK integers in a segment
    is reduced by one bincount of the int16 code (kinds[n] + 1) << lanes |
    flips[n], built in place, so no full-length table is made: row 0 holds
    the n that are not squarefree, row d + 1 those with d(n) = d, signed by
    (-1)**d; a fixed sign table decodes the counts of every word pattern
    into every lane's.  ``grid`` must ascend (repeats allowed) within
    [0, len(kinds) - 1].
    """
    limit = len(kinds) - 1
    if np.any(np.diff(grid, prepend=0) < 0) or np.any(grid > limit):
        raise RangeError(f"grid must ascend within [0, {limit}]")
    # d(n) <= MAX_KIND = 10 keeps every code below 12 << 8, within int16
    rows, patterns = MAX_KIND + 2, 1 << lanes
    net = np.zeros((len(grid), rows * patterns), dtype=np.int64)
    block = np.empty(min(SEGMENT_BLOCK, limit), dtype=np.int16)
    prev = 0
    for i, x in enumerate(grid.tolist()):
        for lo in range(prev + 1, x + 1, SEGMENT_BLOCK):
            hi = min(lo + SEGMENT_BLOCK, x + 1)
            code = block[: hi - lo]
            np.add(kinds[lo:hi], 1, out=code)
            code <<= lanes
            code |= flips[lo:hi]
            net[i] += np.bincount(code, minlength=rows * patterns)
        prev = x
    net = net.reshape(len(grid), rows, patterns)[:, 1:]
    net[:, 1::2] *= -1  # mu(n) = (-1)**d(n)
    return (net @ LANE_SIGNS[:patterns, :lanes]).transpose(2, 0, 1)
