"""Complex evaluation of truncated Euler products and the coupled identities.

Every product over primes p <= P is computed in log space as a sum of
per-prime principal logarithms.  The primes come as a stream from the
segmented sieve (``sieve._prime_blocks``), a block at a time, each block's
omega hashed from its first rank, so no table of pi(P) primes is made and
the products reach P = _COUNT_LIMIT; ``H_eval`` takes G's and zeta's terms
from one pass.  That sum, ``exp_form_F``'s series and
``growth.abel_consistency``'s terms all go through ``_exact_sum``: the exact
sum of the real and of the imaginary parts, each rounded once, by
error-free extraction (Rump, Ogita and Oishi, 2008) and one fsum per part
(correctly rounded, Shewchuk 1997).  For sigma > 0 every factor
1 + c_p * p**-s with |c_p| <= 1 has modulus of the perturbation strictly
below 1 only for |c_p| < p**sigma, which holds for the sign factors; the
weighted factors additionally require the documented beta threshold.

With both sides truncated to the same prime set, the zeta identity that
links 1/zeta**(2**n - 1) to the family of sign products is exact prime by
prime, so its residual is pure floating-point noise.

The identity residual evaluates 2**n + 2 products whose factors are all
1 - p**-s or 1 + p**-s: ``IdentityEvaluator`` builds the T**k views once
per (level, seed, P) and each point walks them block by block (see
``identity_residual``).
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .dyadic import HALF, DyadicFraction
from .errors import (ConfigurationError, CoverageError, DomainError,
                     PreconditionError)
from .iet import IetSpec, apply_T_power_numerators
from .sampler import signs_from_numerators
from .sieve import MAX_LIMIT, _prime_blocks

#: Weighted products need beta above this (so |g(p)| < sqrt(2)).
WEIGHT_BETA_THRESHOLD = 0.5 + 0.5 / math.sqrt(2.0)

_TAIL_CUTOFF = 1e-18  # where exp_form_F stops the m-series


@dataclass(frozen=True)
class EulerEvaluation:
    """A truncated Euler product at one point, in log and linear form."""

    log_value: complex
    value: complex


def _point(s: complex, floor: float) -> complex:
    """s as a complex number; ``DomainError`` unless it is finite with
    Re(s) > floor."""
    s = complex(s)
    if not (cmath.isfinite(s) and s.real > floor):
        raise DomainError(f"s={s}: needs Re(s) > {floor} and finite")
    return s


def _powers(logs: np.ndarray, s: complex) -> np.ndarray:
    """p**-s for each prime from its float64 log p, complex128."""
    return np.exp(-s * logs)


def _evaluation(log_value: complex, s: complex, P: int) -> EulerEvaluation:
    """A product from its log; ``DomainError``, naming s and P, where its
    value overflows a float (a log above about 709)."""
    try:
        value = cmath.exp(log_value)
    except OverflowError:
        raise DomainError(f"the product at s={s}, P={P} overflows a float: "
                          f"its log is {log_value}") from None
    return EulerEvaluation(log_value=log_value, value=value)


def _covered(assignment, P: int) -> None:
    """``CoverageError`` unless the assignment covers the primes <= P."""
    if assignment.prime_limit < P:
        raise CoverageError(
            f"assignment covers primes <= {assignment.prime_limit} < P={P}")


def _sign_blocks(beta: DyadicFraction, assignment, P: int):
    """(log p, f_beta(p)) for the primes p <= P, streamed from the sieve
    (``sieve._prime_blocks``) a hash block at a time: log p as float64, in
    place of the block's primes, and the signs as int8, hashed from each
    block's first rank (none at beta = 1, where every sign is -1).  Before
    the first block: coverage of P, then beta >= 1/2, are checked."""
    _covered(assignment, P)
    if not HALF <= beta:
        raise PreconditionError(f"beta={float(beta)} below 1/2")
    for rank, primes in _prime_blocks(P):
        logs = np.log(primes, out=primes)
        if beta.is_one:
            yield logs, np.full(len(logs), -1, dtype=np.int8)
            continue
        for lo, nums in assignment.numerator_blocks(len(primes), rank):
            yield logs[lo:lo + len(nums)], signs_from_numerators(beta, nums)


def euler_F(beta: DyadicFraction, assignment, P: int,
            s: complex) -> EulerEvaluation:
    """Truncated product of (1 + f_beta(p) * p**-s) over p <= P."""
    s = _point(s, 0)
    return _evaluation(_exact_sum(
        np.log(1.0 + signs.astype(np.float64) * _powers(logs, s))
        for logs, signs in _sign_blocks(beta, assignment, P)), s, P)


def zeta_truncated(P: int, s: complex) -> EulerEvaluation:
    """Truncated zeta: product of (1 - p**-s)**-1 over p <= P."""
    s = _point(s, 0)
    return _evaluation(-_exact_sum(
        np.log(1.0 + -1.0 * _powers(np.log(primes, out=primes), s))
        for _, primes in _prime_blocks(P)), s, P)


#: Values per segment of an exact extraction, and the M of its splitting
#: constants sigma = 2**(M + e): 2**M >= segment + 2 keeps every sum of one
#: segment's extracted parts exact.
_EXTRACT_BLOCK = 2**14
_EXTRACT_BITS = (_EXTRACT_BLOCK + 1).bit_length()


def _extracted(rows: np.ndarray,
               starts: np.ndarray | None = None) -> np.ndarray:
    """A few floats per segment of each row whose exact sum is the exact
    sum of that segment.

    ``rows`` is float64 of shape (r, n), cut along n into segments that
    begin at ``starts``: ascending from 0, none empty and none longer than
    _EXTRACT_BLOCK (by default, blocks of _EXTRACT_BLOCK).  Entry [:, j, g]
    of the (k, r, len(starts)) result sums exactly to segment g of row j.
    ExtractVector (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008):
    with max |x| < 2**e over a row and sigma = 2**(M + e),
    q = (sigma + x) - sigma keeps x's bits above eps * sigma and x - q the
    rest, both exactly, and each segment's q sum without error in any order
    (``np.add.reduceat``).  Each round moves 53 - M - 1 bits of every value
    into one float per segment, until nothing is left.  Where sigma would
    overflow, every value left is passed on as it is, each in a round of
    its own segment.
    """
    if starts is None:
        starts = np.arange(0, rows.shape[1], _EXTRACT_BLOCK)
    rest = np.array(rows, dtype=np.float64, order="C")
    scratch = np.empty_like(rest)
    found = [np.zeros((0, len(rest), len(starts)))]
    while True:
        top = np.max(np.abs(rest, out=scratch), axis=1, initial=0.0)
        if not np.isfinite(top).all():  # NaN would never leave
            raise DomainError("exact sum of a non-finite value")
        if not top.any():
            break
        exponents = np.frexp(top)[1] + _EXTRACT_BITS
        if exponents.max() > 1023:
            lengths = np.diff(starts, append=rest.shape[1])
            segment = np.repeat(np.arange(len(starts)), lengths)
            passed = np.zeros((lengths.max(), len(rest), len(starts)))
            passed[np.arange(len(segment)) - starts[segment], :, segment] = \
                rest.T
            found.append(passed)
            break
        sigma = np.ldexp(1.0, exponents)[:, None]
        q = np.add(rest, sigma, out=scratch)
        q -= sigma
        rest -= q
        found.append(np.add.reduceat(q, starts, axis=1)[None])
    return np.concatenate(found)


def _floats(block: np.ndarray) -> np.ndarray:
    """(k, 2) floats whose columns sum exactly to the real and to the
    imaginary parts of the complex128 ``block``, extracted _EXTRACT_BLOCK
    values at a time (``_extracted``)."""
    parts = block.view(np.float64).reshape(-1, 2).T
    return np.concatenate(
        [np.empty((0, 2))] +
        [_extracted(parts[:, lo:lo + _EXTRACT_BLOCK])[:, :, 0]
         for lo in range(0, parts.shape[1], _EXTRACT_BLOCK)])


def _exact_sum(blocks: Iterable[np.ndarray],
               extracted: np.ndarray = np.empty((0, 2))) -> complex:
    """The sums of the real and of the imaginary parts of the values in
    ``blocks`` (complex128 arrays), each exact and then rounded once.

    ``_floats`` turns each block into a few floats per part with the same
    exact sum, and one fsum per part rounds the exact sum of them all: the
    float fsum over every value gives, however the values are split into
    blocks.  A stream of blocks is taken one at a time, never concatenated.
    ``extracted`` is a (k, 2) array of floats already extracted from real
    and imaginary parts, whose exact sums join these.  A NaN or infinity
    raises ``DomainError``.
    """
    # each block is freed once its floats are made, before the next
    re, im = np.concatenate([extracted, *map(_floats, blocks)]).T.tolist()
    return complex(math.fsum(re), math.fsum(im))


def _exact_sums(blocks: Iterable[tuple[int, np.ndarray]],
                count: int) -> list[complex]:
    """``count`` exact sums from one stream: ``blocks`` yields (j, block),
    and block joins sum j (``_exact_sum``)."""
    found = [[np.empty((0, 2))] for _ in range(count)]
    for j, block in blocks:
        found[j].append(_floats(block))
    return [_exact_sum([], np.concatenate(f)) for f in found]


#: The highest level ``IdentityEvaluator`` accepts.  A level-n residual
#: evaluates 2**n + 2 Euler products, so its cost doubles with each level.
MAX_IDENTITY_LEVEL = 16

#: Primes per block of the view build and of each point's stream: a
#: block's numerators >= 1/2 are mapped while they sit in L2, and a point's
#: terms for the block (about 3 * 2**12) stay there too.  No extraction
#: segment exceeds a block, and indices within a block fit 16 bits.  A hash
#: block (``sampler._HASH_BLOCK``) holds a whole number of view blocks.
_VIEW_BLOCK = 2**12

#: Numerators mapped per broadcast pass of the view build: each
#: ``apply_T_power_numerators`` call maps a block's numerators >= 1/2
#: against a column of about _VIEW_PASS / (their count) powers k.
_VIEW_PASS = 2**15

#: Blocks a point walks between folds of the floats it keeps: each fold
#: cuts them to a few per product (``_folded``).  An extraction round takes
#: 53 - _EXTRACT_BITS - 1 = 37 bits, so a block adds at most 2 * 57 floats
#: per product and a fold's segments stay within _EXTRACT_BLOCK.
_FOLD_BLOCKS = 64


def _plus_views(spec: IetSpec, block: np.ndarray) -> tuple[np.ndarray, ...]:
    """One view block's (union, plus, owners, starts), as
    ``IdentityEvaluator`` keeps them, from its uint64 numerators.

    T fixes [0, 1/2) and beta > 1/2, so only the numerators >= 1/2 (product
    0's plus-signed indices, and so the union) can be plus-signed in a view
    T**k omega.  Those are mapped for every k = 1..2**n, a column of powers
    at a time; the flat indices of the comparison with beta list each
    view's indices in product order, ascending within each product.
    """
    upper = np.flatnonzero(block >= np.uint64(HALF.numerator))
    nums = block[upper]
    beta = np.uint64(spec.beta.numerator)
    plus, products = [upper], [np.empty(0, dtype=np.intp)]
    per_pass = max(1, _VIEW_PASS // max(len(upper), 1))
    for k in range(1, spec.intervals + 1, per_pass):
        powers = np.arange(k, min(k + per_pass, spec.intervals + 1))
        # the sign is +1 where omega >= beta, as in signs_from_numerators;
        # no view outlives its comparison
        plus_signed = apply_T_power_numerators(spec, nums,
                                               powers[:, None]) >= beta
        rows, cols = np.divmod(np.flatnonzero(plus_signed), len(nums))
        plus.append(upper[cols])
        products.append(rows + k)
    counts = np.bincount(np.concatenate(products),
                         minlength=spec.intervals + 1)
    counts[0] = len(upper)
    owners = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[owners]
    return (upper.astype(np.uint16), np.concatenate(plus).astype(np.uint16),
            owners, starts)


def _folded(floats: list[np.ndarray],
            ids: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(r, 2) float arrays and their rows' ids, cut to a few floats per id
    of the same exact sums (``_extracted``): the floats sorted by id, and
    their ids.  Each id's rows must number at most _EXTRACT_BLOCK."""
    ids = np.concatenate(ids)
    counts = np.bincount(ids)
    keys = np.flatnonzero(counts)
    rows = np.concatenate(floats)[np.argsort(ids, kind="stable")]
    found = _extracted(rows.T, (np.cumsum(counts) - counts)[keys])
    return (found.transpose(2, 0, 1).reshape(-1, 2),
            np.repeat(keys, len(found)))


class IdentityEvaluator:
    """``identity_residual`` of one (level, omega, P) at any number of s.

    The constructor streams the primes <= P from the segmented sieve
    (``sieve._prime_blocks``), hashes each sieve block from its first rank
    a hash block at a time (``numerator_blocks``), and cuts each hash block
    into view blocks of at most _VIEW_BLOCK primes.  In each it compares
    the numerators with 1/2 (product 0, F_{1/2}) and applies T**k to the
    numerators in [1/2, 1) for k = 1..2**n (product k, the view T**k
    omega), a few broadcast passes per block; T fixing [0, 1/2) is checked
    by ``iet-test`` and ``tests/test_iet.py``.  Per
    block it keeps the primes' float64 log p, as ``_logs``, which every
    point reuses, and, as ``_blocks``, the products' plus-signed indices:
    - ``union``: the indices plus-signed in some product, ascending;
    - ``plus``: every product's plus-signed indices, in product order;
    - ``owners``: the products with a plus-signed index in the block;
    - ``starts``: where each owner's indices begin in ``plus``.
    ``residual`` walks the same blocks, so no array of length pi(P) is made
    per point, and none but the kept blocks by the constructor.  P is
    capped at MAX_LIMIT: the kept bytes grow with pi(P).
    """

    def __init__(self, level: int, assignment, P: int):
        if level > MAX_IDENTITY_LEVEL:
            raise DomainError(
                f"level {level}: the identity evaluates 2**{level} + 2 = "
                f"{2**level + 2:,} Euler products; levels above "
                f"{MAX_IDENTITY_LEVEL} are not evaluated")
        if P > MAX_LIMIT:
            raise ConfigurationError(
                f"P={P}: the identity keeps log p and plus-signed indices "
                f"for every prime; P above {MAX_LIMIT} is not evaluated")
        _covered(assignment, P)
        spec = IetSpec(level)
        self._intervals = spec.intervals
        # the stream ends, freeing the sieve's buffer, before any hashing,
        # and a view block is hashed at a time: the scratch stays small
        streamed = [(rank, np.log(primes, out=primes))
                    for rank, primes in _prime_blocks(P)]
        self._logs, self._blocks = [], []
        for rank, logs in streamed:
            for at in range(0, len(logs), _VIEW_BLOCK):
                view = logs[at:at + _VIEW_BLOCK]
                [(_, nums)] = assignment.numerator_blocks(len(view), rank + at)
                self._logs.append(view)
                self._blocks.append(_plus_views(spec, nums))

    def residual(self, s: complex, strict_domain: bool = True) -> float:
        """|L - R| at s; see ``identity_residual``."""
        s = complex(s)
        if strict_domain and s.real <= 1:
            raise PreconditionError(
                f"identity stated for Re(s) > 1, got Re(s)={s.real}")
        _point(s, 0)
        # per block: the minus terms' floats (id 0), and each owner's floats
        # (id owner + 1), folded every _FOLD_BLOCKS blocks
        floats, ids = [np.empty((0, 2))], [np.empty(0, dtype=np.intp)]
        for b, (logs, (union, plus, owners, starts)) in enumerate(zip(
                self._logs, self._blocks)):
            powers = _powers(logs, s)
            n, c = len(powers), len(plus)
            # [log(1 - p**-s) per prime | log(1 + p**-s) and log(1 - p**-s)
            # at each product's plus-signed primes], the element operations
            # of log(1 + c * p**-s) with c = -1.0 and c = +1.0
            terms = np.empty(n + 2 * c, dtype=np.complex128)
            log_minus = np.multiply(-1.0, powers, out=terms[:n])
            np.add(1.0, log_minus, out=log_minus)
            np.log(log_minus, out=log_minus)
            log_plus = np.multiply(1.0, powers[union])
            np.add(1.0, log_plus, out=log_plus)
            powers[union] = np.log(log_plus, out=log_plus)
            terms[n:n + c] = powers[plus]
            terms[n + c:] = log_minus[plus]
            del powers, log_plus
            found = _extracted(terms.view(np.float64).reshape(-1, 2).T,
                               np.concatenate(([0], n + starts,
                                               n + c + starts)))
            m = len(owners)
            floats.append(found[:, :, 0].copy())  # no view keeps found alive
            ids.append(np.zeros(len(found), dtype=np.intp))
            # a product's log is the minus terms' sum, plus its plus terms,
            # less the minus terms at its plus-signed primes
            mine = np.concatenate([found[:, :, 1:m + 1],
                                   -found[:, :, m + 1:]])
            floats.append(mine.transpose(2, 0, 1).reshape(-1, 2))
            ids.append(np.repeat(owners + 1, len(mine)))
            if (b + 1) % _FOLD_BLOCKS == 0:
                folded, folded_ids = _folded(floats, ids)
                floats, ids = [folded], [folded_ids]
        ids = np.concatenate(ids)
        floats = np.concatenate(floats)[np.argsort(ids, kind="stable")]
        ends = np.cumsum(np.bincount(ids, minlength=self._intervals + 2))
        zeta = floats[:ends[0]]
        log_zeta = -_exact_sum([], zeta)
        # a product with no plus-signed prime (most, at high levels) is
        # the minus terms' sum
        logs = [_exact_sum([], np.concatenate([zeta, floats[a:b]]))
                if b > a else -log_zeta
                for a, b in itertools.pairwise(ends.tolist())]
        left = -(self._intervals - 1) * log_zeta  # 2**n - 1
        right_total = _exact_sum([np.array([-logs[0], *logs[1:]])])
        return abs(left - right_total)


def identity_residual(level: int, assignment, P: int, s: complex,
                      strict_domain: bool = True) -> float:
    """|L - R| for the telescoping zeta identity at threshold level n.

    L = -(2**n - 1) * log zeta_P(s); R = -log F_{1/2}(s, omega)
    + sum_{k=1..2**n} log F_beta(s, T^k omega), with beta = 1 - 2**-(n+1).
    Both sides run over the same primes p <= P.

    The T**k views do not depend on s: ``IdentityEvaluator`` builds them
    once per (level, seed, P), and a caller with many points calls its
    ``residual``.  Every factor of the 2**n + 2 products is 1 - p**-s or
    1 + p**-s, so a point computes each log once per prime, block by block
    of _VIEW_BLOCK primes from their kept log p, and log(1 + p**-s) only
    where some product is plus-signed.  Each block's log(1 - p**-s) terms,
    and every product's log(1 + p**-s) and log(1 - p**-s) terms at its
    plus-signed primes, go through one segmented extraction into a few
    floats per segment of the same exact sum; every _FOLD_BLOCKS blocks the
    floats kept so far are extracted again into a few per product.  A
    product's log is ``_exact_sum`` over the minus terms' floats and its
    own, the second set subtracted: rounded once, the same float as the
    fsum over the product's full term vector, and L (from the minus terms'
    floats) is unchanged too.

    The sides stay independent: omega is hashed once, but every view's
    signs come from applying T**k to the numerators in [1/2, 1), block by
    block, and comparing them with beta, never from the interval index the
    identity is built on.  The numerators below 1/2 are not mapped: T fixes
    them (checked by ``iet-test`` and ``tests/test_iet.py``) and they are
    below beta.  A wrong exchange map therefore leaves a residual far above
    rounding noise.
    Levels above ``MAX_IDENTITY_LEVEL`` raise ``DomainError``, and P above
    ``sieve.MAX_LIMIT`` ``ConfigurationError``.
    """
    return IdentityEvaluator(level, assignment, P).residual(s, strict_domain)


def exp_form_F(beta: DyadicFraction, assignment, P: int,
               s: complex) -> tuple[complex, complex]:
    """Split log F into the prime linear sum and the m >= 2 Taylor tail.

    Returns (prime_sum, A_tail) with
    prime_sum = sum f(p) * p**-s and
    A_tail = sum_p sum_{m>=2} (-1)**(m+1) f(p)**m / (m * p**(m s)),
    the m-series stopped once its largest term drops below 1e-18.  The
    first block holds p = 2, whose term is the largest of every order, so
    it fixes where the series stops, and every later block runs to that
    same order.
    """
    s = _point(s, 0.5)  # the tail series needs Re(s) > 1/2

    def terms():
        last = None  # the first order left out, fixed by the first block
        for logs, signs in _sign_blocks(beta, assignment, P):
            z = _powers(logs, s)
            z *= signs  # no float sign array is made
            yield 0, z
            # one order's terms at a time: no order outlives its step.  An
            # in-place zm *= z takes another complex loop in numpy 2.4,
            # which moves a last bit (z = 2**-(0.55+7j), order 3)
            zm = z * z
            m = 2
            while (m < last) if last else \
                    (np.max(np.abs(zm)) / m >= _TAIL_CUTOFF):
                yield 1, (-1.0 if m % 2 == 0 else 1.0) / m * zm
                zm = zm * z
                m += 1
            last = m

    return tuple(_exact_sums(terms(), 2))


def weight_factor(beta: DyadicFraction) -> float:
    """1 / (2*beta - 1), the per-prime magnitude of the weighted signs."""
    b = float(beta)
    if not (WEIGHT_BETA_THRESHOLD < b < 1.0):
        raise PreconditionError(
            f"beta={b} outside (1/2 + 1/(2*sqrt(2)), 1) ~ "
            f"({WEIGHT_BETA_THRESHOLD:.6f}, 1)")
    return 1.0 / (2.0 * b - 1.0)


def H_eval(beta: DyadicFraction, assignment, P: int, s: complex
           ) -> EulerEvaluation:
    """H = G * zeta on the shared truncated prime set, where G is the
    product of (1 + g(p) * p**-s) with g(p) = f(p)/(2*beta-1): the two logs
    added and exponentiated once, so H has a value wherever its own log
    allows, even where zeta_P(s) alone overflows a float.  Both logs' terms
    come from one pass over the primes, one p**-s block for the two."""
    s = _point(s, 0.5)
    w = weight_factor(beta)

    def terms():
        for logs, signs in _sign_blocks(beta, assignment, P):
            powers = _powers(logs, s)
            yield 0, np.log(1.0 + w * signs.astype(np.float64) * powers)
            yield 1, np.log(1.0 + -1.0 * powers)  # c = -1.0, as in F_1

    log_g, log_zeta_inverse = _exact_sums(terms(), 2)
    return _evaluation(log_g - log_zeta_inverse, s, P)
