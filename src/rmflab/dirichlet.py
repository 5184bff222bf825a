"""Complex evaluation of truncated Euler products and the coupled identities.

Every product over primes p <= P is computed in log space as a sum of
per-prime principal logarithms.  That sum, ``exp_form_F``'s series and
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
1 - p**-s or 1 + p**-s.  ``IdentityEvaluator`` does the work that does not
depend on s once per (level, seed, P): it hashes omega a hash block at a
time and, block by block of 4,096 primes, compares the numerators with 1/2
and applies T**k to the numerators in [1/2, 1) for every k, a column of
powers per broadcast pass, while the block sits in cache, keeping each
block's plus-signed indices product by product.  T fixes [0, 1/2), which
``iet-test`` and ``tests/test_iet.py`` check, and beta > 1/2, so no other
numerator is plus-signed in any view.  Per point it walks the same blocks:
p**-s, log(1 - p**-s) at every prime, log(1 + p**-s) only at primes
plus-signed in some product (about half), and one segmented extraction of
the minus terms and of every product's terms at its plus-signed primes,
folded into a few floats per product every _FOLD_BLOCKS blocks.  A
product's log is the exact sum of the minus terms and of
log(1 + p**-s) - log(1 - p**-s) at its plus-signed primes, rounded once:
the same float as the exact sum of the product's full term vector, so the
residual is bit for bit what the product-by-product evaluation gives.
Each product's signs are still derived from its own T**k view of the
hashed omega, so the check stays independent of the exchange map it
tests.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .dyadic import HALF, DyadicFraction
from .errors import CoverageError, DomainError, PreconditionError
from .iet import IetSpec, apply_T_power_numerators
from .sampler import prime_signs

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


def _prime_powers(primes: np.ndarray, s: complex) -> np.ndarray:
    """p**-s for each prime, complex128."""
    logs = np.log(primes.astype(np.float64))
    return np.exp(-s * logs)


def _log_product(powers: np.ndarray, coeffs: np.ndarray) -> complex:
    """sum of log(1 + c_p * p**-s) over the primes of a p**-s table
    (``_prime_powers``), principal branch per factor, summed exactly and
    rounded once (``_exact_sum``).  Callers pass the primes <= P and check
    s."""
    cs = np.asarray(coeffs, dtype=np.float64)
    return _exact_sum([np.log(1.0 + cs * powers)])


def _evaluation(log_value: complex, s: complex, P: int) -> EulerEvaluation:
    """A product from its log; ``DomainError``, naming s and P, where its
    value overflows a float (a log above about 709)."""
    try:
        value = cmath.exp(log_value)
    except OverflowError:
        raise DomainError(f"the product at s={s}, P={P} overflows a float: "
                          f"its log is {log_value}") from None
    return EulerEvaluation(log_value=log_value, value=value)


def _primes_to(assignment, P: int) -> np.ndarray:
    """The assignment's primes <= P; it must cover them all."""
    if assignment.prime_limit < P:
        raise CoverageError(
            f"assignment covers primes <= {assignment.prime_limit} < P={P}")
    primes = assignment.primes
    return primes[: np.searchsorted(primes, P, side="right")]


def euler_F(beta: DyadicFraction, assignment, P: int,
            s: complex) -> EulerEvaluation:
    """Truncated product of (1 + f_beta(p) * p**-s) over p <= P."""
    s = _point(s, 0)
    primes = _primes_to(assignment, P)
    signs = prime_signs(beta, assignment, primes)
    return _evaluation(_log_product(_prime_powers(primes, s), signs), s, P)


def zeta_truncated(P: int, s: complex, primes: np.ndarray | None = None
                   ) -> EulerEvaluation:
    """Truncated zeta: product of (1 - p**-s)**-1 over p <= P.

    ``primes``, when given, must be the primes <= P."""
    s = _point(s, 0)
    if primes is None:
        from .sieve import primes_up_to
        primes = primes_up_to(P)
    return _evaluation(_log_zeta(_prime_powers(primes, s)), s, P)


def _log_zeta(powers: np.ndarray) -> complex:
    """log zeta_P(s) from the p**-s table of the primes <= P."""
    return -_log_product(powers, np.full(len(powers), -1.0))


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


def _exact_sum(blocks: Iterable[np.ndarray],
               extracted: np.ndarray = np.empty((0, 2))) -> complex:
    """The sums of the real and of the imaginary parts of the values in
    ``blocks`` (complex128 arrays), each exact and then rounded once.

    ``_extracted`` turns each _EXTRACT_BLOCK values of a block into a few
    floats per part with the same exact sum, and one fsum per part rounds
    the exact sum of them all: the float fsum over every value gives,
    however the values are split into blocks.  A stream of blocks is taken
    one at a time, never concatenated.  ``extracted`` is a (k, 2) array of
    floats already extracted from real and imaginary parts, whose exact sums
    join these.  A NaN or infinity raises ``DomainError``.
    """
    found = [extracted]
    for block in blocks:
        parts = block.view(np.float64).reshape(-1, 2).T
        found.extend(_extracted(parts[:, lo:lo + _EXTRACT_BLOCK])[:, :, 0]
                     for lo in range(0, parts.shape[1], _EXTRACT_BLOCK))
        del block, parts  # freed before the next block is made
    re, im = np.concatenate(found).T.tolist()
    return complex(math.fsum(re), math.fsum(im))


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

    The constructor hashes omega a hash block at a time
    (``numerator_blocks``) and cuts each into blocks of _VIEW_BLOCK primes.
    In each it compares the numerators with 1/2 (product 0, F_{1/2}) and
    applies T**k to the numerators in [1/2, 1) for k = 1..2**n (product k,
    the view T**k omega), a few broadcast passes per block; T fixing
    [0, 1/2) is checked by ``iet-test`` and ``tests/test_iet.py``.  Per
    block it keeps, as ``_blocks``, only the products' plus-signed indices:
    - ``union``: the indices plus-signed in some product, ascending;
    - ``plus``: every product's plus-signed indices, in product order;
    - ``owners``: the products with a plus-signed index in the block;
    - ``starts``: where each owner's indices begin in ``plus``.
    ``residual`` walks the same blocks, so no array of length pi(P) is made
    by the constructor or per point.
    """

    def __init__(self, level: int, assignment, P: int):
        if level > MAX_IDENTITY_LEVEL:
            raise DomainError(
                f"level {level}: the identity evaluates 2**{level} + 2 = "
                f"{2**level + 2:,} Euler products; levels above "
                f"{MAX_IDENTITY_LEVEL} are not evaluated")
        spec = IetSpec(level)
        self._intervals = spec.intervals
        self._primes = _primes_to(assignment, P)
        self._blocks = [
            _plus_views(spec, nums[lo:lo + _VIEW_BLOCK])
            for _, nums in assignment.numerator_blocks(len(self._primes))
            for lo in range(0, len(nums), _VIEW_BLOCK)]

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
        for b, (lo, (union, plus, owners, starts)) in enumerate(zip(
                range(0, len(self._primes), _VIEW_BLOCK), self._blocks)):
            powers = _prime_powers(self._primes[lo:lo + _VIEW_BLOCK], s)
            n, c = len(powers), len(plus)
            # [log(1 - p**-s) per prime | log(1 + p**-s) and log(1 - p**-s)
            # at each product's plus-signed primes], the element operations
            # of _log_product with c = -1.0 and c = +1.0
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
    of _VIEW_BLOCK primes, and log(1 + p**-s) only where some product is
    plus-signed.  Each block's log(1 - p**-s) terms, and every product's
    log(1 + p**-s) and log(1 - p**-s) terms at its plus-signed primes, go
    through one segmented extraction into a few floats per segment of the
    same exact sum; every _FOLD_BLOCKS blocks the floats kept so far are
    extracted again into a few per product.  A product's log is
    ``_exact_sum`` over the minus terms' floats and its own, the second set
    subtracted: rounded once, the same float as the fsum over the product's
    full term vector, and L (from the minus terms' floats) is unchanged
    too.

    The sides stay independent: omega is hashed once, but every view's
    signs come from applying T**k to the numerators in [1/2, 1), block by
    block, and comparing them with beta, never from the interval index the
    identity is built on.  The numerators below 1/2 are not mapped: T fixes
    them (checked by ``iet-test`` and ``tests/test_iet.py``) and they are
    below beta.  A wrong exchange map therefore leaves a residual far above
    rounding noise.
    Levels above ``MAX_IDENTITY_LEVEL`` raise ``DomainError``.
    """
    return IdentityEvaluator(level, assignment, P).residual(s, strict_domain)


def exp_form_F(beta: DyadicFraction, assignment, P: int,
               s: complex) -> tuple[complex, complex]:
    """Split log F into the prime linear sum and the m >= 2 Taylor tail.

    Returns (prime_sum, A_tail) with
    prime_sum = sum f(p) * p**-s and
    A_tail = sum_p sum_{m>=2} (-1)**(m+1) f(p)**m / (m * p**(m s)),
    the m-series stopped once its largest term drops below 1e-18.
    """
    s = _point(s, 0.5)  # the tail series needs Re(s) > 1/2
    primes = _primes_to(assignment, P)
    z = _prime_powers(primes, s)
    z *= prime_signs(beta, assignment, primes)  # no sign array is kept

    def orders():
        # one order's terms at a time: no order outlives its step.  An
        # in-place zm *= z takes another complex loop in numpy 2.4, which
        # moves a last bit (z = 2**-(0.55+7j), order 3)
        zm = z * z
        m = 2
        # initial: with no primes (P < 2) the tail is the empty sum
        while np.max(np.abs(zm), initial=0.0) / m >= _TAIL_CUTOFF:
            yield (-1.0 if m % 2 == 0 else 1.0) / m * zm
            zm = zm * z
            m += 1

    return _exact_sum([z]), _exact_sum(orders())


def weight_factor(beta: DyadicFraction) -> float:
    """1 / (2*beta - 1), the per-prime magnitude of the weighted signs."""
    b = float(beta)
    if not (WEIGHT_BETA_THRESHOLD < b < 1.0):
        raise PreconditionError(
            f"beta={b} outside (1/2 + 1/(2*sqrt(2)), 1) ~ "
            f"({WEIGHT_BETA_THRESHOLD:.6f}, 1)")
    return 1.0 / (2.0 * b - 1.0)


def _log_G(beta: DyadicFraction, assignment, P: int,
           s: complex) -> tuple[complex, np.ndarray]:
    """log G at a checked s, and the p**-s table of the primes <= P it
    runs over."""
    w = weight_factor(beta)
    primes = _primes_to(assignment, P)
    signs = prime_signs(beta, assignment, primes).astype(np.float64)
    powers = _prime_powers(primes, s)
    return _log_product(powers, w * signs), powers


def weighted_euler_G(beta: DyadicFraction, assignment, P: int,
                     s: complex) -> EulerEvaluation:
    """Truncated product of (1 + g(p) * p**-s) with g(p) = f(p)/(2*beta-1)."""
    s = _point(s, 0.5)
    return _evaluation(_log_G(beta, assignment, P, s)[0], s, P)


def H_eval(beta: DyadicFraction, assignment, P: int, s: complex
           ) -> EulerEvaluation:
    """H = G * zeta on the shared truncated prime set: the two logs added
    and exponentiated once, so H has a value wherever its own log allows,
    even where zeta_P(s) alone overflows a float.  Both logs read one
    p**-s table."""
    s = _point(s, 0.5)
    log_g, powers = _log_G(beta, assignment, P, s)
    return _evaluation(log_g + _log_zeta(powers), s, P)
