"""Partial-sum experiments: growth exponents, ratio statistics, ensembles.

Partial sums of the sign series are exact 64-bit integers.  Weighted sums
carry float weights (2*beta-1)**-d(n), at most (2*beta-1)**-10 ~ 17.8 at
beta = 7/8 for X <= 10**11.  Both come from one kernel of exact signed
counts per (checkpoint segment, d(n)): plain sums add them up, weighted
sums round them once.

``coupled_sums`` is the one way from seeds to checkpoint sums: a stream
of (seed, sums) pairs, made LANES (8) seeds at a time as it is read.  The
kinds that fit seeds reduce it, and each fits a seed by ``_seed_fit``.
It splits each squarefree n > 1 as m q with q = P+(n), the largest prime
factor, and P+(m) < q, as Deleglise and Rivat (Experiment. Math. 5,
1996) split the Mertens function.  Seed k's sum is

    S_k(x) = 1 + sum_{m P+(m) < x} f_k(m) (Pi_k(x // m) - Pi_k(P+(m))),

with Pi_k(y) the sum of f_k(p) over the primes p <= y.  The nodes m take
only primes below sqrt(X), and one tree of (checkpoint, node) pairs per
limit serves every seed.  With the nodes in the order of m P+(m), each
checkpoint's are a prefix of that order, so the tree keeps one int32 per
pair.  pi(x // m) comes from Legendre's recurrence over the grid's
quotients (``sieve._prime_counts``), which sieves nothing above sqrt(X)
and whose slot table places each x // m, so no pair is sorted: the
tree's ranks are every pi(v) over those quotients.  Pi_k comes from each
lane's plus flags, one hash block of 2**15 ranks at a time, counted at the
ranks inside it, and the same flags of the primes below sqrt(X) make the
nodes' uint8 lane words, so each seed is hashed once (``sampler`` hashes
and signs; this module makes the words); the sum from reused blocks of
2**14 terms over all the lanes, one term per (checkpoint, node) pair.
Nothing of length X or pi(X) is made, and only the tree grows with X.  At
X = 10**7 the tree has 15,512 nodes, 85,331 pairs and 3,393 ranks; a
4-seed pass peaks at 1.57 MiB traced, the tree's build, and at 1.01 MiB
with the tree cached (tests hold them below 8 and 4 MiB, and below 24 MiB
with the tree alone cold).  A cold tree takes about 0.03 s at 10**8.  At
10**9 (426,054 nodes, 2,267,326 pairs, 30,476 ranks) it takes
0.17-0.21 s and keeps 14 MiB, and a whole 8-seed campaign run takes
1.2-1.8 s at 59 MiB ``VmHWM``.
At 10**10 (2,308,224 nodes, 12,139,683 pairs) the tree takes 0.8-1.0 s
and keeps 76 MiB, and an 8-seed run takes 11-14 s at 169 MiB.  At 10**11
(12,739,537 nodes, 66,327,065 pairs) the tree takes 4.7-5.2 s and keeps
413 MiB, and a one-seed run takes 18-22 s at 613 MiB (2-core x86-64,
numpy 2.4).

Checkpoints live on a geometric grid with ratio 10**(1/8), so every power
of ten is itself a checkpoint and log-log fits see evenly spaced abscissae.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import sampler
from .dyadic import HALF, DyadicFraction
from .errors import (ConfigurationError, DomainError, FitError,
                     PreconditionError, RangeError)
from .sieve import _COUNT_LIMIT, MAX_KIND, _prime_counts, primes_up_to
from .dirichlet import _exact_sums, _point, weight_factor

GRID_STEPS_PER_DECADE = 8
MIN_FIT_POINTS = 5  # nonzero checkpoints a growth fit needs


def checkpoint_grid(x_max: int) -> np.ndarray:
    """Geometric checkpoints with ratio 10**(1/8) from 10, ending exactly at
    x_max."""
    if x_max < 10:
        raise DomainError(f"x_max={x_max} below 10")
    j1 = math.floor(GRID_STEPS_PER_DECADE * math.log10(x_max) + 1e-9)
    xs = np.round(10.0 ** (np.arange(GRID_STEPS_PER_DECADE, j1 + 1) /
                           GRID_STEPS_PER_DECADE)).astype(np.int64)
    xs = xs[np.diff(xs, prepend=-1) > 0]  # np.unique would import numpy.ma
    if len(xs) == 0 or xs[-1] != x_max:
        xs = np.append(xs, x_max)
    return xs[xs <= x_max]


def default_window(limit: int) -> tuple[float, float]:
    """The fit window when none is given: the last two decades up to limit."""
    return (max(10, limit / 100), limit)


@dataclass(frozen=True)
class SumGrid:
    """Checkpointed partial sums; integer-exact unless weighted."""

    checkpoints: np.ndarray
    sums: np.ndarray  # int64 for raw sign sums, float64 for weighted sums


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares slope of log|S| against log x."""

    alpha: float
    stderr: float
    points_used: int
    points_dropped: int


@dataclass(frozen=True)
class SelbergDelangeStat:
    """Ratio R(x) = S(x) * (log x)**(2 beta) / x along the checkpoints.

    For 1/2 < beta < 1 the prime signs have mean z = 1 - 2*beta, and the
    Selberg-Delange method (Tenenbaum, Introduction to Analytic and
    Probabilistic Number Theory, II.5) gives
    R(x) -> lambda(omega) / Gamma(1 - 2*beta) < 0, with the Euler constant
    lambda(omega) = prod_p (1 + f(p)/p) (1 - 1/p)**(1 - 2*beta) > 0.
    ``sign_stable`` and a campaign's ``frac_ratio_positive`` count the raw
    sign R > 0, so they read False and 0.0 for 1/2 < beta < 1;
    Gamma(1 - 2*beta) * R estimates lambda(omega) and is positive.
    """

    checkpoints: np.ndarray
    ratios: np.ndarray
    terminal_ratio: float
    sign_stable: bool  # R > 0 at every checkpoint in the final decade


def _sums_from_counts(counts: np.ndarray, grid: np.ndarray,
                      w: float | None = None) -> SumGrid:
    """One lane's checkpoint sums from its counts C[i, d]: the exact
    cumulative sum of their totals, or with a weight factor ``w`` the sums
    of w**d(n) f(n).

    Each weighted segment is the exact sum of its signed counts times the
    float weights, rounded once by an int / int division, and joins the
    running total by one float addition, which rounds the exact sum of the
    two once.
    """
    if w is None:
        return SumGrid(checkpoints=grid, sums=np.cumsum(counts.sum(axis=1)))
    ratios = [x.as_integer_ratio()
              for x in (w ** np.arange(counts.shape[1])).tolist()]
    den = max(d for _, d in ratios)  # w**k = weights[k] / den exactly
    weights = [n * (den // d) for n, d in ratios]
    sums = np.empty(len(grid), dtype=np.float64)
    total = 0.0
    for i, row in enumerate(counts.tolist()):
        segment = sum(c * wk for c, wk in zip(row, weights)) / den
        total += segment
        sums[i] = total
    return SumGrid(checkpoints=grid, sums=sums)


def fit_growth_exponent(sumgrid: SumGrid,
                        window: tuple[float, float]) -> GrowthFit:
    """OLS slope of log|S(x)| vs log x over checkpoints inside the window.

    Checkpoints with S = 0 are dropped (log of zero is undefined).  For
    sums that change sign, a checkpoint near a zero crossing still enters
    the fit and can pull the slope far off.
    """
    lo, hi = window
    in_win = (sumgrid.checkpoints >= lo) & (sumgrid.checkpoints <= hi)
    xs = sumgrid.checkpoints[in_win].astype(np.float64)
    ss = np.asarray(sumgrid.sums, dtype=np.float64)[in_win]
    nonzero = ss != 0.0
    dropped = int(np.count_nonzero(~nonzero))
    xs, ss = xs[nonzero], ss[nonzero]
    if len(xs) < MIN_FIT_POINTS:
        raise FitError(f"only {len(xs)} nonzero checkpoints in window "
                       f"{window}; need {MIN_FIT_POINTS}")
    lx = np.log(xs)
    ly = np.log(np.abs(ss))
    n = len(lx)
    mx = lx.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    slope = float(np.sum((lx - mx) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * mx)
    resid = ly - (intercept + slope * lx)
    dof = max(n - 2, 1)
    stderr = float(math.sqrt(float(np.sum(resid ** 2)) / dof / sxx))
    return GrowthFit(alpha=slope, stderr=stderr, points_used=n,
                     points_dropped=dropped)


def selberg_delange_ratio(beta: DyadicFraction,
                          sumgrid: SumGrid) -> SelbergDelangeStat:
    """Invert the slow-growth asymptotic: R(x) = S(x) (log x)**(2b) / x."""
    b = float(beta)
    if not 0.5 < b < 1.0:
        raise DomainError(f"ratio statistic defined for 1/2 < beta < 1, "
                          f"got {b}")
    xs = sumgrid.checkpoints.astype(np.float64)
    ss = np.asarray(sumgrid.sums, dtype=np.float64)
    ratios = ss * np.log(xs) ** (2.0 * b) / xs
    x_max = xs[-1]
    final_decade = xs >= x_max / 10.0
    sign_stable = bool(np.all(ratios[final_decade] > 0.0))
    return SelbergDelangeStat(checkpoints=sumgrid.checkpoints,
                              ratios=ratios,
                              terminal_ratio=float(ratios[-1]),
                              sign_stable=sign_stable)


# Integers per block of abel_consistency's terms: under 128 bytes of arrays
# each, at most 8 MiB per block
_ABEL_BLOCK = 2**16


def abel_consistency(values: np.ndarray, X: int, s: complex) -> float:
    """Residual of the finite Abel summation identity at s, for the series
    f(n) = values[n] (int8, index 0 unused).

    Compares sum_{n<=X} f(n) n**-s against
    S(X) X**-s + sum_{m<X} S(m) (m**-s - (m+1)**-s); the identity is exact,
    so the residual measures only floating-point noise.  One pass makes
    both sides' terms, _ABEL_BLOCK integers at a time, from one n**-s per
    integer, and carries S across the blocks as int64, S(X) last;
    ``dirichlet._exact_sums`` sums each side's real and imaginary parts
    exactly and rounds each once, so the memory stays within a few blocks
    at any X and the blocks do not change the result.
    """
    s = _point(s, 0)
    if not 1 <= X <= len(values) - 1:
        raise RangeError(f"X={X} outside [1, {len(values) - 1}]")
    S = 0

    def terms():
        nonlocal S
        for lo in range(1, X + 1, _ABEL_BLOCK):
            hi = min(lo + _ABEL_BLOCK, X + 1)
            # n**-s for the block's n and the one after it, up to X
            n = np.arange(lo, min(hi + 1, X + 1), dtype=np.float64)
            npow = np.exp(-s * np.log(n))
            yield 0, values[lo:hi].astype(np.float64) * npow[: hi - lo]
            partial = np.cumsum(values[lo:hi], dtype=np.int64)
            partial += S
            S = int(partial[-1])
            yield 1, (partial[: len(n) - 1].astype(np.float64)
                      * (npow[:-1] - npow[1:]))

    lhs_sum, steps = _exact_sums(terms(), 2)
    boundary = np.float64(S) * \
        np.exp(-s * np.log(np.array([X], dtype=np.float64)))[0]
    return abs(lhs_sum - (boundary + steps))


# Values per block of the tree's quotients, and of the lane pass's terms
# over all its lanes: 128 KiB of float64
_PAIR_BLOCK = 2**14


@dataclass(frozen=True)
class _Tree:
    """The nodes and (checkpoint, node) pairs of the largest-prime-factor
    recursion at one limit and grid (``_tree``); no seed or beta enters.

    Row i's pairs are the prefix order[:cuts[i]] of one node order, so the
    only array per pair is ``upper``: about 4 bytes a pair and 13 a node,
    every index array int32.
    """

    limit: int
    grid: np.ndarray
    count: int  # pi(limit)
    levels: list[int]  # the nodes with d(m) = d are levels[d]:levels[d + 1]
    parents: np.ndarray  # node -> the node m // P+(m)
    tops: np.ndarray  # node -> the index of P+(m) among the primes, so
    #                   pi(P+(m)) = tops + 1, as an index into ranks
    order: np.ndarray  # the nodes in the order of m P+(m)
    kind: np.ndarray  # d(m) + 1 of each ordered node, as uint8
    cuts: list[int]  # row i pairs with the ordered nodes order[:cuts[i]]
    ranks: np.ndarray  # the prime ranks read: ascending, distinct, from 0
    upper: np.ndarray  # int32: pi(x // m) of row i and ordered node j, as
    #                    an index into ranks, at sum(cuts[:i]) + j


def _isqrt(v: np.ndarray) -> np.ndarray:
    """math.isqrt of each int64 in v, for 0 <= v < 2**52: the float root is
    then within 1 of it, and one step each way corrects it."""
    r = np.sqrt(v.astype(np.float64)).astype(np.int64)
    r -= r * r > v
    r += (r + 1) * (r + 1) <= v
    return r


def _tree(limit: int, grid: np.ndarray) -> _Tree:
    """The recursion's tree at checkpoints ``grid``, ascending (repeats
    allowed) within [0, limit].

    Its nodes are the squarefree m with m P+(m) < limit, m = 1 included
    with P+(1) read as 1, breadth first: the children of m are the m p with
    P+(m) < p and m p p < limit.  Checkpoint x pairs with the nodes with
    m P+(m) < x, the m for which some n = m q <= x with a prime q > P+(m)
    may exist: with the nodes in the order of m P+(m), each row's are a
    prefix of that order, so only each pair's rank index is kept, row by
    row.  The nodes take only the primes <= isqrt(limit).  The ranks are
    every pi(v) over the quotients of ``sieve._prime_counts``, and a pair's
    x // m is found in its slot table, so no pair is sorted or searched.
    Their indices fit int32: there are fewer than 2**31 quotients up to
    _COUNT_LIMIT.  The ranks start 0, 1, ..., pi(isqrt(limit)), so
    pi(P+(m)) = tops + 1 is its own index.  No pair-length temporary is
    made: the quotients go through buffers of _PAIR_BLOCK nodes.  A grid
    out of order or range raises ``RangeError`` (from ``_prime_counts``).
    """
    values, counts, slots = _prime_counts(limit, grid)
    root = math.isqrt(limit)
    primes = primes_up_to(root)
    m, top = np.ones(1, dtype=np.int64), np.full(1, -1)
    ms, tops, parents, levels = [m], [top], [np.zeros(1, np.int32)], [0, 1]
    while True:
        # the child primes of m: from index top + 1 to the primes' count up
        # to isqrt((limit - 1) // m), exclusive
        roots = _isqrt((limit - 1) // m)
        count = np.maximum(
            np.searchsorted(primes, roots, side="right") - top - 1, 0)
        if not count.any():
            break
        at = np.repeat(np.arange(len(m)), count)
        top = top[at] + 1 + np.arange(len(at)) - \
            np.repeat(np.cumsum(count) - count, count)
        m = m[at] * primes[top]
        ms.append(m)
        tops.append(top.astype(np.int32))
        parents.append((at + levels[-2]).astype(np.int32))
        levels.append(levels[-1] + len(at))
    # each list is joined and freed before the next, and all before the
    # node-length temporaries
    parents = np.concatenate(parents)
    top = np.concatenate(tops, dtype=np.int32)
    del tops
    m = np.concatenate(ms)
    del ms
    keys = m.copy()
    keys[1:] *= primes[top[1:]]  # m P+(m)
    order = np.argsort(keys).astype(np.int32)
    # row i pairs with the nodes with m P+(m) < grid[i]
    cuts = np.searchsorted(keys[order], grid).tolist()
    del keys
    kind = np.repeat(np.arange(1, len(levels), dtype=np.uint8),
                     np.diff(levels))  # d(m) + 1
    # the nodes in the order of m P+(m): m exact as float64, m < 2**53
    divisors = m.astype(np.float64)
    del m
    divisors, kind = divisors[order], kind[order]
    # the distinct pi(v), and each v's index among them
    first = np.ones(len(counts), dtype=bool)
    np.not_equal(counts[1:], counts[:-1], out=first[1:])
    ranks = counts[first]
    rank_at = np.cumsum(first, dtype=np.int32)
    rank_at -= 1
    del values, first
    # row i pairs with the nodes order[:cuts[i]]; an x // m > root lies in
    # slot starts[i] + m of the slot table.  x // m is the float quotient
    # truncated: exact, as m (x // m + 1) <= 2 x < 2**53.  The quotients
    # and slots go through buffers of _PAIR_BLOCK nodes, made once
    lengths = grid // (root + 1)
    starts = (np.cumsum(lengths) - lengths - 1).tolist()
    upper = np.empty(sum(cuts), dtype=np.int32)
    width = min(_PAIR_BLOCK, len(divisors))
    ratios = np.empty(width)
    quotients = np.empty(width, dtype=np.intp)
    slot = np.empty(width, dtype=np.intp)
    at = 0
    for x, cut, start in zip(grid.tolist(), cuts, starts):
        for lo in range(0, cut, _PAIR_BLOCK):
            hi = min(lo + _PAIR_BLOCK, cut)
            m, r = divisors[lo:hi], ratios[: hi - lo]
            q, t = quotients[: hi - lo], slot[: hi - lo]
            np.divide(x, m, out=r)
            np.copyto(q, r, casting="unsafe")
            np.add(m, start, out=r)  # past the row's slots where q <= root
            np.copyto(t, r, casting="unsafe")
            np.copyto(q, slots.take(t, mode="clip"), where=q > root)
            np.take(rank_at, q, out=upper[at + lo: at + hi], mode="clip")
        at += cut
    return _Tree(limit=limit, grid=grid, count=int(counts[-1]),
                 levels=levels, parents=parents, tops=top, order=order,
                 kind=kind, cuts=cuts, ranks=ranks, upper=upper)


@functools.lru_cache(maxsize=1)
def _checkpoint_tree(limit: int) -> _Tree:
    """The tree at ``checkpoint_grid(limit)``; the last limit's stays cached,
    so every lane group and run at that limit shares it."""
    return _tree(limit, checkpoint_grid(limit))


LANES = 8  # seeds per uint8 word: bit k belongs to seeds[k]


def _checkpoint_counts(tree: _Tree, beta: DyadicFraction,
                       seeds) -> np.ndarray:
    """C[lane, i, d] for at most LANES seeds: the exact sum of the lane's
    f(n) over grid[i-1] < n <= grid[i] with d(n) = d (grid[-1] read as 0),
    for d <= MAX_KIND, by the recursion of the module docstring.

    Each lane hashes its seed once: its plus flags of ranks
    0 .. pi(limit) - 1 come a hash block at a time
    (``sampler._plus_blocks``, blocks of ``sampler._HASH_BLOCK`` ranks read
    when called).  Those of the nodes' primes, the ranks up to the largest
    P+(m), set bit k of their uint8 masks, and bit k of a node's word is
    the parity of seed k's minus primes of m, the xor of their complemented
    masks carried down the tree, so f_k(m) = (-1)**(bit k).
    Pi_k(y) = 2 plus_k(y) - pi(y) is counted only at the tree's ranks: each
    block adds its plus primes between the tree's ranks inside it by one
    np.add.reduceat, so nothing of pi(limit) bytes is made.  The terms
    f_k(m) (Pi_k(x // m) - Pi_k(P+(m))) are formed for all lanes at once,
    one block of ordered nodes and one row at a time (row i reads the
    prefix order[:cuts[i]]), in reused float64 buffers of _PAIR_BLOCK
    values, the block's Pi_k(P+(m)) gathered once for all its rows, and
    summed by one bincount keyed by d(m) + 1 and the lane.  They are exact
    in float64: every term and partial sum is an integer of size at most
    sum_{m <= x} x / m < x (1 + log x) < 2**53.
    """
    ranks, count, block = tree.ranks, tree.count, sampler._HASH_BLOCK
    nodes = int(tree.tops.max()) + 1  # the ranks of the nodes' primes
    # gaps[j]: the plus primes of ranks[j - 1] .. ranks[j] - 1, from rank 0
    # at j = 0; gaps[-1] takes those past the last rank.  The ranks inside
    # hash block c are ranks[at:stop], at offsets ranks % block in it, and
    # its flags from each cut on add to gaps[first:stop + 1]: the cuts are
    # its start, unless a rank is there, and those offsets.  The ranks equal
    # to count lie past every block
    stops = np.searchsorted(ranks, np.minimum(
        np.arange(block, count + block, block), count)).tolist()
    offsets = ranks % block
    per_block, at = [], 0
    for stop in stops:
        head = at == stop or offsets[at] > 0
        cuts = np.concatenate([[0], offsets[at:stop]]) if head else \
            offsets[at:stop]
        per_block.append((at if head else at + 1, stop + 1, cuts))
        at = stop
    gaps = np.empty(len(ranks) + 1, dtype=np.int64)
    lanes = len(seeds)
    masks = np.zeros(nodes, dtype=np.uint8)  # bit k: seed k signs it +1
    # prime_sums[j, k]: Pi_k at ranks[j], exact in float64
    prime_sums = np.empty((len(ranks), lanes))
    for k, seed in enumerate(seeds):
        gaps[...] = 0
        if not beta.is_one:  # at beta = 1 no prime is plus
            seed = operator.index(seed)
            for lo, flags in sampler._plus_blocks(beta, seed, count):
                if lo < nodes:
                    plus = flags[: nodes - lo].view(np.uint8)
                    masks[lo: lo + len(plus)] |= plus << np.uint8(k)
                first, stop, cuts = per_block[lo // block]
                gaps[first:stop] += np.add.reduceat(flags, cuts,
                                                    dtype=np.uint16)
        prime_sums[:, k] = 2 * np.cumsum(gaps[:-1]) - ranks
    words = np.zeros(len(tree.parents), dtype=np.uint8)
    for lo, hi in zip(tree.levels[1:-1], tree.levels[2:]):
        words[lo:hi] = words[tree.parents[lo:hi]] ^ ~masks[tree.tops[lo:hi]]
    rows, kinds = len(tree.grid), MAX_KIND + 1
    # word_signs[w, k] = (-1)**(bit k of w): lane k's f(m) from the word w
    word_signs = 1.0 - 2.0 * (
        np.arange(256)[:, None] >> np.arange(lanes) & 1)
    lane = kinds * np.arange(lanes)  # lane k's bins start at kinds k
    # the pair terms f_k(m) (Pi_k(x // m) - Pi_k(P+(m))): a block of ordered
    # nodes at a time, their signs, Pi_k(P+(m)) and bins d(m) + 1 + kinds k
    # made once for every row that pairs with the block, each row's terms
    # for all lanes at once; pi(P+(m)) is rank tops + 1 (the root's -1
    # reads 0)
    nodes, row_cuts = len(tree.order), tree.cuts
    width = min(max(_PAIR_BLOCK // lanes, 1), nodes)
    terms, lower = np.empty((width, lanes)), np.empty((width, lanes))
    sums = np.zeros((rows, lanes * kinds))
    starts = list(itertools.accumulate(row_cuts, initial=0))
    for lo in range(0, nodes, width):
        hi = min(lo + width, nodes)
        at = bisect.bisect_right(row_cuts, lo)  # the rows with cuts > lo
        if at == rows:
            break
        node = tree.order[lo:hi]
        sign = word_signs[words[node]]
        # mode "clip" writes straight into out ("raise" would buffer it);
        # every index is in range
        prime_sums.take(tree.tops[node] + 1, axis=0, out=lower[: hi - lo],
                        mode="clip")
        keys = tree.kind[lo:hi, None] + lane
        for i in range(at, rows):
            n = min(row_cuts[i], hi) - lo
            t = terms[:n]
            pairs = tree.upper[starts[i] + lo: starts[i] + lo + n]
            prime_sums.take(pairs, axis=0, out=t, mode="clip")
            t -= lower[:n]
            t *= sign[:n]
            sums[i] += np.bincount(keys[:n].ravel(), t.ravel(),
                                   minlength=lanes * kinds)
    totals = sums.reshape(rows, lanes, kinds).transpose(1, 0, 2)
    totals = totals.astype(np.int64)
    totals[:, tree.grid >= 1, 0] += 1  # n = 1
    return np.diff(totals, axis=1, prepend=0)


def coupled_sums(beta: DyadicFraction, limit: int, weighted: bool,
                 seeds) -> Iterator[tuple[int, SumGrid]]:
    """Every seed's checkpoint sums of f_beta, as (seed, SumGrid) pairs in
    seed order.  The checks and the limit's tree (``_checkpoint_tree``)
    come at the call; each lane group of LANES seeds makes its hash pass
    and its counts (``_checkpoint_counts``) when its first pair is drawn,
    so a consumer holds one group's sums at a time.

    Weighted sums weigh f_beta(n) by (2*beta-1)**-d(n).  Each seed must be
    an integer in [0, 2**64), as the hash reads it as a uint64, and
    appear once, as its pair stands for it.
    """
    if limit > _COUNT_LIMIT:
        raise ConfigurationError(
            f"limit {limit} above supported maximum {_COUNT_LIMIT}")
    if not HALF <= beta:
        raise PreconditionError(f"beta={float(beta)} below 1/2")
    if not all(map(sampler.is_seed, seeds)):
        raise DomainError(f"seeds={list(seeds)!r}: every seed must be an "
                          "integer in [0, 2**64)")
    if len(set(seeds)) < len(seeds):
        raise DomainError(f"seeds={list(seeds)!r}: every seed must be "
                          "distinct")
    w = weight_factor(beta) if weighted else None  # the weighted threshold
    tree = _checkpoint_tree(limit)
    groups = (seeds[at: at + LANES] for at in range(0, len(seeds), LANES))
    return ((seed, _sums_from_counts(counts, tree.grid, w))
            for group in groups
            for seed, counts in zip(group,
                                    _checkpoint_counts(tree, beta, group)))


# ---------------------------------------------------------------------------
# Monte Carlo campaigns over seed ensembles
# ---------------------------------------------------------------------------

def _seed_fit(beta: DyadicFraction, sums: SumGrid,
              window: tuple[float, float], weighted: bool
              ) -> tuple[GrowthFit, SelbergDelangeStat | None]:
    """One seed's growth fit, and its ratio statistic where that applies:
    plain sums at 1/2 < beta < 1.  Every kind that fits a seed takes both
    from here."""
    fit = fit_growth_exponent(sums, window)
    if weighted or not 0.5 < float(beta) < 1.0:
        return fit, None
    return fit, selberg_delange_ratio(beta, sums)


def _quantile(xs: list[float], q: float) -> float:
    """np.quantile(xs, q) of sorted xs, bit for bit (linear method), without
    the numpy.ma import that np.quantile's first call makes (~15 ms)."""
    v = (len(xs) - 1) * q
    i = math.floor(v)
    a, b = xs[i], xs[min(i + 1, len(xs) - 1)]
    g = v - i
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def _median(xs: list[float]) -> float:
    """np.median(xs) of sorted xs, bit for bit, without numpy.ma."""
    return (xs[(len(xs) - 1) // 2] + xs[len(xs) // 2]) / 2


def monte_carlo_campaign(beta: DyadicFraction, limit: int, seeds,
                         window: tuple[float, float],
                         weighted: bool = False) -> dict:
    """Fit every seed and take the ensemble's quantiles; deterministic in
    the seeds.  Returns the fields of a campaign's summary.json: its
    ``config``, ``per_seed`` (each seed's fit and, where ``_seed_fit``
    gives a ratio, R(X) as terminal_ratio, R(X) / R(X // 10) as
    ratio_decade, and sign_stable; else None), the alpha median and 10%
    and 90% quantiles, and the shares of seeds with raw R(X) > 0
    (``frac_ratio_positive``) and with ratio_decade in [0.5, 2].  R tends
    to a negative constant for 1/2 < beta < 1 (see
    ``SelbergDelangeStat``), so ``frac_ratio_positive`` is 0.0 there; both
    shares are None where no seed has a ratio.
    """
    if len(seeds) < 1:
        raise PreconditionError("campaign needs at least one seed")
    per_seed = []
    for seed, sums in coupled_sums(beta, limit, weighted, seeds):
        fit, stat = _seed_fit(beta, sums, window, weighted)
        terminal = decade = stable = None
        if stat is not None:
            terminal, stable = stat.terminal_ratio, stat.sign_stable
            xs = stat.checkpoints
            prev = np.flatnonzero(xs <= xs[-1] // 10)
            if len(prev) and stat.ratios[prev[-1]] != 0.0:
                decade = float(stat.ratios[-1] / stat.ratios[prev[-1]])
        per_seed.append({"seed": seed, **vars(fit),
                         "terminal_ratio": terminal, "ratio_decade": decade,
                         "sign_stable": stable})
    alphas = sorted(r["alpha"] for r in per_seed)
    terminals = [r["terminal_ratio"] for r in per_seed
                 if r["terminal_ratio"] is not None]
    decades = [r["ratio_decade"] for r in per_seed
               if r["ratio_decade"] is not None]
    return {
        "config": {"beta_numerator": beta.numerator, "limit": limit,
                   "seeds": list(seeds), "weighted": weighted,
                   "window": list(window)},
        "per_seed": per_seed,
        "alpha_median": _median(alphas),
        "alpha_q10": _quantile(alphas, 0.10),
        "alpha_q90": _quantile(alphas, 0.90),
        "frac_ratio_positive": float(np.mean([t > 0 for t in terminals]))
        if terminals else None,
        "frac_ratio_decade_in_band": float(np.mean(
            [0.5 <= d <= 2.0 for d in decades])) if decades else None,
    }
