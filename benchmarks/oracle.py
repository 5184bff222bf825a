"""Independent oracle for campaign rows.

rmflab builds ``f_beta`` by flipping signs in a Mobius table made with a
product-accumulator sieve.  This module rebuilds it another way: it
factorises every n <= X by repeated division by the smallest prime factor,
and multiplies the prime signs of squarefree n.  The prime signs come from
its own SplitMix64 implementation of the documented omega hash.  Only public
rmflab functions that take partial sums as input (``fit_growth_exponent``,
``selberg_delange_ratio``) turn the oracle's sums into the fields of a
``campaign.csv`` row, on rmflab's ``checkpoint_grid``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from rmflab.cli import parse_beta
from rmflab.growth import (SumGrid, checkpoint_grid, fit_growth_exponent,
                           selberg_delange_ratio)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = x + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def spf_table(limit: int) -> np.ndarray:
    """Smallest prime factor of every 0 <= n <= limit (spf[1] = 1)."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            multiples = spf[p * p::p]
            multiples[multiples == 0] = p
    unset = np.flatnonzero(spf == 0)
    spf[unset] = unset
    return spf


def prime_signs(seed: int, primes: np.ndarray, beta: str) -> np.ndarray:
    """-1 where omega_p < beta, else +1; omega_p hashed from (seed, rank)."""
    threshold = Fraction(beta) * 2**64
    if threshold == 2**64:
        return np.full(len(primes), -1, dtype=np.int8)
    ranks = np.arange(len(primes), dtype=np.uint64)
    with np.errstate(over="ignore"):
        nums = _splitmix64(np.uint64(seed) + _GOLDEN * ranks)
    return np.where(nums < np.uint64(int(threshold)), np.int8(-1),
                    np.int8(1))


def sign_functions(limit: int, seed: int, betas: list[str]
                   ) -> tuple[list[np.ndarray], np.ndarray]:
    """f_beta(n) for each beta, and d(n) on squarefree n, for n <= limit.

    Active numbers lose their smallest prime each round, so every number
    still active in round r has exactly r distinct primes so far.
    """
    spf = spf_table(limit)
    primes = np.flatnonzero(spf[2:] == np.arange(2, limit + 1)) + 2
    by_prime = []
    for beta in betas:
        table = np.zeros(limit + 1, dtype=np.int8)
        table[primes] = prime_signs(seed, primes, beta)
        by_prime.append(table)
    fs = [np.zeros(limit + 1, dtype=np.int8) for _ in betas]
    d = np.zeros(limit + 1, dtype=np.int8)
    for f in fs:
        f[1] = 1
    n = np.arange(2, limit + 1, dtype=np.int32)
    m = n.copy()
    p = spf[m]
    acc = [np.ones(len(n), dtype=np.int8) for _ in betas]
    rounds = 0
    while len(n):
        rounds += 1
        q = m // p
        next_p = spf[q]
        squarefree_so_far = next_p != p
        for a, table in zip(acc, by_prime):
            a *= table[p]
        done = squarefree_so_far & (q == 1)
        finished = n[done]
        d[finished] = rounds
        for f, a in zip(fs, acc):
            f[finished] = a[done]
        keep = squarefree_so_far & (q > 1)
        n, m, p = n[keep], q[keep], next_p[keep]
        acc = [a[keep] for a in acc]
    return fs, d


def partial_sums(f: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Exact integer S(x) = sum_{n <= x} f(n) at the checkpoints."""
    return np.cumsum(f, dtype=np.int64)[grid]


def weighted_partial_sums(f: np.ndarray, d: np.ndarray, beta: str,
                          grid: np.ndarray) -> np.ndarray:
    """Correctly rounded sums of f(n) * w**d(n), with w = 1/(2 beta - 1).

    Counts f = +1 and f = -1 per (segment, d) with integer bincounts, then
    adds the float weights exactly as Fractions.  Each segment sum is rounded
    once, and so is each running total; that is the rounding of exact fsum.
    """
    w = 1.0 / (2.0 * float(Fraction(beta)) - 1.0)
    weights = w ** np.arange(int(d.max()) + 1, dtype=np.float64)
    n = np.flatnonzero(f)
    segment = np.searchsorted(grid, n, side="left")
    kinds = 2 * len(weights)
    key = (segment * kinds + 2 * d[n].astype(np.int64) +
           (f[n] > 0).astype(np.int64))
    counts = np.bincount(key, minlength=len(grid) * kinds)
    counts = counts.reshape(len(grid), len(weights), 2)
    exact_weights = [Fraction(float(x)) for x in weights]
    sums = np.empty(len(grid), dtype=np.float64)
    total = 0.0
    for i in range(len(grid)):
        seg = sum((int(counts[i, k, 1]) - int(counts[i, k, 0])) * wk
                  for k, wk in enumerate(exact_weights))
        total = float(Fraction(total) + Fraction(float(seg)))
        sums[i] = total
    return sums


def expected_row(seed: int, beta: str, weighted: bool, sums: np.ndarray,
                 grid: np.ndarray, window: tuple[float, float]) -> list:
    """The campaign.csv row fields that follow from the partial sums."""
    sumgrid = SumGrid(checkpoints=grid, sums=sums)
    fit = fit_growth_exponent(sumgrid, window)
    terminal = ratio_decade = ""
    b = Fraction(beta)
    if not weighted and Fraction(1, 2) < b < 1:
        stat = selberg_delange_ratio(parse_beta(beta), sumgrid)
        terminal = stat.terminal_ratio
        prev = np.flatnonzero(stat.checkpoints <= stat.checkpoints[-1] // 10)
        if len(prev) and stat.ratios[prev[-1]] != 0.0:
            ratio_decade = float(stat.ratios[-1] / stat.ratios[prev[-1]])
    return [seed, fit.alpha, fit.stderr, fit.points_used, fit.points_dropped,
            terminal, ratio_decade]


def parse_row(cells: list[str]) -> list:
    """campaign.csv cells back to numbers ("" stays "")."""
    seed, alpha, stderr, used, dropped, terminal, decade = cells
    return [int(seed), float(alpha), float(stderr), int(used), int(dropped),
            float(terminal) if terminal else "",
            float(decade) if decade else ""]


def check_seed(seed: int, betas: list[str], weighted: bool, limit: int,
               window: tuple[float, float],
               rows: dict[str, list[str]]) -> list[str]:
    """Mismatches between the oracle and the campaign rows of one seed.

    ``rows`` maps each beta to that seed's campaign.csv cells.  An empty
    list means every row field equals the oracle's bit for bit.
    """
    grid = checkpoint_grid(limit)
    fs, d = sign_functions(limit, seed, betas)
    problems = []
    for beta, f in zip(betas, fs):
        if weighted:
            sums = weighted_partial_sums(f, d, beta, grid)
        else:
            sums = partial_sums(f, grid)
        want = expected_row(seed, beta, weighted, sums, grid, window)
        got = parse_row(rows[beta])
        if got != want:  # exact: every field must match bit for bit
            problems.append(f"seed {seed} beta {beta}: row {got} != "
                            f"oracle {want}")
    return problems
