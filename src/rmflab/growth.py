"""Partial-sum experiments: growth exponents, ratio statistics, ensembles.

Partial sums of the sign series are exact 64-bit integers.  Weighted sums
carry float weights (2*beta-1)**-d(n), at most (2*beta-1)**-8 ~ 9.99 at
beta = 7/8 for X <= 10**8.  Both come from one kernel of exact signed counts
per (checkpoint segment, d(n)), read off the one table of
``sieve.squarefree_kinds``: plain sums add them up, weighted sums round
them once.

``coupled_sums`` is the one way from seeds to checkpoint sums.  Campaigns
and the growth experiments take their seeds LANES (8) at a time: one walk
over the multiples of the primes <= sqrt(X) writes a uint8 word per
integer whose bit k is seed k's flip parity over those primes, and one
bincount per block counts every lane.  Every n <= X has at most one prime
factor above sqrt(X), so the larger primes are not walked: their effect on
the counts is an exact integer correction from running counts of their
signs (``_large_prime_counts``), the split by largest prime factor used
for the Mertens function (Deleglise and Rivat, Experiment. Math. 5, 1996).
At X = 10**7 a 4-seed lane pass peaks at about 11 MiB traced, plain at
beta = 1/2 or weighted at 7/8: the 10 MB of words.  A test holds it below
24 MiB.

Checkpoints live on a geometric grid with ratio 10**(1/8), so every power
of ten is itself a checkpoint and log-log fits see evenly spaced abscissae.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, asdict

import numpy as np

from .dyadic import DyadicFraction
from .errors import DomainError, FitError, PreconditionError, RangeError
from .sampler import LANES, _lane_masks
from .sieve import MAX_KIND, _walk, squarefree_kinds
from .dirichlet import weight_factor

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
    ``sign_stable`` and ``CampaignReport.frac_ratio_positive`` count the raw
    sign R > 0, so they read False and 0.0 for 1/2 < beta < 1;
    Gamma(1 - 2*beta) * R estimates lambda(omega) and is positive.
    """

    checkpoints: np.ndarray
    ratios: np.ndarray
    terminal_ratio: float
    sign_stable: bool  # R > 0 at every checkpoint in the final decade


# Integers per bincount: it copies its int16 input to intp, 512 KiB per
# block, so the copy and the 128 KiB code block stay within L2.
_BLOCK = 2**16

# word pattern x lane -> +-1: lane k of pattern w reads (-1)**(bit k of w)
_LANE_SIGNS = 1 - 2 * (np.arange(1 << LANES)[:, None] >> np.arange(LANES) & 1)

# Large primes per running count of their masks: a lane's count stays below
# 2**16, so four lanes share a uint64 as 16-bit fields and never carry.
# _SPREAD[h, w] holds bit 4h + j of the mask w at bit 16j, for j < 4.
_COUNT_BLOCK = 2**16 - 1
_FIELDS = np.arange(0, 64, 16, dtype=np.uint64)
_SPREAD = (((np.arange(1 << LANES) >> np.arange(LANES)[:, None]) & 1)
           .reshape(LANES // 4, 4, -1).astype(np.uint64)
           << _FIELDS[:, None]).sum(axis=1, dtype=np.uint64)


def _segment_counts(kinds: np.ndarray, grid: np.ndarray, flips: np.ndarray,
                    lanes: int) -> np.ndarray:
    """C[lane, i, d], the exact sum of the lane's f(n) over
    grid[i-1] < n <= grid[i] with d(n) = d, for d <= MAX_KIND (grid[-1]
    read as 0), from the table ``kinds`` of ``sieve.squarefree_kinds``.

    Lane k's f(n) is (-1)**(d(n) + bit k of flips[n]) on squarefree n, and
    0 elsewhere.  Each block of at most _BLOCK integers in a segment is
    reduced by one bincount of the int16 code (kinds[n] + 1) << lanes |
    flips[n], built in place, so no full-length table is made: row 0 holds
    the n that are not squarefree, row d + 1 those with d(n) = d, signed by
    (-1)**d; a fixed sign table decodes the counts of every word pattern
    into every lane's.  ``grid`` must ascend (repeats allowed) within
    [0, len(kinds) - 1].
    """
    limit = len(kinds) - 1
    if np.any(np.diff(grid, prepend=0) < 0) or np.any(grid > limit):
        raise RangeError(f"grid must ascend within [0, {limit}]")
    # d(n) <= MAX_KIND = 8 keeps every code below 10 << 8, within int16
    rows, patterns = MAX_KIND + 2, 1 << lanes
    net = np.zeros((len(grid), rows * patterns), dtype=np.int64)
    block = np.empty(min(_BLOCK, limit), dtype=np.int16)
    prev = 0
    for i, x in enumerate(grid.tolist()):
        for lo in range(prev + 1, x + 1, _BLOCK):
            hi = min(lo + _BLOCK, x + 1)
            code = block[: hi - lo]
            np.add(kinds[lo:hi], 1, out=code)
            code <<= lanes
            code |= flips[lo:hi]
            net[i] += np.bincount(code, minlength=rows * patterns)
        prev = x
    net = net.reshape(len(grid), rows, patterns)[:, 1:]
    net[:, 1::2] *= -1  # mu(n) = (-1)**d(n)
    return (net @ _LANE_SIGNS[:patterns, :lanes]).transpose(2, 0, 1)


def _sums_from_counts(counts: np.ndarray, grid: np.ndarray,
                      w: float | None = None) -> SumGrid:
    """One lane's checkpoint sums from its counts C[i, d]: the exact
    cumulative sum of their totals, or with a weight factor ``w`` the sums
    of w**d(n) f(n).

    Each weighted segment is the exact sum of its signed counts times the
    float weights, rounded once by an int / int division, and joins the
    running total through fsum: the float that exact fsum over its terms
    gives.
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
        total = math.fsum([total, segment])
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


def _abel_terms(values: np.ndarray, X: int, s: complex, steps: bool):
    """The terms of the Abel summation identity, _ABEL_BLOCK integers at a
    time: f(n) n**-s for 1 <= n <= X, or with ``steps``
    S(m) (m**-s - (m+1)**-s) for 1 <= m < X, where S is carried across the
    blocks as int64."""
    S = 0
    for lo in range(1, X + 1, _ABEL_BLOCK):
        hi = min(lo + _ABEL_BLOCK, X + 1)
        # n**-s for the block's n and the one after it, up to X
        n = np.arange(lo, min(hi + 1, X + 1), dtype=np.float64)
        npow = np.exp(-s * np.log(n))
        if steps:
            partial = np.cumsum(values[lo:hi], dtype=np.int64)
            partial += S
            S = int(partial[-1])
            yield (partial[: len(n) - 1].astype(np.float64)
                   * (npow[:-1] - npow[1:]))
        else:
            yield values[lo:hi].astype(np.float64) * npow[: hi - lo]


def abel_consistency(values: np.ndarray, X: int, s: complex) -> float:
    """Residual of the finite Abel summation identity at s, for the series
    f(n) = values[n] (int8, index 0 unused).

    Compares sum_{n<=X} f(n) n**-s against
    S(X) X**-s + sum_{m<X} S(m) (m**-s - (m+1)**-s); the identity is exact,
    so the residual measures only floating-point noise.  Each real and
    imaginary sum is one fsum over its terms, block after block, so the
    memory stays within a few blocks at any X; fsum is correctly rounded,
    so the blocks do not change the result.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError(f"Re(s)={s.real} <= 0")
    if not 1 <= X <= len(values) - 1:
        raise RangeError(f"X={X} outside [1, {len(values) - 1}]")

    def fsum(part: str, steps: bool) -> float:
        # a memoryview hands fsum one float at a time, with no list per block
        return math.fsum(itertools.chain.from_iterable(
            memoryview(getattr(terms, part))
            for terms in _abel_terms(values, X, s, steps)))

    lhs_sum = complex(fsum("real", False), fsum("imag", False))
    S_X = np.float64(values[1: X + 1].sum(dtype=np.int64))
    boundary = S_X * np.exp(-s * np.log(np.array([X], dtype=np.float64)))[0]
    rhs = boundary + complex(fsum("real", True), fsum("imag", True))
    return abs(lhs_sum - rhs)


# ---------------------------------------------------------------------------
# Monte Carlo campaigns over seed ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignConfig:
    """One ensemble experiment: a beta, a limit, a fit window, many seeds."""

    beta_numerator: int  # DyadicFraction numerator (2**64 encodes beta = 1)
    limit: int
    seeds: tuple[int, ...]
    window: tuple[float, float]
    weighted: bool = False

    def beta(self) -> DyadicFraction:
        return DyadicFraction(self.beta_numerator)


@dataclass(frozen=True)
class SeedResult:
    seed: int
    alpha: float
    stderr: float
    points_used: int
    points_dropped: int
    terminal_ratio: float | None
    ratio_decade: float | None  # R(x_max) / R(x_max / 10)
    sign_stable: bool | None


@dataclass(frozen=True)
class CampaignReport:
    """Per-seed results and ensemble quantiles of one campaign.

    ``frac_ratio_positive`` is the share of seeds with raw R(X) > 0; it is
    0.0 for 1/2 < beta < 1, where R tends to a negative constant (see
    ``SelbergDelangeStat``).
    """

    config: CampaignConfig
    per_seed: tuple[SeedResult, ...]
    alpha_median: float
    alpha_q10: float
    alpha_q90: float
    frac_ratio_positive: float | None
    frac_ratio_decade_in_band: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def _large_prime_counts(kinds: np.ndarray, grid: np.ndarray,
                        primes: np.ndarray, masks: np.ndarray, split: int,
                        lanes: int) -> np.ndarray:
    """The large primes' part L[lane, i, d] of the counts C[lane, i, d]:
    what the primes q = primes[split:] > isqrt(limit) add to the counts of
    words that leave them out (``primes`` and ``masks`` as
    ``sampler._lane_masks`` returns them).

    A multiple n = m*q <= limit of such a q has m < q, so n is squarefree
    iff m is, and d(n) = d(m) + 1.  Words without q read lane k's f(n) as
    -f_k(m); the true f_k(m) f_k(q) is 2 f_k(m) more exactly when q is plus
    in lane k.  Up to a checkpoint x that adds
    2 f_k(m) * Pi_k(x // m) at d(m) + 1 for each squarefree
    m <= x // q_min, where Pi_k(y) counts lane k's plus primes in
    (isqrt(limit), y]; the segments' parts are the differences of those
    totals.  Pi_k is read off one running count of the masks per
    _COUNT_BLOCK primes, and f_k(m) off the words of m <= limit // q_min;
    at 10**7 that is about 8,000 (checkpoint, m) pairs.
    """
    limit = len(kinds) - 1
    large, large_masks = primes[split:], masks[split:]
    q_min = int(large[0])
    top = limit // q_min  # the largest cofactor m, below q_min
    small = int(np.searchsorted(primes, top, side="right"))
    words = _walk(primes[:small], masks[:small], top, np.bitwise_xor)
    ms = np.flatnonzero(kinds[: top + 1] >= 0)  # the squarefree m <= top
    d = kinds[ms]
    mu = 1 - 2 * (d[:, None] & 1)  # mu(m) = (-1)**d(m)
    signs = _LANE_SIGNS[words[ms], :lanes] * mu  # f_k(m)
    # pair j: checkpoint rows[j] with cofactor ms[cols[j]] <= x // q_min
    cuts = np.searchsorted(ms, grid // q_min, side="right")
    rows = np.repeat(np.arange(len(grid)), cuts)
    cols = np.arange(len(rows)) - np.repeat(np.cumsum(cuts) - cuts, cuts)
    ranks = np.searchsorted(large, grid[rows] // ms[cols], side="right")
    # plus[j, k] = Pi_k at pair j: lane k's plus primes in large[:rank]
    quads = -(-lanes // 4)
    plus = np.empty((len(ranks), 4 * quads), dtype=np.int64)
    order = np.argsort(ranks, kind="stable")
    sorted_ranks = ranks[order]
    passed = np.zeros(4 * quads, dtype=np.int64)
    for lo in range(0, len(large), _COUNT_BLOCK):
        block = large_masks[lo: lo + _COUNT_BLOCK]
        a, b = np.searchsorted(sorted_ranks, [lo, lo + len(block)],
                               side="right")
        # running counts at the pairs' ranks and at the block's end
        at = np.append(sorted_ranks[a:b] - lo - 1, len(block) - 1)
        running = np.cumsum(_SPREAD[:quads, block], axis=1)
        fields = running[:, at, None] >> _FIELDS & np.uint64(0xFFFF)
        counts = fields.transpose(1, 0, 2).reshape(len(at), -1).view(np.int64)
        plus[order[a:b]] = counts[:-1] + passed
        passed += counts[-1]
    totals = np.zeros((len(grid), MAX_KIND + 1, lanes), dtype=np.int64)
    np.add.at(totals, (rows, d[cols] + 1),  # d(m*q) = d(m) + 1
              2 * signs[cols] * plus[:, :lanes])
    return np.diff(totals, axis=0, prepend=0).transpose(2, 0, 1)


def _lane_counts(beta: DyadicFraction, seeds, limit: int,
                 kinds: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """C[lane, i, d] of ``_segment_counts`` for at most LANES seeds, from
    one walk over the primes <= isqrt(limit) that are plus in some lane.

    Every n <= limit has at most one prime factor above isqrt(limit), so
    the larger primes' effect is counted in closed form
    (``_large_prime_counts``; a grid's limit is at least 10, so there is
    such a prime), before the limit-long words exist, and added to the
    counts; every count is the exact integer the full walk gives.
    """
    primes, masks = _lane_masks(beta, seeds, limit)
    split = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    large = _large_prime_counts(kinds, grid, primes, masks, split,
                                len(seeds))
    keep = masks[:split] != 0
    words = _walk(primes[:split][keep], masks[:split][keep], limit,
                  np.bitwise_xor)
    counts = _segment_counts(kinds, grid, words, len(seeds))
    counts += large
    return counts


def coupled_sums(beta: DyadicFraction, limit: int, weighted: bool,
                 seeds) -> list[SumGrid]:
    """Every seed's checkpoint sums of f_beta, in seed order; the seeds
    share each walk over the prime multiples and each reduction, LANES at a
    time.

    Weighted sums weigh f_beta(n) by (2*beta-1)**-d(n).
    """
    w = weight_factor(beta) if weighted else None  # the weighted threshold
    grid = checkpoint_grid(limit)
    kinds = squarefree_kinds(limit)
    sums = []
    for at in range(0, len(seeds), LANES):
        counts = _lane_counts(beta, seeds[at: at + LANES], limit, kinds,
                              grid)
        sums += [_sums_from_counts(c, grid, w) for c in counts]
    return sums


def _seed_result(config: CampaignConfig, seed: int,
                 sums: SumGrid) -> SeedResult:
    """Fit one seed's sums and, for 1/2 < beta < 1 unweighted, its ratio."""
    beta = config.beta()
    fit = fit_growth_exponent(sums, config.window)
    terminal = ratio_decade = sign_stable = None
    if not config.weighted and 0.5 < float(beta) < 1.0:
        stat = selberg_delange_ratio(beta, sums)
        terminal = stat.terminal_ratio
        sign_stable = stat.sign_stable
        x_max = stat.checkpoints[-1]
        prev = np.flatnonzero(stat.checkpoints <= x_max // 10)
        if len(prev) and stat.ratios[prev[-1]] != 0.0:
            ratio_decade = float(stat.ratios[-1] / stat.ratios[prev[-1]])
    return SeedResult(seed=seed, alpha=fit.alpha, stderr=fit.stderr,
                      points_used=fit.points_used,
                      points_dropped=fit.points_dropped,
                      terminal_ratio=terminal, ratio_decade=ratio_decade,
                      sign_stable=sign_stable)


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


def monte_carlo_campaign(config: CampaignConfig) -> CampaignReport:
    """Run every seed and aggregate quantiles; deterministic in the seeds."""
    if len(config.seeds) < 1:
        raise PreconditionError("campaign needs at least one seed")
    sums = coupled_sums(config.beta(), config.limit, config.weighted,
                        config.seeds)
    results = [_seed_result(config, seed, grid)
               for seed, grid in zip(config.seeds, sums)]
    alphas = sorted(r.alpha for r in results)
    frac_pos = frac_band = None
    terminals = [r.terminal_ratio for r in results
                 if r.terminal_ratio is not None]
    if terminals:
        frac_pos = float(np.mean([t > 0 for t in terminals]))
        decades = [r.ratio_decade for r in results
                   if r.ratio_decade is not None]
        frac_band = float(np.mean([0.5 <= d <= 2.0 for d in decades])) \
            if decades else None
    return CampaignReport(
        config=config, per_seed=tuple(results),
        alpha_median=_median(alphas),
        alpha_q10=_quantile(alphas, 0.10),
        alpha_q90=_quantile(alphas, 0.90),
        frac_ratio_positive=frac_pos,
        frac_ratio_decade_in_band=frac_band,
    )
