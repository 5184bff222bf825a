import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (ISQRT_EDGE_LIMITS, abel_residual_unblocked,
                     build_sign_series, distinct_prime_counts, factor_summary,
                     fsum_weighted_sums, kinds_table, lane_flips,
                     mobius_sieve, per_seed_counts, segment_counts,
                     straddled_threshold)
import rmflab.growth as growth
from rmflab import (CampaignConfig, DomainError, DyadicFraction, FitError,
                    OmegaAssignment, PreconditionError, RangeError,
                    abel_consistency, checkpoint_grid, fit_growth_exponent,
                    monte_carlo_campaign, selberg_delange_ratio)
from rmflab.dirichlet import weight_factor
from rmflab.dyadic import HALF, ONE
from rmflab.growth import (LANES, SumGrid, _checkpoint_counts,
                           _checkpoint_tree, _isqrt, _median, _quantile,
                           _seed_result, _sums_from_counts, _tree,
                           coupled_sums)
from rmflab.sieve import _COUNT_LIMIT, primes_up_to

B34 = DyadicFraction.from_fraction(3, 2)
B78 = DyadicFraction.from_fraction(7, 3)
B1516 = DyadicFraction.from_fraction(15, 4)


def grid_from(x_min, x_max):
    xs = checkpoint_grid(x_max)
    return xs[xs >= x_min]


def test_checkpoint_grid_hits_powers_of_ten():
    grid = checkpoint_grid(10**6)
    for x in (10, 100, 10**3, 10**6):
        assert x in grid
    ratios = grid[1:] / grid[:-1].astype(float)
    assert ratios.max() < 1.5  # ~ 10**(1/8) = 1.3335


def one_lane_sums(beta, seed, limit, grid, weighted=False):
    """One seed's sums at any ascending checkpoints in [0, limit]: the
    recursion with a single lane, weighted by (2*beta-1)**-d(n) if asked."""
    grid = np.asarray(grid, dtype=np.int64)
    counts = _checkpoint_counts(_tree(limit, grid), beta, [seed])
    w = weight_factor(beta) if weighted else None
    return _sums_from_counts(counts[0], grid, w)


def test_partial_sums_mobius(mu_1e6, assignment_42):
    grid = np.array([1, 10, 100, 1000])
    sums = one_lane_sums(ONE, assignment_42.master_seed, 10**5, grid)
    # Mertens values, independent brute force over mu
    mert = [int(np.sum(mu_1e6[1: x + 1])) for x in grid]
    assert sums.sums.tolist() == mert
    assert sums.sums[1] == -1  # S(10)


def test_partial_sums_start_at_one(assignment_42):
    for beta in (HALF, B34, B78):
        sums = one_lane_sums(beta, assignment_42.master_seed, 10**5, [1])
        assert sums.sums[0] == 1


def test_partial_sums_segment_consistency(mu_1e6, assignment_42):
    series = build_sign_series(B34, assignment_42, 10**5, mu_1e6)
    grid = np.array([10, 20, 50, 100])
    sums = one_lane_sums(B34, assignment_42.master_seed, 10**5, grid)
    for i in range(1, len(grid)):
        seg = int(np.sum(series.values[grid[i - 1] + 1: grid[i] + 1]))
        assert sums.sums[i] - sums.sums[i - 1] == seg


def test_weighted_sums_brute_force(mu_1e6, spf_1e5, assignment_42):
    series = build_sign_series(B78, assignment_42, 10**5, mu_1e6)
    grid = np.array([10, 100])
    sums = one_lane_sums(B78, assignment_42.master_seed, 10**5, grid,
                         weighted=True)
    for i, x in enumerate(grid):
        brute = math.fsum(
            (4 / 3) ** factor_summary(n, spf_1e5).d * int(series.values[n])
            for n in range(1, x + 1))
        assert sums.sums[i] == pytest.approx(brute, abs=1e-12)


def test_weight_values():
    assert (4 / 3) ** 3 == pytest.approx(64 / 27)  # d(30) = 3 at beta = 7/8


def test_weighted_sums_threshold():
    with pytest.raises(PreconditionError):
        coupled_sums(B34, 10**4, True, [1])


def test_unit_weight_reduces_to_plain_sums(assignment_42):
    # with weight factor 1 every weight is 1, which must reproduce the exact
    # integer sums
    grid = checkpoint_grid(10**5)
    counts = _checkpoint_counts(_tree(10**5, grid), B78,
                                [assignment_42.master_seed])[0]
    wsums = _sums_from_counts(counts, grid, 1.0)
    plain = one_lane_sums(B78, assignment_42.master_seed, 10**5, grid)
    assert np.array_equal(wsums.sums, plain.sums.astype(np.float64))


@functools.lru_cache(maxsize=None)
def series_1e5(seed, beta_numerator):
    """f_beta at X = 10**5 for one seed, with the d(n) table."""
    series = build_sign_series(
        DyadicFraction(beta_numerator),
        OmegaAssignment(master_seed=seed), 10**5,
        mobius_sieve(10**5))
    return series, distinct_prime_counts(10**5)


def assert_sums_match_references(seed, beta, grid):
    """One lane's weighted sums equal the term-by-term fsum oracle bit for
    bit, and its plain sums the full int64 prefix of the independently
    built series, on an ascending grid."""
    series, om = series_1e5(seed, beta.numerator)
    want = fsum_weighted_sums(series.values, om, weight_factor(beta), grid)
    got = one_lane_sums(beta, seed, 10**5, grid, weighted=True)
    assert got.sums.tobytes() == want.tobytes()
    plain = one_lane_sums(beta, seed, 10**5, grid)
    assert plain.sums.dtype == np.int64
    assert np.array_equal(plain.sums,
                          np.cumsum(series.values, dtype=np.int64)[grid])


@pytest.mark.parametrize("beta", [B78, B1516])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sums_match_references_on_checkpoints(seed, beta):
    assert_sums_match_references(seed, beta, checkpoint_grid(10**5))


@settings(max_examples=60, deadline=None)
@given(seed=st.sampled_from([1, 2, 3]), beta=st.sampled_from([B78, B1516]),
       xs=st.lists(st.integers(1, 10**5), min_size=1, max_size=30),
       repeats=st.integers(1, 5))
def test_sums_match_references_on_drawn_grids(seed, beta, xs, repeats):
    # a leading 1 and at least one repeated checkpoint (an empty segment)
    grid = np.array([1] + sorted(xs + xs[:repeats]), dtype=np.int64)
    assert_sums_match_references(seed, beta, grid)


@pytest.mark.parametrize("grid", [[10, 100, 50], [10, 10**5 + 1], [-1, 10]])
def test_sums_reject_grids_out_of_order_or_range(grid):
    with pytest.raises(RangeError):
        _tree(10**5, np.array(grid))


def test_sum_layer_peak_memory_at_1e7():
    # one lane's counts and sums, with the tree built beforehand: 1.0 MiB
    # traced (1.3 MiB with a byte per pair for the node words, 2.6 MiB with
    # pair-length float64 buffers); a full-length int64 prefix or float64
    # weighted array would be 76 MiB
    limit = 10**7
    tree = _checkpoint_tree(limit)
    for w in (None, weight_factor(B78)):
        tracemalloc.start()
        try:
            _sums_from_counts(_checkpoint_counts(tree, B78, [1])[0],
                              tree.grid, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak / 2**20


def test_lane_pass_peak_memory_at_1e7():
    # 4 seeds from a cold tree, plain at beta 1/2 (nearly every prime is
    # plus in some lane) or weighted at 7/8: 1.57 MiB traced, the tree's
    # build with its prime counts (1.63 MiB with each node's first row,
    # 1.9 MiB with intp node arrays, 3.8 MiB with three arrays per pair,
    # 5.5 MiB while the tree sorted its pairs by x // m).  The per-seed
    # path peaked at 25.4 MiB per seed, and the flip words of the primes
    # <= isqrt(X) at 10.8 MiB
    limit = 10**7
    for beta, weighted in ((HALF, False), (B78, True)):
        _checkpoint_tree.cache_clear()
        tracemalloc.start()
        try:
            coupled_sums(beta, limit, weighted, (1, 2, 3, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, (float(beta), peak / 2**20)


def test_lane_pass_peak_memory_at_1e7_from_cold_primes():
    # as above, and no prime table is cached any more either: 1.57 MiB
    # traced, the tree's build, which makes no pair-length temporary.  Each
    # node's first row took it to 1.63 MiB, the intp node arrays to
    # 1.9 MiB, three arrays per pair to 3.8 MiB, its pair-length
    # temporaries to 5.5 MiB, and to 10.0 MiB all alive at once, and the
    # prime table up to X, which the campaigns no longer make, to 16.0 MiB
    limit = 10**7
    for beta, weighted in ((HALF, False), (B78, True)):
        _checkpoint_tree.cache_clear()
        tracemalloc.start()
        try:
            coupled_sums(beta, limit, weighted, (1, 2, 3, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (float(beta), peak / 2**20)


def test_lane_pass_peak_memory_at_1e7_with_the_tree_warm():
    # 4 seeds on a cached tree: 1.0 MiB traced, the lane group's hash
    # blocks and term blocks (1.1 MiB with a reused chunk copy of the hash
    # blocks, 1.4 MiB with a byte per pair for the node words).  Two
    # pair-length float64 buffers took it to 2.6 MiB, and a byte per
    # prime, with its int32 copy for np.add.reduceat, to 4.9 MiB
    limit = 10**7
    _checkpoint_tree(limit)
    for beta, weighted in ((HALF, False), (B78, True)):
        tracemalloc.start()
        try:
            coupled_sums(beta, limit, weighted, (1, 2, 3, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (float(beta), peak / 2**20)


def test_fit_exact_power_law():
    xs = grid_from(10**3, 10**7).astype(float)
    fit = fit_growth_exponent(SumGrid(xs.astype(np.int64), xs**0.5),
                              (10**3, 10**7))
    assert abs(fit.alpha - 0.5) < 1e-12
    assert fit.points_dropped == 0


def test_fit_log_corrected_law():
    xs = grid_from(10**5, 10**7).astype(float)
    sums = xs / np.log(xs) ** 1.5
    fit = fit_growth_exponent(SumGrid(xs.astype(np.int64), sums),
                              (10**5, 10**7))
    assert 0.85 <= fit.alpha <= 0.93


def test_fit_constant_is_flat():
    xs = grid_from(10**2, 10**6)
    fit = fit_growth_exponent(SumGrid(xs, np.full(len(xs), 7.0)),
                              (10**2, 10**6))
    assert abs(fit.alpha) < 1e-12


def test_fit_insufficient_points():
    xs = np.array([10, 100, 1000, 10000], dtype=np.int64)
    with pytest.raises(FitError):
        fit_growth_exponent(SumGrid(xs, xs.astype(float)), (10, 10000))


def test_selberg_delange_exact_inversion():
    xs = grid_from(10**2, 10**6)
    c = 0.37
    sums = c * xs / np.log(xs.astype(float)) ** 1.5
    stat = selberg_delange_ratio(B34, SumGrid(xs, sums))
    assert np.allclose(stat.ratios, c, atol=1e-12)
    assert stat.terminal_ratio == pytest.approx(c)
    assert stat.sign_stable


def test_selberg_delange_domain():
    xs = np.array([10, 100], dtype=np.int64)
    sg = SumGrid(xs, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        selberg_delange_ratio(ONE, sg)
    with pytest.raises(DomainError):
        selberg_delange_ratio(HALF, sg)


def test_abel_consistency_residuals(mu_1e6, assignment_42):
    series34 = build_sign_series(B34, assignment_42, 10**5, mu_1e6)
    assert abel_consistency(series34.values, 10**5, 1.5) < 1e-10
    mobius = build_sign_series(ONE, assignment_42, 10**5, mu_1e6)
    assert abel_consistency(mobius.values, 10**4, 2) < 1e-10


def test_abel_trivial_X1(mu_1e6, assignment_42):
    series = build_sign_series(B34, assignment_42, 10**5, mu_1e6)
    assert abel_consistency(series.values, 1, 1.5) == 0.0


@pytest.mark.parametrize("X", [0, -3, 10**5 + 1])
def test_abel_rejects_X_outside_the_series(X, mu_1e6, assignment_42):
    series = build_sign_series(B34, assignment_42, 10**5, mu_1e6)
    with pytest.raises(RangeError):
        abel_consistency(series.values, X, 1.5)


def test_abel_brute_force_small(mu_1e6, assignment_42):
    # independent term-by-term evaluation of both sides at X = 100
    series = build_sign_series(B34, assignment_42, 10**5, mu_1e6)
    s = 1.5 + 2j
    X = 100
    lhs = sum(int(series.values[n]) * n ** -s for n in range(1, X + 1))
    S = lambda m: int(np.sum(series.values[1: m + 1]))
    rhs = S(X) * X ** -s + sum(
        S(m) * (m ** -s - (m + 1) ** -s) for m in range(1, X))
    assert abs(lhs - rhs) < 1e-12
    assert abel_consistency(series.values, X, s) < 1e-12


@pytest.mark.parametrize("block", [1, 7, growth._ABEL_BLOCK])
def test_abel_blocks_give_the_unblocked_residual(monkeypatch, block, mu_1e6,
                                                 assignment_42):
    # fsum is correctly rounded, so splitting the terms into blocks must
    # leave every residual bit for bit as the full-length evaluation's
    monkeypatch.setattr(growth, "_ABEL_BLOCK", block)
    series = build_sign_series(B34, assignment_42, 10**5, mu_1e6)
    limits = [1, 2, 7, 8, 15, 1000] if block < 100 else \
        [block - 1, block, block + 1, 10**5]
    for X in limits:
        for s in (1.5, 2, 1.2 + 5j, 0.7 - 3j):
            got = abel_consistency(series.values, X, s)
            assert got == abel_residual_unblocked(series.values, X, s), (X, s)


def test_abel_peak_memory_at_1e6(mu_1e6):
    # blocks of 2**16 integers, each at most 128 bytes per integer of arrays
    # and float lists, and at most two blocks' worth alive at once: 16 MiB
    # at any X.  The full-length evaluation traced 83.9 MiB here
    tracemalloc.start()
    try:
        abel_consistency(mu_1e6, 10**6, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20


def test_campaign_single_seed_matches_per_seed_oracle():
    cfg = CampaignConfig(beta_numerator=B34.numerator, limit=10**5,
                         seeds=(9,), window=(10**3, 10**5))
    report = monte_carlo_campaign(cfg)
    grid = checkpoint_grid(cfg.limit)
    single = _seed_result(cfg, 9, _sums_from_counts(
        per_seed_counts(B34, cfg.limit, 9, grid), grid))
    assert report.per_seed == (single,)
    assert report.alpha_median == single.alpha


def test_campaign_deterministic():
    cfg = CampaignConfig(beta_numerator=HALF.numerator, limit=10**5,
                         seeds=(1, 2, 3), window=(10**3, 10**5))
    r1 = json.dumps(monte_carlo_campaign(cfg).to_dict(), sort_keys=True)
    r2 = json.dumps(monte_carlo_campaign(cfg).to_dict(), sort_keys=True)
    assert r1 == r2


def test_campaign_requires_seeds():
    cfg = CampaignConfig(beta_numerator=HALF.numerator, limit=10**4,
                         seeds=(), window=(10**2, 10**4))
    with pytest.raises(PreconditionError):
        monte_carlo_campaign(cfg)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
def test_campaign_quantiles_match_numpy(alphas):
    xs = sorted(alphas)
    for q in (0.10, 0.90):
        assert _quantile(xs, q) == np.quantile(alphas, q)
    assert _median(xs) == np.median(alphas)


# 17 seeds; 0 and 2**64 - 1 are the ends of the seed range
LANE_SEEDS = (0, *range(1, 16), 2**64 - 1)


@functools.lru_cache(maxsize=None)
def oracle_counts(beta_numerator, limit, seed):
    beta = DyadicFraction(beta_numerator)
    return per_seed_counts(beta, limit, seed, checkpoint_grid(limit))


def coupled_counts(beta, limit, weighted, seeds):
    """Each seed's counts C[i, k] as ``coupled_sums`` sums them, in seed
    order, and its sums: the counts of each chunk's ``_checkpoint_counts``."""
    seen = []
    kernel = growth._checkpoint_counts

    def recording_kernel(*args):
        counts = kernel(*args)
        seen.extend(counts)
        return counts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(growth, "_checkpoint_counts", recording_kernel)
        sums = coupled_sums(beta, limit, weighted, seeds)
    return seen, sums


def assert_lanes_match_oracles(beta, limit, weighted, seeds,
                               per_seed=True):
    """Every lane's counts equal the integer-by-integer oracle's over each
    chunk's flip words and, if asked, the per-seed oracle's; its sums are
    the sums of those counts."""
    got, sums = coupled_counts(beta, limit, weighted, seeds)
    assert len(got) == len(sums) == len(seeds)
    grid = checkpoint_grid(limit)
    kinds = kinds_table(limit)
    want = np.concatenate([
        segment_counts(kinds, grid, lane_flips(beta, chunk, limit),
                       len(chunk))
        for chunk in (seeds[at: at + LANES]
                      for at in range(0, len(seeds), LANES))])
    w = weight_factor(beta) if weighted else None
    for seed, counts, lane_want, lane_sums in zip(seeds, got, want, sums):
        assert np.array_equal(counts, lane_want), (len(seeds), seed)
        if per_seed:
            assert np.array_equal(
                counts, oracle_counts(beta.numerator, limit, seed)), seed
        assert lane_sums.sums.tobytes() == \
            _sums_from_counts(lane_want, grid, w).sums.tobytes()


# Thresholds with more than 31 bits after the point, which take the hash's
# last xorshift: an odd 64-bit numerator, 1 - 2**-40, and one of seed 0's
# numerators among the primes <= 1000 that a compare before that step
# would sign -1, above the weighted sums' least beta 1/2 + 1/(2 sqrt 2)
STRADDLED = straddled_threshold(LANE_SEEDS[0], 168, 7 * 2**61)


@pytest.mark.parametrize("beta, weighted", [
    (HALF, False), (B34, False), (ONE, False), (B78, True), (B1516, True),
    (DyadicFraction(0xD1B54A32D192ED03), False),
    (DyadicFraction.from_fraction(2**40 - 1, 40), True),
    (STRADDLED, False), (STRADDLED, True)])
@pytest.mark.parametrize("limit", [x for x in ISQRT_EDGE_LIMITS if x >= 10]
                         + [11, 12, 97, 1000])
def test_lane_counts_match_per_seed_oracle(limit, beta, weighted):
    # 1, 7, 8, 9 and 17 seeds: one lane, part of a word, a full word, and
    # one and two seeds past a full word
    for n in (1, 7, 8, 9, 17):
        assert_lanes_match_oracles(beta, limit, weighted, LANE_SEEDS[:n])


@pytest.mark.parametrize("limit", [10**6 + 3, 10**7])
def test_lane_counts_match_segment_oracle_at_large_limits(limit):
    # checkpoint segments many of the oracle's blocks long; 9 seeds fill one
    # word and start a second
    for beta, weighted in ((HALF, False), (B78, True)):
        assert_lanes_match_oracles(beta, limit, weighted, LANE_SEEDS[:9],
                                   per_seed=False)


def tree_values(tree):
    """Each node's m, from its parent and its largest prime."""
    primes = primes_up_to(tree.limit)
    m = np.ones(len(tree.parents), dtype=np.int64)
    for lo, hi in zip(tree.levels[1:-1], tree.levels[2:]):
        m[lo:hi] = m[tree.parents[lo:hi]] * primes[tree.tops[lo:hi]]
    return m


@pytest.mark.parametrize("limit", [10, 26, 1000, 10**4])
def test_tree_pairs_each_checkpoint_with_the_nodes_below_it(limit,
                                                            factors_1e5):
    # brute force from the factor table: the nodes are the squarefree m with
    # m P+(m) < limit (P+(1) = 1), and x pairs with m iff m P+(m) < x.  The
    # grid holds every m P+(m) and its neighbours, where the cut turns
    def top(m):
        return max(factors_1e5[m].distinct_primes, default=1)

    squarefree = [m for m in range(1, limit + 1)
                  if factors_1e5[m].is_squarefree]
    keys = {m: m * top(m) for m in squarefree if m * top(m) < limit}
    grid = np.array(sorted({0, 1, 2, limit} | {
        min(k + e, limit) for k in keys.values() for e in (-1, 0, 1)}))
    tree = _tree(limit, grid)
    m = tree_values(tree)
    assert sorted(m.tolist()) == sorted(keys)
    d = np.repeat(np.arange(len(tree.levels) - 1), np.diff(tree.levels))
    assert d.tolist() == [factors_1e5[v].d for v in m.tolist()]
    # row i pairs with the prefix order[:cuts[i]], the nodes with
    # m P+(m) < grid[i], stored at sum(cuts[:i]) on in upper
    assert len(tree.cuts) == len(grid) and sum(tree.cuts) == len(tree.upper)
    assert sorted(tree.order.tolist()) == list(range(len(m)))
    ordered = [keys[v] for v in m[tree.order].tolist()]
    assert ordered == sorted(ordered)
    assert np.array_equal(tree.kind, d[tree.order] + 1)
    assert tree.kind.dtype == np.uint8
    primes = primes_up_to(limit)
    assert tree.ranks[0] == 0 and np.all(np.diff(tree.ranks) > 0)
    assert len(tree.ranks) - 1 <= np.iinfo(tree.upper.dtype).max
    at = 0
    for x, cut in zip(grid.tolist(), tree.cuts):
        row = m[tree.order[:cut]]
        assert sorted(row.tolist()) == sorted(v for v, key in keys.items()
                                              if key < x)
        ranks = tree.ranks[tree.upper[at: at + cut]]
        assert np.array_equal(ranks, np.searchsorted(primes, x // row,
                                                     side="right"))
        at += cut
    # per node: pi(P+(m)) among the ranks
    tops = np.array([top(v) for v in m.tolist()])
    assert np.array_equal(tree.ranks[tree.tops + 1],
                          np.searchsorted(primes, tops, side="right"))


def test_tree_keeps_no_pair_array_but_upper_at_1e8():
    # beside upper's 4 bytes a pair, parents, tops and order take 4 bytes a
    # node each and kind 1; the ranks and the grid, far fewer than the
    # nodes, fit in 3 more.  A per-node first row took 4 bytes a node more,
    # and as intp the node arrays 4 more each; each row's own node and bin
    # arrays took 16 bytes a pair more, and an intp upper 4
    tree = _checkpoint_tree(10**8)
    pairs, nodes = len(tree.upper), len(tree.order)
    assert (pairs, nodes) == (433_601, 80_349)
    held = sum(v.nbytes for v in vars(tree).values()
               if isinstance(v, np.ndarray))
    assert held <= pairs * tree.upper.itemsize + 16 * nodes, held
    assert len(tree.ranks) - 1 <= np.iinfo(tree.upper.dtype).max


def test_rank_indices_fit_the_pair_dtype_up_to_the_count_limit():
    # the ranks index distinct pi(v) over the quotient set: the v <= root,
    # and x // m for m <= x // (root + 1) per checkpoint and the limit
    limit = _COUNT_LIMIT
    root = math.isqrt(limit)
    quotients = root + 1 + sum(x // (root + 1) for x in
                               checkpoint_grid(limit).tolist() + [limit])
    dtype = _tree(10, checkpoint_grid(10)).upper.dtype
    assert quotients - 1 <= np.iinfo(dtype).max


@pytest.mark.parametrize("limit", [1009, 10007, 99991])
def test_lane_counts_where_a_cofactor_quotient_is_a_large_prime(limit):
    # limit itself is a prime above isqrt(limit), so x // m lands on a large
    # prime at the last checkpoint for m = 1, and at others for other m
    grid = checkpoint_grid(limit)
    root = math.isqrt(limit)
    primes = primes_up_to(limit)
    large = set(primes[primes > root].tolist())
    hits = {(x, m) for x in grid.tolist() for m in range(1, x // root + 1)
            if x // m in large}
    assert (limit, 1) in hits and len(hits) > 3
    for beta, weighted in ((HALF, False), (B34, False), (B78, True)):
        for n in (1, 8, 9):
            assert_lanes_match_oracles(beta, limit, weighted,
                                       LANE_SEEDS[:n])


@pytest.mark.parametrize("chunk, block", [(1, 1), (2, 1), (4, 2), (6, 3),
                                          (8, 8), (12, 4)])
def test_lane_counts_at_chunk_edges(monkeypatch, chunk, block):
    # hash blocks of a few ranks put tree ranks on their edges, and
    # pi(1000) = 168 is a multiple of every block here.  Every tree's ranks
    # end at pi(limit), past every block: they are every pi(v) over the
    # quotients, the limit among them, whether or not the grid ends there.
    # The 11 node primes (those <= 31) span several blocks for every block
    # size but 12, and end on a block's edge at size 1; the pair blocks of
    # a few nodes cut the rows too
    import rmflab.sampler as sampler

    monkeypatch.setattr(sampler, "_HASH_BLOCK", chunk)
    monkeypatch.setattr(growth, "_PAIR_BLOCK", block)
    on_edges = at_count = 0
    for limit in (1000, 1009):
        for grid in (checkpoint_grid(limit), checkpoint_grid(limit)[:-1]):
            tree = _tree(limit, grid)
            assert int(tree.tops.max()) + 1 == 11
            on_edges += np.count_nonzero(tree.ranks[1:] % chunk == 0)
            at_count += tree.ranks[-1] == tree.count
            for beta in (HALF, B34):
                got = _checkpoint_counts(tree, beta, LANE_SEEDS[:3])
                for k, seed in enumerate(LANE_SEEDS[:3]):
                    want = per_seed_counts(beta, limit, seed, grid)
                    assert np.array_equal(got[k], want), (limit, seed)
    assert _tree(1000, checkpoint_grid(1000)).count % chunk == 0
    assert on_edges and at_count == 4


def test_lane_pass_hashes_each_seed_once(monkeypatch):
    # one hash stream per seed gives both its node words and its Pi_k; at
    # beta = 1 no prime is plus and nothing is hashed
    import rmflab.sampler as sampler

    started = []
    mixed_blocks = sampler._mixed_blocks

    def counting(seed, *args):
        started.append(seed)
        return mixed_blocks(seed, *args)

    monkeypatch.setattr(sampler, "_mixed_blocks", counting)
    tree = _tree(10**4, checkpoint_grid(10**4))
    _checkpoint_counts(tree, B34, LANE_SEEDS[:3])
    assert started == list(LANE_SEEDS[:3])
    started.clear()
    _checkpoint_counts(tree, ONE, LANE_SEEDS[:3])
    assert started == []


@pytest.mark.parametrize("seeds", [[1, 1.5], [1, True], [-1], [2**64]],
                         ids=["1.5", "True", "-1", "2**64"])
def test_coupled_sums_reject_seeds_that_are_not_uint64_integers(
        monkeypatch, seeds):
    # refused before the tree is built, at beta = 1 (nothing hashed) too;
    # a beta below 1/2 is refused first
    def refuse(limit):
        raise AssertionError("the tree was built")

    monkeypatch.setattr(growth, "_checkpoint_tree", refuse)
    for beta in (HALF, ONE):
        with pytest.raises(DomainError, match="seeds"):
            coupled_sums(beta, 1000, False, seeds)
    quarter = DyadicFraction.from_fraction(1, 2)
    with pytest.raises(PreconditionError, match="below 1/2"):
        coupled_sums(quarter, 1000, False, seeds)


@pytest.mark.parametrize("block", [1, 2, 5, 16, 100])
def test_lane_counts_at_node_block_edges(monkeypatch, block):
    # blocks of a few nodes cut the rows of the tree's quotients and of the
    # lane pass's terms everywhere, at widths block // lanes (at least 1);
    # the shorter grid leaves nodes that pair with no row
    monkeypatch.setattr(growth, "_PAIR_BLOCK", block)
    unpaired = 0
    for limit in (1000, 1009):
        for grid in (checkpoint_grid(limit), checkpoint_grid(limit)[:-3]):
            tree = _tree(limit, grid)
            unpaired += len(tree.order) - tree.cuts[-1]
            for beta in (HALF, ONE):
                for n in (1, 3, 8):
                    got = _checkpoint_counts(tree, beta, LANE_SEEDS[:n])
                    for k, seed in enumerate(LANE_SEEDS[:n]):
                        want = per_seed_counts(beta, limit, seed, grid)
                        assert np.array_equal(got[k], want), (limit, seed)
    assert unpaired > 0


def test_mobius_lane_gives_published_mertens_values():
    # the beta = 1 lane is the Mertens function M(x); M(10**k) for
    # k = 1..8 are the published values (OEIS A084237)
    sums = coupled_sums(ONE, 10**8, False, (1,))[0]
    powers = 10 ** np.arange(1, 9)
    at = np.searchsorted(sums.checkpoints, powers)
    assert np.array_equal(sums.checkpoints[at], powers)
    assert sums.sums[at].tolist() == \
        [-1, 1, 2, -23, -48, 212, 1037, 1928]


def test_lane_sums_at_1e8_keep_their_recorded_values():
    # S(x) for seed 1 at the powers of ten up to 10**8, recorded with the
    # full hash compared on every beta, the tree's pairs sorted by x // m
    # and pair-length lower terms: plain at 3/4 and 1/2, weighted at 7/8
    powers = 10 ** np.arange(1, 9)
    plain34, = coupled_sums(B34, 10**8, False, (1,))
    plain12, = coupled_sums(HALF, 10**8, False, (1,))
    weighted78, = coupled_sums(B78, 10**8, True, (1,))
    at = np.searchsorted(plain34.checkpoints, powers)
    assert plain34.sums[at].tolist() == \
        [-1, -5, -30, -133, -580, -3632, -34255, -290682]
    assert plain12.sums[at].tolist() == \
        [5, 5, 26, -223, -824, -2592, 6035, 16556]
    assert weighted78.sums[-1] == float.fromhex("-0x1.57506482f1ee4p+11")
    assert weighted78.sums[at[3]] == 64.35802469135791


@pytest.mark.parametrize("limit", [10, 26, 1000, 10**5])
def test_lane_pass_walks_no_prime_above_isqrt_limit(monkeypatch, limit):
    # coupled_sums walks no prime at all, builds no sign series and makes
    # no prime table above isqrt(limit): the recursion reads no table of
    # length limit or pi(limit), and the walks, the series and the full
    # prime table belong to the abel sweep alone
    import rmflab.sampler as sampler
    import rmflab.sieve as sieve

    def refuse(*args):
        raise AssertionError("a table of length limit")

    for module, name in ((sampler, "_sign_series"), (sieve, "_walk"),
                         (sieve, "_walker"), (sampler, "_walk")):
        monkeypatch.setattr(module, name, refuse)

    def at_most_isqrt(table):
        def guarded(bound):
            assert bound <= math.isqrt(limit), (table.__name__, bound)
            return table(bound)
        return guarded

    for module, name in ((sieve, "primes_up_to"), (sampler, "primes_up_to"),
                         (growth, "primes_up_to"), (sieve, "_prime_blocks"),
                         (sieve, "_odd_blocks")):
        monkeypatch.setattr(module, name,
                            at_most_isqrt(getattr(module, name)))
    _checkpoint_tree.cache_clear()
    for weighted, beta in ((False, HALF), (True, B78)):
        assert len(coupled_sums(beta, limit, weighted, LANE_SEEDS[:9])) == 9


def test_isqrt_matches_math_isqrt():
    # squares and their neighbours, where a float root may round across an
    # integer, up to 2**52
    rng = np.random.default_rng(0)
    roots = np.concatenate([np.arange(3000), 2**26 - np.arange(1, 3000),
                            rng.integers(0, 2**26, 10**4)])
    v = (roots * roots)[:, None] + np.arange(-2, 3)
    v = v[(v >= 0) & (v < 2**52)]
    assert _isqrt(v).tolist() == [math.isqrt(x) for x in v.tolist()]


def test_lane_counts_follow_the_seeds():
    seeds = LANE_SEEDS + (16,)
    forward, _ = coupled_counts(B34, 10**4, False, seeds)
    backward, _ = coupled_counts(B34, 10**4, False, seeds[::-1])
    assert all(np.array_equal(a, b) for a, b in zip(forward, backward[::-1]))
    repeated, _ = coupled_counts(B34, 10**4, False, (5, 5, 9, 5))
    assert np.array_equal(repeated[0], repeated[1])
    assert np.array_equal(repeated[0], repeated[3])
    assert not np.array_equal(repeated[0], repeated[2])


def test_campaign_matches_one_seed_campaigns_across_lane_words():
    cfg = CampaignConfig(beta_numerator=B34.numerator, limit=10**4,
                         seeds=tuple(range(20, 31)), window=(10**2, 10**4))
    report = monte_carlo_campaign(cfg)
    assert report.per_seed == tuple(
        monte_carlo_campaign(dataclasses.replace(cfg, seeds=(s,))).per_seed[0]
        for s in cfg.seeds)
