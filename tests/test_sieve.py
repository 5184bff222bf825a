import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import (ISQRT_EDGE_LIMITS, build_spf, distinct_prime_counts,
                     factor_summary, kinds_table, mobius_sieve,
                     multiples_walk, prime_pi)
from rmflab import (ConfigurationError, DyadicFraction, H_eval,
                    IdentityEvaluator, OmegaAssignment, RangeError, euler_F,
                    exp_form_F, primes_up_to)
from rmflab import cli, growth, sieve
from rmflab.dyadic import ONE
from rmflab.sampler import _sign_series


def eratosthenes_oracle(limit):
    """Independent boolean sieve used only as a test oracle."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p:: p] = bytes(len(flags[p * p:: p]))
    return [n for n in range(limit + 1) if flags[n]]


def kind_by_trial_division(n):
    """d(n) if n is squarefree, else -1."""
    d = 0
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return -1
            d += 1
        p += 1
    if m > 1:
        d += 1
    return d


def mu_by_trial_division(n):
    k = kind_by_trial_division(n)
    return 0 if k < 0 else (-1) ** k


def test_build_spf_small_values():
    t = build_spf(10)
    assert t.spf[4] == 2
    assert t.spf[9] == 3
    assert t.spf[7] == 7


def test_spf_prime_count_1e6_matches_eratosthenes():
    t = build_spf(10**6)
    count = int(np.count_nonzero(
        t.spf[2:] == np.arange(2, 10**6 + 1, dtype=np.uint32)))
    assert count == 78498
    oracle = eratosthenes_oracle(10**4)
    assert t.primes()[: len(oracle)].tolist()[:100] == oracle[:100]


def test_spf_of_even_primorial_is_two():
    # 510510 = 2*3*5*7*11*13*17; smallest factor of any even number is 2
    t = build_spf(600000)
    assert t.spf[510510] == 2


def test_spf_range_errors():
    with pytest.raises(ConfigurationError):
        build_spf(1)
    with pytest.raises(ConfigurationError):
        build_spf(10**8 + 1)


def test_factor_summary_examples(spf_1e5):
    f30 = factor_summary(30, spf_1e5)
    assert f30.distinct_primes == (2, 3, 5)
    assert f30.d == 3 and f30.is_squarefree and f30.mobius == -1
    f4 = factor_summary(4, spf_1e5)
    assert not f4.is_squarefree and f4.mobius == 0
    f1 = factor_summary(1, spf_1e5)
    assert f1.d == 0 and f1.mobius == 1 and f1.is_squarefree


def test_factor_summary_invariants(spf_1e5):
    for n in (2, 12, 97, 360, 2310, 99991):
        f = factor_summary(n, spf_1e5)
        prod = math.prod(f.distinct_primes)
        assert n % prod == 0
        assert f.is_squarefree == (prod == n)
        assert f.mobius == (0 if not f.is_squarefree else (-1) ** f.d)
    with pytest.raises(RangeError):
        factor_summary(10**5 + 1, spf_1e5)


def test_prime_table_is_read_only():
    with pytest.raises(ValueError):
        primes_up_to(100)[0] = 4


def record_sieve_walks(monkeypatch):
    """The primes of each blocked walk (``sieve._walker``) started from now
    on."""
    walks = []
    walker = sieve._walker

    def recording_walker(primes):
        walks.append(primes)
        return walker(primes)

    monkeypatch.setattr(sieve, "_walker", recording_walker)
    return walks


def test_plain_and_weighted_runs_at_one_limit_build_one_tree(monkeypatch,
                                                             tmp_path):
    # the tree depends on the limit alone, and the sums walk no prime
    walks = record_sieve_walks(monkeypatch)
    trees = []
    build = growth._tree

    def recording_tree(limit, grid):
        trees.append(limit)
        return build(limit, grid)

    monkeypatch.setattr(growth, "_tree", recording_tree)
    growth._checkpoint_tree.cache_clear()
    for i, (kind, beta) in enumerate((("growth", "3/4"),
                                      ("weighted-growth", "7/8"),
                                      ("growth", "1/2"))):
        cli.run(cli.ExperimentConfig(kind=kind, beta=beta, limit=10**4,
                                     seeds=[1, 2],
                                     outdir=str(tmp_path / str(i))))
    assert trees == [10**4] and walks == []


# the segmented sieve's block edges: k blocks of _SIEVE_BLOCK odd slots end
# at k * 2**21.  At k = 6, 3547**2 lies 852 slots before the edge, so
# 3547's next multiple is carried across it
SIEVE_EDGE_LIMITS = [
    *(k * 2 * sieve._SIEVE_BLOCK + e for k in (1, 2, 6) for e in range(-1, 4)),
    *(3547**2 + e for e in (-1, 0, 1))]


@pytest.fixture(scope="module")
def primes_to_sieve_edges():
    return build_spf(max(SIEVE_EDGE_LIMITS)).primes()


def test_prime_table_follows_the_limit(primes_to_sieve_edges):
    # each new limit must get its own table, never a cached one of another
    # limit.  The odd-only sieve's edges: 2 in slot 0, each odd p crossing
    # out from p*p, and the blocks' edges
    every = primes_to_sieve_edges
    for limit in (10**4, 100, 10**4, 1, *range(41), *ISQRT_EDGE_LIMITS,
                  *SIEVE_EDGE_LIMITS):
        primes = primes_up_to(limit)
        assert primes.tolist() == every[every <= limit].tolist(), limit
        assert primes.dtype == np.int64 and not primes.flags.writeable


def assert_prime_blocks(limit, want):
    """sieve._prime_blocks(limit) streams ``want``, the primes <= limit,
    one sieve block at a time, each with the rank of its first prime."""
    blocks = list(sieve._prime_blocks(limit))
    slots = (limit + 1) // 2 if limit >= 2 else 0  # the odd numbers, 1 on
    assert len(blocks) == -(-slots // sieve._SIEVE_BLOCK)
    ranks = [rank for rank, _ in blocks]
    lengths = [len(primes) for _, primes in blocks]
    assert ranks == np.cumsum([0] + lengths)[:-1].tolist()
    got = np.concatenate([np.empty(0)] + [p for _, p in blocks])
    assert got.dtype == np.float64 and np.array_equal(got, want), limit


def test_prime_blocks_stream_the_table_with_their_ranks(
        primes_to_sieve_edges):
    # the products' stream: a block per 2**20 odd slots, none kept
    every = primes_to_sieve_edges
    for limit in (0, 1, 2, 3, 100, *ISQRT_EDGE_LIMITS, *SIEVE_EDGE_LIMITS):
        assert_prime_blocks(limit, every[every <= limit])
    # refused before any block is sieved
    blocks = sieve._prime_blocks(sieve._COUNT_LIMIT + 1)
    with pytest.raises(ConfigurationError, match=str(sieve._COUNT_LIMIT)):
        next(blocks)


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 9, 100, *ISQRT_EDGE_LIMITS,
                                   *SIEVE_EDGE_LIMITS])
def test_prime_counts_match_the_table(limit, primes_to_sieve_edges):
    # repeats, y < 2, y = limit and the ys next to the blocks' edges, by
    # the sieve's oracle and by the quotient recurrence with the ys as grid
    primes = primes_to_sieve_edges[primes_to_sieve_edges <= limit]
    edges = [k * 2 * sieve._SIEVE_BLOCK + e for k in (1, 2, 6)
             for e in range(-2, 3)]
    ys = np.sort(np.concatenate([
        [0, 0, 1, 1, 2, 2, 3, limit, limit], edges,
        np.random.default_rng(limit).integers(0, limit + 1, 300)]))
    ys = ys[ys <= limit]
    got = prime_pi(limit, ys)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.searchsorted(primes, ys, side="right"))
    assert len(prime_pi(limit, ys[:0])) == 0
    values, counts, _ = sieve._prime_counts(limit, ys)
    assert counts.dtype == np.int64
    assert np.all(np.isin(ys, values))
    assert np.array_equal(counts, np.searchsorted(primes, values,
                                                  side="right"))


@pytest.mark.parametrize("block", [1, 2, 3, 16, 45])
def test_segmented_sieve_at_every_block_edge(monkeypatch, block, spf_1e5):
    # blocks of a few slots put each p*p, and each carried multiple, on
    # every side of an edge; a p above the block skips whole blocks.  The
    # oracle's prime counts in parts of a block, from one slot to the whole
    # block, put every y's cut on every side of a part's edge
    monkeypatch.setattr(sieve, "_SIEVE_BLOCK", block)
    every = spf_1e5.primes()
    for limit in (*range(60), 288, 289, 290, 361, 3001):
        want = every[every <= limit]
        assert np.array_equal(primes_up_to(limit), want), limit
        assert_prime_blocks(limit, want)
        ys = np.arange(limit + 1)
        for part in {1, 2, 7, block}:
            monkeypatch.setattr(oracles, "PI_BLOCK", part)
            assert np.array_equal(
                prime_pi(limit, ys),
                np.searchsorted(want, ys, side="right")), (limit, part)


def assert_quotient_counts(limit, grid):
    """_prime_counts(limit, grid) holds every x // m, x in grid or
    x = limit, ascending and distinct, each with pi as the oracle counts,
    and the slot of each x // m above isqrt(limit) holds its index."""
    values, counts, slots = sieve._prime_counts(limit,
                                                np.asarray(grid, np.int64))
    root = math.isqrt(limit)
    assert np.array_equal(values[: root + 1], np.arange(root + 1))
    assert np.all(np.diff(values) > 0) and values[-1] == max(limit, root)
    # the x // m <= isqrt(x) are among 0..root; the others have m <= isqrt(x)
    quotients = np.concatenate([np.zeros(1, np.int64)] + [
        x // np.arange(1, math.isqrt(x) + 2) for x in [*grid, limit] if x])
    assert np.all(np.isin(quotients, values))
    assert np.array_equal(counts, prime_pi(limit, values)), limit
    # x's slots follow the slots of the checkpoints before it, m = 1 first
    want = np.concatenate([np.zeros(0, np.int64)] + [
        x // np.arange(1, x // (root + 1) + 1) for x in [*grid, limit]])
    assert np.array_equal(values[slots], want), limit


# p**3 - 1, p**3 and p**3 + 1 move the last prime the recurrence takes one
# at a time, and p*p - 1 .. p*p + 1 isqrt(limit)
PHASE_EDGE_LIMITS = sorted({p**3 + e for p in (2, 3, 5, 7, 11, 13, 47, 97)
                            for e in (-1, 0, 1)} | set(ISQRT_EDGE_LIMITS))


@pytest.mark.parametrize("limit", PHASE_EDGE_LIMITS)
def test_quotient_counts_at_phase_edges(limit):
    grid = growth.checkpoint_grid(limit) if limit >= 10 else [limit]
    assert_quotient_counts(limit, grid)
    assert_quotient_counts(limit, [])


@settings(max_examples=60, deadline=None)
@given(limit=st.integers(0, 2 * 10**5), data=st.data())
def test_quotient_counts_on_drawn_grids(limit, data):
    # repeats, 0, 1 and limit itself among the checkpoints
    xs = data.draw(st.lists(st.integers(0, limit), max_size=12), label="xs")
    extra = data.draw(st.lists(st.sampled_from([0, min(1, limit), limit]),
                               max_size=4), label="extra")
    grid = sorted(xs + xs[:3] + extra)
    assert_quotient_counts(limit, grid)


@pytest.mark.parametrize("limit, grid", [(0, [1]), (10, [3, 11]),
                                         (10**4, [5, 2]), (10**4, [-1, 7])])
def test_quotient_counts_reject_grids_out_of_order_or_range(limit, grid):
    # a checkpoint above the limit would put a quotient above it too
    with pytest.raises(RangeError, match=f"within \\[0, {limit}\\]"):
        sieve._prime_counts(limit, np.array(grid))


@pytest.mark.parametrize("block", [1, 2, 7, 100])
def test_quotient_counts_at_every_pair_block_edge(monkeypatch, block):
    # pair blocks of a few pairs cut between every run, and one run longer
    # than the block makes a block of its own
    monkeypatch.setattr(sieve, "_PAIR_BLOCK", block)
    for limit in (1000, 1331, 10**4, 10**5 + 3):
        assert_quotient_counts(limit, growth.checkpoint_grid(limit))


def test_quotient_counts_give_published_prime_counts():
    # pi(10**k) for k = 1..10 (OEIS A006880), from one grid and one limit
    # each
    want = [4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534,
            455052511]
    powers = 10 ** np.arange(1, 11)
    values, counts, _ = sieve._prime_counts(10**10, powers)
    assert counts[np.searchsorted(values, powers)].tolist() == want
    for k in range(1, 9):
        values, counts, _ = sieve._prime_counts(10**k, [])
        assert values[-1] == 10**k and counts[-1] == want[k - 1], k


def test_quotient_counts_peak_memory_at_1e7():
    # the segmented sieve's count traced 2.5 MiB here, its 1 MiB block and
    # its reductions' casts
    grid = growth.checkpoint_grid(10**7)
    primes_up_to(math.isqrt(10**7))
    tracemalloc.start()
    try:
        sieve._prime_counts(10**7, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, peak / 2**20


# the wheel's edges (its largest prime, one period of 2*3*5*7*11*13), and
# one and two blocks of the blocked walk
WALK_LIMITS = [1, 2, 13, 14, 30029, 30030, 30031, sieve._WALK_BLOCK - 1,
               sieve._WALK_BLOCK, sieve._WALK_BLOCK + 1,
               2 * sieve._WALK_BLOCK + 7]


@pytest.mark.parametrize("limit", WALK_LIMITS)
@pytest.mark.parametrize("drop", [(), (2,), (3, 7), (2, 5, 11, 13),
                                  (2, 3, 5, 7, 11, 13)])
def test_walk_matches_the_unblocked_walk(limit, drop):
    # primes as a seed's minus signs keep them: some of 2..13 may be
    # dropped, and a random half of the rest
    primes = primes_up_to(limit)
    primes = primes[~np.isin(primes, drop)]
    for keep in (np.ones(len(primes), dtype=bool),
                 np.random.default_rng(limit).random(len(primes)) < 0.5):
        ones = np.ones(np.count_nonzero(keep), dtype=np.int8)
        got = sieve._walk(primes[keep], limit)
        assert got.dtype == np.int8
        assert np.array_equal(got, multiples_walk(primes[keep], ones, limit,
                                                  np.bitwise_xor))


def test_prime_table_rejects_limits_above_max():
    with pytest.raises(ConfigurationError, match=str(sieve.MAX_LIMIT)):
        primes_up_to(sieve.MAX_LIMIT + 1)
    with pytest.raises(ConfigurationError, match=str(sieve.MAX_LIMIT)):
        _sign_series(ONE, 1, sieve.MAX_LIMIT + 1)
    # the campaigns count the primes up to the limit without a table
    with pytest.raises(ConfigurationError, match=str(sieve._COUNT_LIMIT)):
        sieve._prime_counts(sieve._COUNT_LIMIT + 1, [2])
    with pytest.raises(ConfigurationError, match=str(sieve._COUNT_LIMIT)):
        growth.coupled_sums(DyadicFraction.from_fraction(3, 2),
                            sieve._COUNT_LIMIT + 1, False, (1,))
    # the products stream the primes up to the stream's cap, and the
    # identity keeps bytes per prime up to the table's; the assignment,
    # hashed at every rank, sets no cap of its own
    a = OmegaAssignment(master_seed=1)
    for product, beta in ((euler_F, DyadicFraction.from_fraction(3, 2)),
                          (exp_form_F, DyadicFraction.from_fraction(3, 2)),
                          (H_eval, DyadicFraction.from_fraction(15, 4))):
        with pytest.raises(ConfigurationError,
                           match=str(sieve._COUNT_LIMIT)):
            product(beta, a, sieve._COUNT_LIMIT + 1, 2)
    with pytest.raises(ConfigurationError, match=str(sieve.MAX_LIMIT)):
        IdentityEvaluator(1, a, sieve.MAX_LIMIT + 1)


def test_mobius_first_ten():
    assert mobius_sieve(10)[1:].tolist() == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_mobius_agrees_with_factor_summary(factors_1e5):
    mu = mobius_sieve(10**5)
    want = np.array([mu_by_trial_division(n) for n in range(1, 1001)])
    assert np.array_equal(mu[1:1001], want)
    # exhaustive against the spf-based factorization
    fs = np.array([f.mobius for f in factors_1e5[1:]], dtype=np.int8)
    assert np.array_equal(mu[1:], fs)


@pytest.mark.parametrize("limit", ISQRT_EDGE_LIMITS)
def test_sieve_matches_factorization_at_isqrt_edges(limit, factors_1e5):
    # the last limit is 10**5: every n <= 10**5 is checked
    facts = factors_1e5[1: limit + 1]
    assert kinds_table(limit).tolist() == \
        [-1] + [f.d if f.is_squarefree else -1 for f in facts]
    assert mobius_sieve(limit).tolist() == [0] + [f.mobius for f in facts]
    assert distinct_prime_counts(limit).tolist() == [0] + [f.d for f in facts]
    # every prime is minus at beta = 1, where f is mu
    assert _sign_series(ONE, 1, limit).tolist() == \
        [0] + [f.mobius for f in facts]


def test_max_kind_bounds_the_prime_factors_up_to_max_limit():
    # the product of the first MAX_KIND primes is the least n with
    # d(n) = MAX_KIND; one more prime takes it past the largest limit of
    # the checkpoint sums, which the tables' limit does not pass:
    # 2*3*...*29 = 6,469,693,230 <= 10**11 < 2*3*...*31 = 200,560,490,130
    first = primes_up_to(100)[: sieve.MAX_KIND + 1].tolist()
    assert math.prod(first[:-1]) <= sieve._COUNT_LIMIT < math.prod(first)
    assert (sieve.MAX_KIND, sieve._COUNT_LIMIT) == (10, 10**11)
    assert math.prod(first) == 200_560_490_130
    assert sieve.MAX_LIMIT == 10**8 <= sieve._COUNT_LIMIT


@pytest.mark.parametrize("limit", [1, 2, 4, 8, 9, 10, 26, 1000, 10**5])
def test_sieve_walks_no_prime_above_isqrt_limit(monkeypatch, limit):
    # the blocked walk takes only the primes up to isqrt(limit): a larger
    # prime divides at most isqrt(limit) integers, which go by cofactor
    walks = record_sieve_walks(monkeypatch)
    _sign_series(ONE, 1, limit)
    top = math.isqrt(limit)
    assert [w.tolist() for w in walks] == \
        [[p for p in primes_up_to(limit).tolist() if p <= top]]


def test_sieve_matches_trial_division_at_1e7():
    # f is mu at beta = 1; 9,699,690 = 2*3*5*...*19 has the most distinct
    # prime factors of any n <= 10**7
    limit = 10**7
    mu = _sign_series(ONE, 1, limit)
    q_min = next(q for q in range(math.isqrt(limit) + 1, limit)
                 if kind_by_trial_division(q) == 1)
    ns = [9_699_690, *(2**k + e for k in range(1, 24) for e in (-1, 1))]
    for m in (*range(1, 31), *range(limit // q_min - 11, limit // q_min + 1)):
        # m times the least prime above isqrt(limit) and the largest
        # prime <= limit // m
        top = next(q for q in range(limit // m, 0, -1)
                   if kind_by_trial_division(q) == 1)
        ns += [m * q_min, m * top]
    assert max(ns) <= limit
    assert [int(mu[n]) for n in ns] == [mu_by_trial_division(n) for n in ns]


def test_squarefree_density_1e6(mu_1e6):
    density = np.count_nonzero(mu_1e6[1:]) / 10**6
    assert 0.6076 <= density <= 0.6083  # ~ 6/pi^2


def test_mobius_at_primes(mu_1e6):
    for p in primes_up_to(10**4):
        assert mu_1e6[p] == -1


def test_mobius_multiplicative_on_coprime_pairs(rng, mu_1e6):
    a = rng.integers(1, 1000, size=4 * 10**4)
    b = rng.integers(1, 1000, size=4 * 10**4)
    cop = np.array([math.gcd(int(x), int(y)) == 1 for x, y in zip(a, b)])
    a, b = a[cop][:10**4], b[cop][:10**4]
    assert len(a) == 10**4
    assert np.array_equal(mu_1e6[a * b], mu_1e6[a] * mu_1e6[b])


def test_distinct_prime_counts():
    om = distinct_prime_counts(10**6)
    assert om[1] == 0 and om[2] == 1 and om[30] == 3 and om[510510] == 7
    # primorial bound: 8 primes already exceed 10**6
    assert int(om.max()) == 7 <= 9
