import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (ISQRT_EDGE_LIMITS, build_sign_series, mobius_sieve,
                     prime_signs, seeded_numerators, straddled_threshold)
from rmflab import (DomainError, DyadicFraction, OmegaAssignment,
                    PreconditionError, RangeError, euler_F, primes_up_to,
                    zeta_truncated)
from rmflab.dyadic import HALF, ONE
from rmflab.growth import _checkpoint_counts, _tree
from rmflab.sampler import (_HASH_BLOCK, _plus_blocks, _sign_series,
                            signs_from_numerators)
from rmflab.sieve import _WALK_BLOCK


def test_omega_deterministic():
    a1 = OmegaAssignment(master_seed=7)
    a2 = OmegaAssignment(master_seed=7)
    assert np.array_equal(a1.numerators(100), a2.numerators(100))
    assert np.array_equal(a1.numerators(100), a1.numerators(1229)[:100])
    assert np.array_equal(a1.numerators(1229), a2.numerators(1229))


@pytest.mark.parametrize("seed", [1.5, 2.0, 1000.5, True, False, "3", None,
                                  -1, 2**64])
def test_omega_rejects_seeds_that_are_not_uint64_integers(seed):
    # a float start loses precision: 1.5, 2.0 and 1000.5 hashed like seed 2,
    # and True like seed 1, so a manifest named seeds that were never used
    with pytest.raises(DomainError, match="master_seed"):
        OmegaAssignment(master_seed=seed)


@pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(5),
                                  np.uint8(7)])
def test_omega_takes_numpy_integer_seeds_as_ints(seed):
    a = OmegaAssignment(master_seed=seed)
    assert type(a.master_seed) is int and a.master_seed == int(seed)
    assert np.array_equal(a.numerators(1229),
                          seeded_numerators(int(seed), 1229))


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_numerators_match_the_whole_array_hash(seed):
    # lengths around one hash block, and all 78,498 primes <= 10**6
    a = OmegaAssignment(master_seed=seed)
    want = seeded_numerators(seed, 78498)
    for n in (0, 1, 2**16 - 1, 2**16, 2**16 + 1, 78498):
        got = a.numerators(n)
        assert got.dtype == np.uint64 and np.array_equal(got, want[:n]), n


@pytest.mark.parametrize("start", [0, 1, 2**15 - 1, 2**15, 10**6 + 7])
def test_numerator_blocks_start_at_any_rank(start):
    # the products hash each sieve block from its first rank: the blocks
    # of ranks start .. start + count - 1 are the whole-array hash's
    a = OmegaAssignment(master_seed=2**64 - 3)
    want = seeded_numerators(a.master_seed, start + 2**15 + 5)[start:]
    for count in (0, 1, 2**15, 2**15 + 5):
        blocks = [(lo, z.copy()) for lo, z in a.numerator_blocks(count, start)]
        assert [lo for lo, _ in blocks] == list(range(0, count, 2**15))
        got = np.concatenate([np.empty(0, np.uint64)] +
                             [z for _, z in blocks])
        assert np.array_equal(got, want[:count]), count


def test_signs_at_beta_one_skip_the_hash(monkeypatch, assignment_42):
    def no_hash(self, count, start=0):
        raise AssertionError("hashed at beta = 1")

    monkeypatch.setattr(OmegaAssignment, "numerator_blocks", no_hash)
    # the streamed signs are -1 at every prime, so F_1 = 1 / zeta_P exactly
    for P in (1, 2, 29, 10**5):
        assert euler_F(ONE, assignment_42, P, 2).log_value == \
            -zeta_truncated(P, 2).log_value


def test_omega_empirical_mean(assignment_42):
    nums = assignment_42.numerators(9592)
    mean = float(np.mean(nums / 2.0**64))
    n_primes = len(nums)
    tol = 4 * (1 / math.sqrt(12)) / math.sqrt(n_primes)
    assert abs(mean - 0.5) <= tol


def test_distinct_seeds_differ_almost_everywhere():
    a = OmegaAssignment(master_seed=1)
    b = OmegaAssignment(master_seed=2)
    frac_diff = np.mean(a.numerators(1229) != b.numerators(1229))
    assert frac_diff > 0.99


def test_sign_at_prime_cases(assignment_42):
    # right-open convention: -1 on [0, beta), +1 on [beta, 1)
    for beta in (HALF, DyadicFraction.from_fraction(3, 2)):
        b = beta.numerator
        nums = np.array([0, b - 1, b, b + 1], dtype=np.uint64)
        assert signs_from_numerators(beta, nums).tolist() == [-1, -1, 1, 1]
    ends = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
    assert signs_from_numerators(ONE, ends).tolist() == [-1, -1, -1]
    with pytest.raises(PreconditionError):
        euler_F(DyadicFraction.from_fraction(1, 3), assignment_42, 10**3, 2)


def test_prime_sign_frequency(assignment_42):
    n = len(primes_up_to(10**6))
    for k, m in ((1, 1), (3, 2), (7, 3), (15, 4)):
        beta = DyadicFraction.from_fraction(k, m)
        signs = prime_signs(beta, assignment_42, n)
        freq = np.mean(signs == -1)
        b = float(beta)
        tol = 4 * math.sqrt(b * (1 - b) / n)
        assert abs(freq - b) <= tol, (b, freq)


def test_prime_sign_mean_beta34(assignment_42):
    beta = DyadicFraction.from_fraction(3, 2)
    signs = prime_signs(beta, assignment_42, 78498).astype(float)  # pi(10**6)
    n = len(signs)
    tol = 4 * math.sqrt(4 * 0.75 * 0.25 / n)
    assert abs(signs.mean() - (1 - 2 * 0.75)) <= tol


def test_beta_one_series_is_mobius(mu_1e6, assignment_42):
    series = build_sign_series(ONE, assignment_42, 10**6, mu_1e6)
    assert np.array_equal(series.values[1:], mu_1e6[1: 10**6 + 1])
    counts = _checkpoint_counts(_tree(10**6, np.array([10])), ONE,
                                [assignment_42.master_seed])
    assert counts[0, 0].sum() == -1  # Mertens(10)


def test_series_multiplicativity_at_30(mu_1e6, assignment_42):
    beta = DyadicFraction.from_fraction(3, 2)
    s = build_sign_series(beta, assignment_42, 10**5, mu_1e6)
    v = s.values
    assert v[30] == v[2] * v[3] * v[5]
    assert v[12] == 0
    assert v[1] == 1


def test_series_support_matches_squarefree(mu_1e6, assignment_42,
                                           factors_1e5):
    beta = DyadicFraction.from_fraction(7, 3)
    s = build_sign_series(beta, assignment_42, 10**5, mu_1e6)
    for n in range(1, 10**5 + 1):
        expected_zero = not factors_1e5[n].is_squarefree
        assert (s.values[n] == 0) == expected_zero


@pytest.fixture(scope="module")
def sign_products(assignment_42, factors_1e5):
    """beta numerator -> f(n) for n <= 10**5: the product of the signs of the
    primes of each squarefree n, and 0 elsewhere (index 0 holds 0)."""
    @functools.cache
    def products(beta_numerator):
        primes = primes_up_to(10**5)
        signs = prime_signs(DyadicFraction(beta_numerator), assignment_42,
                            len(primes))
        sign = dict(zip(primes.tolist(), signs.tolist()))
        return [0] + [math.prod(sign[p] for p in f.distinct_primes)
                      if f.is_squarefree else 0 for f in factors_1e5[1:]]
    return products


@pytest.mark.parametrize("beta", [HALF, DyadicFraction.from_fraction(3, 2),
                                  DyadicFraction.from_fraction(7, 3)])
@pytest.mark.parametrize("limit", ISQRT_EDGE_LIMITS)
def test_series_is_the_product_of_prime_signs(limit, beta, assignment_42,
                                              factors_1e5, sign_products):
    mobius = np.array([0] + [f.mobius for f in factors_1e5[1: limit + 1]],
                      dtype=np.int8)
    s = build_sign_series(beta, assignment_42, limit, mobius)
    assert s.values.tolist() == sign_products(beta.numerator)[: limit + 1]
    series = _sign_series(beta, assignment_42.master_seed, limit)
    assert series.tolist() == s.values.tolist()


# the edges of the walk and of the squares: every small limit (the least
# prime above isqrt(limit) is 2, 3, 5, 7, ...), 2**k - 1 .. 2**k + 1, the
# walk's blocks and the wheel's period
SERIES_LIMITS = sorted({*range(1, 301),
                        *(2**k + e for k in range(1, 22) for e in (-1, 0, 1)),
                        _WALK_BLOCK - 1, _WALK_BLOCK, _WALK_BLOCK + 1,
                        2 * _WALK_BLOCK + 7, 30029, 30030, 30031,
                        *ISQRT_EDGE_LIMITS})


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("beta", [
    HALF, DyadicFraction.from_fraction(3, 2),
    DyadicFraction.from_fraction(7, 3), ONE,
    DyadicFraction.from_fraction(2**40 - 1, 40)], ids=float)
def test_sign_series_matches_the_oracle_at_the_edges(beta, seed):
    # f_beta(n) does not depend on the limit, so every limit's series is a
    # prefix of the oracle's at the largest one
    top = max(SERIES_LIMITS)
    want = build_sign_series(
        beta, OmegaAssignment(master_seed=seed), top,
        mobius_sieve(top)).values
    for limit in SERIES_LIMITS:
        got = _sign_series(beta, seed, limit)
        assert got.dtype == np.int8 and len(got) == limit + 1
        assert np.array_equal(got, want[: limit + 1]), limit


def test_sign_series_peak_memory_at_1e7():
    # the series takes 1 byte per integer, the primes 8 bytes each and the
    # minus-signed ones 8 bytes again: 17.0 MiB traced at 3/4 and 19.4 MiB
    # at 1, where the walk's cofactor batches are longest
    for beta in (DyadicFraction.from_fraction(3, 2), ONE):
        tracemalloc.start()
        try:
            _sign_series(beta, 1, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, (float(beta), peak / 2**20)


# thresholds with at most 31 bits after the point, compared before the
# hash's last xorshift, and with more, which take the full hash
SHORT_BETAS = [HALF, DyadicFraction.from_fraction(3, 2),
               DyadicFraction.from_fraction(7, 3),
               DyadicFraction.from_fraction(2**31 - 1, 31)]
LONG_BETAS = [DyadicFraction(0xD1B54A32D192ED03),
              DyadicFraction.from_fraction(2**40 - 1, 40),
              DyadicFraction(2**63 + 1)]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       count=st.integers(0, 3 * _HASH_BLOCK + 5), data=st.data())
def test_plus_blocks_match_signs_on_full_numerators(seed, count, data):
    # the blocks run over ranks 0 .. count - 1 in order, and their flags are
    # the +1 signs of the whole-array hash, whichever way they were compared.
    # A drawn rank's own numerator as the threshold puts that rank on its
    # edge, where a compare before the last xorshift errs half the time
    nums = seeded_numerators(seed, count)
    betas = SHORT_BETAS + LONG_BETAS
    if count:
        edge = int(nums[data.draw(st.integers(0, count - 1), label="rank")])
        betas += [DyadicFraction(edge), DyadicFraction(edge + 1)]
    beta = data.draw(st.sampled_from(betas), label="beta")
    got = [(lo, plus.copy()) for lo, plus in _plus_blocks(beta, seed, count)]
    assert [lo for lo, _ in got] == list(range(0, count, _HASH_BLOCK))
    flags = np.concatenate([np.zeros(0, bool)] + [p for _, p in got])
    want = signs_from_numerators(beta, nums) == 1
    assert flags.dtype == bool and np.array_equal(flags, want)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_plus_blocks_sign_a_straddled_rank_plus(seed):
    # a threshold equal to a rank's numerator, with the value before the
    # last xorshift below it: the full hash signs that rank +1
    beta = straddled_threshold(seed, 1000, 2**63)
    flags = next(_plus_blocks(beta, seed, 1000))[1]
    nums = seeded_numerators(seed, 1000)
    assert flags[np.flatnonzero(nums == beta.numerator)].all()
    assert np.array_equal(flags, nums >= np.uint64(beta.numerator))


def test_plus_blocks_skip_the_last_xorshift_only_below_32_bits(
        monkeypatch):
    # a threshold of at most 31 bits compares before the last xorshift, and
    # the hash's last right shift by 31 never runs; any other takes it
    shifts = []
    right_shift = np.right_shift

    def counting(z, by, **kw):
        shifts.append(int(by))
        return right_shift(z, by, **kw)

    import rmflab.sampler as sampler
    monkeypatch.setattr(sampler.np, "right_shift", counting)
    for beta in SHORT_BETAS + LONG_BETAS:
        shifts.clear()
        list(_plus_blocks(beta, 5, 2 * _HASH_BLOCK))
        assert (31 in shifts) == (beta in LONG_BETAS), float(beta)


def test_series_prefix_property(mu_1e6, assignment_42):
    # the recursion with one lane on a dense grid: every segment is one
    # integer
    beta = DyadicFraction.from_fraction(3, 2)
    s = build_sign_series(beta, assignment_42, 10**5, mu_1e6)
    grid = np.arange(1, 2001)
    counts = _checkpoint_counts(_tree(10**5, grid), beta,
                                [assignment_42.master_seed])
    assert np.array_equal(counts[0].sum(axis=1), s.values[1:2001])


def test_series_coverage_error(mu_1e6):
    a = OmegaAssignment(master_seed=1)
    with pytest.raises(RangeError, match="mobius table shorter"):
        build_sign_series(HALF, a, 10**4, mu_1e6[: 10**4])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 300), st.integers(2, 300))
def test_series_multiplicative_on_coprime_pairs(a, b):
    if math.gcd(a, b) != 1:
        return
    mu = mobius_sieve(10**5)
    assignment = OmegaAssignment(master_seed=5)
    s = build_sign_series(DyadicFraction.from_fraction(3, 2), assignment,
                          10**5, mu)
    assert s.values[a * b] == s.values[a] * s.values[b]


def test_coupling_monotone(assignment_42):
    # the signs at beta1 < beta2 differ exactly where beta1 <= omega < beta2
    nums = assignment_42.numerators(9592)
    b12 = HALF
    b34 = DyadicFraction.from_fraction(3, 2)
    b78 = DyadicFraction.from_fraction(7, 3)
    for lo, hi in ((b12, b34), (b34, b78), (b12, b78)):
        differ = prime_signs(lo, assignment_42, 9592) != \
            prime_signs(hi, assignment_42, 9592)
        between = (nums >= np.uint64(lo.numerator)) & \
            (nums < np.uint64(hi.numerator))
        assert np.array_equal(differ, between)
        assert differ.any()


def test_coupling_monotone_all_dyadic_level4_pairs(assignment_42):
    # a -1 at beta1 forces a -1 at every beta2 >= beta1
    betas = [DyadicFraction.from_fraction(k, 4) for k in range(8, 17)]
    signs = [prime_signs(b, assignment_42, 9592) for b in betas]
    for i, s1 in enumerate(signs):
        for s2 in signs[i:]:
            assert np.all((s1 != -1) | (s2 == -1))
