import ast
import cmath
import itertools
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (H_table, euler_F_table, exact_partials_fsum,
                     exp_form_table, exp_form_tail_concatenated, fsum_terms,
                     identity_residual_oracle, plus_views_whole, prime_signs,
                     weighted_euler_G, zeta_table)
from rmflab import (DomainError, DyadicFraction, H_eval, IdentityEvaluator,
                    IetSpec, OmegaAssignment, PreconditionError,
                    WEIGHT_BETA_THRESHOLD, abel_consistency, euler_F,
                    exp_form_F, identity_residual, primes_up_to,
                    weight_factor, zeta_truncated)
from rmflab import dirichlet, sampler, sieve
from rmflab.cli import ExperimentConfig, run
from rmflab.dyadic import HALF, ONE
from rmflab.sampler import signs_from_numerators

B34 = DyadicFraction.from_fraction(3, 2)
B78 = DyadicFraction.from_fraction(7, 3)


@dataclass(frozen=True)
class FixedOmega:
    """Test double: every prime gets the same omega numerator."""

    num: int

    def numerators(self, count):
        return np.full(count, self.num, dtype=np.uint64)

    def numerator_blocks(self, count, start=0):
        yield 0, self.numerators(count)


def test_zeta_truncated_single_prime():
    z = zeta_truncated(2, 2)
    assert abs(z.value - 4 / 3) < 1e-15


def test_zeta_truncated_basel():
    z = zeta_truncated(10**6, 2)
    assert abs(z.value - math.pi**2 / 6) < 1e-6


def test_zeta_truncated_raises_domain_error_where_it_overflows():
    # log zeta_P(0.001) at P = 10**5 is about 43,900, past a float's exp: a
    # bare OverflowError used to escape, which the CLI reads as exit code 1
    with pytest.raises(DomainError,
                       match=re.escape("s=(0.001+0j), P=100000")):
        zeta_truncated(10**5, 0.001)


def test_zeta_reciprocal_of_mobius_product(assignment_42):
    z = zeta_truncated(10**5, 2)
    f1 = euler_F(ONE, assignment_42, 10**5, 2)
    assert abs(z.value * f1.value - 1) < 1e-12


def test_euler_F_beta1_matches_direct_product(assignment_42):
    ev = euler_F(ONE, assignment_42, 10**5, 2)
    p = primes_up_to(10**5).astype(float)
    direct = np.prod(1 - p**-2.0)
    assert abs(ev.value - direct) < 1e-14
    assert abs(ev.value - 6 / math.pi**2) < 1e-5


def test_euler_F_single_prime_plus_sign():
    # omega_2 at the top of the grid, beta = 1/2 -> sign +1 at p = 2
    a = FixedOmega(num=2**64 - 1)
    ev = euler_F(HALF, a, 2, 2)
    assert abs(ev.value - 1.25) < 1e-15


def test_euler_F_degenerate_all_minus():
    # omega = 0 everywhere gives sign -1 for every beta >= 1/2
    a = FixedOmega(num=0)
    for beta in (HALF, B34, ONE):
        ev = euler_F(beta, a, 10**3, 1.5)
        z = zeta_truncated(10**3, 1.5)
        assert abs(ev.value * z.value - 1) < 1e-12


def test_euler_domain_error():
    a = FixedOmega(num=0)
    with pytest.raises(DomainError):
        euler_F(HALF, a, 10**2, complex(-0.2, 3))


def test_log_exp_self_consistency(assignment_42):
    for s in (1.5, 2 + 10j, 0.8 + 3j):
        ev = euler_F(B34, assignment_42, 10**4, s)
        assert abs(ev.value - cmath.exp(ev.log_value)) < 1e-12


def test_conjugate_symmetry(assignment_42):
    s = 1.3 + 7j
    ev = euler_F(B34, assignment_42, 10**4, s)
    ev_conj = euler_F(B34, assignment_42, 10**4, s.conjugate())
    assert abs(ev_conj.value - ev.value.conjugate()) < 1e-12


def test_identity_residual_examples(assignment_42):
    for seed in (1, 2, 42):
        a = OmegaAssignment(master_seed=seed)
        assert identity_residual(1, a, 10**4, 1.5) < 1e-10
    assert identity_residual(3, assignment_42, 10**4, 2 + 10j) < 1e-10


def test_identity_residual_degenerate_fixed_region():
    # every omega below 1/2: T acts trivially, both sides telescope to zeta
    a = FixedOmega(num=12345)
    assert identity_residual(2, a, 10**4, 1.5) < 1e-12


def test_identity_residual_domain():
    a = FixedOmega(num=0)
    with pytest.raises(PreconditionError):
        identity_residual(1, a, 10**3, 0.9)
    # still computable outside the stated domain when asked to
    assert identity_residual(1, a, 10**3, 0.9, strict_domain=False) < 1e-10


ORACLE_POINTS = (1.5, complex(1.1, 10), complex(2, -3.7), 3.0,
                 complex(0.7, 2), 0.9)


def test_identity_residual_matches_product_oracle_bitwise():
    # one evaluator per (seed, level, P), called at every point
    checked = nonzero = 0
    for seed in (1, 7, 42):
        a = OmegaAssignment(master_seed=seed)
        for level in range(1, 9):
            for P in (10**4, 3000) if level <= 6 else (3000,):
                evaluator = IdentityEvaluator(level, a, P)
                for s in ORACLE_POINTS:
                    got = evaluator.residual(s, strict_domain=False)
                    assert got == identity_residual_oracle(level, a, P, s), \
                        (seed, level, P, s)
                    checked += 1
                    nonzero += got != 0.0
    # the residuals are rounding noise, but noise that pins the float path
    assert nonzero > checked // 4


def test_identity_residual_oracle_level8_and_fixed_omega():
    a = OmegaAssignment(master_seed=5)
    for s in (1.5, complex(2, -10)):
        assert identity_residual(8, a, 10**4, s) == \
            identity_residual_oracle(8, a, 10**4, s)
    for num in (0, 12345, 2**63 + 2**61 + 99, 2**64 - 1):
        fixed = FixedOmega(num=num)
        for level in (1, 3, 6):
            evaluator = IdentityEvaluator(level, fixed, 10**3)
            for s in (1.5, complex(1.2, -4), complex(0.8, 0)):
                assert evaluator.residual(s, strict_domain=False) == \
                    identity_residual_oracle(level, fixed, 10**3, s)


def test_identity_evaluator_rejects_a_point_before_any_work(monkeypatch):
    evaluator = IdentityEvaluator(2, OmegaAssignment(master_seed=3), 10**3)

    def no_tables(logs, s):
        raise AssertionError(f"p**-s table built for s={s}")

    # every block of a point starts from its p**-s table
    monkeypatch.setattr(dirichlet, "_powers", no_tables)
    for s, strict, error in ((0.9, True, PreconditionError),
                             (complex(1, 5), True, PreconditionError),
                             (complex(-0.5, 1), False, DomainError),
                             (0.0, False, DomainError),
                             (complex(math.nan, 0), True, DomainError),
                             (complex(2, math.inf), True, DomainError)):
        with pytest.raises(error):
            evaluator.residual(s, strict_domain=strict)


class UnhashedOmega(FixedOmega):
    """Test double whose omega must never be hashed."""

    def numerators(self, count):
        raise AssertionError("omega hashed")

    def numerator_blocks(self, count, start=0):
        raise AssertionError("omega hashed")


def test_identity_evaluator_refuses_levels_above_the_cap():
    a = UnhashedOmega(num=0)
    for level, count in ((17, "131,074"), (40, "1,099,511,627,778")):
        with pytest.raises(DomainError, match=f"= {count} Euler products"):
            IdentityEvaluator(level, a, 10**2)


def test_identity_run_builds_the_views_once_per_seed(monkeypatch, tmp_path):
    level, seeds, prime_limit = 3, [1, 2], 50_000  # 5,133 primes
    count = len(primes_up_to(prime_limit))
    assert count > dirichlet._VIEW_BLOCK  # the views are built in blocks
    nums = {seed: OmegaAssignment(master_seed=seed).numerators(count)
            for seed in seeds}
    seed_of = {int(num): seed for seed in seeds for num in nums[seed]}
    mapped = Counter()  # numerators mapped per (seed, k)
    exchange = dirichlet.apply_T_power_numerators

    def counted(spec, nums, k):
        # only numerators in [1/2, 1) are mapped, a column of powers at once
        assert nums.min() >= 2**63 and k.shape == (len(k), 1)
        for power in k.ravel().tolist():
            mapped[seed_of[int(nums[0])], power] += len(nums)
        return exchange(spec, nums, k)

    monkeypatch.setattr(dirichlet, "apply_T_power_numerators", counted)
    manifest = run(ExperimentConfig(
        kind="identity", level=level, prime_limit=prime_limit, seeds=seeds,
        sigmas=[1.5, 2.0], ts=[0.0, -5.0], outdir=str(tmp_path / "r")))
    assert manifest["pass"]
    # every numerator >= 1/2 once per k and seed, whatever the points
    assert mapped == {(seed, k): int(np.count_nonzero(nums[seed] >= 2**63))
                      for seed in seeds for k in range(1, 2**level + 1)}


def test_identity_residual_detects_a_wrong_exchange_map(monkeypatch):
    a = OmegaAssignment(master_seed=42)
    assert identity_residual(3, a, 10**4, 1.5) < 1e-12
    exchange = dirichlet.apply_T_power_numerators

    def repeats_previous_power(spec, nums, k):
        return exchange(spec, nums, np.where(k == 5, 4, k))

    monkeypatch.setattr(dirichlet, "apply_T_power_numerators",
                        repeats_previous_power)
    for s in (1.5, complex(2, 10)):
        assert identity_residual(3, a, 10**4, s) > 1e-6
    # at P = 10**5 (9,592 primes, three view blocks) the wrong power in any
    # one block fails the residual; the last block's primes are above
    # 80,000, so the points sit near Re(s) = 1
    for wrong_block in range(3):
        fives = itertools.count()  # counts the blocks mapped at k = 5

        def wrong_in_one_block(spec, nums, k):
            if (k == 5).any() and next(fives) == wrong_block:
                k = np.where(k == 5, 4, k)
            return exchange(spec, nums, k)

        monkeypatch.setattr(dirichlet, "apply_T_power_numerators",
                            wrong_in_one_block)
        evaluator = IdentityEvaluator(3, a, 10**5)
        assert next(fives) == 3
        for s in (1.1, complex(1.1, 10)):
            assert evaluator.residual(s) > 1e-6, (wrong_block, s)


@pytest.mark.parametrize("count", [2**12 - 1, 2**12, 2**12 + 1])
def test_identity_residual_matches_the_oracle_at_the_view_block_edge(count):
    assert dirichlet._VIEW_BLOCK == 2**12
    a = OmegaAssignment(master_seed=11)
    P = int(primes_up_to(10**5)[count - 1])
    for level in (1, 4, 6):
        evaluator = IdentityEvaluator(level, a, P)
        for s in (1.5, complex(1.1, 10), complex(0.8, -2)):
            assert evaluator.residual(s, strict_domain=False) == \
                identity_residual_oracle(level, a, P, s), (level, s)


def test_identity_residual_on_no_primes():
    # P < 2: every product is empty and so is the residual
    a = OmegaAssignment(master_seed=1)
    for level in (1, 3):
        evaluator = IdentityEvaluator(level, a, 1)
        assert evaluator.residual(1.5) == 0.0 == \
            identity_residual_oracle(level, a, 1, 1.5)


def blocked_plus_views(evaluator) -> dict[int, list[np.ndarray]]:
    """Each product's plus-signed prime indices, block by block, read from
    the evaluator's blocks (product 0 is F_{1/2}, product k the view
    T**k omega); a product with none is left out.  Checks each block's
    layout on the way."""
    views = {}
    for b, (union, plus, owners, starts) in enumerate(evaluator._blocks):
        assert np.all(np.diff(starts) > 0) and np.all(np.diff(owners) > 0)
        # the union holds every index plus-signed in some product, once
        assert np.array_equal(union, np.unique(plus))
        for owner, a, z in zip(owners, starts, [*starts[1:], len(plus)]):
            views.setdefault(int(owner), []).append(
                plus[a:z].astype(np.intp) + b * dirichlet._VIEW_BLOCK)
    return views


# (levels, seed, prime count): three blocks, the last partial; a full block
# and a partial one of 5 primes; 168 primes in one partial block, where at
# level 13 and above nearly every product has no plus-signed prime; P < 2;
# and two hash blocks, the second cut into a full view block and a partial
VIEW_CASES = [(range(1, 9), 3, 9_592), (range(9, 13), 5, 2**12 + 5),
              (range(13, 17), 7, 168), ((1, 12), 9, 0),
              ((2,), 11, 2**15 + 2**12 + 3)]


def test_identity_views_match_the_whole_array_build():
    for levels, seed, count in VIEW_CASES:
        a = OmegaAssignment(master_seed=seed)
        P = int(primes_up_to(10**6)[count - 1]) if count else 1
        nums = a.numerators(count)
        for level in levels:
            evaluator = IdentityEvaluator(level, a, P)
            assert len(evaluator._blocks) == \
                -(-count // dirichlet._VIEW_BLOCK)
            found = blocked_plus_views(evaluator)
            views = [np.flatnonzero(signs_from_numerators(HALF, nums) == 1),
                     *plus_views_whole(level, a, P)]
            assert set(found) <= set(range(len(views)))
            for k, view in enumerate(views):
                got = found.get(k, [])
                assert np.array_equal(np.concatenate(got) if got else
                                      np.empty(0, np.intp), view), (level, k)


@pytest.mark.parametrize("level, prime_limit, count", [
    (6, 10**5, 2 * 2**12 + 5), (4, 2 * 10**5, 4 * 2**12 + 1),
    (12, 10**3, 168)])
def test_identity_residual_streams_partial_and_sparse_blocks(
        level, prime_limit, count):
    # the blocks end in a partial one; in some block some product has no
    # plus-signed prime, and at level 12 over 168 primes most of the 4,097
    # products have none at all
    assert dirichlet._VIEW_BLOCK == 2**12
    for seed in (1, 7, 42):
        a = OmegaAssignment(master_seed=seed)
        P = int(primes_up_to(prime_limit)[count - 1])
        evaluator = IdentityEvaluator(level, a, P)
        blocks = evaluator._blocks
        assert len(blocks) == -(-count // 2**12)
        assert min(len(owners) for _, _, owners, _ in blocks) < 2**level + 1
        points = ORACLE_POINTS if level < 12 else ORACLE_POINTS[:1]
        for s in points:
            assert evaluator.residual(s, strict_domain=False) == \
                identity_residual_oracle(level, a, P, s), (seed, s)


@pytest.mark.parametrize("fold", [1, 2])
def test_identity_residual_folds_its_floats_every_few_blocks(fold,
                                                             monkeypatch):
    # a point folds the floats it keeps into a few per product every
    # _FOLD_BLOCKS blocks; the exact sums, and so every residual, do not
    # change
    a = OmegaAssignment(master_seed=7)  # three blocks
    monkeypatch.setattr(dirichlet, "_FOLD_BLOCKS", fold)
    folds = itertools.count()
    folded = dirichlet._folded

    def counted(floats, ids):
        next(folds)
        return folded(floats, ids)

    monkeypatch.setattr(dirichlet, "_folded", counted)
    for level in (1, 4, 6):
        evaluator = IdentityEvaluator(level, a, 10**5)
        for s in ORACLE_POINTS:
            assert evaluator.residual(s, strict_domain=False) == \
                identity_residual_oracle(level, a, 10**5, s), (level, s)
    assert next(folds) == 3 * len(ORACLE_POINTS) * (3 // fold)


def test_identity_point_peak_memory_at_1e6(assignment_42):
    # a point streams the view blocks: one block's p**-s from its kept
    # log p, its terms and extractions at a time, 0.64 MiB traced; the two
    # pi(P)-long log tables and their gathers traced 3.15 MiB
    evaluator = IdentityEvaluator(6, assignment_42, 10**6)
    evaluator.residual(1.5)
    tracemalloc.start()
    try:
        evaluator.residual(complex(1.1, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak / 2**20


def test_h_scan_point_peak_memory_at_1e7():
    # one point streams the 664,579 primes: a sieve block of 2**20 bytes
    # with its primes (1.2 MiB as int64, then as float64 and log p), then
    # per hash block the numerators, p**-s and both logs' terms: 5.0 MiB
    # traced.  The whole-table evaluation traced 40.6 MiB, its 5.1 MiB
    # prime table already built
    a = OmegaAssignment(master_seed=5)
    tracemalloc.start()
    try:
        H_eval(B78, a, 10**7, complex(0.6, 14.134725))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak / 2**20


finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e300, max_value=1e300)


def complex_block(re, im) -> np.ndarray:
    """A complex128 array with the given real and imaginary parts, each
    value kept bit for bit (-0.0 included)."""
    block = np.empty(len(re), dtype=np.complex128)
    block.real, block.imag = re, im
    return block


def fsum_first(values) -> float:
    """The first of the fsum-remainder partials, 0.0 when there are none."""
    return (exact_partials_fsum(np.asarray(values, dtype=np.float64))
            or [0.0])[0]


@settings(max_examples=200, deadline=None)
@given(st.lists(finite, max_size=40), st.integers(1, 4))
def test_exact_partials_sum_exactly(values, pieces):
    # the exact sum rounded once, however the values are split into blocks;
    # the imaginary parts are the values negated
    array = np.array(values, dtype=np.float64)
    exact = float(sum(map(Fraction, values), Fraction(0)))
    blocks = np.array_split(complex_block(array, -array), pieces)
    total = dirichlet._exact_sum(blocks)
    assert total == complex(exact, -exact) == \
        complex(math.fsum(values), -math.fsum(values))


subnormal = st.floats(min_value=-2.0**-1022, max_value=2.0**-1022)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(finite, subnormal), max_size=60),
       st.lists(st.one_of(finite, subnormal), max_size=20))
def test_extracted_partials_match_fsum_over_every_value(values, cancelled):
    # cancelled values appear with both signs, so they sum to exactly 0
    array = np.array(values + cancelled + [-x for x in cancelled],
                     dtype=np.float64)
    np.random.default_rng(len(values)).shuffle(array)
    extracted = dirichlet._extracted(array[None])
    assert extracted.shape[1] == 1
    assert sum(map(Fraction, extracted[:, 0].ravel().tolist()),
               Fraction(0)) == sum(map(Fraction, values), Fraction(0))
    total = dirichlet._exact_sum([complex_block(array, array[::-1])])
    assert total.real == total.imag == math.fsum(array) == fsum_first(array)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 1]),
       st.lists(st.one_of(finite, subnormal), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_extracted_partials_across_blocks(count, pool, seed):
    # rows that cross the extraction block, drawn from a few magnitudes so
    # that many terms cancel; two rows are extracted at once
    assert dirichlet._EXTRACT_BLOCK == 2**14
    rng = np.random.default_rng(seed)
    picks = rng.integers(len(pool), size=(2, count))
    signs = rng.choice([-1, 1], picks.shape)
    rows = np.array(pool)[picks] * signs
    extracted = dirichlet._extracted(rows)  # a segment per block
    assert extracted.shape[2] == -(-count // 2**14)
    for row, column in enumerate(extracted.transpose(1, 0, 2).reshape(2, -1)):
        exact = sum((Fraction(x) * int(signs[row][picks[row] == i].sum())
                     for i, x in enumerate(pool)), Fraction(0))
        assert sum(map(Fraction, column.tolist()), Fraction(0)) == exact
    # the real and imaginary parts are the two rows
    total = dirichlet._exact_sum([complex_block(*rows)])
    assert total == complex(math.fsum(rows[0]), math.fsum(rows[1])) == \
        complex(fsum_first(rows[0]), fsum_first(rows[1]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(finite, subnormal), min_size=1, max_size=60),
       st.data())
def test_extracted_partials_per_segment(values, data):
    # segments of any length from 1, the rows extracted together; each
    # segment's floats sum exactly to the segment
    cuts = sorted(data.draw(st.sets(st.integers(1, len(values) - 1)),
                            label="cuts") if len(values) > 1 else [])
    bounds = [0, *cuts, len(values)]
    rows = [values, [-x for x in values[::-1]]]
    extracted = dirichlet._extracted(np.array(rows), np.array(bounds[:-1]))
    assert extracted.shape[1:] == (2, len(bounds) - 1)
    for j, row in enumerate(rows):
        for g, (a, z) in enumerate(itertools.pairwise(bounds)):
            assert sum(map(Fraction, extracted[:, j, g].tolist()),
                       Fraction(0)) == sum(map(Fraction, row[a:z]),
                                           Fraction(0)), (j, g)


def test_extracted_partials_pass_on_a_block_whose_sigma_would_overflow():
    # max |x| below 2**1008 gives sigma = 2**1023; at 2**1008 and above
    # sigma would overflow, and the block goes to fsum as it is
    below = np.nextafter(2.0**1008, 0.0)
    for values in ([1.7e308, -1.7e308, 1.0, 5e-324],
                   [2.0**1008, 3.0, -2.0**1008, 2.0**-1074],
                   [below, 3.0, -below, 2.0**-1074]):
        array = np.array(values)
        extracted = dirichlet._extracted(array[None])[:, 0, 0].tolist()
        assert sum(map(Fraction, extracted), Fraction(0)) == \
            sum(map(Fraction, values), Fraction(0))
        # cut into segments, each value left goes on in its own segment
        rows, cuts = [values * 2, [0.5] * 8], [0, 3, 4, 8]
        segments = dirichlet._extracted(np.array(rows), np.array(cuts[:-1]))
        for j, row in enumerate(rows):
            for g, (a, z) in enumerate(itertools.pairwise(cuts)):
                assert sum(map(Fraction, segments[:, j, g].tolist()),
                           Fraction(0)) == sum(map(Fraction, row[a:z]),
                                               Fraction(0)), (values, j, g)
        total = dirichlet._exact_sum([complex_block(array, -array)])
        assert total == complex(math.fsum(values), -math.fsum(values)) == \
            complex(fsum_first(array), -fsum_first(array))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_partials_refuse_non_finite_values(bad):
    # a NaN would make the sum NaN; in the real or the imaginary part, at
    # the first value, inside the first extraction block or in the second
    for at in (0, 5, 2**14 + 3):
        values = np.ones(2**14 + 10)
        values[at] = bad
        ones = np.ones_like(values)
        for block in (complex_block(values, ones),
                      complex_block(ones, values)):
            with pytest.raises(DomainError):
                dirichlet._exact_sum([np.ones(3, dtype=np.complex128), block])


PRODUCT_PRIMES = OmegaAssignment(master_seed=29)


@pytest.mark.parametrize("count", [2**14 - 1, 2**14, 2**14 + 1, None],
                         ids=["2**14-1", "2**14", "2**14+1", "P=10**5"])
def test_products_are_fsum_over_their_term_vectors(count):
    # the primes up to the count-th, or up to P = 10**5 (9,592); each
    # product's log is bitwise the fsum over its full term vector, built
    # here with the same element operations
    # 17,984 primes up to 2 * 10**5 cross the extraction block
    a = PRODUCT_PRIMES
    P = 10**5 if count is None else \
        int(primes_up_to(2 * 10**5)[count - 1])
    primes = primes_up_to(P)
    logs = np.log(primes.astype(np.float64))
    for beta, floor in ((B34, 0.0), (B78, 0.5)):
        signs = prime_signs(beta, a, len(primes)).astype(np.float64)
        for s in (complex(floor + 1e-3, 0), complex(floor + 1e-3, 1000),
                  complex(floor + 0.05, -1000), complex(1.5, 14.1)):
            powers = np.exp(-s * logs)
            assert euler_F(beta, a, P, s).log_value == \
                fsum_terms(np.log(1.0 + signs * powers)), (beta, s)
            if floor:  # near sigma = 0, zeta_P(s) overflows a float
                zeta = zeta_truncated(P, s).log_value
                minus = np.full(len(primes), -1.0) * powers
                assert zeta == -fsum_terms(np.log(1.0 + minus)), s
                # H's G part is its own fsum, added to zeta's once
                w = weight_factor(beta)
                g = fsum_terms(np.log(1.0 + w * signs * powers))
                assert H_eval(beta, a, P, s).log_value == g + zeta, s
                prime_sum, _ = exp_form_F(beta, a, P, s)
                assert prime_sum == fsum_terms(signs * powers), s


# P on either side of each stream's block edges: a view block of 4,096
# primes, a hash block of 2**15 ranks, and the segmented sieve's first block
# of 2**20 odd slots, the odd numbers below 2**21
EDGE_PRIMES = primes_up_to(2**21 + 200)
BELOW_2_21 = int(np.searchsorted(EDGE_PRIMES, 2**21))
STREAM_LIMITS = [2, 3, 10**6,
                 *(int(EDGE_PRIMES[i]) for i in (2**12 - 1, 2**12,
                                                 2**15 - 1, 2**15,
                                                 BELOW_2_21 - 1, BELOW_2_21))]


@pytest.mark.parametrize("P", STREAM_LIMITS)
def test_streamed_products_match_the_table_oracles_bitwise(P):
    # every product streams the primes from the sieve, a block at a time,
    # and hashes each block from its first rank; the oracles take the whole
    # table and one fsum per part
    assert dirichlet._VIEW_BLOCK == 2**12 and sieve._SIEVE_BLOCK == 2**20
    assert sampler._HASH_BLOCK == 2**15
    a = OmegaAssignment(master_seed=31)
    for s in (complex(0.6, 14.134725), complex(1.5, -3)):
        for beta in (B34, ONE):
            assert euler_F(beta, a, P, s).log_value == \
                euler_F_table(beta, a, P, s), (beta, s)
        assert zeta_truncated(P, s).log_value == zeta_table(P, s), s
        assert H_eval(B78, a, P, s).log_value == H_table(B78, a, P, s), s
    # sigma = 3 keeps the oracle's concatenated tail orders few
    for beta, s in ((B34, complex(3, 2)), (B78, complex(0.6, 14.134725))):
        if s.real > 1 or P <= 10**4:
            assert exp_form_F(beta, a, P, s) == \
                exp_form_table(beta, a, P, s), (beta, s)
    evaluator = IdentityEvaluator(2, a, P)
    for s in (complex(1.1, 10), 2.0):
        assert evaluator.residual(s) == identity_residual_oracle(2, a, P, s)


def abel_at(s):
    return abel_consistency(np.array([0, 1, -1, -1, 0, -1], dtype=np.int8),
                            5, s)


@pytest.mark.parametrize("evaluate", [
    lambda s: euler_F(B34, PRODUCT_PRIMES, 10**3, s),
    lambda s: zeta_truncated(10**3, s),
    lambda s: H_eval(B78, PRODUCT_PRIMES, 10**3, s),
    lambda s: exp_form_F(B34, PRODUCT_PRIMES, 10**3, s),
    abel_at,
], ids=["euler_F", "zeta_truncated", "H_eval", "exp_form_F",
        "abel_consistency"])
@pytest.mark.parametrize("s", [complex(math.nan, 0), complex(math.inf, 0),
                               complex(2, math.nan), complex(2, math.inf)],
                         ids=["nan_re", "inf_re", "nan_im", "inf_im"])
def test_products_and_abel_reject_a_non_finite_point(evaluate, s):
    # they returned NaN, or for exp_form_F a 0j tail
    with pytest.raises(DomainError, match=re.escape(f"s={s}")):
        evaluate(s)


def test_math_fsum_is_called_only_by_the_exact_sum():
    """One exact-sum path: ``math.fsum`` appears in the package only inside
    ``dirichlet._exact_sum``.  Found on the syntax trees, so comments and
    docstrings do not count."""
    def fsum_nodes(tree):
        return {node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "fsum"
                or isinstance(node, ast.Name) and node.id == "fsum"
                or isinstance(node, ast.alias) and node.name == "fsum"}

    found, allowed = set(), set()
    for path in sorted(Path(dirichlet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        found |= {(path.stem, node.lineno) for node in fsum_nodes(tree)}
        if path.stem == "dirichlet":
            helper, = (node for node in tree.body
                       if isinstance(node, ast.FunctionDef)
                       and node.name == "_exact_sum")
            allowed = {(path.stem, node.lineno) for node in fsum_nodes(helper)}
    assert allowed and found == allowed, sorted(found - allowed)


def test_local_factor_ratio_oracle():
    """Consecutive-threshold Euler factors: ratio is (p^s+1)/(p^s-1)
    exactly when omega sits in the interval where the two signs differ."""
    spec = IetSpec(2)
    s = 1.7 + 0.4j
    for p in primes_up_to(73)[:20]:
        ps = complex(p) ** s
        for k in range(spec.intervals):
            lo, hi = spec.endpoint(k), spec.endpoint(k + 1)
            # omega = 0, lo, hi - 1 and hi; uint64 cannot hold hi = 1
            nums = [0, lo.numerator, hi.numerator - 1] + \
                ([hi.numerator] if hi.numerator < 2**64 else [])
            signs = [signs_from_numerators(b, np.array(nums, dtype=np.uint64))
                     for b in (lo, hi)]
            for num, e_lo, e_hi in zip(nums, *signs):
                ratio = (1 + int(e_lo) / ps) / (1 + int(e_hi) / ps)
                in_gap = lo.numerator <= num < hi.numerator
                want = (ps + 1) / (ps - 1) if in_gap else 1.0
                assert abs(ratio - want) < 1e-12


def test_exp_form_consistency(assignment_42):
    for seed in range(1, 6):
        a = OmegaAssignment(master_seed=seed)
        ps, at = exp_form_F(B34, a, 10**4, 1.2)
        ev = euler_F(B34, a, 10**4, 1.2)
        assert abs(cmath.exp(ps + at) - ev.value) < 1e-10


def test_exp_form_tail_bound_sigma06():
    a = OmegaAssignment(master_seed=3)
    _, tail = exp_form_F(B34, a, 10**6, 0.6)
    p = primes_up_to(10**6).astype(float)
    z = p**-0.6
    bound = 0.0
    zm = z * z
    m = 2
    while zm.max() / m >= 1e-18:
        bound += float(np.sum(zm)) / m
        zm = zm * z
        m += 1
    assert abs(tail) <= bound


@pytest.mark.parametrize("P, s", [(2, 0.55 + 7j), (1000, 0.55 + 1j),
                                  (10**4, 0.8 - 3j), (10**5, 0.55 + 0.5j),
                                  (10**5, 1.2 + 14.1j), (10**5, 2 - 30j)])
def test_exp_form_tail_matches_the_concatenated_oracle(P, s, assignment_42):
    # fsum rounds the exact sum once, however the terms reach it
    for beta in (B34, B78):
        _, tail = exp_form_F(beta, assignment_42, P, s)
        assert tail == exp_form_tail_concatenated(beta, assignment_42, P, s)


def test_exp_form_peak_memory_at_1e5(assignment_42):
    # at sigma = 0.55 the tail runs to order m ~ 100: 1.1 MiB traced, a
    # sieve block and one hash block's terms at a time.  Holding every
    # order's terms for one concatenation peaked at 28.2 MiB traced
    # (230.6 MiB at P = 10**6), about 3 KB per prime
    tracemalloc.start()
    try:
        exp_form_F(B34, assignment_42, 10**5, 0.55)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak / 2**20


def test_exp_form_peak_memory_at_1e6(assignment_42):
    # 78,498 primes, streamed: the sieve block with its primes, then per
    # hash block of 2**15 z, one order's power and its terms, 3.9 MiB
    # traced.  The whole-table z, one order's power and its terms, 1.2 MiB
    # each, and the extraction's scratch traced 4.4 MiB, and with the float
    # signs kept beside z 5.0 MiB
    tracemalloc.start()
    try:
        exp_form_F(B34, assignment_42, 10**6, 0.55)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.6 * 2**20, peak / 2**20


def test_exp_form_and_euler_F_agree_on_no_primes():
    # P < 2: both are the empty product
    a = OmegaAssignment(master_seed=1)
    for s in (0.75, complex(2, 10)):
        assert exp_form_F(B34, a, 1, s) == (0j, 0j)
        ev = euler_F(B34, a, 1, s)
        assert ev.log_value == 0j and ev.value == 1


def test_exp_form_domain():
    a = FixedOmega(num=0)
    with pytest.raises(DomainError):
        exp_form_F(B34, a, 10**2, 0.4)


def test_prime_sum_ensemble_mean_at_s1():
    # E f(p) = 1 - 2 beta: ensemble mean of sum f(p)/p tracks -(1/2) sum 1/p
    P = 10**5
    primes = primes_up_to(P)
    target = -0.5 * float(np.sum(1.0 / primes))
    vals = np.array([math.fsum(prime_signs(
        B34, OmegaAssignment(master_seed=s), len(primes)) / primes)
        for s in range(100)])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 4 * se


def test_weight_factor_and_threshold():
    assert abs(weight_factor(B78) - 4 / 3) < 1e-15
    with pytest.raises(PreconditionError) as exc:
        weight_factor(B34)
    assert "0.853553" in str(exc.value)
    assert WEIGHT_BETA_THRESHOLD == pytest.approx(0.8535533905932737)


def test_weighted_G_degenerate_direct_product():
    a = FixedOmega(num=0)  # all signs -1
    g = weighted_euler_G(B78, a, 10**3, 0.8)
    p = primes_up_to(10**3).astype(float)
    direct = np.prod(1 - (4 / 3) * p**-0.8)
    assert abs(g.value - direct) < 1e-12
    assert direct != 0


def test_weighted_G_mean_minus_one(assignment_42):
    signs = prime_signs(B78, assignment_42, 78498).astype(float)  # pi(10**6)
    g = signs * (4 / 3)
    n = len(g)
    se = g.std(ddof=1) / math.sqrt(n)
    assert abs(g.mean() - (-1)) <= 4 * se


def test_weighted_G_domain_errors(assignment_42):
    # G is evaluated only inside H, which checks its domain
    with pytest.raises(PreconditionError):
        H_eval(B34, assignment_42, 10**3, 0.8)
    with pytest.raises(DomainError):
        H_eval(B78, assignment_42, 10**3, 0.4)


def test_H_is_G_times_zeta(assignment_42):
    for s in (0.8, 0.75 + 10j, 2):
        g = weighted_euler_G(B78, assignment_42, 10**3, s)
        z = zeta_truncated(10**3, s)
        h = H_eval(B78, assignment_42, 10**3, s)
        assert abs(h.log_value - g.log_value - z.log_value) < 1e-12


def test_H_degenerate_per_prime():
    a = FixedOmega(num=0)
    s = 0.8
    h = H_eval(B78, a, 100, s)
    p = primes_up_to(100).astype(float)
    direct = np.prod((1 - (4 / 3) * p**-s) / (1 - p**-s))
    assert abs(h.value - direct) < 1e-12
