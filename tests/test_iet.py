import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from oracles import TransformedOmega
from rmflab import (DomainError, DyadicFraction, IetSpec, OmegaAssignment,
                    apply_T, apply_T_power, apply_T_power_numerators,
                    interval_index, primes_up_to)
from rmflab.dyadic import SCALE


def dy(x):
    """Exact dyadic from a float with small binary expansion."""
    return DyadicFraction(int(x * SCALE))


def test_spec_endpoints():
    spec = IetSpec(2)
    assert float(spec.endpoint(0)) == 0.5
    assert spec.endpoint(spec.intervals - 1) == spec.beta
    assert float(spec.endpoint(spec.intervals)) == 1.0
    assert float(spec.step) == 2**-3


def test_interval_index_examples():
    n1 = IetSpec(1)
    assert interval_index(n1, dy(0.3)) == 0
    assert interval_index(n1, dy(0.6)) == 1  # I_1 = [0.5, 0.75)
    n2 = IetSpec(2)
    assert interval_index(n2, dy(0.625)) == 2  # right-open endpoint


def test_apply_T_examples():
    n1 = IetSpec(1)
    assert apply_T(n1, dy(0.6)) == dy(0.85)
    assert apply_T(n1, dy(0.85)) == dy(0.60)
    assert apply_T(n1, dy(0.3)) == dy(0.3)


def test_apply_T_power_identity_and_zero():
    spec = IetSpec(3)
    x = dy(0.8125)
    assert apply_T_power(spec, x, 0) == x
    assert apply_T_power(spec, x, spec.intervals) == x
    # one-step equivalence with the closed form
    y = x
    for k in range(1, spec.intervals + 1):
        y = apply_T(spec, y)
        assert apply_T_power(spec, x, k) == y


def test_power_sends_Ik_to_last_interval():
    for n in (1, 2, 5, 9):
        spec = IetSpec(n)
        for k in range(1, spec.intervals + 1):
            x = spec.endpoint(k - 1) + DyadicFraction(7)  # inside I_k
            img = apply_T_power(spec, x, k)
            assert interval_index(spec, img) == spec.intervals


def test_bitwise_periodicity_random_points(rng):
    for n in (1, 2, 7, 13, 20):
        spec = IetSpec(n)
        nums = rng.integers(0, 2**64, size=10**5, dtype=np.uint64)
        back = apply_T_power_numerators(spec, nums, spec.intervals)
        assert np.array_equal(back, nums)


def test_vectorized_power_matches_scalar_closed_form(rng):
    for n in (1, 2, 6, 13, 40, 62):
        spec = IetSpec(n)
        nums = rng.integers(0, 2**64, size=200, dtype=np.uint64)
        edges = [spec.endpoint(j).numerator + d
                 for j in (0, 1, spec.intervals - 1) for d in (-1, 0, 1)]
        nums = np.concatenate([nums, np.array(
            edges + [0, 2**64 - 1], dtype=np.uint64)])
        for k in (0, 1, 5, spec.intervals - 1, spec.intervals,
                  spec.intervals + 3, 3 * spec.intervals + 1):
            got = apply_T_power_numerators(spec, nums, k)
            want = [apply_T_power(spec, DyadicFraction(int(x)), k).numerator
                    for x in nums]
            assert got.dtype == np.uint64
            assert got.tolist() == want, (n, k)


def edge_numerators(spec: IetSpec) -> list[int]:
    """0, both sides of 1/2, the top of the grid, and both sides of the
    inner endpoints a_1, a_2 and a_{2**n - 1}."""
    inner = {1, min(2, spec.intervals - 1), spec.intervals - 1}
    return sorted({0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1} | {
        spec.endpoint(j).numerator + d for j in inner for d in (-1, 0, 1)})


@settings(max_examples=100, deadline=None)
@given(level=st.integers(1, 62), data=st.data())
def test_power_columns_match_the_scalar_map_row_by_row(level, data):
    spec = IetSpec(level)
    n = spec.intervals
    ks = [0, 1, n - 1, n, n + 1, 2 * n + 3, 3 * n] + data.draw(
        st.lists(st.integers(0, 3 * n), max_size=6))
    nums = edge_numerators(spec) + data.draw(
        st.lists(st.integers(0, 2**64 - 1), max_size=10))
    # int64 columns where they fit; above 2**63 - 1 only uint64 holds k
    dtype = np.int64 if max(ks) < 2**63 else np.uint64
    got = apply_T_power_numerators(spec, np.array(nums, dtype=np.uint64),
                                   np.array(ks, dtype=dtype)[:, None])
    assert got.dtype == np.uint64 and got.shape == (len(ks), len(nums))
    for row, k in zip(got.tolist(), ks):
        assert row == [apply_T_power(spec, DyadicFraction(x), k).numerator
                       for x in nums], (level, k)


@pytest.mark.parametrize("powers", [-1, [3, -1], [[0], [-2]]])
def test_negative_powers_are_refused(powers):
    nums = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
    with pytest.raises(DomainError):
        apply_T_power_numerators(IetSpec(4), nums, powers)


def test_numerators_below_half_are_fixed_for_every_power(rng):
    for level in (1, 5, 16, 62):
        spec = IetSpec(level)
        nums = np.concatenate([
            rng.integers(0, 2**63, size=200, dtype=np.uint64),
            np.array([0, 1, 2**62, 2**63 - 1], dtype=np.uint64)])
        ks = np.array([0, 1, 2, spec.intervals - 1, spec.intervals,
                       spec.intervals + 1, 3 * spec.intervals])[:, None]
        got = apply_T_power_numerators(spec, nums, ks.astype(np.uint64))
        assert np.array_equal(got, np.broadcast_to(nums, got.shape))


def test_one_numerator_maps_to_a_0d_array():
    spec = IetSpec(3)
    for x in (5, 2**63 + 5, 2**64 - 1):
        for k in (1, np.array(6)):
            got = apply_T_power_numerators(spec, x, k)
            assert got.shape == () and got.dtype == np.uint64
            assert int(got) == apply_T_power(
                spec, DyadicFraction(x), int(k)).numerator


def test_injectivity_and_inverse(rng):
    spec = IetSpec(6)
    nums = np.unique(rng.integers(0, 2**64, size=10**5, dtype=np.uint64))
    imgs = apply_T_power_numerators(spec, nums, 1)
    assert len(np.unique(imgs)) == len(nums)
    inv = apply_T_power_numerators(spec, imgs, spec.intervals - 1)
    assert np.array_equal(inv, nums)


def test_index_dynamics_exhaustive():
    for n in range(1, 17):
        spec = IetSpec(n)
        xs = [DyadicFraction(123)]  # fixed region
        xs += [spec.endpoint(k) + DyadicFraction(1)
               for k in range(spec.intervals)]
        for x in xs:
            ix = interval_index(spec, x)
            tx = interval_index(spec, apply_T(spec, x))
            if ix == 0:
                assert tx == 0
            elif ix == 1:
                assert tx == spec.intervals
            else:
                assert tx == ix - 1


def test_indicator_identity_from_proof():
    # 1_{I_k}(x) = 1_{I_last}(T^k x) for k = 1..2**n
    for n in range(1, 11):
        spec = IetSpec(n)
        reps = [spec.endpoint(j) + DyadicFraction(5)
                for j in range(spec.intervals)]
        for k in range(1, spec.intervals + 1):
            for x in reps:
                in_Ik = interval_index(spec, x) == k
                in_last = interval_index(
                    spec, apply_T_power(spec, x, k)) == spec.intervals
                assert in_Ik == in_last


def test_measure_preservation_ks(rng):
    for n in (1, 4, 8):
        spec = IetSpec(n)
        nums = rng.integers(0, 2**64, size=10**5, dtype=np.uint64)
        xs = nums / 2.0**64
        ys = apply_T_power_numerators(spec, nums, 1) / 2.0**64
        stat = ks_2samp(xs, ys).statistic
        crit = math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2 / 10**5)
        assert stat < crit


def test_transformed_omega_periodicity_and_componentwise():
    spec = IetSpec(3)
    a = OmegaAssignment(master_seed=11, prime_limit=10**4)
    view = TransformedOmega(a, spec, spec.intervals)
    count = len(primes_up_to(10**4))
    assert np.array_equal(view.numerators(count), a.numerators(count))
    one_step = TransformedOmega(a, spec, 1)
    for x, y in zip(a.numerators(100), one_step.numerators(100)):
        assert DyadicFraction(int(y)) == apply_T(spec, DyadicFraction(int(x)))
