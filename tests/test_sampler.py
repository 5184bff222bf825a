import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import factor_summary
from rmflab import (CoverageError, DyadicFraction, OmegaAssignment,
                    PreconditionError, build_sign_series,
                    coupling_monotone_check, mobius_sieve, prime_signs,
                    sign_at_prime)
from rmflab.dyadic import HALF, ONE


def test_omega_deterministic():
    a1 = OmegaAssignment(master_seed=7, prime_limit=10**4)
    a2 = OmegaAssignment(master_seed=7, prime_limit=10**4)
    for p in (2, 3, 97, 9973):
        assert a1.omega_at(p) == a2.omega_at(p)
    assert np.array_equal(a1.numerators(), a2.numerators())


def test_omega_rejects_non_primes(assignment_1e5):
    from rmflab import DomainError
    with pytest.raises(DomainError):
        assignment_1e5.omega_at(4)
    with pytest.raises(DomainError):
        assignment_1e5.omega_at(10**5 + 7)


def test_omega_empirical_mean(assignment_1e5):
    nums = assignment_1e5.numerators()
    mean = float(np.mean(nums / 2.0**64))
    n_primes = len(nums)
    tol = 4 * (1 / math.sqrt(12)) / math.sqrt(n_primes)
    assert abs(mean - 0.5) <= tol


def test_distinct_seeds_differ_almost_everywhere():
    a = OmegaAssignment(master_seed=1, prime_limit=10**4)
    b = OmegaAssignment(master_seed=2, prime_limit=10**4)
    frac_diff = np.mean(a.numerators() != b.numerators())
    assert frac_diff > 0.99


def test_sign_at_prime_cases():
    quarter = DyadicFraction.from_fraction(1, 2)
    assert sign_at_prime(HALF, quarter) == -1  # 0.25 < 0.5
    assert sign_at_prime(HALF, HALF) == 1  # right-open convention
    for num in (0, 2**63, 2**64 - 1):
        assert sign_at_prime(ONE, DyadicFraction(num)) == -1
    with pytest.raises(PreconditionError):
        sign_at_prime(DyadicFraction.from_fraction(1, 3), quarter)


def test_prime_sign_frequency(assignment_1e6):
    primes = assignment_1e6.primes
    n = len(primes)
    for k, m in ((1, 1), (3, 2), (7, 3), (15, 4)):
        beta = DyadicFraction.from_fraction(k, m)
        signs = prime_signs(beta, assignment_1e6)
        freq = np.mean(signs == -1)
        b = float(beta)
        tol = 4 * math.sqrt(b * (1 - b) / n)
        assert abs(freq - b) <= tol, (b, freq)


def test_prime_sign_mean_beta34(assignment_1e6):
    beta = DyadicFraction.from_fraction(3, 2)
    signs = prime_signs(beta, assignment_1e6).astype(float)
    n = len(signs)
    tol = 4 * math.sqrt(4 * 0.75 * 0.25 / n)
    assert abs(signs.mean() - (1 - 2 * 0.75)) <= tol


def test_beta_one_series_is_mobius(mu_1e6, assignment_1e6):
    series = build_sign_series(ONE, assignment_1e6, 10**6, mu_1e6)
    assert np.array_equal(series.values[1:], mu_1e6[1: 10**6 + 1])
    assert series.partial_sum(10) == -1  # Mertens(10)


def test_series_multiplicativity_at_30(mu_1e6, assignment_1e5):
    beta = DyadicFraction.from_fraction(3, 2)
    s = build_sign_series(beta, assignment_1e5, 10**5, mu_1e6)
    v = s.values
    assert v[30] == v[2] * v[3] * v[5]
    assert v[12] == 0
    assert v[1] == 1


def test_series_support_matches_squarefree(mu_1e6, assignment_1e5, spf_1e5):
    beta = DyadicFraction.from_fraction(7, 3)
    s = build_sign_series(beta, assignment_1e5, 10**5, mu_1e6)
    for n in range(1, 10**5 + 1):
        expected_zero = not factor_summary(n, spf_1e5).is_squarefree
        assert (s.values[n] == 0) == expected_zero


def test_series_prefix_property(mu_1e6, assignment_1e5):
    beta = DyadicFraction.from_fraction(3, 2)
    s = build_sign_series(beta, assignment_1e5, 10**5, mu_1e6)
    assert np.array_equal(np.diff(s.prefix), s.values[1:])
    assert s.prefix[1] == 1


def test_series_coverage_error(mu_1e6):
    a = OmegaAssignment(master_seed=1, prime_limit=10**3)
    with pytest.raises(CoverageError):
        build_sign_series(HALF, a, 10**4, mu_1e6)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 300), st.integers(2, 300))
def test_series_multiplicative_on_coprime_pairs(a, b):
    if math.gcd(a, b) != 1:
        return
    mu = mobius_sieve(10**5)
    assignment = OmegaAssignment(master_seed=5, prime_limit=10**5)
    s = build_sign_series(DyadicFraction.from_fraction(3, 2), assignment,
                          10**5, mu)
    assert s.values[a * b] == s.values[a] * s.values[b]


def test_coupling_monotone(assignment_1e5):
    b12 = HALF
    b34 = DyadicFraction.from_fraction(3, 2)
    b78 = DyadicFraction.from_fraction(7, 3)
    assert coupling_monotone_check(b12, b34, assignment_1e5, 10**5)
    assert coupling_monotone_check(b34, b78, assignment_1e5, 10**5)
    assert coupling_monotone_check(b34, b34, assignment_1e5, 10**5)
    with pytest.raises(PreconditionError):
        coupling_monotone_check(b34, b12, assignment_1e5, 10**5)


def test_coupling_monotone_all_dyadic_level4_pairs(assignment_1e5):
    betas = [DyadicFraction.from_fraction(k, 4) for k in range(8, 17)]
    for i, b1 in enumerate(betas):
        for b2 in betas[i:]:
            assert coupling_monotone_check(b1, b2, assignment_1e5, 10**5)
