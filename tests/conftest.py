import numpy as np
import pytest

from oracles import build_spf, factor_summary, mobius_sieve
from rmflab import OmegaAssignment


@pytest.fixture(scope="session")
def spf_1e5():
    return build_spf(10**5)


@pytest.fixture(scope="session")
def factors_1e5(spf_1e5):
    """factor_summary(n) at index n, for 1 <= n <= 10**5 (index 0 unused)."""
    return [None] + [factor_summary(n, spf_1e5) for n in range(1, 10**5 + 1)]


@pytest.fixture(scope="session")
def mu_1e6():
    return mobius_sieve(10**6)


@pytest.fixture(scope="session")
def assignment_1e5():
    return OmegaAssignment(master_seed=42, prime_limit=10**5)


@pytest.fixture(scope="session")
def assignment_1e6():
    return OmegaAssignment(master_seed=42, prime_limit=10**6)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260826)
