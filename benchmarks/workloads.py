"""The benchmark's workloads: which rmflab experiments each one runs.

A workload is a list of ``ExperimentConfig`` field dicts, the same configs a
user passes to ``rmflab campaign|identity --config``.  Its master seeds are
derived from the benchmark's workload seed, so one workload seed always gives
the same inputs.
"""

from __future__ import annotations

import random

# Why each workload exists is documented in README.md; the sizes are the
# ones the acceptance campaigns use (X = 10**7, window [X/100, X]).
WORKLOADS = {
    # Two unweighted campaigns over the same seeds: one Mobius sieve, heavy
    # sign-series builds, and inputs shared across thresholds.
    "campaign-coupled": {"kind": "campaign", "betas": ["3/4", "1/2"],
                         "weighted": False, "limit": 10**7, "n_seeds": 4},
    # One weighted campaign: fsum kernel and the second sieve pass.
    "campaign-weighted": {"kind": "campaign", "betas": ["7/8"],
                          "weighted": True, "limit": 10**7, "n_seeds": 4},
    # Identity residuals: Euler products over T^k views, no sieve, no growth.
    "identity-n6": {"kind": "identity", "level": 6, "prime_limit": 10**6,
                    "n_seeds": 1, "sigmas": [1.1, 2.0], "ts": [10.0],
                    "tolerance": 1e-10},
}

# Reduced sizes for the harness smoke test; they run in seconds.
SMOKE = {
    "campaign-coupled": {"limit": 10**4},
    "campaign-weighted": {"limit": 10**4},
    "identity-n6": {"level": 2, "prime_limit": 10**3},
}


def spec_for(workload: str, smoke: bool = False) -> dict:
    """The workload's parameters, at full or smoke-test size."""
    spec = dict(WORKLOADS[workload])
    if smoke:
        spec.update(SMOKE[workload])
    return spec


def master_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Distinct rmflab master seeds, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}/{seed}")
    return rng.sample(range(1, 2**32), count)


def experiments(workload: str, seed: int, spec: dict,
                outdir: str) -> list[dict]:
    """ExperimentConfig field dicts for one iteration of the workload."""
    seeds = master_seeds(workload, seed, spec["n_seeds"])
    if spec["kind"] == "identity":
        return [{"kind": "identity", "level": spec["level"],
                 "prime_limit": spec["prime_limit"], "seeds": seeds,
                 "sigmas": spec["sigmas"], "ts": spec["ts"],
                 "tolerance": spec["tolerance"],
                 "outdir": f"{outdir}/identity"}]
    X = spec["limit"]
    return [{"kind": "campaign", "beta": beta, "limit": X, "seeds": seeds,
             "window": [X / 100, X], "weighted": spec["weighted"],
             "outdir": f"{outdir}/beta{beta.replace('/', '_')}"}
            for beta in spec["betas"]]


def working_set_bytes(spec: dict) -> dict:
    """Computed sizes of the main arrays the workload allocates, in bytes.

    Computed from array shapes and dtypes, not measured; cache misses and
    allocator overhead are not included.
    """
    if spec["kind"] == "identity":
        from rmflab.sieve import primes_up_to
        n = len(primes_up_to(spec["prime_limit"]))
        return {
            "primes_int64": 8 * n,
            "numerators_uint64": 8 * n,
            "signs_int8": n,
            "prime_powers_complex128": 16 * n,
            "log_terms_complex128": 16 * n,
            "per_product_total": 8 * n + 8 * n + n + 16 * n + 16 * n,
        }
    X1 = spec["limit"] + 1
    sizes = {
        "sieve_mu_int8": X1,
        "sieve_prod_int64": 8 * X1,
        "sieve_index_int64": 8 * X1,
        "sign_values_int8": X1,
        "prefix_sums_int64": 8 * X1,
        "is_prime_bool": X1,
    }
    if spec["weighted"]:
        sizes["omega_counts_int8"] = X1
        sizes["weighted_values_float64"] = 8 * X1
    sizes["total"] = sum(sizes.values())
    return sizes

