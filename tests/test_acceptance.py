"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The ensemble criteria (07-10) rebuild full 50-seed campaigns at X = 10**7
and take a few minutes in total.
"""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from oracles import (build_sign_series, distinct_prime_counts, mobius_sieve,
                     prime_signs)
from rmflab import (CampaignConfig, DyadicFraction, IdentityEvaluator,
                    IetSpec, OmegaAssignment, SumGrid, abel_consistency,
                    apply_T_power_numerators, checkpoint_grid,
                    fit_growth_exponent, monte_carlo_campaign, euler_F,
                    exp_form_F, primes_up_to, weight_factor)
from rmflab.dyadic import HALF, ONE
from rmflab.sampler import _sign_series

B34 = DyadicFraction.from_fraction(3, 2)
B78 = DyadicFraction.from_fraction(7, 3)
SEEDS50 = tuple(range(1, 51))
WINDOW = (1e5, 1e7)
LIMIT = 10**7


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def campaign_beta34():
    cfg = CampaignConfig(beta_numerator=B34.numerator, limit=LIMIT,
                         seeds=SEEDS50, window=WINDOW)
    return monte_carlo_campaign(cfg)


@pytest.fixture(scope="module")
def campaign_beta12():
    cfg = CampaignConfig(beta_numerator=HALF.numerator, limit=LIMIT,
                         seeds=SEEDS50, window=WINDOW)
    return monte_carlo_campaign(cfg)


@pytest.fixture(scope="module")
def campaign_weighted78():
    cfg = CampaignConfig(beta_numerator=B78.numerator, limit=LIMIT,
                         seeds=SEEDS50, window=WINDOW, weighted=True)
    return monte_carlo_campaign(cfg)


def test_criterion_01_zeta_identity():
    worst = 0.0
    for seed in range(1, 11):
        assignment = OmegaAssignment(master_seed=seed, prime_limit=10**4)
        for level in (1, 2, 3):
            evaluator = IdentityEvaluator(level, assignment, 10**4)
            for sigma in (1.1, 1.5, 2.0, 3.0):
                for t in (0.0, 1.0, 10.0):
                    res = evaluator.residual(complex(sigma, t))
                    worst = max(worst, res)
    ok = worst < 1e-10
    report("criterion 01 zeta identity", ok, f"max residual {worst:.3e}")
    assert ok


def test_criterion_02_iet_periodicity():
    rng = np.random.default_rng(7)
    ok = True
    for n in range(1, 21):
        spec = IetSpec(n)
        nums = rng.integers(0, 2**64, size=10**5, dtype=np.uint64)
        ok &= bool(np.array_equal(
            apply_T_power_numerators(spec, nums, spec.intervals), nums))
    for n in range(1, 11):
        spec = IetSpec(n)
        reps = np.array([spec.endpoint(j).numerator + 3
                         for j in range(spec.intervals)], dtype=np.uint64)
        idx = np.arange(1, spec.intervals + 1)  # rep j sits in I_{j+1}
        for k in range(1, spec.intervals + 1):
            imgs = apply_T_power_numerators(spec, reps, k)
            in_last = imgs >= spec.endpoint(spec.intervals - 1).numerator
            ok &= bool(np.array_equal(idx == k, in_last))
    report("criterion 02 IET periodicity", ok,
           "bitwise T^(2^n) = id for n<=20; indicator identity n<=10")
    assert ok


def test_criterion_03_measure_preservation():
    rng = np.random.default_rng(11)
    crit = math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2 / 10**5)
    worst = 0.0
    for n in (1, 4, 8):
        spec = IetSpec(n)
        nums = rng.integers(0, 2**64, size=10**5, dtype=np.uint64)
        imgs = apply_T_power_numerators(spec, nums, 1)
        stat = ks_2samp(nums / 2.0**64, imgs / 2.0**64).statistic
        worst = max(worst, float(stat))
    ok = worst < crit
    report("criterion 03 measure preservation", ok,
           f"max KS {worst:.5f} < critical {crit:.5f}")
    assert ok


def test_criterion_04_mobius_degeneration():
    mu = mobius_sieve(10**6)
    series = _sign_series(ONE, 42, 10**6)
    ok = bool(np.array_equal(series[1:], mu[1:]))
    report("criterion 04 Mobius degeneration", ok,
           "beta=1 series equals mu exactly up to 10^6")
    assert ok


def test_criterion_05_prime_sign_statistics():
    assignment = OmegaAssignment(master_seed=42, prime_limit=10**6)
    n = len(primes_up_to(10**6))
    ok = True
    details = []
    for k, m in ((1, 1), (3, 2), (7, 3)):
        beta = DyadicFraction.from_fraction(k, m)
        b = float(beta)
        mean = prime_signs(beta, assignment).astype(float).mean()
        tol = 4 * math.sqrt(4 * b * (1 - b) / n)
        ok &= abs(mean - (1 - 2 * b)) <= tol
        details.append(f"beta={k}/{m}: {mean:+.4f} vs {1 - 2 * b:+.4f}")
    report("criterion 05 prime sign statistics", ok, "; ".join(details))
    assert ok


def test_criterion_06_abel_consistency():
    worst = 0.0
    for beta in (HALF, B34):
        series = _sign_series(beta, 42, 10**5)
        for s in (1.5, 2.0, 1.2 + 5j):
            worst = max(worst, abel_consistency(series, 10**5, s))
    ok = worst < 1e-10
    report("criterion 06 Abel consistency", ok, f"max residual {worst:.3e}")
    assert ok


def test_criterion_07_no_power_saving(campaign_beta34):
    alphas = np.array([r.alpha for r in campaign_beta34.per_seed])
    median = float(np.median(alphas))
    frac = float(np.mean(alphas >= 0.7))
    ok = median >= 0.8 and frac >= 0.9
    report("criterion 07 slow-decay growth (beta=3/4)", ok,
           f"median alpha {median:.3f} (>=0.8), frac >=0.7: {frac:.2f}")
    assert ok


def test_criterion_08_wintner_regime(campaign_beta12):
    median = campaign_beta12.alpha_median
    ok = 0.4 <= median <= 0.6
    report("criterion 08 Wintner regime (beta=1/2)", ok,
           f"median alpha {median:.3f} in [0.4, 0.6]")
    assert ok


def test_criterion_09a_ratio_positivity(campaign_beta34):
    # R(x) -> lambda(omega) / Gamma(1 - 2*beta) with lambda(omega) > 0 (see
    # SelbergDelangeStat), so Gamma(1 - 2*beta) * R estimates lambda(omega).
    gamma = math.gamma(1.0 - 2.0 * float(campaign_beta34.config.beta()))
    lambdas = np.array([gamma * r.terminal_ratio
                        for r in campaign_beta34.per_seed])
    frac = float(np.mean(lambdas > 0.0))
    ok = frac >= 0.9
    report("criterion 09a ratio positivity", ok,
           f"frac Gamma(1-2*beta) R(1e7) > 0: {frac:.2f} (>=0.9 required); "
           f"Gamma(1-2*beta) = {gamma:.3f}, median estimate of lambda "
           f"{np.median(lambdas):.3f}")
    assert ok


def test_criterion_09b_ratio_decade_stability(campaign_beta34):
    frac = campaign_beta34.frac_ratio_decade_in_band
    ok = frac is not None and frac >= 0.8
    report("criterion 09b ratio decade stability", ok,
           f"frac R(1e7)/R(1e6) in [0.5, 2]: {frac:.2f} (>=0.8)")
    assert ok


def test_criterion_10a_weighted_median(campaign_weighted78):
    median = campaign_weighted78.alpha_median
    ok = 0.40 <= median <= 0.65
    report("criterion 10a weighted sums median (beta=7/8)", ok,
           f"median alpha {median:.3f} in [0.40, 0.65]")
    assert ok


def running_max_alphas(beta: DyadicFraction, seeds, limit: int,
                       window: tuple[float, float]) -> np.ndarray:
    """Per-seed growth exponent of max_{y<=x} |sum_{n<=y} w**d(n) f(n)|.

    w = (2*beta-1)**-1 and d(n) counts the distinct primes of n.  The
    weighted sums change sign, so |S_w| at a fixed checkpoint can sit near
    a zero crossing; the running maximum carries the square-root scale of
    the path instead.  Fitted on the campaign's checkpoints and window.
    """
    mobius = mobius_sieve(limit)
    counts = distinct_prime_counts(limit)
    weights = weight_factor(beta) ** np.arange(int(counts.max()) + 1,
                                               dtype=np.float64)
    weights = weights[counts]
    grid = checkpoint_grid(limit)
    alphas = []
    for seed in seeds:
        assignment = OmegaAssignment(master_seed=seed, prime_limit=limit)
        series = build_sign_series(beta, assignment, limit, mobius)
        # float cumsum: its rounding is far below the scale of the sums
        path = series.values * weights
        np.cumsum(path, out=path)
        np.abs(path, out=path)
        np.maximum.accumulate(path, out=path)
        sums = SumGrid(checkpoints=grid, sums=path[grid])
        alphas.append(fit_growth_exponent(sums, window).alpha)
    return np.array(alphas)


def test_criterion_10b_weighted_band():
    alphas = running_max_alphas(B78, SEEDS50, LIMIT, WINDOW)
    frac = float(np.mean((alphas >= 0.35) & (alphas <= 0.70)))
    ok = frac >= 0.8
    report("criterion 10b weighted sums band", ok,
           f"frac running-max alpha in [0.35, 0.70]: {frac:.2f} (>=0.8 "
           f"required); median {np.median(alphas):.3f}")
    assert ok


def test_criterion_11_divergence_ingredient():
    grid = (10**3, 10**4, 10**5, 10**6)
    base = OmegaAssignment(master_seed=0, prime_limit=10**6)
    primes = primes_up_to(10**6)
    inv_p = 1.0 / primes
    cuts = np.searchsorted(primes, grid, side="right")
    per_seed = np.empty((100, len(grid)))
    for i, seed in enumerate(range(1, 101)):
        a = OmegaAssignment(master_seed=seed, prime_limit=10**6)
        signed = prime_signs(B34, a).astype(float) * inv_p
        for j, c in enumerate(cuts):
            per_seed[i, j] = math.fsum(signed[:c])
    means = per_seed.mean(axis=0)
    target = -0.5 * math.fsum(inv_p)
    se = per_seed[:, -1].std(ddof=1) / 10.0
    within = abs(means[-1] - target) <= 4 * se
    monotone = bool(np.all(np.diff(means) < 0))
    ok = within and monotone
    report("criterion 11 divergence ingredient", ok,
           f"mean {means[-1]:.4f} vs {target:.4f} (4se={4 * se:.4f}); "
           f"trend {np.round(means, 3).tolist()} decreasing={monotone}")
    assert ok


def test_criterion_12_exp_form_consistency():
    worst = 0.0
    for seed in range(1, 6):
        assignment = OmegaAssignment(master_seed=seed, prime_limit=10**4)
        for beta in (B34, B78):
            for s in (1.2, 2.0):
                ps, at = exp_form_F(beta, assignment, 10**4, s)
                ev = euler_F(beta, assignment, 10**4, s)
                worst = max(worst, abs(np.exp(ps + at) - ev.value))
    ok = worst < 1e-10
    report("criterion 12 exp-form consistency", ok,
           f"max residual {worst:.3e}")
    assert ok
