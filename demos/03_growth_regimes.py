"""Two growth regimes of the partial sums S(x) = sum_{n<=x} f_beta(n).

At beta = 1/2 the signs are symmetric and the sums show square-root
cancellation: the fitted log-log slope hovers near 0.5.  For 1/2 < beta < 1
the negative sign bias pushes the sums onto the slow-decay track
S(x) ~ c * x / (log x)**(2 beta), whose local slope on [10^5, 10^7] is
about 0.87-0.91 -- visibly far from 0.5 and from any power saving x**(1-d).

Note the sign of the ratio R(x) = S(x) (log x)**(2 beta) / x: the
Selberg-Delange constant carries a factor 1/Gamma(1 - 2 beta), which is
negative for every beta in (1/2, 1), so R settles below zero.

Each regime is one ``monte_carlo_campaign`` over seeds 1-10: it fits each
seed's checkpoint sums as the lane kernel streams them and returns the
fields ``rmflab campaign`` writes to summary.json, as a plain dict.
"""

from rmflab import DyadicFraction, monte_carlo_campaign
from rmflab.dyadic import HALF

LIMIT = 10**6
SEEDS = tuple(range(1, 11))
WINDOW = (10**4, 10**6)

for label, beta in (("1/2", HALF), ("3/4", DyadicFraction.from_fraction(3, 2))):
    rep = monte_carlo_campaign(beta, LIMIT, SEEDS, WINDOW)
    alphas = [f"{r['alpha']:.2f}" for r in rep["per_seed"]]
    print(f"beta = {label}: fitted exponents {alphas}")
    print(f"          median {rep['alpha_median']:.3f}  "
          f"(q10 {rep['alpha_q10']:.3f}, q90 {rep['alpha_q90']:.3f})")
    if rep["frac_ratio_positive"] is not None:
        ratios = [f"{r['terminal_ratio']:+.3f}" for r in rep["per_seed"]]
        print(f"          terminal ratios R(X): {ratios}")
    print()
