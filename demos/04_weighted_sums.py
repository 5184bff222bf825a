"""Weighted partial sums whose square-root cancellation mirrors RH.

Reweighting each n by (2 beta - 1)**-d(n), with d(n) the number of distinct
prime divisors, renormalizes the prime signs to mean exactly -1 -- the same
mean the Mobius function has.  For beta above 1/2 + 1/(2 sqrt 2) the
associated Dirichlet series factors through 1/zeta, and square-root
cancellation of these weighted sums is equivalent to the Riemann
hypothesis.  The ensemble below only exhibits consistency: fitted
exponents clustering near 0.5 rather than drifting toward 1.  It is one
weighted ``monte_carlo_campaign``, whose plain dict holds the fields
``rmflab campaign --weighted`` writes to summary.json.
"""

import numpy as np

from rmflab import DyadicFraction, monte_carlo_campaign
from rmflab.dirichlet import WEIGHT_BETA_THRESHOLD

beta = DyadicFraction.from_fraction(7, 3)  # 7/8 > 1/2 + 1/(2 sqrt 2)
print(f"beta = 7/8 = {float(beta)} > threshold {WEIGHT_BETA_THRESHOLD:.6f}")
print("per-integer weight: (2*7/8 - 1)**-d(n) = (4/3)**d(n)")
print()

rep = monte_carlo_campaign(beta, 10**6, range(1, 11), (10**4, 10**6),
                           weighted=True)
alphas = np.array([r["alpha"] for r in rep["per_seed"]])
print("fitted exponents:", np.round(alphas, 2).tolist())
print(f"median {rep['alpha_median']:.3f} -- compare 0.5 (sqrt cancellation) "
      "and ~0.9 (the unweighted slow-decay track)")
