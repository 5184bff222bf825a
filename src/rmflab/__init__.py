"""rmflab: a numerical laboratory for coupled random multiplicative signs.

One uniform coordinate per prime drives a whole family of threshold sign
functions at once; a dyadic interval exchange map permutes those coordinates
measure-preservingly, and truncated Euler products over a shared prime set
turn the resulting telescoping identity into an exactly checkable finite
statement.  Growth experiments probe the slow-divergence and
square-root-cancellation regimes of the partial sums.
"""

from .dyadic import HALF, DyadicFraction, beta_for_level
from .errors import (ConfigurationError, DomainError, FitError, LabError,
                     PreconditionError, RangeError)
from .sieve import primes_up_to
from .sampler import OmegaAssignment
from .iet import (IetSpec, apply_T, apply_T_power, apply_T_power_numerators,
                  interval_index)
from .dirichlet import (WEIGHT_BETA_THRESHOLD, H_eval, IdentityEvaluator,
                        euler_F, exp_form_F, identity_residual, weight_factor,
                        zeta_truncated)
from .growth import (CampaignConfig, SumGrid, abel_consistency,
                     checkpoint_grid, fit_growth_exponent,
                     monte_carlo_campaign, selberg_delange_ratio)

__version__ = "0.1.0"
