"""The telescoping zeta identity, exact on truncated Euler products.

One uniform coordinate omega_p per prime drives the whole family of
threshold sign functions.  At level n (threshold beta = 1 - 2**-(n+1)) the
dyadic interval exchange map T rotates the 2**n subintervals of [1/2, 1),
and the product of the 2**n transformed sign products collapses, prime by
prime, onto a power of the truncated zeta factor:

    1/zeta_P(s)**(2**n - 1) = (1/F_{1/2}(s, w)) * prod_k F_beta(s, T^k w).

Truncating both sides to the same primes keeps the identity exact, so the
residual below is nothing but floating-point noise.
"""

from rmflab import (IdentityEvaluator, OmegaAssignment, beta_for_level,
                    identity_residual)

assignment = OmegaAssignment(master_seed=2024, prime_limit=10**4)

print("level n | beta          | s        | residual")
for level in (1, 2, 3, 4):
    beta = beta_for_level(level)
    # the 2**n T**k views do not depend on s: build them once per level
    evaluator = IdentityEvaluator(level, assignment, 10**4)
    for s in (1.5, 2 + 10j, 1.1 + 1j):
        res = evaluator.residual(s)
        print(f"   {level}    | {beta.as_fraction_string():12s} | "
              f"{str(s):8s} | {res:.2e}")

print()
print("The special case n = 1 (beta = 3/4) reads")
print("  1/zeta = F_3/4(s, w) F_3/4(s, Tw) / F_1/2(s, w)")
res = identity_residual(1, assignment, 10**4, 1.5)
print(f"residual at s = 1.5: {res:.2e}")
