"""Monte Carlo check of the Gaussian integration-by-parts identity.

For v_hat ~ N(v, I) and a differentiable test function g, the identity
E[dg_i/dv_hat_i] = -E[g_i(v_hat) (v_i - v_hat_i)] holds coordinate-wise.
It is the engine behind every dominance proof for the shrinkage rules, so
the package ships a numerical check: both sides are estimated from common
draws and compared against the standard error of their difference.
"""

from blindmm import stein_lemma_check

# The ratio test function used by the shrinkage analysis:
#   g_i(v) = v_i / (c + v' diag(sigma)^-1 v).
res = stein_lemma_check(v=[1.0, 2.0], sigma=[1.0, 4.0], c=1.0,
                        trials=10**6, seed=3)
print("ratio test function, v=(1,2), sigma=(1,4), c=1, 10^6 draws")
for i in range(2):
    print(f"  coord {i}: lhs={res.lhs[i]:+.6f} rhs={res.rhs[i]:+.6f} "
          f"|diff|={res.discrepancy[i]:.2e} ({res.discrepancy[i] / res.stderr[i]:.2f} stderr)")

print("\nwithin 4 combined stderr:", res.within())
