"""Trace achievable-rate frontiers over input distributions.

Maximizes weighted sum rates by derivative-free search over the factored
input distributions, for a grid of weights, and prints the non-dominated
points.  On the clean channel the frontier recovers the unit-square
corner (1, 1); on noisy channels it bends inward.
"""

import time

from cifc.channel import canonical_channel
from cifc.verify import trace_frontier

for label, channel, budget in (
    ("orthogonal_noiseless", canonical_channel("orthogonal_noiseless"), 1200),
    ("bsc_pair(0.05, 0.10)", canonical_channel("bsc_pair", eps1=0.05, eps2=0.10), 800),
):
    t0 = time.time()
    result = trace_frontier("RTD", channel, budget=budget, seed=1,
                            lambdas=[0.0, 0.25, 0.5, 0.75, 1.0])
    print(f"\n== {label} (budget {budget}/lambda, {time.time()-t0:.0f}s) ==")
    print("lambda   R1       R2")
    for lam, r1, r2, _ in result.points:
        print(f"{lam:5.2f}  {r1:7.4f}  {r2:7.4f}")
    print("frontier:", [(round(a, 4), round(b, 4)) for a, b in result.pareto])
