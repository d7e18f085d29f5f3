"""Build a channel, evaluate the unified rate region at a distribution,
and project it onto the (R1, R2) plane.

The walk-through constructs the clean two-link channel, feeds it the
textbook assignment (cognitive private message on X1, primary message on
X2), and shows that the region is exactly the unit square.  It then
samples structured random distributions and cross-checks the projection
against the independent enumeration oracle.
"""

import numpy as np

from cifc.channel import canonical_channel, random_channel
from cifc.polytope import Polytope2D, oracle_polygon, polytopes_equal, project_or_empty
from cifc.probability import JointDistribution, RandomVariableSet, extend_through_channel
from cifc.regions import builtin_schema, instantiate
from cifc.sampling import sample_instances

rtd = builtin_schema("RTD")
print(f"unified region: {len(rtd.constraints)} constraints over "
      f"{len(rtd.rate_vars)} nonnegative rates")
for c in rtd.constraints:
    print(f"  [{c.label}] {c}")

# --- the noiseless anchor ----------------------------------------------------
print("\n== clean channel, textbook assignment ==")
channel = canonical_channel("orthogonal_noiseless")
names = ("U1c", "U2c", "U1pb", "U2pb", "X1", "X2")
sizes = (1, 1, 2, 1, 2, 2)
prob = np.zeros(sizes)
for a in range(2):
    for c in range(2):
        prob[0, 0, a, 0, a, c] = 0.25  # U1pb = X1 uniform, X2 uniform independent
dist = extend_through_channel(JointDistribution(RandomVariableSet(names, sizes), prob), channel)

poly = project_or_empty(instantiate(rtd, dist))
print("vertices:", [(round(x, 6), round(y, 6)) for x, y in poly.vertices])
print("half-planes a1 R1 + a2 R2 <= b, each with the constraints it comes from:")
for h in poly.halfplanes:
    source = "+".join(f"[{lab}]" for lab in h.labels) or "rates >= 0"
    print(f"  {h.a1:+.3f} R1 {h.a2:+.3f} R2 <= {h.b:.6f}   from {source}")

# --- sampled distributions and the oracle cross-check --------------------------
print("\n== sampled instances on a random channel ==")
channel = random_channel(7)
for seed in range(4):
    d = sample_instances(rtd, [channel], [seed], [("free", "det", "flat_det")[seed % 3]])[0]
    system = instantiate(rtd, d)
    poly = project_or_empty(system)
    if poly.is_empty:
        print(f"seed {seed}: empty region (binning bounds exceed decoding capacity)")
        continue
    # the oracle's hull, as a region of vertices alone, against the projection
    same, = polytopes_equal([poly], [Polytope2D((), oracle_polygon(system))], 1e-7)
    print(f"seed {seed}: {len(poly.vertices)} vertices, max corner "
          f"({poly.max_coord():.4f}); oracle hull has the same vertices: {same}")
