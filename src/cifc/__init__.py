"""Rate-region toolkit for the two-user cognitive interference channel.

The package computes, for finite-alphabet channels and explicitly sampled
input distributions, the unified achievable rate region and the prior
comparator regions, projects them onto the (R1, R2) plane, and runs the
per-distribution identity and containment suites that connect them.
The suites are the blocks of one claims table in `cifc.verify`, each line
an identity, a pinned-rate equality or a containment, and `run_suite`
runs one block or all of them.  Every joint is drawn by
`cifc.sampling.sample_instances` and every MI expression read by
`cifc.probability.compile_exprs`, a batch at a time.
"""

from .channel import Channel, canonical_channel  # noqa: F401
from .polytope import (  # noqa: F401
    HalfPlane,
    Polytope2D,
    project_or_empty,
)
from .probability import (  # noqa: F401
    FactorizationSpec,
    JointDistribution,
    MIExpr,
    MITerm,
    RandomVariableSet,
    extend_through_channel,
    mi,
)
from .regions import (  # noqa: F401
    RegionSchema,
    builtin_schema,
    instantiate,
    schema_manifest,
)
from .verify import (  # noqa: F401
    check_identities,
    run_suite,
    sampled_region_containment,
    trace_frontier,
)

__version__ = "0.1.0"
