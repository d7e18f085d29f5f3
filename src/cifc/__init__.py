"""Rate-region toolkit for the two-user cognitive interference channel.

The package computes, for finite-alphabet channels and explicitly sampled
input distributions, the unified achievable rate region and the prior
comparator regions, projects them onto the (R1, R2) plane, and runs the
per-distribution identity and containment suites that connect them.
The suites are the blocks of one claims table in `cifc.verify`, each line
an identity, a pinned-rate equality or a containment, and `run_suite`
runs one block or all of them.
"""

from .channel import Channel, canonical_channel  # noqa: F401
from .polytope import (  # noqa: F401
    HalfPlane,
    Polytope2D,
    membership_oracle,
    polytope_equal,
    project_or_empty,
)
from .probability import (  # noqa: F401
    FactorizationSpec,
    JointDistribution,
    MIExpr,
    MITerm,
    RandomVariableSet,
    evaluate_expr,
    extend_through_channel,
    mi,
)
from .regions import (  # noqa: F401
    RegionSchema,
    builtin_schema,
    instantiate,
    schema_manifest,
)
from .sampling import sample_factored  # noqa: F401
from .verify import (  # noqa: F401
    check_cc_reduction,
    check_identities,
    run_suite,
    sampled_region_containment,
    trace_frontier,
)

__version__ = "0.1.0"
