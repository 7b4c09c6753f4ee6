"""Weighted proportional allocation of chores and goods with subsidies.

Pipeline: reduce any instance to identical ordering, run fractional
bid-and-take, build the item-sharing forest, split each tree into
canonical components, round each component by exact minimization, lift
back, and certify every subsidy bound as an exact rational inequality.

The package exports what the command line is built from: the file
formats, :func:`run_pipeline` and the types its result holds, the oracle
and the generator.  Every other name is imported from its own submodule.
"""

__version__ = "0.1.0"

from .fbta import AllocationTrace, SuccessorRecord
from .graph import Edge, ItemSharingGraph, to_dot
from .model import (
    CHORES,
    GOODS,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    ModelError,
    SubsidyVector,
    compute_subsidies,
    format_decimal,
    parse_allocation,
    parse_instance,
    serialize_allocation,
    serialize_instance,
    validate_instance,
    wprop_share,
)
from .oracle import EnumerationCapExceeded, brute_force_rounding, gen_random_instance
from .rounding import (
    BASELINE,
    TREE,
    ComponentRounding,
    PipelineResult,
    RoundingCertificate,
    TreeRounding,
    run_pipeline,
)

__all__ = [
    "CHORES",
    "GOODS",
    "TREE",
    "BASELINE",
    "ModelError",
    "EnumerationCapExceeded",
    "Instance",
    "FractionalAllocation",
    "IntegralAllocation",
    "SubsidyVector",
    "AllocationTrace",
    "SuccessorRecord",
    "ItemSharingGraph",
    "Edge",
    "PipelineResult",
    "RoundingCertificate",
    "TreeRounding",
    "ComponentRounding",
    "run_pipeline",
    "parse_instance",
    "serialize_instance",
    "parse_allocation",
    "serialize_allocation",
    "validate_instance",
    "compute_subsidies",
    "wprop_share",
    "format_decimal",
    "to_dot",
    "brute_force_rounding",
    "gen_random_instance",
]
