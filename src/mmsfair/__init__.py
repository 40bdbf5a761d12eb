"""mmsfair: exact approximate maximin-share allocation of indivisible goods.

A library and CLI that computes allocations guaranteeing every agent at
least 3/4 + min(1/36, 3/(16n-4)) of their maximin share, using exact
rational arithmetic throughout, with an exhaustive maximin oracle for
independent verification and generators for the known worst-case family.
"""

from .bagfill import BagFillRun, BagState, TraceEvent, complete_allocation, run_bag_fill
from .core import (
    Allocation,
    Bundle,
    Instance,
    Value,
    allocation_from_json,
    allocation_to_json,
    bundle_value,
    format_value,
    instance_from_json,
    instance_to_json,
    make_instance,
    parse_value,
    validate_allocation,
    validate_instance,
)
from .errors import (
    CapacityError,
    ContractError,
    InternalInvariantError,
    MmsfairError,
    ValidationError,
)
from .harness import (
    GeneratorSpec,
    VerifyReport,
    gen_random,
    gen_tight_example,
    generate,
    verify,
)
from .oracle import (
    MmsResult,
    instance_mms_all,
    instance_mms_values,
    mms,
    mms_naive,
)
from .pipeline import AlphaChoice, SolveReport, alpha_for, approx_mms
from .transforms import (
    OrderingMap,
    ReductionLog,
    ReductionRecord,
    alpha_limit,
    apply_reduction,
    is_ordered,
    is_totally_irreducible,
    lift_ordered,
    lift_reductions,
    normalize,
    reduce,
    replay_log,
    rule_bundle,
    rule_target,
    to_ordered,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AlphaChoice",
    "BagFillRun",
    "BagState",
    "Bundle",
    "CapacityError",
    "ContractError",
    "GeneratorSpec",
    "Instance",
    "InternalInvariantError",
    "MmsResult",
    "MmsfairError",
    "OrderingMap",
    "ReductionLog",
    "ReductionRecord",
    "SolveReport",
    "TraceEvent",
    "ValidationError",
    "Value",
    "VerifyReport",
    "allocation_from_json",
    "allocation_to_json",
    "alpha_for",
    "alpha_limit",
    "apply_reduction",
    "approx_mms",
    "bundle_value",
    "complete_allocation",
    "format_value",
    "gen_random",
    "gen_tight_example",
    "generate",
    "instance_from_json",
    "instance_mms_all",
    "instance_mms_values",
    "instance_to_json",
    "is_ordered",
    "is_totally_irreducible",
    "lift_ordered",
    "lift_reductions",
    "make_instance",
    "mms",
    "mms_naive",
    "normalize",
    "parse_value",
    "reduce",
    "replay_log",
    "rule_bundle",
    "rule_target",
    "run_bag_fill",
    "to_ordered",
    "validate_allocation",
    "validate_instance",
    "verify",
]
