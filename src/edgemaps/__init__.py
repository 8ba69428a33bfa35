"""Edge mappings of complete graphs: forced patterns, constructions, exact search."""

from .graphs import (
    PatternGraph,
    SimpleGraph,
    edge_id,
    edge_pair,
    load_pattern,
    make_pattern,
)
from .mapping import (
    ContractError,
    EdgeMapping,
    MappingClass,
    ShiftProfile,
    format_mapping,
    parse_mapping,
    random_mapping,
)
from .detect import Certificate, find_exclusive, find_fixed, find_free, find_shifted
from .bounds import Bound, BoundReport, ExValue, ex_value
from .search import (
    AvoidanceSpec,
    CapacityReport,
    SearchOptions,
    SearchOutcome,
    compute_parameter,
    exists_avoiding,
    shift_capacity,
)
from .reproduce import MANIFEST, RunContext, RunRecord, run_all, run_manifest

__version__ = "0.1.0"

__all__ = [
    "AvoidanceSpec",
    "Bound",
    "BoundReport",
    "CapacityReport",
    "Certificate",
    "ContractError",
    "EdgeMapping",
    "ExValue",
    "MANIFEST",
    "MappingClass",
    "PatternGraph",
    "RunContext",
    "RunRecord",
    "SearchOptions",
    "SearchOutcome",
    "ShiftProfile",
    "SimpleGraph",
    "compute_parameter",
    "edge_id",
    "edge_pair",
    "ex_value",
    "exists_avoiding",
    "find_exclusive",
    "find_fixed",
    "find_free",
    "find_shifted",
    "format_mapping",
    "load_pattern",
    "make_pattern",
    "parse_mapping",
    "random_mapping",
    "run_all",
    "run_manifest",
    "shift_capacity",
]
